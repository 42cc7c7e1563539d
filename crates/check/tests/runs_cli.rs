//! End-to-end tests for the `tpa_runs` binary against hand-damaged
//! ledgers: `diff` must pair "latest" by `(created_us, seq, id)` rather
//! than index-file position, `list` must report torn/duplicate index
//! lines instead of hiding them, and the read-only commands must refuse
//! a path that holds no ledger rather than create one.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use tpa_obs::{Ledger, RunRecord};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpa-runs-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tpa_runs"))
        .args(args)
        .output()
        .expect("spawn tpa_runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

fn append_run(ledger: &Ledger, scenario: &str) -> String {
    let mut rec = RunRecord {
        scenario: scenario.to_owned(),
        algo: "tas".to_owned(),
        model: "tso".to_owned(),
        mode: "swarm".to_owned(),
        verdict: "pass".to_owned(),
        ..RunRecord::default()
    };
    ledger.append(&mut rec).expect("append")
}

/// Rewrites `index.jsonl` so that the stored creation timestamps are
/// `ts[i]` for the i-th id, in the given *file* order — simulating a
/// `SystemTime` step backwards between appends.
fn rewrite_index(dir: &Path, scenario: &str, order: &[(&str, u64)]) {
    let mut f = fs::File::create(dir.join("index.jsonl")).expect("index");
    for (id, t) in order {
        writeln!(
            f,
            "{{\"id\":\"{id}\",\"t\":{t},\"scenario\":\"{scenario}\",\"algo\":\"tas\",\
             \"model\":\"tso\",\"mode\":\"swarm\",\"verdict\":\"pass\",\"path\":\"runs/{id}.json\"}}"
        )
        .expect("line");
    }
}

#[test]
fn diff_pairs_latest_by_creation_key_not_file_order() {
    let dir = scratch("diff-order");
    let ledger = Ledger::open(&dir).expect("open");
    let i0 = append_run(&ledger, "s");
    let i1 = append_run(&ledger, "s");
    let i2 = append_run(&ledger, "s");
    drop(ledger);
    // Clock stepped backwards: the run appended last (file order) is
    // *not* the latest. True creation order by t is i1 < i2 < i0.
    rewrite_index(&dir, "s", &[(&i0, 300), (&i1, 100), (&i2, 200)]);

    let (ok, text) = run(&["diff", dir.to_str().unwrap()]);
    assert!(ok, "diff failed:\n{text}");
    assert!(
        text.contains(&format!("== s ({i2} -> {i0})")),
        "must pair the two largest (created_us, seq, id) keys, got:\n{text}"
    );
    assert!(text.contains("0 regressions"), "{text}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn list_reports_torn_and_duplicate_index_lines() {
    let dir = scratch("list-health");
    let ledger = Ledger::open(&dir).expect("open");
    let id = append_run(&ledger, "s");
    drop(ledger);
    let mut f = fs::OpenOptions::new()
        .append(true)
        .open(dir.join("index.jsonl"))
        .expect("index");
    // A duplicate of the same id pointing at a record that lost the
    // (pre-`create_new`) collision, then a newline-terminated but
    // unparseable line from a crashed writer. (A line with no newline
    // at all is an append still in flight, not damage.)
    writeln!(
        f,
        "{{\"id\":\"{id}\",\"t\":9,\"scenario\":\"ghost\",\"verdict\":\"violation\",\
         \"path\":\"runs/lost.json\"}}"
    )
    .expect("dup");
    writeln!(f, "{{\"id\":\"half-wr").expect("torn");
    drop(f);

    let (ok, text) = run(&["list", dir.to_str().unwrap()]);
    assert!(ok, "list failed:\n{text}");
    assert!(text.contains("1 runs"), "{text}");
    assert!(
        !text.contains("ghost"),
        "lost duplicate must not win:\n{text}"
    );
    assert!(
        text.contains("skipped 1 torn index line"),
        "torn lines must be reported:\n{text}"
    );
    assert!(
        text.contains("collapsed 1 duplicate id"),
        "duplicates must be reported:\n{text}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn list_on_a_clean_ledger_prints_no_warnings() {
    let dir = scratch("list-clean");
    let ledger = Ledger::open(&dir).expect("open");
    append_run(&ledger, "a");
    append_run(&ledger, "b");
    drop(ledger);
    let (ok, text) = run(&["list", dir.to_str().unwrap()]);
    assert!(ok, "list failed:\n{text}");
    assert!(text.contains("2 runs"), "{text}");
    assert!(!text.contains("warning"), "{text}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn read_only_commands_on_a_missing_ledger_fail_and_create_nothing() {
    let dir = scratch("missing");
    let path = dir.to_str().unwrap();
    for args in [
        &["list", path][..],
        &["show", path, "some-id"],
        &["diff", path],
        &["diff", path, "a", "b"],
    ] {
        let (ok, text) = run(args);
        assert!(!ok, "{args:?} must fail on a missing ledger:\n{text}");
        assert!(
            text.contains(&format!("no ledger at {path}")),
            "{args:?} must name the missing ledger, got:\n{text}"
        );
        assert!(!dir.exists(), "{args:?} created {path}");
    }
}
