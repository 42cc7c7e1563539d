//! Corpus golden tests: every `.tpa` scenario under `scenarios/`
//! compiles, every `check` clause reproduces its pinned verdict, and
//! every lock port that declares a `twin` behaves exactly like its
//! native lock: same verdict, same state count, same transition count,
//! at 1 and 4 checker worker threads. Nine ports are their lock's
//! bytecode source (`compile_vm` lowers them); the tournament port is
//! also pinned instruction for instruction to the Rust compiler that
//! the tournament keeps.

use std::fs;
use std::path::{Path, PathBuf};

use tpa::check::{run_checks, Checker, Features, Verdict};
use tpa::dsl::CompiledScenario;
use tpa::prelude::lock_by_name;
use tpa::tso::{ProcId, System};

/// Every `.tpa` file under `scenarios/`, sorted for stable output.
fn corpus() -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios")];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("read scenarios directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "tpa") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

fn compile(path: &Path) -> CompiledScenario {
    let src = fs::read_to_string(path).expect("read scenario");
    tpa::dsl::compile_named(&src, &path.display().to_string())
        .unwrap_or_else(|rendered| panic!("{rendered}"))
}

/// The committed corpus is the acceptance floor: at least 30 scenarios,
/// ten of which are lock ports pinned against native twins.
#[test]
fn corpus_has_at_least_thirty_scenarios() {
    let files = corpus();
    assert!(
        files.len() >= 30,
        "corpus shrank to {} scenarios; the floor is 30",
        files.len()
    );
    let twins = files.iter().filter(|p| {
        fs::read_to_string(p)
            .expect("read scenario")
            .contains("\ntwin ")
    });
    assert_eq!(twins.count(), 10, "all ten portfolio locks stay ported");
}

/// Every scenario compiles and every clause matches its pinned verdict.
/// This is the DSL's end-to-end golden test: a parser, lowering, or
/// checker regression that flips any verdict in the corpus fails here.
#[test]
fn every_scenario_compiles_and_matches_its_pinned_verdicts() {
    for path in corpus() {
        let scenario = compile(&path);
        for outcome in run_checks(&scenario, 2) {
            assert!(outcome.ok, "{}: {}", path.display(), outcome.summary());
        }
    }
}

/// Locks whose `compile_vm` does not lower their port: compiled
/// standalone, the port must give exactly the bytecode that compiler
/// emits. (For the other locks `compile_vm` lowers the port itself, so
/// that comparison would hold by construction.)
const SEPARATELY_COMPILED: &[&str] = &["tournament"];

/// Every port with a `twin` declaration behaves like its native lock:
/// exhaustive search over the port and over the native `Program` must
/// agree on the verdict, the number of unique states, and the number of
/// transitions — under both a single checker worker and four. A lock
/// with its own compiler must also match the port's code, initial
/// registers and recovery entry.
#[test]
fn lock_ports_match_their_native_twins() {
    let mut ported = 0;
    for path in corpus() {
        let scenario = compile(&path);
        let Some(twin) = scenario.twin.clone() else {
            continue;
        };
        ported += 1;
        let native = lock_by_name(&twin.lock, scenario.procs, twin.passages)
            .unwrap_or_else(|| panic!("{}: unknown twin `{}`", path.display(), twin.lock));
        if SEPARATELY_COMPILED.contains(&twin.lock.as_str()) {
            let native_vm = native.compile_vm().unwrap_or_else(|| {
                panic!(
                    "{}: native `{}` has no VM compiler",
                    path.display(),
                    twin.lock
                )
            });
            for p in 0..scenario.procs {
                let pid = ProcId(p as u32);
                let d = scenario.system.bytecode(pid);
                let n = native_vm.bytecode(pid);
                assert_eq!(d.code, n.code, "{}: p{p} code differs", path.display());
                assert_eq!(
                    d.init_regs,
                    n.init_regs,
                    "{}: p{p} initial registers differ",
                    path.display()
                );
                assert_eq!(
                    d.recover_pc,
                    n.recover_pc,
                    "{}: p{p} recovery entry differs",
                    path.display()
                );
            }
        }

        for threads in [1usize, 4] {
            let run = |sys: &dyn System| {
                Checker::new(sys)
                    .max_steps(60)
                    .max_transitions(4_000_000)
                    .threads(threads)
                    .exhaustive()
            };
            let d = run(&scenario.system);
            let n = run(native.as_ref());
            assert!(
                matches!(d.verdict, Verdict::Pass),
                "{} (threads {threads}): DSL port failed: {:?}",
                path.display(),
                d.verdict
            );
            assert!(
                matches!(n.verdict, Verdict::Pass),
                "{} (threads {threads}): native twin failed: {:?}",
                path.display(),
                n.verdict
            );
            assert_eq!(
                d.stats.unique_states,
                n.stats.unique_states,
                "{} (threads {threads}): state counts diverge",
                path.display()
            );
            // Transition counts are only deterministic single-worker:
            // racing workers may both expand a state they discovered
            // concurrently. The state space itself never differs.
            if threads == 1 {
                assert_eq!(
                    d.stats.transitions,
                    n.stats.transitions,
                    "{}: transition counts diverge",
                    path.display()
                );
            }
        }
    }
    assert_eq!(ported, 10, "all ten portfolio locks have twin-pinned ports");
}

/// DSL `symmetric` declarations are not taken on faith: under canonical
/// state keys the checker's start-of-run lockstep walk validates the
/// claimed equivariance, and `Report::symmetry` records that canonical
/// caching actually engaged (rather than falling back to concrete keys).
#[test]
fn symmetric_lock_ports_survive_the_lockstep_validation_walk() {
    for name in ["tas", "ttas", "ticketq", "mcs", "filter", "dijkstra"] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("scenarios/locks")
            .join(format!("{name}.tpa"));
        let scenario = compile(&path);
        assert!(scenario.symmetric, "{name}: scenario declares `symmetric`");
        let report = Checker::new(&scenario.system)
            .max_steps(60)
            .max_transitions(4_000_000)
            .features(Features::default().canonical())
            .exhaustive();
        report.assert_pass();
        assert!(
            report.symmetry,
            "{name}: canonical keys should engage, not fall back"
        );
    }
}
