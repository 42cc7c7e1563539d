//! perfbench: time to verdict on four workloads.
//!
//! `perfbench --workload <verify|hunt|corpus|construct> --seed N
//! --seconds S --trace 0|1` runs one workload in this process and prints,
//! as its last line, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with tracing off (`--trace 0`) or the per-layer
//! metrics from a traced run (`--trace 1`). Run it from the repository
//! root. `--record-answers` prints the known answers for `answers.rs`;
//! `--corrupt-answer` feeds one deliberately wrong expected answer (the
//! oracle's self-test). See `perfbench/README.md`.

mod answers;
mod bench;
mod layers;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tpa_check::Verdict;
use tpa_obs::Metrics;

use bench::{build, verdict_tag, Bench, Cx};
use spans::Tracer;
use stats::{mean, median, permutation, splitmix};
use workloads::{Checks, Corpus, LedgerFixture, OpResult};

/// Set-ups per run, spread over its passes; `setup_s` is their median.
const SETUPS: usize = 5;
/// States each op's replay visits for the `tso` per-call costs.
pub(crate) const REPLAY_STATES: usize = 4000;
/// An untraced run starts no pass that, at the previous pass's length,
/// would end past this many times `--seconds` (it always does 2). The
/// pass count is fixed so that two commits time the same work; this
/// bounds a run's length when the machine is slow throughout.
const MAX_RUN_FACTOR: f64 = 1.15;
/// Prior corpus runs the corpus ledger is seeded with.
const LEDGER_COPIES: usize = 20;

/// End-to-end metrics, in output order, with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("ok_frac", "ratio"),
    ("witness_len", "directives"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, in output order, with units. A metric a workload
/// does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("tso.step_ns", "ns"),
    ("tso.fork_ns", "ns"),
    ("tso.state_key_ns", "ns"),
    ("tso.canonical_key_ns", "ns"),
    ("tso.independent_ns", "ns"),
    ("invariant.battery_ns", "ns"),
    ("search.transitions", "count"),
    ("search.unique_states", "count"),
    ("search.dup_ratio", "ratio"),
    ("search.states_per_s", "1/s"),
    ("search.cpu_util", "ratio"),
    ("search.steals", "count"),
    ("search.donated", "count"),
    ("search.worker_skew", "ratio"),
    ("search.explained_share", "ratio"),
    ("cache.hit_rate", "ratio"),
    ("cache.subsumed", "count"),
    ("sleep.prune_rate", "ratio"),
    ("checker.overhead_ms", "ms"),
    ("vm.compile_us", "us"),
    ("shrink.ms", "ms"),
    ("shrink.iterations", "count"),
    ("shrink.len_ratio", "ratio"),
    ("render.us", "us"),
    ("verdict.witness_drift", "count"),
    ("swarm.schedules_to_violation", "count"),
    ("swarm.transitions_per_s", "1/s"),
    ("dsl.compile_us", "us"),
    ("dsl.share", "ratio"),
    ("ledger.records_at_start", "count"),
    ("ledger.open_ms", "ms"),
    ("ledger.share", "ratio"),
    ("core.new_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.sim_events", "count"),
    ("core.ns_per_event", "ns"),
    ("core.phase_ms.read", "ms"),
    ("core.phase_ms.write", "ms"),
    ("core.phase_ms.regularize", "ms"),
    ("core.erasures", "count"),
    ("trace.overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt: false,
        record: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--corrupt-answer" => a.corrupt = true,
            "--record-answers" => a.record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !a.record && !["verify", "hunt", "corpus", "construct"].contains(&a.workload.as_str()) {
        return Err("--workload must be verify, hunt, corpus or construct".into());
    }
    Ok(a)
}

// --------------------------------------------------------------- pass loop

fn out_dir() -> PathBuf {
    PathBuf::from("perfbench/out")
}

/// Seeds the corpus ledger: one real corpus pass into a scratch ledger,
/// copied `LEDGER_COPIES` times.
fn seed_ledger(pid_dir: &Path) -> Result<LedgerFixture, String> {
    let source = pid_dir.join("ledger-source");
    let _ = std::fs::remove_dir_all(&source);
    let corpus = Corpus::load(Path::new("scenarios"))?;
    let mut tr = Tracer::new(false);
    for fi in 0..corpus.files.len() {
        corpus.file_ops(fi, Some(&source), None, &mut tr, false);
    }
    let fixture = LedgerFixture::seed(&pid_dir.join("ledger"), &source, LEDGER_COPIES)
        .map_err(|e| format!("seeding the ledger: {e}"))?;
    let _ = std::fs::remove_dir_all(&source);
    Ok(fixture)
}

/// Runs `count` passes, numbered from `first`; returns every op result
/// and each pass's peak resident memory (MiB).
fn passes(
    bench: &mut dyn Bench,
    cx: &mut Cx,
    count: usize,
    first: usize,
) -> Result<(Vec<OpResult>, Vec<f64>), String> {
    let mut results = Vec::new();
    let mut peaks = Vec::new();
    for pass in first..first + count {
        bench.before_pass(cx)?;
        stats::reset_peak_rss();
        let order = permutation(bench.units(), splitmix(cx.seed ^ (pass as u64) << 16));
        for u in order {
            cx.tr.set_op((pass * 1000 + u) as u64);
            results.extend(bench.unit(u, pass, cx));
            stats::release_free_memory();
        }
        peaks.push(stats::peak_rss_mb());
    }
    Ok((results, peaks))
}

/// Each op's typical time over the passes, by op name. An op whose work
/// is fixed counts at its fastest pass: on a shared machine other load
/// only ever slows an op, and the fastest of many passes is the estimate
/// least moved by how busy the machine was during the run. An op whose work varies (a 2-thread search's interleaving, a
/// swarm op's per-pass seed) counts at its median, since its fastest
/// pass would be its luckiest draw of work, not a quiet machine.
fn op_typical(results: &[OpResult]) -> BTreeMap<&str, f64> {
    let mut by_op: BTreeMap<&str, (bool, Vec<f64>)> = BTreeMap::new();
    for r in results {
        let e = by_op.entry(&r.name).or_insert((true, Vec::new()));
        e.0 &= r.fixed_work;
        e.1.push(r.ms);
    }
    by_op
        .into_iter()
        .map(|(k, (fixed, v))| {
            let t = if fixed {
                v.iter().copied().fold(f64::INFINITY, f64::min)
            } else {
                median(&v)
            };
            (k, t)
        })
        .collect()
}

/// The typical pass, in seconds: the sum over the input set of each op's
/// typical time. Pass totals swing with whatever else the machine runs
/// during that pass; per-op estimates over all passes swing less.
fn typical_pass_s(results: &[OpResult]) -> f64 {
    op_typical(results).values().sum::<f64>() / 1e3
}

fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    if head.is_empty() {
        return "unknown (not a git checkout)".into();
    }
    match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_owned())
            .or_else(|_| {
                let packed = std::fs::read_to_string(".git/packed-refs")?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_owned)
                    .ok_or(std::io::Error::other("ref not found"))
            })
            .unwrap_or_else(|_| format!("unknown ({r})")),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_owned())
}

fn json_str(s: &str) -> String {
    tpa_obs::json::escape(s)
}

fn print_result(results: &[OpResult], metrics: &[(&str, &str)], values: &BTreeMap<String, f64>) {
    let attempted = results.len();
    let failed = results.iter().filter(|r| r.error.is_some()).count();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit)| {
            let v = values.get(*name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

fn run(args: &Args) -> Result<(), String> {
    if !Path::new("scenarios/BASELINE.json").is_file() || !Path::new("crates").is_dir() {
        return Err("run from the repository root (scenarios/ and crates/ not found)".into());
    }
    if args.record {
        record_answers();
        return Ok(());
    }
    let work = out_dir().join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = measure(args, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn measure(args: &Args, work: &Path) -> Result<(), String> {
    // The corpus ledger fixture is made once per process, before any
    // set-up is timed: it stands for prior runs, not for set-up work.
    let fixture = if args.workload == "corpus" {
        Some(seed_ledger(work)?)
    } else {
        None
    };
    let records = fixture.as_ref().map_or(0, |f| f.records);
    let mut cx = Cx {
        seed: args.seed,
        tr: Tracer::new(false),
        metrics: None,
        corrupt: args.corrupt,
        fixture,
    };

    let (mut bench, first_setup) = set_up(args, &mut cx)?;
    let mut setups = vec![first_setup];
    let threads = bench.threads();
    let count = ((args.seconds / bench.nominal_pass_s()).round() as usize).max(2);

    println!(
        "stamp {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"passes\": {}, \
         \"nproc\": {}, \"threads\": {threads}, \"rustc\": {}, \"git\": {}, \
         \"ledger.records_at_start\": {records}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        count,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&rustc_version()),
        json_str(&git_revision()),
    );

    let mut values = BTreeMap::new();
    let results = if !args.trace {
        // Further set-ups are spread over the run, so their median sees
        // the same stretch of machine time as the passes.
        let spacing = (count / SETUPS).max(1);
        let mut results = Vec::new();
        let mut peaks = Vec::new();
        let started = Instant::now();
        let mut last_pass_s = 0.0;
        let mut per_pass = 0;
        for pass in 0..count {
            let elapsed = started.elapsed().as_secs_f64();
            if pass >= 2 && elapsed + last_pass_s > MAX_RUN_FACTOR * args.seconds {
                println!(
                    "stopped after {pass} of {count} passes: another would end past \
                     {MAX_RUN_FACTOR} x --seconds"
                );
                break;
            }
            if pass > 0 && pass % spacing == 0 && setups.len() < SETUPS {
                let (b, s) = set_up(args, &mut cx)?;
                bench = b;
                setups.push(s);
            }
            let pass_start = started.elapsed().as_secs_f64();
            let (r, p) = passes(bench.as_mut(), &mut cx, 1, pass)?;
            last_pass_s = started.elapsed().as_secs_f64() - pass_start;
            per_pass = r.len();
            results.extend(r);
            peaks.extend(p);
        }
        // Each sample stands in as its op's typical time over the passes:
        // the pass-to-pass swings of a shared machine and of 2-thread
        // work sharing then move the quantiles only through those.
        let per_op = op_typical(&results);
        let typical: Vec<f64> = results.iter().map(|r| per_op[r.name.as_str()]).collect();
        let (tail, pct, n) = stats::tail(&typical, per_pass * count);
        let failed = results.iter().filter(|r| r.error.is_some()).count();
        let witness: Vec<f64> = results
            .iter()
            .filter_map(|r| r.witness_len.map(|w| w as f64))
            .collect();
        values.insert("setup_s".into(), median(&setups));
        values.insert("pass_s".into(), typical_pass_s(&results));
        values.insert("op_ms.p50".into(), median(&typical));
        values.insert("op_ms.tail".into(), tail);
        values.insert(
            "ok_frac".into(),
            1.0 - failed as f64 / results.len().max(1) as f64,
        );
        values.insert("witness_len".into(), mean(&witness));
        values.insert("peak_rss_mb".into(), median(&peaks));
        println!(
            "op_ms.tail is p{pct:.1} over {n} op samples; failed_frac {:.4} ({failed} of {}); \
             set-ups {setups:.4?} s",
            failed as f64 / results.len().max(1) as f64,
            results.len(),
        );
        let per_op: Vec<String> = per_op
            .iter()
            .map(|(name, ms)| format!("{name} {ms:.2}"))
            .collect();
        println!(
            "op ms (fastest pass for fixed work, median for varying work): {}",
            per_op.join(", ")
        );
        results
    } else {
        traced(bench.as_mut(), &mut cx, count, &mut values, args)?
    };
    for r in results.iter().filter(|r| r.error.is_some()) {
        println!("WRONG {}: {}", r.name, r.error.as_deref().unwrap_or(""));
    }
    let metrics = if args.trace { PER_LAYER } else { END_TO_END };
    print_result(&results, metrics, &values);
    Ok(())
}

/// One set-up: the workload's inputs built from scratch, then one warm-up
/// op. Returns the bench and the seconds it took; the ledger reset in
/// between is not counted.
fn set_up(args: &Args, cx: &mut Cx) -> Result<(Box<dyn Bench>, f64), String> {
    let t = Instant::now();
    let mut b = build(&args.workload, args.corrupt)?;
    let built = t.elapsed().as_secs_f64();
    b.before_pass(cx)?;
    let t = Instant::now();
    let w = b.warm_up();
    b.unit(w, usize::MAX / 2, cx);
    Ok((b, built + t.elapsed().as_secs_f64()))
}

/// The traced run: untraced passes, traced passes (spans and a metrics
/// registry on), then the per-layer probes.
fn traced(
    bench: &mut dyn Bench,
    cx: &mut Cx,
    count: usize,
    values: &mut BTreeMap<String, f64>,
    args: &Args,
) -> Result<Vec<OpResult>, String> {
    let half = (count / 2).max(2);
    let (mut results, _) = passes(bench, cx, half, 0)?;
    let plain_s = typical_pass_s(&results);
    cx.tr.set_enabled(true);
    let registry = Arc::new(Metrics::new());
    cx.metrics = Some(registry.clone());
    let (traced, _) = passes(bench, cx, half, half)?;
    cx.metrics = None;
    values.insert(
        "trace.overhead".into(),
        typical_pass_s(&traced) / plain_s.max(1e-9),
    );
    values.insert(
        "cache.subsumed".into(),
        registry.counter_value("cache.subsumed").unwrap_or(0) as f64 / half as f64,
    );
    bench.layers(&traced, half, cx, values);
    cx.tr.set_enabled(false);
    if let Some(f) = cx.fixture.take() {
        // The ledger's share of the pass: the same passes without it.
        let (bare, _) = passes(bench, cx, half, 2 * half)?;
        cx.fixture = Some(f);
        let bare_s = typical_pass_s(&bare);
        values.insert(
            "ledger.share".into(),
            (plain_s - bare_s) / plain_s.max(1e-9),
        );
        results.extend(bare);
    }
    println!("span self time (ms) by call, traced passes and probes:");
    for (name, (total, own, calls)) in cx.tr.self_times() {
        if !name.starts_with("op:") {
            println!(
                "  {name:<40} total {:>10.2}  self {:>10.2}  calls {calls}",
                total / 1e3,
                own / 1e3
            );
        }
    }
    let path = out_dir().join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    cx.tr
        .write_perfetto(&path, &format!("perfbench {}", args.workload))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("perfetto trace: {}", path.display());
    results.extend(traced);
    Ok(results)
}

fn record_answers() {
    println!("verify unique states (1 thread):");
    for lock in tpa_algos::all_locks(3, 1) {
        let r = tpa_check::Checker::new(lock.as_ref())
            .max_steps(40)
            .max_transitions(workloads::BUDGET)
            .exhaustive();
        println!(
            "  \"{}\" => {}, // {}",
            lock.name(),
            r.stats.unique_states,
            verdict_tag(&r)
        );
    }
    let hunt = Checks::hunt();
    println!("hunt (1 thread):");
    for op in &hunt.ops {
        let r = Checks::run(op, 1, 1, None, &mut Tracer::new(false));
        let v = match &r.verdict {
            Verdict::Pass => "pass".to_owned(),
            Verdict::Incomplete { reason, .. } => format!("incomplete: {reason}"),
            Verdict::Violation {
                invariant,
                found_len,
                shrunk,
                ..
            } => format!("{invariant} found {found_len} shrunk {}", shrunk.len()),
        };
        println!(
            "  {} unique {} {v} ({})",
            op.name,
            r.stats.unique_states,
            verdict_tag(&r)
        );
    }
    println!("construct (replay-validated erasure):");
    for a in answers::CONSTRUCT {
        let lock = tpa_algos::lock_by_name(a.algo, a.n, 1).expect("known lock");
        let t = Instant::now();
        match tpa_adversary::Construction::new(lock.as_ref(), workloads::construct_config(true)) {
            Ok(c) => {
                let o = c.run();
                let act: Vec<usize> = o.rounds.iter().map(|r| r.act_end).collect();
                println!(
                    "  ConstructAnswer {{ algo: \"{}\", n: {}, rounds: {}, fences_forced: {}, \
                     total_contention: {}, act: &{:?} }}, // {:.1} s, {}",
                    a.algo,
                    a.n,
                    o.rounds_completed(),
                    o.fences_forced(),
                    o.total_contention,
                    act,
                    t.elapsed().as_secs_f64(),
                    o.stop
                );
            }
            Err(e) => println!("  {} n={}: {e}", a.algo, a.n),
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
