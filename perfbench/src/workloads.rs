//! The four workloads, their ops, and the known-answer oracle each op is
//! judged by. Every expected answer comes from a path independent of the
//! run being measured: the recorded 1-thread references and replay-path
//! construction results in `answers.rs`, the scenario files' own
//! `expect` clauses, `scenarios/BASELINE.json`, and a replay of every
//! violation witness through the public `Machine::step`.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tpa_adversary::{Config, Construction, Outcome};
use tpa_algos::sim::bakery::BakeryLock;
use tpa_check::{
    battery, run_checks_opts, standard_invariants, Checker, Execution, Features, Invariant, Report,
    RunOptions, Verdict,
};
use tpa_dsl::{CompiledScenario, Expect as DslExpect};
use tpa_obs::json::{self, Json};
use tpa_obs::{Ledger, Metrics, Probe};
use tpa_tso::{Directive, Machine, MemoryModel, System, VmSystem};

use crate::answers;
use crate::spans::Tracer;
use crate::stats::splitmix;

/// Transition budget of every exhaustive check (the C1 budget).
pub const BUDGET: u64 = 4_000_000;

/// What one op must produce.
#[derive(Clone, Debug)]
pub enum Expect {
    /// A complete pass visiting exactly this many unique states.
    Pass { unique_states: usize },
    /// A violation of the named invariant.
    Violation { invariant: String },
}

/// The result of one op, judged.
pub struct OpResult {
    pub name: String,
    pub ms: f64,
    /// Why the result is wrong, when it is.
    pub error: Option<String>,
    /// Witness length (directives) of a violation or construction op.
    pub witness_len: Option<usize>,
    /// The checker report, for check and clause ops.
    pub report: Option<Report>,
    /// Process CPU seconds spent in the op.
    pub cpu_s: f64,
    /// Whether the op does the same work in every pass: a 1-thread
    /// search or a construction. A 2-thread search's interleaving and a
    /// swarm op's per-pass seed change its work from pass to pass.
    pub fixed_work: bool,
}

impl OpResult {
    fn judged(name: String, ms: f64, cpu_s: f64, verdict: Result<Option<usize>, String>) -> Self {
        let (error, witness_len) = match verdict {
            Ok(w) => (None, w),
            Err(e) => (Some(e), None),
        };
        OpResult {
            name,
            ms,
            error,
            witness_len,
            report: None,
            cpu_s,
            fixed_work: true,
        }
    }
}

/// Replays `witness` from the initial state through `Machine::step` and
/// reports whether `invariant` fires in the state it reaches.
pub fn replays_to(
    system: &dyn System,
    model: MemoryModel,
    crashes: u32,
    witness: &[Directive],
    invariant: &dyn Invariant,
) -> bool {
    let mut m = Machine::with_model(system, model);
    m.set_crash_budget(crashes);
    witness.iter().all(|d| m.step(*d).is_ok()) && invariant.check(&m).is_some()
}

/// Judges a report against its known answer. Returns the shrunk witness
/// length for violations.
pub fn judge(
    report: &Report,
    expect: &Expect,
    system: &dyn System,
    crashes: u32,
    invariants: &[Box<dyn Invariant>],
) -> Result<Option<usize>, String> {
    match (expect, &report.verdict) {
        (Expect::Pass { unique_states }, Verdict::Pass) => {
            if !report.stats.complete {
                Err("pass without a complete search".into())
            } else if report.stats.unique_states != *unique_states {
                Err(format!(
                    "{} unique states, reference {unique_states}",
                    report.stats.unique_states
                ))
            } else {
                Ok(None)
            }
        }
        (Expect::Pass { .. }, Verdict::Incomplete { reason, .. }) => Err(format!(
            "incomplete where a complete pass is known: {reason}"
        )),
        (Expect::Pass { .. }, Verdict::Violation { invariant, .. }) => {
            Err(format!("{invariant} violation where a pass is known"))
        }
        (
            Expect::Violation { invariant: want },
            Verdict::Violation {
                invariant,
                found,
                shrunk,
                ..
            },
        ) => {
            if invariant != want {
                return Err(format!("{invariant} fired, expected {want}"));
            }
            let fired = invariants
                .iter()
                .find(|i| i.name() == *invariant)
                .ok_or_else(|| format!("{invariant} is not in the battery"))?;
            for (label, w) in [("found", found), ("shrunk", shrunk)] {
                if !replays_to(system, report.model, crashes, w, fired.as_ref()) {
                    return Err(format!("{label} witness does not replay to {invariant}"));
                }
            }
            Ok(Some(shrunk.len()))
        }
        (Expect::Violation { invariant }, _) => Err(format!("no {invariant} violation found")),
    }
}

// ---------------------------------------------------------------- checks

/// One `Checker` call.
pub struct CheckOp {
    pub name: String,
    pub system: Box<dyn System>,
    pub model: MemoryModel,
    pub max_steps: usize,
    pub features: Features,
    /// `Some(schedules)` for a seeded swarm op; exhaustive otherwise.
    pub swarm: Option<usize>,
    pub expect: Expect,
}

impl CheckOp {
    /// The system the search executes: `vm`, the op's compiled build,
    /// when its features ask for compiled execution; the native system
    /// otherwise.
    pub fn searched<'a>(&'a self, vm: Option<&'a VmSystem>) -> &'a dyn System {
        match vm {
            Some(vm) if self.features.execution == Execution::Compiled => vm,
            _ => self.system.as_ref(),
        }
    }
}

/// The verify and hunt workloads: lists of `Checker` calls.
pub struct Checks {
    pub ops: Vec<CheckOp>,
    pub threads: usize,
}

fn lock(name: &str, n: usize) -> Box<dyn System> {
    tpa_algos::lock_by_name(name, n, 1).unwrap_or_else(|| panic!("unknown lock {name}"))
}

impl Checks {
    /// The C1 sweep: every lock of the portfolio at n = 3, 40 steps, TSO,
    /// native execution and concrete keys, plus the sweep's negative
    /// control (the bakery lock without its doorway fence).
    pub fn verify() -> Self {
        let mut ops: Vec<CheckOp> = tpa_algos::all_locks(3, 1)
            .into_iter()
            .map(|system| {
                let name = format!("{}-n3", system.name());
                let unique_states = answers::verify_states(system.name());
                CheckOp {
                    name,
                    system,
                    model: MemoryModel::Tso,
                    max_steps: 40,
                    features: Features::default(),
                    swarm: None,
                    expect: Expect::Pass { unique_states },
                }
            })
            .collect();
        ops.push(CheckOp {
            name: "bakery-nofence-n3".into(),
            system: Box::new(BakeryLock::without_doorway_fence(3, 1)),
            model: MemoryModel::Tso,
            max_steps: 40,
            features: Features::default(),
            swarm: None,
            expect: Expect::Violation {
                invariant: answers::NOFENCE_INVARIANT.into(),
            },
        });
        Checks { ops, threads: 2 }
    }

    /// Bug finding under `Features::full()`: PSO violations, the fenceless
    /// bakery under TSO, two PSO-correct controls, and two seeded swarms.
    pub fn hunt() -> Self {
        let full = Features::full();
        let mut ops = Vec::new();
        let mut exhaustive = |name: String, system: Box<dyn System>, model, expect| {
            ops.push(CheckOp {
                name,
                system,
                model,
                max_steps: answers::HUNT_STEPS,
                features: full,
                swarm: None,
                expect,
            })
        };
        for (algo, n) in answers::HUNT_PSO_VIOLATIONS {
            let expect = Expect::Violation {
                invariant: answers::PSO_INVARIANT.into(),
            };
            exhaustive(
                format!("{algo}-pso-n{n}"),
                lock(algo, *n),
                MemoryModel::Pso,
                expect,
            );
        }
        for n in [3, 4] {
            let expect = Expect::Violation {
                invariant: answers::NOFENCE_INVARIANT.into(),
            };
            let system = Box::new(BakeryLock::without_doorway_fence(n, 1));
            exhaustive(
                format!("bakery-nofence-n{n}"),
                system,
                MemoryModel::Tso,
                expect,
            );
        }
        for (algo, unique_states) in answers::HUNT_PSO_CONTROLS {
            let expect = Expect::Pass {
                unique_states: *unique_states,
            };
            exhaustive(
                format!("{algo}-pso-n3"),
                lock(algo, 3),
                MemoryModel::Pso,
                expect,
            );
        }
        for (algo, n) in answers::HUNT_SWARMS {
            ops.push(CheckOp {
                name: format!("{algo}-pso-n{n}-swarm"),
                system: lock(algo, *n),
                model: MemoryModel::Pso,
                max_steps: answers::SWARM_STEPS,
                features: full,
                swarm: Some(answers::SWARM_SCHEDULES),
                expect: Expect::Violation {
                    invariant: answers::PSO_INVARIANT.into(),
                },
            });
        }
        Checks { ops, threads: 2 }
    }

    /// The determinism probe's extra op: PSO bakery at n = 4, which
    /// exhausts the budget at 2 threads. Kept out of the timed loop only
    /// because one run takes seconds.
    pub fn drift_probe() -> CheckOp {
        CheckOp {
            name: "bakery-pso-n4".into(),
            system: lock("bakery", 4),
            model: MemoryModel::Pso,
            max_steps: answers::HUNT_STEPS,
            features: Features::full(),
            swarm: None,
            expect: Expect::Violation {
                invariant: answers::PSO_INVARIANT.into(),
            },
        }
    }

    /// Runs op `op` at `threads`, inside a span.
    pub fn run(
        op: &CheckOp,
        threads: usize,
        seed: u64,
        metrics: Option<&Arc<Metrics>>,
        tr: &mut Tracer,
    ) -> Report {
        let mut c = Checker::new(op.system.as_ref())
            .model(op.model)
            .max_steps(op.max_steps)
            .max_transitions(BUDGET)
            .threads(threads)
            .features(op.features);
        if let Some(m) = metrics {
            c = c.metrics(m.clone());
        }
        match op.swarm {
            Some(schedules) => tr.time("check.Checker::swarm", || c.seed(seed).swarm(schedules)),
            None => tr.time("check.Checker::exhaustive", || c.exhaustive()),
        }
    }

    /// Runs and judges op `i`.
    pub fn op(
        &self,
        i: usize,
        seed: u64,
        metrics: Option<&Arc<Metrics>>,
        tr: &mut Tracer,
    ) -> OpResult {
        let op = &self.ops[i];
        let cpu0 = crate::stats::cpu_seconds();
        let t = Instant::now();
        let span = tr.begin(&format!("op:{}", op.name));
        let report = Self::run(op, self.threads, seed, metrics, tr);
        tr.end(span);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let cpu_s = crate::stats::cpu_seconds() - cpu0;
        let verdict = judge(
            &report,
            &op.expect,
            op.system.as_ref(),
            0,
            &standard_invariants(),
        );
        let mut r = OpResult::judged(op.name.clone(), ms, cpu_s, verdict);
        r.report = Some(report);
        r.fixed_work = self.threads == 1 && op.swarm.is_none();
        r
    }
}

/// Seed of swarm op `i` in pass `pass`. It does not depend on the run's
/// seed: every run draws the same swarm seeds, one per pass, so two runs
/// time the same swarm work. With a seed of each run's own, the median
/// time of a swarm op over 16 passes at 1 thread differed by up to 2x
/// between runs (169 to 371 ms on PSO bakery n = 8), which is luck in
/// where the first violating schedule falls, not speed.
pub fn op_seed(pass: usize, i: usize) -> u64 {
    splitmix(((pass as u64) << 32) ^ i as u64)
}

// ---------------------------------------------------------------- corpus

/// One clause of a committed baseline.
pub struct BaseClause {
    pub verdict: String,
    pub complete: bool,
    pub unique_states: u64,
}

/// One scenario file with its baseline clauses.
pub struct CorpusFile {
    pub path: String,
    pub src: String,
    pub baseline: Vec<BaseClause>,
}

/// A ledger seeded to a fixed size, restored to that size before every
/// pass.
pub struct LedgerFixture {
    pub dir: PathBuf,
    pub records: usize,
    index_len: u64,
    keep: HashSet<std::ffi::OsString>,
}

impl LedgerFixture {
    /// Seeds `dir` with `copies` copies of every record in `source` (a
    /// ledger one real corpus pass wrote), so the fixture has the shape
    /// of that many prior corpus runs.
    pub fn seed(dir: &Path, source: &Path, copies: usize) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(dir);
        let from = Ledger::open(source)?;
        let to = Ledger::open(dir)?;
        let entries = from.read_index()?;
        let mut records = Vec::new();
        for e in &entries {
            records.push(from.load(&e.id)?);
        }
        for _ in 0..copies {
            for r in &records {
                to.append(&mut r.clone())?;
            }
        }
        let index_len = std::fs::metadata(dir.join("index.jsonl"))?.len();
        let keep = std::fs::read_dir(dir.join("runs"))?
            .filter_map(|e| e.ok().map(|e| e.file_name()))
            .collect();
        Ok(LedgerFixture {
            dir: dir.to_path_buf(),
            records: records.len() * copies,
            index_len,
            keep,
        })
    }

    /// Drops everything appended since seeding.
    pub fn reset(&self) -> std::io::Result<()> {
        let index = std::fs::OpenOptions::new()
            .write(true)
            .open(self.dir.join("index.jsonl"))?;
        index.set_len(self.index_len)?;
        for e in std::fs::read_dir(self.dir.join("runs"))? {
            let e = e?;
            if !self.keep.contains(&e.file_name()) {
                std::fs::remove_file(e.path())?;
            }
        }
        Ok(())
    }
}

/// The `scenarios/` corpus: every file through `compile_named` and
/// `run_checks_opts` at one thread, recording into a ledger.
pub struct Corpus {
    pub files: Vec<CorpusFile>,
    pub clauses: usize,
}

fn collect_tpa(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for e in std::fs::read_dir(dir)? {
        let p = e?.path();
        if p.is_dir() {
            collect_tpa(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "tpa") {
            out.push(p);
        }
    }
    Ok(())
}

impl Corpus {
    /// Reads every `.tpa` under `root` and its `BASELINE.json`.
    pub fn load(root: &Path) -> Result<Self, String> {
        let base_text = std::fs::read_to_string(root.join("BASELINE.json"))
            .map_err(|e| format!("{}/BASELINE.json: {e}", root.display()))?;
        let base = json::parse(&base_text).map_err(|e| format!("BASELINE.json: {e}"))?;
        let mut paths = Vec::new();
        collect_tpa(root, &mut paths).map_err(|e| format!("{}: {e}", root.display()))?;
        paths.sort();
        let mut files = Vec::new();
        let mut clauses = 0;
        for p in paths {
            let path = format!("scenarios/{}", p.strip_prefix(root).unwrap_or(&p).display());
            let src = std::fs::read_to_string(&p).map_err(|e| format!("{path}: {e}"))?;
            let baseline: Vec<BaseClause> = base
                .get("scenarios")
                .and_then(|s| s.get(&path))
                .and_then(|s| s.get("clauses"))
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{path} has no BASELINE.json entry"))?
                .iter()
                .map(|c| BaseClause {
                    verdict: c.get("verdict").and_then(Json::as_str).unwrap_or("").into(),
                    complete: c.get("complete").and_then(Json::as_bool) == Some(true),
                    unique_states: c.get("unique_states").and_then(Json::as_u64).unwrap_or(0),
                })
                .collect();
            clauses += baseline.len();
            files.push(CorpusFile {
                path,
                src,
                baseline,
            });
        }
        Ok(Corpus { files, clauses })
    }

    /// Compiles file `fi` and runs each of its clauses as one op. The
    /// compile time is part of the file's first op.
    pub fn file_ops(
        &self,
        fi: usize,
        ledger: Option<&Path>,
        metrics: Option<&Arc<Metrics>>,
        tr: &mut Tracer,
        corrupt: bool,
    ) -> Vec<OpResult> {
        let f = &self.files[fi];
        let cpu0 = crate::stats::cpu_seconds();
        let t = Instant::now();
        // The first clause's op span covers the file's compilation.
        let mut span = tr.begin(&format!("op:{}#0", f.path));
        let compiled = tr.time("dsl.compile_named", || {
            tpa_dsl::compile_named(&f.src, &f.path)
        });
        let mut sc: CompiledScenario = match compiled {
            Ok(sc) => sc,
            Err(e) => {
                tr.end(span);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                return (0..f.baseline.len())
                    .map(|j| {
                        let err = Err(format!("does not compile: {e}"));
                        OpResult::judged(format!("{}#{j}", f.path), ms, 0.0, err)
                    })
                    .collect();
            }
        };
        let clauses = std::mem::take(&mut sc.checks);
        let mut out = Vec::new();
        let mut start = t;
        let mut cpu_start = cpu0;
        for j in 0..f.baseline.len().max(clauses.len()) {
            let name = format!("{}#{j}", f.path);
            sc.checks = clauses.get(j).cloned().into_iter().collect();
            let opts = RunOptions {
                threads: 1,
                ledger: ledger.map(Path::to_path_buf),
                scenario_id: Some(f.path.clone()),
                metrics: metrics.cloned(),
                ..RunOptions::default()
            };
            if j > 0 {
                span = tr.begin(&format!("op:{name}"));
            }
            let outcome = tr.time("check.run_checks_opts", || run_checks_opts(&sc, &opts));
            tr.end(span);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let cpu_s = crate::stats::cpu_seconds() - cpu_start;
            start = Instant::now();
            cpu_start = crate::stats::cpu_seconds();
            let outcome = match outcome {
                Ok(mut v) if v.len() == 1 => v.remove(0),
                Ok(v) => {
                    let err = Err(format!("{} outcomes for one clause", v.len()));
                    out.push(OpResult::judged(name, ms, cpu_s, err));
                    continue;
                }
                Err(e) => {
                    out.push(OpResult::judged(name, ms, cpu_s, Err(e)));
                    continue;
                }
            };
            let verdict = Self::judge_clause(f, j, &sc, &outcome.clause, &outcome.report, corrupt);
            let mut r = OpResult::judged(name, ms, cpu_s, verdict);
            r.report = Some(outcome.report);
            out.push(r);
        }
        out
    }

    fn judge_clause(
        f: &CorpusFile,
        j: usize,
        sc: &CompiledScenario,
        clause: &tpa_dsl::Check,
        report: &Report,
        corrupt: bool,
    ) -> Result<Option<usize>, String> {
        let base = f
            .baseline
            .get(j)
            .ok_or_else(|| format!("clause {j} is not in BASELINE.json"))?;
        let mut want_violation = clause.expect == DslExpect::Violation;
        if corrupt {
            want_violation = !want_violation;
        }
        let got = match &report.verdict {
            Verdict::Pass => "pass",
            Verdict::Violation { .. } => "violation",
            Verdict::Incomplete { .. } => "incomplete",
        };
        if got != base.verdict {
            return Err(format!("verdict {got}, baseline {}", base.verdict));
        }
        let expect = if want_violation {
            let invariant = match &report.verdict {
                Verdict::Violation { invariant, .. } => invariant.to_string(),
                _ => "any invariant".into(),
            };
            Expect::Violation { invariant }
        } else if base.complete {
            Expect::Pass {
                unique_states: base.unique_states as usize,
            }
        } else {
            return Err("baseline clause is not a complete pass".into());
        };
        judge(
            report,
            &expect,
            &sc.system,
            clause.crashes,
            &battery(sc, clause.crashes),
        )
    }
}

// ------------------------------------------------------------- construct

/// One adversary construction.
pub struct ConstructOp {
    pub name: String,
    pub system: Box<dyn System>,
    pub answer: &'static answers::ConstructAnswer,
}

/// The paper's adversary at large n, fast erasure, up to 14 rounds.
pub struct Constructs {
    pub ops: Vec<ConstructOp>,
}

/// The construction configuration of the workload (T1's sweep setting).
pub fn construct_config(replay_validated: bool) -> Config {
    Config {
        max_rounds: answers::CONSTRUCT_ROUNDS,
        check_invariants: replay_validated,
        fast_erasure: !replay_validated,
        ..Config::default()
    }
}

/// Compares an outcome with its replay-path answer.
pub fn judge_construction(out: &Outcome, a: &answers::ConstructAnswer) -> Result<(), String> {
    let act: Vec<usize> = out.rounds.iter().map(|r| r.act_end).collect();
    if out.rounds_completed() != a.rounds
        || out.fences_forced() != a.fences_forced
        || out.total_contention != a.total_contention
        || act != a.act
    {
        return Err(format!(
            "rounds {} fences {} contention {} act {:?}; replay path: {} {} {} {:?}",
            out.rounds_completed(),
            out.fences_forced(),
            out.total_contention,
            act,
            a.rounds,
            a.fences_forced,
            a.total_contention,
            a.act
        ));
    }
    Ok(())
}

impl Constructs {
    pub fn new() -> Self {
        let ops = answers::CONSTRUCT
            .iter()
            .map(|a| ConstructOp {
                name: format!("{}-n{}", a.algo, a.n),
                system: lock(a.algo, a.n),
                answer: a,
            })
            .collect();
        Constructs { ops }
    }

    /// Runs and judges op `i`; `probe` receives the adversary events.
    pub fn op(
        &self,
        i: usize,
        probe: Option<Arc<dyn Probe>>,
        tr: &mut Tracer,
        corrupt: bool,
    ) -> (OpResult, usize) {
        let op = &self.ops[i];
        let cpu0 = crate::stats::cpu_seconds();
        let t = Instant::now();
        let span = tr.begin(&format!("op:{}", op.name));
        let built = tr.time("core.Construction::new", || {
            Construction::new(op.system.as_ref(), construct_config(false))
        });
        let result = built.map(|mut c| {
            if let Some(p) = probe {
                c.attach_probe(p, false);
            }
            tr.time("core.Construction::run_with_machine", || {
                c.run_with_machine()
            })
        });
        tr.end(span);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let cpu_s = crate::stats::cpu_seconds() - cpu0;
        match result {
            Ok((out, machine)) => {
                let mut answer = op.answer.clone();
                if corrupt {
                    answer.rounds += 1;
                }
                let len = machine.schedule().len();
                let verdict = judge_construction(&out, &answer).map(|()| Some(len));
                (
                    OpResult::judged(op.name.clone(), ms, cpu_s, verdict),
                    machine.log().len(),
                )
            }
            Err(e) => {
                let err = Err(format!("construction did not start: {e}"));
                (OpResult::judged(op.name.clone(), ms, cpu_s, err), 0)
            }
        }
    }
}
