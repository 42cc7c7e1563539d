//! The workloads as the pass loop sees them: a pass is made of units, each
//! unit runs one or more judged ops, and after the traced passes each
//! workload runs its per-layer probes.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tpa_check::{standard_invariants, Invariant, Report, Verdict};
use tpa_obs::{Ledger, Metrics, Probe};
use tpa_tso::System;

use crate::layers::{self, PhaseClock, TsoCosts};
use crate::spans::Tracer;
use crate::stats::{mean, median};
use crate::workloads::{
    self, CheckOp, Checks, Constructs, Corpus, Expect, LedgerFixture, OpResult,
};
use crate::REPLAY_STATES;

/// What every workload offers the pass loop.
pub trait Bench {
    /// Units a pass is made of (ops; files for the corpus).
    fn units(&self) -> usize;
    /// Worker threads of each op.
    fn threads(&self) -> usize;
    /// Nominal seconds of one pass at seed, which turns `--seconds` into a
    /// pass count that is the same on every run.
    fn nominal_pass_s(&self) -> f64;
    /// The unit set-up runs once as its warm-up op: a fixed, mid-sized
    /// op, so set-up time does not depend on the seed.
    fn warm_up(&self) -> usize;
    /// Runs unit `u` of pass `pass`.
    fn unit(&mut self, u: usize, pass: usize, cx: &mut Cx) -> Vec<OpResult>;
    /// Prepares the next pass (untimed).
    fn before_pass(&mut self, _cx: &Cx) -> Result<(), String> {
        Ok(())
    }
    /// Per-layer probes after `passes` traced passes that produced
    /// `traced`.
    fn layers(
        &mut self,
        traced: &[OpResult],
        passes: usize,
        cx: &mut Cx,
        out: &mut BTreeMap<String, f64>,
    );
}

/// Run-wide context: seed, tracer, metrics registry, corpus ledger.
pub struct Cx {
    pub seed: u64,
    pub tr: Tracer,
    pub metrics: Option<Arc<Metrics>>,
    pub corrupt: bool,
    pub fixture: Option<LedgerFixture>,
}

// ------------------------------------------------------------ verify, hunt

struct CheckBench {
    checks: Checks,
    hunt: bool,
}

impl Bench for CheckBench {
    fn units(&self) -> usize {
        self.checks.ops.len()
    }
    fn threads(&self) -> usize {
        self.checks.threads
    }
    fn nominal_pass_s(&self) -> f64 {
        3.0
    }
    fn warm_up(&self) -> usize {
        let name = if self.hunt {
            "tournament-pso-n4"
        } else {
            "mcs-n3"
        };
        self.checks
            .ops
            .iter()
            .position(|o| o.name == name)
            .unwrap_or(0)
    }
    fn unit(&mut self, u: usize, pass: usize, cx: &mut Cx) -> Vec<OpResult> {
        let seed = workloads::op_seed(pass, u);
        vec![self.checks.op(u, seed, cx.metrics.as_ref(), &mut cx.tr)]
    }
    fn layers(
        &mut self,
        traced: &[OpResult],
        passes: usize,
        cx: &mut Cx,
        out: &mut BTreeMap<String, f64>,
    ) {
        let threads = self.checks.threads;
        let mut costs = BTreeMap::new();
        let mut compile_us = Vec::new();
        for op in &self.checks.ops {
            let t = Instant::now();
            let vm = cx
                .tr
                .time("tso.System::compile_vm", || op.system.compile_vm());
            compile_us.push(t.elapsed().as_secs_f64() * 1e6);
            let sys = op.searched(vm.as_ref());
            let c = cx.tr.time("tso.replay", || {
                layers::replay_costs(sys, op.model, 0, &standard_invariants(), REPLAY_STATES)
            });
            costs.insert(op.name.clone(), c);
        }
        put_costs(out, &costs);
        out.insert("vm.compile_us".into(), mean(&compile_us));
        search_layers(traced, passes, threads, &costs, out);

        // 1-thread references: duplicated work and witness drift.
        let mut one = Vec::new();
        let mut two = Vec::new();
        let mut drift = 0;
        for (i, op) in self.checks.ops.iter().enumerate() {
            if op.swarm.is_some() {
                continue;
            }
            let Some(r2) = traced
                .iter()
                .rev()
                .find_map(|r| (r.name == op.name).then_some(r.report.as_ref()).flatten())
            else {
                continue;
            };
            let seed = workloads::op_seed(0, i);
            let r1 = cx.tr.time("reference.threads=1", || {
                Checks::run(op, 1, seed, None, &mut Tracer::new(false))
            });
            one.push(r1.stats.transitions as f64);
            two.push(r2.stats.transitions as f64);
            drift += usize::from(found(&r1) != found(r2));
        }
        out.insert(
            "search.dup_ratio".into(),
            two.iter().sum::<f64>() / one.iter().sum::<f64>().max(1.0),
        );
        // Also on verify, so that the probe is measured on a workload that
        // `BENCHMARK.json` declares.
        drift += drift_probe(cx);
        out.insert("verdict.witness_drift".into(), drift as f64);

        let invs = standard_invariants();
        let shrinks: Vec<layers::ShrinkRun> = last_pass(traced, self.units())
            .iter()
            .filter_map(|r| {
                let op = self.checks.ops.iter().find(|o| o.name == r.name)?;
                let report = r.report.as_ref()?;
                let Verdict::Violation {
                    invariant, found, ..
                } = &report.verdict
                else {
                    return None;
                };
                let fired = invs.iter().find(|i| i.name() == *invariant)?;
                let vm = op.system.compile_vm();
                let sys = op.searched(vm.as_ref());
                Some(cx.tr.time("tso.shrink_schedule", || {
                    layers::shrink_rerun(sys, op.model, found, fired.as_ref())
                }))
            })
            .collect();
        put_shrinks(out, &shrinks);

        let mut swarms: Vec<&Report> = traced
            .iter()
            .filter_map(|r| r.report.as_ref())
            .filter(|r| r.mode == "swarm")
            .collect();
        // verify has no swarm ops of its own: it runs hunt's once each.
        let probes: Vec<Report> = if swarms.is_empty() {
            let hunt = Checks::hunt();
            hunt.ops
                .iter()
                .enumerate()
                .filter(|(_, op)| op.swarm.is_some())
                .map(|(i, op)| {
                    let seed = workloads::op_seed(0, i);
                    cx.tr.time("probe.swarm", || {
                        Checks::run(op, hunt.threads, seed, None, &mut Tracer::new(false))
                    })
                })
                .collect()
        } else {
            Vec::new()
        };
        swarms.extend(&probes);
        if !swarms.is_empty() {
            let runs: Vec<f64> = swarms
                .iter()
                .map(|r| r.stats.schedules_run as f64)
                .collect();
            out.insert("swarm.schedules_to_violation".into(), mean(&runs));
            let trans: f64 = swarms.iter().map(|r| r.stats.transitions as f64).sum();
            let wall: f64 = swarms.iter().map(|r| r.wall.as_secs_f64()).sum();
            out.insert("swarm.transitions_per_s".into(), trans / wall.max(1e-9));
        }
    }
}

/// The determinism probe: PSO bakery at n = 4 at 2 threads and at 1.
/// Returns 1 when the witnesses differ. Recorded, not hidden.
fn drift_probe(cx: &mut Cx) -> usize {
    let op = Checks::drift_probe();
    let seed = cx.seed;
    let r2 = cx.tr.time("probe.threads=2", || {
        Checks::run(&op, 2, seed, None, &mut Tracer::new(false))
    });
    let r1 = cx.tr.time("probe.threads=1", || {
        Checks::run(&op, 1, seed, None, &mut Tracer::new(false))
    });
    let len = |r: &Report| found(r).map_or(0, <[_]>::len);
    let drifted = found(&r1) != found(&r2);
    println!(
        "determinism probe {}: found length {} at 2 threads ({}), {} at 1 thread ({}); {}",
        op.name,
        len(&r2),
        verdict_tag(&r2),
        len(&r1),
        verdict_tag(&r1),
        if drifted {
            "witness DRIFTS"
        } else {
            "same witness"
        }
    );
    usize::from(drifted)
}

pub fn verdict_tag(r: &Report) -> String {
    let complete = if r.stats.complete {
        "complete"
    } else {
        "budget exhausted"
    };
    format!("{} transitions, {complete}", r.stats.transitions)
}

pub fn found(r: &Report) -> Option<&[tpa_tso::Directive]> {
    match &r.verdict {
        Verdict::Violation { found, .. } => Some(found),
        _ => None,
    }
}

/// The results of the last traced pass (the final `units` ops).
fn last_pass(traced: &[OpResult], ops: usize) -> &[OpResult] {
    &traced[traced.len().saturating_sub(ops)..]
}

/// Per-call costs pooled over every op's replay.
fn put_costs(out: &mut BTreeMap<String, f64>, per_op: &BTreeMap<String, TsoCosts>) {
    let mut c = TsoCosts::default();
    for op in per_op.values() {
        c.add(op);
    }
    out.insert("tso.step_ns".into(), c.step.per_call());
    out.insert("tso.fork_ns".into(), c.fork.per_call());
    out.insert("tso.state_key_ns".into(), c.state_key.per_call());
    out.insert("tso.canonical_key_ns".into(), c.canonical_key.per_call());
    out.insert("tso.independent_ns".into(), c.independent.per_call());
    out.insert("invariant.battery_ns".into(), c.battery.per_call());
}

fn put_shrinks(out: &mut BTreeMap<String, f64>, shrinks: &[layers::ShrinkRun]) {
    if shrinks.is_empty() {
        return;
    }
    let col =
        |f: &dyn Fn(&layers::ShrinkRun) -> f64| mean(&shrinks.iter().map(f).collect::<Vec<_>>());
    out.insert("shrink.ms".into(), col(&|s| s.ms));
    out.insert("shrink.iterations".into(), col(&|s| s.iterations as f64));
    out.insert(
        "shrink.len_ratio".into(),
        col(&|s| s.shrunk_len as f64 / s.found_len.max(1) as f64),
    );
    out.insert("render.us".into(), col(&|s| s.render_us));
}

/// Search-engine metrics from the traced reports, with each op's own
/// per-call costs for the explained share.
fn search_layers(
    traced: &[OpResult],
    passes: usize,
    threads: usize,
    costs: &BTreeMap<String, TsoCosts>,
    out: &mut BTreeMap<String, f64>,
) {
    let passes = passes.max(1) as f64;
    let reports: Vec<(&OpResult, &Report)> = traced
        .iter()
        .filter_map(|r| r.report.as_ref().map(|rep| (r, rep)))
        .collect();
    let sum = |f: &dyn Fn(&Report) -> f64| reports.iter().map(|(_, r)| f(r)).sum::<f64>();
    let transitions = sum(&|r| r.stats.transitions as f64);
    let unique = sum(&|r| r.stats.unique_states as f64);
    let wall = sum(&|r| r.wall.as_secs_f64());
    let pruned = sum(&|r| r.stats.pruned_sleep as f64);
    let workers = |f: &dyn Fn(&tpa_check::WorkerStats) -> u64| {
        sum(&|r| r.workers.iter().map(f).sum::<u64>() as f64)
    };
    let hits = workers(&|w| w.cache_hits);
    let misses = workers(&|w| w.cache_misses);
    out.insert("search.transitions".into(), transitions / passes);
    out.insert("search.unique_states".into(), unique / passes);
    out.insert("search.states_per_s".into(), unique / wall.max(1e-9));
    let cpu: f64 = reports.iter().map(|(o, _)| o.cpu_s).sum();
    let op_s: f64 = reports.iter().map(|(o, _)| o.ms / 1e3).sum();
    out.insert(
        "search.cpu_util".into(),
        cpu / (op_s * threads as f64).max(1e-9),
    );
    out.insert("search.steals".into(), workers(&|w| w.steals) / passes);
    out.insert("search.donated".into(), workers(&|w| w.donated) / passes);
    let skews: Vec<f64> = reports
        .iter()
        .filter(|(_, r)| r.workers.len() > 1 && r.stats.transitions > 0)
        .map(|(_, r)| {
            let t: Vec<f64> = r.workers.iter().map(|w| w.transitions as f64).collect();
            t.iter().cloned().fold(0.0, f64::max) / mean(&t).max(1e-9)
        })
        .collect();
    out.insert(
        "search.worker_skew".into(),
        if skews.is_empty() { 1.0 } else { mean(&skews) },
    );
    // Every transition forks, steps, keys (canonically when symmetry
    // engaged) and runs the battery.
    let explained_ns: f64 = reports
        .iter()
        .filter_map(|(o, r)| {
            let c = costs.get(&o.name)?;
            let key = if r.symmetry {
                c.canonical_key.per_call()
            } else {
                c.state_key.per_call()
            };
            let per_transition = c.step.per_call() + c.fork.per_call() + key + c.battery.per_call();
            Some(r.stats.transitions as f64 * per_transition)
        })
        .sum();
    let cap: f64 = sum(&|r| r.wall.as_secs_f64() * r.threads as f64);
    out.insert(
        "search.explained_share".into(),
        explained_ns / 1e9 / cap.max(1e-9),
    );
    out.insert("cache.hit_rate".into(), hits / (hits + misses).max(1.0));
    out.insert(
        "sleep.prune_rate".into(),
        pruned / (pruned + transitions).max(1.0),
    );
    let overhead: Vec<f64> = reports
        .iter()
        .map(|(o, r)| o.ms - r.wall.as_secs_f64() * 1e3)
        .collect();
    out.insert("checker.overhead_ms".into(), mean(&overhead));
}

// ------------------------------------------------------------------ corpus

struct CorpusBench {
    corpus: Corpus,
}

impl Bench for CorpusBench {
    fn units(&self) -> usize {
        self.corpus.files.len()
    }
    fn threads(&self) -> usize {
        1
    }
    fn nominal_pass_s(&self) -> f64 {
        0.5
    }
    fn warm_up(&self) -> usize {
        0
    }
    fn unit(&mut self, u: usize, _pass: usize, cx: &mut Cx) -> Vec<OpResult> {
        let ledger = cx.fixture.as_ref().map(|f| f.dir.clone());
        let corrupt = cx.corrupt && u == 0;
        self.corpus.file_ops(
            u,
            ledger.as_deref(),
            cx.metrics.as_ref(),
            &mut cx.tr,
            corrupt,
        )
    }
    fn before_pass(&mut self, cx: &Cx) -> Result<(), String> {
        match &cx.fixture {
            Some(f) => f.reset().map_err(|e| format!("ledger reset: {e}")),
            None => Ok(()),
        }
    }
    fn layers(
        &mut self,
        traced: &[OpResult],
        passes: usize,
        cx: &mut Cx,
        out: &mut BTreeMap<String, f64>,
    ) {
        let mut costs = BTreeMap::new();
        let mut compile_us = Vec::new();
        let mut one = Vec::new();
        let mut two = Vec::new();
        let mut drift = 0;
        let mut shrinks = Vec::new();
        let last = last_pass(traced, self.corpus.clauses);
        for f in &self.corpus.files {
            let Ok(mut sc) = tpa_dsl::compile_named(&f.src, &f.path) else {
                continue;
            };
            let t = Instant::now();
            cx.tr
                .time("tso.System::compile_vm", || sc.system.compile_vm());
            compile_us.push(t.elapsed().as_secs_f64() * 1e6);
            let clauses = std::mem::take(&mut sc.checks);
            for (j, clause) in clauses.iter().enumerate() {
                let invs = tpa_check::battery(&sc, clause.crashes);
                let c = cx.tr.time("tso.replay", || {
                    layers::replay_costs(
                        &sc.system,
                        clause.model,
                        clause.crashes,
                        &invs,
                        REPLAY_STATES,
                    )
                });
                let name = format!("{}#{j}", f.path);
                costs.insert(name.clone(), c);
                sc.checks = vec![clause.clone()];
                let Some(r2) = last
                    .iter()
                    .find(|r| r.name == name)
                    .and_then(|r| r.report.as_ref())
                else {
                    continue;
                };
                let rerun = cx
                    .tr
                    .time("reference.threads=1", || tpa_check::run_checks(&sc, 1));
                if let Some(r1) = rerun.first().map(|o| &o.report) {
                    one.push(r1.stats.transitions as f64);
                    two.push(r2.stats.transitions as f64);
                    drift += usize::from(found(r1) != found(r2));
                }
                if let Verdict::Violation {
                    invariant, found, ..
                } = &r2.verdict
                {
                    if let Some(fired) = invs.iter().find(|i| i.name() == *invariant) {
                        shrinks.push(cx.tr.time("tso.shrink_schedule", || {
                            layers::shrink_rerun(&sc.system, clause.model, found, fired.as_ref())
                        }));
                    }
                }
            }
        }
        put_costs(out, &costs);
        put_shrinks(out, &shrinks);
        out.insert("vm.compile_us".into(), mean(&compile_us));
        search_layers(traced, passes, 1, &costs, out);
        out.insert(
            "search.dup_ratio".into(),
            two.iter().sum::<f64>() / one.iter().sum::<f64>().max(1.0),
        );
        out.insert("verdict.witness_drift".into(), drift as f64);
        let compile = cx.tr.durations_us("dsl.compile_named");
        out.insert("dsl.compile_us".into(), mean(&compile));
        let pass_us: f64 = traced.iter().map(|r| r.ms * 1e3).sum();
        out.insert(
            "dsl.share".into(),
            compile.iter().sum::<f64>() / pass_us.max(1e-9),
        );
        if let Some(f) = &cx.fixture {
            out.insert("ledger.records_at_start".into(), f.records as f64);
            let _ = f.reset();
            let opens: Vec<f64> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    cx.tr.time("obs.Ledger::open", || Ledger::open(&f.dir).ok());
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            out.insert("ledger.open_ms".into(), median(&opens));
        }
    }
}

// --------------------------------------------------------------- construct

struct ConstructBench {
    constructs: Constructs,
    clock: Arc<PhaseClock>,
    events: Vec<usize>,
    phases: Vec<layers::Phases>,
}

impl Bench for ConstructBench {
    fn units(&self) -> usize {
        self.constructs.ops.len()
    }
    fn threads(&self) -> usize {
        1
    }
    fn nominal_pass_s(&self) -> f64 {
        6.5
    }
    fn warm_up(&self) -> usize {
        let ops = &self.constructs.ops;
        ops.iter()
            .position(|o| o.name == "bakery-n1024")
            .unwrap_or(0)
    }
    fn unit(&mut self, u: usize, _pass: usize, cx: &mut Cx) -> Vec<OpResult> {
        let probe = cx
            .tr
            .enabled()
            .then(|| self.clock.clone() as Arc<dyn Probe>);
        let corrupt = cx.corrupt && u == 0;
        let (r, events) = self.constructs.op(u, probe, &mut cx.tr, corrupt);
        if cx.tr.enabled() {
            self.events.push(events);
            self.phases.push(self.clock.take());
        }
        vec![r]
    }
    fn layers(
        &mut self,
        _traced: &[OpResult],
        _passes: usize,
        cx: &mut Cx,
        out: &mut BTreeMap<String, f64>,
    ) {
        let mut costs = BTreeMap::new();
        let invs: Vec<Box<dyn Invariant>> = standard_invariants();
        for op in &self.constructs.ops {
            let c = cx.tr.time("tso.replay", || {
                layers::wide_costs(op.system.as_ref(), &invs)
            });
            costs.insert(op.name.clone(), c);
        }
        put_costs(out, &costs);
        let new = cx.tr.durations_us("core.Construction::new");
        let run = cx.tr.durations_us("core.Construction::run_with_machine");
        out.insert("core.new_ms".into(), mean(&new) / 1e3);
        out.insert("core.run_ms".into(), mean(&run) / 1e3);
        let events: Vec<f64> = self.events.iter().map(|&e| e as f64).collect();
        out.insert("core.sim_events".into(), mean(&events));
        out.insert(
            "core.ns_per_event".into(),
            run.iter().sum::<f64>() * 1e3 / events.iter().sum::<f64>().max(1.0),
        );
        let col = |f: &dyn Fn(&layers::Phases) -> f64| {
            mean(&self.phases.iter().map(f).collect::<Vec<_>>())
        };
        out.insert("core.phase_ms.read".into(), col(&|p| p.read_ms));
        out.insert("core.phase_ms.write".into(), col(&|p| p.write_ms));
        out.insert("core.phase_ms.regularize".into(), col(&|p| p.regularize_ms));
        out.insert("core.erasures".into(), col(&|p| p.erasures as f64));
    }
}

/// Builds the workload's inputs.
pub fn build(workload: &str, corrupt: bool) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        "verify" | "hunt" => {
            let mut checks = if workload == "hunt" {
                Checks::hunt()
            } else {
                Checks::verify()
            };
            if corrupt {
                corrupt_first(&mut checks.ops[0]);
            }
            Box::new(CheckBench {
                checks,
                hunt: workload == "hunt",
            })
        }
        "corpus" => Box::new(CorpusBench {
            corpus: Corpus::load(Path::new("scenarios"))?,
        }),
        _ => Box::new(ConstructBench {
            constructs: Constructs::new(),
            clock: Arc::new(PhaseClock::default()),
            events: Vec::new(),
            phases: Vec::new(),
        }),
    })
}

fn corrupt_first(op: &mut CheckOp) {
    op.expect = match &op.expect {
        Expect::Pass { unique_states } => Expect::Pass {
            unique_states: unique_states + 1,
        },
        Expect::Violation { .. } => Expect::Violation {
            invariant: "no-such-invariant".into(),
        },
    };
}
