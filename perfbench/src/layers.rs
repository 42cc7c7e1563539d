//! Per-layer costs measured from outside: replays over an op's own
//! reachable states timing the public `tso` and `check::invariant` calls,
//! a re-run of the witness shrink and render, and a probe that
//! timestamps the adversary's existing events.

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use tpa_check::{enabled_all, Invariant};
use tpa_obs::{AdvEvent, Probe};
use tpa_tso::shrink::shrink_schedule;
use tpa_tso::{trace, Directive, Machine, MemoryModel, ProcId, SymmetryGroup, System};

/// Accumulated time and call count of one public function.
#[derive(Clone, Copy, Default, Debug)]
pub struct Cost {
    pub ns: f64,
    pub calls: u64,
}

impl Cost {
    pub fn add(&mut self, other: Cost) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns / self.calls as f64
        }
    }

    fn timed(calls: u64, f: impl FnOnce()) -> Cost {
        let t = Instant::now();
        f();
        Cost {
            ns: t.elapsed().as_nanos() as f64,
            calls,
        }
    }
}

/// Per-call costs of the `tso` and invariant layers.
#[derive(Clone, Copy, Default, Debug)]
pub struct TsoCosts {
    pub step: Cost,
    pub fork: Cost,
    pub state_key: Cost,
    pub canonical_key: Cost,
    pub independent: Cost,
    pub battery: Cost,
}

impl TsoCosts {
    pub fn add(&mut self, o: &TsoCosts) {
        self.step.add(o.step);
        self.fork.add(o.fork);
        self.state_key.add(o.state_key);
        self.canonical_key.add(o.canonical_key);
        self.independent.add(o.independent);
        self.battery.add(o.battery);
    }
}

/// Repetitions of the O(1) key call, so one timing covers enough work.
const KEY_REPS: u64 = 16;

/// Collects up to `limit` distinct reachable states of `system` by DFS
/// (concrete keys), then times each public call over exactly those
/// states: `fork_for_search`, `step` of every enabled directive on a
/// fresh fork, `state_key`, `canonical_state_key` (when the symmetry
/// group is non-trivial), `independent` over enabled pairs, and the
/// invariant battery's `check`.
pub fn replay_costs(
    system: &dyn System,
    model: MemoryModel,
    crashes: u32,
    invariants: &[Box<dyn Invariant>],
    limit: usize,
) -> TsoCosts {
    let mut root = Machine::with_model(system, model);
    root.set_crash_budget(crashes);
    let mut seen = HashSet::new();
    let mut stack = vec![root.fork_for_search()];
    let mut states = Vec::new();
    while let Some(m) = stack.pop() {
        if states.len() >= limit {
            break;
        }
        if !seen.insert(m.state_key().0) {
            continue;
        }
        for d in enabled_all(&m) {
            let mut child = m.fork_for_search();
            if child.step(d).is_ok() {
                stack.push(child);
            }
        }
        states.push(m);
    }
    drop(stack);
    let enabled: Vec<Vec<Directive>> = states.iter().map(enabled_all).collect();
    let mut c = TsoCosts {
        fork: Cost::timed(states.len() as u64, || {
            for s in &states {
                black_box(s.fork_for_search());
            }
        }),
        ..TsoCosts::default()
    };
    let mut forks: Vec<(Machine, Directive)> = states
        .iter()
        .zip(&enabled)
        .flat_map(|(s, en)| en.iter().map(|d| (s.fork_for_search(), *d)))
        .collect();
    c.step = Cost::timed(forks.len() as u64, || {
        for (m, d) in forks.iter_mut() {
            let _ = black_box(m.step(*d));
        }
    });
    drop(forks);
    c.state_key = Cost::timed(states.len() as u64 * KEY_REPS, || {
        for _ in 0..KEY_REPS {
            for s in &states {
                black_box(black_box(s).state_key());
            }
        }
    });
    let group = SymmetryGroup::for_spec(&system.vars(), system.n());
    if !group.is_trivial() {
        c.canonical_key = Cost::timed(states.len() as u64, || {
            for s in &states {
                black_box(s.canonical_state_key(&group));
            }
        });
    }
    let pairs: u64 = enabled
        .iter()
        .map(|en| (en.len() * en.len().saturating_sub(1) / 2) as u64)
        .sum();
    c.independent = Cost::timed(pairs, || {
        for (s, en) in states.iter().zip(&enabled) {
            for (i, a) in en.iter().enumerate() {
                for b in &en[i + 1..] {
                    black_box(s.independent(*a, *b));
                }
            }
        }
    });
    c.battery = Cost::timed(states.len() as u64, || {
        for s in &states {
            for inv in invariants {
                black_box(inv.check(s));
            }
        }
    });
    c
}

/// The same calls at construction scale: every process's `Enter` step on
/// a fresh n-process machine, then a solo run of process 0, each step
/// timed in aggregate; forks, keys, independence and the battery on the
/// resulting wide state.
pub fn wide_costs(system: &dyn System, invariants: &[Box<dyn Invariant>]) -> TsoCosts {
    let n = system.n();
    let mut m = Machine::new(system);
    let mut step = Cost::timed(n as u64, || {
        for p in 0..n {
            let _ = black_box(m.step(Directive::Issue(ProcId(p as u32))));
        }
    });
    let mut solo = 0u64;
    let t = Instant::now();
    for _ in 0..10_000 {
        let en = m.enabled_directives(ProcId(0));
        let Some(d) = en.first() else { break };
        if m.step(*d).is_err() {
            break;
        }
        solo += 1;
    }
    step.add(Cost {
        ns: t.elapsed().as_nanos() as f64,
        calls: solo,
    });
    const REPS: u64 = 8;
    let fork = Cost::timed(REPS, || {
        for _ in 0..REPS {
            black_box(m.fork_for_search());
        }
    });
    let state_key = Cost::timed(REPS * KEY_REPS, || {
        for _ in 0..REPS * KEY_REPS {
            black_box(black_box(&m).state_key());
        }
    });
    let en: Vec<Directive> = (1..n.min(64))
        .flat_map(|p| m.enabled_directives(ProcId(p as u32)))
        .collect();
    let independent = Cost::timed(en.len() as u64, || {
        for d in &en {
            black_box(m.independent(Directive::Issue(ProcId(0)), *d));
        }
    });
    let battery = Cost::timed(REPS, || {
        for _ in 0..REPS {
            for inv in invariants {
                black_box(inv.check(&m));
            }
        }
    });
    TsoCosts {
        step,
        fork,
        state_key,
        canonical_key: Cost::default(),
        independent,
        battery,
    }
}

/// One re-run of the verdict pipeline's shrink and render on a found
/// witness.
pub struct ShrinkRun {
    pub ms: f64,
    pub iterations: u64,
    pub found_len: usize,
    pub shrunk_len: usize,
    pub render_us: f64,
}

/// Re-runs `shrink_schedule` on `found` against the invariant that fired,
/// counting predicate evaluations, then replays the shrunk schedule and
/// renders its timeline.
pub fn shrink_rerun(
    system: &dyn System,
    model: MemoryModel,
    found: &[Directive],
    fired: &dyn Invariant,
) -> ShrinkRun {
    let iterations = std::cell::Cell::new(0u64);
    let t = Instant::now();
    let shrunk = shrink_schedule(system, model, found, |m| {
        iterations.set(iterations.get() + 1);
        fired.check(m).is_some()
    });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let mut m = Machine::with_model(system, model);
    for d in &shrunk {
        if m.step(*d).is_err() {
            break;
        }
    }
    let t = Instant::now();
    black_box(trace::timeline(m.log(), m.n()));
    ShrinkRun {
        ms,
        iterations: iterations.get(),
        found_len: found.len(),
        shrunk_len: shrunk.len(),
        render_us: t.elapsed().as_secs_f64() * 1e6,
    }
}

/// Timestamps the adversary's existing events; phase time is the gap
/// from the previous phase (or round start) to each phase event.
#[derive(Default)]
pub struct PhaseClock {
    events: Mutex<Vec<(Instant, AdvEvent)>>,
}

/// Phase times (ms) and erasure count of one construction.
#[derive(Clone, Copy, Default, Debug)]
pub struct Phases {
    pub read_ms: f64,
    pub write_ms: f64,
    pub regularize_ms: f64,
    pub erasures: u64,
}

impl PhaseClock {
    /// Takes the recorded events and attributes their gaps to phases.
    pub fn take(&self) -> Phases {
        let events = std::mem::take(&mut *self.events.lock().expect("probe lock poisoned"));
        let mut p = Phases::default();
        let mut last: Option<Instant> = None;
        for (at, e) in &events {
            match e {
                AdvEvent::RoundStart { .. } => last = Some(*at),
                AdvEvent::Phase { label, .. } => {
                    let ms = last.map_or(0.0, |l| (*at - l).as_secs_f64() * 1e3);
                    if label.starts_with("read") {
                        p.read_ms += ms;
                    } else if label.starts_with("write") {
                        p.write_ms += ms;
                    } else if label.starts_with("regular") {
                        p.regularize_ms += ms;
                    }
                    last = Some(*at);
                }
                AdvEvent::Erasure { .. } => p.erasures += 1,
                _ => {}
            }
        }
        p
    }
}

impl Probe for PhaseClock {
    fn adversary(&self, event: &AdvEvent) {
        let now = Instant::now();
        self.events
            .lock()
            .expect("probe lock poisoned")
            .push((now, event.clone()));
    }
}
