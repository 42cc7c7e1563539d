//! Lamport's bakery algorithm (read/write only).
//!
//! The classic n-process first-come-first-served lock: take a ticket one
//! larger than every ticket you can see, then wait until every smaller
//! (ticket, id) pair has been served. It uses only reads and writes, is
//! **non-adaptive** (the doorway scans all `n` slots: Θ(n) RMRs even when
//! running alone) — and needs only a **constant number of fences** per
//! passage (one after `choosing`, one closing the doorway, one on
//! release). It thereby sits on the opposite side of the paper's trade-off
//! from the adaptive locks: constant fences are possible exactly because
//! the algorithm refuses to adapt.

use tpa_tso::{Op, Outcome, ProcId, Program, System, Value, VarId, VarSpec, VmSystem};

/// The bakery lock system.
#[derive(Clone, Debug)]
pub struct BakeryLock {
    n: usize,
    passages: usize,
    pso_hardened: bool,
    doorway_fenced: bool,
    recoverable: bool,
}

impl BakeryLock {
    /// An `n`-process instance performing `passages` passages each.
    pub fn new(n: usize, passages: usize) -> Self {
        BakeryLock {
            n,
            passages,
            pso_hardened: false,
            doorway_fenced: true,
            recoverable: false,
        }
    }

    /// A PSO-safe variant: adds one fence between the `number` write and
    /// the `choosing := 0` write. Under TSO those two writes commit in
    /// issue order for free; under PSO (Section 6 of the paper) the
    /// adversary may reorder them, which breaks mutual exclusion — the
    /// separation between the models, paid for in one extra fence (see the
    /// `pso` integration tests).
    pub fn pso_hardened(n: usize, passages: usize) -> Self {
        BakeryLock {
            n,
            passages,
            pso_hardened: true,
            doorway_fenced: true,
            recoverable: false,
        }
    }

    /// A crash-recoverable variant for the fault model: on a crash the
    /// process abandons its passage and restarts cleanly at the doorway
    /// (losing registers and buffered writes, as
    /// [`tpa_tso::Machine::set_crash_budget`] specifies). Restarting the
    /// whole doorway — re-announcing `choosing`, rescanning, taking a
    /// fresh ticket — is what keeps exclusion: committed stale state
    /// (`choosing[me]`, `number[me]`) is republished and then properly
    /// cleared, so the survivors' view is never silently contradicted.
    pub fn recoverable(n: usize, passages: usize) -> Self {
        BakeryLock {
            n,
            passages,
            pso_hardened: false,
            doorway_fenced: true,
            recoverable: true,
        }
    }

    /// The crash-model negative control: recoverable, but with the
    /// doorway-closing fence removed. The victim's doorway stores
    /// (`number[me]`, `choosing[me] := 0`) can then still be buffered —
    /// and lost to a crash — while it scans its competitors, so the
    /// explorer with a crash budget of 1 finds executions in which a
    /// crash discards buffered doorway stores and two processes enter the
    /// critical section (see `crates/check/tests/crash_faults.rs`).
    pub fn recoverable_without_doorway_fence(n: usize, passages: usize) -> Self {
        BakeryLock {
            n,
            passages,
            pso_hardened: false,
            doorway_fenced: false,
            recoverable: true,
        }
    }

    /// A deliberately broken variant with the doorway-closing fence
    /// removed: `number[me]` and `choosing[me] := 0` stay buffered while
    /// the process scans its competitors. Under TSO two processes can
    /// then both take ticket 1, both observe the other's `choosing` and
    /// `number` as 0, and both enter the critical section. Exists to
    /// prove the `tpa-check` explorer actually catches real violations
    /// (see `tests/lock_correctness.rs`).
    pub fn without_doorway_fence(n: usize, passages: usize) -> Self {
        BakeryLock {
            n,
            passages,
            pso_hardened: false,
            doorway_fenced: false,
            recoverable: false,
        }
    }
}

impl System for BakeryLock {
    fn n(&self) -> usize {
        self.n
    }

    fn vars(&self) -> VarSpec {
        let mut b = VarSpec::builder();
        b.array("choosing", self.n, 0, |_| None);
        b.array("number", self.n, 0, |_| None);
        b.build()
    }

    fn program(&self, pid: ProcId) -> Box<dyn Program> {
        Box::new(BakeryProgram {
            me: pid.index(),
            n: self.n,
            state: State::Enter,
            max: 0,
            my_number: 0,
            passages_left: self.passages,
            pso_hardened: self.pso_hardened,
            doorway_fenced: self.doorway_fenced,
            recoverable: self.recoverable,
        })
    }

    fn name(&self) -> &str {
        match (self.pso_hardened, self.doorway_fenced, self.recoverable) {
            (true, _, _) => "bakery-pso",
            (_, false, true) => "bakery-rec-nofence",
            (_, false, false) => "bakery-nofence",
            (_, true, true) => "bakery-rec",
            (_, true, false) => "bakery",
        }
    }

    fn compile_vm(&self) -> Option<VmSystem> {
        super::lower_port(
            self,
            include_str!("../../../../scenarios/locks/bakery.tpa"),
            &[
                ("passages", self.passages as u64),
                ("pso", self.pso_hardened as u64),
                ("doorway", self.doorway_fenced as u64),
                ("recoverable", self.recoverable as u64),
            ],
        )
    }
}

#[derive(Clone, Copy, Hash, Debug)]
enum State {
    Enter,
    WriteChoosing,
    FenceChoosing,
    ScanNumber {
        j: usize,
    },
    WriteNumber,
    /// PSO-hardened only: commit `number` before issuing `choosing := 0`.
    FenceNumber,
    ClearChoosing,
    FenceDoorway,
    WaitChoosing {
        j: usize,
    },
    WaitNumber {
        j: usize,
    },
    Cs,
    ClearNumber,
    FenceRelease,
    Exit,
    Done,
}

#[derive(Clone, Debug)]
struct BakeryProgram {
    me: usize,
    n: usize,
    state: State,
    max: Value,
    my_number: Value,
    passages_left: usize,
    pso_hardened: bool,
    doorway_fenced: bool,
    recoverable: bool,
}

impl BakeryProgram {
    fn choosing(&self, j: usize) -> VarId {
        VarId(j as u32)
    }

    fn number(&self, j: usize) -> VarId {
        VarId((self.n + j) as u32)
    }

    /// First competitor index after `j` (skipping `me`), or `None`.
    fn next_other(&self, j: usize) -> Option<usize> {
        let mut j = j;
        while j < self.n {
            if j != self.me {
                return Some(j);
            }
            j += 1;
        }
        None
    }

    fn start_wait(&self) -> State {
        match self.next_other(0) {
            Some(j) => State::WaitChoosing { j },
            None => State::Cs,
        }
    }
}

impl Program for BakeryProgram {
    fn fork(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }

    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.state.hash(&mut h);
        self.max.hash(&mut h);
        self.my_number.hash(&mut h);
        self.passages_left.hash(&mut h);
    }

    fn peek(&self) -> Op {
        match self.state {
            State::Enter => Op::Enter,
            State::WriteChoosing => Op::Write(self.choosing(self.me), 1),
            State::FenceChoosing
            | State::FenceNumber
            | State::FenceDoorway
            | State::FenceRelease => Op::Fence,
            State::ScanNumber { j } => Op::Read(self.number(j)),
            State::WriteNumber => Op::Write(self.number(self.me), self.max + 1),
            State::ClearChoosing => Op::Write(self.choosing(self.me), 0),
            State::WaitChoosing { j } => Op::Read(self.choosing(j)),
            State::WaitNumber { j } => Op::Read(self.number(j)),
            State::Cs => Op::Cs,
            State::ClearNumber => Op::Write(self.number(self.me), 0),
            State::Exit => Op::Exit,
            State::Done => Op::Halt,
        }
    }

    fn apply(&mut self, outcome: Outcome) {
        self.state = match self.state {
            State::Enter => {
                self.max = 0;
                State::WriteChoosing
            }
            State::WriteChoosing => State::FenceChoosing,
            State::FenceChoosing => State::ScanNumber { j: 0 },
            State::ScanNumber { j } => {
                let v = match outcome {
                    Outcome::ReadValue(v) => v,
                    other => panic!("unexpected outcome {other:?} for scan"),
                };
                self.max = self.max.max(v);
                if j + 1 < self.n {
                    State::ScanNumber { j: j + 1 }
                } else {
                    self.my_number = self.max + 1;
                    State::WriteNumber
                }
            }
            State::WriteNumber => {
                if self.pso_hardened {
                    State::FenceNumber
                } else {
                    State::ClearChoosing
                }
            }
            State::FenceNumber => State::ClearChoosing,
            State::ClearChoosing => {
                if self.doorway_fenced {
                    State::FenceDoorway
                } else {
                    self.start_wait()
                }
            }
            State::FenceDoorway => self.start_wait(),
            State::WaitChoosing { j } => match outcome {
                Outcome::ReadValue(0) => State::WaitNumber { j },
                Outcome::ReadValue(_) => State::WaitChoosing { j },
                other => panic!("unexpected outcome {other:?} for wait"),
            },
            State::WaitNumber { j } => {
                let nj = match outcome {
                    Outcome::ReadValue(v) => v,
                    other => panic!("unexpected outcome {other:?} for wait"),
                };
                let served =
                    nj == 0 || nj > self.my_number || (nj == self.my_number && j > self.me);
                if served {
                    match self.next_other(j + 1) {
                        Some(j2) => State::WaitChoosing { j: j2 },
                        None => State::Cs,
                    }
                } else {
                    State::WaitNumber { j }
                }
            }
            State::Cs => State::ClearNumber,
            State::ClearNumber => State::FenceRelease,
            State::FenceRelease => State::Exit,
            State::Exit => {
                self.passages_left -= 1;
                if self.passages_left == 0 {
                    State::Done
                } else {
                    State::Enter
                }
            }
            State::Done => panic!("apply on a halted program"),
        };
    }

    fn recover(&mut self) -> bool {
        if !self.recoverable {
            return false;
        }
        // Crash wipes the registers; the passage being attempted restarts
        // from the doorway. Passages already completed stay completed —
        // `passages_left` is only decremented at `Exit`, which the crash
        // interrupted at most once.
        self.max = 0;
        self.my_number = 0;
        self.state = if self.passages_left == 0 {
            State::Done
        } else {
            State::Enter
        };
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;
    use tpa_tso::sched::CommitPolicy;

    #[test]
    fn standard_battery() {
        testing::standard_lock_battery(&|n, p| Box::new(BakeryLock::new(n, p)));
    }

    #[test]
    fn vm_lockstep_battery_all_variants() {
        testing::standard_vm_battery(&|n, p| Box::new(BakeryLock::new(n, p)));
        testing::standard_vm_battery(&|n, p| Box::new(BakeryLock::pso_hardened(n, p)));
        testing::standard_vm_battery(&|n, p| Box::new(BakeryLock::without_doorway_fence(n, p)));
        testing::standard_vm_battery(&|n, p| Box::new(BakeryLock::recoverable(n, p)));
        testing::standard_vm_battery(&|n, p| {
            Box::new(BakeryLock::recoverable_without_doorway_fence(n, p))
        });
    }

    #[test]
    fn constant_fence_complexity() {
        for n in [1, 4, 16] {
            let sys = BakeryLock::new(n, 1);
            let m = testing::check_solo_progress(&sys, ProcId(0), 1, 100_000).unwrap();
            let stats = &m.metrics().proc(ProcId(0)).completed[0];
            assert_eq!(
                stats.counters.fences, 3,
                "fences are constant in n (n = {n})"
            );
        }
    }

    #[test]
    fn doorway_scan_is_linear_in_n() {
        let mut costs = Vec::new();
        for n in [2, 4, 8, 16] {
            let sys = BakeryLock::new(n, 1);
            let m = testing::check_solo_progress(&sys, ProcId(0), 1, 100_000).unwrap();
            costs.push(m.metrics().proc(ProcId(0)).completed[0].counters.rmr_dsm);
        }
        for w in costs.windows(2) {
            assert!(w[1] > w[0], "solo RMRs must grow with n: {costs:?}");
        }
    }

    #[test]
    fn fcfs_order_under_sequential_doorways() {
        // p0 completes its doorway before p1 starts: p0 must enter first.
        let sys = BakeryLock::new(2, 1);
        let m =
            testing::check_round_robin_completion(&sys, CommitPolicy::Lazy, 1, 1_000_000).unwrap();
        let cs: Vec<_> = m
            .log()
            .iter()
            .filter(|e| matches!(e.kind, tpa_tso::EventKind::Cs))
            .map(|e| e.pid)
            .collect();
        assert_eq!(cs.len(), 2);
    }
}
