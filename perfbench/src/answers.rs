//! Known answers and fixed inputs. The state counts are the
//! deterministic 1-thread search's, and the construction rows are the
//! replay-validated erasure path's (`check_invariants: true`), both
//! written down by `perfbench --record-answers`; a change that alters
//! them on purpose re-records them in a change of its own.

/// Invariant the fenceless bakery violates under TSO.
pub const NOFENCE_INVARIANT: &str = "mutual-exclusion";
/// Invariant the PSO-incorrect locks violate.
pub const PSO_INVARIANT: &str = "mutual-exclusion";

/// Step bound of the exhaustive hunt ops.
pub const HUNT_STEPS: usize = 60;
/// Step bound and schedule count of the swarm hunt ops.
pub const SWARM_STEPS: usize = 512;
pub const SWARM_SCHEDULES: usize = 8192;

/// Locks that violate mutual exclusion under PSO, with their n.
pub const HUNT_PSO_VIOLATIONS: &[(&str, usize)] = &[
    ("filter", 3),
    ("tournament", 3),
    ("bakery", 3),
    ("splitter", 3),
    ("tournament", 4),
];

/// PSO-correct controls at n = 3 with their canonical unique-state
/// counts under `Features::full()`.
pub const HUNT_PSO_CONTROLS: &[(&str, usize)] = &[("ticketq", 578), ("onebit", 11364)];

/// Seeded swarm ops: lock and n.
pub const HUNT_SWARMS: &[(&str, usize)] = &[("bakery", 8), ("tournament", 16)];

/// Unique states of the C1 check (n = 3, 40 steps, TSO, native,
/// concrete keys) for each lock of the portfolio.
pub fn verify_states(lock: &str) -> usize {
    match lock {
        "tas" => 1184,
        "ttas" => 1563,
        "ticketq" => 3327,
        "bakery" => 43388,
        "filter" => 81895,
        "mcs" => 12963,
        "onebit" => 10792,
        "tournament" => 41148,
        "dijkstra" => 35619,
        "splitter" => 118517,
        other => panic!("no recorded state count for {other}"),
    }
}

/// Rounds the construction attempts.
pub const CONSTRUCT_ROUNDS: usize = 14;

/// One construction's replay-path result.
#[derive(Clone, Debug)]
pub struct ConstructAnswer {
    pub algo: &'static str,
    pub n: usize,
    pub rounds: usize,
    pub fences_forced: usize,
    pub total_contention: usize,
    /// `|Act|` at the end of each completed round.
    pub act: &'static [usize],
}

/// Recorded with the replay-validated erasure path; the splitter row
/// takes minutes there, the others seconds.
pub const CONSTRUCT: &[ConstructAnswer] = &[
    ConstructAnswer {
        algo: "tournament",
        n: 4096,
        rounds: 11,
        fences_forced: 11,
        total_contention: 12,
        act: &[2047, 1023, 511, 255, 127, 63, 31, 15, 7, 3, 1],
    },
    ConstructAnswer {
        algo: "splitter",
        n: 4096,
        rounds: 2,
        fences_forced: 1,
        total_contention: 2,
        act: &[4095, 0],
    },
    ConstructAnswer {
        algo: "mcs",
        n: 4096,
        rounds: 1,
        fences_forced: 1,
        total_contention: 1,
        act: &[4095],
    },
    ConstructAnswer {
        algo: "bakery",
        n: 1024,
        rounds: 1,
        fences_forced: 0,
        total_contention: 1,
        act: &[0],
    },
    ConstructAnswer {
        algo: "filter",
        n: 1024,
        rounds: 1,
        fences_forced: 0,
        total_contention: 1,
        act: &[0],
    },
];
