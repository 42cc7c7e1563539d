//! Simulated mutual-exclusion algorithms (step machines on `tpa-tso`).

pub mod bakery;
pub mod dijkstra;
pub mod filter;
pub mod mcs;
pub mod onebit;
pub mod splitter;
pub mod tas;
pub mod ticketq;
pub mod tournament;
pub mod ttas;

use tpa_tso::{Bytecode, ProcId, System, VmSystem};

/// A boxed lock system plus its configuration, as handed to experiments.
pub type LockSystem = Box<dyn System>;

/// The bytecode of `sys`, lowered from its `.tpa` port under
/// `scenarios/locks/` with `n = sys.n()` and the given constants. Only
/// the per-process bytecode comes from the port; name, variable layout
/// and symmetry are the native system's, as [`VmSystem::new`] requires.
/// `None` above the DSL's process limit, which tells the checker to run
/// natively. Any other lowering error is a defect in the embedded port
/// and panics with the rendered diagnostic.
fn lower_port(sys: &dyn System, src: &str, consts: &[(&str, u64)]) -> Option<VmSystem> {
    if sys.n() > tpa_dsl::MAX_PROCS {
        return None;
    }
    let mut all = vec![("n", sys.n() as u64)];
    all.extend_from_slice(consts);
    let port = tpa_dsl::compile_with(src, &all).unwrap_or_else(|d| {
        let origin = format!("{} port", sys.name());
        panic!("{}", d.render(src, &origin))
    });
    let code = (0..sys.n())
        .map(|p| Bytecode::clone(port.system.bytecode(ProcId(p as u32))))
        .collect();
    Some(VmSystem::new(sys.name(), sys.vars(), code, sys.symmetric()))
}

/// Instantiates every simulated lock for `n` processes, each performing
/// `passages` passages. The list order is stable (used by experiment
/// tables).
pub fn all_locks(n: usize, passages: usize) -> Vec<LockSystem> {
    vec![
        Box::new(tas::TasLock::new(n, passages)),
        Box::new(ttas::TtasLock::new(n, passages)),
        Box::new(ticketq::TicketLock::new(n, passages)),
        Box::new(bakery::BakeryLock::new(n, passages)),
        Box::new(filter::FilterLock::new(n, passages)),
        Box::new(mcs::McsLock::new(n, passages)),
        Box::new(onebit::OneBitLock::new(n, passages)),
        Box::new(tournament::TournamentLock::new(n, passages)),
        Box::new(dijkstra::DijkstraLock::new(n, passages)),
        Box::new(splitter::SplitterLock::new(n, passages)),
    ]
}

/// Instantiates a lock by its [`System::name`], or `None` for an unknown
/// name.
pub fn lock_by_name(name: &str, n: usize, passages: usize) -> Option<LockSystem> {
    all_locks(n, passages)
        .into_iter()
        .find(|l| l.name() == name)
}

/// Names of the read/write-only algorithms (no comparison primitives) —
/// the family the paper's Theorem 1 primarily targets.
pub const READ_WRITE_LOCKS: &[&str] = &[
    "bakery",
    "filter",
    "onebit",
    "tournament",
    "dijkstra",
    "splitter",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_named() {
        let locks = all_locks(4, 1);
        assert_eq!(locks.len(), 10);
        let names: Vec<&str> = locks.iter().map(|l| l.name()).collect();
        assert!(names.contains(&"tas"));
        assert!(names.contains(&"dijkstra"));
        // Names are unique.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn lookup_by_name() {
        assert!(lock_by_name("bakery", 3, 1).is_some());
        assert!(lock_by_name("no-such-lock", 3, 1).is_none());
    }

    #[test]
    fn read_write_family_exists_in_registry() {
        for name in READ_WRITE_LOCKS {
            assert!(lock_by_name(name, 4, 1).is_some(), "{name} missing");
        }
    }
}
