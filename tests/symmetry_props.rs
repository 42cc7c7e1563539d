//! Machine-level properties of the symmetry machinery: the permuted
//! fingerprint, the canonical cache key, and the symmetry group itself,
//! checked along random walks of real portfolio locks.

use tpa::check::enabled_all;
use tpa::prelude::*;
use tpa::tso::sched::XorShift;
use tpa::tso::SymmetryGroup;

/// Walks `steps` random enabled directives, calling `at` on the machine
/// after every step.
fn random_walk(sys: &dyn System, seed: u64, steps: usize, mut at: impl FnMut(&Machine)) {
    let mut m = Machine::new(sys);
    let mut rng = XorShift::new(seed | 1);
    for _ in 0..steps {
        let enabled = enabled_all(&m);
        if enabled.is_empty() {
            break;
        }
        m.step(enabled[rng.below(enabled.len())]).unwrap();
        at(&m);
    }
}

/// The identity permutation is always valid and reproduces the concrete
/// fingerprint exactly — along deep random walks of every lock that
/// declares symmetry.
#[test]
fn identity_permutation_reproduces_the_concrete_hash() {
    for lock in all_locks(3, 2) {
        if !lock.symmetric() {
            continue;
        }
        let group = SymmetryGroup::for_spec(&lock.vars(), lock.n());
        assert!(group.perm(0).is_identity());
        random_walk(lock.as_ref(), 0xA11CE, 200, |m| {
            let under_id = m.state_hash_permuted(group.perm(0), group.var_map(0));
            assert_eq!(
                under_id,
                Some(m.state_key().0),
                "{}: identity renaming altered the fingerprint",
                lock.name()
            );
        });
    }
}

/// The canonical key is a *minimum over renamings that includes the
/// identity*: it never exceeds the concrete key, and asking twice gives
/// the same answer (the underlying permuted hashes are pure).
#[test]
fn canonical_key_is_a_stable_lower_bound() {
    for name in ["ticketq", "mcs", "filter"] {
        let lock = lock_by_name(name, 3, 1).unwrap();
        let group = SymmetryGroup::for_spec(&lock.vars(), lock.n());
        assert!(group.len() > 1, "{name}: no permutations kept");
        random_walk(lock.as_ref(), 0xBEE5, 150, |m| {
            let (key, idx) = m.canonical_state_key(&group);
            assert!(
                key.0 <= m.state_key().0,
                "{name}: canonical key above concrete"
            );
            if idx == 0 {
                assert_eq!(key, m.state_key());
            }
            assert_eq!(
                (key, idx),
                m.canonical_state_key(&group),
                "{name}: unstable"
            );
        });
    }
}

/// Orbit invariance, the property the cache rests on: running a schedule
/// and its π-renamed image lands the two machines on the same canonical
/// key at every step. Pinned on locks whose renamings are valid in every
/// state (no scans, no raw-pid-valued variables), where the lockstep
/// comparison can never be vacuous.
#[test]
fn renamed_schedules_share_canonical_keys_at_every_step() {
    for name in ["tas", "ttas", "ticketq"] {
        let lock = lock_by_name(name, 3, 1).unwrap();
        let group = SymmetryGroup::for_spec(&lock.vars(), lock.n());
        for (a, b) in [(0usize, 1usize), (0, 2), (1, 2)] {
            let idx = group
                .find_transposition(a, b)
                .unwrap_or_else(|| panic!("{name}: ({a} {b}) not kept"));
            let mut orig = Machine::new(lock.as_ref());
            let mut renamed = Machine::new(lock.as_ref());
            let mut rng = XorShift::new(0xD1CE ^ ((a as u64) << 8) ^ b as u64 | 1);
            for step in 0..200 {
                let enabled = enabled_all(&orig);
                if enabled.is_empty() {
                    break;
                }
                let d = enabled[rng.below(enabled.len())];
                orig.step(d).unwrap();
                renamed
                    .step(group.rename_directive(idx, d))
                    .unwrap_or_else(|e| {
                        panic!("{name}: renamed directive rejected at step {step}: {e}")
                    });
                assert_eq!(
                    orig.canonical_state_key(&group).0,
                    renamed.canonical_state_key(&group).0,
                    "{name}: orbit split at step {step} under ({a} {b})"
                );
            }
        }
    }
}

/// The kept group of every declared-symmetric portfolio lock is the full
/// symmetric group (validity is judged per state, not per spec), and the
/// genuinely asymmetric locks never claim otherwise.
#[test]
fn portfolio_symmetry_declarations_match_their_groups() {
    for (n, full) in [(2usize, 2usize), (3, 6)] {
        for lock in all_locks(n, 1) {
            let group = SymmetryGroup::for_spec(&lock.vars(), lock.n());
            if lock.symmetric() {
                assert_eq!(
                    group.len(),
                    full,
                    "{} at n={n}: spec rejects permutations",
                    lock.name()
                );
            }
        }
    }
}
