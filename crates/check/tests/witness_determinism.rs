//! Deterministic regression for witness drift under a transition budget.
//!
//! PSO bakery at n = 4 with every accelerator on is a violating search
//! large enough that, at 2 threads, the workers together could spend
//! the whole 4 M-transition budget before settling on a witness, and
//! then report a longer, different schedule than the 1-thread search.
//! The first violation seen now ends the search at any thread count,
//! and the checker reruns a 1-thread search from the root to report it,
//! so both thread counts must give the same found and shrunk witness.

use tpa_check::{Checker, Features, Report, Verdict};
use tpa_tso::MemoryModel;

fn hunt(threads: usize) -> Report {
    let bakery = tpa_algos::lock_by_name("bakery", 4, 1).expect("bakery is in the portfolio");
    Checker::new(bakery.as_ref())
        .model(MemoryModel::Pso)
        .features(Features::full())
        .max_steps(60)
        .max_transitions(4_000_000)
        .threads(threads)
        .exhaustive()
}

#[test]
fn pso_bakery_n4_witness_does_not_drift_with_thread_count() {
    let one = hunt(1);
    let two = hunt(2);
    let (
        Verdict::Violation {
            found: f1,
            shrunk: s1,
            ..
        },
        Verdict::Violation {
            found: f2,
            shrunk: s2,
            ..
        },
    ) = (&one.verdict, &two.verdict)
    else {
        panic!(
            "PSO bakery n = 4 must violate at 1 and 2 threads: {:?} / {:?}",
            one.verdict, two.verdict
        );
    };
    assert_eq!(f1, f2, "found witness drifted between 1 and 2 threads");
    assert_eq!(s1, s2, "shrunk witness drifted between 1 and 2 threads");
}
