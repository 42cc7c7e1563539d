//! Concurrency properties of the run ledger (`tpa::obs::Ledger`): writer
//! threads appending through two handles on one directory while reader
//! threads loop over `read_index_with_health`. Every read must be clean,
//! no reader may see the index shrink, and the final read must return
//! every appended run exactly once, in creation order.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use tpa::obs::{Ledger, RunRecord};

#[test]
fn concurrent_appends_and_reads_stay_clean_and_complete() {
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const PER_WRITER: usize = 40;

    let dir = std::env::temp_dir().join(format!("tpa-ledger-props-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handles = [
        Ledger::open(&dir).expect("open first handle"),
        Ledger::open(&dir).expect("open second handle"),
    ];
    let done = AtomicBool::new(false);
    // Every reader and writer starts together, so the readers' loops
    // overlap the appends rather than finishing before the first one.
    let start = Barrier::new(READERS + WRITERS);

    let appended: Vec<String> = std::thread::scope(|s| {
        let (handles, done, start) = (&handles, &done, &start);
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                s.spawn(move || {
                    let ledger = &handles[r % 2];
                    let (mut last_len, mut reads) = (0, 0u32);
                    start.wait();
                    // One more read after the writers finish, so every
                    // reader also checks the quiescent index.
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let (entries, health) = ledger.read_index_with_health().expect("read");
                        assert!(health.is_clean(), "reader {r} saw damage: {health:?}");
                        let ids: BTreeSet<&str> = entries.iter().map(|e| e.id.as_str()).collect();
                        assert_eq!(ids.len(), entries.len(), "reader {r} saw a repeated id");
                        assert!(
                            entries.len() >= last_len,
                            "reader {r}: index shrank from {last_len} to {}",
                            entries.len()
                        );
                        last_len = entries.len();
                        reads += 1;
                        if finished {
                            break reads;
                        }
                    }
                })
            })
            .collect();
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                s.spawn(move || {
                    let ledger = &handles[w % 2];
                    start.wait();
                    (0..PER_WRITER)
                        .map(|i| {
                            let mut rec = RunRecord {
                                scenario: format!("w{w}-{i}"),
                                verdict: "pass".to_owned(),
                                ..RunRecord::default()
                            };
                            ledger.append(&mut rec).expect("append")
                        })
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        let appended = writers
            .into_iter()
            .flat_map(|w| w.join().expect("writer panicked"))
            .collect();
        done.store(true, Ordering::Release);
        for r in readers {
            assert!(r.join().expect("reader panicked") >= 1);
        }
        appended
    });

    let (entries, health) = handles[0].read_index_with_health().expect("final read");
    assert!(health.is_clean(), "{health:?}");
    assert_eq!(entries.len(), WRITERS * PER_WRITER);
    let read: BTreeSet<&str> = entries.iter().map(|e| e.id.as_str()).collect();
    let wrote: BTreeSet<&str> = appended.iter().map(String::as_str).collect();
    assert_eq!(wrote.len(), WRITERS * PER_WRITER, "an id was minted twice");
    assert_eq!(read, wrote, "the final read must return every appended id");
    // Creation order: (created_us, seq, id), seq being the id's suffix.
    let key = |id: &str, t: u64| {
        let seq: u64 = id.rsplit('-').next().unwrap().parse().unwrap();
        (t, seq, id.to_owned())
    };
    let keys: Vec<_> = entries.iter().map(|e| key(&e.id, e.created_us)).collect();
    assert!(
        keys.windows(2).all(|p| p[0] < p[1]),
        "not in (created_us, seq, id) order"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
