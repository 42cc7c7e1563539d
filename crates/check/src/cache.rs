//! The visited-state cache: hash-sharded and sleep-set-aware.
//!
//! A state may be revisited along many schedules; a revisit can be
//! skipped only if an earlier visit *subsumes* it. Entries carry two tags:
//!
//! * **sleep set** — the earlier visit had at least as many directives
//!   awake (a subset sleep set), so it explores every transition the
//!   revisit would;
//! * **depth** — a visit only covers the subtree reachable within the
//!   remaining step budget, so a shallow visit subsumes a deeper revisit
//!   but not vice versa.
//!
//! Neither tag depends on the order workers happen to reach states, and
//! sleep sets prune transitions, not states (Godefroid), so the visited
//! set of a complete search is the same at any thread count. Which
//! violation a search meets first does depend on that order; the witness
//! contract lives in [`crate::Checker::exhaustive`] instead.
//!
//! The shards are `Mutex<HashMap>`s selected by the state key's low
//! bits, so concurrent lookups of different states rarely contend.

use std::collections::HashMap;
use std::sync::Mutex;

use tpa_obs::Counter;
use tpa_tso::{FxBuildHasher, StateKey};

use crate::sleep::SleepSet;

#[derive(Clone)]
struct CacheEntry {
    sleep: SleepSet,
    depth: u32,
}

impl CacheEntry {
    /// Whether this recorded visit already covers a visit at
    /// `(sleep, depth)`: it had at least as many directives awake and at
    /// least as much remaining depth budget.
    fn subsumes(&self, sleep: &SleepSet, depth: u32) -> bool {
        self.depth <= depth && self.sleep.is_subset(sleep)
    }
}

/// Updates one key's entry list for a visit at `(sleep, depth)`. Returns
/// `None` if an existing entry subsumes the visit (don't expand),
/// otherwise `Some(evicted)` with the new entry pushed and every entry
/// the visit subsumes removed.
fn admit(entries: &mut Vec<CacheEntry>, sleep: &SleepSet, depth: u32) -> Option<u64> {
    if entries.iter().any(|e| e.subsumes(sleep, depth)) {
        return None;
    }
    // Drop entries the new visit subsumes, so per-key lists stay short.
    let before = entries.len();
    entries.retain(|e| !(depth <= e.depth && sleep.is_subset(&e.sleep)));
    let evicted = (before - entries.len()) as u64;
    entries.push(CacheEntry {
        sleep: sleep.clone(),
        depth,
    });
    Some(evicted)
}

/// The concurrent visited-state cache.
pub(crate) struct StateCache {
    /// `mask` is `shards.len() - 1` (the shard count is a power of two).
    shards: Vec<Mutex<HashMap<StateKey, Vec<CacheEntry>, FxBuildHasher>>>,
    mask: usize,
    /// Optional metric counting entries *evicted by subsumption* — the
    /// work `admit` does that no aggregate stat exposed before.
    subsumed: Option<Counter>,
}

impl StateCache {
    /// A cache with at least `shards` shards (rounded up to a power of
    /// two). One shard is enough for sequential search; parallel search
    /// wants several per worker.
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        StateCache {
            shards: (0..n).map(|_| Mutex::new(HashMap::default())).collect(),
            mask: n - 1,
            subsumed: None,
        }
    }

    /// This cache, reporting subsumption evictions to `counter` (when
    /// given). The counter is bumped once per eviction batch — not per
    /// lookup.
    pub fn counting(mut self, counter: Option<Counter>) -> Self {
        self.subsumed = counter;
        self
    }

    /// Records a visit to `key` unless an already-recorded visit subsumes
    /// it. Returns `true` if the caller should expand the node, `false`
    /// if the visit is covered.
    pub fn try_visit(&self, key: StateKey, sleep: &SleepSet, depth: u32) -> bool {
        let mut shard = self.shards[(key.0 as usize) & self.mask]
            .lock()
            .expect("state-cache shard poisoned");
        let Some(evicted) = admit(shard.entry(key).or_default(), sleep, depth) else {
            return false;
        };
        drop(shard);
        if evicted > 0 {
            if let Some(c) = &self.subsumed {
                c.add(evicted);
            }
        }
        true
    }

    /// Every live entry, grouped by state key and sorted by key — the
    /// checkpoint image of the cache. Rebuilding a cache by
    /// `try_visit`ing each exported entry reproduces both the entry set
    /// and `unique_states` exactly: live entries are pairwise
    /// non-subsuming (`try_visit` rejects subsumed inserts and evicts
    /// subsumed residents), so every import is accepted, in any order.
    pub fn export(&self) -> Vec<(u64, Vec<crate::checkpoint::CacheEntryData>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("state-cache shard poisoned");
            for (key, entries) in shard.iter() {
                let data = entries
                    .iter()
                    .map(|e| crate::checkpoint::CacheEntryData {
                        sleep: e.sleep.iter().collect(),
                        depth: e.depth,
                    })
                    .collect();
                out.push((key.0, data));
            }
        }
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Number of distinct states recorded.
    pub fn unique_states(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("state-cache shard poisoned").len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpa_tso::{Directive, ProcId};

    fn sleepers(ps: &[u32]) -> SleepSet {
        let mut s = SleepSet::empty();
        for &p in ps {
            s.insert(Directive::Issue(ProcId(p)));
        }
        s
    }

    #[test]
    fn first_visit_always_expands() {
        let c = StateCache::new(1);
        assert!(c.try_visit(StateKey(7), &sleepers(&[]), 0));
        assert_eq!(c.unique_states(), 1);
    }

    #[test]
    fn subset_sleep_at_shallower_depth_subsumes() {
        let c = StateCache::new(1);
        assert!(c.try_visit(StateKey(7), &sleepers(&[1]), 2));
        // More asleep, deeper: covered.
        assert!(!c.try_visit(StateKey(7), &sleepers(&[1, 2]), 3));
        // Fewer asleep: must re-expand.
        assert!(c.try_visit(StateKey(7), &sleepers(&[]), 3));
    }

    #[test]
    fn subsumption_evictions_are_counted() {
        let m = tpa_obs::Metrics::new();
        let c = StateCache::new(1).counting(Some(m.counter("cache.subsumed")));
        assert!(c.try_visit(StateKey(7), &sleepers(&[1, 2]), 4));
        assert_eq!(m.counter_value("cache.subsumed"), Some(0));
        // A strictly stronger visit (fewer asleep, shallower) evicts the
        // recorded one.
        assert!(c.try_visit(StateKey(7), &sleepers(&[]), 2));
        assert_eq!(m.counter_value("cache.subsumed"), Some(1));
    }

    #[test]
    fn shallower_revisit_is_not_skipped() {
        let c = StateCache::new(1);
        assert!(c.try_visit(StateKey(3), &sleepers(&[]), 5));
        // Same state, same sleep, but more remaining budget: expand.
        assert!(c.try_visit(StateKey(3), &sleepers(&[]), 1));
    }
}
