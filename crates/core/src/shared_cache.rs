//! The run-wide partition cache shared by every worker of a discovery run.
//!
//! A [`crate::sorted_partitions::PartitionChecker`] memoizes context
//! partitions per sorted attribute set. With a private memo, every worker
//! rebuilds the partition of a popular context like `{A}` on its own. With
//! `DiscoveryConfig::shared_cache` set, the workers of a run share one
//! [`EpochPrefixCache`] instead, in either parallel mode:
//!
//! * **Epoch publishing** — each worker reads an immutable snapshot,
//!   lock-free, for a whole level and buffers its inserts locally (its
//!   `EpochTier`); the search driver publishes the buffers between levels,
//!   in worker order.
//! * **Byte budget** — each entry carries its approximate heap size (via
//!   [`CacheWeight`]). A publish that takes the resident total over the
//!   budget evicts the oldest insertion epochs until it fits again.
//!
//! The cache stores values behind `Arc`, so an evicted entry stays alive
//! for workers still holding it. Counters (hits / misses / evictions /
//! resident bytes) are relaxed atomics, snapshot into
//! [`crate::results::DiscoveryResult`] at the end of a run.

use crate::sync_shim::{AtomicU64, AtomicUsize, Mutex};
use ocdd_relation::ColumnId;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Approximate heap footprint of a cached value, used for budgeting.
pub trait CacheWeight {
    /// Heap bytes owned by the value (the `Arc` and map-key overhead are
    /// added by the cache itself).
    fn weight_bytes(&self) -> usize;
}

impl CacheWeight for Vec<u32> {
    fn weight_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<u32>()
    }
}

/// Point-in-time counters of an [`EpochPrefixCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact-key lookups that found an entry.
    pub hits: u64,
    /// Exact-key lookups that found nothing.
    pub misses: u64,
    /// Entries dropped to stay under the byte budget.
    pub evictions: u64,
    /// Approximate bytes currently held by cached values.
    pub resident_bytes: u64,
    /// Entries currently cached.
    pub entries: u64,
}

/// The cache is purely advisory — a worker that panicked while holding the
/// snapshot lock leaves behind a map that is still structurally valid (a
/// publish swaps in a fully built map), so poisoning is recovered instead
/// of propagated: the surviving workers keep the cache, they don't inherit
/// the panic.
fn recover<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Fixed per-entry overhead charged against the budget (map slot, `Arc`
/// control block, key header) on top of the key and value bytes.
const ENTRY_OVERHEAD: usize = 96;

struct EpochEntry<V> {
    value: Arc<V>,
    bytes: usize,
    /// Monotone insertion stamp; eviction drops the oldest stamps first.
    /// Reads never re-stamp (they are lock-free on an immutable snapshot),
    /// so this is FIFO rather than LRU — the price of contention-free
    /// lookups, and an acceptable one because the small contexts of early
    /// levels have mostly been refined into the larger ones later levels
    /// read.
    epoch: u64,
}

// Manual impl: `V` itself need not be `Clone`, entries share it by `Arc`.
impl<V> Clone for EpochEntry<V> {
    fn clone(&self) -> Self {
        EpochEntry {
            value: Arc::clone(&self.value),
            bytes: self.bytes,
            epoch: self.epoch,
        }
    }
}

/// Immutable point-in-time view of an [`EpochPrefixCache`]. Cloning the
/// snapshot is one `Arc` bump; lookups on it take no lock and touch no
/// shared counter — workers tally hits and misses locally and flush them
/// through [`EpochPrefixCache::record_lookups`] at level boundaries.
pub struct EpochSnapshot<V> {
    map: Arc<HashMap<Vec<ColumnId>, EpochEntry<V>>>,
}

// Manual impl: one `Arc` bump, no `V: Clone` bound.
impl<V> Clone for EpochSnapshot<V> {
    fn clone(&self) -> Self {
        EpochSnapshot {
            map: Arc::clone(&self.map),
        }
    }
}

impl<V> EpochSnapshot<V> {
    /// Exact lookup. No accounting side effects.
    pub fn get(&self, key: &[ColumnId]) -> Option<Arc<V>> {
        self.map.get(key).map(|e| Arc::clone(&e.value))
    }

    /// Entries visible in this snapshot.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Read-mostly cache for the level-synchronous search driver, keyed by
/// attribute set.
///
/// Rather than taking a lock on every lookup, this cache publishes an
/// **immutable snapshot** once per level: workers clone
/// the snapshot `Arc` when the level starts, read it lock-free for the
/// whole level, and buffer their own inserts locally. Between levels the
/// driver drains the per-worker buffers *in worker order* and calls
/// [`publish`](EpochPrefixCache::publish), which builds the next snapshot
/// (old entries + new inserts, byte budget enforced by evicting the oldest
/// insertion epochs) and swaps it in atomically. Publishing in a fixed
/// order keeps the cache contents — and therefore the eviction sequence —
/// deterministic, although the cache is advisory either way.
pub struct EpochPrefixCache<V> {
    snapshot: Mutex<EpochSnapshot<V>>,
    budget_bytes: usize,
    next_epoch: AtomicU64,
    resident: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    publishes: AtomicU64,
    #[cfg(any(test, feature = "fault-injection"))]
    fault: Option<Arc<crate::runtime::FaultPlan>>,
}

impl<V: CacheWeight> EpochPrefixCache<V> {
    /// Cache bounded by `budget_bytes` of approximate value memory. A zero
    /// budget stores nothing (every publish is dropped).
    pub fn new(budget_bytes: usize) -> EpochPrefixCache<V> {
        EpochPrefixCache {
            snapshot: Mutex::new(EpochSnapshot {
                map: Arc::new(HashMap::new()),
            }),
            budget_bytes,
            next_epoch: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            #[cfg(any(test, feature = "fault-injection"))]
            fault: None,
        }
    }

    /// Attach a fault-injection plan (test / `fault-injection` builds
    /// only). Must be called before the cache is shared across workers.
    #[cfg(any(test, feature = "fault-injection"))]
    pub(crate) fn set_fault_plan(&mut self, fault: Option<Arc<crate::runtime::FaultPlan>>) {
        self.fault = fault;
    }

    /// Clone the current snapshot (one lock, one `Arc` bump — called once
    /// per worker per level, never per check).
    pub fn snapshot(&self) -> EpochSnapshot<V> {
        recover(self.snapshot.lock()).clone()
    }

    /// Merge buffered inserts into a fresh snapshot and swap it in. The
    /// iteration order of `inserts` decides epoch stamps (and with them the
    /// eviction order), so callers drain worker buffers in a fixed order.
    /// Later duplicates of a key overwrite earlier ones.
    pub fn publish<I>(&self, inserts: I)
    where
        I: IntoIterator<Item = (Vec<ColumnId>, Arc<V>)>,
    {
        self.publishes.fetch_add(1, Ordering::Relaxed);
        // Fault injection: the eviction-storm plan drops every published
        // insert, so the snapshot never grows — results must not change.
        #[cfg(any(test, feature = "fault-injection"))]
        let storm = self.fault.as_ref().is_some_and(|f| f.drops_cache_inserts());
        #[cfg(not(any(test, feature = "fault-injection")))]
        let storm = false;

        let mut guard = recover(self.snapshot.lock());
        let mut map: HashMap<Vec<ColumnId>, EpochEntry<V>> = HashMap::clone(&guard.map);
        let mut resident: usize = self.resident.load(Ordering::Relaxed);
        let mut evicted: u64 = 0;
        for (key, value) in inserts {
            let bytes =
                value.weight_bytes() + key.len() * std::mem::size_of::<ColumnId>() + ENTRY_OVERHEAD;
            if storm || self.budget_bytes == 0 || bytes > self.budget_bytes {
                evicted += 1;
                continue;
            }
            let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
            if let Some(old) = map.insert(
                key,
                EpochEntry {
                    value,
                    bytes,
                    epoch,
                },
            ) {
                resident -= old.bytes;
            }
            resident += bytes;
        }
        // Enforce the byte budget by dropping the oldest insertion epochs.
        if resident > self.budget_bytes {
            let mut by_age: Vec<(u64, Vec<ColumnId>)> =
                map.iter().map(|(k, e)| (e.epoch, k.clone())).collect();
            by_age.sort_unstable();
            for (_, key) in by_age {
                if resident <= self.budget_bytes {
                    break;
                }
                if let Some(e) = map.remove(&key) {
                    resident -= e.bytes;
                    evicted += 1;
                }
            }
        }
        self.resident.store(resident, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        *guard = EpochSnapshot { map: Arc::new(map) };
    }

    /// Flush a worker's locally-tallied lookup counters — called at level
    /// boundaries, never from the check hot path (satellite of ISSUE 3:
    /// stats via relaxed atomics aggregated between levels, not under
    /// locks).
    pub fn record_lookups(&self, hits: u64, misses: u64) {
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.resident.load(Ordering::Relaxed) as u64,
            entries: recover(self.snapshot.lock()).map.len() as u64,
        }
    }

    /// Number of publishes (≈ levels × workers with pending inserts).
    pub fn publishes(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }
}

/// Per-worker state of the epoch-published cache mode: an immutable
/// snapshot refreshed at level boundaries, plus a local insert buffer
/// drained (in insertion order, for deterministic publish stamps) when the
/// driver publishes between levels. Lookups take no lock; lookup counters
/// are flushed alongside the buffer.
pub(crate) struct EpochTier<V> {
    cache: Arc<EpochPrefixCache<V>>,
    snapshot: EpochSnapshot<V>,
    pending: HashMap<Vec<ColumnId>, Arc<V>>,
    pending_order: Vec<Vec<ColumnId>>,
    flushed_hits: u64,
    flushed_misses: u64,
}

impl<V: CacheWeight> EpochTier<V> {
    pub(crate) fn new(cache: Arc<EpochPrefixCache<V>>) -> EpochTier<V> {
        let snapshot = cache.snapshot();
        EpochTier {
            cache,
            snapshot,
            pending: HashMap::new(),
            pending_order: Vec::new(),
            flushed_hits: 0,
            flushed_misses: 0,
        }
    }

    /// Refresh the snapshot — call when a new level starts.
    pub(crate) fn begin_level(&mut self) {
        self.snapshot = self.cache.snapshot();
    }

    /// Exact lookup across the local buffer and the snapshot.
    pub(crate) fn get(&self, key: &[ColumnId]) -> Option<Arc<V>> {
        if let Some(v) = self.pending.get(key) {
            return Some(Arc::clone(v));
        }
        self.snapshot.get(key)
    }

    pub(crate) fn buffer(&mut self, key: Vec<ColumnId>, value: Arc<V>) {
        if self.pending.insert(key.clone(), value).is_none() {
            self.pending_order.push(key);
        }
    }

    /// Drain the local buffer into the shared cache (one publish) and
    /// flush the lookup-counter deltas. Called by the driver between
    /// levels, on the driver thread — never on the check hot path.
    pub(crate) fn publish(&mut self, hits: u64, misses: u64) {
        if !self.pending_order.is_empty() {
            let pending = &mut self.pending;
            self.cache.publish(
                self.pending_order
                    .drain(..)
                    .filter_map(|k| pending.remove(&k).map(|v| (k, v))),
            );
        }
        self.cache
            .record_lookups(hits - self.flushed_hits, misses - self.flushed_misses);
        self.flushed_hits = hits;
        self.flushed_misses = misses;
    }
}

/// Interleaving models of the snapshot-publish protocol, run by the loom
/// lane (`cargo test -p ocdd-core --features loom`, `OCDD_CI_LOOM=1
/// ./ci.sh`). See `crates/shims/loom` and DESIGN.md §10.
#[cfg(all(test, feature = "loom"))]
mod loom_models {
    use super::*;

    /// A reader snapshots while a two-entry publish is in flight. On every
    /// interleaving the snapshot is frozen — it holds either nothing or
    /// the complete publish, never a torn half — and a snapshot taken
    /// after the publish completes sees both entries.
    #[test]
    fn publish_is_atomic_with_respect_to_snapshots() {
        loom::model(|| {
            let cache = Arc::new(EpochPrefixCache::<Vec<u32>>::new(1 << 16));
            let c2 = Arc::clone(&cache);
            let reader = loom::thread::spawn(move || {
                let snap = c2.snapshot();
                match snap.len() {
                    0 => assert!(snap.get(&[0]).is_none(), "empty snapshot stays empty"),
                    2 => {
                        let a = snap.get(&[0]).expect("published entry [0]");
                        let b = snap.get(&[0, 1]).expect("published entry [0,1]");
                        assert_eq!((a.as_slice(), b.as_slice()), (&[1u32][..], &[2u32][..]));
                    }
                    n => panic!("torn snapshot with {n} entries"),
                }
            });
            cache.publish(vec![
                (vec![0], Arc::new(vec![1u32])),
                (vec![0, 1], Arc::new(vec![2u32])),
            ]);
            reader.join().expect("reader finishes");
            assert_eq!(cache.snapshot().len(), 2, "publish fully visible");
        });
    }

    /// Two workers flush their locally-tallied lookup counters while a
    /// third party reads `stats()`: no flushed increment is ever lost.
    #[test]
    fn record_lookups_flushes_are_not_lost() {
        loom::model(|| {
            let cache = Arc::new(EpochPrefixCache::<Vec<u32>>::new(1 << 16));
            let c2 = Arc::clone(&cache);
            let flusher = loom::thread::spawn(move || c2.record_lookups(5, 1));
            cache.record_lookups(7, 3);
            flusher.join().expect("flusher finishes");
            let s = cache.stats();
            assert_eq!((s.hits, s.misses), (12, 4));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(vals: &[u32]) -> Arc<Vec<u32>> {
        Arc::new(vals.to_vec())
    }

    #[test]
    fn epoch_snapshot_is_isolated_until_publish() {
        let cache: EpochPrefixCache<Vec<u32>> = EpochPrefixCache::new(1 << 20);
        let before = cache.snapshot();
        assert!(before.is_empty());
        cache.publish(vec![(vec![0], idx(&[2, 0, 1]))]);
        // The old snapshot is frozen; a fresh one sees the publish.
        assert!(before.get(&[0]).is_none());
        let after = cache.snapshot();
        assert_eq!(after.get(&[0]).unwrap().as_slice(), &[2, 0, 1]);
        assert_eq!(after.len(), 1);
    }

    #[test]
    fn epoch_budget_evicts_oldest_insertion_first() {
        let per_entry = 100 * 4 + 8 + ENTRY_OVERHEAD;
        let cache: EpochPrefixCache<Vec<u32>> = EpochPrefixCache::new(2 * per_entry + 16);
        let big = idx(&vec![7u32; 100]);
        cache.publish(vec![
            (vec![0], Arc::clone(&big)),
            (vec![1], Arc::clone(&big)),
            (vec![2], Arc::clone(&big)),
        ]);
        let snap = cache.snapshot();
        assert!(snap.get(&[0]).is_none(), "oldest epoch is the victim");
        assert!(snap.get(&[1]).is_some() && snap.get(&[2]).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.resident_bytes <= (2 * per_entry + 16) as u64);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn epoch_publish_overwrites_duplicate_keys() {
        let cache: EpochPrefixCache<Vec<u32>> = EpochPrefixCache::new(1 << 20);
        cache.publish(vec![(vec![5], idx(&[1])), (vec![5], idx(&[2, 3]))]);
        let snap = cache.snapshot();
        assert_eq!(snap.get(&[5]).unwrap().as_slice(), &[2, 3]);
        assert_eq!(snap.len(), 1);
        let resident = cache.stats().resident_bytes;
        // Resident accounting reflects only the surviving value.
        assert_eq!(
            resident as usize,
            2 * 4 + std::mem::size_of::<ColumnId>() + ENTRY_OVERHEAD
        );
    }

    #[test]
    fn epoch_lookup_stats_flushed_at_level_boundaries() {
        let cache: EpochPrefixCache<Vec<u32>> = EpochPrefixCache::new(1 << 20);
        cache.record_lookups(7, 3);
        cache.record_lookups(0, 2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (7, 5));
    }

    #[test]
    fn epoch_zero_budget_stores_nothing() {
        let cache: EpochPrefixCache<Vec<u32>> = EpochPrefixCache::new(0);
        cache.publish(vec![(vec![0], idx(&[1, 2, 3]))]);
        assert!(cache.snapshot().is_empty());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn epoch_fault_storm_drops_published_inserts() {
        let mut cache: EpochPrefixCache<Vec<u32>> = EpochPrefixCache::new(1 << 20);
        let mut plan = crate::runtime::FaultPlan::default();
        plan.drop_cache_inserts = true;
        cache.set_fault_plan(Some(Arc::new(plan)));
        cache.publish(vec![(vec![0], idx(&[1]))]);
        assert!(cache.snapshot().is_empty());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.publishes(), 1);
    }

    #[test]
    // Test threads read the published snapshot concurrently on purpose.
    #[allow(clippy::disallowed_methods)]
    fn epoch_concurrent_readers_race_free() {
        let cache: Arc<EpochPrefixCache<Vec<u32>>> = Arc::new(EpochPrefixCache::new(1 << 22));
        cache.publish((0..32u32).map(|i| (vec![i as ColumnId], idx(&[i; 8]))));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let snap = cache.snapshot();
                    for i in 0..32u32 {
                        assert_eq!(snap.get(&[i as ColumnId]).unwrap().len(), 8);
                    }
                    cache.record_lookups(32, 0);
                });
            }
        });
        assert_eq!(cache.stats().hits, 128);
    }
}
