//! Genome-keyed evaluation cache.
//!
//! The mapping fitness `F_M` (Eq. 1 plus penalties) is a pure function of
//! the multi-mode mapping string: the inner loop consumes no randomness
//! and no mutable state, so a genome's cost can be memoised soundly. The
//! GA revisits genomes constantly — elites survive, crossover recreates
//! parents, improvement operators undo each other — which makes a bounded
//! cache in front of the constructive inner loop one of the cheapest
//! speedups available.
//!
//! [`EvalCache`] is a sharded, bounded, least-recently-used map from
//! genome to sanitized cost. Determinism is non-negotiable here:
//!
//! - Lookups compare the stored genome, not just its hash, so a 64-bit
//!   collision can never serve a wrong cost.
//! - Recency is a global monotonic tick. Ticks are unique, so the
//!   evicted entry (minimum tick in the full shard) is unambiguous and
//!   independent of `HashMap` iteration order.
//! - All mutation happens on the driver thread ([`EvalCache`] is probed
//!   and filled serially, before and after a parallel batch), so the
//!   cache contents never depend on worker scheduling.
//! - [`EvalCache::state`] exports entries sorted by tick, giving
//!   byte-identical checkpoints for identical runs.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::genome::{genome_hash, Gene};

/// Number of independent shards. Sharding bounds the linear min-tick
/// eviction scan to `capacity / SHARD_COUNT` entries.
const SHARD_COUNT: usize = 16;

/// One cached evaluation, as persisted in checkpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// The multi-mode mapping string.
    pub genome: Vec<Gene>,
    /// Its sanitized cost (finite; rejected genomes store the sentinel).
    pub cost: f64,
    /// Last-use tick (larger = more recent).
    pub tick: u64,
}

/// Serializable image of an [`EvalCache`], persisted in checkpoints so a
/// resumed run replays the exact hit/miss sequence of an uninterrupted
/// one. Entries are sorted by tick; an empty state is a valid (empty or
/// disabled) cache.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheState {
    /// Next tick the cache will assign.
    pub tick: u64,
    /// Cached evaluations, ascending by tick.
    pub entries: Vec<CacheEntry>,
}

#[derive(Debug, Default)]
struct Shard {
    /// Hash → entries with that hash (collision chain, normally 1 long).
    map: HashMap<u64, Vec<CacheEntry>>,
    /// Number of entries across all chains.
    len: usize,
}

impl Shard {
    /// Drops the least-recently-used entry (unique minimum tick).
    fn evict_oldest(&mut self) {
        let Some((&hash, _)) = self
            .map
            .iter()
            .min_by_key(|(_, chain)| chain.iter().map(|e| e.tick).min().unwrap_or(u64::MAX))
        else {
            return;
        };
        let chain = self.map.get_mut(&hash).expect("key just found");
        let oldest = chain
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.tick)
            .map(|(i, _)| i)
            .expect("chains are never empty");
        chain.remove(oldest);
        if chain.is_empty() {
            self.map.remove(&hash);
        }
        self.len -= 1;
    }
}

/// Bounded LRU cache from genome to cost. See the module docs for the
/// determinism contract.
#[derive(Debug)]
pub struct EvalCache {
    shards: Vec<Shard>,
    /// Per-shard entry bound (`total capacity / SHARD_COUNT`, min 1).
    shard_capacity: usize,
    /// Monotonic recency clock; incremented by every get-hit and insert.
    tick: u64,
}

impl EvalCache {
    /// Creates a cache holding at most (roughly) `capacity` entries,
    /// split over [`SHARD_COUNT`] shards. `capacity` must be non-zero —
    /// a disabled cache is represented by not constructing one.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "use Option<EvalCache> for a disabled cache");
        Self {
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
            shard_capacity: capacity.div_ceil(SHARD_COUNT),
            tick: 0,
        }
    }

    /// Total entries currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len).sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached cost of `genome`, refreshing its recency on a hit.
    pub fn get(&mut self, genome: &[Gene]) -> Option<f64> {
        let hash = genome_hash(0, genome);
        let shard = &mut self.shards[(hash % SHARD_COUNT as u64) as usize];
        let entry = shard
            .map
            .get_mut(&hash)?
            .iter_mut()
            .find(|e| e.genome == genome)?;
        entry.tick = self.tick;
        self.tick += 1;
        Some(entry.cost)
    }

    /// Caches `cost` for `genome`, evicting the shard's least-recently
    /// used entry when full. Re-inserting an existing genome refreshes
    /// its recency and cost. Returns whether an entry was evicted.
    /// Deterministic: the GA fills the cache only in the serial stage
    /// of a batch, never inside parallel pricing.
    pub fn insert(&mut self, genome: &[Gene], cost: f64) -> bool {
        let hash = genome_hash(0, genome);
        let tick = self.tick;
        self.tick += 1;
        let shard = &mut self.shards[(hash % SHARD_COUNT as u64) as usize];
        if let Some(chain) = shard.map.get_mut(&hash) {
            if let Some(entry) = chain.iter_mut().find(|e| e.genome == genome) {
                entry.cost = cost;
                entry.tick = tick;
                return false;
            }
        }
        let evict = shard.len >= self.shard_capacity;
        if evict {
            shard.evict_oldest();
        }
        shard
            .map
            .entry(hash)
            .or_default()
            .push(CacheEntry { genome: genome.to_vec(), cost, tick });
        shard.len += 1;
        evict
    }

    /// Exports the cache for checkpointing: all entries, ascending by
    /// tick (deterministic despite `HashMap` iteration order).
    pub fn state(&self) -> CacheState {
        let mut entries: Vec<CacheEntry> = self
            .shards
            .iter()
            .flat_map(|s| s.map.values().flatten().cloned())
            .collect();
        entries.sort_by_key(|e| e.tick);
        CacheState { tick: self.tick, entries }
    }

    /// Rebuilds the cache from a checkpointed state. Entries are
    /// replayed in tick order, so when this cache's capacity is smaller
    /// than the captured one, the least recent entries of each full
    /// shard are deterministically dropped. Those drops were never
    /// evictions of the original run, so none is reported.
    pub fn restore(&mut self, state: &CacheState) {
        for shard in &mut self.shards {
            *shard = Shard::default();
        }
        self.tick = 0;
        for entry in &state.entries {
            self.insert(&entry.genome, entry.cost);
            // Keep the captured recency, not the replay order's.
            let hash = genome_hash(0, &entry.genome);
            let shard = &mut self.shards[(hash % SHARD_COUNT as u64) as usize];
            if let Some(e) = shard
                .map
                .get_mut(&hash)
                .and_then(|chain| chain.iter_mut().find(|e| e.genome == entry.genome))
            {
                e.tick = entry.tick;
            }
        }
        self.tick = state.tick.max(self.tick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn genome(seed: u16, len: usize) -> Vec<Gene> {
        (0..len as u16).map(|i| seed.wrapping_mul(31).wrapping_add(i)).collect()
    }

    #[test]
    fn get_returns_what_insert_stored() {
        let mut cache = EvalCache::new(64);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&genome(1, 4)), None);
        cache.insert(&genome(1, 4), 2.5);
        cache.insert(&genome(2, 4), 7.0);
        assert_eq!(cache.get(&genome(1, 4)), Some(2.5));
        assert_eq!(cache.get(&genome(2, 4)), Some(7.0));
        assert_eq!(cache.get(&genome(3, 4)), None);
        assert_eq!(cache.len(), 2);
        // Re-inserting updates the cost instead of duplicating.
        cache.insert(&genome(1, 4), 3.5);
        assert_eq!(cache.get(&genome(1, 4)), Some(3.5));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_drops_the_least_recently_used() {
        // Capacity 16 → one slot per shard: any two genomes landing in
        // the same shard compete, and the older one must go.
        let mut cache = EvalCache::new(16);
        let genomes: Vec<Vec<Gene>> = (0..64).map(|i| genome(i, 6)).collect();
        let mut evicted = 0;
        for (i, g) in genomes.iter().enumerate() {
            evicted += u64::from(cache.insert(g, i as f64));
        }
        assert!(cache.len() <= 16);
        // Every entry beyond capacity was evicted, and reported.
        assert_eq!(evicted, 64 - cache.len() as u64);
        // The most recent insert of every non-empty shard must survive.
        let survivors: Vec<usize> =
            (0..64).filter(|&i| cache.get(&genomes[i]).is_some()).collect();
        assert!(!survivors.is_empty());
        // Refreshing an entry's recency protects it from eviction by a
        // same-shard newcomer; verify via the tick ordering invariant.
        let state = cache.state();
        assert!(state.entries.windows(2).all(|w| w[0].tick < w[1].tick));
    }

    #[test]
    fn state_restore_round_trips_and_trims_to_capacity() {
        // Shard capacity 40: the 40 inserts cannot evict anything.
        let mut cache = EvalCache::new(640);
        for i in 0..40 {
            cache.insert(&genome(i, 5), i as f64);
        }
        // Touch a few entries so recency differs from insertion order.
        assert!(cache.get(&genome(0, 5)).is_some());
        assert!(cache.get(&genome(1, 5)).is_some());
        let state = cache.state();

        let mut back = EvalCache::new(640);
        back.restore(&state);
        assert_eq!(back.state(), state);

        // Restoring into a smaller cache keeps the most recent entries
        // of each shard and stays within capacity.
        let mut small = EvalCache::new(16);
        small.restore(&state);
        assert!(small.len() <= 16);
        assert!(small.get(&genome(0, 5)).is_some() || small.get(&genome(1, 5)).is_some());
        assert!(small.tick >= state.tick);
    }

    #[test]
    fn state_is_deterministic_across_identical_histories() {
        let build = || {
            let mut cache = EvalCache::new(32);
            for i in 0..50 {
                cache.insert(&genome(i % 20, 4), f64::from(i));
                cache.get(&genome((i * 7) % 20, 4));
            }
            cache.state()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn colliding_hashes_cannot_serve_the_wrong_cost() {
        // Force a collision chain by inserting through the public API and
        // checking genome equality still discriminates within a shard.
        let mut cache = EvalCache::new(1024);
        let a = genome(7, 3);
        let b = genome(8, 3);
        cache.insert(&a, 1.0);
        cache.insert(&b, 2.0);
        assert_eq!(cache.get(&a), Some(1.0));
        assert_eq!(cache.get(&b), Some(2.0));
    }
}
