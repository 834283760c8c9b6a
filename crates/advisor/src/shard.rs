//! The sharded in-memory answer cache — the serving hot path's tier 1.
//!
//! One LRU behind one mutex would serialize every worker of a
//! concurrent server just to answer a warm query. Here the LRU is
//! split into [`SHARDS`] independent shards,
//! each behind its own mutex on its own cache line (the same
//! padding discipline as `obs::ShardedRecorder`), so queries against
//! different keys never contend. A shard is picked by the FNV-64 hash
//! of the full canonical key — the key starts with the device
//! fingerprint and stencil name, so one device×stencil pair's working
//! set spreads across shards instead of piling onto one hot stripe
//! when traffic is skewed (and two pairs never share lock state by
//! construction of the hash).
//!
//! Eviction is LRU *per shard* (capacity is divided evenly), which
//! under a hashed key distribution approximates global LRU to within
//! the usual per-shard variance; the cache stays exact in the sense
//! that a `get` only ever returns the byte-identical advice a `put`
//! stored under that key.

use crate::advice::Advice;
use crate::cache::fnv64;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Number of shards. A small power of two: enough that a worker pool
/// sized to the core count rarely collides, small enough that the
/// per-shard capacity split stays meaningful.
pub const SHARDS: usize = 16;

/// One shard: an LRU over canonical-key → advice.
struct Shard {
    cap: usize,
    map: HashMap<String, Advice>,
    /// Keys from least- to most-recently used. Linear maintenance is
    /// fine at a shard's capacity (tens, not millions).
    order: Vec<String>,
}

impl Shard {
    fn new(cap: usize) -> Self {
        Shard {
            cap: cap.max(1),
            map: HashMap::new(),
            order: Vec::new(),
        }
    }

    fn get(&mut self, key: &str) -> Option<Advice> {
        let hit = self.map.get(key).cloned()?;
        self.touch(key);
        Some(hit)
    }

    fn put(&mut self, key: String, advice: Advice) {
        if self.map.insert(key.clone(), advice).is_none() {
            self.order.push(key);
            if self.order.len() > self.cap {
                let evicted = self.order.remove(0);
                self.map.remove(&evicted);
            }
        } else {
            self.touch(&key);
        }
    }

    fn touch(&mut self, key: &str) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos);
            self.order.push(k);
        }
    }
}

/// One shard per cache line so neighboring locks never false-share.
#[repr(align(64))]
struct PaddedShard(Mutex<Shard>);

/// A sharded, interior-mutable LRU over canonical-key → advice.
pub struct ShardedCache {
    shards: Vec<PaddedShard>,
}

impl ShardedCache {
    /// A cache holding `capacity` answers in total, split evenly over
    /// the shards (every shard holds at least one).
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        ShardedCache {
            shards: (0..SHARDS)
                .map(|_| PaddedShard(Mutex::new(Shard::new(per_shard))))
                .collect(),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        &self.shards[(fnv64(key.as_bytes()) as usize) % SHARDS].0
    }

    /// Look up `key`, refreshing its LRU position in its shard.
    pub fn get(&self, key: &str) -> Option<Advice> {
        self.shard(key).lock().get(key)
    }

    /// Insert (or refresh) `key`, evicting that shard's LRU victim when
    /// the shard is over capacity.
    pub fn put(&self, key: String, advice: Advice) {
        self.shard(&key).lock().put(key, advice)
    }

    /// Total entries across all shards (snapshot; shards are read one
    /// at a time).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.0.lock().map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.0.lock().map.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn advice(tag: &str) -> Advice {
        Advice {
            id: Some(tag.into()),
            device: "GTX 980".into(),
            stencil: "Heat2D".into(),
            size: vec![64, 64],
            time: 8,
            feasible_points: 10,
            within: 0.1,
            within_points: 2,
            degraded: false,
            calib_rev: None,
            candidates: Vec::new(),
            validation: None,
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = Shard::new(2);
        c.put("a".into(), advice("a"));
        c.put("b".into(), advice("b"));
        // Touch "a" so "b" is the eviction victim.
        assert!(c.get("a").is_some());
        c.put("c".into(), advice("c"));
        assert_eq!(c.map.len(), 2);
        assert!(c.get("b").is_none());
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
    }

    #[test]
    fn round_trips_exact_values_across_shards() {
        let c = ShardedCache::new(256);
        for i in 0..100 {
            c.put(format!("key-{i}"), advice(&format!("a{i}")));
        }
        assert_eq!(c.len(), 100);
        for i in 0..100 {
            let hit = c.get(&format!("key-{i}")).expect("stored key present");
            assert_eq!(hit, advice(&format!("a{i}")));
        }
        assert!(c.get("key-100").is_none());
    }

    #[test]
    fn per_shard_eviction_bounds_total_size() {
        // capacity 16 → one slot per shard; keys spread by hash, so the
        // total can never exceed SHARDS entries.
        let c = ShardedCache::new(16);
        for i in 0..1000 {
            c.put(format!("key-{i}"), advice("x"));
        }
        assert!(c.len() <= SHARDS, "len {} > shards {SHARDS}", c.len());
        assert!(!c.is_empty());
    }
}
