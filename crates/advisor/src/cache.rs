//! Key hashing, provenance and the bounded memo shared by the
//! advisor's answer tiers.
//!
//! [`fnv64`] picks a memory-cache shard and fingerprints the device and
//! enumerated space inside every canonical key; [`current_git_rev`] is
//! the revision an answer store is bound to, and the one every
//! `experiments` run manifest records. [`Memo`] holds the per-advisor
//! intermediate results a miss would otherwise rebuild.

use parking_lot::Mutex;
use std::collections::VecDeque;

/// FNV-1a over the canonical key: stable across processes and platforms.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The current git revision with a `-dirty` suffix when the tree has
/// uncommitted changes; `"unknown"` outside a repository.
pub fn current_git_rev() -> String {
    let out = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(rev) = out(&["rev-parse", "HEAD"]) else {
        return "unknown".to_owned();
    };
    let dirty = out(&["status", "--porcelain"]).is_some_and(|s| !s.trim().is_empty());
    format!("{}{}", rev.trim(), if dirty { "-dirty" } else { "" })
}

/// Entries a [`Memo`] keeps. Its keys come off the wire (every
/// distinct inline device or stencil is a new one), so the bound is
/// what keeps a long-running server's memos from growing with its
/// traffic; the paper's workloads need a handful of entries.
pub const MEMO_CAP: usize = 16;

/// A memo of deterministic values holding at most [`MEMO_CAP`] entries,
/// evicting the oldest insertion first. An evicted value is recomputed
/// to the same bits on its next use, so the bound changes timing, never
/// an answer. Lookup is a linear scan, which at this size costs less
/// than hashing the key would.
pub(crate) struct Memo<K, V> {
    entries: Mutex<VecDeque<(K, V)>>,
}

impl<K, V: Clone> Memo<K, V> {
    pub(crate) fn new() -> Self {
        Memo {
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// The value of the first entry whose key satisfies `hit`; on a
    /// miss, the entry `make` builds, inserted. `make` runs under the
    /// memo's lock, so concurrent misses on one key build it once.
    pub(crate) fn get_or_insert(
        &self,
        hit: impl Fn(&K) -> bool,
        make: impl FnOnce() -> (K, V),
    ) -> V {
        let mut entries = self.entries.lock();
        if let Some((_, v)) = entries.iter().find(|(k, _)| hit(k)) {
            return v.clone();
        }
        if entries.len() == MEMO_CAP {
            entries.pop_front();
        }
        let (k, v) = make();
        entries.push_back((k, v.clone()));
        v
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn memo_evicts_the_oldest_entry_at_its_cap() {
        let memo = Memo::new();
        let made = std::cell::Cell::new(0);
        let get = |k: usize| {
            memo.get_or_insert(
                |&e| e == k,
                || {
                    made.set(made.get() + 1);
                    (k, k * 10)
                },
            )
        };
        for k in 0..MEMO_CAP + 3 {
            assert_eq!(get(k), k * 10);
        }
        assert_eq!(memo.len(), MEMO_CAP);
        // The newest entry is a hit; the oldest three were evicted, and
        // the first comes back recomputed to the same value.
        assert_eq!(get(MEMO_CAP + 2), (MEMO_CAP + 2) * 10);
        assert_eq!(made.get(), MEMO_CAP + 3);
        assert_eq!(get(0), 0);
        assert_eq!(made.get(), MEMO_CAP + 4);
        assert_eq!(memo.len(), MEMO_CAP);
    }
}
