//! Key hashing and provenance shared by the advisor's answer tiers.
//!
//! [`fnv64`] picks a memory-cache shard and fingerprints the device and
//! enumerated space inside every canonical key; [`current_git_rev`] is
//! the revision an answer store is bound to, and the one every
//! `experiments` run manifest records.

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
}
