//! The run manifest: provenance stamped into every result artifact.
//!
//! Results under `results/` outlive the working tree that produced them;
//! the manifest records enough to reproduce a file bit-for-bit — the git
//! revision, the experiment scale, the rayon thread count (results are
//! thread-count invariant, but wall times are not), and the
//! micro-benchmark seed. [`crate::output::Results`] wraps every JSON
//! artifact as `{"manifest": ..., "data": ...}` when a manifest is
//! attached.

use serde::{Deserialize, Serialize};

/// Provenance of one `experiments` invocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunManifest {
    /// `git rev-parse HEAD` of the tree that produced the results
    /// (`"unknown"` outside a git checkout), plus a `-dirty` suffix when
    /// the working tree had uncommitted changes.
    pub git_rev: String,
    /// Experiment scale label (`paper`/`reduced`/`smoke`).
    pub scale: String,
    /// Size of the rayon pool the run used.
    pub threads: usize,
    /// Detected SIMD capability the row kernels dispatched to (e.g.
    /// `"avx2 x8"`): results are SIMD-invariant (bit-identity is pinned
    /// by tests), but wall times are not.
    pub simd: String,
    /// Seed of the deterministic micro-benchmark sampler.
    pub seed: u64,
    /// The command line, for replaying the exact invocation.
    pub argv: Vec<String>,
}

impl RunManifest {
    /// Collect the manifest for the current process.
    pub fn collect(scale: &str) -> RunManifest {
        RunManifest {
            git_rev: advisor::cache::current_git_rev(),
            scale: scale.to_owned(),
            threads: rayon::current_num_threads(),
            simd: stencil_core::simd::caps().describe(),
            seed: crate::SEED,
            argv: std::env::args().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_fills_every_field() {
        let m = RunManifest::collect("smoke");
        assert_eq!(m.scale, "smoke");
        assert_eq!(m.seed, crate::SEED);
        assert!(m.threads >= 1);
        assert!(m.simd.contains(" x"), "{}", m.simd);
        assert!(!m.git_rev.is_empty());
        assert!(!m.argv.is_empty());
    }

    #[test]
    fn manifest_serializes_to_a_json_object() {
        let m = RunManifest::collect("smoke");
        let s = serde_json::to_string(&m).unwrap();
        assert!(s.contains("\"git_rev\""));
        assert!(s.contains("\"seed\":24301"), "{s}");
    }
}
