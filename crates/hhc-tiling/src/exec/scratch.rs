//! Reusable buffers for the tiled executor.
//!
//! Every run takes its planes from a pool, and every tile of a staged
//! run ([`super::ExecMode::Staged`]) needs a dense local box (its padded
//! slice of the space-time state), a row list, sub-tile ranges, and a
//! write log. Allocating those per tile dominated the old write-log
//! runner; the pool hands buffers out to worker threads and takes them
//! back when the batch completes, so a steady-state run allocates
//! nothing. Pooled planes are what let `tile_opt::run_candidates`
//! execute a whole candidate set with one warm-up's worth of
//! allocations.

use crate::hex::RowSpan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One contiguous run of cells written to ring plane `slot`, starting at
/// flat cell index `base`. The payload lives in [`TileWrites::data`], in
/// span order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WriteSpan {
    pub(crate) slot: u32,
    pub(crate) base: usize,
    pub(crate) len: usize,
}

/// Per-tile working memory: the dense local box and the iteration-shape
/// buffers. Grown on demand, never shrunk, so a pool-resident scratch
/// stabilizes at the largest tile it has seen.
#[derive(Debug, Default)]
pub(crate) struct TileScratch {
    /// Local planes `[t_lo, t_hi + 1]` over the tile's widened `s1`
    /// bounding box × the full padded `s2 × s3` extent, in the ring
    /// planes' flat-stride layout.
    pub(crate) buf: Vec<f32>,
    pub(crate) rows: Vec<RowSpan>,
    pub(crate) r2: Vec<i64>,
    pub(crate) r3: Vec<i64>,
}

/// One tile's write log: disjoint row spans plus their values, applied
/// to the shared ring after the wavefront joins.
#[derive(Debug, Default)]
pub(crate) struct TileWrites {
    pub(crate) spans: Vec<WriteSpan>,
    pub(crate) data: Vec<f32>,
}

impl TileWrites {
    fn clear(&mut self) {
        self.spans.clear();
        self.data.clear();
    }
}

/// Thread-safe buffer pool shared by a run's planes and its workers.
///
/// `acquires` counts every checkout; `reuses` counts the checkouts that
/// were served from the pool instead of a fresh allocation, so
/// `reuses / acquires → 1` once the pool is warm.
#[derive(Debug, Default)]
pub struct ScratchPool {
    scratch: Mutex<Vec<TileScratch>>,
    writes: Mutex<Vec<TileWrites>>,
    planes: Mutex<Vec<Vec<f32>>>,
    acquires: AtomicU64,
    reuses: AtomicU64,
}

impl ScratchPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Total buffer checkouts so far.
    pub fn acquires(&self) -> u64 {
        self.acquires.load(Ordering::Relaxed)
    }

    /// Checkouts served without allocating.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    fn count(&self, hit: bool) {
        self.acquires.fetch_add(1, Ordering::Relaxed);
        if hit {
            self.reuses.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn take_scratch(&self) -> TileScratch {
        let got = self.scratch.lock().unwrap().pop();
        self.count(got.is_some());
        got.unwrap_or_default()
    }

    pub(crate) fn put_scratch(&self, s: TileScratch) {
        self.scratch.lock().unwrap().push(s);
    }

    pub(crate) fn take_writes(&self) -> TileWrites {
        let got = self.writes.lock().unwrap().pop();
        self.count(got.is_some());
        let mut w = got.unwrap_or_default();
        w.clear();
        w
    }

    pub(crate) fn put_writes(&self, w: TileWrites) {
        self.writes.lock().unwrap().push(w);
    }

    /// A plane of exactly `cells` elements. Recycled planes keep their
    /// contents (possibly from another run, shape or boundary value): the
    /// executor rewrites every halo cell at checkout and otherwise only
    /// reads domain cells it has already written this run, the same
    /// property that makes ring-slot recycling legal.
    ///
    /// A checkout only counts as a reuse when the recycled plane's
    /// capacity actually covers `cells` — a pooled plane from a smaller
    /// problem that must reallocate to grow is an allocation wearing a
    /// pool hat, and counting it as a reuse is how a cold pool could
    /// report `acquires == reuses`.
    pub(crate) fn take_plane(&self, cells: usize) -> Vec<f32> {
        let got = self.planes.lock().unwrap().pop();
        self.count(got.as_ref().is_some_and(|p| p.capacity() >= cells));
        match got {
            Some(mut p) => {
                p.resize(cells, 0.0);
                p
            }
            // Zeroed by the allocator, not by a fill.
            None => vec![0.0; cells],
        }
    }

    pub(crate) fn put_plane(&self, p: Vec<f32>) {
        self.planes.lock().unwrap().push(p);
    }
}
