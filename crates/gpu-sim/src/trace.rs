//! Execution tracing: the two-pipe schedule of one kernel as a list of
//! timed segments, for inspection, visualization, and scheduler tests.
//!
//! [`trace_kernel`] replays exactly the schedule the engine times (same
//! block dealing, same waves, the engine's own wave scheduler, same fold
//! of wave costs) while recording every segment's placement. It is the
//! slow, observable sibling of `engine::simulate` — used by examples and
//! the scheduler's own invariants tests (no pipe overlap, chain order
//! preserved, busy times match the cost model). Its replay is the one
//! loop that deals blocks one by one; `engine::kernel_time_dealing` times
//! a kernel through it as the oracle of the engine's closed-form
//! schedule.

use crate::cost::{BlockSegments, Pipe, TileClasses};
use crate::device::DeviceConfig;
use crate::engine::schedule_wave;
use crate::occupancy::LaunchError;
use crate::workload::SimWorkload;
use serde::{Deserialize, Serialize};

/// Which pipe a traced segment ran on (serializable mirror of
/// [`crate::cost::Pipe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TracePipe {
    /// Global-memory pipe.
    Mem,
    /// Arithmetic pipe.
    Comp,
}

/// One scheduled segment of the kernel trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// SM the segment ran on.
    pub sm: usize,
    /// Wave index within the SM (groups of up to `k` co-resident blocks).
    pub wave: usize,
    /// Block index within the wave.
    pub block: usize,
    /// The pipe used.
    pub pipe: TracePipe,
    /// Start time within the kernel (seconds).
    pub start: f64,
    /// End time within the kernel (seconds).
    pub end: f64,
}

/// The trace of one kernel launch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelTrace {
    /// Resolved co-residency (`k`).
    pub k: usize,
    /// Makespan of the kernel (the engine's number, reproduced).
    pub makespan: f64,
    /// All scheduled segments.
    pub events: Vec<TraceEvent>,
}

/// Aggregate utilization view of one [`KernelTrace`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceSummary {
    /// The kernel makespan (s).
    pub makespan: f64,
    /// Per-SM busy time: the union of that SM's mem and comp segments
    /// (s). A moment counts once even when both pipes are active.
    pub sm_busy: Vec<f64>,
    /// `sm_busy[i] / makespan` (0.0 when the makespan is zero).
    pub sm_busy_fraction: Vec<f64>,
    /// Summed memory-pipe busy time across SMs (s).
    pub mem_busy: f64,
    /// Summed compute-pipe busy time across SMs (s).
    pub comp_busy: f64,
    /// `mem_busy / (n_sm * makespan)`.
    pub mem_utilization: f64,
    /// `comp_busy / (n_sm * makespan)`.
    pub comp_utilization: f64,
    /// Longest interval within `[0, makespan]` during which one lane
    /// (an SM's mem or comp pipe) is idle, counting the stretches
    /// before a lane's first segment and after its last. A lane with
    /// no segments at all contributes the whole makespan.
    pub longest_idle_gap: f64,
}

impl KernelTrace {
    /// Summarize the schedule over `n_sm` SMs (the device's SM count —
    /// SMs that received no blocks still count as idle lanes).
    pub fn summary(&self, n_sm: usize) -> TraceSummary {
        let mut lanes: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_sm * 2];
        for e in &self.events {
            let lane = e.sm * 2 + (e.pipe == TracePipe::Comp) as usize;
            lanes[lane].push((e.start, e.end));
        }
        for lane in &mut lanes {
            lane.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        let lane_busy = |lane: &[(f64, f64)]| lane.iter().map(|(s, e)| e - s).sum::<f64>();
        let mem_busy: f64 = lanes.iter().step_by(2).map(|l| lane_busy(l)).sum();
        let comp_busy: f64 = lanes.iter().skip(1).step_by(2).map(|l| lane_busy(l)).sum();

        let mut sm_busy = Vec::with_capacity(n_sm);
        for sm in 0..n_sm {
            // Union of both pipes' intervals: merge-sweep over the
            // already-sorted lanes.
            let mut iv: Vec<(f64, f64)> = lanes[sm * 2]
                .iter()
                .chain(&lanes[sm * 2 + 1])
                .copied()
                .collect();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut busy = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (s, e) in iv {
                match &mut cur {
                    Some((_, ce)) if s <= *ce => *ce = ce.max(e),
                    _ => {
                        if let Some((cs, ce)) = cur {
                            busy += ce - cs;
                        }
                        cur = Some((s, e));
                    }
                }
            }
            if let Some((cs, ce)) = cur {
                busy += ce - cs;
            }
            sm_busy.push(busy);
        }
        let frac = |busy: f64| {
            if self.makespan > 0.0 {
                busy / self.makespan
            } else {
                0.0
            }
        };
        let sm_busy_fraction: Vec<f64> = sm_busy.iter().map(|&b| frac(b)).collect();

        let mut longest_idle_gap = 0.0f64;
        for lane in &lanes {
            let mut prev_end = 0.0f64;
            for &(s, e) in lane {
                longest_idle_gap = longest_idle_gap.max(s - prev_end);
                prev_end = prev_end.max(e);
            }
            longest_idle_gap = longest_idle_gap.max(self.makespan - prev_end);
        }

        let pipe_util = |busy: f64| {
            if self.makespan > 0.0 && n_sm > 0 {
                busy / (n_sm as f64 * self.makespan)
            } else {
                0.0
            }
        };
        TraceSummary {
            makespan: self.makespan,
            sm_busy,
            sm_busy_fraction,
            mem_busy,
            comp_busy,
            mem_utilization: pipe_util(mem_busy),
            comp_utilization: pipe_util(comp_busy),
            longest_idle_gap,
        }
    }

    /// Render the schedule into a Chrome trace under process `pid`:
    /// SM = track pair, pipe = lane (`tid = sm*2 + pipe`), simulated
    /// seconds mapped to trace microseconds and shifted by `offset_us`
    /// (so consecutive kernels tile a shared timeline).
    pub fn add_chrome_events(
        &self,
        out: &mut obs::chrome::ChromeTrace,
        pid: u32,
        offset_us: f64,
        kernel_label: &str,
    ) {
        for e in &self.events {
            let tid = (e.sm * 2 + (e.pipe == TracePipe::Comp) as usize) as u32;
            let (pipe_name, lane_name) = match e.pipe {
                TracePipe::Mem => ("mem", format!("SM {} · mem", e.sm)),
                TracePipe::Comp => ("comp", format!("SM {} · comp", e.sm)),
            };
            out.name_thread(pid, tid, &lane_name);
            out.complete(obs::chrome::CompleteEvent {
                name: format!("{kernel_label} w{} b{}", e.wave, e.block),
                cat: "sim".to_owned(),
                pid,
                tid,
                ts_us: offset_us + e.start * 1e6,
                dur_us: (e.end - e.start) * 1e6,
                args: vec![
                    ("sm".to_owned(), obs::FieldValue::U64(e.sm as u64)),
                    ("wave".to_owned(), obs::FieldValue::U64(e.wave as u64)),
                    ("block".to_owned(), obs::FieldValue::U64(e.block as u64)),
                    (
                        "pipe".to_owned(),
                        obs::FieldValue::Str(pipe_name.to_owned()),
                    ),
                ],
            });
        }
    }
}

/// Trace kernel `index` of the workload.
///
/// Returns an error if the workload cannot launch; panics if `index` is
/// out of range.
pub fn trace_kernel(
    device: &DeviceConfig,
    wl: &SimWorkload,
    index: usize,
) -> Result<KernelTrace, LaunchError> {
    let mut tile = TileClasses::new(device, wl);
    let launch = tile.lower(device, wl)?;
    let k = launch.occupancy.k;
    let lowered = &launch.vectors[tile.kernel_vector[index]];

    let mut events = Vec::new();
    let (sm_finish, _) = replay(
        device.n_sm,
        k,
        lowered,
        |sm, wave, block, pipe, start, end| {
            events.push(TraceEvent {
                sm,
                wave,
                block,
                pipe: match pipe {
                    Pipe::Mem => TracePipe::Mem,
                    Pipe::Comp => TracePipe::Comp,
                },
                start,
                end,
            })
        },
    );
    Ok(KernelTrace {
        k,
        makespan: sm_finish.iter().copied().fold(0.0, f64::max),
        events,
    })
}

/// Expand the dispatch order (class after class) and deal it round-robin
/// to `n_sm` SMs, as the hardware's block scheduler does for a grid: the
/// class index of every block, per SM, in dispatch order.
fn deal(n_sm: usize, lowered: &[(u64, BlockSegments)]) -> Vec<Vec<u16>> {
    let mut per_sm: Vec<Vec<u16>> = vec![Vec::new(); n_sm];
    let order = lowered
        .iter()
        .enumerate()
        .flat_map(|(idx, (count, _))| std::iter::repeat_n(idx as u16, *count as usize));
    for (pos, cls) in order.enumerate() {
        per_sm[pos % n_sm].push(cls);
    }
    per_sm
}

/// One kernel of `lowered` classes, block by block: [`deal`] the blocks,
/// cut each SM's blocks into waves of `k`, schedule every wave afresh
/// from 0 and add its cost to its SM's clock, exactly as the engine folds
/// wave costs. `on_segment(sm, wave, block, pipe, start, end)` observes
/// every placement on the SM's clock. Returns each SM's drain time and
/// the number of waves.
pub(crate) fn replay(
    n_sm: usize,
    k: usize,
    lowered: &[(u64, BlockSegments)],
    mut on_segment: impl FnMut(usize, usize, usize, Pipe, f64, f64),
) -> (Vec<f64>, u64) {
    let mut waves = 0u64;
    let sm_finish = deal(n_sm, lowered)
        .iter()
        .enumerate()
        .map(|(sm, dealt)| {
            let mut t = 0.0f64;
            for (wave, classes) in dealt.chunks(k.max(1)).enumerate() {
                let blocks = classes.iter().map(|&c| &lowered[c as usize].1);
                t += schedule_wave(blocks, |block, pipe, start, end| {
                    on_segment(sm, wave, block, pipe, t + start, t + end)
                })
                .0;
                waves += 1;
            }
            t
        })
        .collect();
    (sm_finish, waves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{kernel_time, simulate, KernelStats};
    use hhc_tiling::{LaunchConfig, TileSizes, TilingPlan};
    use stencil_core::{ProblemSize, StencilDescriptor};

    fn workload() -> SimWorkload {
        let mut wl = SimWorkload::uniform(
            2,
            37,
            4,
            2048,
            2048,
            vec![[1024, 1, 1], [1024, 1, 1]],
            128,
            32,
        );
        wl.mtile_words = 8192; // k = 3
        wl
    }

    /// The engine's schedule of each of `wl`'s kernels at the occupancy
    /// `simulate` resolves.
    fn engine_kernels(d: &DeviceConfig, wl: &SimWorkload) -> Vec<KernelStats> {
        let k = simulate(d, wl).unwrap().occupancy.k;
        wl.kernels
            .iter()
            .map(|kernel| kernel_time(d, wl, &kernel.classes, k))
            .collect()
    }

    #[test]
    fn trace_reproduces_engine_makespan() {
        // Every kernel of a multi-class plan, bit for bit.
        let d = DeviceConfig::gtx980();
        let plan = TilingPlan::build(
            &StencilDescriptor::jacobi2d().spec(),
            &ProblemSize::new_2d(256, 256, 32),
            TileSizes::new_2d(8, 32, 128),
            LaunchConfig::new_2d(4, 32),
        )
        .unwrap();
        let wl = SimWorkload::from_plan(&plan);
        assert!(wl.kernels.iter().any(|k| k.classes.len() > 1));
        for (index, kernel) in engine_kernels(&d, &wl).iter().enumerate() {
            let trace = trace_kernel(&d, &wl, index).unwrap();
            assert_eq!(
                trace.makespan.to_bits(),
                kernel.makespan.to_bits(),
                "kernel {index}: trace {} vs engine {}",
                trace.makespan,
                kernel.makespan
            );
        }
    }

    #[test]
    fn pipes_never_overlap_within_an_sm() {
        let d = DeviceConfig::gtx980();
        let trace = trace_kernel(&d, &workload(), 0).unwrap();
        for sm in 0..d.n_sm {
            for pipe in [TracePipe::Mem, TracePipe::Comp] {
                let mut segs: Vec<_> = trace
                    .events
                    .iter()
                    .filter(|e| e.sm == sm && e.pipe == pipe)
                    .collect();
                segs.sort_by(|a, b| a.start.total_cmp(&b.start));
                for w in segs.windows(2) {
                    assert!(
                        w[1].start >= w[0].end - 1e-15,
                        "pipe overlap on SM {sm}: {:?} then {:?}",
                        w[0],
                        w[1]
                    );
                }
            }
        }
    }

    #[test]
    fn block_chains_are_ordered() {
        // A block's segments execute in order: each segment starts no
        // earlier than the previous one ends.
        let d = DeviceConfig::gtx980();
        let trace = trace_kernel(&d, &workload(), 0).unwrap();
        use std::collections::BTreeMap;
        let mut chains: BTreeMap<(usize, usize, usize), Vec<&TraceEvent>> = BTreeMap::new();
        for e in &trace.events {
            chains.entry((e.sm, e.wave, e.block)).or_default().push(e);
        }
        for (key, chain) in chains {
            for w in chain.windows(2) {
                assert!(
                    w[1].start >= w[0].end - 1e-15,
                    "chain {key:?} out of order: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn summary_busy_times_and_makespan_match_engine_exactly() {
        let d = DeviceConfig::gtx980();
        let wl = workload();
        let kernels = engine_kernels(&d, &wl);
        let trace = trace_kernel(&d, &wl, 0).unwrap();
        let s = trace.summary(d.n_sm);
        assert_eq!(s.makespan.to_bits(), trace.makespan.to_bits());
        assert!(
            (s.makespan - kernels[0].makespan).abs() < 1e-15,
            "summary {} vs engine {}",
            s.makespan,
            kernels[0].makespan
        );
        // The engine computes pipe-busy analytically (Σ count·time per
        // class); the summary sums the scheduled segments. They must
        // agree to float-summation noise.
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-300);
        assert!(
            rel(s.mem_busy, kernels[0].mem_busy) < 1e-12,
            "mem busy {} vs engine {}",
            s.mem_busy,
            kernels[0].mem_busy
        );
        assert!(
            rel(s.comp_busy, kernels[0].comp_busy) < 1e-12,
            "comp busy {} vs engine {}",
            s.comp_busy,
            kernels[0].comp_busy
        );
    }

    #[test]
    fn summary_fractions_and_gaps_are_sane() {
        let d = DeviceConfig::gtx980();
        let trace = trace_kernel(&d, &workload(), 0).unwrap();
        let s = trace.summary(d.n_sm);
        assert_eq!(s.sm_busy.len(), d.n_sm);
        assert_eq!(s.sm_busy_fraction.len(), d.n_sm);
        for (&busy, &f) in s.sm_busy.iter().zip(&s.sm_busy_fraction) {
            assert!(busy >= 0.0 && busy <= s.makespan + 1e-15);
            assert!((0.0..=1.0 + 1e-12).contains(&f), "fraction {f}");
        }
        assert!(s.mem_utilization > 0.0 && s.mem_utilization <= 1.0);
        assert!(s.comp_utilization > 0.0 && s.comp_utilization <= 1.0);
        assert!((0.0..=s.makespan).contains(&s.longest_idle_gap));
        // 37 blocks over 16 SMs: every SM got work, but pipes have
        // gaps while a wave waits on its other pipe.
        assert!(s.longest_idle_gap > 0.0);
        // The busiest SM is busy the whole makespan minus scheduling
        // bubbles; the max fraction must be substantial.
        let max_frac = s.sm_busy_fraction.iter().cloned().fold(0.0, f64::max);
        assert!(max_frac > 0.5, "max busy fraction {max_frac}");
    }

    #[test]
    fn summary_counts_empty_sms_as_idle_lanes() {
        let d = DeviceConfig::gtx980();
        // 1 block on 16 SMs: 15 SMs are fully idle.
        let mut wl = SimWorkload::uniform(1, 1, 4, 2048, 2048, vec![[1024, 1, 1]], 128, 32);
        wl.mtile_words = 8192;
        let trace = trace_kernel(&d, &wl, 0).unwrap();
        let s = trace.summary(d.n_sm);
        assert_eq!(s.sm_busy_fraction.iter().filter(|&&f| f == 0.0).count(), 15);
        assert_eq!(s.longest_idle_gap.to_bits(), s.makespan.to_bits());
    }

    #[test]
    fn chrome_export_is_well_formed_and_lanes_do_not_overlap() {
        let d = DeviceConfig::gtx980();
        let wl = workload();
        let t0 = trace_kernel(&d, &wl, 0).unwrap();
        let t1 = trace_kernel(&d, &wl, 1).unwrap();
        let mut out = obs::chrome::ChromeTrace::new();
        out.name_process(1, "gpu");
        t0.add_chrome_events(&mut out, 1, 0.0, "k0");
        t1.add_chrome_events(&mut out, 1, t0.makespan * 1e6, "k1");
        let json = out.to_json();

        // Round-trips through the JSON parser cleanly.
        let v = serde_json::from_str(&json).expect("chrome trace must parse");
        let serde::Value::Map(top) = &v else {
            panic!("top level must be an object")
        };
        let events = top
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents");
        let serde::Value::Seq(events) = events else {
            panic!("traceEvents must be an array")
        };
        assert!(!events.is_empty());

        // Per (pid, tid) lane, X events are monotonically non-overlapping.
        let field = |m: &[(String, serde::Value)], k: &str| -> f64 {
            match m.iter().find(|(n, _)| n == k).map(|(_, v)| v) {
                Some(serde::Value::F64(f)) => *f,
                Some(serde::Value::UInt(u)) => *u as f64,
                Some(serde::Value::Int(i)) => *i as f64,
                other => panic!("field {k}: {other:?}"),
            }
        };
        let mut lanes: std::collections::BTreeMap<(u64, u64), Vec<(f64, f64)>> = Default::default();
        for ev in events {
            let serde::Value::Map(m) = ev else {
                panic!("event must be an object")
            };
            let ph = m.iter().find(|(n, _)| n == "ph").map(|(_, v)| v);
            if !matches!(ph, Some(serde::Value::Str(s)) if s == "X") {
                continue;
            }
            let key = (field(m, "pid") as u64, field(m, "tid") as u64);
            lanes
                .entry(key)
                .or_default()
                .push((field(m, "ts"), field(m, "dur")));
        }
        assert!(!lanes.is_empty());
        for (lane, mut segs) in lanes {
            segs.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in segs.windows(2) {
                assert!(
                    w[1].0 >= w[0].0 + w[0].1 - 1e-6,
                    "lane {lane:?} overlaps: {w:?}"
                );
            }
        }
    }

    #[test]
    fn overlap_actually_happens_with_k_greater_than_one() {
        // Some memory segment runs concurrently with some compute
        // segment on the same SM — the hyperthreading effect.
        let d = DeviceConfig::gtx980();
        let trace = trace_kernel(&d, &workload(), 0).unwrap();
        assert!(trace.k > 1, "premise: co-residency");
        let overlapping = trace.events.iter().any(|a| {
            trace.events.iter().any(|b| {
                a.sm == b.sm
                    && a.pipe == TracePipe::Mem
                    && b.pipe == TracePipe::Comp
                    && a.start < b.end
                    && b.start < a.end
            })
        });
        assert!(overlapping, "no mem/comp overlap observed");
    }
}
