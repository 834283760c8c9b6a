//! Error metrics for the model-validation experiments (paper §5.3).

use tile_opt::Evaluated;

/// Relative root-mean-square error of predictions against measurements:
/// `sqrt(mean(((pred − meas)/meas)²))`, as a fraction (0.10 = 10 %).
///
/// Pairs whose measurement is zero, denormal, or non-finite are skipped
/// (a single such measurement would otherwise poison the whole RMSE with
/// `inf`/NaN); the skip count is emitted on the `rmse.pairs_skipped`
/// counter. Returns `None` when no valid pair remains — an empty set has
/// no error, not a perfect one.
pub fn relative_rmse(pairs: &[(f64, f64)]) -> Option<f64> {
    let mut sum = 0.0f64;
    let mut n = 0usize;
    for &(pred, meas) in pairs {
        if !meas.is_normal() || !pred.is_finite() {
            continue;
        }
        let e = (pred - meas) / meas;
        sum += e * e;
        n += 1;
    }
    let skipped = pairs.len() - n;
    if skipped > 0 && obs::active() {
        obs::counter("rmse.pairs_skipped", skipped as u64);
    }
    (n > 0).then(|| (sum / n as f64).sqrt())
}

/// The evaluations whose measured performance is within `fraction` of
/// the best (paper: "within 20 % of the top performing one", *in
/// GFLOPS*). The FLOP count is fixed per experiment, so GFLOPS ∝ 1/time
/// and `gflops ≥ (1 − fraction) · best_gflops` translates to
/// `time ≤ best_time / (1 − fraction)` — a 1.25× band for 20 %, not the
/// naive 1.2× of `best · (1 + fraction)`.
pub fn top_performing(evals: &[Evaluated], fraction: f64) -> Vec<Evaluated> {
    let best = evals
        .iter()
        .filter_map(|e| e.measured)
        .min_by(f64::total_cmp);
    let Some(best) = best else {
        return Vec::new();
    };
    if fraction >= 1.0 {
        // A 100 %+ band in the GFLOPS domain admits every measured point.
        return evals
            .iter()
            .filter(|e| e.measured.is_some())
            .copied()
            .collect();
    }
    let cutoff = best / (1.0 - fraction);
    evals
        .iter()
        .filter(|e| e.measured.is_some_and(|m| m <= cutoff))
        .copied()
        .collect()
}

/// Extract (predicted, measured) pairs from evaluations, skipping
/// failed launches.
pub fn pairs(evals: &[Evaluated]) -> Vec<(f64, f64)> {
    evals
        .iter()
        .filter_map(|e| e.measured.map(|m| (e.predicted, m)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhc_tiling::{LaunchConfig, TileSizes};
    use tile_opt::DataPoint;

    fn ev(pred: f64, meas: Option<f64>) -> Evaluated {
        Evaluated {
            point: DataPoint {
                tiles: TileSizes::new_2d(4, 8, 32),
                launch: LaunchConfig::new_2d(1, 128),
            },
            predicted: pred,
            measured: meas,
            gflops: meas.map(|m| 1.0 / m),
        }
    }

    #[test]
    fn rmse_zero_for_perfect_predictions() {
        assert_eq!(relative_rmse(&[(1.0, 1.0), (2.0, 2.0)]), Some(0.0));
    }

    #[test]
    fn rmse_matches_hand_computation() {
        // Errors −50 % and +100 % → sqrt((0.25 + 1.0)/2).
        let r = relative_rmse(&[(0.5, 1.0), (2.0, 1.0)]).unwrap();
        assert!((r - (1.25f64 / 2.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rmse_empty_is_none() {
        assert_eq!(relative_rmse(&[]), None);
    }

    #[test]
    fn rmse_skips_zero_and_nonfinite_measurements() {
        // A zero or NaN measurement must not poison the estimate…
        let clean = relative_rmse(&[(0.5, 1.0), (2.0, 1.0)]).unwrap();
        let dirty = relative_rmse(&[
            (0.5, 1.0),
            (1.0, 0.0),
            (1.0, f64::NAN),
            (1.0, f64::INFINITY),
            (1.0, f64::MIN_POSITIVE / 2.0), // denormal
            (2.0, 1.0),
        ])
        .unwrap();
        assert_eq!(clean, dirty);
        assert!(dirty.is_finite());
        // …and a set of only-bad measurements has no error at all.
        assert_eq!(relative_rmse(&[(1.0, 0.0), (1.0, f64::NAN)]), None);
    }

    #[test]
    fn rmse_skip_counter_is_emitted() {
        let _g = obs_test_lock();
        let rec = std::sync::Arc::new(obs::ShardedRecorder::new(obs::Level::Quiet));
        obs::install(rec.clone());
        relative_rmse(&[(1.0, 1.0), (1.0, 0.0), (1.0, f64::NAN)]);
        obs::uninstall();
        assert_eq!(rec.snapshot().counter("rmse.pairs_skipped"), 2);
    }

    fn obs_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn top_performing_filters_by_measured_time() {
        let evals = vec![
            ev(1.0, Some(1.0)),
            ev(1.0, Some(1.15)),
            ev(1.0, Some(1.5)),
            ev(1.0, None),
        ];
        let top = top_performing(&evals, 0.20);
        assert_eq!(top.len(), 2);
        assert!(top.iter().all(|e| e.measured.unwrap() <= 1.25));
    }

    #[test]
    fn top_performing_band_boundary_is_best_over_one_minus_fraction() {
        // 20 % worse in GFLOPS ⇔ 1/0.8 = 1.25× slower: the point at
        // exactly best/0.8 is in the band, a point just above is out.
        let best = 2.0;
        let evals = vec![
            ev(1.0, Some(best)),
            ev(1.0, Some(best / 0.8)),        // exactly on the boundary
            ev(1.0, Some(best / 0.8 + 1e-9)), // just outside
            ev(1.0, Some(best * 1.2)),        // inside (old band's edge)
        ];
        let top = top_performing(&evals, 0.20);
        assert_eq!(top.len(), 3);
        assert!(top.iter().all(|e| e.measured.unwrap() <= best / 0.8));
        // The band matches the GFLOPS-domain criterion used for pooling.
        for e in &evals {
            let in_time_band = top.contains(e);
            let in_gflops_band = e
                .gflops
                .is_some_and(|g| g >= 0.8 * evals[0].gflops.unwrap());
            assert_eq!(in_time_band, in_gflops_band, "{:?}", e.measured);
        }
    }

    #[test]
    fn pairs_skip_failures() {
        let evals = vec![ev(1.0, Some(2.0)), ev(3.0, None)];
        assert_eq!(pairs(&evals), vec![(1.0, 2.0)]);
    }
}
