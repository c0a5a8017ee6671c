//! Property tests for the open-loop arrival generator: determinism,
//! well-formed instants, and the diurnal envelope actually shaping load.

use hpcbd_sched::{arrivals, RateProcess};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same seed and process → byte-identical trace, every time. This is
    /// the property the pinned busy-day goldens ultimately rest on.
    #[test]
    fn trace_is_a_pure_function_of_the_seed(
        seed in any::<u64>(),
        rate in 0.1f64..50.0,
        horizon in 1.0f64..120.0,
    ) {
        let p = RateProcess::Poisson { rate_per_s: rate };
        let a = arrivals(seed, p, horizon);
        let b = arrivals(seed, p, horizon);
        prop_assert_eq!(a, b);
    }

    /// Instants are strictly increasing (exponential gaps never round to
    /// zero) and inside the horizon.
    #[test]
    fn instants_are_increasing_and_bounded(
        seed in any::<u64>(),
        rate in 0.1f64..50.0,
        horizon in 1.0f64..60.0,
    ) {
        let p = RateProcess::Poisson { rate_per_s: rate };
        let trace = arrivals(seed, p, horizon);
        let horizon_ns = (horizon * 1e9) as u64;
        for w in trace.windows(2) {
            prop_assert!(w[0] < w[1], "non-increasing instants {} -> {}", w[0], w[1]);
        }
        if let Some(last) = trace.last() {
            prop_assert!(*last < horizon_ns);
        }
    }

    /// Poisson: the realized count is within a loose tolerance of
    /// rate x horizon (4 sigma plus slack — deterministic per seed, so a
    /// failure here is a generator bug, not flake).
    #[test]
    fn poisson_count_tracks_the_rate(
        seed in any::<u64>(),
        rate in 2.0f64..30.0,
        horizon in 20.0f64..60.0,
    ) {
        let p = RateProcess::Poisson { rate_per_s: rate };
        let n = arrivals(seed, p, horizon).len() as f64;
        let mean = rate * horizon;
        let tol = 4.0 * mean.sqrt() + 2.0;
        prop_assert!((n - mean).abs() < tol, "n={n} mean={mean} tol={tol}");
    }

    /// Diurnal: the half-period centered on the peak sees materially more
    /// arrivals than the half centered on the trough.
    #[test]
    fn diurnal_envelope_shapes_the_load(
        seed in any::<u64>(),
        base in 0.5f64..2.0,
        boost in 4.0f64..12.0,
    ) {
        let period = 40.0;
        let p = RateProcess::Diurnal {
            base_per_s: base,
            peak_per_s: base * boost,
            period_s: period,
        };
        // Two full periods so both halves get equal exposure.
        let trace = arrivals(seed, p, 2.0 * period);
        // rate(t) = base + (peak-base)(1-cos(2 pi t/period))/2: trough at
        // t = 0 mod period, peak at t = period/2 mod period.
        let (mut near_peak, mut near_trough) = (0u64, 0u64);
        for at in &trace {
            let phase = (*at as f64 / 1e9) % period / period; // [0,1)
            if (0.25..0.75).contains(&phase) {
                near_peak += 1;
            } else {
                near_trough += 1;
            }
        }
        prop_assert!(
            near_peak as f64 > 1.5 * near_trough as f64,
            "peak={near_peak} trough={near_trough} (boost {boost})"
        );
    }

    /// Traces from different seeds differ (no accidental seed collapse).
    #[test]
    fn different_seeds_differ(seed in any::<u64>()) {
        let p = RateProcess::Poisson { rate_per_s: 10.0 };
        let a = arrivals(seed, p, 30.0);
        let b = arrivals(seed.wrapping_add(1), p, 30.0);
        prop_assert_ne!(a, b);
    }
}
