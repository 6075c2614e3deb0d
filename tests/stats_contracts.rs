//! Cross-crate statistical contracts: the numerical toolkit agrees with
//! itself and with the simulators that consume it.

use concordia::ran::Nanos;
use concordia::stats::hist::Log2Histogram;
use concordia::stats::rng::Rng;
use concordia::stats::summary::{normal_quantile, Ecdf};
use concordia::stats::{ks_two_sample, GumbelFit};
use concordia::traffic::burst::BurstModel;

#[test]
fn normal_quantile_agrees_with_sampled_normals() {
    // The z-values used by the regression predictors must match the
    // empirical quantiles of the RNG's own normal sampler.
    let mut rng = Rng::new(1);
    let xs: Vec<f64> = (0..400_000).map(|_| rng.normal()).collect();
    let ecdf = Ecdf::new(&xs);
    for p in [0.9, 0.99, 0.999] {
        let analytic = normal_quantile(p);
        let empirical = ecdf.quantile(p).unwrap();
        assert!(
            (analytic - empirical).abs() < 0.05,
            "p={p}: analytic {analytic} vs empirical {empirical}"
        );
    }
}

#[test]
fn gumbel_fit_bounds_traffic_burst_maxima() {
    // EVT on the traffic generator's own output: a 5-nines Gumbel bound on
    // block maxima must cover essentially all per-TTI sizes.
    let mut trio = BurstModel::lte_trio(7);
    let sizes: Vec<f64> = (0..200_000)
        .map(|_| trio.iter_mut().map(|m| m.next_tti()).sum::<f64>())
        .collect();
    let fit = GumbelFit::from_block_maxima(&sizes, 100).expect("fit");
    let bound = fit.quantile(0.99999);
    let exceed = sizes.iter().filter(|&&x| x > bound).count();
    assert!(
        exceed <= 2,
        "bound {bound} exceeded {exceed} times out of {}",
        sizes.len()
    );
}

#[test]
fn ks_separates_traffic_loads_but_not_seeds() {
    // Two seeds of the same traffic process: same distribution (KS must not
    // reject). A cell with a different duty cycle: rejected.
    let collect = |seed: u64, busy: bool, n: usize| -> Vec<f64> {
        let params = if busy {
            concordia::traffic::BurstParams::lte_busy()
        } else {
            concordia::traffic::BurstParams::lte_quiet()
        };
        let mut m = BurstModel::new(params, Rng::new(seed));
        (0..n).map(|_| m.next_tti()).collect()
    };
    let a = collect(1, false, 30_000);
    let b = collect(2, false, 30_000);
    let c = collect(3, true, 30_000);
    assert!(
        ks_two_sample(&a, &b).p_value > 0.001,
        "same process, different seeds must look alike"
    );
    assert!(
        ks_two_sample(&a, &c).p_value < 1e-6,
        "different duty cycles must be distinguishable"
    );
}

#[test]
fn log2_histogram_matches_oslat_tail_accounting() {
    // The Fig. 10 readout (count of wakes >= 64 us) computed through the
    // histogram must equal a direct count.
    let mut rng = Rng::new(9);
    let mut hist = Log2Histogram::new();
    let mut direct = 0u64;
    for _ in 0..200_000 {
        let us = concordia::platform::oslat::sample_wake(1.5, &mut rng).as_micros_f64();
        hist.record(us as u64);
        // The histogram buckets by the integer microsecond value; >= 64
        // in bucket space means the truncated value's bucket lower bound
        // is >= 64.
        if Log2Histogram::bucket_range(Log2Histogram::bucket_of(us as u64)).0 >= 64 {
            direct += 1;
        }
    }
    assert_eq!(hist.count_at_or_above(64), direct);
    assert_eq!(hist.total(), 200_000);
}

#[test]
fn nanos_display_round_trips_magnitudes() {
    for (n, needle) in [
        (Nanos(999), "ns"),
        (Nanos::from_micros(20), "us"),
        (Nanos::from_millis(3), "ms"),
        (Nanos::from_secs(2), "s"),
    ] {
        let s = format!("{n}");
        assert!(s.contains(needle), "{s} should carry unit {needle}");
    }
}

#[test]
fn mix_schedule_pressures_are_bounded_by_component_sums() {
    let mut rng = Rng::new(11);
    let mix = concordia::platform::MixSchedule::generate(Nanos::from_secs(120), &mut rng);
    let (max_cache, max_kernel) = concordia::platform::WorkloadKind::ALL
        .iter()
        .map(|k| {
            let p = k.profile();
            (p.cache_intensity, p.kernel_intensity)
        })
        .fold((0.0, 0.0), |(a, b), (c, k)| (a + c, b + k));
    for s in 0..120 {
        let (c, k) = mix.pressure_at(Nanos::from_secs(s));
        assert!(c >= 0.0 && c <= max_cache + 1e-9);
        assert!(k >= 0.0 && k <= max_kernel + 1e-9);
    }
}
