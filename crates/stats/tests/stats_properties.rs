//! Property-based invariants of the statistics primitives.

use proptest::prelude::*;
use tputpred_stats::{median, pearson, quantile, spearman, Cdf, Summary};

fn sample() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e9..1e9f64, 1..200)
}

proptest! {
    #[test]
    fn cdf_is_monotone_and_normalized(xs in sample()) {
        let cdf = Cdf::from_samples(xs.iter().copied());
        let grid = cdf.grid(20);
        for w in grid.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
        prop_assert_eq!(grid.last().unwrap().1, 1.0);
        // lint:allow(float-eq): fraction_below returns exact 0/1 at the boundaries
        prop_assert!(cdf.fraction_below(cdf.min() - 1.0) == 0.0);
        // lint:allow(float-eq): fraction_below returns exact 0/1 at the boundaries
        prop_assert!(cdf.fraction_below(cdf.max()) == 1.0);
    }

    #[test]
    fn quantiles_are_ordered_and_within_range(xs in sample(), a in 0.0..1.0f64, b in 0.0..1.0f64) {
        let (lo_q, hi_q) = if a <= b { (a, b) } else { (b, a) };
        let lo = quantile(&xs, lo_q).unwrap();
        let hi = quantile(&xs, hi_q).unwrap();
        prop_assert!(lo <= hi, "q{lo_q} = {lo} > q{hi_q} = {hi}");
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lo >= min && hi <= max);
    }

    #[test]
    fn median_is_a_location_estimate(xs in sample()) {
        let m = median(&xs).unwrap();
        let below = xs.iter().filter(|&&x| x <= m).count();
        let above = xs.iter().filter(|&&x| x >= m).count();
        // At least half the sample on each side (with interpolation slack).
        prop_assert!(below * 2 + 1 >= xs.len());
        prop_assert!(above * 2 + 1 >= xs.len());
    }

    #[test]
    fn summary_merge_is_order_independent(xs in sample(), split in 0usize..200) {
        let cut = split.min(xs.len());
        let mut ab = Summary::from_samples(xs[..cut].iter().copied());
        ab.merge(&Summary::from_samples(xs[cut..].iter().copied()));
        let mut ba = Summary::from_samples(xs[cut..].iter().copied());
        ba.merge(&Summary::from_samples(xs[..cut].iter().copied()));
        prop_assert_eq!(ab.count(), ba.count());
        let scale = 1.0 + ab.mean().abs();
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-6 * scale);
        let vscale = 1.0 + ab.population_variance().abs();
        prop_assert!((ab.population_variance() - ba.population_variance()).abs() < 1e-4 * vscale);
    }

    #[test]
    fn correlation_is_symmetric_and_bounded(
        pairs in prop::collection::vec((-1e6..1e6f64, -1e6..1e6f64), 3..100)
    ) {
        let xs: Vec<f64> = pairs.iter().map(|&(x, _)| x).collect();
        let ys: Vec<f64> = pairs.iter().map(|&(_, y)| y).collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
            let r2 = pearson(&ys, &xs).unwrap();
            prop_assert!((r - r2).abs() < 1e-12);
        }
        if let Some(s) = spearman(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s), "rho = {s}");
        }
    }

    #[test]
    fn correlation_of_identical_samples_is_one(xs in prop::collection::vec(-1e6..1e6f64, 3..50)) {
        // Skip degenerate constant samples (undefined correlation).
        if let Some(r) = pearson(&xs, &xs) {
            prop_assert!((r - 1.0).abs() < 1e-9, "self-correlation {r}");
        }
    }
}
