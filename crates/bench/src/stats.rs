//! Sweep statistics: percentiles and bootstrap confidence bands.
//!
//! Every figure harness reports per-cell distributions over seeds, so the
//! aggregation lives here once: [`mean`], [`median`], [`percentile`] (the
//! linear-interpolation definition below) and a seeded, deterministic
//! [`bootstrap_ci`]. [`summarize`] bundles them into the [`Summary`] the
//! report builder renders per (cell, metric).
//!
//! Everything is deterministic: the bootstrap draws from the workspace's
//! own xoshiro256++ [`SimRng`] under a fixed seed, so the same samples
//! always produce the same bands — a requirement for the byte-identical
//! `threads=1` / `threads=N` sweep guarantee.
//!
//! # Summation order
//!
//! Float addition is not associative, so every accumulation in this
//! module iterates in an order the inputs pin: [`mean`] sums the sample
//! slice left to right as the caller passed it (sweep results arrive in
//! seed order regardless of thread count, cf. `sweep::run`), and
//! [`bootstrap_ci`] sums each resample in draw order of its fixed-seed
//! RNG. Each of those two sums carries a comment stating its order, and a
//! new accumulation here or in `report` has to state its own. No lint
//! checks this: `tests/sweep_determinism.rs` (threads 1 vs N
//! byte-identical) and the report digests in `tests/report_golden.rs`
//! are what catch an order that leaks.

use dohmark::netsim::SimRng;

/// Resamples per bootstrap interval.
const BOOTSTRAP_RESAMPLES: usize = 256;
/// Fixed seed of the bootstrap RNG — the bands are part of the report,
/// so they must replay bit for bit.
const BOOTSTRAP_SEED: u64 = 0xB00757A9;

/// Arithmetic mean. Empty input panics — a metric with no samples is a
/// harness bug, not a value.
///
/// Order-audited: sums strictly left to right over the input slice, so
/// the result depends only on the slice's element order, which callers
/// pin (seed order in sweeps).
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    // Sums left to right over the slice, whose order callers pin (seed
    // order in sweeps; held by tests/sweep_determinism.rs).
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The `p`-th percentile (`0.0..=100.0`) under linear interpolation
/// between closest ranks: rank `p/100 · (n−1)` of the sorted samples,
/// interpolating between the two neighbouring order statistics when the
/// rank is fractional. `percentile(xs, 0.0)` is the minimum,
/// `percentile(xs, 100.0)` the maximum, and a single sample is every
/// percentile of itself.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

/// The 50th [`percentile`].
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// A percentile-bootstrap confidence interval for the mean: resamples the
/// input with replacement `resamples` times, takes each resample's mean,
/// and returns the `(1−level)/2` and `(1+level)/2` percentiles of those
/// means. Deterministic in the caller's `rng` state.
///
/// Order-audited: each resample sums in the draw order of `rng`, and the
/// resample means are then ranked by [`percentile`]'s total-order sort —
/// no accumulation depends on anything but the (seeded) draw sequence.
pub fn bootstrap_ci(samples: &[f64], resamples: usize, level: f64, rng: &mut SimRng) -> (f64, f64) {
    assert!(!samples.is_empty(), "bootstrap of no samples");
    assert!((0.0..1.0).contains(&level), "confidence level {level} must be in [0, 1)");
    let n = samples.len() as u64;
    let means: Vec<f64> = (0..resamples)
        .map(|_| {
            // Sums in the draw order of the seeded `rng` (held by
            // tests/sweep_determinism.rs).
            let sum: f64 = (0..n).map(|_| samples[rng.below(n) as usize]).sum();
            sum / n as f64
        })
        .collect();
    let tail = 100.0 * (1.0 - level) / 2.0;
    (percentile(&means, tail), percentile(&means, 100.0 - tail))
}

/// Per-(cell, metric) distribution summary over a sweep's seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count (one per seed).
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// 50th percentile.
    pub median: f64,
    /// 5th percentile — the lower band edge figures shade.
    pub p5: f64,
    /// 95th percentile — the upper band edge.
    pub p95: f64,
    /// 99th percentile, for tail-heavy metrics.
    pub p99: f64,
    /// 95% bootstrap CI for the mean (lo, hi), from a fixed-seed
    /// deterministic resampling pass.
    pub ci95: (f64, f64),
}

/// Summarises one metric's samples. Deterministic: the bootstrap RNG is
/// seeded from a fixed constant, so identical samples give identical
/// summaries regardless of sweep thread count.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut rng = SimRng::new(BOOTSTRAP_SEED);
    Summary {
        n: samples.len(),
        mean: mean(samples),
        median: median(samples),
        p5: percentile(samples, 5.0),
        p95: percentile(samples, 95.0),
        p99: percentile(samples, 99.0),
        ci95: bootstrap_ci(samples, BOOTSTRAP_RESAMPLES, 0.95, &mut rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_edges_and_interpolation() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        // rank 1.5 between sorted[1]=2 and sorted[2]=3.
        assert_eq!(percentile(&xs, 50.0), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
    }

    #[test]
    fn summaries_are_deterministic() {
        let xs: Vec<f64> = (0..20).map(|i| (i * i) as f64).collect();
        assert_eq!(summarize(&xs), summarize(&xs));
    }

    #[test]
    fn constant_samples_collapse_every_statistic() {
        let s = summarize(&[7.0; 12]);
        assert_eq!((s.mean, s.median, s.p5, s.p95, s.p99), (7.0, 7.0, 7.0, 7.0, 7.0));
        assert_eq!(s.ci95, (7.0, 7.0));
    }
}
