//! Deterministic pseudo-random numbers for reproducible simulations.
//!
//! The simulator must be bit-for-bit reproducible across runs and platforms,
//! so it carries its own small PRNG (xoshiro256++) instead of depending on
//! environment-seeded generators. Splitting produces independent streams so
//! that, e.g., link jitter and workload arrivals never perturb one another.

use crate::time::SimDuration;

/// A deterministic xoshiro256++ PRNG.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a seed, expanding it with SplitMix64.
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        SimRng { s }
    }

    /// Derives an independent child generator; deterministic in `label`.
    ///
    /// Conventions (reviewed, not machine-checked):
    /// - Outside tests, `label` is a named `*_STREAM` constant (or a
    ///   runtime value such as a client index or a site rank), never a bare
    ///   literal, so a stream can be found by name.
    /// - `split` advances `self` by one draw, so the order of `split` calls
    ///   on one parent is part of every child's stream: reordering two
    ///   splits, or inserting one, changes the streams after it even under
    ///   the same labels.
    /// - A new top-level label goes beside the existing eight
    ///   (`QuerySchedule`, `FleetSchedule` and `SiteModel`'s
    ///   `*_STREAM` 1–6 in `workload`, `WORKLOAD_STREAM` / `SITE_STREAM` 7–8
    ///   in `bench::testbed`) and takes the next free value.
    pub fn split(&mut self, label: u64) -> SimRng {
        let mix = self.next_u64() ^ label.wrapping_mul(0x9E3779B97F4A7C15);
        SimRng::new(mix)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift rejection-free mapping (slight bias is irrelevant
        // for simulation workloads and keeps the generator branch-free).
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]`.
    pub(crate) fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial with success probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }

    /// Exponentially distributed value with the given mean.
    pub fn exp_f64(&mut self, mean: f64) -> f64 {
        // Inverse CDF; guard the log argument away from zero.
        let u = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Exponentially distributed duration with the given mean — the
    /// inter-arrival law of the paper's Poisson query process (§3).
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.exp_f64(mean.as_secs_f64()))
    }

    /// Standard normal via Box–Muller.
    pub(crate) fn normal(&mut self) -> f64 {
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal with the given parameters of the underlying normal.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Random lowercase alphanumeric string of length `len` — the paper's §3
    /// query-name construction uses a constant-length random prefix so that
    /// name compressibility is uniform across queries.
    pub fn alnum_string(&mut self, len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        (0..len).map(|_| ALPHABET[self.below(ALPHABET.len() as u64) as usize] as char).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_of_parent_consumption() {
        let mut parent1 = SimRng::new(7);
        let mut child1 = parent1.split(1);
        let mut parent2 = SimRng::new(7);
        let mut child2 = parent2.split(1);
        for _ in 0..32 {
            assert_eq!(child1.next_u64(), child2.next_u64());
        }
    }

    #[test]
    fn uniform_below_stays_in_range() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
            let v = rng.range_u64(10, 12);
            assert!((10..=12).contains(&v));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(9);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn exp_has_roughly_the_requested_mean() {
        let mut rng = SimRng::new(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exp_f64(0.1)).sum::<f64>() / n as f64;
        assert!((mean - 0.1).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn normal_is_centered() {
        let mut rng = SimRng::new(13);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.normal()).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn alnum_string_shape() {
        let mut rng = SimRng::new(17);
        let s = rng.alnum_string(5);
        assert_eq!(s.len(), 5);
        assert!(s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
    }
}
