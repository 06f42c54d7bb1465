//@ path: crates/bench/src/stats.rs
//! Float accumulation in the stats layer: `mean` states its summation
//! order in an allow and passes, `total` does not — its `+=` loop and
//! `.fold()` both flag.

pub fn mean(xs: &[f64]) -> f64 {
    // simlint::allow(no-float-accumulation): sums the slice left to right
    xs.iter().sum::<f64>() / xs.len() as f64
}

pub fn total(xs: &[f64]) -> f64 {
    let mut t = 0.0;
    for x in xs {
        t += x;
    }
    xs.iter().fold(t, |acc, x| acc + x)
}
