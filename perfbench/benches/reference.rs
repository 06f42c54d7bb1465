//! A fixed reference kernel that gauges how fast the machine is *right
//! now*, so end-to-end times can be reported at a nominal machine speed.
//!
//! Why: on the shared 2-core sandbox the same child takes 1.42 s in a
//! quiet minute and 2.2–3.5 s in a busy one (other tenants; CPU time
//! inflates with wall time, nothing is reported as steal). No statistic
//! over one 20 s run survives a slow phase that outlasts the run. The
//! kernel slows down with the children (log-log slope 1.0–1.1,
//! correlation 0.7–0.8 per repetition over 250 interleaved pairs), so
//! timing it right before and after every child and scaling the child's
//! time by `NOMINAL_NS / measured` removes the phase; the lower quartile
//! over the repetitions then removes the sub-second bursts that hit a
//! child but not its neighbouring readings. Raw times are printed too.
//!
//! The kernel is the benchmark's own code and touches nothing of the
//! program under test: allocation-heavy, branchy, pointer-chasing work
//! (an ordered map of small buffers, a binary heap of timers, formatted
//! names), the profile of the simulator.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds one unit takes on the quiet sandbox: the speed at which
/// times are reported. Only ratios between runs on one machine mean
/// anything, so the constant never needs retuning.
pub const NOMINAL_NS: f64 = 385_000.0;

/// Units per reading: about 150 ms.
const UNITS: u64 = 400;

const KERNEL_SEED: u64 = 42;

fn unit(state: &mut u64) -> u64 {
    let mut next = || {
        // SplitMix64.
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    let mut acc = 0u64;
    for i in 0..2000u64 {
        let key = next() % 512;
        let len = (next() % 96) as usize + 8;
        let mut bytes = vec![0u8; len];
        for (j, b) in bytes.iter_mut().enumerate() {
            *b = (key as u8).wrapping_add(j as u8);
        }
        heap.push(Reverse((next() % 1000, i)));
        if let Some(old) = map.insert(key, bytes) {
            acc += old.len() as u64;
        }
        if i % 3 == 0 {
            if let Some(Reverse((at, _))) = heap.pop() {
                acc += at;
            }
        }
        if i % 16 == 0 {
            acc += format!("w{key:07}.dohmark.test").len() as u64;
        }
    }
    acc + map.len() as u64
}

/// One reading: nanoseconds per kernel unit, now.
fn reading() -> f64 {
    let mut state = KERNEL_SEED;
    let started = Instant::now();
    for _ in 0..UNITS {
        black_box(unit(&mut state));
    }
    started.elapsed().as_nanos() as f64 / UNITS as f64
}

/// Brackets timed intervals with kernel readings; consecutive intervals
/// share the reading between them.
pub struct SpeedGauge {
    before: f64,
}

impl SpeedGauge {
    pub fn start() -> SpeedGauge {
        SpeedGauge { before: reading() }
    }

    /// Takes the closing reading of the interval that began at the
    /// previous call (or at `start`) and returns the machine's speed over
    /// it relative to nominal: 1.0 on the quiet sandbox, less when slow.
    pub fn speed(&mut self) -> f64 {
        let after = reading();
        let speed = NOMINAL_NS / ((self.before + after) / 2.0);
        self.before = after;
        speed
    }
}
