//! The sweep runner's core promise: the rendered report is a pure
//! function of the spec — worker count and scheduling interleaving must
//! never leak into the output. The same `SweepSpec` at `threads = 1`,
//! `2` and `8` must render byte-identical JSON.

use dohmark::doh::{ReusePolicy, TransportConfig, TransportKind};
use dohmark_bench::{FleetCell, MatrixCell, Report, SweepSpec, Value};

/// A mixed matrix + fleet sweep, small enough to run three times in the
/// test suite but with more tasks than workers so stealing actually
/// interleaves cells.
fn render(threads: usize) -> String {
    let fleet =
        FleetCell::new(TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh), 40, 16);
    let sweep = SweepSpec::new()
        .cells(
            TransportConfig::matrix()
                .into_iter()
                .take(4)
                .map(|cfg| Box::new(MatrixCell { cfg, resolutions: 6 }) as _),
        )
        .cell(fleet)
        .seeds(1..=5)
        .threads(threads)
        .run()
        .expect("every clean-link cell resolves");
    Report::new("determinism_probe")
        .meta("seeds", Value::U64(5))
        .stats(&["bytes_per_resolution"])
        .render(&sweep)
}

#[test]
fn sweep_reports_are_byte_identical_across_thread_counts() {
    let serial = render(1);
    assert!(
        serial.contains("\"p5\"") && serial.contains("\"ci95_hi\""),
        "stats bands must be present in the probe report"
    );
    for threads in [2, 8] {
        let parallel = render(threads);
        assert_eq!(serial, parallel, "threads={threads} must render byte-identically to threads=1");
    }
}
