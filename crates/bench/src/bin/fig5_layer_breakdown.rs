//! Figure 5 — per-layer byte breakdown across the transport matrix.
//!
//! Sweeps the same seeded workload as the Figure 3 harness through every
//! matrix cell and emits one line of JSON splitting each cell's mean
//! bytes per resolution into the six layer tags (DNS payload, TCP, TLS,
//! HTTP header/body/management), with per-cell p5/p95/CI bands.

use dohmark::doh::TransportConfig;
use dohmark_bench::{MatrixCell, Report, SweepArgs, SweepSpec, Value};

const DEFAULT_SEEDS: u64 = 10;
const RESOLUTIONS: u16 = 20;

fn main() {
    let args = SweepArgs::from_env(DEFAULT_SEEDS);
    let sweep = args.run(
        SweepSpec::new().cells(
            TransportConfig::matrix()
                .into_iter()
                .map(|cfg| Box::new(MatrixCell { cfg, resolutions: RESOLUTIONS }) as _),
        ),
    );
    let doc = Report::new("fig5_layer_breakdown")
        .meta("resolutions", Value::U64(u64::from(RESOLUTIONS)))
        .meta("seeds", Value::U64(args.seeds))
        .columns(&["bytes_per_resolution", "layers"])
        .stats(&["bytes_per_resolution"])
        .render(&sweep);
    args.emit(&doc);
}
