//! Figure 4 — packets per resolution across the transport matrix.
//!
//! Sweeps the same seeded workload as the Figure 3 harness through every
//! matrix cell and emits the per-resolution packet means (and
//! bytes-per-packet, the datagram-efficiency view) with per-cell
//! p5/p95/CI bands, as one line of JSON.

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
    let doc = Report::new("fig4_packets_per_resolution")
        .meta("resolutions", Value::U64(u64::from(RESOLUTIONS)))
        .meta("seeds", Value::U64(args.seeds))
        .columns(&["packets_per_resolution", "bytes_per_packet"])
        .stats(&["packets_per_resolution"])
        .render(&sweep);
    args.emit(&doc);
}
