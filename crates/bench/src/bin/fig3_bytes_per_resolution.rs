//! Figure 3: bytes per resolution, per transport, over many seeds.
//!
//! Sweeps the same Poisson workload through every cell of the transport
//! matrix (Do53 / DoT / DoH-h1 / DoH-h2 × fresh / resumed / persistent)
//! and emits rows plus per-cell p5/p95/CI bands as one line of JSON —
//! parseable with `dohmark::dns::jsontext`:
//!
//! ```console
//! $ cargo run --release --bin fig3_bytes_per_resolution -- --seeds 40 --threads 4 | head -c 120
//! {"experiment": "fig3_bytes_per_resolution", "resolutions": 20, "seeds": 40, "rows": [{"cell": "do53", …
//! ```
//!
//! The report is byte-identical for any `--threads` value.

use dohmark::doh::TransportConfig;
use dohmark_bench::{MatrixCell, Report, SweepArgs, SweepSpec, Value};

/// Default seeds per cell; ≥ 10 so the emitted rows form a distribution.
const DEFAULT_SEEDS: u64 = 10;
/// Queries resolved per run.
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
    let doc = Report::new("fig3_bytes_per_resolution")
        .meta("resolutions", Value::U64(u64::from(RESOLUTIONS)))
        .meta("seeds", Value::U64(args.seeds))
        .columns(&[
            "bytes_per_resolution",
            "packets_per_resolution",
            "steady_bytes_per_resolution",
            "layers",
            "header_bytes_per_query",
        ])
        .stats(&["bytes_per_resolution", "steady_bytes_per_resolution"])
        .render(&sweep);
    args.emit(&doc);
}
