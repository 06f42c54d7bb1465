//! Experiment harnesses reproducing the paper's figures and tables.
//!
//! The crate is organised around the sweep API every figure binary sits
//! on. Its modules are private except [`stats`]; the root re-exports
//! below are the one path to each item.
//!
//! * `sweep` — the parallel sweep runner. A [`Cell`] is
//!   one experiment configuration runnable under any seed;
//!   [`SweepSpec`] fans a (cell × seed) grid out over
//!   `std::thread` scoped workers pulling from a shared cursor; the
//!   resulting [`SweepReport`] keeps canonical
//!   (cell, seed) order, so `threads = 1` and `threads = N` render
//!   byte-identical reports — and a failed run surfaces as the first
//!   [`SweepError`] in that same order.
//! * `testbed` — the three simulated cells feeding the sweeps
//!   ([`MatrixCell`], [`FleetCell`], [`PageloadCell`]) and the one testbed
//!   they all run on.
//! * [`stats`] — per-cell aggregation over seeds: mean, median,
//!   p5/p95/p99 percentiles and deterministic bootstrap 95% CI bands.
//! * `report` — the one shared jsontext emitter (the workspace has no
//!   serde): harnesses pick an experiment name, metadata, measurement
//!   columns and stats metrics; rows and bands render as a single line
//!   of JSON parseable by `dns-wire::jsontext`.
//! * `cli` — the `--seeds N --threads N --out PATH` flags every fig
//!   binary accepts, and the one exit path of a failed sweep.
//!
//! Wall-clock measurement lives outside the workspace, in `perfbench/`
//! (the repo benchmark).
//!
//! # Surface
//!
//! What the fig binaries, the bench tests and `perfbench` name. A binary
//! reads its [`SweepArgs`] with `from_env`, runs a [`SweepSpec`] of
//! [`Cell`]s and renders the [`SweepReport`] as a [`Report`] of
//! [`Value`]s. The simulated cells are [`MatrixCell`], [`FleetCell`] and
//! [`PageloadCell`], each with a `measure` that returns its
//! [`MatrixRun`], [`FleetRun`] or [`PageloadRun`]; [`SitePagesCell`] and
//! [`WorkloadStatsCell`] run no simulator, and [`fleet_transports`] lists
//! the transports of the fleet and page-load sweeps. A failed run is a
//! [`CellError`] inside a [`SweepError`]; a [`CellId`] names a cell and a
//! [`CellOutcome`] holds its row, both opaque outside this crate.
//! [`stats::summarize`] computes the report bands.

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::unwrap_used)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod cli;
mod report;
pub mod stats;
mod sweep;
mod testbed;

pub use cli::SweepArgs;
pub use report::{Report, Value};
pub use sweep::{
    Cell, CellError, CellId, CellOutcome, SitePagesCell, SweepError, SweepReport, SweepSpec,
    WorkloadStatsCell,
};
pub use testbed::{FleetCell, FleetRun, MatrixCell, MatrixRun, PageloadCell, PageloadRun};

use dohmark::doh::{ReusePolicy, TransportConfig, TransportKind};

/// The four transport cells the fleet and page-load experiments sweep:
/// Do53 plus the three encrypted transports on persistent connections (the
/// deployment shape a stub keeps to its recursive resolver). Do53 resends
/// an unanswered query on TCP's RTO schedule, so on a lossy link the
/// page-load contrast is "UDP has no head-of-line blocking", not "a lost
/// datagram loses the page".
pub fn fleet_transports() -> Vec<TransportConfig> {
    vec![
        TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh),
        TransportConfig::new(TransportKind::Dot, ReusePolicy::Persistent),
        TransportConfig::new(TransportKind::DohH1, ReusePolicy::Persistent),
        TransportConfig::new(TransportKind::DohH2, ReusePolicy::Persistent),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dohmark::dns::jsontext;
    use dohmark::netsim::LinkConfig;

    #[test]
    fn matrix_sweep_report_is_valid_jsontext_with_the_fig3_shape() {
        let sweep = SweepSpec::new()
            .cell(MatrixCell {
                cfg: TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh),
                resolutions: 3,
            })
            .cell(MatrixCell {
                cfg: TransportConfig::new(TransportKind::DohH2, ReusePolicy::Persistent),
                resolutions: 3,
            })
            .seeds(1..=2)
            .run()
            .unwrap();
        let doc = Report::new("fig3_bytes_per_resolution")
            .meta("resolutions", Value::U64(3))
            .columns(&[
                "bytes_per_resolution",
                "packets_per_resolution",
                "steady_bytes_per_resolution",
                "layers",
                "header_bytes_per_query",
            ])
            .stats(&["bytes_per_resolution"])
            .render(&sweep);
        assert!(!doc.contains('\n'), "one line of JSON");
        let parsed = jsontext::parse(&doc).expect("report output must parse");
        assert_eq!(
            parsed.get("experiment").and_then(|v| v.as_str()),
            Some("fig3_bytes_per_resolution")
        );
        assert_eq!(parsed.get("resolutions").and_then(|v| v.as_u64()), Some(3));
        let rows = parsed.get("rows").and_then(|v| v.as_array()).expect("rows array");
        assert_eq!(rows.len(), 4);
        let row = &rows[3];
        assert_eq!(row.get("cell").and_then(|v| v.as_str()), Some("doh-h2 persistent"));
        assert_eq!(row.get("transport").and_then(|v| v.as_str()), Some("doh-h2"));
        assert_eq!(row.get("reuse").and_then(|v| v.as_str()), Some("persistent"));
        assert_eq!(row.get("seed").and_then(|v| v.as_u64()), Some(2));
        let layers = row.get("layers").expect("layers object");
        for key in ["body", "hdr", "mgmt", "tls", "tcp", "dns"] {
            assert!(layers.get(key).is_some(), "missing layer {key}");
        }
        assert!(
            row.get("steady_bytes_per_resolution").is_some(),
            "missing steady_bytes_per_resolution"
        );
        let headers = row
            .get("header_bytes_per_query")
            .and_then(|v| v.as_array())
            .expect("header_bytes_per_query array");
        assert_eq!(headers.len(), 3, "one header-bytes entry per query");
        assert!(headers[0].as_u64().unwrap() > 0, "doh-h2 queries carry header bytes");

        // The stats layer emits one band per (cell, metric), p5/p95
        // included — the publication-grade view of the same sweep.
        let bands = parsed.get("stats").and_then(|v| v.as_array()).expect("stats array");
        assert_eq!(bands.len(), 2, "one summary per cell");
        for band in bands {
            assert_eq!(band.get("metric").and_then(|v| v.as_str()), Some("bytes_per_resolution"));
            assert_eq!(band.get("n").and_then(|v| v.as_u64()), Some(2));
            for key in ["mean", "median", "p5", "p95", "p99", "ci95_lo", "ci95_hi"] {
                assert!(band.get(key).is_some(), "missing stat {key}");
            }
        }
    }

    #[test]
    fn column_selection_narrows_rows_like_fig4_and_fig5() {
        let sweep = SweepSpec::new()
            .cell(MatrixCell {
                cfg: TransportConfig::new(TransportKind::Dot, ReusePolicy::Fresh),
                resolutions: 3,
            })
            .seeds([3])
            .run()
            .unwrap();

        let fig4 = Report::new("fig4_packets_per_resolution")
            .columns(&["packets_per_resolution", "bytes_per_packet"])
            .render(&sweep);
        let parsed = jsontext::parse(&fig4).expect("fig4 output must parse");
        let rows = parsed.get("rows").and_then(|v| v.as_array()).expect("rows array");
        assert_eq!(rows.len(), 1);
        assert!(rows[0].get("packets_per_resolution").is_some());
        assert!(rows[0].get("bytes_per_packet").is_some());
        assert!(rows[0].get("layers").is_none(), "unselected columns must not leak");

        let fig5 = Report::new("fig5_layer_breakdown")
            .columns(&["bytes_per_resolution", "layers"])
            .render(&sweep);
        let parsed = jsontext::parse(&fig5).expect("fig5 output must parse");
        let rows = parsed.get("rows").and_then(|v| v.as_array()).expect("rows array");
        let layers = rows[0].get("layers").expect("layers object");
        for key in ["body", "hdr", "mgmt", "tls", "tcp", "dns"] {
            assert!(layers.get(key).is_some(), "missing layer {key}");
        }
    }

    #[test]
    fn runs_replay_bit_for_bit_per_seed() {
        let cell = MatrixCell {
            cfg: TransportConfig::new(TransportKind::Dot, ReusePolicy::Persistent),
            resolutions: 4,
        };
        assert_eq!(cell.measure(9), cell.measure(9));
        assert_ne!(
            cell.measure(9).unwrap().bytes_per_resolution,
            cell.measure(10).unwrap().bytes_per_resolution
        );
    }

    #[test]
    fn every_wake_of_a_cell_run_reaches_a_registered_endpoint() {
        // `Testbed::finish` turns a nonzero `Driver::unrouted_wakes()`
        // into an error once the simulation is quiescent; the page-load
        // engine's own fetch timers must not count. One run of each cell,
        // on the transports with the most moving parts.
        let h2 = TransportConfig::new(TransportKind::DohH2, ReusePolicy::Fresh);
        MatrixCell { cfg: h2, resolutions: 4 }.measure(3).unwrap();
        let do53 = TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh);
        FleetCell::new(do53.clone(), 8, 16).measure(3).unwrap();
        let lossy = PageloadCell {
            transport: TransportConfig { link: LinkConfig::lossy_wifi(), ..do53 },
            link_label: "lossy_wifi".to_string(),
            pages: 3,
        };
        assert!(lossy.measure(3).unwrap().mean_dns_queries > 0.0);
    }

    #[test]
    fn a_dead_link_is_a_typed_error_for_resolutions_and_a_measurement_for_pages() {
        let dead = LinkConfig::clean_broadband().loss(1.0);
        for kind in TransportKind::ALL {
            let transport =
                TransportConfig { link: dead, ..TransportConfig::new(kind, ReusePolicy::Fresh) };
            let matrix = MatrixCell { cfg: transport.clone(), resolutions: 3 };
            assert_eq!(matrix.measure(1), Err(CellError::DidNotResolve { txn: 1 }), "{kind:?}");
            // A lost resolution starves its subtree: counted, not raised.
            let pages = PageloadCell { transport, link_label: "dead".to_string(), pages: 2 };
            assert!(pages.measure(1).unwrap().unresolved > 0, "{kind:?}");
        }
    }

    #[test]
    fn a_fleet_on_a_lossy_link_resolves_every_query() {
        // The resolver's upstream leg shares the stubs' 5 % lossy link; a
        // lost upstream datagram is resent, not left pending for good.
        let lossy = LinkConfig::clean_broadband().loss(0.05);
        for cfg in fleet_transports() {
            let label = cfg.label();
            let fleet = FleetCell::new(TransportConfig { link: lossy, ..cfg }, 50, 40);
            for seed in 1..=10 {
                let run = fleet.measure(seed);
                assert!(run.is_ok(), "{label} seed {seed}: {run:?}");
            }
        }
    }

    #[test]
    fn a_fleet_past_the_old_global_id_space_resolves_every_query() {
        // 66,000 resolutions in one run: more than a single 16-bit id space
        // holds, and 33,000 per client — nowhere near wrapping either one's.
        let dot = TransportConfig::new(TransportKind::Dot, ReusePolicy::Persistent);
        let fleet = FleetCell { queries_per_client: 33_000, ..FleetCell::new(dot, 2, 64) };
        let run = fleet.measure(1).unwrap();
        assert_eq!(run.queries, 66_000);
        assert_eq!(run.cache_hits + run.cache_misses, 66_000);
    }

    #[test]
    fn a_failed_sweep_reports_its_first_failure_in_canonical_order_at_any_thread_count() {
        let do53 = TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh);
        let dead = TransportConfig {
            link: LinkConfig::clean_broadband().loss(1.0),
            ..TransportConfig::new(TransportKind::Dot, ReusePolicy::Fresh)
        };
        // One good cell, then two failing ones, each on a dead link.
        let run = |threads: usize| {
            SweepSpec::new()
                .cell(MatrixCell { cfg: do53.clone(), resolutions: 2 })
                .cell(MatrixCell { cfg: dead.clone(), resolutions: 2 })
                .cell(FleetCell::new(dead.clone(), 2, 4))
                .seeds(4..=6)
                .threads(threads)
                .run()
                .unwrap_err()
        };
        let err = run(1);
        assert_eq!(err.to_string(), "cell dot fresh seed 4: transaction 1 did not resolve");
        assert_eq!(err.source, CellError::DidNotResolve { txn: 1 });
        assert_eq!(run(4), err, "the error must not depend on the thread count");
    }

    #[test]
    fn fleet_sweep_report_is_valid_jsontext_with_the_cache_hit_shape() {
        let cfg = TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh);
        let sweep = SweepSpec::new()
            .cell(FleetCell::new(cfg.clone(), 10, 100))
            .cell(FleetCell::new(cfg, 10, 3))
            .seeds([1])
            .run()
            .unwrap();
        let doc = Report::new("fig_cache_hit_cost")
            .stats(&["bytes_per_resolution", "hit_ratio"])
            .render(&sweep);
        assert!(!doc.contains('\n'), "one line of JSON");
        let parsed = jsontext::parse(&doc).expect("report output must parse");
        assert_eq!(parsed.get("experiment").and_then(|v| v.as_str()), Some("fig_cache_hit_cost"));
        let rows = parsed.get("rows").and_then(|v| v.as_array()).expect("rows array");
        assert_eq!(rows.len(), 2);
        for row in rows {
            for key in [
                "cell",
                "transport",
                "universe",
                "distinct_names",
                "cache_hits",
                "cache_misses",
                "hit_ratio",
                "upstream_queries",
                "upstream_bytes",
                "bytes_per_resolution",
                "stub_bytes_per_resolution",
            ] {
                assert!(row.get(key).is_some(), "missing key {key}");
            }
        }
        assert_eq!(rows[0].get("universe").and_then(|v| v.as_u64()), Some(100));
        assert_eq!(rows[1].get("universe").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(
            parsed.get("stats").and_then(|v| v.as_array()).map(<[_]>::len),
            Some(4),
            "two cells × two metrics"
        );
    }
}
