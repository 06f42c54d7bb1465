//! Figure 6 — page-load time across the four transports.
//!
//! Loads the same Zipf-ranked page workload through Do53, DoT, DoH-h1 and
//! DoH-h2 over the clean-broadband link and emits per-page makespans (the
//! CDF the paper plots) plus per-cell means with p5/p95/CI bands, as one
//! line of JSON. At zero loss the four curves sit within a narrow band —
//! the paper's headline "DoH barely moves page-load time" result, because
//! DNS wait is a small slice of the dependency-tree makespan.

use dohmark_bench::{pageload_transports, PageloadCell, Report, SweepArgs, SweepSpec, Value};

const DEFAULT_SEEDS: u64 = 10;
const PAGES: usize = 20;

fn main() {
    let args = SweepArgs::from_env(DEFAULT_SEEDS);
    let mut spec = SweepSpec::new();
    for transport in pageload_transports() {
        let link_label = "clean_broadband".to_string();
        spec = spec.cell(PageloadCell { transport, link_label, pages: PAGES });
    }
    let sweep = args.run(spec);
    let doc = Report::new("fig6_pageload")
        .meta("pages", Value::U64(PAGES as u64))
        .meta("seeds", Value::U64(args.seeds))
        .columns(&[
            "mean_page_load_ms",
            "median_page_load_ms",
            "p95_page_load_ms",
            "mean_dns_queries",
            "mean_dns_wait_ms",
            "unresolved",
            "page_load_ms",
        ])
        .stats(&["mean_page_load_ms"])
        .render(&sweep);
    args.emit(&doc);
}
