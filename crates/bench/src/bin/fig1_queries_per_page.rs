//! Figure 1 — DNS queries per page over the Alexa-like site model.
//!
//! Samples pages from the Zipf-ranked [`SiteModel`] at several universe
//! sizes and emits the queries-per-page distribution (mean/median/p95,
//! plus the raw per-page counts for CDF plotting) as one line of JSON —
//! the workload side of the paper's Figure 1, no simulator involved.
//!
//! [`SiteModel`]: dohmark::workload::SiteModel

use dohmark_bench::{Report, SitePagesCell, SweepArgs, SweepSpec, Value};

const DEFAULT_SEEDS: u64 = 10;
const PAGES: usize = 200;

fn main() {
    let args = SweepArgs::from_env(DEFAULT_SEEDS);
    let sweep = args.run(
        SweepSpec::new().cells(
            [100usize, 1_000, 10_000]
                .into_iter()
                .map(|sites| Box::new(SitePagesCell { sites, pages: PAGES }) as _),
        ),
    );
    let doc = Report::new("fig1_queries_per_page")
        .meta("pages", Value::U64(PAGES as u64))
        .meta("seeds", Value::U64(args.seeds))
        .columns(&[
            "mean_queries_per_page",
            "median_queries_per_page",
            "p95_queries_per_page",
            "max_queries_per_page",
            "mean_resources_per_page",
            "mean_depth",
            "queries_per_page",
        ])
        .stats(&["mean_queries_per_page"])
        .render(&sweep);
    args.emit(&doc);
}
