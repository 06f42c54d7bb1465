//! Workload-stats table — Zipf/fleet summary statistics.
//!
//! Generates seeded fleet schedules at several (clients, universe)
//! shapes and emits their summary stats — total and distinct names, the
//! name-reuse ratio that upper-bounds any cache hit rate, the schedule
//! span — as validated jsontext on the shared `Report` builder.

use dohmark_bench::{Report, SweepArgs, SweepSpec, Value, WorkloadStatsCell};

const DEFAULT_SEEDS: u64 = 10;
const QUERIES_PER_CLIENT: usize = 4;

fn main() {
    let args = SweepArgs::from_env(DEFAULT_SEEDS);
    let shapes: &[(usize, usize)] = &[(16, 1_000), (64, 1_000), (64, 50), (256, 10_000)];
    let sweep = args.run(SweepSpec::new().cells(shapes.iter().map(|&(clients, universe)| {
        Box::new(WorkloadStatsCell { clients, queries_per_client: QUERIES_PER_CLIENT, universe })
            as _
    })));
    let doc = Report::new("table_workload_stats")
        .meta("queries_per_client", Value::U64(QUERIES_PER_CLIENT as u64))
        .meta("seeds", Value::U64(args.seeds))
        .columns(&["queries", "distinct_names", "reuse_ratio", "span_ms"])
        .stats(&["reuse_ratio"])
        .render(&sweep);
    args.emit(&doc);
}
