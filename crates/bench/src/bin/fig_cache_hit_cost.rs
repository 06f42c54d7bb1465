//! Cache-hit cost — bytes per resolution vs. cache-hit ratio, per
//! transport, on a 1,000-stub-client fleet sharing one caching recursive
//! resolver.
//!
//! The cache-hit ratio is swept by shrinking the Zipf name universe the
//! fleet draws from: a broad universe forces compulsory misses (and
//! upstream fetches), a narrow one lets the shared cache absorb almost
//! everything. Emits one line of JSON pairing each cell's `hit_ratio`
//! with its `bytes_per_resolution`, with per-cell bands over seeds.

use dohmark_bench::{FleetCell, Report, SweepArgs, SweepSpec, Value};

/// Fleet runs are heavy (1,000 clients each); one seed by default.
const DEFAULT_SEEDS: u64 = 1;
const CLIENTS: usize = 1000;
const UNIVERSES: [usize; 5] = [4000, 800, 160, 32, 8];

fn main() {
    let args = SweepArgs::from_env(DEFAULT_SEEDS);
    let sweep = args.run(SweepSpec::new().cells(
        dohmark_bench::fleet_transports().into_iter().flat_map(|transport| {
            UNIVERSES
                .map(|universe| Box::new(FleetCell::new(transport.clone(), CLIENTS, universe)) as _)
        }),
    ));
    let doc = Report::new("fig_cache_hit_cost")
        .meta("clients", Value::U64(CLIENTS as u64))
        .meta("seeds", Value::U64(args.seeds))
        .stats(&["bytes_per_resolution", "hit_ratio"])
        .render(&sweep);
    args.emit(&doc);
}
