//! Experiment harnesses reproducing the paper's figures and tables.
//!
//! The crate is organised around the sweep API every figure binary sits
//! on:
//!
//! * [`sweep`] — the parallel sweep runner. A [`Cell`] is
//!   one experiment configuration runnable under any seed;
//!   [`SweepSpec`] fans a (cell × seed) grid out over
//!   `std::thread` scoped workers pulling from a shared cursor; the
//!   resulting [`SweepReport`] keeps canonical
//!   (cell, seed) order, so `threads = 1` and `threads = N` render
//!   byte-identical reports.
//! * [`stats`] — per-cell aggregation over seeds: mean, median,
//!   p5/p95/p99 percentiles and deterministic bootstrap 95% CI bands.
//! * [`report`] — the one shared jsontext emitter (the workspace has no
//!   serde): harnesses pick an experiment name, metadata, measurement
//!   columns and stats metrics; rows and bands render as a single line
//!   of JSON parseable by `dns-wire::jsontext`.
//! * [`cli`] — the `--seeds N --threads N --out PATH` flags every fig
//!   binary accepts.
//!
//! The simulation drivers feeding the cells live here:
//! [`run_matrix_cell`] resolves a seeded workload through one
//! [`TransportConfig`] cell registered in a [`Driver`], and
//! [`run_fleet_cell`] drives a whole stub fleet against one shared
//! caching recursive resolver. Both are deterministic in their seed —
//! the property the parallel runner rests on.
//!
//! `benches/transports.rs` is a plain-main wall-clock harness kept
//! buildable without external benchmarking crates; the repo benchmark
//! proper lives in `perfbench/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod report;
pub mod stats;
pub mod sweep;

pub use cli::SweepArgs;
pub use report::{Report, Value};
pub use sweep::{
    Cell, CellId, CellOutcome, FleetCell, MatrixCell, PageloadCell, SitePagesCell, SweepReport,
    SweepSpec, WorkloadStatsCell,
};

use dohmark::dns::Name;
use dohmark::doh::{
    Driver, RecursiveResolver, ReusePolicy, ServerBackend, TransportConfig, TransportKind,
    UdpRetry, Zone,
};
use dohmark::netsim::{Cost, LayerTag, Sim, SimDuration};
use dohmark::pageload::{load_page, FetchModel};
use dohmark::workload::{FleetSchedule, QuerySchedule, SiteModel};
use std::fmt;

/// RNG stream label the harnesses draw their workload from.
pub const WORKLOAD_STREAM: u64 = 7;

/// RNG stream label the page-load harness builds its site model from.
pub const SITE_STREAM: u64 = 8;

/// Aggregated result of one (matrix cell × seed) run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRun {
    /// Human-readable cell label (`dot persistent`, …).
    pub label: String,
    /// Transport label (`do53` / `dot` / `doh-h1` / `doh-h2`).
    pub transport: String,
    /// Reuse mode (`fresh` / `persistent`).
    pub reuse: String,
    /// Whether TLS resumption was on.
    pub resumed: bool,
    /// The seed the run used.
    pub seed: u64,
    /// Mean bytes per resolution, connection setup amortised.
    pub bytes_per_resolution: f64,
    /// Mean packets per resolution.
    pub packets_per_resolution: f64,
    /// Mean per-layer bytes per resolution, in [`LayerTag::ALL`] order.
    pub layers: [(LayerTag, f64); 6],
    /// Mean bytes over resolutions 2..=N only — the steady state of a
    /// persistent connection, without setup amortisation.
    pub steady_bytes_per_resolution: f64,
    /// HTTP header bytes charged to each query id, in order — the HPACK
    /// dynamic-table shrinkage signal on persistent DoH/2.
    pub header_bytes_per_query: Vec<u64>,
}

impl CellRun {
    /// This run as a sweep outcome: identity fields every row repeats
    /// plus the selectable measurement columns (including the derived
    /// `bytes_per_packet`).
    pub fn outcome(&self) -> CellOutcome {
        let layers = Value::Object(
            self.layers
                .iter()
                .map(|(tag, bytes)| (tag.label().to_lowercase(), Value::fixed2(*bytes)))
                .collect(),
        );
        CellOutcome {
            identity: vec![
                ("transport".to_string(), Value::Str(self.transport.clone())),
                ("reuse".to_string(), Value::Str(self.reuse.clone())),
                ("resumed".to_string(), Value::Bool(self.resumed)),
            ],
            fields: vec![
                ("bytes_per_resolution".to_string(), Value::fixed2(self.bytes_per_resolution)),
                ("packets_per_resolution".to_string(), Value::fixed2(self.packets_per_resolution)),
                (
                    "bytes_per_packet".to_string(),
                    Value::fixed2(self.bytes_per_resolution / self.packets_per_resolution.max(1.0)),
                ),
                (
                    "steady_bytes_per_resolution".to_string(),
                    Value::fixed2(self.steady_bytes_per_resolution),
                ),
                ("layers".to_string(), layers),
                (
                    "header_bytes_per_query".to_string(),
                    Value::Array(
                        self.header_bytes_per_query.iter().map(|&b| Value::U64(b)).collect(),
                    ),
                ),
            ],
        }
    }
}

/// Resolves `resolutions` queries of a seeded Poisson workload through
/// the cell described by `cfg` — registered in a [`Driver`] with
/// addressed wake routing — and returns the per-resolution means
/// (attribution 0, the persistent-connection setup, is amortised across
/// all resolutions — the view the paper's Figure 3 plots).
pub fn run_matrix_cell(cfg: &TransportConfig, seed: u64, resolutions: u16) -> CellRun {
    let mut sim = Sim::new(seed);
    let stub = sim.add_host("stub");
    let resolver = sim.add_host("resolver");
    sim.add_link(stub, resolver, cfg.link);
    let mut driver = Driver::new();
    driver.register(&mut sim, |sim| cfg.build_server(sim, resolver));
    let client = driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver));
    let mut rng = sim.split_rng(WORKLOAD_STREAM);
    let zone = Name::parse("dohmark.test").unwrap();
    let schedule = QuerySchedule::new(&mut rng, SimDuration::from_millis(50), 8, &zone);
    for (i, (at, name)) in schedule.take(usize::from(resolutions)).enumerate() {
        driver.advance_until(&mut sim, at);
        let id = i as u16 + 1;
        driver
            .resolve(&mut sim, client, &name, id)
            .unwrap_or_else(|| panic!("{} seed {seed} id {id} did not resolve", cfg.label()));
    }
    driver.close(&mut sim, client);
    driver.run_until_quiescent(&mut sim);
    assert_eq!(driver.unrouted_wakes(), 0, "a wake of the run reached no registered endpoint");

    let mut sum = Cost::default();
    let mut steady_bytes = 0u64;
    for attr in 0..=u32::from(resolutions) {
        let c = sim.meter.cost(attr);
        sum.bytes += c.bytes;
        sum.packets += c.packets;
        sum.layers.merge(&c.layers);
        if attr >= 2 {
            steady_bytes += c.bytes;
        }
    }
    let n = f64::from(resolutions);
    CellRun {
        label: cfg.label(),
        transport: cfg.kind.label().to_string(),
        reuse: cfg.reuse.label().to_string(),
        resumed: cfg.resumption,
        seed,
        bytes_per_resolution: sum.bytes as f64 / n,
        packets_per_resolution: sum.packets as f64 / n,
        layers: LayerTag::ALL.map(|tag| (tag, sum.layers.get(tag) as f64 / n)),
        steady_bytes_per_resolution: steady_bytes as f64 / (n - 1.0).max(1.0),
        header_bytes_per_query: (1..=u32::from(resolutions))
            .map(|id| sim.meter.cost(id).layers.http_header)
            .collect(),
    }
}

/// The most queries one fleet run can drive: transaction ids are `u16`,
/// id 0 is reserved, and every query needs a globally unique id — so
/// `clients × queries_per_client` must not exceed 65534. Growing fleets
/// past this needs a wider id space first (see ROADMAP).
pub const MAX_FLEET_QUERIES: usize = u16::MAX as usize - 1;

/// A fleet configuration asked for more queries than the `u16`
/// transaction-id space can globally distinguish
/// (see [`MAX_FLEET_QUERIES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnSpaceExhausted {
    /// The `clients × queries_per_client` total that was requested.
    pub requested: usize,
}

impl fmt::Display for TxnSpaceExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fleet needs {} globally unique transaction ids, but the u16 id space \
             holds at most {MAX_FLEET_QUERIES}",
            self.requested
        )
    }
}

impl std::error::Error for TxnSpaceExhausted {}

/// Parameters of one fleet run: `clients` stub resolvers sharing one
/// caching recursive resolver (over the `transport` cell) which fetches
/// cache misses from a plain-Do53 authoritative upstream.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The stub-to-recursive transport cell.
    pub transport: TransportConfig,
    /// Number of stub clients, each on its own host.
    pub clients: usize,
    /// Queries each client issues (Poisson arrivals). The run total
    /// `clients × queries_per_client` is capped at
    /// [`MAX_FLEET_QUERIES`] by the u16 transaction-id space.
    pub queries_per_client: usize,
    /// Size of the shared Zipf name universe — the knob that sets the
    /// cache-hit ratio for a fixed query count.
    pub universe: usize,
    /// Zipf popularity exponent.
    pub exponent: f64,
    /// Resolver cache capacity, in entries.
    pub cache_capacity: usize,
    /// Mean per-client gap between queries.
    pub mean_gap: SimDuration,
}

impl FleetConfig {
    /// A fleet cell with the defaults the experiments use: 2 queries per
    /// client, Zipf exponent 1.0, a cache big enough to never evict and a
    /// 200 ms mean per-client gap.
    pub fn new(transport: TransportConfig, clients: usize, universe: usize) -> FleetConfig {
        FleetConfig {
            transport,
            clients,
            queries_per_client: 2,
            universe,
            exponent: 1.0,
            cache_capacity: 1 << 16,
            mean_gap: SimDuration::from_millis(200),
        }
    }

    /// Total queries the run will drive.
    pub fn total_queries(&self) -> usize {
        self.clients * self.queries_per_client
    }

    /// Errors if the run needs more globally unique transaction ids than
    /// the `u16` space holds ([`MAX_FLEET_QUERIES`]).
    pub fn check_txn_space(&self) -> Result<(), TxnSpaceExhausted> {
        let requested = self.total_queries();
        if requested > MAX_FLEET_QUERIES {
            return Err(TxnSpaceExhausted { requested });
        }
        Ok(())
    }
}

/// Aggregated result of one (fleet cell × seed) run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRun {
    /// Human-readable transport-cell label.
    pub label: String,
    /// Transport label (`do53` / `dot` / `doh-h1` / `doh-h2`).
    pub transport: String,
    /// Reuse mode (`fresh` / `persistent`).
    pub reuse: String,
    /// The seed the run used.
    pub seed: u64,
    /// Fleet size.
    pub clients: usize,
    /// Total resolutions driven.
    pub queries: usize,
    /// Zipf universe size the names were drawn from.
    pub universe: usize,
    /// Distinct names actually queried — the compulsory-miss floor.
    pub distinct_names: usize,
    /// Cache hits (positive + negative) at the recursive resolver.
    pub cache_hits: u64,
    /// Cache misses at the recursive resolver.
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)`.
    pub hit_ratio: f64,
    /// Upstream fetches the resolver issued (after coalescing).
    pub upstream_queries: u64,
    /// Bytes spent on the resolver-to-upstream leg (payload + IP/UDP
    /// headers, both directions).
    pub upstream_bytes: u64,
    /// All bytes the simulation put on any wire.
    pub total_bytes: u64,
    /// `total_bytes / queries` — the figure the cache-hit experiment
    /// plots against `hit_ratio`.
    pub bytes_per_resolution: f64,
    /// Bytes per resolution on the stub-to-recursive leg only.
    pub stub_bytes_per_resolution: f64,
}

impl FleetRun {
    /// This run as a sweep outcome: identity fields (transport, fleet
    /// shape) plus the selectable measurement columns.
    pub fn outcome(&self) -> CellOutcome {
        CellOutcome {
            identity: vec![
                ("transport".to_string(), Value::Str(self.transport.clone())),
                ("reuse".to_string(), Value::Str(self.reuse.clone())),
                ("clients".to_string(), Value::U64(self.clients as u64)),
                ("queries".to_string(), Value::U64(self.queries as u64)),
                ("universe".to_string(), Value::U64(self.universe as u64)),
            ],
            fields: vec![
                ("distinct_names".to_string(), Value::U64(self.distinct_names as u64)),
                ("cache_hits".to_string(), Value::U64(self.cache_hits)),
                ("cache_misses".to_string(), Value::U64(self.cache_misses)),
                ("hit_ratio".to_string(), Value::Fixed(self.hit_ratio, 4)),
                ("upstream_queries".to_string(), Value::U64(self.upstream_queries)),
                ("upstream_bytes".to_string(), Value::U64(self.upstream_bytes)),
                ("total_bytes".to_string(), Value::U64(self.total_bytes)),
                ("bytes_per_resolution".to_string(), Value::fixed2(self.bytes_per_resolution)),
                (
                    "stub_bytes_per_resolution".to_string(),
                    Value::fixed2(self.stub_bytes_per_resolution),
                ),
            ],
        }
    }
}

/// Drives one fleet cell: builds `clients` stub hosts around a single
/// recursive resolver (shared cache, Do53 upstream with a synthetic
/// authoritative [`Zone`]), registers everything in a [`Driver`] for
/// addressed wake routing, and resolves a seeded [`FleetSchedule`] with
/// globally unique transaction ids. Deterministic in `seed`.
///
/// Errors with [`TxnSpaceExhausted`] when `clients × queries_per_client`
/// exceeds [`MAX_FLEET_QUERIES`] — the `u16` transaction-id space cannot
/// label that many in-flight resolutions uniquely, and wrapping would
/// silently cross-wire responses.
pub fn run_fleet_cell(cfg: &FleetConfig, seed: u64) -> Result<FleetRun, TxnSpaceExhausted> {
    cfg.check_txn_space()?;
    let total = cfg.total_queries();

    let mut sim = Sim::new(seed);
    let resolver = sim.add_host("resolver");
    let upstream = sim.add_host("upstream");
    sim.add_link(resolver, upstream, cfg.transport.link);

    let zone = Name::parse("dohmark.test").unwrap();
    let mut driver = Driver::new();
    let upstream_cfg = TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh);
    driver.register(&mut sim, |sim| {
        let backend =
            ServerBackend::Authoritative(Zone::synth(zone.clone(), cfg.transport.ttl, 60));
        upstream_cfg.build_server_with(sim, upstream, backend)
    });
    driver.register(&mut sim, |sim| {
        let recursive = RecursiveResolver::new(sim, resolver, (upstream, 53), cfg.cache_capacity);
        cfg.transport.build_server_with(sim, resolver, ServerBackend::Recursive(recursive))
    });
    let clients: Vec<_> = (0..cfg.clients)
        .map(|i| {
            let stub = sim.add_host(&format!("stub{i}"));
            sim.add_link(stub, resolver, cfg.transport.link);
            driver.register_resolver(&mut sim, |_| cfg.transport.build_client(stub, resolver))
        })
        .collect();

    let mut rng = sim.split_rng(WORKLOAD_STREAM);
    let schedule = FleetSchedule::generate(
        &mut rng,
        cfg.clients,
        cfg.mean_gap,
        cfg.queries_per_client,
        &zone,
        cfg.universe,
        cfg.exponent,
    );
    let distinct_names = schedule.distinct_names();
    for (i, (at, client, name)) in schedule.queries.iter().enumerate() {
        driver.advance_until(&mut sim, *at);
        let txn = i as u16 + 1;
        let response = driver.resolve(&mut sim, clients[*client], name, txn).unwrap_or_else(|| {
            panic!("{} seed {seed} txn {txn} did not resolve", cfg.transport.label())
        });
        assert_eq!(response.header.id, txn);
    }
    for &client in &clients {
        driver.close(&mut sim, client);
    }
    driver.run_until_quiescent(&mut sim);
    assert_eq!(driver.unrouted_wakes(), 0, "a wake of the run reached no registered endpoint");

    let cache_hits = sim.meter.counter("cache_hit") + sim.meter.counter("cache_negative_hit");
    let cache_misses = sim.meter.counter("cache_miss");
    let upstream_bytes = sim.meter.counter("upstream_bytes");
    let total_bytes = sim.meter.total().bytes;
    let n = total as f64;
    Ok(FleetRun {
        label: cfg.transport.label(),
        transport: cfg.transport.kind.label().to_string(),
        reuse: cfg.transport.reuse.label().to_string(),
        seed,
        clients: cfg.clients,
        queries: total,
        universe: cfg.universe,
        distinct_names,
        cache_hits,
        cache_misses,
        hit_ratio: cache_hits as f64 / (cache_hits + cache_misses).max(1) as f64,
        upstream_queries: sim.meter.counter("upstream_queries"),
        upstream_bytes,
        total_bytes,
        bytes_per_resolution: total_bytes as f64 / n,
        stub_bytes_per_resolution: total_bytes.saturating_sub(upstream_bytes) as f64 / n,
    })
}

/// Parameters of one page-load run: `pages` dependency-tree pages drawn
/// from an Alexa-like Zipf [`SiteModel`], each loaded through the
/// `transport` cell with every resource fetch gated on a DNS resolution
/// (see [`dohmark::pageload`]).
#[derive(Debug, Clone)]
pub struct PageloadConfig {
    /// The stub-to-resolver transport cell; its link also prices the
    /// resource fetches, so DNS and content share one last mile.
    pub transport: TransportConfig,
    /// Names the link profile in cell ids and report rows
    /// (`clean_broadband`, `loss_2pct`, …) — the transport label alone
    /// cannot distinguish the fig2 loss ladder.
    pub link_label: String,
    /// Pages loaded per run (sequentially, each a fresh navigation).
    pub pages: usize,
    /// Site-model universe (distinct sites ranked by popularity).
    pub sites: usize,
    /// Zipf popularity exponent over site ranks.
    pub exponent: f64,
}

impl PageloadConfig {
    /// A page-load cell with the defaults the experiments use: 12 pages
    /// over a 1000-site universe at Zipf exponent 1.0.
    pub fn new(transport: TransportConfig, link_label: impl Into<String>) -> PageloadConfig {
        PageloadConfig {
            transport,
            link_label: link_label.into(),
            pages: 12,
            sites: 1000,
            exponent: 1.0,
        }
    }

    /// Errors if the run could need more globally unique transaction ids
    /// than the `u16` space holds: every page resolves at most
    /// [`SiteModel::MAX_DOMAINS`] domains, so `pages × MAX_DOMAINS` must
    /// fit in [`MAX_FLEET_QUERIES`].
    pub fn check_txn_space(&self) -> Result<(), TxnSpaceExhausted> {
        let requested = self.pages * SiteModel::MAX_DOMAINS;
        if requested > MAX_FLEET_QUERIES {
            return Err(TxnSpaceExhausted { requested });
        }
        Ok(())
    }
}

/// Aggregated result of one (page-load cell × seed) run.
#[derive(Debug, Clone, PartialEq)]
pub struct PageloadRun {
    /// Human-readable transport-cell label.
    pub label: String,
    /// Transport label (`do53` / `dot` / `doh-h1` / `doh-h2`).
    pub transport: String,
    /// Link-profile label (`clean_broadband`, `loss_2pct`, …).
    pub link_label: String,
    /// The iid loss probability of the link, echoed for fig2 plotting.
    pub loss: f64,
    /// The seed the run used.
    pub seed: u64,
    /// Per-page makespans in milliseconds, page order — the fig6 CDF.
    pub page_load_ms: Vec<f64>,
    /// Mean page-load time over the run's pages.
    pub mean_page_load_ms: f64,
    /// Mean DNS resolutions per page (the fig1 quantity, measured live).
    pub mean_dns_queries: f64,
    /// Mean total DNS wait per page, milliseconds.
    pub mean_dns_wait_ms: f64,
    /// Resources that never loaded, summed over pages (lost resolutions
    /// starving their dependency subtrees).
    pub unresolved: u64,
}

impl PageloadRun {
    /// This run as a sweep outcome: identity fields (transport, link)
    /// plus the selectable measurement columns.
    pub fn outcome(&self) -> CellOutcome {
        CellOutcome {
            identity: vec![
                ("transport".to_string(), Value::Str(self.transport.clone())),
                ("link".to_string(), Value::Str(self.link_label.clone())),
                ("loss".to_string(), Value::Fixed(self.loss, 4)),
                ("pages".to_string(), Value::U64(self.page_load_ms.len() as u64)),
            ],
            fields: vec![
                ("mean_page_load_ms".to_string(), Value::fixed2(self.mean_page_load_ms)),
                (
                    "median_page_load_ms".to_string(),
                    Value::fixed2(stats::median(&self.page_load_ms)),
                ),
                (
                    "p95_page_load_ms".to_string(),
                    Value::fixed2(stats::percentile(&self.page_load_ms, 95.0)),
                ),
                ("mean_dns_queries".to_string(), Value::fixed2(self.mean_dns_queries)),
                ("mean_dns_wait_ms".to_string(), Value::fixed2(self.mean_dns_wait_ms)),
                ("unresolved".to_string(), Value::U64(self.unresolved)),
                (
                    "page_load_ms".to_string(),
                    Value::Array(self.page_load_ms.iter().map(|&v| Value::fixed2(v)).collect()),
                ),
            ],
        }
    }
}

/// Milliseconds, as the reports print durations.
fn as_ms(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Drives one page-load cell: builds a stub/resolver pair over the
/// cell's link, registers the transport in a [`Driver`], draws `pages`
/// dependency-tree pages from a seeded [`SiteModel`] and loads each
/// through [`load_page`] — DNS per distinct domain, fetches gated on
/// resolution, makespan over the shared event loop. Deterministic in
/// `seed`; page shapes depend only on `(seed, rank)`, so two transports
/// under the same seed load identical page workloads.
///
/// Errors with [`TxnSpaceExhausted`] when `pages ×`
/// [`SiteModel::MAX_DOMAINS`] exceeds [`MAX_FLEET_QUERIES`].
pub fn run_pageload_cell(
    cfg: &PageloadConfig,
    seed: u64,
) -> Result<PageloadRun, TxnSpaceExhausted> {
    cfg.check_txn_space()?;

    let mut sim = Sim::new(seed);
    let stub = sim.add_host("stub");
    let resolver = sim.add_host("resolver");
    sim.add_link(stub, resolver, cfg.transport.link);
    let mut driver = Driver::new();
    driver.register(&mut sim, |sim| cfg.transport.build_server(sim, resolver));
    let client = driver.register_resolver(&mut sim, |_| cfg.transport.build_client(stub, resolver));

    let zone = Name::parse("sites.dohmark.test").expect("static zone name parses");
    let mut site_rng = sim.split_rng(SITE_STREAM);
    let mut model = SiteModel::new(&mut site_rng, &zone, cfg.sites, cfg.exponent);
    let fetch = FetchModel::from_link(&cfg.transport.link);

    let mut txn_base = 1u16;
    let mut page_load_ms = Vec::with_capacity(cfg.pages);
    let mut dns_queries = Vec::with_capacity(cfg.pages);
    let mut dns_wait_ms = Vec::with_capacity(cfg.pages);
    let mut unresolved = 0u64;
    for _ in 0..cfg.pages {
        let page = model.next_page();
        let result = load_page(&mut sim, &mut driver, client, &page, &fetch, txn_base);
        // Validated up front: pages × MAX_DOMAINS ids fit the u16 space.
        txn_base += page.domains.len() as u16;
        page_load_ms.push(as_ms(result.makespan));
        dns_queries.push(f64::from(result.dns_queries));
        dns_wait_ms.push(as_ms(result.dns_wait_total));
        unresolved += u64::from(result.unresolved);
    }
    driver.close(&mut sim, client);
    driver.run_until_quiescent(&mut sim);
    assert_eq!(driver.unrouted_wakes(), 0, "a wake of the run reached no registered endpoint");

    Ok(PageloadRun {
        label: cfg.transport.label(),
        transport: cfg.transport.kind.label().to_string(),
        link_label: cfg.link_label.clone(),
        loss: cfg.transport.link.loss,
        seed,
        mean_page_load_ms: stats::mean(&page_load_ms),
        mean_dns_queries: stats::mean(&dns_queries),
        mean_dns_wait_ms: stats::mean(&dns_wait_ms),
        unresolved,
        page_load_ms,
    })
}

/// The four transport cells the page-load experiments sweep:
/// [`fleet_transports`] with Do53 given the standard retransmission
/// policy — on lossy links a retry-less stub would conflate "UDP has no
/// head-of-line blocking" with "a lost datagram loses the page", and the
/// paper's Figure 2 contrast is about the former.
pub fn pageload_transports() -> Vec<TransportConfig> {
    fleet_transports()
        .into_iter()
        .map(|cfg| {
            if cfg.kind == TransportKind::Do53 {
                cfg.with_udp_retry(UdpRetry::standard())
            } else {
                cfg
            }
        })
        .collect()
}

/// The four transport cells the fleet experiments sweep: Do53 plus the
/// three encrypted transports on persistent connections (the deployment
/// shape a stub keeps to its recursive resolver).
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
    use dohmark::doh::{ReusePolicy, TransportKind};

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
            .run();
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
            .run();

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
        let cfg = TransportConfig::new(TransportKind::Dot, ReusePolicy::Persistent);
        assert_eq!(run_matrix_cell(&cfg, 9, 4), run_matrix_cell(&cfg, 9, 4));
        assert_ne!(
            run_matrix_cell(&cfg, 9, 4).bytes_per_resolution,
            run_matrix_cell(&cfg, 10, 4).bytes_per_resolution
        );
    }

    #[test]
    fn every_wake_of_a_cell_run_reaches_a_registered_endpoint() {
        // Each runner asserts `Driver::unrouted_wakes() == 0` once its
        // simulation is quiescent; the page-load engine's own fetch
        // timers must not count. One run of each, on the transports with
        // the most moving parts.
        let h2 = TransportConfig::new(TransportKind::DohH2, ReusePolicy::Fresh);
        run_matrix_cell(&h2, 3, 4);
        let retrying = TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh)
            .with_udp_retry(UdpRetry::standard());
        run_fleet_cell(&FleetConfig::new(retrying.clone(), 8, 16), 3).unwrap();
        let mut lossy = PageloadConfig::new(retrying, "lossy_wifi");
        lossy.transport.link = dohmark::netsim::LinkConfig::lossy_wifi();
        lossy.pages = 3;
        assert!(run_pageload_cell(&lossy, 3).unwrap().mean_dns_queries > 0.0);
    }

    #[test]
    fn smaller_universe_means_higher_hit_ratio_and_fewer_bytes() {
        for transport in [
            TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh),
            TransportConfig::new(TransportKind::DohH2, ReusePolicy::Persistent),
        ] {
            let broad = run_fleet_cell(&FleetConfig::new(transport.clone(), 24, 500), 5).unwrap();
            let narrow = run_fleet_cell(&FleetConfig::new(transport, 24, 4), 5).unwrap();
            assert_eq!(broad.queries, 48);
            assert_eq!(broad.cache_hits + broad.cache_misses, 48);
            assert!(
                narrow.hit_ratio > broad.hit_ratio,
                "narrow universe must hit more: {} vs {}",
                narrow.hit_ratio,
                broad.hit_ratio
            );
            assert!(
                narrow.bytes_per_resolution < broad.bytes_per_resolution,
                "cache hits must save wire bytes: {} vs {}",
                narrow.bytes_per_resolution,
                broad.bytes_per_resolution
            );
            assert!(narrow.upstream_queries <= 4 + 1, "at most one fetch per distinct name");
        }
    }

    #[test]
    fn oversized_fleets_get_a_typed_error_not_a_wrapped_txn_id() {
        let cfg = FleetConfig::new(
            TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh),
            40_000,
            100,
        );
        // 40,000 clients × 2 queries = 80,000 > 65,534 u16 ids.
        let err = run_fleet_cell(&cfg, 1).unwrap_err();
        assert_eq!(err, TxnSpaceExhausted { requested: 80_000 });
        assert!(err.to_string().contains("65534"), "{err}");
        assert_eq!(FleetCell::new(cfg).unwrap_err().requested, 80_000);

        // The largest legal fleet passes validation (without running it).
        let mut max = FleetConfig::new(
            TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh),
            MAX_FLEET_QUERIES,
            100,
        );
        max.queries_per_client = 1;
        assert!(max.check_txn_space().is_ok());
    }

    #[test]
    fn fleet_sweep_report_is_valid_jsontext_with_the_cache_hit_shape() {
        let cfg = TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh);
        let sweep = SweepSpec::new()
            .cell(FleetCell::new(FleetConfig::new(cfg.clone(), 10, 100)).unwrap())
            .cell(FleetCell::new(FleetConfig::new(cfg, 10, 3)).unwrap())
            .seeds([1])
            .run();
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
