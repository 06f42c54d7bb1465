//! The one simulated testbed and the three cells that run on it.
//!
//! The cost comparison (Figures 3–5), the cache/fleet view and the
//! page-load result (Figures 2 and 6) are the same experiment shape:
//! stubs resolving a seeded workload through one resolver over one
//! transport. `Testbed` is the only place in this crate that builds a
//! [`Sim`] topology and a [`Driver`] and tears a run down; [`MatrixCell`],
//! [`FleetCell`] and [`PageloadCell`] are their own configuration (public
//! fields) and differ only in the workload they drive over it. Each has an
//! inherent `measure(seed)` returning its typed measurements, and
//! [`Cell::run`] is `measure` plus the report's identity and measurement
//! columns. All of it is deterministic in the seed — the property the
//! parallel runner rests on.

use crate::report::Value;
use crate::stats;
use crate::sweep::{Cell, CellError, CellId, CellOutcome};
use dohmark::dns::Name;
use dohmark::doh::{
    Driver, EndpointId, RecursiveResolver, ReusePolicy, ServerBackend, TransportConfig,
    TransportKind, Zone,
};
use dohmark::netsim::{Cost, LayerTag, Sim, SimDuration, SimTime};
use dohmark::pageload::{load_page, PageLoadResult};
use dohmark::workload::{FleetSchedule, QuerySchedule, SiteModel};

/// RNG stream label the harnesses draw their workload from.
pub const WORKLOAD_STREAM: u64 = 7;

/// RNG stream label the page-load harness builds its site model from.
pub const SITE_STREAM: u64 = 8;

/// Zipf popularity exponent of the fleet's name universe and the
/// page-load site ranks.
pub const ZIPF_EXPONENT: f64 = 1.0;

/// Fleet resolver cache capacity, in entries: big enough to never evict.
pub const FLEET_CACHE_CAPACITY: usize = 1 << 16;

/// Mean gap between one fleet client's queries (Poisson arrivals).
pub const FLEET_MEAN_GAP: SimDuration = SimDuration::from_millis(200);

/// Page-load site-model universe (distinct sites ranked by popularity).
pub const PAGELOAD_SITES: usize = 1000;

/// One run's simulated world: a resolver host serving `cfg`'s transport,
/// `clients` stub hosts each on its own link to it, everything registered
/// in one [`Driver`] for addressed wake routing.
struct Testbed {
    sim: Sim,
    driver: Driver,
    clients: Vec<EndpointId>,
}

impl Testbed {
    /// Builds the topology. With a `recursive_zone` the resolver is a
    /// caching [`RecursiveResolver`] fetching misses from a plain-Do53
    /// authoritative upstream for that zone; without one it answers from
    /// `cfg`'s fixed backend.
    fn new(
        seed: u64,
        cfg: &TransportConfig,
        clients: usize,
        recursive_zone: Option<&Name>,
    ) -> Testbed {
        let mut sim = Sim::new(seed);
        let resolver = sim.add_host("resolver");
        let mut driver = Driver::new();
        if let Some(zone) = recursive_zone {
            let upstream = sim.add_host("upstream");
            sim.add_link(resolver, upstream, cfg.link);
            driver.register(&mut sim, |sim| {
                let backend = ServerBackend::Authoritative(Zone::synth(
                    zone.clone(),
                    TransportConfig::TTL,
                    60,
                ));
                TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh)
                    .build_server_with(sim, upstream, backend)
            });
            driver.register(&mut sim, |sim| {
                let recursive =
                    RecursiveResolver::new(sim, resolver, (upstream, 53), FLEET_CACHE_CAPACITY);
                cfg.build_server_with(sim, resolver, ServerBackend::Recursive(recursive))
            });
        } else {
            driver.register(&mut sim, |sim| cfg.build_server(sim, resolver));
        }
        let clients = (0..clients)
            .map(|i| {
                let stub = sim.add_host(&format!("stub{i}"));
                sim.add_link(stub, resolver, cfg.link);
                driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver))
            })
            .collect();
        Testbed { sim, driver, clients }
    }

    /// Advances the simulation to `at`, then resolves `name` from client
    /// number `client`.
    fn resolve_at(&mut self, at: SimTime, client: usize, name: &Name) -> Result<(), CellError> {
        self.driver.advance_until(&mut self.sim, at);
        self.driver
            .resolve(&mut self.sim, self.clients[client], name)
            .map(drop)
            .map_err(|txn| CellError::DidNotResolve { txn })
    }

    /// Closes every client, runs the simulation to quiescence and hands
    /// the [`Sim`] back for its meter — unless a wake of the run reached
    /// no registered endpoint.
    fn finish(mut self) -> Result<Sim, CellError> {
        for &client in &self.clients {
            self.driver.close(&mut self.sim, client);
        }
        self.driver.run_until_quiescent(&mut self.sim);
        let stats = self.sim.stats();
        debug_assert_eq!(stats.events_scheduled, stats.events_popped, "an event was never popped");
        match self.driver.unrouted_wakes() {
            0 => Ok(self.sim),
            n => Err(CellError::UnroutedWakes(n)),
        }
    }
}

/// The zone the matrix and fleet workloads draw their names under.
pub(crate) fn workload_zone() -> Name {
    Name::parse("dohmark.test").expect("static zone name parses")
}

/// The zone the site model names its sites under.
pub(crate) fn sites_zone() -> Name {
    Name::parse("sites.dohmark.test").expect("static zone name parses")
}

/// A transport-matrix cell: one stub resolving a seeded Poisson workload
/// of `resolutions` queries through one [`TransportConfig`].
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// The transport cell to drive.
    pub cfg: TransportConfig,
    /// Queries resolved per run.
    pub resolutions: u16,
}

/// What one (matrix cell × seed) run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixRun {
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

impl MatrixCell {
    /// Resolves the workload under `seed` and hands back the finished
    /// simulation.
    fn simulate(&self, seed: u64) -> Result<Sim, CellError> {
        let mut bed = Testbed::new(seed, &self.cfg, 1, None);
        let mut rng = bed.sim.split_rng(WORKLOAD_STREAM);
        let schedule = QuerySchedule::new(&mut rng, &workload_zone());
        for (at, name) in schedule.take(usize::from(self.resolutions)) {
            bed.resolve_at(at, 0, &name)?;
        }
        bed.finish()
    }

    /// Resolves the workload under `seed` and returns the per-resolution
    /// means (attribution 0, the persistent-connection setup, is amortised
    /// across all resolutions — the view the paper's Figure 3 plots).
    pub fn measure(&self, seed: u64) -> Result<MatrixRun, CellError> {
        let sim = self.simulate(seed)?;

        let mut sum = Cost::default();
        let mut steady_bytes = 0u64;
        for attr in 0..=u32::from(self.resolutions) {
            let c = sim.meter.cost(attr);
            sum.bytes += c.bytes;
            sum.packets += c.packets;
            sum.layers.merge(&c.layers);
            if attr >= 2 {
                steady_bytes += c.bytes;
            }
        }
        let n = f64::from(self.resolutions);
        Ok(MatrixRun {
            bytes_per_resolution: sum.bytes as f64 / n,
            packets_per_resolution: sum.packets as f64 / n,
            layers: LayerTag::ALL.map(|tag| (tag, sum.layers.get(tag) as f64 / n)),
            steady_bytes_per_resolution: steady_bytes as f64 / (n - 1.0).max(1.0),
            header_bytes_per_query: (1..=u32::from(self.resolutions))
                .map(|id| sim.meter.cost(id).layers.http_header)
                .collect(),
        })
    }
}

impl Cell for MatrixCell {
    fn id(&self) -> CellId {
        CellId::new(self.cfg.label())
    }

    fn run(&self, seed: u64) -> Result<CellOutcome, CellError> {
        let run = self.measure(seed)?;
        let layers = Value::Object(
            run.layers
                .iter()
                .map(|(tag, bytes)| (tag.label().to_lowercase(), Value::fixed2(*bytes)))
                .collect(),
        );
        Ok(CellOutcome {
            identity: vec![
                ("transport".to_string(), Value::Str(self.cfg.kind.label().to_string())),
                ("reuse".to_string(), Value::Str(self.cfg.reuse.label().to_string())),
                ("resumed".to_string(), Value::Bool(self.cfg.resumption)),
            ],
            fields: vec![
                ("bytes_per_resolution".to_string(), Value::fixed2(run.bytes_per_resolution)),
                ("packets_per_resolution".to_string(), Value::fixed2(run.packets_per_resolution)),
                (
                    "bytes_per_packet".to_string(),
                    Value::fixed2(run.bytes_per_resolution / run.packets_per_resolution.max(1.0)),
                ),
                (
                    "steady_bytes_per_resolution".to_string(),
                    Value::fixed2(run.steady_bytes_per_resolution),
                ),
                ("layers".to_string(), layers),
                (
                    "header_bytes_per_query".to_string(),
                    Value::Array(
                        run.header_bytes_per_query.iter().map(|&b| Value::U64(b)).collect(),
                    ),
                ),
            ],
        })
    }
}

/// A fleet cell: `clients` stub resolvers sharing one caching recursive
/// resolver (over the `transport` cell) which fetches cache misses from a
/// plain-Do53 authoritative upstream.
#[derive(Debug, Clone)]
pub struct FleetCell {
    /// The stub-to-recursive transport cell.
    pub transport: TransportConfig,
    /// Number of stub clients, each on its own host.
    pub clients: usize,
    /// Size of the shared Zipf name universe — the knob that sets the
    /// cache-hit ratio for a fixed query count.
    pub universe: usize,
    /// Queries each client issues (Poisson arrivals, [`FLEET_MEAN_GAP`]
    /// apart on average).
    pub queries_per_client: usize,
}

/// What one (fleet cell × seed) run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRun {
    /// Total resolutions driven.
    pub queries: usize,
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

impl FleetCell {
    /// A fleet cell with the default the experiments use: 2 queries per
    /// client.
    pub fn new(transport: TransportConfig, clients: usize, universe: usize) -> FleetCell {
        FleetCell { transport, clients, universe, queries_per_client: 2 }
    }

    /// Resolves a seeded [`FleetSchedule`] under `seed`.
    pub fn measure(&self, seed: u64) -> Result<FleetRun, CellError> {
        let queries = self.clients * self.queries_per_client;
        let zone = workload_zone();
        let mut bed = Testbed::new(seed, &self.transport, self.clients, Some(&zone));
        let mut rng = bed.sim.split_rng(WORKLOAD_STREAM);
        let schedule = FleetSchedule::generate(
            &mut rng,
            self.clients,
            FLEET_MEAN_GAP,
            self.queries_per_client,
            &zone,
            self.universe,
            ZIPF_EXPONENT,
        );
        for (at, client, name) in &schedule.queries {
            bed.resolve_at(*at, *client, name)?;
        }
        let sim = bed.finish()?;

        let cache_hits = sim.meter.counters.cache_hit + sim.meter.counters.cache_negative_hit;
        let cache_misses = sim.meter.counters.cache_miss;
        let upstream_bytes = sim.meter.counters.upstream_bytes;
        let total_bytes = sim.meter.total().bytes;
        let n = queries as f64;
        Ok(FleetRun {
            queries,
            distinct_names: schedule.distinct_names(),
            cache_hits,
            cache_misses,
            hit_ratio: cache_hits as f64 / (cache_hits + cache_misses).max(1) as f64,
            upstream_queries: sim.meter.counters.upstream_queries,
            upstream_bytes,
            total_bytes,
            bytes_per_resolution: total_bytes as f64 / n,
            stub_bytes_per_resolution: total_bytes.saturating_sub(upstream_bytes) as f64 / n,
        })
    }
}

impl Cell for FleetCell {
    fn id(&self) -> CellId {
        CellId::new(format!("{} universe={}", self.transport.label(), self.universe))
    }

    fn run(&self, seed: u64) -> Result<CellOutcome, CellError> {
        let run = self.measure(seed)?;
        Ok(CellOutcome {
            identity: vec![
                ("transport".to_string(), Value::Str(self.transport.kind.label().to_string())),
                ("reuse".to_string(), Value::Str(self.transport.reuse.label().to_string())),
                ("clients".to_string(), Value::U64(self.clients as u64)),
                ("queries".to_string(), Value::U64(run.queries as u64)),
                ("universe".to_string(), Value::U64(self.universe as u64)),
            ],
            fields: vec![
                ("distinct_names".to_string(), Value::U64(run.distinct_names as u64)),
                ("cache_hits".to_string(), Value::U64(run.cache_hits)),
                ("cache_misses".to_string(), Value::U64(run.cache_misses)),
                ("hit_ratio".to_string(), Value::Fixed(run.hit_ratio, 4)),
                ("upstream_queries".to_string(), Value::U64(run.upstream_queries)),
                ("upstream_bytes".to_string(), Value::U64(run.upstream_bytes)),
                ("total_bytes".to_string(), Value::U64(run.total_bytes)),
                ("bytes_per_resolution".to_string(), Value::fixed2(run.bytes_per_resolution)),
                (
                    "stub_bytes_per_resolution".to_string(),
                    Value::fixed2(run.stub_bytes_per_resolution),
                ),
            ],
        })
    }
}

/// A page-load cell: `pages` dependency-tree pages drawn from an
/// Alexa-like Zipf [`SiteModel`], each loaded through the `transport` cell
/// with every resource fetch gated on a DNS resolution (see
/// [`dohmark::pageload`]).
#[derive(Debug, Clone)]
pub struct PageloadCell {
    /// The stub-to-resolver transport cell; its link also prices the
    /// resource fetches, so DNS and content share one last mile.
    pub transport: TransportConfig,
    /// Names the link profile in cell ids and report rows
    /// (`clean_broadband`, `loss_2pct`, …) — the transport label alone
    /// cannot distinguish the fig2 loss ladder.
    pub link_label: String,
    /// Pages loaded per run (sequentially, each a fresh navigation).
    pub pages: usize,
}

/// What one (page-load cell × seed) run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct PageloadRun {
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

impl PageloadCell {
    /// Draws `pages` pages from a seeded [`SiteModel`] and loads each
    /// through [`load_page`] — DNS per distinct domain, fetches gated on
    /// resolution, makespan over the shared event loop. Page shapes depend
    /// only on `(seed, rank)`, so two transports under the same seed load
    /// identical page workloads. A resolution lost to the link starves a
    /// subtree and is counted in `unresolved`: a measurement, not an
    /// error.
    pub fn measure(&self, seed: u64) -> Result<PageloadRun, CellError> {
        let mut bed = Testbed::new(seed, &self.transport, 1, None);
        let mut site_rng = bed.sim.split_rng(SITE_STREAM);
        let mut model = SiteModel::new(&mut site_rng, &sites_zone(), PAGELOAD_SITES, ZIPF_EXPONENT);

        let link = &self.transport.link;
        let mut loads = Vec::with_capacity(self.pages);
        for _ in 0..self.pages {
            let page = model.next_page();
            let client = bed.clients[0];
            loads.push(load_page(&mut bed.sim, &mut bed.driver, client, page, link));
        }
        bed.finish()?;

        let mean_of =
            |f: fn(&PageLoadResult) -> f64| stats::mean(&loads.iter().map(f).collect::<Vec<_>>());
        Ok(PageloadRun {
            page_load_ms: loads.iter().map(|r| r.makespan.as_millis_f64()).collect(),
            mean_page_load_ms: mean_of(|r| r.makespan.as_millis_f64()),
            mean_dns_queries: mean_of(|r| f64::from(r.dns_queries)),
            mean_dns_wait_ms: mean_of(|r| r.dns_wait_total.as_millis_f64()),
            unresolved: loads.iter().map(|r| u64::from(r.unresolved)).sum(),
        })
    }
}

impl Cell for PageloadCell {
    fn id(&self) -> CellId {
        CellId::new(format!("{} {}", self.transport.label(), self.link_label))
    }

    fn run(&self, seed: u64) -> Result<CellOutcome, CellError> {
        let run = self.measure(seed)?;
        Ok(CellOutcome {
            identity: vec![
                ("transport".to_string(), Value::Str(self.transport.kind.label().to_string())),
                ("link".to_string(), Value::Str(self.link_label.clone())),
                ("loss".to_string(), Value::Fixed(self.transport.link.loss, 4)),
                ("pages".to_string(), Value::U64(self.pages as u64)),
            ],
            fields: vec![
                ("mean_page_load_ms".to_string(), Value::fixed2(run.mean_page_load_ms)),
                (
                    "median_page_load_ms".to_string(),
                    Value::fixed2(stats::median(&run.page_load_ms)),
                ),
                (
                    "p95_page_load_ms".to_string(),
                    Value::fixed2(stats::percentile(&run.page_load_ms, 95.0)),
                ),
                ("mean_dns_queries".to_string(), Value::fixed2(run.mean_dns_queries)),
                ("mean_dns_wait_ms".to_string(), Value::fixed2(run.mean_dns_wait_ms)),
                ("unresolved".to_string(), Value::U64(run.unresolved)),
                (
                    "page_load_ms".to_string(),
                    Value::Array(run.page_load_ms.iter().map(|&v| Value::fixed2(v)).collect()),
                ),
            ],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On a clean link no RTO ever backs off, so every TCP timer of a run
    /// waits in a lane and the heap holds only what is in flight.
    #[test]
    fn a_clean_matrix_run_keeps_tcp_timers_out_of_the_heap() {
        for cfg in TransportConfig::matrix() {
            let label = cfg.label();
            let tcp = cfg.kind != TransportKind::Do53;
            let sim = MatrixCell { cfg, resolutions: 20 }.simulate(1).expect("a clean link");
            let stats = sim.stats();
            assert_eq!(stats.tcp_timers_popped > 0, tcp, "{label}");
            assert_eq!(stats.tcp_timers_heaped, 0, "{label}");
            assert!(stats.heap_peak <= 8, "{label}: heap peak {}", stats.heap_peak);
        }
    }
}
