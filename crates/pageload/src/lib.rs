//! Browser page-load model: dependency trees of resources gated on DNS.
//!
//! The paper's headline result (§4, Figure 6) is about *user-perceived*
//! cost: despite DoH's extra bytes, resolver transport barely moves
//! page-load time, because DNS is a small slice of a page's
//! dependency-tree makespan — except under loss, where TCP head-of-line
//! blocking makes DoH-over-h2 visibly diverge from Do53 (Figure 2). This
//! crate reproduces that experiment shape:
//!
//! * A page is a [`PageSpec`] — a dependency
//!   tree of resources fanned out over several domains, drawn from the
//!   Alexa-like [`SiteModel`](dohmark_workload::SiteModel).
//! * [`load_page`] walks the tree the way a browser does: a resource
//!   becomes *discoverable* when its parent finishes (you cannot request
//!   what you have not parsed), each domain's **first** discoverable
//!   resource triggers one DNS resolution through a registered
//!   [`Resolver`](dohmark_doh::Resolver) (any transport of the matrix),
//!   and a resource's fetch starts only once its domain has resolved.
//! * Resource fetches are modelled analytically by [`fetch_time`]
//!   (one round trip plus serialisation of the resource body) and are
//!   **identical across DNS transports**, so any page-load-time
//!   difference between two transports is attributable to DNS alone —
//!   exactly the paper's controlled comparison.
//! * Page-load time is the makespan of the tree: the simulated time from
//!   navigation start to the last resource completing, with DNS wakes and
//!   fetch-completion timers interleaved on the same deterministic
//!   [`netsim`](dohmark_netsim) event loop, pumped one wake at a time by
//!   [`Driver::step`](dohmark_doh::Driver::step).
//!
//! ```
//! use dohmark_dns_wire::Name;
//! use dohmark_doh::{Driver, ReusePolicy, TransportConfig, TransportKind};
//! use dohmark_netsim::{Sim, SimRng};
//! use dohmark_pageload::load_page;
//! use dohmark_workload::SiteModel;
//!
//! const DEMO_SEED: u64 = 42;
//! let cfg = TransportConfig::new(TransportKind::DohH2, ReusePolicy::Persistent);
//! let mut sim = Sim::new(DEMO_SEED);
//! let stub = sim.add_host("stub");
//! let resolver = sim.add_host("resolver");
//! sim.add_link(stub, resolver, cfg.link);
//! let mut driver = Driver::new();
//! driver.register(&mut sim, |sim| cfg.build_server(sim, resolver));
//! let client = driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver));
//!
//! let zone = Name::parse("sites.dohmark.test").unwrap();
//! let mut rng = SimRng::new(DEMO_SEED);
//! let model = SiteModel::new(&mut rng, &zone, 1000, 1.0);
//! let page = model.page_for(3);
//! let result = load_page(&mut sim, &mut driver, client, &page, &cfg.link);
//! assert_eq!(result.unresolved, 0);
//! assert!(result.makespan > dohmark_netsim::SimDuration::ZERO);
//! ```

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::unwrap_used)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![forbid(unsafe_code)]

use dohmark_doh::{Driver, EndpointId};
use dohmark_netsim::{LinkConfig, Sim, SimDuration, SimTime, Wake};
use dohmark_workload::PageSpec;

/// The analytic cost of fetching a `bytes`-long resource over `link`: one
/// round trip (request out, first byte back) plus serialisation of the
/// body at the link's bandwidth.
///
/// The model is deliberately DNS-transport-independent — every transport
/// pays the same fetch cost per resource — so comparing page-load
/// makespans across [`TransportConfig`](dohmark_doh::TransportConfig)s
/// isolates the contribution of DNS, which is the paper's Figure 2/6
/// methodology.
pub fn fetch_time(link: &LinkConfig, bytes: u32) -> SimDuration {
    link.latency + link.latency + link.serialise(bytes as usize)
}

/// What [`load_page`] measured for one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageLoadResult {
    /// Navigation start to last resource completion. When some resources
    /// never loaded (`unresolved > 0`) this covers only the part of the
    /// tree that did.
    pub makespan: SimDuration,
    /// Distinct domains resolved (one DNS resolution each).
    pub dns_queries: u32,
    /// Sum over domains of the time from query sent to answer in hand.
    pub dns_wait_total: SimDuration,
    /// The slowest single domain resolution.
    pub dns_wait_max: SimDuration,
    /// Total resources in the page.
    pub resources: u32,
    /// Resources that never completed because their domain's resolution
    /// was lost (and, transitively, their whole subtree): the simulation
    /// ran dry with them still gated.
    pub unresolved: u32,
}

/// Per-domain DNS progress inside one [`load_page`] run.
#[derive(Debug, Clone, Copy)]
enum DnsState {
    /// No discoverable resource has needed this domain yet.
    Idle,
    /// Query sent at the recorded time under the recorded transaction id;
    /// resources queue behind it.
    InFlight(SimTime, u16),
    /// Answer in hand; fetches on this domain start immediately.
    Resolved,
}

/// Per-resource progress inside one [`load_page`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ResState {
    /// Parent not finished — the browser has not discovered it yet.
    Blocked,
    /// Discovered, waiting for its domain's DNS resolution.
    WaitingDns,
    /// Fetch timer armed.
    Fetching,
    /// Fetched.
    Done,
}

/// Loads one page through the registered resolver `client`, returning the
/// tree's makespan and DNS accounting. Each resource costs its
/// [`fetch_time`] over `link`: the same access link the DNS traffic uses,
/// since stub and content sit behind one last mile.
///
/// The engine loops over [`Driver::step`], which routes DNS transport
/// traffic, TCP timers and Do53 retransmissions to the endpoint owning
/// them and hands back what nobody owns. Fetch-completion timers are
/// armed here, outside any endpoint callback, so they are exactly the
/// unowned timers that come back; their token is the resource index.
/// Each domain is resolved under the transaction id `client` draws for it,
/// in discovery order.
///
/// The loop ends when every resource is fetched or the simulation runs
/// dry; in the latter case still-gated resources are counted as
/// `unresolved` (a lost resolution on a retry-less transport starves its
/// domain and that domain's whole dependency subtree).
pub fn load_page(
    sim: &mut Sim,
    driver: &mut Driver,
    client: EndpointId,
    page: &PageSpec,
    link: &LinkConfig,
) -> PageLoadResult {
    let n = page.resources.len();
    let n_domains = page.domains.len();

    // The dependency tree, inverted: children[r] lists the resources that
    // become discoverable when r finishes.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (r, res) in page.resources.iter().enumerate() {
        if let Some(p) = res.parent {
            children[p].push(r);
        }
    }

    let start = sim.now();
    let mut loader = Loader {
        client,
        page,
        link,
        res_state: vec![ResState::Blocked; n],
        dns: vec![DnsState::Idle; n_domains],
        dns_waiters: vec![Vec::new(); n_domains],
        done: 0,
        dns_queries: 0,
    };
    let mut last_done = start;
    let mut dns_wait_total = SimDuration::ZERO;
    let mut dns_wait_max = SimDuration::ZERO;

    for r in 0..n {
        if page.resources[r].parent.is_none() {
            loader.discover(sim, driver, r);
        }
    }

    while loader.done < n as u32 {
        let Some((wake, routed)) = driver.step(sim) else { break };
        if let (Wake::AppTimer { token, .. }, false) = (wake, routed) {
            // One of our fetch-completion timers.
            let r = token as usize;
            debug_assert_eq!(loader.res_state[r], ResState::Fetching);
            loader.res_state[r] = ResState::Done;
            loader.done += 1;
            last_done = sim.now();
            for c in std::mem::take(&mut children[r]) {
                loader.discover(sim, driver, c);
            }
            continue;
        }
        // A DNS-transport wake (UDP/TCP readability, retransmission
        // timers, teardown) went to its endpoint: check whether any
        // in-flight resolution just completed.
        for d in 0..n_domains {
            let DnsState::InFlight(sent, txn) = loader.dns[d] else { continue };
            if driver.take_response(client, txn).is_none() {
                continue;
            }
            let wait = sim.now() - sent;
            dns_wait_total = dns_wait_total + wait;
            if wait > dns_wait_max {
                dns_wait_max = wait;
            }
            loader.dns[d] = DnsState::Resolved;
            for r in std::mem::take(&mut loader.dns_waiters[d]) {
                loader.start_fetch(sim, r);
            }
        }
    }

    PageLoadResult {
        makespan: last_done - start,
        dns_queries: loader.dns_queries,
        dns_wait_total,
        dns_wait_max,
        resources: n as u32,
        unresolved: n as u32 - loader.done,
    }
}

/// The mutable browser state one [`load_page`] run threads through
/// discovery: which resources are where in their lifecycle, which domains
/// have resolved, and who queues behind an in-flight resolution.
struct Loader<'a> {
    client: EndpointId,
    page: &'a PageSpec,
    link: &'a LinkConfig,
    res_state: Vec<ResState>,
    dns: Vec<DnsState>,
    /// Resources discovered while their domain's query is in flight.
    dns_waiters: Vec<Vec<usize>>,
    done: u32,
    dns_queries: u32,
}

impl Loader<'_> {
    /// Discovery: called when a resource's parent is done (or at
    /// navigation start for roots). Starts the fetch if the domain is
    /// resolved, otherwise queues behind the domain's (possibly just
    /// issued) resolution.
    fn discover(&mut self, sim: &mut Sim, driver: &mut Driver, r: usize) {
        let d = self.page.resources[r].domain;
        match self.dns[d] {
            DnsState::Resolved => self.start_fetch(sim, r),
            DnsState::InFlight(..) => {
                self.res_state[r] = ResState::WaitingDns;
                self.dns_waiters[d].push(r);
            }
            DnsState::Idle => {
                self.res_state[r] = ResState::WaitingDns;
                self.dns_waiters[d].push(r);
                let txn = driver.send_query(sim, self.client, &self.page.domains[d]);
                self.dns[d] = DnsState::InFlight(sim.now(), txn);
                self.dns_queries += 1;
            }
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the harness's own fetch timer, unowned, so `Driver::step` hands it back here"
    )]
    fn start_fetch(&mut self, sim: &mut Sim, r: usize) {
        self.res_state[r] = ResState::Fetching;
        sim.schedule_app_in(fetch_time(self.link, self.page.resources[r].bytes), r as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dohmark_dns_wire::Name;
    use dohmark_doh::{ReusePolicy, TransportConfig, TransportKind};
    use dohmark_netsim::SimRng;
    use dohmark_workload::{Resource, SiteModel};

    const TEST_SEED: u64 = 77;

    /// A hand-built two-domain page: root HTML on d0 with two children,
    /// one of which pulls a third-party resource on d1 with its own child.
    fn two_domain_page() -> PageSpec {
        let d0 = Name::parse("s1.sites.dohmark.test").unwrap();
        let d1 = Name::parse("d1.s1.sites.dohmark.test").unwrap();
        PageSpec {
            site_rank: 1,
            domains: vec![d0, d1],
            resources: vec![
                Resource { domain: 0, parent: None, bytes: 10_000 },
                Resource { domain: 0, parent: Some(0), bytes: 5_000 },
                Resource { domain: 1, parent: Some(0), bytes: 20_000 },
                Resource { domain: 1, parent: Some(2), bytes: 1_000 },
            ],
        }
    }

    fn harness(cfg: &TransportConfig, seed: u64) -> (Sim, Driver, EndpointId) {
        let mut sim = Sim::new(seed);
        let stub = sim.add_host("stub");
        let resolver = sim.add_host("resolver");
        sim.add_link(stub, resolver, cfg.link);
        let mut driver = Driver::new();
        driver.register(&mut sim, |sim| cfg.build_server(sim, resolver));
        let client = driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver));
        (sim, driver, client)
    }

    #[test]
    fn loads_a_dependency_tree_and_accounts_dns() {
        let cfg = TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh);
        let (mut sim, mut driver, client) = harness(&cfg, TEST_SEED);
        let page = two_domain_page();
        let result = load_page(&mut sim, &mut driver, client, &page, &cfg.link);
        assert_eq!(result.unresolved, 0);
        assert_eq!(result.resources, 4);
        assert_eq!(result.dns_queries, 2, "one resolution per distinct domain");
        assert!(result.dns_wait_total >= result.dns_wait_max);
        assert!(result.dns_wait_max > SimDuration::ZERO);
        // The critical path serialises: DNS(d0) + fetch(0), then in
        // parallel fetch(1) and DNS(d1) + fetch(2) + fetch(3).
        let floor = result.dns_wait_max
            + fetch_time(&cfg.link, 10_000)
            + fetch_time(&cfg.link, 20_000)
            + fetch_time(&cfg.link, 1_000);
        assert!(result.makespan >= floor, "{:?} < {floor:?}", result.makespan);
    }

    #[test]
    fn makespan_respects_dependency_chains_over_width() {
        // A 3-deep chain must take at least 3 fetch round trips; 3
        // siblings of the same sizes fan out and finish sooner.
        let d0 = Name::parse("s2.sites.dohmark.test").unwrap();
        let chain = PageSpec {
            site_rank: 2,
            domains: vec![d0.clone()],
            resources: vec![
                Resource { domain: 0, parent: None, bytes: 1_000 },
                Resource { domain: 0, parent: Some(0), bytes: 1_000 },
                Resource { domain: 0, parent: Some(1), bytes: 1_000 },
            ],
        };
        let wide = PageSpec {
            site_rank: 2,
            domains: vec![d0],
            resources: vec![
                Resource { domain: 0, parent: None, bytes: 1_000 },
                Resource { domain: 0, parent: Some(0), bytes: 1_000 },
                Resource { domain: 0, parent: Some(0), bytes: 1_000 },
            ],
        };
        let cfg = TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh);
        let run = |page: &PageSpec| {
            let (mut sim, mut driver, client) = harness(&cfg, TEST_SEED);
            load_page(&mut sim, &mut driver, client, page, &cfg.link)
        };
        let deep = run(&chain);
        let shallow = run(&wide);
        assert_eq!(deep.unresolved, 0);
        assert_eq!(shallow.unresolved, 0);
        assert!(deep.makespan > shallow.makespan, "{deep:?} vs {shallow:?}");
    }

    #[test]
    fn lost_resolution_starves_the_domain_subtree() {
        // A dead link with a retry-less stub: nothing ever resolves, so
        // the root never fetches and the whole tree is unresolved.
        let mut cfg = TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh);
        cfg.link = cfg.link.loss(1.0);
        let (mut sim, mut driver, client) = harness(&cfg, TEST_SEED);
        let page = two_domain_page();
        let result = load_page(&mut sim, &mut driver, client, &page, &cfg.link);
        assert_eq!(result.unresolved, 4);
        assert_eq!(result.makespan, SimDuration::ZERO);
        // Only d0 was ever discoverable: d1's resources sit behind the
        // root that never loaded.
        assert_eq!(result.dns_queries, 1);
    }

    #[test]
    fn every_transport_loads_model_pages_deterministically() {
        let zone = Name::parse("sites.dohmark.test").unwrap();
        for kind in TransportKind::ALL {
            let cfg = TransportConfig::new(kind, ReusePolicy::Persistent).with_udp_retry();
            let run = || {
                let (mut sim, mut driver, client) = harness(&cfg, TEST_SEED);
                let mut rng = SimRng::new(TEST_SEED);
                let model = SiteModel::new(&mut rng, &zone, 500, 1.0);
                [1usize, 5, 17].map(|rank| {
                    let page = model.page_for(rank);
                    load_page(&mut sim, &mut driver, client, &page, &cfg.link)
                })
            };
            let first = run();
            let second = run();
            assert_eq!(first, second, "{kind:?} not deterministic");
            for r in &first {
                assert_eq!(r.unresolved, 0, "{kind:?}: {r:?}");
                assert!(r.makespan > SimDuration::ZERO);
                assert!(r.dns_queries >= 1 && r.resources >= 1);
            }
        }
    }

    #[test]
    fn fetch_model_charges_round_trip_plus_serialisation() {
        let link = LinkConfig::with_rtt(SimDuration::from_millis(10)).bandwidth_mbps(8);
        // 5 ms out + 5 ms back + 1000 B at 1 B/µs.
        assert_eq!(fetch_time(&link, 1000), SimDuration::from_millis(11));
    }
}
