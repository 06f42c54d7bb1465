//! Query workload generation for the cost experiments.
//!
//! Every generator is fed exclusively by the simulator's seeded
//! [`SimRng`] (obtain independent streams with
//! [`Sim::split_rng`](dohmark_netsim::Sim::split_rng) or
//! [`SimRng::split`]), so whole experiment suites replay bit-for-bit:
//!
//! * [`QuerySchedule`] — one stub's queries: exponentially distributed
//!   inter-arrival gaps (the paper's §3 controlled query process) paired
//!   with constant-length random names under a fixed zone (e.g.
//!   `k7f2q9xw.dohmark.test.`). The paper uses constant-length random
//!   prefixes so every query has identical wire size and
//!   compressibility, making per-resolution byte counts directly
//!   comparable.
//! * [`FleetSchedule`] — many stubs' Poisson arrivals drawing names from
//!   one shared Zipf universe ([`ZipfNames`]).
//! * [`SiteModel`] — Alexa-like pages, the page-load workload. A
//!   [`PageSpec`] holds its site's name, a domain count and its resources;
//!   [`PageSpec::domain`] names a domain when a query needs it.
//!
//! # Surface
//!
//! Those three and what they yield, which `dohmark-bench`'s cells name:
//! [`QuerySchedule`] feeds the transport-matrix cell; [`FleetSchedule`],
//! with the [`ZipfNames`] it draws from, feeds the fleet cell; and
//! [`SiteModel`], with its [`PageSpec`]s of [`Resource`]s, feeds the
//! page-load cell, which names each domain through [`PageSpec::domain`] as
//! it queries it, and Figure 1, which only counts. The workload table
//! reads a [`FleetSchedule`].
//!
//! # Example
//!
//! ```
//! use dohmark_dns_wire::Name;
//! use dohmark_netsim::SimRng;
//! use dohmark_workload::QuerySchedule;
//!
//! let zone = Name::parse("dohmark.test").unwrap();
//! let mut rng = SimRng::new(42);
//! let schedule = QuerySchedule::new(&mut rng, &zone);
//! let queries: Vec<_> = schedule.take(3).collect();
//! // Arrivals only move forward, and every name has the same wire length.
//! assert!(queries.windows(2).all(|pair| pair[0].0 < pair[1].0));
//! assert!(queries.iter().all(|(_, name)| name.wire_len() == queries[0].1.wire_len()));
//! ```

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::unwrap_used)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dohmark_dns_wire::Name;
use dohmark_netsim::{SimDuration, SimRng, SimTime};

/// A complete query workload: Poisson arrival times paired with random
/// names, the `(when, what)` stream every transport-matrix experiment
/// replays identically across its cells. Every name has a random
/// 8-character first label under one zone, so every query encodes to
/// exactly the same wire length.
///
/// ```
/// use dohmark_dns_wire::Name;
/// use dohmark_netsim::SimRng;
/// use dohmark_workload::QuerySchedule;
///
/// let mut rng = SimRng::new(42);
/// let zone = Name::parse("dohmark.test").unwrap();
/// let mut schedule = QuerySchedule::new(&mut rng, &zone);
/// let (at, name) = schedule.next().unwrap();
/// assert!(at.as_nanos() > 0);
/// assert!(name.is_subdomain_of(&zone));
/// ```
#[derive(Debug, Clone)]
pub struct QuerySchedule {
    /// Draws the exponential inter-arrival gaps.
    arrivals: SimRng,
    /// Draws the random first labels.
    names: SimRng,
    zone: Name,
    at: SimTime,
}

impl QuerySchedule {
    /// Split-stream labels used for arrivals and names, so a schedule
    /// built from a simulator's root RNG never perturbs other randomness.
    pub const ARRIVALS_STREAM: u64 = 1;
    /// See [`QuerySchedule::ARRIVALS_STREAM`].
    pub const NAMES_STREAM: u64 = 2;
    /// Mean of the exponential inter-arrival gaps.
    const MEAN_GAP: SimDuration = SimDuration::from_millis(50);
    /// Characters in every name's random first label.
    const LABEL_LEN: usize = 8;

    /// A schedule drawing both streams from `rng` (labels
    /// [`QuerySchedule::ARRIVALS_STREAM`] / [`QuerySchedule::NAMES_STREAM`]):
    /// exponential gaps with a 50 ms mean, names
    /// `<8 random alphanumeric chars>.<zone>`.
    pub fn new(rng: &mut SimRng, zone: &Name) -> QuerySchedule {
        QuerySchedule {
            arrivals: rng.split(QuerySchedule::ARRIVALS_STREAM),
            names: rng.split(QuerySchedule::NAMES_STREAM),
            zone: zone.clone(),
            at: SimTime::ZERO,
        }
    }
}

impl Iterator for QuerySchedule {
    type Item = (SimTime, Name);

    /// The next query: its absolute arrival time and name. Never `None` —
    /// callers `take(n)` what they need.
    fn next(&mut self) -> Option<(SimTime, Name)> {
        self.at += self.arrivals.exp_duration(QuerySchedule::MEAN_GAP);
        let label = self.names.alnum_string(QuerySchedule::LABEL_LEN);
        Some((self.at, self.zone.child(&label).expect("alnum label under a valid zone is valid")))
    }
}

/// Zipf-distributed name popularity over a fixed, shared name universe —
/// the workload shape that makes a shared resolver cache pay off.
///
/// The universe is the deterministic set `w0000000.<zone>` …
/// `w<N-1>.<zone>` (constant-width labels, so — like a
/// [`QuerySchedule`]'s — every query encodes to exactly the same wire
/// length). Rank `r` (0-based) is drawn with probability proportional
/// to `1 / (r + 1)^s`; smaller
/// universes and larger exponents concentrate queries on few names and
/// drive the cache-hit ratio up, which is exactly the knob the
/// `fig_cache_hit_cost` experiment sweeps.
///
/// The cumulative-weight table is built once per `(universe, exponent)`
/// per process: every sampler (and every [`SiteModel`]) with that key
/// holds the same immutable table, kept for the life of the process at
/// 8 bytes per name.
#[derive(Debug, Clone)]
pub struct ZipfNames {
    rng: SimRng,
    zone: Name,
    /// Normalised cumulative weights; `cdf[r]` = P(rank ≤ r).
    cdf: Arc<[f64]>,
}

impl ZipfNames {
    /// Width of the digit part of every label (`w` + 7 digits = 8 chars,
    /// matching [`QuerySchedule::LABEL_LEN`]).
    const DIGITS: usize = 7;

    /// A sampler over `universe` names under `zone` with Zipf exponent
    /// `exponent` (1.0 is the classic web/DNS value). `universe` is capped
    /// to the `10^7` names the label width can express.
    pub fn new(rng: SimRng, zone: &Name, universe: usize, exponent: f64) -> ZipfNames {
        let universe = universe.clamp(1, 10usize.pow(ZipfNames::DIGITS as u32));
        ZipfNames { rng, zone: zone.clone(), cdf: zipf_cdf(universe, exponent) }
    }

    /// The `rank`-th (0-based, most popular first) name of the universe.
    fn name_for(&self, rank: usize) -> Name {
        numbered_child(&self.zone, b'w', rank, ZipfNames::DIGITS)
    }

    /// The wire length every sampled name encodes to (uncompressed).
    pub fn wire_len(&self) -> usize {
        self.zone.wire_len() + 2 + ZipfNames::DIGITS
    }

    /// Samples the next name.
    pub fn next_name(&mut self) -> Name {
        let u = self.rng.next_f64();
        self.name_for(zipf_sample(&self.cdf, u))
    }
}

/// The child `<prefix><n>.<parent>` of `parent`, `n` written in decimal and
/// zero-padded to at least `width` digits: `w0000042`, `s7`, `d3`. The
/// label is spelled in a stack buffer, so the name is the one allocation.
fn numbered_child(parent: &Name, prefix: u8, mut n: usize, width: usize) -> Name {
    // The prefix and `usize::MAX`'s 20 digits.
    let mut buf = [0u8; 21];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 && buf.len() - at >= width {
            break;
        }
    }
    at -= 1;
    buf[at] = prefix;
    let label = std::str::from_utf8(&buf[at..]).expect("a letter and digits are ASCII");
    parent.child(label).expect("a short numbered label under a valid name is valid")
}

/// Normalised cumulative Zipf weights over `universe` ranks:
/// `cdf[r] = P(rank ≤ r)` with rank `r` weighted `1 / (r + 1)^exponent`.
///
/// One table per `(universe, exponent)` per process: the first call
/// builds it, every later call with the same key gets the same `Arc`.
/// An inserted table is never mutated or evicted. A table costs 8 bytes
/// per rank — 8 MB at [`SiteModel`]'s 10⁶-site clamp, 80 MB at
/// [`ZipfNames`]' 10⁷-name clamp.
fn zipf_cdf(universe: usize, exponent: f64) -> Arc<[f64]> {
    /// Tables keyed by `(universe, exponent.to_bits())`.
    type Tables = BTreeMap<(usize, u64), Arc<[f64]>>;
    static TABLES: Mutex<Tables> = Mutex::new(BTreeMap::new());
    // A build that panics inserts nothing, so a poisoned map is still whole.
    let mut tables = TABLES.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    Arc::clone(
        tables
            .entry((universe, exponent.to_bits()))
            .or_insert_with(|| build_zipf_cdf(universe, exponent).into()),
    )
}

/// The table [`zipf_cdf`] shares, built afresh.
fn build_zipf_cdf(universe: usize, exponent: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(universe);
    let mut total = 0.0;
    for rank in 0..universe {
        total += 1.0 / ((rank + 1) as f64).powf(exponent);
        cdf.push(total);
    }
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// Inverts a [`zipf_cdf`] at the uniform draw `u`.
fn zipf_sample(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// A multi-client workload: every stub client gets its own Poisson arrival
/// process while all of them draw names from **one** shared Zipf universe
/// — so what client A resolved a moment ago is disproportionately likely
/// to be what client B asks next, and a resolver cache shared across the
/// fleet pays off.
#[derive(Debug, Clone)]
pub struct FleetSchedule {
    /// The merged query stream: `(arrival time, client index, name)`,
    /// sorted by time (ties broken by client index).
    pub queries: Vec<(SimTime, usize, Name)>,
}

impl FleetSchedule {
    /// Split-stream label for the per-client arrival processes (client
    /// `i` uses sub-stream `i`).
    pub const ARRIVALS_STREAM: u64 = 3;
    /// Split-stream label for the shared Zipf name draw.
    pub const ZIPF_STREAM: u64 = 4;

    /// Generates the full schedule: `clients` Poisson processes with mean
    /// gap `mean_gap` and `queries_per_client` queries each, names drawn
    /// in global arrival order from a shared [`ZipfNames`] universe of
    /// `universe` names under `zone` with the given `exponent`.
    ///
    /// Deterministic in `rng`: the per-client arrival streams and the name
    /// stream are independent splits, so the same seed replays the same
    /// schedule bit for bit regardless of how the caller consumed `rng`
    /// elsewhere.
    pub fn generate(
        rng: &mut SimRng,
        clients: usize,
        mean_gap: SimDuration,
        queries_per_client: usize,
        zone: &Name,
        universe: usize,
        exponent: f64,
    ) -> FleetSchedule {
        let mut arrivals_parent = rng.split(FleetSchedule::ARRIVALS_STREAM);
        let mut queries = Vec::with_capacity(clients * queries_per_client);
        for client in 0..clients {
            let mut arrivals = arrivals_parent.split(client as u64);
            let mut at = SimTime::ZERO;
            for _ in 0..queries_per_client {
                at += arrivals.exp_duration(mean_gap);
                queries.push((at, client));
            }
        }
        // Deterministic global time order; client index breaks exact
        // ties, so equal elements are identical tuples and instability
        // cannot reorder observable bytes.
        queries.sort_unstable();
        // Names are drawn in arrival order from the one shared universe:
        // popularity is a property of the *workload*, not of any client.
        let mut names =
            ZipfNames::new(rng.split(FleetSchedule::ZIPF_STREAM), zone, universe, exponent);
        let queries =
            queries.into_iter().map(|(at, client)| (at, client, names.next_name())).collect();
        FleetSchedule { queries }
    }

    /// Total query count.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The number of distinct names actually queried — the lower bound on
    /// compulsory cache misses.
    pub fn distinct_names(&self) -> usize {
        let mut names: Vec<&Name> = self.queries.iter().map(|(_, _, n)| n).collect();
        // Any total order consistent with `Eq` makes equal names adjacent,
        // which is all `dedup` needs.
        names.sort();
        names.dedup();
        names.len()
    }
}

/// One resource of a page's dependency tree: a fetch on one of the
/// page's domains, startable only once its parent resource finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resource {
    /// The domain the fetch needs a DNS answer for: an index below
    /// [`PageSpec::domains`], named by [`PageSpec::domain`].
    pub domain: usize,
    /// Index of the resource that references this one (`None` only for
    /// the root document, resource 0). Always an *earlier* index, so the
    /// resource list is a topological order of the tree.
    pub parent: Option<usize>,
    /// Response body size of the fetch.
    pub bytes: u32,
}

/// One page load: the domains it touches and the dependency tree of
/// resources spread over them. A browser with a per-page DNS cache
/// issues exactly one resolution per domain — the paper's Figure 1
/// "DNS queries per page" quantity.
///
/// A page stores its site's name once; [`PageSpec::domain`] names each
/// domain from it when a query needs the name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageSpec {
    /// Popularity rank of the site this page belongs to (0 = most
    /// popular). The page shape is a deterministic function of the rank.
    pub site_rank: usize,
    /// The site's own name: domain 0, the primary domain serving the root
    /// document, and the parent of every other domain.
    pub site: Name,
    /// How many distinct domains the page's resources fan out over.
    pub domains: usize,
    /// The dependency tree in topological (discovery) order; resource 0
    /// is the root document on domain 0.
    pub resources: Vec<Resource>,
}

impl PageSpec {
    /// DNS resolutions a per-page-cached browser issues: one per domain.
    pub fn dns_queries(&self) -> usize {
        self.domains
    }

    /// The name of domain `d` (below [`PageSpec::domains`]): the site
    /// itself for 0, `d<d>.<site>` for every other.
    pub fn domain(&self, d: usize) -> Name {
        assert!(d < self.domains, "domain {d} of a {}-domain page", self.domains);
        if d == 0 {
            self.site.clone()
        } else {
            numbered_child(&self.site, b'd', d, 1)
        }
    }

    /// Depth of the dependency tree (the root document is depth 0): the
    /// most parent hops from any resource to a root. Panics on a parent
    /// that is not an earlier resource, which could make a cycle.
    pub fn depth(&self) -> usize {
        (0..self.resources.len())
            .map(|mut r| {
                let mut hops = 0;
                while let Some(parent) = self.resources[r].parent {
                    assert!(parent < r, "resource {r}'s parent {parent} is not earlier");
                    r = parent;
                    hops += 1;
                }
                hops
            })
            .max()
            .unwrap_or(0)
    }
}

/// An Alexa-like site universe: Zipf-distributed site popularity, and a
/// deterministic per-site page shape — how many domains the page fans
/// out over, how many resources each serves, and how those resources
/// depend on each other.
///
/// Popularity and shape draw from independent [`SimRng::split`] streams
/// of the constructor's rng, and each site's shape derives from its
/// *rank* alone — so `page_for(rank)` replays bit for bit no matter how
/// many pages were sampled before it, and two experiment cells visiting
/// the same site load the identical page.
///
/// The shape distributions target the paper's Figure 1: most pages touch
/// a handful of domains, the tail stretches to dozens (mean ≈ 8), and
/// each domain serves a few resources of
/// lognormal-distributed size.
///
/// Each site's page is built once per model, on its first draw by
/// [`SiteModel::next_page`], and kept: the memo grows with the distinct
/// ranks drawn, never past `sites` pages. The Zipf table is shared by
/// every model with the same `(sites, exponent)` in the process.
#[derive(Debug, Clone)]
pub struct SiteModel {
    zone: Name,
    /// Normalised cumulative Zipf weights over site ranks.
    cdf: Arc<[f64]>,
    /// Pages built so far, by rank: `pages[r] == page_for(r)`.
    pages: BTreeMap<usize, PageSpec>,
    /// Which site each [`SiteModel::next_page`] visits.
    rank_rng: SimRng,
    /// Parent stream of the per-rank shape streams.
    shape_base: SimRng,
}

impl SiteModel {
    /// Split-stream label for the site-popularity draw.
    pub const RANK_STREAM: u64 = 5;
    /// Split-stream label the per-rank page shapes derive from.
    pub const SHAPE_STREAM: u64 = 6;

    /// Hard cap on domains per page — bounds the DNS fan-out (and the
    /// transaction-id budget a harness must reserve per page).
    const MAX_DOMAINS: usize = 64;
    /// Mean of the exponential extra-domain count (domains = 1 + extra).
    const MEAN_EXTRA_DOMAINS: f64 = 7.0;
    /// Mean of the exponential extra-resource count per domain.
    const MEAN_EXTRA_RESOURCES: f64 = 2.0;
    /// Lognormal mu of per-resource body bytes.
    const BYTES_MU: f64 = 9.5;
    /// Lognormal sigma of per-resource body bytes.
    const BYTES_SIGMA: f64 = 1.0;
    /// Hard cap on resources per domain.
    const MAX_RESOURCES_PER_DOMAIN: usize = 12;
    /// Resource slots a page reserves per domain: the mean count, 1 +
    /// [`SiteModel::MEAN_EXTRA_RESOURCES`], not the cap, since the memo
    /// keeps every page. About four pages in five fit without growing.
    const RESERVED_RESOURCES_PER_DOMAIN: usize = 3;
    /// Hard cap on dependency depth; deeper picks re-parent to the root.
    const MAX_DEPTH: usize = 5;
    /// Body-size clamp, in bytes.
    const BYTES_RANGE: (f64, f64) = (200.0, 2_000_000.0);

    /// A model of `sites` sites under `zone` with Zipf popularity
    /// exponent `exponent` and the Figure-1-like shape distributions. Draws two independent streams
    /// ([`SiteModel::RANK_STREAM`], [`SiteModel::SHAPE_STREAM`]) from
    /// `rng`.
    pub fn new(rng: &mut SimRng, zone: &Name, sites: usize, exponent: f64) -> SiteModel {
        let sites = sites.clamp(1, 1_000_000);
        SiteModel {
            zone: zone.clone(),
            cdf: zipf_cdf(sites, exponent),
            pages: BTreeMap::new(),
            rank_rng: rng.split(SiteModel::RANK_STREAM),
            shape_base: rng.split(SiteModel::SHAPE_STREAM),
        }
    }

    /// The page of the `rank`-th most popular site — a pure function of
    /// the model seed and `rank`.
    pub fn page_for(&self, rank: usize) -> PageSpec {
        SiteModel::build_page(&self.zone, &self.shape_base, rank.min(self.cdf.len() - 1))
    }

    /// The page of site `rank` under `zone`, its shape drawn from the
    /// rank's split of `shape_base`. Its allocations are the site's name
    /// and the resource list, which one page in five grows.
    fn build_page(zone: &Name, shape_base: &SimRng, rank: usize) -> PageSpec {
        let mut rng = shape_base.clone().split(rank as u64);
        let extra_domains =
            (rng.exp_f64(SiteModel::MEAN_EXTRA_DOMAINS) as usize).min(SiteModel::MAX_DOMAINS - 1);
        let domains = 1 + extra_domains;

        let mut resources = Vec::with_capacity(domains * SiteModel::RESERVED_RESOURCES_PER_DOMAIN);
        resources.push(Resource {
            domain: 0,
            parent: None,
            bytes: SiteModel::draw_bytes(&mut rng),
        });
        // Each resource's depth, by index: no page holds more resources.
        let mut depth = [0u8; SiteModel::MAX_DOMAINS * SiteModel::MAX_RESOURCES_PER_DOMAIN];
        for domain in 0..domains {
            let extra = (rng.exp_f64(SiteModel::MEAN_EXTRA_RESOURCES) as usize)
                .min(SiteModel::MAX_RESOURCES_PER_DOMAIN - 1);
            // Domain 0 already serves the root document; every other
            // domain serves at least one resource (that's what makes it
            // part of the page).
            let count = if domain == 0 { extra } else { 1 + extra };
            for _ in 0..count {
                let pick = rng.below(resources.len() as u64) as usize;
                let parent =
                    if usize::from(depth[pick]) >= SiteModel::MAX_DEPTH { 0 } else { pick };
                depth[resources.len()] = depth[parent] + 1;
                resources.push(Resource {
                    domain,
                    parent: Some(parent),
                    bytes: SiteModel::draw_bytes(&mut rng),
                });
            }
        }
        let site = numbered_child(zone, b's', rank, 1);
        PageSpec { site_rank: rank, site, domains, resources }
    }

    /// Samples the next page visit: a Zipf draw over site ranks, then
    /// that site's deterministic page. The page is built by
    /// [`SiteModel::page_for`] on the rank's first draw and borrowed from
    /// the model's memo on every later one, so memory grows with the
    /// distinct ranks drawn (at most `sites` pages).
    pub fn next_page(&mut self) -> &PageSpec {
        let u = self.rank_rng.next_f64();
        let rank = zipf_sample(&self.cdf, u);
        let (zone, shape_base) = (&self.zone, &self.shape_base);
        self.pages.entry(rank).or_insert_with(|| SiteModel::build_page(zone, shape_base, rank))
    }

    fn draw_bytes(rng: &mut SimRng) -> u32 {
        let (lo, hi) = SiteModel::BYTES_RANGE;
        rng.lognormal(SiteModel::BYTES_MU, SiteModel::BYTES_SIGMA).clamp(lo, hi) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone() -> Name {
        Name::parse("dohmark.test").unwrap()
    }

    /// A schedule under `seed`.
    fn schedule(seed: u64) -> QuerySchedule {
        QuerySchedule::new(&mut SimRng::new(seed), &zone())
    }

    #[test]
    fn arrivals_have_roughly_the_configured_mean() {
        let n = 20_000;
        let (last, _) = schedule(1).nth(n - 1).unwrap();
        let mean = last.as_nanos() / n as u64;
        let target = SimDuration::from_millis(50).as_nanos();
        assert!(
            (mean as i64 - target as i64).unsigned_abs() < target / 20,
            "mean {mean} vs target {target}"
        );
    }

    #[test]
    fn names_have_constant_wire_length() {
        // A length byte and the 8-char label in front of the zone.
        let expected = zone().wire_len() + 1 + 8;
        for (_, n) in schedule(3).take(50) {
            assert_eq!(n.wire_len(), expected);
            assert_eq!(n.labels().next().unwrap().len(), 8);
            assert!(n.is_subdomain_of(&zone()));
        }
    }

    #[test]
    fn schedule_is_monotone_and_replays_bit_for_bit() {
        let take = |seed: u64| schedule(seed).take(50).collect::<Vec<_>>();
        let a = take(3);
        assert_eq!(a, take(3));
        let (at_a, names_a): (Vec<_>, Vec<_>) = a.iter().cloned().unzip();
        let (at_b, names_b): (Vec<_>, Vec<_>) = take(4).into_iter().unzip();
        assert_ne!(at_a, at_b, "another seed, other arrivals");
        assert_ne!(names_a, names_b, "another seed, other names");
        for pair in a.windows(2) {
            assert!(pair[0].0 < pair[1].0, "arrival times must increase");
        }
    }

    #[test]
    fn split_streams_are_independent() {
        // Gaps and names each come from their own split of the parent:
        // a stream that never drew a name spells the arrivals, and one
        // that never drew a gap spells the names.
        let mut parent = SimRng::new(9);
        let schedule = QuerySchedule::new(&mut parent.clone(), &zone());
        let mut arrivals = parent.split(QuerySchedule::ARRIVALS_STREAM);
        let mut names = parent.split(QuerySchedule::NAMES_STREAM);
        let mut at = SimTime::ZERO;
        for (got_at, got_name) in schedule.take(20) {
            at += arrivals.exp_duration(QuerySchedule::MEAN_GAP);
            assert_eq!(got_at, at);
            assert_eq!(got_name, zone().child(&names.alnum_string(8)).unwrap());
        }
    }

    #[test]
    fn zipf_names_are_skewed_constant_width_and_deterministic() {
        let draw = |seed: u64| {
            let mut z = ZipfNames::new(SimRng::new(seed), &zone(), 100, 1.0);
            (0..2000).map(|_| z.next_name().to_string()).collect::<Vec<_>>()
        };
        let a = draw(5);
        assert_eq!(a, draw(5), "same seed, same stream");
        assert_ne!(a, draw(6));
        let z = ZipfNames::new(SimRng::new(5), &zone(), 100, 1.0);
        let top = a.iter().filter(|n| **n == z.name_for(0).to_string()).count();
        let mid = a.iter().filter(|n| **n == z.name_for(49).to_string()).count();
        assert!(top > 5 * mid.max(1), "rank 0 ({top}) must dwarf rank 49 ({mid})");
        for n in a.iter().take(50) {
            assert_eq!(Name::parse(n).unwrap().wire_len(), z.wire_len());
        }
    }

    #[test]
    fn zipf_universe_bounds_the_name_set() {
        let mut z = ZipfNames::new(SimRng::new(1), &zone(), 5, 1.0);
        let mut seen: Vec<String> = (0..500).map(|_| z.next_name().to_string()).collect();
        seen.sort();
        seen.dedup();
        assert!(seen.len() <= 5);
        assert_eq!(seen.len(), 5, "500 draws over 5 names should hit all of them");
    }

    #[test]
    fn fleet_schedule_is_sorted_deterministic_and_shares_the_universe() {
        let gen = |seed: u64| {
            let mut rng = SimRng::new(seed);
            FleetSchedule::generate(&mut rng, 50, SimDuration::from_millis(20), 4, &zone(), 30, 1.0)
        };
        let a = gen(9);
        assert_eq!(a.queries, gen(9).queries, "same seed, same schedule");
        assert_ne!(a.queries, gen(10).queries);
        assert_eq!(a.len(), 50 * 4);
        for pair in a.queries.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "arrival times must be sorted");
        }
        // Every client queries, and the shared universe bounds the names.
        let clients: std::collections::BTreeSet<usize> =
            a.queries.iter().map(|&(_, c, _)| c).collect();
        assert_eq!(clients.len(), 50);
        assert!(a.distinct_names() <= 30);
    }

    #[test]
    fn smaller_universes_mean_fewer_distinct_names() {
        let distinct = |universe: usize| {
            let mut rng = SimRng::new(3);
            FleetSchedule::generate(
                &mut rng,
                20,
                SimDuration::from_millis(10),
                10,
                &zone(),
                universe,
                1.0,
            )
            .distinct_names()
        };
        assert!(distinct(5) < distinct(1000), "universe 5 must repeat names more");
    }

    #[test]
    fn distinct_names_folds_repeats_whatever_their_order_or_spelling() {
        // Repeats scattered through the schedule, one name spelled three
        // ways, and two names whose wire forms differ only in where the
        // label boundary falls.
        let spelled = [
            "b.dohmark.test",
            "a.dohmark.test",
            "B.Dohmark.Test",
            "c.dohmark.test",
            "a.dohmark.test.",
            "ab.dohmark.test",
            "b.DOHMARK.test",
            "a.b.dohmark.test",
            "c.dohmark.test",
            ".",
        ];
        let queries = spelled
            .iter()
            .enumerate()
            .map(|(i, s)| (SimTime::ZERO, i, Name::parse(s).unwrap()))
            .collect();
        let schedule = FleetSchedule { queries };
        assert_eq!(schedule.distinct_names(), 6);
        assert_eq!(FleetSchedule { queries: Vec::new() }.distinct_names(), 0);
    }

    #[test]
    fn site_pages_are_well_formed_dependency_trees() {
        let mut rng = SimRng::new(11);
        let mut model = SiteModel::new(&mut rng, &zone(), 200, 1.0);
        for _ in 0..50 {
            let page = model.next_page();
            assert!((1..=SiteModel::MAX_DOMAINS).contains(&page.domains));
            assert_eq!(page.dns_queries(), page.domains);
            assert_eq!(page.resources[0].parent, None, "resource 0 is the root document");
            assert_eq!(page.resources[0].domain, 0);
            let mut touched = vec![false; page.domains];
            for (i, r) in page.resources.iter().enumerate() {
                touched[r.domain] = true;
                assert!(r.bytes >= 200);
                if let Some(p) = r.parent {
                    assert!(p < i, "parents precede children (topological order)");
                } else {
                    assert_eq!(i, 0, "only the root lacks a parent");
                }
            }
            assert!(touched.iter().all(|&t| t), "every listed domain serves a resource");
            assert!(page.depth() <= SiteModel::MAX_DEPTH);
            for d in 0..page.domains {
                assert!(page.domain(d).is_subdomain_of(&zone()));
            }
        }
    }

    #[test]
    fn page_domains_are_the_names_format_spells() {
        for sites in [1, 100, 10_000] {
            for seed in 1..=4 {
                let mut model = SiteModel::new(&mut SimRng::new(seed), &zone(), sites, 1.0);
                for _ in 0..200 {
                    let page = model.next_page();
                    let rank = page.site_rank;
                    let mut names = Vec::with_capacity(page.domains);
                    for d in 0..page.domains {
                        let spelled = match d {
                            0 => format!("s{rank}.dohmark.test"),
                            _ => format!("d{d}.s{rank}.dohmark.test"),
                        };
                        let name = page.domain(d);
                        assert_eq!(
                            name,
                            Name::parse(&spelled).unwrap(),
                            "sites={sites} seed={seed}"
                        );
                        assert!(name.is_subdomain_of(&zone()) && name != zone());
                        names.push(name);
                    }
                    assert_eq!(page.site, names[0]);
                    names.sort();
                    names.dedup();
                    assert_eq!(names.len(), page.domains, "sites={sites} seed={seed} rank={rank}");
                }
            }
        }
        let z = ZipfNames::new(SimRng::new(1), &zone(), 10_000_000, 1.0);
        for rank in [0, 7, 42, 1_234_567, 9_999_999] {
            assert_eq!(z.name_for(rank), zone().child(&format!("w{rank:07}")).unwrap());
        }
    }

    /// Depth by a vector of per-resource depths, as a reference.
    fn reference_depth(page: &PageSpec) -> usize {
        let mut depth = vec![0usize; page.resources.len()];
        for (i, r) in page.resources.iter().enumerate() {
            if let Some(p) = r.parent {
                depth[i] = depth[p] + 1;
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn depth_matches_a_vector_reference() {
        let mut deepest = 0;
        for seed in 1..=8 {
            let model = SiteModel::new(&mut SimRng::new(seed), &zone(), 1000, 1.0);
            for rank in 0..200 {
                let page = model.page_for(rank);
                assert_eq!(page.depth(), reference_depth(&page), "seed {seed} rank {rank}");
                deepest = deepest.max(page.depth());
            }
        }
        assert_eq!(deepest, SiteModel::MAX_DEPTH, "some model page reaches the depth cap");

        // Hand-built pages past the cap: one chain (stride 1), and two
        // interleaved chains from two roots (stride 2).
        let site = zone().child("s0").unwrap();
        let hand_built =
            |resources| PageSpec { site_rank: 0, site: site.clone(), domains: 1, resources };
        for len in [0, 1, 2, SiteModel::MAX_DEPTH + 1, 3 * SiteModel::MAX_DEPTH, 200] {
            for stride in [1, 2] {
                let chain = (0..len).map(|i| Resource {
                    domain: 0,
                    parent: i.checked_sub(stride),
                    bytes: 1,
                });
                let page = hand_built(chain.collect());
                assert_eq!(page.depth(), reference_depth(&page), "len {len} stride {stride}");
                assert_eq!(
                    page.depth(),
                    len.saturating_sub(1) / stride,
                    "len {len} stride {stride}"
                );
            }
        }
        let cycle = [None, Some(2), Some(1)].map(|parent| Resource { domain: 0, parent, bytes: 1 });
        let page = hand_built(cycle.to_vec());
        assert!(std::panic::catch_unwind(|| page.depth()).is_err(), "a cycle panics, not hangs");
    }

    #[test]
    fn page_shape_depends_only_on_rank_not_on_sampling_history() {
        let mut rng1 = SimRng::new(4);
        let model1 = SiteModel::new(&mut rng1, &zone(), 100, 1.0);
        let mut rng2 = SimRng::new(4);
        let mut model2 = SiteModel::new(&mut rng2, &zone(), 100, 1.0);
        // Drain model2's popularity stream; shapes must be unaffected.
        for _ in 0..40 {
            model2.next_page();
        }
        for rank in [0, 1, 17, 99] {
            assert_eq!(model1.page_for(rank), model2.page_for(rank));
        }
        assert_ne!(model1.page_for(0), model1.page_for(1), "different sites, different pages");
        let mut rng3 = SimRng::new(5);
        let model3 = SiteModel::new(&mut rng3, &zone(), 100, 1.0);
        assert_ne!(model1.page_for(0), model3.page_for(0), "different seeds, different shapes");
    }

    #[test]
    fn next_page_returns_page_for_of_each_drawn_rank() {
        for sites in [1, 50, 10_000] {
            let mut model = SiteModel::new(&mut SimRng::new(21), &zone(), sites, 1.0);
            let fresh = SiteModel::new(&mut SimRng::new(21), &zone(), sites, 1.0);
            // The rank stream, recomputed from its own split over a
            // freshly built table, bypassing both memos.
            let cdf = build_zipf_cdf(sites, 1.0);
            let mut rank_rng = SimRng::new(21).split(SiteModel::RANK_STREAM);
            let mut repeats = 0;
            let mut seen = std::collections::BTreeSet::new();
            for _ in 0..2000 {
                let page = model.next_page();
                assert_eq!(page.site_rank, zipf_sample(&cdf, rank_rng.next_f64()));
                assert_eq!(*page, fresh.page_for(page.site_rank), "sites={sites}");
                repeats += usize::from(!seen.insert(page.site_rank));
            }
            assert!(repeats > 0, "sites={sites}: the memo must serve some repeat draws");
            assert_eq!(model.pages.len(), seen.len(), "sites={sites}: one page per drawn rank");
        }
    }

    #[test]
    fn zipf_tables_are_shared_and_bit_identical_to_a_fresh_build() {
        // A key no other test uses, so no concurrently running test
        // shares these tables.
        let (sites, exponent) = (777, 0.93);
        let a = SiteModel::new(&mut SimRng::new(1), &zone(), sites, exponent);
        let b = SiteModel::new(&mut SimRng::new(2), &zone(), sites, exponent);
        assert!(Arc::ptr_eq(&a.cdf, &b.cdf), "equal (sites, exponent) share one table");
        let names = ZipfNames::new(SimRng::new(3), &zone(), sites, exponent);
        assert!(Arc::ptr_eq(&a.cdf, &names.cdf), "ZipfNames draws from the same table");

        let wider = SiteModel::new(&mut SimRng::new(1), &zone(), sites + 1, exponent);
        let steeper = SiteModel::new(&mut SimRng::new(1), &zone(), sites, exponent + 0.01);
        assert!(!Arc::ptr_eq(&a.cdf, &wider.cdf) && !Arc::ptr_eq(&a.cdf, &steeper.cdf));
        assert_eq!(wider.cdf.len(), sites + 1);

        let fresh = build_zipf_cdf(sites, exponent);
        assert_eq!(a.cdf.len(), fresh.len());
        for (rank, (shared, built)) in a.cdf.iter().zip(&fresh).enumerate() {
            assert_eq!(shared.to_bits(), built.to_bits(), "rank {rank}");
        }
    }

    #[test]
    fn site_popularity_is_zipf_skewed_and_domain_counts_have_a_tail() {
        let mut rng = SimRng::new(7);
        let mut model = SiteModel::new(&mut rng, &zone(), 50, 1.0);
        let ranks: Vec<usize> = (0..2000).map(|_| model.next_page().site_rank).collect();
        let top = ranks.iter().filter(|&&r| r == 0).count();
        let mid = ranks.iter().filter(|&&r| r == 25).count();
        assert!(top > 5 * mid.max(1), "rank 0 ({top}) must dwarf rank 25 ({mid})");

        let counts: Vec<usize> = (0..200).map(|r| model.page_for(r).dns_queries()).collect();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!((2.0..20.0).contains(&mean), "mean domains/page {mean} out of range");
        assert!(counts.contains(&1), "some pages stay on one domain");
        assert!(counts.iter().any(|&c| c > 15), "the domain fan-out must have a tail");
    }
}
