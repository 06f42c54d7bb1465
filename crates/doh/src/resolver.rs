//! The caching recursive resolver, and [`ServerBackend`]: the data that
//! tells a transport server (Do53, DoT, DoH-h1, DoH-h2) to serve either
//! authoritative [`Zone`] answers or cached/recursive ones.
//!
//! A [`RecursiveResolver`] sits behind one transport server and is shared
//! by **all** client sessions of that server: answers fetched for one stub
//! warm the cache for every other stub, which is exactly the effect the
//! `fig_cache_hit_cost` experiment measures. On a cache miss the resolver
//! queries its upstream authoritative server over plain Do53 (the common
//! deployment shape: encrypted stub-to-recursive, UDP recursive-to-
//! authoritative), coalescing concurrent identical questions into one
//! upstream fetch. The upstream is a [`Do53Client`], the stubs' own Do53
//! client: each fetch goes out from a fresh source port (RFC 5452 §9.2)
//! and is resent on TCP's RTO schedule (RFC 1035 §4.2.1), so a lost
//! upstream datagram delays a fetch rather than losing it. A dead upstream
//! means SERVFAIL: once the client gives up on a fetch, every query waiting
//! on it is answered [`Rcode::ServFail`], nothing is cached, and the next
//! miss for the name fetches afresh.
//!
//! The resolver's events flow through the one instrument experiments
//! already read, the [`CostMeter`](dohmark_netsim::CostMeter)'s typed
//! [`Counters`](dohmark_netsim::Counters): `cache_hit`, `cache_miss`,
//! `coalesced_queries` and `upstream_queries`. The upstream leg's bytes are the simulator's to
//! count: [`Sim::link_bytes`] over the resolver↔upstream link pair.

use crate::cache::DnsCache;
use crate::do53::Do53Client;
use crate::transport::{TransportConfig, TransportKind};
use crate::zone::Zone;
use crate::{Endpoint, Resolver};
use dohmark_dns_wire::{Message, Name, Rcode, RecordType};
use dohmark_netsim::{HostId, Sim, Wake};

/// The resolver's cache capacity, in entries: a bound on memory that no
/// experiment reaches, so the cap never drops an entry. The widest
/// `fig_cache_hit_cost` cell (1 000 clients over a 4 000-name universe)
/// holds at most 747 entries over seeds 1–4.
const CACHE_CAPACITY: usize = 1 << 16;

/// One outstanding upstream fetch, with every stub query waiting on it.
#[derive(Debug)]
struct PendingFetch<W> {
    key: (Name, RecordType),
    /// The transaction id the upstream [`Do53Client`] drew for the fetch,
    /// which its answer is taken by: stub ids are unique per stub only, so
    /// two stubs' queries may carry the same one.
    upstream_id: u16,
    /// Parked stub queries: where each one's answer goes, and the original
    /// query (whose header id the answer must echo).
    waiters: Vec<(W, Message)>,
}

/// A caching recursive resolver: a TTL-driven cache of positive answers in
/// front of one Do53 upstream; negative answers (RFC 2308) are forwarded
/// and not stored. `W` is where a parked query's
/// answer goes: a datagram's return address for Do53, a connection and
/// slot for the stream transports.
#[derive(Debug)]
pub(crate) struct RecursiveResolver<W> {
    upstream: Do53Client,
    cache: DnsCache,
    pending: Vec<PendingFetch<W>>,
}

impl<W: PartialEq> RecursiveResolver<W> {
    /// Answers `query` from the cache, or parks it (returning `None`)
    /// behind an upstream fetch whose completion [`Self::poll`] will
    /// surface with `waiter` attached. A resend of a query already parked
    /// on the fetch (same waiter, same transaction id) is dropped: the
    /// fetch answers it once, and no counter moves.
    fn resolve(&mut self, sim: &mut Sim, query: &Message, waiter: W) -> Option<Message> {
        let Some(q) = query.question() else {
            return Some(Message::response(query, Rcode::FormErr, Vec::new()));
        };
        if let Some(records) = self.cache.get(&q.name, q.qtype, sim.now()) {
            sim.meter.counters.cache_hit += 1;
            return Some(Message::response(query, Rcode::NoError, records));
        }
        let key = (q.name.clone(), q.qtype);
        let fetch = self.pending.iter_mut().find(|f| f.key == key);
        let parked = |(w, q): &(W, Message)| *w == waiter && q.header.id == query.header.id;
        if fetch.as_ref().is_some_and(|f| f.waiters.iter().any(parked)) {
            return None;
        }
        sim.meter.counters.cache_miss += 1;
        if let Some(fetch) = fetch {
            // An identical question is already in flight: coalesce.
            sim.meter.counters.coalesced_queries += 1;
            fetch.waiters.push((waiter, query.clone()));
            return None;
        }
        sim.meter.counters.upstream_queries += 1;
        let upstream_id = self.upstream.send(sim, &key.0, key.1);
        self.pending.push(PendingFetch {
            key,
            upstream_id,
            waiters: vec![(waiter, query.clone())],
        });
        None
    }

    /// Hands `wake` to the upstream client (its sockets' answers, its
    /// resend timers), then returns the `(waiter, response)` pairs of
    /// every fetch that ended, each response carrying its own stub query's
    /// transaction id: the upstream's answer, or SERVFAIL for a fetch the
    /// client gave up on.
    fn poll(&mut self, sim: &mut Sim, wake: &Wake) -> Vec<(W, Message)> {
        self.upstream.on_wake(sim, wake);
        let mut completed = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            let id = self.pending[i].upstream_id;
            let upstream = self.upstream.take_response(id);
            if upstream.is_none() && self.upstream.is_pending(id) {
                i += 1;
                continue;
            }
            let fetch = self.pending.remove(i);
            let (rcode, answers, authorities) = match &upstream {
                Some(upstream) => {
                    self.cache_upstream(sim, &fetch, upstream);
                    (upstream.header.rcode, &upstream.answers[..], &upstream.authorities[..])
                }
                None => (Rcode::ServFail, &[][..], &[][..]),
            };
            for (waiter, stub_query) in fetch.waiters {
                let mut response = Message::response(&stub_query, rcode, answers.to_vec());
                response.authorities = authorities.to_vec();
                completed.push((waiter, response));
            }
        }
        completed
    }

    /// Stores `upstream`'s answer in the cache under its minimum record
    /// TTL when it is positive (NOERROR with answers); any other response
    /// (NXDOMAIN, NODATA, SERVFAIL) is forwarded but not stored.
    fn cache_upstream(&mut self, sim: &mut Sim, fetch: &PendingFetch<W>, upstream: &Message) {
        if upstream.header.rcode == Rcode::NoError && !upstream.answers.is_empty() {
            let (name, qtype) = fetch.key.clone();
            self.cache.insert_positive(name, qtype, upstream.answers.clone(), sim.now());
        }
    }
}

/// The answer source behind a transport server, as plain data: the
/// [`Driver`](crate::Driver) starts the live source when it serves.
#[derive(Debug)]
pub enum ServerBackend {
    /// Answer directly from zone data — every query gets an immediate
    /// response.
    Authoritative(Zone),
    /// A caching recursive resolver on the server's host: answer from its
    /// cache, or fetch the answer over Do53 from the authoritative server
    /// on `upstream` (port 53) — queries may park until it arrives. Its
    /// cache is shared by every client of the server.
    Recursive {
        /// The host whose Do53 server answers the resolver's cache misses.
        upstream: HostId,
    },
}

impl ServerBackend {
    /// The paper's controlled echo resolver: every query, whatever its
    /// name, gets one fixed A record under [`TransportConfig::TTL`].
    pub fn echo() -> ServerBackend {
        ServerBackend::Authoritative(Zone::fixed(TransportConfig::ANSWER, TransportConfig::TTL))
    }

    /// The live answer source of a server on `host`: a recursive one
    /// fetches from `upstream`'s Do53 server, from `host`.
    pub(crate) fn start<W>(self, host: HostId) -> Backend<W> {
        match self {
            ServerBackend::Authoritative(zone) => Backend::Authoritative(zone),
            ServerBackend::Recursive { upstream } => Backend::Recursive(RecursiveResolver {
                upstream: Do53Client::new(host, (upstream, TransportKind::Do53.port())),
                cache: DnsCache::new(CACHE_CAPACITY),
                pending: Vec::new(),
            }),
        }
    }
}

/// A running server's answer source; a parked query's answer goes to a
/// `W`.
#[derive(Debug)]
pub(crate) enum Backend<W> {
    Authoritative(Zone),
    Recursive(RecursiveResolver<W>),
}

impl<W: PartialEq> Backend<W> {
    /// Answers `query` now, or returns `None` to park it; parked queries
    /// resurface from [`Backend::poll`] with `waiter` attached.
    pub(crate) fn answer(&mut self, sim: &mut Sim, query: &Message, waiter: W) -> Option<Message> {
        match self {
            Backend::Authoritative(zone) => Some(zone.answer(query)),
            Backend::Recursive(resolver) => resolver.resolve(sim, query, waiter),
        }
    }

    /// Feeds a wake to the backend (a recursive one's upstream answers and
    /// resend timers); returns completed `(waiter, response)` pairs.
    pub(crate) fn poll(&mut self, sim: &mut Sim, wake: &Wake) -> Vec<(W, Message)> {
        match self {
            Backend::Authoritative(_) => Vec::new(),
            Backend::Recursive(resolver) => resolver.poll(sim, wake),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Driver, EndpointId, ReusePolicy, TransportConfig, TransportKind};
    use dohmark_dns_wire::Rdata;
    use dohmark_netsim::{SimDuration, SimTime};

    fn name(label: &str) -> Name {
        Name::parse(&format!("{label}.dohmark.test")).unwrap()
    }

    /// Two stubs, each on its own link to a recursive resolver speaking
    /// `kind`, which fetches misses from a Do53 authoritative upstream
    /// over a link whose jitter lets upstream answers overtake each other,
    /// and which drops each packet with probability `upstream_loss`.
    /// Returns the stubs and the upstream leg's hosts, resolver first.
    fn two_stubs(
        kind: TransportKind,
        seed: u64,
        upstream_loss: f64,
    ) -> (Sim, Driver, [EndpointId; 2], [HostId; 2]) {
        let cfg = TransportConfig::new(kind, ReusePolicy::Persistent);
        let mut sim = Sim::new(seed);
        let resolver = sim.add_host("resolver");
        let upstream = sim.add_host("upstream");
        let link = cfg.link.jitter(SimDuration::from_millis(5)).loss(upstream_loss);
        sim.add_link(resolver, upstream, link);
        let mut driver = Driver::new();
        let do53 = TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh);
        let zone = Zone::synth(Name::parse("dohmark.test").unwrap(), 300, 60);
        driver.serve(&mut sim, &do53, upstream, ServerBackend::Authoritative(zone));
        driver.serve(&mut sim, &cfg, resolver, ServerBackend::Recursive { upstream });
        let stubs = ["stub0", "stub1"].map(|host| {
            let stub = sim.add_host(host);
            sim.add_link(stub, resolver, cfg.link);
            driver.connect(&mut sim, &cfg, stub, resolver)
        });
        (sim, driver, stubs, [resolver, upstream])
    }

    /// Sends `names[i]` from stub `i` before driving anything — both
    /// queries are each stub's first, so both carry id 1 — and returns
    /// the two answers.
    fn ask_concurrently(
        kind: TransportKind,
        seed: u64,
        names: [&Name; 2],
    ) -> (Sim, Driver, [Message; 2]) {
        let (mut sim, mut driver, stubs, _) = two_stubs(kind, seed, 0.0);
        for (stub, name) in stubs.into_iter().zip(names) {
            assert_eq!(driver.send_query(&mut sim, stub, name), 1, "{kind:?}");
        }
        driver.run_until_quiescent(&mut sim);
        let answers = stubs.map(|stub| driver.take_response(stub, 1).expect("answered"));
        (sim, driver, answers)
    }

    #[test]
    fn the_same_question_under_the_same_id_from_two_stubs_is_fetched_once() {
        for kind in TransportKind::ALL {
            let shared = name("shared");
            let (sim, driver, answers) = ask_concurrently(kind, 7, [&shared, &shared]);
            for answer in &answers {
                assert_eq!(answer.question().unwrap().name, shared, "{kind:?}");
                assert_eq!(answer.answers.len(), 1, "{kind:?}");
            }
            assert_eq!(sim.meter.counters.upstream_queries, 1, "{kind:?}");
            assert_eq!(sim.meter.counters.coalesced_queries, 1, "{kind:?}");
            assert_eq!(driver.unrouted_wakes(), 0, "{kind:?}");
        }
    }

    #[test]
    fn different_questions_under_the_same_id_get_their_own_answers() {
        // Several seeds, so that under some the second upstream answer
        // arrives first: matching upstream answers by the stubs' (equal)
        // ids would hand each stub the other's records.
        for (kind, seed) in
            TransportKind::ALL.into_iter().flat_map(|k| (1..=8).map(move |s| (k, s)))
        {
            let names = [name("left"), name("right")];
            let (sim, driver, answers) = ask_concurrently(kind, seed, [&names[0], &names[1]]);
            for (answer, name) in answers.iter().zip(&names) {
                assert_eq!(&answer.question().unwrap().name, name, "{kind:?} seed {seed}");
                assert_eq!(&answer.answers[0].name, name, "{kind:?} seed {seed}");
            }
            assert_eq!(sim.meter.counters.upstream_queries, 2, "{kind:?} seed {seed}");
            assert_eq!(sim.meter.counters.coalesced_queries, 0, "{kind:?} seed {seed}");
            assert_eq!(driver.unrouted_wakes(), 0, "{kind:?} seed {seed}");
        }
    }

    /// A stub that hangs up while its query waits on an upstream fetch:
    /// the answer comes back to a server with nowhere to send it (a closed
    /// connection; for Do53, a closed port, where the datagram is dropped),
    /// and it must still reach the cache and wake no one it should not.
    #[test]
    fn a_stub_hanging_up_mid_recursion_loses_only_its_own_answer() {
        for kind in TransportKind::ALL {
            let (mut sim, mut driver, [stub, other], [resolver, upstream]) =
                two_stubs(kind, 7, 0.0);
            // Bytes the upstream has sent the resolver.
            let upstream_answer_bytes = |sim: &Sim| sim.link_bytes(upstream, resolver);
            driver.resolve(&mut sim, stub, &name("warm")).expect("opens the connection");
            let upstream_queries = sim.meter.counters.upstream_queries;
            let miss = driver.send_query(&mut sim, stub, &name("late"));
            while sim.meter.counters.upstream_queries == upstream_queries {
                driver.step(&mut sim).expect("the miss reaches the resolver");
            }
            let (upstream_bytes, dropped) = (upstream_answer_bytes(&sim), sim.dropped_packets());
            driver.close(&mut sim, stub);
            driver.run_until_quiescent(&mut sim);
            assert!(driver.take_response(stub, miss).is_none(), "{kind:?}: answered after close");
            assert_eq!(driver.unrouted_wakes(), 0, "{kind:?}");
            assert!(upstream_answer_bytes(&sim) > upstream_bytes, "{kind:?}: no upstream answer");
            if kind == TransportKind::Do53 {
                assert_eq!(sim.dropped_packets(), dropped + 1, "the answer to the closed port");
            }
            // The server serves on, and the late answer was cached.
            let hits = sim.meter.counters.cache_hit;
            driver.resolve(&mut sim, other, &name("late")).expect("another stub still resolves");
            assert_eq!(sim.meter.counters.cache_hit, hits + 1, "{kind:?}");
        }
    }

    #[test]
    fn only_http1_holds_a_cache_hit_behind_a_parked_miss() {
        for kind in TransportKind::ALL {
            let (mut sim, mut driver, [stub, _], _) = two_stubs(kind, 7, 0.0);
            let (cached, uncached) = (name("cached"), name("uncached"));
            driver.resolve(&mut sim, stub, &cached).expect("warms the cache");
            // Back to back on the one connection: a miss, which parks on
            // the upstream fetch, then a hit the resolver can answer at once.
            let miss = driver.send_query(&mut sim, stub, &uncached);
            let hit = driver.send_query(&mut sim, stub, &cached);
            let mut arrived: [Option<SimTime>; 2] = [None, None];
            while arrived.contains(&None) {
                driver.step(&mut sim).expect("both queries are answered");
                for (at, txn) in arrived.iter_mut().zip([miss, hit]) {
                    if at.is_none() && driver.take_response(stub, txn).is_some() {
                        *at = Some(sim.now());
                    }
                }
            }
            let [miss_at, hit_at] = arrived;
            if kind == TransportKind::DohH1 {
                // Responses go out in request order: the hit waits.
                assert!(hit_at >= miss_at, "{hit_at:?} before {miss_at:?}");
            } else {
                assert!(hit_at < miss_at, "{kind:?}: {hit_at:?} not before {miss_at:?}");
            }
        }
    }

    /// An NXDOMAIN from the upstream reaches the stub with its SOA, and is
    /// not stored: asking again is another miss and another fetch.
    #[test]
    fn a_negative_upstream_answer_is_forwarded_and_not_cached() {
        for kind in TransportKind::ALL {
            let (mut sim, mut driver, [stub, _], _) = two_stubs(kind, 7, 0.0);
            let foreign = Name::parse("other.example").unwrap();
            for round in 1..=2 {
                let answer = driver.resolve(&mut sim, stub, &foreign).expect("answered");
                assert_eq!(answer.header.rcode, Rcode::NxDomain, "{kind:?} round {round}");
                assert!(answer.answers.is_empty(), "{kind:?} round {round}");
                assert_eq!(answer.authorities.len(), 1, "{kind:?} round {round}");
                assert!(matches!(answer.authorities[0].rdata, Rdata::Soa(_)), "{kind:?}");
                let counters = sim.meter.counters;
                assert_eq!(counters.cache_miss, round, "{kind:?} round {round}");
                assert_eq!(counters.upstream_queries, round, "{kind:?} round {round}");
                assert_eq!(counters.cache_hit, 0, "{kind:?} round {round}");
            }
        }
    }

    /// A fetch whose upstream never answers ends when the upstream client
    /// gives up on it: its waiters get SERVFAIL and nothing is cached, so
    /// the next miss for the name fetches again instead of waiting on the
    /// dead fetch for good.
    #[test]
    fn a_dead_upstream_fails_its_fetch_and_the_next_miss_fetches_again() {
        for kind in TransportKind::ALL {
            let (mut sim, mut driver, [stub, _], _) = two_stubs(kind, 7, 1.0);
            let dead = name("dead");
            let answer = driver.resolve(&mut sim, stub, &dead);
            // A Do53 stub gives up on its own query about one RTT before
            // the resolver's SERVFAIL arrives.
            if kind != TransportKind::Do53 {
                let answer = answer.expect("a dead upstream is answered");
                assert_eq!(answer.header.rcode, Rcode::ServFail, "{kind:?}");
            }
            driver.run_until_quiescent(&mut sim);
            // A Do53 stub resends its query while the fetch is pending:
            // the resends are dropped, not counted as more misses.
            assert_eq!(sim.meter.counters.cache_miss, 1, "{kind:?}");
            assert_eq!(sim.meter.counters.coalesced_queries, 0, "{kind:?}");
            let upstream_queries = sim.meter.counters.upstream_queries;
            driver.send_query(&mut sim, stub, &dead);
            driver.run_until_quiescent(&mut sim);
            assert_eq!(sim.meter.counters.upstream_queries, upstream_queries + 1, "{kind:?}");
            assert_eq!(driver.unrouted_wakes(), 0, "{kind:?}");
        }
    }
}
