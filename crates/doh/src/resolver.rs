//! The caching recursive resolver and the [`ServerBackend`] abstraction
//! that lets every transport server (Do53, DoT, DoH-h1, DoH-h2) serve
//! either authoritative [`Zone`] answers or cached/recursive ones.
//!
//! A [`RecursiveResolver`] sits behind one transport server and is shared
//! by **all** client sessions of that server: answers fetched for one stub
//! warm the cache for every other stub, which is exactly the effect the
//! `fig_cache_hit_cost` experiment measures. On a cache miss the resolver
//! queries its upstream authoritative server over plain Do53 (the common
//! deployment shape: encrypted stub-to-recursive, UDP recursive-to-
//! authoritative), coalescing concurrent identical questions into one
//! upstream fetch.
//!
//! All measurements flow through the one instrument experiments already
//! read, the [`CostMeter`](dohmark_netsim::CostMeter)'s typed
//! [`Counters`](dohmark_netsim::Counters): `cache_hit`,
//! `cache_negative_hit`, `cache_miss`, `coalesced_queries`,
//! `upstream_queries` and `upstream_bytes` (upstream payload + IP/UDP
//! header bytes, both directions).

use crate::cache::{CachedAnswer, DnsCache};
use crate::zone::Zone;
use dohmark_dns_wire::{Message, Name, Rcode, Rdata, Record, RecordType};
use dohmark_netsim::{HostId, LayerTag, Sim, SockId, Wake, IP_HEADER, UDP_HEADER};

/// One outstanding upstream fetch, with every stub query waiting on it.
#[derive(Debug)]
struct PendingFetch {
    key: (Name, RecordType),
    /// Transaction id on the upstream wire, from the resolver's own
    /// counter: stub ids are unique per stub only, so two stubs' queries
    /// may carry the same one.
    upstream_id: u16,
    /// Parked stub queries: the transport-level waiter token and the
    /// original query (whose header id the answer must echo).
    waiters: Vec<(u64, Message)>,
}

/// A caching recursive resolver: TTL-driven positive/negative cache
/// (RFC 2308) in front of one Do53 upstream.
#[derive(Debug)]
pub struct RecursiveResolver {
    sock: SockId,
    upstream: (HostId, u16),
    cache: DnsCache,
    /// The transaction id of the latest upstream query (0 before the first).
    last_upstream_txn: u16,
    pending: Vec<PendingFetch>,
}

impl RecursiveResolver {
    /// A resolver on `host` (its upstream socket bound to an ephemeral
    /// port there) querying the authoritative server at `upstream`, with a
    /// cache of at most `cache_capacity` entries.
    ///
    /// Bind-time matters for wake routing: construct this inside the
    /// enclosing server's [`Driver::register`](crate::Driver::register)
    /// closure so the upstream socket is stamped with the server's
    /// endpoint id.
    pub fn new(
        sim: &mut Sim,
        host: HostId,
        upstream: (HostId, u16),
        cache_capacity: usize,
    ) -> RecursiveResolver {
        let sock = sim.udp_bind(host, 0);
        RecursiveResolver {
            sock,
            upstream,
            cache: DnsCache::new(cache_capacity),
            last_upstream_txn: 0,
            pending: Vec::new(),
        }
    }

    /// Answers `query` from the cache, or parks it (returning `None`)
    /// behind an upstream fetch whose completion [`Self::poll`] will
    /// surface with `waiter` attached.
    pub fn resolve(&mut self, sim: &mut Sim, query: &Message, waiter: u64) -> Option<Message> {
        let Some(q) = query.question() else {
            return Some(Message::response(query, Rcode::FormErr, Vec::new()));
        };
        let (qname, qtype) = (q.name.clone(), q.qtype);
        match self.cache.get(&qname, qtype, sim.now()) {
            Some(CachedAnswer::Positive(records)) => {
                sim.meter.counters.cache_hit += 1;
                return Some(Message::response(query, Rcode::NoError, records));
            }
            Some(CachedAnswer::Negative { rcode, soa }) => {
                sim.meter.counters.cache_negative_hit += 1;
                let mut m = Message::response(query, rcode, Vec::new());
                m.authorities.push(soa);
                return Some(m);
            }
            None => {}
        }
        sim.meter.counters.cache_miss += 1;
        let key = (qname, qtype);
        if let Some(fetch) = self.pending.iter_mut().find(|f| f.key == key) {
            // An identical question is already in flight: coalesce.
            sim.meter.counters.coalesced_queries += 1;
            fetch.waiters.push((waiter, query.clone()));
            return None;
        }
        // Fetch upstream under the resolver's own transaction id, the
        // query's bytes attributed to the resolution that triggered it
        // (the upstream server meters its answer under the id it decodes).
        let upstream_id = crate::next_txn(&mut self.last_upstream_txn);
        let encoded = Message::query(upstream_id, &key.0, qtype).encode();
        sim.set_attr(u32::from(query.header.id));
        sim.meter.counters.upstream_queries += 1;
        sim.meter.counters.upstream_bytes += (encoded.len() + IP_HEADER + UDP_HEADER) as u64;
        sim.udp_send(self.sock, self.upstream, LayerTag::DnsPayload, encoded);
        self.pending.push(PendingFetch {
            key,
            upstream_id,
            waiters: vec![(waiter, query.clone())],
        });
        None
    }

    /// Ingests upstream responses if `wake` is for the resolver's upstream
    /// socket; returns the unparked `(waiter, response)` pairs, each
    /// response carrying its own stub query's transaction id.
    pub fn poll(&mut self, sim: &mut Sim, wake: &Wake) -> Vec<(u64, Message)> {
        let Wake::UdpReadable { sock, .. } = wake else { return Vec::new() };
        if *sock != self.sock {
            return Vec::new();
        }
        let mut completed = Vec::new();
        while let Some((_, _, data)) = sim.udp_recv(self.sock) {
            let Ok(upstream) = Message::decode(&data) else { continue };
            let Some(idx) = self.pending.iter().position(|f| f.upstream_id == upstream.header.id)
            else {
                continue;
            };
            let fetch = self.pending.remove(idx);
            sim.meter.counters.upstream_bytes += (data.len() + IP_HEADER + UDP_HEADER) as u64;
            self.cache_upstream(sim, &fetch, &upstream);
            for (waiter, stub_query) in fetch.waiters {
                let mut response =
                    Message::response(&stub_query, upstream.header.rcode, upstream.answers.clone());
                response.authorities = upstream.authorities.clone();
                completed.push((waiter, response));
            }
        }
        completed
    }

    /// Stores `upstream`'s outcome in the cache: positive answers under
    /// their minimum record TTL, NXDOMAIN/NODATA under the RFC 2308
    /// `min(SOA TTL, MINIMUM)` — uncacheable responses (no SOA, ServFail)
    /// are forwarded but not stored.
    fn cache_upstream(&mut self, sim: &mut Sim, fetch: &PendingFetch, upstream: &Message) {
        let (name, qtype) = fetch.key.clone();
        let now = sim.now();
        match upstream.header.rcode {
            Rcode::NoError if !upstream.answers.is_empty() => {
                self.cache.insert_positive(name, qtype, upstream.answers.clone(), now);
            }
            Rcode::NoError | Rcode::NxDomain => {
                if let Some(soa) = find_soa(&upstream.authorities) {
                    self.cache.insert_negative(
                        name,
                        qtype,
                        upstream.header.rcode,
                        soa.clone(),
                        now,
                    );
                }
            }
            _ => {}
        }
    }
}

fn find_soa(records: &[Record]) -> Option<&Record> {
    records.iter().find(|r| matches!(r.rdata, Rdata::Soa(_)))
}

/// The answer source behind a transport server: authoritative zone data
/// (the classic fixed-echo servers) or a shared caching recursive
/// resolver.
#[derive(Debug)]
pub enum ServerBackend {
    /// Answer directly from zone data — every query gets an immediate
    /// response.
    Authoritative(Zone),
    /// Answer from the cache or recurse upstream — queries may park until
    /// [`ServerBackend::poll`] surfaces them.
    Recursive(RecursiveResolver),
}

impl ServerBackend {
    /// The backend byte-compatible with the legacy fixed-echo servers.
    pub fn fixed(answer: std::net::Ipv4Addr, ttl: u32) -> ServerBackend {
        ServerBackend::Authoritative(Zone::fixed(answer, ttl))
    }

    /// Answers `query` now, or returns `None` to park it; parked queries
    /// resurface from [`ServerBackend::poll`] tagged with `waiter`.
    pub fn answer(&mut self, sim: &mut Sim, query: &Message, waiter: u64) -> Option<Message> {
        match self {
            ServerBackend::Authoritative(zone) => Some(zone.answer(query)),
            ServerBackend::Recursive(resolver) => resolver.resolve(sim, query, waiter),
        }
    }

    /// Feeds a wake to the backend (upstream socket traffic for recursive
    /// backends); returns completed `(waiter, response)` pairs.
    pub fn poll(&mut self, sim: &mut Sim, wake: &Wake) -> Vec<(u64, Message)> {
        match self {
            ServerBackend::Authoritative(_) => Vec::new(),
            ServerBackend::Recursive(resolver) => resolver.poll(sim, wake),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Driver, EndpointId, ReusePolicy, TransportConfig, TransportKind};
    use dohmark_netsim::{SimDuration, SimTime};

    fn name(label: &str) -> Name {
        Name::parse(&format!("{label}.dohmark.test")).unwrap()
    }

    /// Two stubs, each on its own link to a recursive resolver speaking
    /// `kind`, which fetches misses from a Do53 authoritative upstream
    /// over a link whose jitter lets upstream answers overtake each other.
    fn two_stubs(kind: TransportKind, seed: u64) -> (Sim, Driver, [EndpointId; 2]) {
        let cfg = TransportConfig::new(kind, ReusePolicy::Persistent);
        let mut sim = Sim::new(seed);
        let resolver = sim.add_host("resolver");
        let upstream = sim.add_host("upstream");
        sim.add_link(resolver, upstream, cfg.link.jitter(SimDuration::from_millis(5)));
        let mut driver = Driver::new();
        driver.register(&mut sim, |sim| {
            let zone = Zone::synth(Name::parse("dohmark.test").unwrap(), 300, 60);
            TransportConfig::new(TransportKind::Do53, ReusePolicy::Fresh).build_server_with(
                sim,
                upstream,
                ServerBackend::Authoritative(zone),
            )
        });
        driver.register(&mut sim, |sim| {
            let recursive = RecursiveResolver::new(sim, resolver, (upstream, 53), 64);
            cfg.build_server_with(sim, resolver, ServerBackend::Recursive(recursive))
        });
        let stubs = ["stub0", "stub1"].map(|host| {
            let stub = sim.add_host(host);
            sim.add_link(stub, resolver, cfg.link);
            driver.register_resolver(&mut sim, |_| cfg.build_client(stub, resolver))
        });
        (sim, driver, stubs)
    }

    /// Sends `names[i]` from stub `i` before driving anything — both
    /// queries are each stub's first, so both carry id 1 — and returns
    /// the two answers.
    fn ask_concurrently(
        kind: TransportKind,
        seed: u64,
        names: [&Name; 2],
    ) -> (Sim, Driver, [Message; 2]) {
        let (mut sim, mut driver, stubs) = two_stubs(kind, seed);
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

    #[test]
    fn only_http1_holds_a_cache_hit_behind_a_parked_miss() {
        for kind in TransportKind::ALL {
            let (mut sim, mut driver, [stub, _]) = two_stubs(kind, 7);
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
}
