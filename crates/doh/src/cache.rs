//! A TTL-driven positive/negative DNS cache (RFC 2308), shared across all
//! client sessions of one recursive resolver.
//!
//! Entries expire on the simulated clock: an entry inserted at `t` with
//! TTL `n` serves hits for `now < t + n` and misses from `t + n` onward
//! (the boundary is exclusive, like a real resolver decrementing TTLs to
//! zero). Served answers carry the **remaining** TTL. Negative entries
//! (NXDOMAIN / NODATA) are cached for `min(SOA TTL, SOA MINIMUM)` per
//! RFC 2308 §5. A size cap keeps memory finite: a new key that finds the
//! cache full first drops the smallest key.

use dohmark_dns_wire::{Name, Rcode, Rdata, Record, RecordType};
use dohmark_netsim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Cache key: query name and type (class is always `IN` here).
pub(crate) type CacheKey = (Name, RecordType);

/// A cached answer. What the cache stores carries the TTLs it was
/// inserted with; what a hit yields has them decremented to the remaining
/// lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachedAnswer {
    /// A positive answer: the cached records.
    Positive(Vec<Record>),
    /// A cached negative answer (RFC 2308): the rcode to reproduce and the
    /// SOA record for the authority section.
    Negative {
        /// `NxDomain`, or `NoError` for NODATA.
        rcode: Rcode,
        /// The zone's SOA.
        soa: Record,
    },
}

/// The cache: a map from key to answer and expiry, capped at a size.
///
/// A hit reorders nothing. A re-insert replaces its entry in place; a new
/// key in a full cache first drops the smallest key, so the contents
/// follow from the operation sequence alone, and nothing depends on a
/// hasher. No experiment fills the cache (see the resolver's capacity), so
/// which entry the cap drops never reaches a report.
#[derive(Debug)]
pub struct DnsCache {
    capacity: usize,
    /// Key → the answer as inserted and its expiry instant;
    /// [`DnsCache::get`] rewrites the TTLs.
    entries: BTreeMap<CacheKey, (CachedAnswer, SimTime)>,
}

impl DnsCache {
    /// A cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> DnsCache {
        DnsCache { capacity: capacity.max(1), entries: BTreeMap::new() }
    }

    /// Live entry count (expired entries linger until looked up or
    /// dropped by the cap).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `name`/`qtype` at time `now`, dropping an entry it finds
    /// expired. TTLs in the returned records are the remaining lifetime
    /// (floored to whole seconds).
    pub fn get(&mut self, name: &Name, qtype: RecordType, now: SimTime) -> Option<CachedAnswer> {
        let key = (name.clone(), qtype);
        let (data, expires_at) = self.entries.get(&key)?;
        if now >= *expires_at {
            self.entries.remove(&key);
            return None;
        }
        let remaining = expires_at.duration_since(now).as_secs_f64() as u32;
        Some(match data {
            CachedAnswer::Positive(records) => CachedAnswer::Positive(
                records.iter().map(|r| Record { ttl: remaining, ..r.clone() }).collect(),
            ),
            CachedAnswer::Negative { rcode, soa } => CachedAnswer::Negative {
                rcode: *rcode,
                soa: Record { ttl: remaining, ..soa.clone() },
            },
        })
    }

    /// Caches a positive answer under the records' minimum TTL. TTL-0
    /// answers are served but never stored (RFC 1035).
    pub fn insert_positive(
        &mut self,
        name: Name,
        qtype: RecordType,
        records: Vec<Record>,
        now: SimTime,
    ) {
        let ttl = records.iter().map(|r| r.ttl).min().unwrap_or(0);
        self.put((name, qtype), CachedAnswer::Positive(records), ttl, now);
    }

    /// Caches a negative answer for `min(SOA TTL, SOA MINIMUM)` seconds —
    /// the RFC 2308 §5 negative-caching TTL.
    pub(crate) fn insert_negative(
        &mut self,
        name: Name,
        qtype: RecordType,
        rcode: Rcode,
        soa: Record,
        now: SimTime,
    ) {
        let minimum = match &soa.rdata {
            Rdata::Soa(s) => s.minimum,
            _ => 0,
        };
        let ttl = minimum.min(soa.ttl);
        self.put((name, qtype), CachedAnswer::Negative { rcode, soa }, ttl, now);
    }

    fn put(&mut self, key: CacheKey, data: CachedAnswer, ttl: u32, now: SimTime) {
        if ttl == 0 {
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            self.entries.pop_first();
        }
        self.entries.insert(key, (data, now + SimDuration::from_secs(u64::from(ttl))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dohmark_dns_wire::SoaRdata;
    use std::net::Ipv4Addr;

    fn name(label: &str) -> Name {
        Name::parse(&format!("{label}.dohmark.test")).unwrap()
    }

    fn a_record(label: &str, ttl: u32) -> Record {
        Record::new(name(label), ttl, Rdata::A(Ipv4Addr::new(10, 0, 0, 1)))
    }

    fn soa(ttl: u32, minimum: u32) -> Record {
        Record::new(
            Name::parse("dohmark.test").unwrap(),
            ttl,
            Rdata::Soa(SoaRdata {
                mname: name("ns1"),
                rname: name("hostmaster"),
                serial: 1,
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum,
            }),
        )
    }

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn hit_serves_remaining_ttl_until_the_exact_expiry_boundary() {
        let mut cache = DnsCache::new(16);
        cache.insert_positive(name("w1"), RecordType::A, vec![a_record("w1", 30)], at(0));
        // One second before expiry: still a hit, 1s of lifetime left.
        let hit = cache.get(&name("w1"), RecordType::A, at(29)).unwrap();
        match hit {
            CachedAnswer::Positive(records) => assert_eq!(records[0].ttl, 1, "29s in, 1s left"),
            other => panic!("unexpected {other:?}"),
        }
        // At exactly t + ttl the entry is expired: a miss.
        assert!(cache.get(&name("w1"), RecordType::A, at(30)).is_none());
        assert_eq!(cache.len(), 0, "expired entries are dropped on lookup");
    }

    #[test]
    fn negative_entries_use_the_rfc2308_min_of_soa_ttl_and_minimum() {
        let mut cache = DnsCache::new(16);
        // SOA TTL 60 but MINIMUM 20: the negative TTL must be 20.
        cache.insert_negative(name("nx1"), RecordType::A, Rcode::NxDomain, soa(60, 20), at(0));
        match cache.get(&name("nx1"), RecordType::A, at(10)) {
            Some(CachedAnswer::Negative { rcode, soa }) => {
                assert_eq!(rcode, Rcode::NxDomain);
                assert_eq!(soa.ttl, 10, "remaining negative TTL");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(cache.get(&name("nx1"), RecordType::A, at(20)).is_none(), "expired at MINIMUM");
        // And symmetrically: SOA TTL 15 under MINIMUM 300 caps at 15.
        cache.insert_negative(name("nx2"), RecordType::A, Rcode::NxDomain, soa(15, 300), at(100));
        assert!(cache.get(&name("nx2"), RecordType::A, at(114)).is_some());
        assert!(cache.get(&name("nx2"), RecordType::A, at(115)).is_none());
    }

    #[test]
    fn a_full_cache_drops_its_smallest_key() {
        assert!((name("w1"), RecordType::A) < (name("w2"), RecordType::A));
        let mut cache = DnsCache::new(2);
        cache.insert_positive(name("w2"), RecordType::A, vec![a_record("w2", 300)], at(0));
        cache.insert_positive(name("w1"), RecordType::A, vec![a_record("w1", 300)], at(1));
        // A hit reorders nothing: w1 stays first in line.
        assert!(cache.get(&name("w1"), RecordType::A, at(2)).is_some());
        cache.insert_positive(name("w3"), RecordType::A, vec![a_record("w3", 300)], at(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&name("w1"), RecordType::A, at(4)).is_none(), "w1 was the smallest");
        assert!(cache.get(&name("w2"), RecordType::A, at(4)).is_some(), "w2 stays");
        assert!(cache.get(&name("w3"), RecordType::A, at(4)).is_some(), "w3 just arrived");
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut cache = DnsCache::new(2);
        cache.insert_positive(name("w1"), RecordType::A, vec![a_record("w1", 10)], at(0));
        cache.insert_positive(name("w2"), RecordType::A, vec![a_record("w2", 10)], at(0));
        // Refreshing w1 must not evict w2.
        cache.insert_positive(name("w1"), RecordType::A, vec![a_record("w1", 300)], at(5));
        assert!(cache.get(&name("w2"), RecordType::A, at(6)).is_some());
        // The refreshed entry carries the new TTL.
        match cache.get(&name("w1"), RecordType::A, at(6)).unwrap() {
            CachedAnswer::Positive(r) => assert_eq!(r[0].ttl, 299),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ttl_zero_answers_are_not_cached() {
        let mut cache = DnsCache::new(4);
        cache.insert_positive(name("w1"), RecordType::A, vec![a_record("w1", 0)], at(0));
        assert!(cache.is_empty());
    }

    /// The reference cache: entries in a list, a hit left where it is,
    /// and the entry with the smallest key dropped when a new key finds the
    /// list full.
    struct Reference {
        capacity: usize,
        entries: Vec<(CacheKey, CachedAnswer, SimTime)>,
        evictions: usize,
    }

    impl Reference {
        fn get(&mut self, key: &CacheKey, now: SimTime) -> Option<CachedAnswer> {
            let at = self.entries.iter().position(|e| &e.0 == key)?;
            let (_, answer, expires_at) = &self.entries[at];
            if now >= *expires_at {
                self.entries.remove(at);
                return None;
            }
            let ttl = expires_at.duration_since(now).as_secs_f64() as u32;
            Some(match answer {
                CachedAnswer::Positive(records) => CachedAnswer::Positive(
                    records.iter().map(|r| Record { ttl, ..r.clone() }).collect(),
                ),
                CachedAnswer::Negative { rcode, soa } => {
                    CachedAnswer::Negative { rcode: *rcode, soa: Record { ttl, ..soa.clone() } }
                }
            })
        }

        fn put(&mut self, key: CacheKey, answer: CachedAnswer, ttl: u32, now: SimTime) {
            if ttl == 0 {
                return;
            }
            let entry = (key, answer, now + SimDuration::from_secs(u64::from(ttl)));
            if let Some(at) = self.entries.iter().position(|e| e.0 == entry.0) {
                self.entries[at] = entry;
                return;
            }
            if self.entries.len() >= self.capacity {
                let smallest = (0..self.entries.len())
                    .min_by(|&i, &j| self.entries[i].0.cmp(&self.entries[j].0));
                self.entries.remove(smallest.expect("a full list is not empty"));
                self.evictions += 1;
            }
            self.entries.push(entry);
        }
    }

    /// Seeded runs of inserts and lookups on an advancing whole-second
    /// clock, so TTL 0, the exact expiry instant, re-inserts of live keys
    /// and evictions all occur; every lookup and every `len()` must agree
    /// with the reference.
    #[test]
    fn matches_a_reference_model() {
        let labels = ["w1", "w2", "w3", "w4", "w5", "w6"];
        let (mut boundaries, mut live_reinserts, mut evictions) = (0, 0, 0);
        for capacity in 1..=8 {
            for seed in 1..=40u64 {
                let mut rng = dohmark_netsim::SimRng::new(seed);
                let mut cache = DnsCache::new(capacity);
                let mut reference = Reference { capacity, entries: Vec::new(), evictions: 0 };
                let mut now = 0;
                for step in 0..200 {
                    now += rng.below(3);
                    let label = labels[rng.below(labels.len() as u64) as usize];
                    let qtype = [RecordType::A, RecordType::Aaaa][rng.below(2) as usize];
                    let key = (name(label), qtype);
                    let live = reference.entries.iter().find(|e| e.0 == key).map(|e| e.2);
                    let ttl = rng.below(7) as u32;
                    match rng.below(4) {
                        0 => {
                            live_reinserts += usize::from(live.is_some_and(|t| at(now) < t));
                            cache.insert_positive(
                                name(label),
                                qtype,
                                vec![a_record(label, ttl)],
                                at(now),
                            );
                            let answer = CachedAnswer::Positive(vec![a_record(label, ttl)]);
                            reference.put(key, answer, ttl, at(now));
                        }
                        1 => {
                            let (rcode, minimum) = (Rcode::NxDomain, rng.below(7) as u32);
                            cache.insert_negative(
                                name(label),
                                qtype,
                                rcode,
                                soa(ttl, minimum),
                                at(now),
                            );
                            let answer = CachedAnswer::Negative { rcode, soa: soa(ttl, minimum) };
                            reference.put(key, answer, ttl.min(minimum), at(now));
                        }
                        _ => {
                            boundaries += usize::from(live == Some(at(now)));
                            let got = cache.get(&name(label), qtype, at(now));
                            let want = reference.get(&key, at(now));
                            assert_eq!(got, want, "capacity {capacity} seed {seed} step {step}");
                        }
                    }
                    let len = reference.entries.len();
                    assert_eq!(cache.len(), len, "capacity {capacity} seed {seed} step {step}");
                }
                evictions += reference.evictions;
            }
        }
        let counts = format!("{boundaries} / {live_reinserts} / {evictions}");
        assert!(boundaries > 0 && live_reinserts > 0 && evictions > 0, "{counts}");
    }
}
