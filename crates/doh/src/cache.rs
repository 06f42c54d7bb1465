//! A TTL-driven positive/negative DNS cache (RFC 2308), shared across all
//! client sessions of one recursive resolver.
//!
//! Entries expire on the simulated clock: an entry inserted at `t` with
//! TTL `n` serves hits for `now < t + n` and misses from `t + n` onward
//! (the boundary is exclusive, like a real resolver decrementing TTLs to
//! zero). Served answers carry the **remaining** TTL. Negative entries
//! (NXDOMAIN / NODATA) are cached for `min(SOA TTL, SOA MINIMUM)` per
//! RFC 2308 §5. A configurable size cap evicts the least-recently-used
//! entry, deterministically.

use dohmark_dns_wire::{Name, Rcode, Rdata, Record, RecordType};
use dohmark_netsim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Cache key: query name and type (class is always `IN` here).
pub type CacheKey = (Name, RecordType);

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

#[derive(Debug)]
struct Entry {
    /// The answer as inserted; [`DnsCache::get`] rewrites its TTLs.
    data: CachedAnswer,
    expires_at: SimTime,
    /// LRU stamp; also the key into the recency index.
    stamp: u64,
}

/// The cache: a capacity-capped map with TTL expiry and LRU eviction.
///
/// Determinism: both tables are `BTreeMap`s, so no order depends on a
/// hasher — eviction picks the minimum LRU stamp from the recency index,
/// and identical operation sequences produce identical contents.
#[derive(Debug)]
pub struct DnsCache {
    capacity: usize,
    /// The cached answers by key; eviction order comes from `lru` below.
    entries: BTreeMap<CacheKey, Entry>,
    /// Recency index: stamp → key, oldest first.
    lru: BTreeMap<u64, CacheKey>,
    next_stamp: u64,
}

impl DnsCache {
    /// A cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> DnsCache {
        DnsCache {
            capacity: capacity.max(1),
            entries: BTreeMap::new(),
            lru: BTreeMap::new(),
            next_stamp: 0,
        }
    }

    /// Live entry count (expired entries linger until looked up or
    /// evicted).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `name`/`qtype` at time `now`, refreshing recency on a hit
    /// and dropping an entry it finds expired. TTLs in the returned records
    /// are the remaining lifetime (floored to whole seconds).
    pub fn get(&mut self, name: &Name, qtype: RecordType, now: SimTime) -> Option<CachedAnswer> {
        let key = (name.clone(), qtype);
        let entry = self.entries.get_mut(&key)?;
        if now >= entry.expires_at {
            let stamp = entry.stamp;
            self.entries.remove(&key);
            self.lru.remove(&stamp);
            return None;
        }
        let remaining = entry.expires_at.duration_since(now).as_secs_f64() as u32;
        let old_stamp = entry.stamp;
        entry.stamp = self.next_stamp;
        self.next_stamp += 1;
        let answer = match &entry.data {
            CachedAnswer::Positive(records) => CachedAnswer::Positive(
                records.iter().map(|r| Record { ttl: remaining, ..r.clone() }).collect(),
            ),
            CachedAnswer::Negative { rcode, soa } => CachedAnswer::Negative {
                rcode: *rcode,
                soa: Record { ttl: remaining, ..soa.clone() },
            },
        };
        let new_stamp = self.next_stamp - 1;
        self.lru.remove(&old_stamp);
        self.lru.insert(new_stamp, key);
        Some(answer)
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
    pub fn insert_negative(
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
        if let Some(old) = self.entries.remove(&key) {
            self.lru.remove(&old.stamp);
        } else if self.entries.len() >= self.capacity {
            // Evict the least-recently-used entry (smallest stamp).
            if let Some((&stamp, _)) = self.lru.iter().next() {
                let victim = self.lru.remove(&stamp).expect("stamp just seen");
                self.entries.remove(&victim);
            }
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let expires_at = now + SimDuration::from_secs(u64::from(ttl));
        self.entries.insert(key.clone(), Entry { data, expires_at, stamp });
        self.lru.insert(stamp, key);
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
    fn capacity_evicts_the_least_recently_used_entry() {
        let mut cache = DnsCache::new(2);
        cache.insert_positive(name("w1"), RecordType::A, vec![a_record("w1", 300)], at(0));
        cache.insert_positive(name("w2"), RecordType::A, vec![a_record("w2", 300)], at(1));
        // Touch w1 so w2 becomes the LRU victim.
        assert!(cache.get(&name("w1"), RecordType::A, at(2)).is_some());
        cache.insert_positive(name("w3"), RecordType::A, vec![a_record("w3", 300)], at(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&name("w1"), RecordType::A, at(4)).is_some(), "w1 was touched");
        assert!(cache.get(&name("w3"), RecordType::A, at(4)).is_some(), "w3 just arrived");
        assert!(cache.get(&name("w2"), RecordType::A, at(4)).is_none(), "w2 was evicted");
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
}
