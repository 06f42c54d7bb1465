//! A TTL-driven DNS cache of positive answers, shared across all client
//! sessions of one recursive resolver. No experiment asks for a name
//! that does not exist, so negative answers are not cached.
//!
//! Entries expire on the simulated clock: an entry inserted at `t` with
//! TTL `n` serves hits for `now < t + n` and misses from `t + n` onward
//! (the boundary is exclusive, like a real resolver decrementing TTLs to
//! zero). Served answers carry the **remaining** TTL. A size cap keeps
//! memory finite: a new key that finds the cache full first drops the
//! smallest key.

use dohmark_dns_wire::{Name, Record, RecordType};
use dohmark_netsim::{SimDuration, SimTime};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Cache key: query name and type (class is always `IN` here).
pub(crate) type CacheKey = (Name, RecordType);

/// A `(name, type)` pair the map is probed with, owned or borrowed alike:
/// a [`CacheKey`] borrows as one, so [`DnsCache::get`] looks a name up
/// without cloning it. Views compare as their tuples, in [`CacheKey`]'s
/// order.
trait KeyView {
    fn view(&self) -> (&Name, RecordType);
}

impl KeyView for CacheKey {
    fn view(&self) -> (&Name, RecordType) {
        (&self.0, self.1)
    }
}

impl KeyView for (&Name, RecordType) {
    fn view(&self) -> (&Name, RecordType) {
        *self
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for CacheKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for dyn KeyView + '_ {}

impl PartialOrd for dyn KeyView + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn KeyView + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.view().cmp(&other.view())
    }
}

/// The cache: a map from key to answer records and expiry, capped at a
/// size.
///
/// It stores positive answers only: every name a fleet asks for exists,
/// so an NXDOMAIN or NODATA answer (RFC 2308) never reaches a resolver in
/// an experiment, and one that does is forwarded uncached. A hit reorders
/// nothing. A re-insert replaces its entry in place; a new key in a full
/// cache first drops the smallest key, so the contents follow from the
/// operation sequence alone, and nothing depends on a hasher. No
/// experiment fills the cache (see the resolver's capacity), so which
/// entry the cap drops never reaches a report.
#[derive(Debug)]
pub struct DnsCache {
    capacity: usize,
    /// Key → the records as inserted and their expiry instant;
    /// [`DnsCache::get`] rewrites the TTLs.
    entries: BTreeMap<CacheKey, (Vec<Record>, SimTime)>,
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
    pub fn get(&mut self, name: &Name, qtype: RecordType, now: SimTime) -> Option<Vec<Record>> {
        let key: &dyn KeyView = &(name, qtype);
        let (records, expires_at) = self.entries.get(key)?;
        if now >= *expires_at {
            self.entries.remove(key);
            return None;
        }
        let remaining = (*expires_at - now).as_secs_f64() as u32;
        Some(records.iter().map(|r| Record { ttl: remaining, ..r.clone() }).collect())
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
        if ttl == 0 {
            return;
        }
        let key = (name, qtype);
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            self.entries.pop_first();
        }
        self.entries.insert(key, (records, now + SimDuration::from_secs(u64::from(ttl))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dohmark_dns_wire::Rdata;
    use std::net::Ipv4Addr;

    fn name(label: &str) -> Name {
        Name::parse(&format!("{label}.dohmark.test")).unwrap()
    }

    fn a_record(label: &str, ttl: u32) -> Record {
        Record::new(name(label), ttl, Rdata::A(Ipv4Addr::new(10, 0, 0, 1)))
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
        assert_eq!(hit[0].ttl, 1, "29s in, 1s left");
        // At exactly t + ttl the entry is expired: a miss.
        assert!(cache.get(&name("w1"), RecordType::A, at(30)).is_none());
        assert_eq!(cache.len(), 0, "expired entries are dropped on lookup");
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
        assert_eq!(cache.get(&name("w1"), RecordType::A, at(6)).unwrap()[0].ttl, 299);
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
        entries: Vec<(CacheKey, Vec<Record>, SimTime)>,
        evictions: usize,
    }

    impl Reference {
        fn get(&mut self, key: &CacheKey, now: SimTime) -> Option<Vec<Record>> {
            let at = self.entries.iter().position(|e| &e.0 == key)?;
            let (_, records, expires_at) = &self.entries[at];
            if now >= *expires_at {
                self.entries.remove(at);
                return None;
            }
            let ttl = (*expires_at - now).as_secs_f64() as u32;
            Some(records.iter().map(|r| Record { ttl, ..r.clone() }).collect())
        }

        fn put(&mut self, key: CacheKey, records: Vec<Record>, ttl: u32, now: SimTime) {
            if ttl == 0 {
                return;
            }
            let entry = (key, records, now + SimDuration::from_secs(u64::from(ttl)));
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

    /// Seeded runs of inserts (of one record or two) and lookups on an
    /// advancing whole-second clock, so TTL 0, the exact expiry instant,
    /// re-inserts of live keys and evictions all occur; every lookup and
    /// every `len()` must agree with the reference.
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
                            reference.put(key, vec![a_record(label, ttl)], ttl, at(now));
                        }
                        1 => {
                            // Two records: the entry lives for the shorter TTL.
                            let second = rng.below(7) as u32;
                            let records = vec![a_record(label, ttl), a_record(label, second)];
                            live_reinserts += usize::from(live.is_some_and(|t| at(now) < t));
                            cache.insert_positive(name(label), qtype, records.clone(), at(now));
                            reference.put(key, records, ttl.min(second), at(now));
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
