//! A TTL-driven positive/negative DNS cache (RFC 2308), shared across all
//! client sessions of one recursive resolver.
//!
//! Entries expire on the simulated clock: an entry inserted at `t` with
//! TTL `n` serves hits for `now < t + n` and misses from `t + n` onward
//! (the boundary is exclusive, like a real resolver decrementing TTLs to
//! zero). Served answers carry the **remaining** TTL. Negative entries
//! (NXDOMAIN / NODATA) are cached for `min(SOA TTL, SOA MINIMUM)` per
//! RFC 2308 §5. A configurable size cap evicts the least-recently-used
//! entry: the oldest end of a recency list threaded through the entries,
//! so eviction follows the operation order alone.

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

/// Marks the end of the recency list: no older or newer neighbour.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Entry {
    /// The key, kept so eviction can drop the index entry.
    key: CacheKey,
    /// The answer as inserted; [`DnsCache::get`] rewrites its TTLs.
    data: CachedAnswer,
    expires_at: SimTime,
    /// The next-older and next-newer slots in the recency list, or [`NIL`].
    older: usize,
    newer: usize,
}

/// The cache: a capacity-capped map with TTL expiry and LRU eviction.
///
/// Entries live in a slab of slots. The only tree is the key index, from
/// key to slot; recency is a doubly-linked list threaded through the
/// slots, from `oldest` to `newest`. A hit is one index lookup and an
/// O(1) relink to the newest end, and eviction takes the oldest slot.
///
/// Determinism: eviction takes the list's oldest slot. There is no stamp
/// or counter: the list's order is the order of hits and inserts, and the
/// index is a `BTreeMap`, so nothing depends on a hasher. Identical
/// operation sequences produce identical contents and evict the same
/// entries, and which slot an entry occupies is never observable.
#[derive(Debug)]
pub struct DnsCache {
    capacity: usize,
    /// Key → the slot holding its entry.
    index: BTreeMap<CacheKey, usize>,
    /// The entries; `None` for a slot on the free list.
    slots: Vec<Option<Entry>>,
    /// Slots freed by expiry, reused before the slab grows.
    free: Vec<usize>,
    /// The least- and most-recently used slots, or [`NIL`] when empty.
    oldest: usize,
    newest: usize,
}

impl DnsCache {
    /// A cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> DnsCache {
        DnsCache {
            capacity: capacity.max(1),
            index: BTreeMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            oldest: NIL,
            newest: NIL,
        }
    }

    /// Live entry count (expired entries linger until looked up or
    /// evicted).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Looks up `name`/`qtype` at time `now`, refreshing recency on a hit
    /// and dropping an entry it finds expired. TTLs in the returned records
    /// are the remaining lifetime (floored to whole seconds).
    pub fn get(&mut self, name: &Name, qtype: RecordType, now: SimTime) -> Option<CachedAnswer> {
        let key = (name.clone(), qtype);
        let slot = *self.index.get(&key)?;
        self.unlink(slot);
        let entry = self.entry(slot);
        if now >= entry.expires_at {
            self.index.remove(&key);
            self.slots[slot] = None;
            self.free.push(slot);
            return None;
        }
        let remaining = entry.expires_at.duration_since(now).as_secs_f64() as u32;
        let answer = match &entry.data {
            CachedAnswer::Positive(records) => CachedAnswer::Positive(
                records.iter().map(|r| Record { ttl: remaining, ..r.clone() }).collect(),
            ),
            CachedAnswer::Negative { rcode, soa } => CachedAnswer::Negative {
                rcode: *rcode,
                soa: Record { ttl: remaining, ..soa.clone() },
            },
        };
        self.link_newest(slot);
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
        let expires_at = now + SimDuration::from_secs(u64::from(ttl));
        if let Some(&slot) = self.index.get(&key) {
            // A re-insert replaces the entry in place and makes it newest.
            self.unlink(slot);
            let entry = self.entry(slot);
            entry.data = data;
            entry.expires_at = expires_at;
            self.link_newest(slot);
            return;
        }
        let slot = if self.index.len() >= self.capacity {
            // Evict the least-recently-used entry and take its slot.
            let victim = self.oldest;
            self.unlink(victim);
            let evicted = self.slots[victim].take().expect("the oldest slot holds an entry");
            self.index.remove(&evicted.key);
            victim
        } else if let Some(slot) = self.free.pop() {
            slot
        } else {
            self.slots.push(None);
            self.slots.len() - 1
        };
        self.index.insert(key.clone(), slot);
        self.slots[slot] = Some(Entry { key, data, expires_at, older: NIL, newer: NIL });
        self.link_newest(slot);
    }

    /// The live entry in `slot`.
    fn entry(&mut self, slot: usize) -> &mut Entry {
        self.slots[slot].as_mut().expect("an indexed slot holds an entry")
    }

    /// Takes `slot` out of the recency list, joining its neighbours.
    fn unlink(&mut self, slot: usize) {
        let Entry { older, newer, .. } = *self.entry(slot);
        match older {
            NIL => self.oldest = newer,
            older => self.entry(older).newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            newer => self.entry(newer).older = older,
        }
    }

    /// Puts the unlinked `slot` at the newest end of the recency list.
    fn link_newest(&mut self, slot: usize) {
        let older = self.newest;
        let entry = self.entry(slot);
        entry.older = older;
        entry.newer = NIL;
        match older {
            NIL => self.oldest = slot,
            older => self.entry(older).newer = slot,
        }
        self.newest = slot;
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

    /// The reference LRU: entries oldest first, a hit moved to the back,
    /// eviction from the front.
    struct Reference {
        capacity: usize,
        entries: Vec<(CacheKey, CachedAnswer, SimTime)>,
    }

    impl Reference {
        fn get(&mut self, key: &CacheKey, now: SimTime) -> Option<CachedAnswer> {
            let entry = self.entries.remove(self.entries.iter().position(|e| &e.0 == key)?);
            if now >= entry.2 {
                return None;
            }
            let ttl = entry.2.duration_since(now).as_secs_f64() as u32;
            let answer = match &entry.1 {
                CachedAnswer::Positive(records) => CachedAnswer::Positive(
                    records.iter().map(|r| Record { ttl, ..r.clone() }).collect(),
                ),
                CachedAnswer::Negative { rcode, soa } => {
                    CachedAnswer::Negative { rcode: *rcode, soa: Record { ttl, ..soa.clone() } }
                }
            };
            self.entries.push(entry);
            Some(answer)
        }

        fn put(&mut self, key: CacheKey, answer: CachedAnswer, ttl: u32, now: SimTime) {
            if ttl == 0 {
                return;
            }
            if let Some(at) = self.entries.iter().position(|e| e.0 == key) {
                self.entries.remove(at);
            } else if self.entries.len() >= self.capacity {
                self.entries.remove(0);
            }
            self.entries.push((key, answer, now + SimDuration::from_secs(u64::from(ttl))));
        }
    }

    /// Seeded runs of inserts and lookups on an advancing whole-second
    /// clock, so TTL 0, the exact expiry instant, re-inserts of live keys
    /// and evictions all occur; every lookup and every `len()` must agree
    /// with the reference.
    #[test]
    fn matches_a_reference_lru() {
        let labels = ["w1", "w2", "w3", "w4", "w5", "w6"];
        let (mut boundaries, mut live_reinserts) = (0, 0);
        for capacity in 1..=8 {
            for seed in 1..=40u64 {
                let mut rng = dohmark_netsim::SimRng::new(seed);
                let mut cache = DnsCache::new(capacity);
                let mut reference = Reference { capacity, entries: Vec::new() };
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
            }
        }
        assert!(boundaries > 0 && live_reinserts > 0, "{boundaries} / {live_reinserts}");
    }
}
