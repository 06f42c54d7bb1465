//! Scale + determinism guarantees for the addressed-routing fleet
//! harness: a 1,000-stub-client topology sharing one caching recursive
//! resolver must replay bit for bit under the same seed, on every
//! transport of the matrix.

use dohmark_bench::{fleet_transports, FleetCell};

/// One thousand clients, one query each: big enough to exercise the
/// registry's addressed dispatch across thousands of handles, small
/// enough to replay twice per seed in the test suite.
fn thousand_client_cell(transport: dohmark::doh::TransportConfig) -> FleetCell {
    FleetCell { queries_per_client: 1, ..FleetCell::new(transport, 1000, 200) }
}

#[test]
fn thousand_client_fleet_is_bit_for_bit_deterministic_on_every_transport() {
    for transport in fleet_transports() {
        let label = transport.label();
        let cell = thousand_client_cell(transport);
        let mut per_seed = Vec::new();
        for seed in [11u64, 12] {
            let first = cell.measure(seed).expect("every query of a clean-link fleet resolves");
            let second = cell.measure(seed).expect("every query of a clean-link fleet resolves");
            assert_eq!(first, second, "{label} seed {seed} must replay bit for bit");
            assert_eq!(first.queries, 1000);
            assert_eq!(
                first.cache_hits + first.cache_misses,
                1000,
                "{label} seed {seed}: every query must hit the resolver cache path"
            );
            assert!(first.hit_ratio > 0.0, "a shared cache over 200 names must hit");
            assert!(first.distinct_names <= 200, "names come from the 200-name universe");
            per_seed.push(first);
        }
        assert_ne!(
            (per_seed[0].distinct_names, per_seed[0].total_bytes),
            (per_seed[1].distinct_names, per_seed[1].total_bytes),
            "{label}: different seeds must draw different workloads"
        );
    }
}
