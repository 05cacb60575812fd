//! Telemetry properties: counters and histograms only ever grow across
//! repeated scans, and snapshots survive their canonical byte encoding.

use apks_authz::{SignedCapability, TrustedAuthority};
use apks_cloud::CloudServer;
use apks_core::{FieldValue, Query, QueryPolicy, Record, Schema};
use apks_curve::CurveParams;
use apks_telemetry::{Metric, MetricsRegistry, MetricsSnapshot};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn deployment(seed: u64, docs: usize) -> (CloudServer, SignedCapability) {
    let schema = Schema::builder()
        .flat_field("illness", 1)
        .flat_field("sex", 1)
        .build()
        .unwrap();
    let sys = apks_core::ApksSystem::new(CurveParams::fast(), schema);
    let mut rng = StdRng::seed_from_u64(seed);
    let ta = TrustedAuthority::setup(sys, &mut rng);
    let server = CloudServer::new(
        ta.system().clone(),
        ta.public_key().clone(),
        ta.ibs_params().clone(),
    );
    server.register_authority("ta");
    let illnesses = ["flu", "diabetes", "cancer"];
    for i in 0..docs {
        let rec = Record::new(vec![
            FieldValue::text(illnesses[i % illnesses.len()]),
            FieldValue::text(if i % 2 == 0 { "female" } else { "male" }),
        ]);
        server.upload(
            ta.system()
                .gen_index(ta.public_key(), &rec, &mut rng)
                .unwrap(),
        );
    }
    let cap = ta
        .issue_capability(
            &Query::new().equals("illness", "flu"),
            &QueryPolicy::default(),
            &mut rng,
        )
        .unwrap();
    (server, cap)
}

/// Every metric of `earlier` must still exist in `later` with a value
/// at least as large (counters) or an entry-wise ≥ state (histograms).
fn assert_monotone(earlier: &MetricsSnapshot, later: &MetricsSnapshot) {
    for (name, metric) in earlier.entries() {
        match metric {
            Metric::Counter(v) => {
                let now = later
                    .counter(name)
                    .unwrap_or_else(|| panic!("counter {name} vanished"));
                assert!(now >= *v, "counter {name} went backwards: {v} -> {now}");
            }
            Metric::Histogram(h) => {
                let now = later
                    .histogram(name)
                    .unwrap_or_else(|| panic!("histogram {name} vanished"));
                assert!(now.count >= h.count, "histogram {name} count shrank");
                assert!(now.sum >= h.sum, "histogram {name} sum shrank");
                for (b, (&was, &is)) in h.buckets.iter().zip(&now.buckets).enumerate() {
                    assert!(is >= was, "histogram {name} bucket {b} shrank");
                }
            }
        }
    }
}

proptest! {
    // each case builds a real deployment — keep the count small
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Scans only ever add to the registry: every counter and histogram
    /// is monotone across repeated scans, and each intermediate
    /// snapshot round-trips through its decoder.
    #[test]
    fn metrics_are_monotone_across_scans(
        seed in 0u64..1_000,
        scans in 1usize..4,
    ) {
        let (server, cap) = deployment(7_000 + seed, 4);
        let mut prev = server.metrics_snapshot();
        prop_assert!(prev.is_empty(), "fresh server records nothing");
        for _ in 0..scans {
            server.scan(&cap.capability).unwrap();
            let snap = server.metrics_snapshot();
            assert_monotone(&prev, &snap);
            // strictly more work than before: the scan counter moved
            prop_assert!(
                snap.counter("cloud.scans") > prev.counter("cloud.scans")
            );
            let decoded = MetricsSnapshot::from_canonical_bytes(&snap.canonical_bytes())
                .expect("canonical bytes decode");
            prop_assert_eq!(&decoded, &snap);
            prev = snap;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any snapshot — arbitrary names, counter values, and histogram
    /// observations — survives `canonical_bytes` → `from_canonical_bytes`.
    #[test]
    fn snapshot_canonical_bytes_round_trip(
        counters in prop::collection::vec(("[a-z0-9._-]{0,16}", any::<u64>()), 0..6),
        histograms in prop::collection::vec(
            ("[A-Za-z0-9. ]{0,16}", prop::collection::vec(any::<u64>(), 0..8)),
            0..4,
        ),
    ) {
        let reg = MetricsRegistry::new();
        for (name, v) in &counters {
            reg.add(name, *v);
        }
        for (name, obs) in &histograms {
            let h = reg.histogram(name);
            for &v in obs {
                h.record(v);
            }
        }
        let snap = reg.snapshot();
        let decoded = MetricsSnapshot::from_canonical_bytes(&snap.canonical_bytes()).unwrap();
        prop_assert_eq!(&decoded, &snap);
        // decoding is strict: truncation and trailing garbage both fail
        let bytes = snap.canonical_bytes();
        if !bytes.is_empty() {
            prop_assert!(MetricsSnapshot::from_canonical_bytes(&bytes[..bytes.len() - 1]).is_err());
        }
        let mut extended = bytes.clone();
        extended.push(0);
        prop_assert!(MetricsSnapshot::from_canonical_bytes(&extended).is_err());
    }
}
