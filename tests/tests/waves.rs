//! Batched wave-scan suite: the multi-capability scan engine against
//! its per-query ground truth.
//!
//! Three properties anchor batching, mirroring the overload suite:
//!
//! 1. **Equivalence** — with no deadlines, a wave's per-query results
//!    (matches, faulted docs, unscanned tails, bound flags, pairing
//!    accounting) are *exactly* those of sequential bounded scans, for
//!    arbitrary per-query budgets and fault schedules. Batching is an
//!    execution strategy, not a semantics change.
//! 2. **Determinism** — same-seed batched overload runs are
//!    byte-identical, metrics snapshot included.
//! 3. **Degradation, not lies** — a batched loaded run may answer less
//!    than the unloaded per-query run, but never differently.

use apks_authz::TrustedAuthority;
use apks_cloud::{CloudServer, WaveConfig};
use apks_core::fault::{FaultConfig, FaultContext, FaultPlan, RetryPolicy, VirtualClock};
use apks_core::{ApksSystem, Budget, Deadline, FieldValue, Query, QueryPolicy, Record, Schema};
use apks_curve::CurveParams;
use apks_sim::overload::{run_overload, run_overload_batched, OverloadConfig, RequestOutcome};
use apks_tests::ledger_digest;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Golden ledger of the seed-21 batched run in
/// `same_seed_batched_overload_runs_are_byte_identical`.
const BATCHED_LEDGER: &str = "ecc99e090413e22f1d84a86fe9b3cc633f346dcc7edbb9a2b43a7933d618d28a";

/// A small deployment: 5 documents, 3 distinct query shapes.
fn deployment() -> (CloudServer, Vec<apks_authz::SignedCapability>, usize) {
    let schema = Schema::builder()
        .flat_field("illness", 1)
        .flat_field("sex", 1)
        .build()
        .unwrap();
    let sys = ApksSystem::new(CurveParams::fast(), schema);
    let mut rng = StdRng::seed_from_u64(4242);
    let ta = TrustedAuthority::setup(sys, &mut rng);
    let server = CloudServer::new(
        ta.system().clone(),
        ta.public_key().clone(),
        ta.ibs_params().clone(),
    );
    server.register_authority("ta");
    for (illness, sex) in [
        ("flu", "female"),
        ("flu", "male"),
        ("diabetes", "female"),
        ("cancer", "male"),
        ("flu", "female"),
    ] {
        let rec = Record::new(vec![FieldValue::text(illness), FieldValue::text(sex)]);
        server.upload(
            ta.system()
                .gen_index(ta.public_key(), &rec, &mut rng)
                .unwrap(),
        );
    }
    let caps = [
        Query::new().equals("illness", "flu"),
        Query::new()
            .equals("illness", "flu")
            .equals("sex", "female"),
        Query::new().equals("illness", "cancer"),
    ]
    .into_iter()
    .map(|q| {
        ta.issue_capability(&q, &QueryPolicy::default(), &mut rng)
            .unwrap()
    })
    .collect();
    let n0 = ta.system().n() + 3;
    (server, caps, n0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary fault schedules and per-query budgets (including
    /// budgets that die mid-scan), a batched wave settles every query
    /// exactly as a sequence of solo bounded scans would — matches,
    /// faulted documents, unscanned tails, retries, bound flags, and
    /// pairing accounting all included. Only wall-clock style timing
    /// may differ (the wave charges service time once per document).
    #[test]
    fn wave_results_equal_sequential_bounded_scans(
        fault_seed in 0u64..1000,
        poisoned in 0u32..500,
        flaky in 0u32..400,
        // budget in whole documents; 6 means unlimited
        budget_docs in prop::collection::vec(0u64..7, 1..6),
    ) {
        let (server, caps, n0) = deployment();
        let plan = FaultPlan::new(FaultConfig {
            seed: fault_seed,
            poisoned_doc_permille: poisoned,
            flaky_doc_permille: flaky,
            ..FaultConfig::default()
        });
        let policy = RetryPolicy::default();
        let budgets: Vec<Budget> = budget_docs
            .iter()
            .map(|&d| {
                if d >= 6 {
                    Budget::unlimited()
                } else {
                    Budget::pairings(d * n0 as u64)
                }
            })
            .collect();
        let picked: Vec<&apks_authz::SignedCapability> = budget_docs
            .iter()
            .enumerate()
            .map(|(i, _)| &caps[i % caps.len()])
            .collect();

        // ground truth: each query alone, on its own clock
        let mut solo = Vec::new();
        for (cap, budget) in picked.iter().zip(&budgets) {
            let clock = VirtualClock::new();
            let ctx = FaultContext::new(&plan, &policy, &clock);
            solo.push(
                server
                    .search_bounded(cap, &ctx, Deadline::NEVER, &budget.clone(), 7)
                    .unwrap(),
            );
        }

        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let reqs: Vec<(&apks_authz::SignedCapability, Deadline, &Budget)> = picked
            .iter()
            .zip(&budgets)
            .map(|(c, b)| (*c, Deadline::NEVER, b))
            .collect();
        let wave = server.search_batched(&reqs, &ctx, 7).unwrap();

        prop_assert_eq!(wave.len(), solo.len());
        for (i, (w, s)) in wave.iter().zip(&solo).enumerate() {
            prop_assert_eq!(&w.matches, &s.matches, "query {} matches", i);
            prop_assert_eq!(&w.faulted, &s.faulted, "query {} faulted", i);
            prop_assert_eq!(&w.unscanned, &s.unscanned, "query {} unscanned", i);
            prop_assert_eq!(w.stats.scanned, s.stats.scanned, "query {} scanned", i);
            prop_assert_eq!(w.stats.matched, s.stats.matched);
            prop_assert_eq!(w.stats.pairings, s.stats.pairings, "query {} pairings", i);
            prop_assert_eq!(w.stats.faulted_docs, s.stats.faulted_docs);
            prop_assert_eq!(w.stats.retries, s.stats.retries, "query {} retries", i);
            prop_assert_eq!(w.stats.degraded, s.stats.degraded);
            prop_assert_eq!(w.stats.deadline_expired, s.stats.deadline_expired);
            prop_assert_eq!(w.stats.budget_exhausted, s.stats.budget_exhausted);
            prop_assert_eq!(w.stats.unscanned_docs, s.stats.unscanned_docs);
        }
    }
}

#[test]
fn same_seed_batched_overload_runs_are_byte_identical() {
    let cfg = OverloadConfig {
        seed: 21,
        ..OverloadConfig::default()
    };
    let wave = WaveConfig::new(4, 60);
    let a = run_overload_batched(&cfg, &wave).unwrap();
    let b = run_overload_batched(&cfg, &wave).unwrap();
    assert_eq!(
        a.canonical_bytes(),
        b.canonical_bytes(),
        "same-seed batched runs must replay exactly, metrics included"
    );
    assert_eq!(ledger_digest(&a.canonical_bytes()), BATCHED_LEDGER);
    assert!(a.admitted > 0, "some requests must be served");
    assert!(
        a.metrics.counter("cloud.wave.scans").unwrap_or(0) > 0,
        "batched mode must actually run waves"
    );
    assert!(
        a.metrics.counter("cloud.scans").is_none(),
        "batched mode must not touch the solo-scan ledger"
    );
}

#[test]
fn batched_loaded_hits_are_a_subset_of_unloaded_per_query_hits() {
    let cfg = OverloadConfig::default();
    let loaded = run_overload_batched(&cfg, &WaveConfig::default()).unwrap();
    let unloaded = run_overload(&cfg.unloaded()).unwrap();
    assert_eq!(loaded.requests.len(), unloaded.requests.len());
    assert!(
        loaded.shed_total() > 0,
        "the default burst must still overload the queue in batched mode"
    );
    for (l, u) in loaded.requests.iter().zip(&unloaded.requests) {
        assert_eq!(l.id, u.id);
        assert_eq!(
            l.class, u.class,
            "both runs must see the identical request stream"
        );
        let RequestOutcome::Completed { hits: full, .. } = &u.outcome else {
            panic!("unloaded request {} was not completed", u.id);
        };
        match &l.outcome {
            RequestOutcome::Completed { hits, .. } => {
                assert!(
                    hits.iter().all(|h| full.contains(h)),
                    "request {}: batched hits {hits:?} not a subset of {full:?}",
                    l.id
                );
            }
            RequestOutcome::ShedQueueFull | RequestOutcome::ShedBrownout { .. } => {}
        }
    }
}

/// Wave batching amortizes the per-document service charge: with no
/// bounds cutting scans short, a depth-N wave finishes the corpus in
/// roughly the virtual time one query takes alone.
#[test]
fn unbounded_batched_run_spends_far_fewer_ticks_than_per_query() {
    let cfg = OverloadConfig::default().unloaded();
    let wave = WaveConfig::new(8, 100);
    let per_query = run_overload(&cfg).unwrap();
    let batched = run_overload_batched(&cfg, &wave).unwrap();
    // identical answers, request for request
    for (b, p) in batched.requests.iter().zip(&per_query.requests) {
        assert_eq!(
            b.outcome, p.outcome,
            "unbounded batched request {} must answer exactly as per-query",
            b.id
        );
    }
    assert!(
        batched.virtual_ticks * 2 < per_query.virtual_ticks,
        "batching must amortize scan time: {} vs {} ticks",
        batched.virtual_ticks,
        per_query.virtual_ticks
    );
}
