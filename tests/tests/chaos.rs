//! Seeded chaos suite: the full [`Simulation`] under deterministic fault
//! plans.
//!
//! Three properties anchor the robustness story (and gate regressions on
//! every future perf PR):
//!
//! 1. **Determinism** — two runs with the same seed produce byte-identical
//!    deterministic reports ([`SimReport::canonical_bytes`]), faults,
//!    retries, failovers and all.
//! 2. **Recovery** — when every injected fault is transient and bursts
//!    fit the retry budget, the faulted run returns *exactly* the
//!    fault-free match sets: retries + failover fully mask the chaos.
//! 3. **Degradation, not lies** — when faults are permanent (poisoned
//!    documents), every search's match set is a subset of the fault-free
//!    one and the skipped documents are counted explicitly, never
//!    silently dropped.

use apks_core::fault::FaultConfig;
use apks_sim::{SimConfig, SimReport, Simulation};
use apks_tests::ledger_digest;
use std::sync::OnceLock;

/// Golden ledger of the fault-free [`baseline`] run.
const BASELINE_LEDGER: &str = "e15f4308148fcba5b59aa14355d94c4c8b67b1a682f090e755c3e65742ffcc12";

/// Golden ledger of the faulted same-seed run below.
const FAULTED_LEDGER: &str = "22e71907c5ad1a3a1e1248fe8bc278ac7a19a96171639ebc81efb65c48e8dd94";

/// The workload every test in this file runs (only the fault schedule
/// varies): APKS⁺ with a two-proxy chain, six uploads, six queries.
fn base_config() -> SimConfig {
    SimConfig {
        days: 2,
        uploads_per_day: 3,
        queries_per_day: 3,
        proxies: 2,
        proxy_standbys: 1,
        seed: 1234,
        ..SimConfig::default()
    }
}

/// Fault-free reference run, shared across tests. The fault layer never
/// touches the simulation's RNG stream, so a faulted run with the same
/// `seed` uploads the same records and issues the same capabilities —
/// match sets are comparable document-for-document as long as no upload
/// is lost.
fn baseline() -> &'static SimReport {
    static BASELINE: OnceLock<SimReport> = OnceLock::new();
    BASELINE.get_or_init(|| Simulation::new(base_config()).unwrap().run().unwrap())
}

#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    let cfg = SimConfig {
        faults: Some(FaultConfig {
            seed: 99,
            proxy_timeout_permille: 300,
            transform_error_permille: 200,
            drop_upload_permille: 200,
            poisoned_doc_permille: 200,
            flaky_doc_permille: 200,
            slow_doc_permille: 200,
            // bursts may exceed the budget (4): dead primaries, failover,
            // even lost uploads are all on the table — and must replay
            max_fault_burst: 6,
            ..FaultConfig::default()
        }),
        ..base_config()
    };
    let a = Simulation::new(cfg.clone()).unwrap().run().unwrap();
    let b = Simulation::new(cfg).unwrap().run().unwrap();
    assert_eq!(
        a.canonical_bytes(),
        b.canonical_bytes(),
        "same seed must replay the exact same chaos"
    );
    // the telemetry snapshot rides inside canonical_bytes, but assert it
    // separately so a regression points straight at the metrics layer
    assert_eq!(
        a.metrics.canonical_bytes(),
        b.metrics.canonical_bytes(),
        "same seed must reproduce the metrics snapshot byte for byte"
    );
    assert!(!a.metrics.is_empty(), "chaos runs must record metrics");
    // both runs are pinned byte for byte, not only against each other
    assert_eq!(ledger_digest(&a.canonical_bytes()), FAULTED_LEDGER);
    assert_eq!(
        ledger_digest(&baseline().canonical_bytes()),
        BASELINE_LEDGER
    );
    assert!(
        a.ingest_retries + a.search_retries + a.dropped_uploads > 0,
        "the schedule must actually inject faults"
    );
    assert!(a.virtual_ticks > 0, "backoff runs on the virtual clock");
}

#[test]
fn transient_proxy_faults_recover_to_fault_free_match_sets() {
    // 20% injected proxy timeouts (+10% transform errors), every burst
    // within the default 4-attempt budget: retries must fully mask the
    // faults — same matches, nothing degraded, nothing lost.
    let cfg = SimConfig {
        faults: Some(FaultConfig {
            seed: 7,
            proxy_timeout_permille: 200,
            transform_error_permille: 100,
            max_fault_burst: 2,
            ..FaultConfig::default()
        }),
        ..base_config()
    };
    let faulted = Simulation::new(cfg).unwrap().run().unwrap();
    let free = baseline();
    assert!(faulted.ingest_retries > 0, "faults must actually fire");
    assert_eq!(faulted.lost_uploads, 0);
    assert_eq!(faulted.unavailable_uploads, 0);
    assert_eq!(faulted.uploads, free.uploads);
    assert_eq!(faulted.denied, free.denied);
    assert_eq!(
        faulted.search_hits, free.search_hits,
        "once retries succeed the match sets are identical"
    );
    assert_eq!(faulted.degraded_searches, 0);
    assert_eq!(faulted.faulted_docs, 0);
}

#[test]
fn poisoned_docs_degrade_searches_to_subsets_with_explicit_accounting() {
    let cfg = SimConfig {
        faults: Some(FaultConfig {
            seed: 21,
            poisoned_doc_permille: 300,
            slow_doc_permille: 200,
            ..FaultConfig::default()
        }),
        ..base_config()
    };
    let faulted = Simulation::new(cfg).unwrap().run().unwrap();
    let free = baseline();
    assert!(faulted.faulted_docs > 0, "schedule must poison something");
    assert!(faulted.degraded_searches > 0);
    assert_eq!(faulted.uploads, free.uploads);
    assert_eq!(faulted.scanned, free.scanned, "skipped ≠ not scanned");
    assert_eq!(faulted.search_hits.len(), free.search_hits.len());
    for (under_faults, fault_free) in faulted.search_hits.iter().zip(&free.search_hits) {
        assert!(
            under_faults.iter().all(|id| fault_free.contains(id)),
            "degraded results must be a subset of the fault-free results: {under_faults:?} ⊄ {fault_free:?}"
        );
    }
    assert!(faulted.matches <= free.matches);
}

#[test]
fn dead_primaries_fail_over_to_standby_shares() {
    // Bursts up to 6 exceed the 4-attempt budget: some transform ops
    // kill their primary for good, and the standby replica (same
    // unblinding share) must take over without changing any result.
    let cfg = SimConfig {
        faults: Some(FaultConfig {
            seed: 2,
            proxy_timeout_permille: 500,
            max_fault_burst: 6,
            ..FaultConfig::default()
        }),
        ..base_config()
    };
    let faulted = Simulation::new(cfg).unwrap().run().unwrap();
    let free = baseline();
    assert!(
        faulted.ingest_failovers > 0,
        "schedule must kill at least one primary past its budget"
    );
    assert_eq!(
        faulted.unavailable_uploads, 0,
        "standbys must absorb the dead primaries at this seed"
    );
    assert_eq!(
        faulted.search_hits, free.search_hits,
        "failover to a share replica is invisible in the results"
    );
}
