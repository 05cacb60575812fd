//! Overload chaos suite: the admission controller, brown-out ladder,
//! deadlines, and pairing budgets under Zipf-bursty load.
//!
//! Three properties anchor the overload story, mirroring the fault
//! chaos suite:
//!
//! 1. **Determinism** — same-seed overload runs are byte-identical,
//!    metrics snapshot included.
//! 2. **Fast refusal** — shedding is an admission-time decision: p99
//!    time-to-shed sits at least an order of magnitude below p99
//!    time-to-result for admitted scans.
//! 3. **Degradation, not lies** — a browned-out or deadline-cut run may
//!    answer *less* than the unloaded run, but never *differently*:
//!    every completed request's hits are a subset of its unloaded twin's.

use apks_sim::overload::{run_overload, OverloadConfig, RequestOutcome};
use apks_tests::ledger_digest;
use std::sync::OnceLock;

/// Golden ledger of the default overloaded run ([`overloaded`]).
const DEFAULT_LEDGER: &str = "8f802fc784f804138f5538b63b739e57252e8e4439ad932f2ef3ff3ddce1e472";

/// Config with ingest faults enabled so the proxy breakers see traffic
/// too — their end-of-run states are part of the canonical bytes.
fn faulted_config() -> OverloadConfig {
    OverloadConfig {
        ingest_faults: Some(apks_core::fault::FaultConfig {
            seed: 77,
            proxy_timeout_permille: 400,
            transform_error_permille: 200,
            max_fault_burst: 3,
            ..apks_core::fault::FaultConfig::default()
        }),
        seed: 21,
        ..OverloadConfig::default()
    }
}

/// The default overloaded run, shared across tests (each run redoes the
/// full crypto setup).
fn overloaded() -> &'static apks_sim::overload::OverloadReport {
    static RUN: OnceLock<apks_sim::overload::OverloadReport> = OnceLock::new();
    RUN.get_or_init(|| run_overload(&OverloadConfig::default()).unwrap())
}

#[test]
fn same_seed_overload_runs_are_byte_identical() {
    let cfg = faulted_config();
    let a = run_overload(&cfg).unwrap();
    let b = run_overload(&cfg).unwrap();
    assert_eq!(
        a.canonical_bytes(),
        b.canonical_bytes(),
        "same-seed overload runs must replay exactly, metrics included"
    );
    assert_eq!(
        ledger_digest(&overloaded().canonical_bytes()),
        DEFAULT_LEDGER
    );
    assert_eq!(a.arrivals, 32);
    assert!(
        a.shed_total() > 0,
        "the default burst must actually overload the queue"
    );
}

#[test]
fn saturating_bursts_shed_fast_and_brown_out_by_shape() {
    let r = overloaded();
    assert!(r.admitted > 0, "some requests must still be served");
    assert!(r.shed_brownout > 0, "the brown-out ladder must engage");
    assert!(
        r.displaced > 0,
        "priority probes must displace normal work at the full queue"
    );
    assert!(
        r.deadline_expired > 0,
        "backlogged scans must hit deadlines"
    );
    assert!(r.max_brownout_level >= 1);
    assert!(
        r.unscanned_docs > 0,
        "cut-short scans must report what they skipped"
    );
    // priority revocation probes are never browned out
    for req in &r.requests {
        if req.class == "priority" {
            assert!(
                !matches!(req.outcome, RequestOutcome::ShedBrownout { .. }),
                "priority request {} was browned out",
                req.id
            );
        }
    }
    // fast refusal: shedding costs the admission check, not a scan
    let shed_p99 = r.time_to_shed_p99();
    let scan_p99 = r.scan_latency_p99();
    assert!(shed_p99 > 0 && scan_p99 > 0);
    assert!(
        scan_p99 >= 10 * shed_p99,
        "p99 time-to-shed ({shed_p99}) must be at least 10x below p99 \
         time-to-result ({scan_p99})"
    );
}

#[test]
fn brownout_results_are_a_subset_of_unloaded_results() {
    let loaded = overloaded();
    let unloaded = run_overload(&OverloadConfig::default().unloaded()).unwrap();
    // the unloaded twin serves everything, completely
    assert_eq!(unloaded.admitted, unloaded.arrivals);
    assert_eq!(unloaded.shed_total(), 0);
    assert_eq!(unloaded.deadline_expired, 0);
    assert_eq!(unloaded.unscanned_docs, 0);
    assert_eq!(loaded.requests.len(), unloaded.requests.len());
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
                    "request {}: loaded hits {hits:?} not a subset of {full:?}",
                    l.id
                );
            }
            // shed requests answered nothing — trivially a subset
            RequestOutcome::ShedQueueFull | RequestOutcome::ShedBrownout { .. } => {}
        }
    }
}

#[test]
fn shed_requests_do_no_scan_work() {
    let r = overloaded();
    let m = &r.metrics;
    // admission ledger and report agree (absent counter = never shed
    // that way)
    assert_eq!(
        m.counter("cloud.admission.admitted"),
        Some(r.admitted as u64)
    );
    assert_eq!(
        m.counter("cloud.admission.shed.queue_full").unwrap_or(0),
        r.shed_queue_full as u64
    );
    assert_eq!(
        m.counter("cloud.admission.shed.brownout").unwrap_or(0),
        r.shed_brownout as u64
    );
    // every shed was timed, and nothing shed ever reached the scanner:
    // scans (even deadline-expired ones that did no work) only ever
    // come from admitted requests
    assert_eq!(
        m.histogram("overload.time_to_shed").unwrap().count,
        r.shed_total() as u64
    );
    assert!(m.counter("cloud.scans").unwrap_or(0) <= r.admitted as u64);
    assert_eq!(
        m.histogram("overload.scan_latency").unwrap().count,
        r.admitted as u64
    );
    // expiry accounting surfaces in the snapshot
    assert_eq!(
        m.counter("cloud.scan.deadline_expired").unwrap_or(0),
        r.deadline_expired as u64
    );
}

#[test]
fn full_queue_sheds_newest_and_priority_displaces() {
    // ladder disabled (thresholds above 1000 permille): the only shed
    // path left is the bounded queue itself
    let cfg = OverloadConfig {
        admission: apks_cloud::AdmissionConfig::new(2, 1001, 1001, 1001),
        ..OverloadConfig::default()
    };
    let r = run_overload(&cfg).unwrap();
    assert_eq!(r.shed_brownout, 0, "ladder is disabled");
    assert!(
        r.shed_queue_full > 0,
        "bursts past the bound must shed the newest arrivals"
    );
    assert!(
        r.displaced > 0,
        "priority probes displace instead of being shed"
    );
    // a shed request is refused at arrival — it never occupies a slot,
    // so admitted + shed + nothing-else accounts for every arrival
    assert_eq!(r.admitted + r.shed_total(), r.arrivals);
}

#[test]
fn per_request_budgets_stop_scans_with_explicit_accounting() {
    // a budget too small for even one document: every admitted request
    // exhausts immediately and reports the whole corpus unscanned
    let cfg = OverloadConfig {
        pairing_budget: 1,
        deadline_ticks: u64::MAX,
        ..OverloadConfig::default().unloaded()
    };
    let r = run_overload(&cfg).unwrap();
    assert_eq!(r.admitted, r.arrivals);
    assert_eq!(r.budget_exhausted, r.admitted);
    assert_eq!(r.deadline_expired, 0);
    assert_eq!(r.unscanned_docs, r.admitted * r.docs_stored);
    for req in &r.requests {
        let RequestOutcome::Completed {
            hits,
            budget_exhausted,
            ..
        } = &req.outcome
        else {
            panic!("request {} was shed in an unloaded run", req.id);
        };
        assert!(hits.is_empty());
        assert!(budget_exhausted);
    }
    assert_eq!(
        r.metrics.counter("cloud.scan.budget_exhausted"),
        Some(r.admitted as u64)
    );
}
