//! Tier test for the composed chaos-net scenario: replicated shards
//! that survive lossy links and mid-write crashes.
//!
//! The scenario itself asserts the hard invariants in-run (oracle
//! byte-equality, framed hit-set agreement, zero acknowledged-put
//! loss); this suite holds the *scenario* to determinism and pins the
//! contract fields an artifact consumer depends on.

use apks_sim::chaos_net::{run_chaos_net, ChaosNetConfig};
use apks_tests::ledger_digest;
use std::path::PathBuf;

/// Golden ledger of the same-seed run of [`config`].
const CHAOS_NET_LEDGER: &str = "8bca26aac2b20940a3d9cccedf733fc77f4f0c304962aae2fa1b7341b1edadee";

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apks-chaos-tier-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> ChaosNetConfig {
    ChaosNetConfig {
        docs: 8,
        searches: 3,
        crash_workloads: 2,
        crash_points_per_workload: 8,
        ..ChaosNetConfig::default()
    }
}

/// The acceptance composition: drop+corrupt+duplicate on the link, one
/// replica's breaker forced open, and the gathered hit sets byte-equal
/// to the fault-free single-replica oracle — while acknowledged writes
/// survive the crash sweep.
#[test]
fn lossy_replicated_deployment_answers_like_the_oracle() {
    let dir = tmp("accept");
    let report = run_chaos_net(&config(), &dir).unwrap();
    assert!(report.oracle_verified, "replicated gather == R=1 oracle");
    assert!(report.framed_verified, "framed hit sets == router hit sets");
    assert_eq!(report.docs, 8, "exactly-once ingest over the lossy link");
    assert_eq!(
        report.failovers, report.searches,
        "the forced-open primary must fail every wave over"
    );
    assert!(
        report.frames_dropped + report.frames_corrupted + report.frames_duplicated > 0,
        "the seeded link must actually mangle frames"
    );
    assert_eq!(report.acked_puts_lost, 0, "durability contract");
    assert_eq!(report.reopen_failures, 0, "recovery contract");
    assert_eq!(report.crash_points, 16);
    assert!(report.acked_puts_checked > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same seed ⇒ byte-identical report, metrics snapshot included. The
/// fault schedules, retries, failovers and crash points are all pure
/// functions of the seed and the shared virtual clock.
#[test]
fn same_seed_chaos_net_runs_are_byte_identical() {
    let d1 = tmp("det-a");
    let d2 = tmp("det-b");
    let a = run_chaos_net(&config(), &d1).unwrap();
    let b = run_chaos_net(&config(), &d2).unwrap();
    assert_eq!(a.canonical_bytes(), b.canonical_bytes());
    assert_eq!(ledger_digest(&a.canonical_bytes()), CHAOS_NET_LEDGER);
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d2);
}

/// A different link seed changes the fault schedule (different retry
/// traffic, different tick counts) but never the answers.
#[test]
fn different_seeds_agree_on_hits_per_keyword() {
    let d1 = tmp("seed-a");
    let d2 = tmp("seed-b");
    let a = run_chaos_net(&config(), &d1).unwrap();
    let b = run_chaos_net(
        &ChaosNetConfig {
            drop_permille: 250,
            corrupt_permille: 200,
            ..config()
        },
        &d2,
    )
    .unwrap();
    // same record/keyword schedule (same seed), harsher link: every
    // wave still returns the identical hit set
    let hits = |r: &apks_sim::chaos_net::ChaosNetReport| {
        r.queries
            .iter()
            .map(|q| (q.keyword, q.hits.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(hits(&a), hits(&b), "link loss must never change answers");
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d2);
}
