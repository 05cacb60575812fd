//! Hydration-cache and prepared-capability-cache telemetry contracts.
//!
//! The disk-backed corpus (`PagedBackend`) decodes ciphertexts lazily
//! through a byte-budgeted LRU; these tests pin the observable cache
//! behaviour: cold scans miss once per document, warm scans hit, a
//! too-small budget evicts (and a budget of zero caches nothing)
//! without ever changing results, and — because touch order under a
//! sequential scan is the scan order — every `cloud.hydrate.*` counter
//! is a deterministic function of the seed. The last test pins the
//! cross-shard prepared-capability cache: a scatter-gather wave pays
//! `prepare_capability` exactly once regardless of shard count.

use apks_authz::TrustedAuthority;
use apks_cloud::{CloudServer, HydrateConfig, ShardConfig, ShardRouter};
use apks_core::fault::{FaultConfig, FaultPlan, RetryPolicy, VirtualClock};
use apks_core::{ApksSystem, Budget, Deadline, FieldValue, Query, QueryPolicy, Record, Schema};
use apks_curve::CurveParams;
use apks_store::StoreConfig;
use apks_telemetry::{MetricsRegistry, MetricsSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("apks-hydrate-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

const ILLNESS: [&str; 3] = ["flu", "diabetes", "cancer"];

fn authority() -> &'static TrustedAuthority {
    static TA: OnceLock<TrustedAuthority> = OnceLock::new();
    TA.get_or_init(|| {
        let schema = Schema::builder().flat_field("illness", 1).build().unwrap();
        let sys = ApksSystem::new(CurveParams::fast(), schema);
        let mut rng = StdRng::seed_from_u64(880_031);
        TrustedAuthority::setup(sys, &mut rng)
    })
}

/// A paged server with its own registry, plus that registry for
/// counter assertions.
fn paged_server(
    dir: &Path,
    cache_budget_bytes: usize,
) -> (CloudServer, Arc<MetricsRegistry>, Arc<VirtualClock>) {
    let ta = authority();
    let metrics = Arc::new(MetricsRegistry::new());
    let clock = Arc::new(VirtualClock::new());
    let server = CloudServer::with_paged_store(
        ta.system().clone(),
        ta.public_key().clone(),
        ta.ibs_params().clone(),
        metrics.clone(),
        clock.clone(),
        dir,
        StoreConfig::default(),
        HydrateConfig { cache_budget_bytes },
    )
    .unwrap();
    server.register_authority("ta");
    (server, metrics, clock)
}

/// Uploads `n` deterministic documents; returns the flu-matching ids.
fn seed_corpus(server: &CloudServer, n: usize, seed: u64) -> Vec<u64> {
    let ta = authority();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flu = Vec::new();
    for i in 0..n {
        let rec = Record::new(vec![FieldValue::text(ILLNESS[i % 3])]);
        let idx = ta
            .system()
            .gen_index(ta.public_key(), &rec, &mut rng)
            .unwrap();
        let id = server.upload(idx);
        if i % 3 == 0 {
            flu.push(id);
        }
    }
    flu
}

fn flu_cap(seed: u64) -> apks_authz::SignedCapability {
    let ta = authority();
    let mut rng = StdRng::seed_from_u64(seed);
    ta.issue_capability(
        &Query::new().equals("illness", "flu"),
        &QueryPolicy::default(),
        &mut rng,
    )
    .unwrap()
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

#[test]
fn cold_scan_misses_once_per_doc_then_warm_scan_hits() {
    let tmp = TempDir::new("cold-warm");
    let (server, metrics, _clock) = paged_server(tmp.path(), 64 << 20);
    let flu = seed_corpus(&server, 9, 41);
    let cap = flu_cap(42);

    let (hits, stats) = server.search(&cap).unwrap();
    assert_eq!(hits, flu);
    assert_eq!(stats.scanned, 9);
    let cold = metrics.snapshot();
    assert_eq!(counter(&cold, "cloud.hydrate.misses"), 9);
    assert_eq!(counter(&cold, "cloud.hydrate.hits"), 0);
    assert_eq!(counter(&cold, "cloud.hydrate.evictions"), 0);
    assert_eq!(counter(&cold, "cloud.hydrate.oversize"), 0);
    assert!(counter(&cold, "cloud.hydrate.bytes_inserted") > 0);
    assert_eq!(
        cold.histogram("cloud.hydrate.decode_ticks").unwrap().count,
        9
    );

    // warm: every document resident, zero decode work
    let (hits2, _) = server.search(&cap).unwrap();
    assert_eq!(hits2, flu);
    let warm = metrics.snapshot();
    assert_eq!(counter(&warm, "cloud.hydrate.misses"), 9);
    assert_eq!(counter(&warm, "cloud.hydrate.hits"), 9);
    assert_eq!(
        warm.histogram("cloud.hydrate.decode_ticks").unwrap().count,
        9
    );
}

#[test]
fn tiny_budget_evicts_but_results_do_not_change() {
    let tmp = TempDir::new("tiny");
    // fits roughly two decoded fast-curve indexes: a 9-doc sequential
    // scan must evict its way through the corpus
    let (server, metrics, _clock) = paged_server(tmp.path(), 1500);
    let flu = seed_corpus(&server, 9, 51);
    let cap = flu_cap(52);

    let (hits, _) = server.search(&cap).unwrap();
    assert_eq!(hits, flu);
    let snap = metrics.snapshot();
    assert_eq!(counter(&snap, "cloud.hydrate.misses"), 9);
    assert!(
        counter(&snap, "cloud.hydrate.evictions") > 0,
        "a 1500-byte budget cannot hold 9 indexes"
    );
    assert!(counter(&snap, "cloud.hydrate.bytes_evicted") > 0);

    // an LRU smaller than the corpus thrashes on a sequential rescan —
    // correctness is unaffected
    let (hits2, _) = server.search(&cap).unwrap();
    assert_eq!(hits2, flu);
    assert_eq!(counter(&metrics.snapshot(), "cloud.hydrate.misses"), 18);
}

#[test]
fn zero_budget_caches_nothing_and_reports_oversize() {
    let tmp = TempDir::new("zero");
    let (server, metrics, _clock) = paged_server(tmp.path(), 0);
    let flu = seed_corpus(&server, 6, 61);
    let cap = flu_cap(62);

    for _ in 0..2 {
        let (hits, _) = server.search(&cap).unwrap();
        assert_eq!(hits, flu);
    }
    let snap = metrics.snapshot();
    assert_eq!(counter(&snap, "cloud.hydrate.hits"), 0);
    assert_eq!(counter(&snap, "cloud.hydrate.misses"), 12);
    assert_eq!(counter(&snap, "cloud.hydrate.oversize"), 12);
    assert_eq!(counter(&snap, "cloud.hydrate.evictions"), 0);
    assert_eq!(counter(&snap, "cloud.hydrate.bytes_inserted"), 0);
}

#[test]
fn same_seed_hydrate_metrics_are_byte_identical() {
    let run = |tag: &str| -> Vec<u8> {
        let tmp = TempDir::new(tag);
        // small enough to evict: the eviction counters are covered by
        // the determinism claim too
        let (server, metrics, clock) = paged_server(tmp.path(), 1500);
        seed_corpus(&server, 9, 71);
        let cap = flu_cap(72);
        let plan = FaultPlan::new(FaultConfig {
            seed: 77,
            poisoned_doc_permille: 120,
            flaky_doc_permille: 100,
            slow_doc_permille: 100,
            ..FaultConfig::default()
        });
        let policy = RetryPolicy::default();
        let ctx = apks_core::fault::FaultContext::new(&plan, &policy, &clock);
        let budget = Budget::pairings(28);
        server
            .search_bounded(&cap, &ctx, Deadline::at(200), &budget, 7)
            .unwrap();
        let b2 = Budget::unlimited();
        server
            .search_bounded(&cap, &ctx, Deadline::NEVER, &b2, 7)
            .unwrap();
        metrics.snapshot().canonical_bytes()
    };
    assert_eq!(run("det-a"), run("det-b"));
}

#[test]
fn scatter_gather_prepares_exactly_once_for_any_shard_count() {
    let ta = authority();
    let mut rng = StdRng::seed_from_u64(81);
    let indexes: Vec<_> = (0..8)
        .map(|i| {
            let rec = Record::new(vec![FieldValue::text(ILLNESS[i % 3])]);
            ta.system()
                .gen_index(ta.public_key(), &rec, &mut rng)
                .unwrap()
        })
        .collect();
    let cap = flu_cap(82);
    let plan = FaultPlan::new(FaultConfig::default());
    let policy = RetryPolicy::default();

    for shards in 1..=4usize {
        let clock = Arc::new(VirtualClock::new());
        let servers: Vec<Arc<CloudServer>> = (0..shards)
            .map(|_| {
                let s = Arc::new(CloudServer::with_telemetry(
                    ta.system().clone(),
                    ta.public_key().clone(),
                    ta.ibs_params().clone(),
                    Arc::new(MetricsRegistry::new()),
                    clock.clone(),
                ));
                s.register_authority("ta");
                s
            })
            .collect();
        let router = ShardRouter::new(
            servers,
            ShardConfig::default(),
            clock.clone(),
            Arc::new(MetricsRegistry::new()),
        );
        router.upload_many(indexes.clone());

        // two requests sharing one capability, fanned out to N shards:
        // still ONE Miller precomputation for the whole deployment
        let budgets = [Budget::unlimited(), Budget::unlimited()];
        let requests = [
            (&cap, Deadline::NEVER, &budgets[0]),
            (&cap, Deadline::NEVER, &budgets[1]),
        ];
        let batch = router.search_batched(&requests, &plan, &policy, 7).unwrap();
        assert_eq!(batch.results.len(), 2);
        assert!(!batch.results[0].matches.is_empty());

        let cache = router.prepared_cache();
        assert_eq!(
            cache.misses(),
            1,
            "{shards} shards must pay prepare_capability exactly once"
        );
        assert_eq!(
            cache.calls(),
            shards as u64,
            "each shard consults the shared cache once per distinct capability"
        );
    }
}
