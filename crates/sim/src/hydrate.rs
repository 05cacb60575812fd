//! Disk-backed scan over **real ciphertexts** with lazy hydration.
//!
//! [`crate::shard`] reaches paper scale by modeling the pairing; this
//! scenario keeps the cryptography real and moves the *corpus* to
//! disk: encrypted indexes live in [`apks_store::PagedStore`] segment
//! files behind the cloud crate's `PagedBackend`, and every scan pays
//! page reads + strict decodes through the byte-budgeted LRU of
//! decoded indexes. An in-memory twin server ingests the identical
//! corpus and answers the identical query schedule — the oracle: hit
//! sets, cut accounting, fault ledgers, and the virtual clock must
//! match byte for byte, whatever the cache budget did (evict, refuse
//! oversize entries, or hold everything).
//!
//! The report carries the `cloud.hydrate.*` ledger (decode misses,
//! warm hits, evictions, resident bytes) plus the store's on-disk
//! shape, so the CI smoke can pin cache behaviour, not just results.

use apks_authz::{AuthzError, TrustedAuthority};
use apks_cloud::{CloudServer, HydrateConfig, SearchOutcome};
use apks_core::fault::{FaultConfig, FaultContext, FaultPlan, RetryPolicy, VirtualClock};
use apks_core::{ApksSystem, Budget, Deadline, FieldValue, Query, QueryPolicy, Record, Schema};
use apks_curve::CurveParams;
use apks_dataset::zipf::Zipf;
use apks_store::StoreConfig;
use apks_telemetry::{MetricsRegistry, MetricsSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Keyword catalog for the hydrated corpus.
const CATALOG: [&str; 6] = ["flu", "diabetes", "cancer", "asthma", "measles", "anemia"];

/// Hydrated-scan scenario knobs. All times are virtual ticks.
#[derive(Clone, Debug)]
pub struct HydrateSimConfig {
    /// Documents ingested (real `gen_index` ciphertexts).
    pub docs: usize,
    /// Queries issued, each with its own deadline/budget draw.
    pub queries: usize,
    /// Decoded-index LRU budget in bytes (0 disables caching).
    pub cache_budget_bytes: usize,
    /// Page size for the backing store.
    pub page_size: usize,
    /// Segment roll threshold for the backing store.
    pub segment_max_bytes: u64,
    /// Zipf skew of keyword popularity.
    pub zipf_s: f64,
    /// Modeled service ticks charged per evaluated document.
    pub doc_cost_ticks: u64,
    /// Per-query deadline relative to its start (`u64::MAX` = none).
    pub deadline_ticks: u64,
    /// Per-query pairing budget (`u64::MAX` = unlimited).
    pub pairing_budget: u64,
    /// Deterministic fault schedule both twins share.
    pub faults: FaultConfig,
    /// RNG seed: corpus, keyword schedule, capabilities — everything.
    pub seed: u64,
    /// Run each query a second time to measure the warm cache.
    pub rescan: bool,
}

impl Default for HydrateSimConfig {
    fn default() -> HydrateSimConfig {
        HydrateSimConfig {
            docs: 48,
            queries: 6,
            cache_budget_bytes: 64 << 20,
            page_size: 4096,
            segment_max_bytes: 64 << 10,
            zipf_s: 1.1,
            doc_cost_ticks: 3,
            deadline_ticks: u64::MAX,
            pairing_budget: u64::MAX,
            faults: FaultConfig::default(),
            seed: 1,
            rescan: true,
        }
    }
}

/// Outcome of a hydrated-scan run.
#[derive(Clone, Debug)]
pub struct HydrateSimReport {
    /// Documents ingested into both twins.
    pub docs: usize,
    /// Queries answered (per pass).
    pub queries: usize,
    /// Total matches across all queries and passes.
    pub hits_total: u64,
    /// Queries cut by their deadline (per-pass sum).
    pub deadline_expired: usize,
    /// Queries cut by their budget (per-pass sum).
    pub budget_exhausted: usize,
    /// Documents skipped as faulted across all queries.
    pub faulted_docs: usize,
    /// Decode misses charged by the paged twin.
    pub hydrate_misses: u64,
    /// Warm hits served from the decoded-index LRU.
    pub hydrate_hits: u64,
    /// Entries evicted to stay under the byte budget.
    pub hydrate_evictions: u64,
    /// Entries refused because they alone exceed the budget.
    pub hydrate_oversize: u64,
    /// Sealed segments in the backing store.
    pub segments: u64,
    /// Pages in the backing store.
    pub pages: u64,
    /// Documents the store's point-lookup index covers.
    pub indexed_docs: u64,
    /// Store bytes on disk.
    pub store_bytes: u64,
    /// The in-memory twin agreed on every query and the final clock.
    pub oracle_verified: bool,
    /// Final virtual-clock reading (both twins; asserted equal).
    pub virtual_ticks: u64,
    /// The paged twin's metrics snapshot (scan + hydrate counters).
    /// Deterministic; part of the canonical bytes.
    pub metrics: MetricsSnapshot,
    /// Ingest wall-clock seconds (measurement, NOT canonical).
    pub ingest_wall_secs: f64,
    /// Scan wall-clock seconds across all passes (NOT canonical).
    pub scan_wall_secs: f64,
}

impl HydrateSimReport {
    /// Canonical byte encoding of every deterministic field — wall
    /// timings excluded. Same-seed runs must reproduce this byte for
    /// byte, hydrate counters included.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for v in [
            self.docs as u64,
            self.queries as u64,
            self.hits_total,
            self.deadline_expired as u64,
            self.budget_exhausted as u64,
            self.faulted_docs as u64,
            self.hydrate_misses,
            self.hydrate_hits,
            self.hydrate_evictions,
            self.hydrate_oversize,
            self.segments,
            self.pages,
            self.indexed_docs,
            self.store_bytes,
            u64::from(self.oracle_verified),
            self.virtual_ticks,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.metrics.canonical_bytes());
        out
    }
}

fn flat_schema() -> Arc<Schema> {
    Schema::builder()
        .flat_field("illness", 1)
        .build()
        .expect("static schema")
}

/// Runs the hydrated-scan scenario under `dir` (the paged twin's store
/// lives there; any prior contents are removed first).
///
/// # Errors
///
/// Propagates crypto/setup failures and store failures (the latter
/// surface as [`AuthzError::Apks`] via the scan path).
///
/// # Panics
///
/// Panics if the paged twin ever disagrees with the in-memory oracle —
/// a hydration bug the run must not paper over.
pub fn run_hydrate_sim(
    config: &HydrateSimConfig,
    dir: &Path,
) -> Result<HydrateSimReport, AuthzError> {
    let system = ApksSystem::new(CurveParams::fast(), flat_schema());
    let mut rng = StdRng::seed_from_u64(config.seed);
    let ta = TrustedAuthority::setup(system.clone(), &mut rng);

    let _ = std::fs::remove_dir_all(dir);
    let paged_metrics = Arc::new(MetricsRegistry::new());
    let paged_clock = Arc::new(VirtualClock::new());
    let paged = CloudServer::with_paged_store(
        ta.system().clone(),
        ta.public_key().clone(),
        ta.ibs_params().clone(),
        paged_metrics.clone(),
        paged_clock.clone(),
        dir,
        StoreConfig {
            page_size: config.page_size,
            segment_max_bytes: config.segment_max_bytes,
        },
        HydrateConfig {
            cache_budget_bytes: config.cache_budget_bytes,
        },
    )
    .expect("fresh store directory opens");
    paged.register_authority("ta");

    let mem_clock = Arc::new(VirtualClock::new());
    let memory = CloudServer::with_telemetry(
        ta.system().clone(),
        ta.public_key().clone(),
        ta.ibs_params().clone(),
        Arc::new(MetricsRegistry::new()),
        mem_clock.clone(),
    );
    memory.register_authority("ta");

    // -- ingest: the identical real-ciphertext corpus into both twins --
    let zipf = Zipf::new(CATALOG.len(), config.zipf_s);
    let ingest_start = Instant::now();
    for _ in 0..config.docs {
        let illness = CATALOG[zipf.sample(&mut rng)];
        let rec = Record::new(vec![FieldValue::text(illness)]);
        let idx = system.gen_index(ta.public_key(), &rec, &mut rng)?;
        let id = paged.try_upload(idx.clone()).expect("corpus append");
        assert_eq!(id, memory.upload(idx), "twin id assignment diverged");
    }
    let ingest_wall_secs = ingest_start.elapsed().as_secs_f64();

    // -- query schedule: all draws before any scan (determinism) --------
    let caps: Vec<_> = (0..config.queries)
        .map(|_| {
            let illness = CATALOG[zipf.sample(&mut rng)];
            ta.issue_capability(
                &Query::new().equals("illness", illness),
                &QueryPolicy::default(),
                &mut rng,
            )
        })
        .collect::<Result<_, _>>()?;

    let plan = FaultPlan::new(config.faults.clone());
    let policy = RetryPolicy::default();
    let passes = if config.rescan { 2 } else { 1 };

    let mut report = HydrateSimReport {
        docs: config.docs,
        queries: config.queries,
        hits_total: 0,
        deadline_expired: 0,
        budget_exhausted: 0,
        faulted_docs: 0,
        hydrate_misses: 0,
        hydrate_hits: 0,
        hydrate_evictions: 0,
        hydrate_oversize: 0,
        segments: 0,
        pages: 0,
        indexed_docs: 0,
        store_bytes: 0,
        oracle_verified: false,
        virtual_ticks: 0,
        metrics: MetricsSnapshot::default(),
        ingest_wall_secs,
        scan_wall_secs: 0.0,
    };

    let scan_start = Instant::now();
    for _pass in 0..passes {
        for cap in &caps {
            let deadline = if config.deadline_ticks == u64::MAX {
                Deadline::NEVER
            } else {
                Deadline::at(paged_clock.now().saturating_add(config.deadline_ticks))
            };
            let run = |server: &CloudServer,
                       clock: &Arc<VirtualClock>|
             -> Result<apks_cloud::DegradedScan, SearchOutcome> {
                let ctx = FaultContext::new(&plan, &policy, clock);
                let budget = if config.pairing_budget == u64::MAX {
                    Budget::unlimited()
                } else {
                    Budget::pairings(config.pairing_budget)
                };
                server.search_bounded(cap, &ctx, deadline, &budget, config.doc_cost_ticks)
            };
            let p = run(&paged, &paged_clock).expect("registered issuer");
            let m = run(&memory, &mem_clock).expect("registered issuer");
            assert_eq!(p.matches, m.matches, "hydrated scan diverged on matches");
            assert_eq!(p.faulted, m.faulted, "hydrated scan diverged on faults");
            assert_eq!(p.unscanned, m.unscanned, "hydrated scan diverged on cuts");
            assert_eq!(
                paged_clock.now(),
                mem_clock.now(),
                "hydrated scan diverged on virtual time"
            );
            report.hits_total += p.matches.len() as u64;
            report.faulted_docs += p.stats.faulted_docs;
            if p.stats.deadline_expired {
                report.deadline_expired += 1;
            }
            if p.stats.budget_exhausted {
                report.budget_exhausted += 1;
            }
        }
    }
    report.scan_wall_secs = scan_start.elapsed().as_secs_f64();
    report.oracle_verified = true;
    report.virtual_ticks = paged_clock.now();

    let snapshot = paged_metrics.snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    report.hydrate_misses = counter("cloud.hydrate.misses");
    report.hydrate_hits = counter("cloud.hydrate.hits");
    report.hydrate_evictions = counter("cloud.hydrate.evictions");
    report.hydrate_oversize = counter("cloud.hydrate.oversize");
    let stats = paged
        .store_stats()
        .expect("store stats")
        .expect("paged twin has a store");
    report.segments = stats.segments;
    report.pages = stats.pages;
    report.indexed_docs = stats.indexed_docs;
    report.store_bytes = stats.bytes;
    report.metrics = snapshot;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Golden ledger (SHA-256 of the canonical bytes) of the seed-7 run
    /// in `same_seed_runs_are_byte_identical_including_hydrate_counters`.
    const SEED_7_LEDGER: &str = "ae20390684cb54154a4677003c96e4a8eced126f845bf9889dcac5f963f62f35";

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("apks-hydrate-sim-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn hydrated_run_verifies_oracle_and_warms_cache() {
        let config = HydrateSimConfig {
            docs: 12,
            queries: 3,
            ..HydrateSimConfig::default()
        };
        let d = tmp("warm");
        let report = run_hydrate_sim(&config, &d).unwrap();
        assert!(report.oracle_verified);
        assert!(report.hits_total > 0, "zipf corpus should produce hits");
        // the cache outlives queries: each doc decodes exactly once,
        // and every later touch (5 more scans over 2 passes) is warm
        assert_eq!(report.hydrate_misses, 12);
        assert_eq!(report.hydrate_hits, 12 * (3 * 2 - 1));
        assert_eq!(report.hydrate_evictions, 0);
        assert_eq!(report.indexed_docs, 12);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn tiny_cache_and_faults_still_match_the_oracle() {
        let config = HydrateSimConfig {
            docs: 10,
            queries: 3,
            cache_budget_bytes: 1500,
            deadline_ticks: 120,
            pairing_budget: 90,
            faults: FaultConfig {
                seed: 5,
                poisoned_doc_permille: 150,
                flaky_doc_permille: 120,
                slow_doc_permille: 120,
                ..FaultConfig::default()
            },
            seed: 5,
            ..HydrateSimConfig::default()
        };
        let d = tmp("faulted");
        let report = run_hydrate_sim(&config, &d).unwrap();
        assert!(report.oracle_verified);
        assert!(report.hydrate_evictions > 0, "1500 bytes must evict");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn same_seed_runs_are_byte_identical_including_hydrate_counters() {
        let config = HydrateSimConfig {
            docs: 10,
            queries: 3,
            cache_budget_bytes: 1500,
            faults: FaultConfig {
                seed: 7,
                poisoned_doc_permille: 100,
                ..FaultConfig::default()
            },
            seed: 7,
            ..HydrateSimConfig::default()
        };
        let d1 = tmp("det1");
        let d2 = tmp("det2");
        let a = run_hydrate_sim(&config, &d1).unwrap();
        let b = run_hydrate_sim(&config, &d2).unwrap();
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        let digest: String = apks_math::sha256::sha256(&a.canonical_bytes())
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(digest, SEED_7_LEDGER, "golden ledger moved");
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d2);
    }
}
