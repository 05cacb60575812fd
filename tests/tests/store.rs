//! Store-level corruption resilience and the scatter-gather
//! equivalence contract.
//!
//! The first half mirrors the persist layer's
//! `corrupted_bytes_never_panic` discipline one level down: flipped
//! page checksums, truncated segments, and torn final appends must
//! surface as structured [`StoreError`]s (or an explicitly skipped
//! tail), never as a panic or silent data loss.
//!
//! The second half pins the sharded cloud's contract: under the serial
//! clock model, a [`ShardRouter`] scatter-gather `search_batched` is
//! byte-equal — result sets and all bound-cut accounting — to a
//! single-node [`CloudServer::search_batched`] over the corpus formed
//! by concatenating the shard corpora in shard order, for *arbitrary*
//! deadlines and budgets.
//!
//! The third half pins the disk-backed corpus: a `CloudServer` over a
//! `PagedBackend` (real ciphertexts on disk, lazily hydrated through
//! the byte-budgeted decoded-index LRU) is byte-equal — results,
//! accounting, and virtual clock — to the same server over the
//! in-memory backend, for arbitrary deadlines, budgets, fault plans,
//! and cache budgets.

use apks_store::{PagedStore, StoreConfig, StoreError, SEGMENT_HEADER_LEN};
use std::fs;
use std::path::{Path, PathBuf};

/// Self-cleaning scratch directory (no tempdir crate in this tree).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("apks-store-it-{tag}-{}", std::process::id()));
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

const DIGEST: [u8; 32] = [7u8; 32];
const PAGE: usize = 256;

fn small_config() -> StoreConfig {
    StoreConfig {
        page_size: PAGE,
        segment_max_bytes: 4 * PAGE as u64,
    }
}

/// A store of `docs` puts with recognizable payloads, fully sealed.
fn seeded_store(dir: &Path, docs: u64) -> PagedStore {
    let mut store = PagedStore::open(dir, DIGEST, small_config()).unwrap();
    for id in 0..docs {
        store.put(id, vec![id as u8; 40]).unwrap();
    }
    store.seal().unwrap();
    store
}

fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
}

fn collect_ids(store: &mut PagedStore) -> Result<Vec<u64>, StoreError> {
    store
        .scan()
        .unwrap()
        .map(|item| item.map(|cell| cell.doc_id()))
        .collect()
}

#[test]
fn flipped_interior_page_checksum_fails_loudly() {
    let tmp = TempDir::new("flip");
    drop(seeded_store(tmp.path(), 30));
    let files = segment_files(tmp.path());
    assert!(files.len() > 1, "want several sealed segments");

    // flip one payload byte in the FIRST page of the FIRST segment —
    // interior corruption, not a torn tail
    let mut bytes = fs::read(&files[0]).unwrap();
    assert!(bytes.len() > SEGMENT_HEADER_LEN + PAGE);
    bytes[SEGMENT_HEADER_LEN + PAGE - 10] ^= 0x01;
    fs::write(&files[0], &bytes).unwrap();

    let mut store = PagedStore::open(tmp.path(), DIGEST, small_config()).unwrap();
    match collect_ids(&mut store) {
        Err(StoreError::PageChecksumMismatch {
            segment: 0,
            page: 0,
        }) => {}
        other => panic!("want loud checksum failure, got {other:?}"),
    }
}

#[test]
fn torn_final_append_is_skipped_and_the_prefix_survives() {
    let tmp = TempDir::new("torn");
    drop(seeded_store(tmp.path(), 30));
    let files = segment_files(tmp.path());
    let last = files.last().unwrap();

    // a partial trailing page: the classic torn write
    let bytes = fs::read(last).unwrap();
    let full_pages = (bytes.len() - SEGMENT_HEADER_LEN) / PAGE;
    assert!(
        full_pages >= 2,
        "want at least two pages in the tail segment"
    );
    let keep = SEGMENT_HEADER_LEN + (full_pages - 1) * PAGE + PAGE / 2;
    fs::write(last, &bytes[..keep]).unwrap();

    let mut store = PagedStore::open(tmp.path(), DIGEST, small_config()).unwrap();
    let ids = collect_ids(&mut store).unwrap();
    // everything before the torn page replays; nothing panics
    assert!(ids.len() < 30);
    assert_eq!(ids, (0..ids.len() as u64).collect::<Vec<_>>());
    let stats = store.stats().unwrap();
    assert_eq!(stats.torn_tails, 1);
}

#[test]
fn full_size_final_page_with_dead_checksum_is_a_torn_tail() {
    let tmp = TempDir::new("torn-full");
    drop(seeded_store(tmp.path(), 30));
    let files = segment_files(tmp.path());
    let last = files.last().unwrap();

    // the append wrote a whole page but the checksum never landed
    let mut bytes = fs::read(last).unwrap();
    let len = bytes.len();
    bytes[len - 1] ^= 0xFF;
    fs::write(last, &bytes).unwrap();

    let mut store = PagedStore::open(tmp.path(), DIGEST, small_config()).unwrap();
    let ids = collect_ids(&mut store).unwrap();
    assert!(ids.len() < 30, "the dead final page must not replay");
    assert_eq!(store.stats().unwrap().torn_tails, 1);
}

#[test]
fn truncated_segment_header_fails_at_open() {
    // a half-written header on a NON-tail segment is interior
    // corruption, not crash residue: open must refuse, loudly
    let tmp = TempDir::new("header");
    drop(seeded_store(tmp.path(), 30));
    let files = segment_files(tmp.path());
    assert!(files.len() > 1, "want several sealed segments");
    let bytes = fs::read(&files[0]).unwrap();
    fs::write(&files[0], &bytes[..SEGMENT_HEADER_LEN / 2]).unwrap();
    assert!(PagedStore::open(tmp.path(), DIGEST, small_config()).is_err());
}

#[test]
fn truncated_tail_segment_header_is_discarded_crash_residue() {
    // the same damage on the NEWEST segment is exactly what a crash
    // during segment creation leaves: open recovers by discarding it,
    // and every doc sealed into earlier segments survives
    let tmp = TempDir::new("header-tail");
    drop(seeded_store(tmp.path(), 30));
    let files = segment_files(tmp.path());
    assert!(files.len() > 1, "want several sealed segments");
    let last = files.last().unwrap();
    let bytes = fs::read(last).unwrap();
    fs::write(last, &bytes[..SEGMENT_HEADER_LEN / 2]).unwrap();

    let mut store = PagedStore::open(tmp.path(), DIGEST, small_config()).unwrap();
    assert_eq!(store.torn_creations(), 1);
    let ids = collect_ids(&mut store).unwrap();
    assert!(!ids.is_empty(), "earlier segments must replay");
    assert_eq!(ids, (0..ids.len() as u64).collect::<Vec<_>>());
    assert!(ids.len() < 30, "the discarded tail's docs are gone");
}

#[test]
fn corrupted_bytes_never_panic() {
    // one small segment; flip every byte in turn, then open + scan to
    // exhaustion — every outcome must be structured, never a panic
    let tmp = TempDir::new("fuzz");
    {
        let mut store = PagedStore::open(tmp.path(), DIGEST, small_config()).unwrap();
        for id in 0..6u64 {
            store.put(id, vec![id as u8; 40]).unwrap();
        }
        store.delete(2).unwrap();
        store.seal().unwrap();
    }
    let files = segment_files(tmp.path());
    assert_eq!(files.len(), 1);
    let clean = fs::read(&files[0]).unwrap();

    for pos in 0..clean.len() {
        let mut bad = clean.clone();
        bad[pos] ^= 0x20;
        fs::write(&files[0], &bad).unwrap();
        if let Ok(mut store) = PagedStore::open(tmp.path(), DIGEST, small_config()) {
            let _ = collect_ids(&mut store);
            let _ = store.stats();
        }
    }
}

#[test]
fn compaction_survives_a_torn_tail() {
    let tmp = TempDir::new("compact-torn");
    drop(seeded_store(tmp.path(), 30));
    let files = segment_files(tmp.path());
    let last = files.last().unwrap();
    let bytes = fs::read(last).unwrap();
    fs::write(last, &bytes[..bytes.len() - PAGE / 2]).unwrap();

    let mut store = PagedStore::open(tmp.path(), DIGEST, small_config()).unwrap();
    let surviving = collect_ids(&mut store).unwrap();
    let info = store.compact().unwrap();
    assert_eq!(info.cells, surviving.len() as u64);
    assert_eq!(collect_ids(&mut store).unwrap(), surviving);
    assert_eq!(
        store.stats().unwrap().torn_tails,
        0,
        "compaction rewrote clean"
    );
}

// ---------------------------------------------------------------------------
// Scatter-gather equivalence: sharded serial == single node
// ---------------------------------------------------------------------------

mod scatter_gather {
    use apks_authz::TrustedAuthority;
    use apks_cloud::{CloudServer, DegradedScan, ShardConfig, ShardRouter};
    use apks_core::fault::{FaultConfig, FaultContext, FaultPlan, RetryPolicy, VirtualClock};
    use apks_core::{
        ApksSystem, Budget, Deadline, EncryptedIndex, FieldValue, Query, QueryPolicy, Record,
        Schema,
    };
    use apks_curve::CurveParams;
    use apks_telemetry::MetricsRegistry;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::{Arc, OnceLock};

    const ILLNESS: [&str; 3] = ["flu", "diabetes", "cancer"];
    const DOC_COST: u64 = 7;

    fn authority() -> &'static TrustedAuthority {
        static TA: OnceLock<TrustedAuthority> = OnceLock::new();
        TA.get_or_init(|| {
            let schema = Schema::builder().flat_field("illness", 1).build().unwrap();
            let sys = ApksSystem::new(CurveParams::fast(), schema);
            let mut rng = StdRng::seed_from_u64(990_011);
            TrustedAuthority::setup(sys, &mut rng)
        })
    }

    fn server(ta: &TrustedAuthority, clock: &Arc<VirtualClock>) -> Arc<CloudServer> {
        let s = Arc::new(CloudServer::with_telemetry(
            ta.system().clone(),
            ta.public_key().clone(),
            ta.ibs_params().clone(),
            Arc::new(MetricsRegistry::new()),
            clock.clone(),
        ));
        s.register_authority("ta");
        s
    }

    /// Everything decision-relevant in a scan, canonically encoded.
    /// The two virtual-time measurement fields
    /// (`prepare_micros`/`scan_micros`) are excluded: the merge reports
    /// them as per-shard sums, while the single node reports one
    /// wave-wide reading — different measurement frames over identical
    /// work.
    fn canon(d: &DegradedScan) -> Vec<u8> {
        let mut out = Vec::new();
        for list in [&d.matches, &d.faulted, &d.unscanned] {
            out.extend((list.len() as u64).to_le_bytes());
            for id in list {
                out.extend(id.to_le_bytes());
            }
        }
        let s = &d.stats;
        for v in [
            s.scanned as u64,
            s.matched as u64,
            s.pairings as u64,
            s.faulted_docs as u64,
            s.retries as u64,
            s.unscanned_docs as u64,
        ] {
            out.extend(v.to_le_bytes());
        }
        out.extend([
            u8::from(s.degraded),
            u8::from(s.deadline_expired),
            u8::from(s.budget_exhausted),
        ]);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Sharded serial scatter-gather ≡ single node over the
        /// shard-order-concatenated corpus, under arbitrary deadlines,
        /// budgets, and a faulty corpus.
        #[test]
        fn sharded_serial_equals_single_node(
            shards in 1usize..5,
            docs in prop::collection::vec(0usize..3, 3..10),
            // deadline ≥ 120 means NEVER; budget ≥ 200 means unlimited
            queries in prop::collection::vec(
                (0usize..3, 0u64..150, 0u64..260),
                1..4,
            ),
            fault_seed in any::<u64>(),
            poisoned_permille in 0u32..200,
        ) {
            let ta = authority();
            let mut rng = StdRng::seed_from_u64(fault_seed ^ 0xA5A5);
            let indexes: Vec<EncryptedIndex> = docs
                .iter()
                .map(|&i| {
                    let rec = Record::new(vec![FieldValue::text(ILLNESS[i])]);
                    ta.system().gen_index(ta.public_key(), &rec, &mut rng).unwrap()
                })
                .collect();
            let caps: Vec<_> = queries
                .iter()
                .map(|&(i, _, _)| {
                    ta.issue_capability(
                        &Query::new().equals("illness", ILLNESS[i]),
                        &QueryPolicy::default(),
                        &mut rng,
                    )
                    .unwrap()
                })
                .collect();

            let plan = FaultPlan::new(FaultConfig {
                seed: fault_seed,
                poisoned_doc_permille: poisoned_permille,
                flaky_doc_permille: 100,
                slow_doc_permille: 100,
                ..FaultConfig::default()
            });
            let policy = RetryPolicy::default();

            // sharded run: round-robin upload through the router
            let shard_clock = Arc::new(VirtualClock::new());
            let router = ShardRouter::new(
                (0..shards).map(|_| server(ta, &shard_clock)).collect(),
                ShardConfig::default(),
                shard_clock.clone(),
                Arc::new(MetricsRegistry::new()),
            );
            router.upload_many(indexes.clone());

            let budget_of = |b: u64| {
                if b >= 200 { Budget::unlimited() } else { Budget::pairings(b) }
            };
            let deadline_of = |d: u64| {
                if d >= 120 { Deadline::NEVER } else { Deadline::at(d) }
            };

            let shard_budgets: Vec<Budget> =
                queries.iter().map(|&(_, _, b)| budget_of(b)).collect();
            let shard_requests: Vec<_> = queries
                .iter()
                .zip(&caps)
                .zip(&shard_budgets)
                .map(|(((_, d, _), cap), budget)| (cap, deadline_of(*d), budget))
                .collect();
            let sharded = router
                .search_batched(&shard_requests, &plan, &policy, DOC_COST)
                .unwrap();

            // oracle: ONE server holding the same docs under the same
            // global ids, in shard order (shard 0's corpus, then 1's, …)
            let solo_clock = Arc::new(VirtualClock::new());
            let solo = server(ta, &solo_clock);
            for s in 0..shards {
                for (id, index) in indexes.iter().enumerate().skip(s).step_by(shards) {
                    solo.upload_assigned(id as u64, index.clone());
                }
            }
            let solo_budgets: Vec<Budget> =
                queries.iter().map(|&(_, _, b)| budget_of(b)).collect();
            let solo_requests: Vec<_> = queries
                .iter()
                .zip(&caps)
                .zip(&solo_budgets)
                .map(|(((_, d, _), cap), budget)| (cap, deadline_of(*d), budget))
                .collect();
            let ctx = FaultContext::new(&plan, &policy, &solo_clock);
            let single = solo.search_batched(&solo_requests, &ctx, DOC_COST).unwrap();

            prop_assert_eq!(sharded.results.len(), single.len());
            for (merged, solo_scan) in sharded.results.iter().zip(&single) {
                prop_assert_eq!(canon(merged), canon(solo_scan));
            }
            // identical work ⇒ identical virtual time
            prop_assert_eq!(shard_clock.now(), solo_clock.now());
        }
    }
}

// ---------------------------------------------------------------------------
// Hydration equivalence: disk-backed PagedBackend == in-memory backend
// ---------------------------------------------------------------------------

mod hydration {
    use super::TempDir;
    use apks_authz::TrustedAuthority;
    use apks_cloud::{CloudServer, DegradedScan, HydrateConfig};
    use apks_core::fault::{FaultConfig, FaultContext, FaultPlan, RetryPolicy, VirtualClock};
    use apks_core::{
        ApksSystem, Budget, Deadline, EncryptedIndex, FieldValue, Query, QueryPolicy, Record,
        Schema,
    };
    use apks_curve::CurveParams;
    use apks_store::StoreConfig;
    use apks_telemetry::MetricsRegistry;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, OnceLock};

    const ILLNESS: [&str; 3] = ["flu", "diabetes", "cancer"];
    const DOC_COST: u64 = 7;

    fn authority() -> &'static TrustedAuthority {
        static TA: OnceLock<TrustedAuthority> = OnceLock::new();
        TA.get_or_init(|| {
            let schema = Schema::builder().flat_field("illness", 1).build().unwrap();
            let sys = ApksSystem::new(CurveParams::fast(), schema);
            let mut rng = StdRng::seed_from_u64(770_023);
            TrustedAuthority::setup(sys, &mut rng)
        })
    }

    fn memory_server(ta: &TrustedAuthority, clock: &Arc<VirtualClock>) -> CloudServer {
        let s = CloudServer::with_telemetry(
            ta.system().clone(),
            ta.public_key().clone(),
            ta.ibs_params().clone(),
            Arc::new(MetricsRegistry::new()),
            clock.clone(),
        );
        s.register_authority("ta");
        s
    }

    fn paged_server(
        ta: &TrustedAuthority,
        clock: &Arc<VirtualClock>,
        dir: &std::path::Path,
        cache_budget_bytes: usize,
    ) -> CloudServer {
        let s = CloudServer::with_paged_store(
            ta.system().clone(),
            ta.public_key().clone(),
            ta.ibs_params().clone(),
            Arc::new(MetricsRegistry::new()),
            clock.clone(),
            dir,
            StoreConfig {
                page_size: 4096,
                // tiny segments: a handful of documents rolls several
                segment_max_bytes: 8192,
            },
            HydrateConfig { cache_budget_bytes },
        )
        .unwrap();
        s.register_authority("ta");
        s
    }

    /// Everything decision-relevant in a scan, canonically encoded —
    /// same exclusions as the scatter-gather canon (the measurement-
    /// frame timings).
    fn canon(d: &DegradedScan) -> Vec<u8> {
        let mut out = Vec::new();
        for list in [&d.matches, &d.faulted, &d.unscanned] {
            out.extend((list.len() as u64).to_le_bytes());
            for id in list {
                out.extend(id.to_le_bytes());
            }
        }
        let s = &d.stats;
        for v in [
            s.scanned as u64,
            s.matched as u64,
            s.pairings as u64,
            s.faulted_docs as u64,
            s.retries as u64,
            s.unscanned_docs as u64,
        ] {
            out.extend(v.to_le_bytes());
        }
        out.extend([
            u8::from(s.degraded),
            u8::from(s.deadline_expired),
            u8::from(s.budget_exhausted),
        ]);
        out
    }

    fn case_dir() -> TempDir {
        static CASE: AtomicU64 = AtomicU64::new(0);
        TempDir::new(&format!("hydrate-{}", CASE.fetch_add(1, Ordering::Relaxed)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Disk-backed scans (real ciphertexts, lazy hydration, LRU of
        /// decoded indexes) ≡ in-memory scans: result sets, bound-cut
        /// accounting, and the virtual clock, under arbitrary
        /// deadlines, budgets, fault plans, and cache budgets — the
        /// cache budget is allowed to force evictions (or disable
        /// caching outright) without changing a single byte.
        #[test]
        fn paged_backend_scan_equals_memory_backend(
            docs in prop::collection::vec(0usize..3, 3..10),
            queries in prop::collection::vec(
                (0usize..3, 0u64..150, 0u64..260),
                1..4,
            ),
            fault_seed in any::<u64>(),
            poisoned_permille in 0u32..200,
            // 0 disables caching; 1500 fits ~a couple of fast-curve
            // indexes (forces evictions); the last never evicts
            cache_budget in (0usize..3).prop_map(|i| [0usize, 1500, 1 << 20][i]),
        ) {
            let ta = authority();
            let mut rng = StdRng::seed_from_u64(fault_seed ^ 0x5A5A);
            let indexes: Vec<EncryptedIndex> = docs
                .iter()
                .map(|&i| {
                    let rec = Record::new(vec![FieldValue::text(ILLNESS[i])]);
                    ta.system().gen_index(ta.public_key(), &rec, &mut rng).unwrap()
                })
                .collect();
            let caps: Vec<_> = queries
                .iter()
                .map(|&(i, _, _)| {
                    ta.issue_capability(
                        &Query::new().equals("illness", ILLNESS[i]),
                        &QueryPolicy::default(),
                        &mut rng,
                    )
                    .unwrap()
                })
                .collect();

            let plan = FaultPlan::new(FaultConfig {
                seed: fault_seed,
                poisoned_doc_permille: poisoned_permille,
                flaky_doc_permille: 100,
                slow_doc_permille: 100,
                ..FaultConfig::default()
            });
            let policy = RetryPolicy::default();
            let budget_of = |b: u64| {
                if b >= 200 { Budget::unlimited() } else { Budget::pairings(b) }
            };
            let deadline_of = |d: u64| {
                if d >= 120 { Deadline::NEVER } else { Deadline::at(d) }
            };

            let tmp = case_dir();
            let mem_clock = Arc::new(VirtualClock::new());
            let paged_clock = Arc::new(VirtualClock::new());
            let mem = memory_server(ta, &mem_clock);
            let paged = paged_server(ta, &paged_clock, tmp.path(), cache_budget);
            for index in &indexes {
                let a = mem.upload(index.clone());
                let b = paged.upload(index.clone());
                prop_assert_eq!(a, b);
            }

            // plain scan first (also warms the paged cache so the wave
            // below exercises hits, not just misses)
            for cap in &caps {
                let (m_hits, m_stats) = mem.scan(&cap.capability).unwrap();
                let (p_hits, p_stats) = paged.scan(&cap.capability).unwrap();
                prop_assert_eq!(&m_hits, &p_hits);
                prop_assert_eq!(m_stats.scanned, p_stats.scanned);
                prop_assert_eq!(m_stats.matched, p_stats.matched);
                prop_assert_eq!(m_stats.pairings, p_stats.pairings);
            }

            let mem_budgets: Vec<Budget> =
                queries.iter().map(|&(_, _, b)| budget_of(b)).collect();
            let mem_requests: Vec<_> = queries
                .iter()
                .zip(&caps)
                .zip(&mem_budgets)
                .map(|(((_, d, _), cap), budget)| (cap, deadline_of(*d), budget))
                .collect();
            let mem_ctx = FaultContext::new(&plan, &policy, &mem_clock);
            let mem_scans = mem.search_batched(&mem_requests, &mem_ctx, DOC_COST).unwrap();

            let paged_budgets: Vec<Budget> =
                queries.iter().map(|&(_, _, b)| budget_of(b)).collect();
            let paged_requests: Vec<_> = queries
                .iter()
                .zip(&caps)
                .zip(&paged_budgets)
                .map(|(((_, d, _), cap), budget)| (cap, deadline_of(*d), budget))
                .collect();
            let paged_ctx = FaultContext::new(&plan, &policy, &paged_clock);
            let paged_scans = paged
                .search_batched(&paged_requests, &paged_ctx, DOC_COST)
                .unwrap();

            prop_assert_eq!(mem_scans.len(), paged_scans.len());
            for (m, p) in mem_scans.iter().zip(&paged_scans) {
                prop_assert_eq!(canon(m), canon(p));
            }
            // hydration must never advance virtual time on its own
            prop_assert_eq!(mem_clock.now(), paged_clock.now());
        }
    }
}
