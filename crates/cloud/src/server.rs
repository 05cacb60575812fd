//! The encrypted-index store and search engine.

use crate::backend::{CorpusBackend, CorpusError, HydrateConfig, MemoryBackend, PagedBackend};
use apks_authz::{IbsPublicParams, SignedCapability};
use apks_core::fault::{DocFault, FaultConfig, FaultContext, FaultPlan, RetryPolicy, VirtualClock};
use apks_core::{
    ApksError, ApksPublicKey, ApksSystem, Budget, Capability, Deadline, EncryptedIndex,
    PreparedCapability,
};
use apks_curve::CurveParams;
use apks_math::encode::Writer;
use apks_math::sha256::sha256;
use apks_store::StoreConfig;
use apks_telemetry::source::{self, SourceCounts};
use apks_telemetry::{Clock, MetricsRegistry, MetricsSnapshot, WallClock};
use core::fmt;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// An opaque document identifier assigned at upload.
pub type DocumentId = u64;

/// Errors from search submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchOutcome {
    /// The capability's signature did not verify.
    BadSignature,
    /// The issuing authority is not registered with this server.
    UnknownIssuer(String),
    /// The underlying APKS evaluation failed (deployment mismatch, …).
    Apks(ApksError),
    /// The corpus backend failed to materialize a document on the
    /// strict (non-degraded) scan path.
    Corpus(CorpusError),
}

impl fmt::Display for SearchOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchOutcome::BadSignature => write!(f, "capability signature invalid"),
            SearchOutcome::UnknownIssuer(id) => write!(f, "issuer {id:?} not registered"),
            SearchOutcome::Apks(e) => write!(f, "apks error: {e}"),
            SearchOutcome::Corpus(e) => write!(f, "corpus error: {e}"),
        }
    }
}

impl std::error::Error for SearchOutcome {}

/// Accounting for one search run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Number of indexes evaluated.
    pub scanned: usize,
    /// Number of matches returned.
    pub matched: usize,
    /// One-time capability preprocessing cost, in ticks of the clock
    /// the scan is timed on: the server's own clock for
    /// [`CloudServer::search`] and [`CloudServer::scan`] (microseconds
    /// under [`WallClock`], virtual ticks when a simulation injects its
    /// clock), the fault context's virtual clock for every other entry
    /// point. 0 for a query whose deadline expired before it started.
    pub prepare_micros: u64,
    /// Corpus-scan time in ticks of the same clock (excludes
    /// preparation): elapsed time, with the documents evaluated on
    /// every core.
    pub scan_micros: u64,
    /// Pairing evaluations this query paid for: `n + 3` per evaluated
    /// document, none for skipped ones. The `cloud.scan.pairings` and
    /// `cloud.wave.pairings` counters measure the same work at the
    /// pairing layer.
    pub pairings: usize,
    /// Documents whose evaluation faulted through the whole retry budget
    /// and were skipped (never silently dropped — also listed in
    /// [`DegradedScan::faulted`]).
    pub faulted_docs: usize,
    /// Evaluation retries performed while scanning flaky documents.
    pub retries: usize,
    /// True iff at least one document was skipped: the match set covers
    /// only the healthy corpus.
    pub degraded: bool,
    /// True iff the request's [`Deadline`] expired before or during the
    /// scan: the tail of the corpus was never evaluated.
    pub deadline_expired: bool,
    /// True iff the request's pairing [`Budget`] ran out mid-scan.
    pub budget_exhausted: bool,
    /// Documents never evaluated because the deadline or budget cut the
    /// scan short (also listed in [`DegradedScan::unscanned`]).
    pub unscanned_docs: usize,
}

/// Outcome of a degraded-mode scan: the matches over the healthy corpus
/// plus an explicit list of the documents the scan had to skip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedScan {
    /// Matching document ids among the documents that evaluated.
    pub matches: Vec<DocumentId>,
    /// Documents skipped because evaluation faulted past the budget.
    pub faulted: Vec<DocumentId>,
    /// Documents never evaluated: a deadline or pairing budget stopped
    /// the scan before reaching them. Empty on unbounded scans.
    pub unscanned: Vec<DocumentId>,
    /// Accounting (with `faulted_docs`/`retries`/`degraded` populated).
    pub stats: SearchStats,
}

/// One query's slot in a scan wave: its capability plus the overload
/// bounds that stay **per-request** even when the scan is shared.
#[derive(Clone, Copy)]
pub struct WaveRequest<'a> {
    /// The query's capability.
    pub cap: &'a Capability,
    /// The query's own deadline, re-checked per document.
    pub deadline: Deadline,
    /// The query's own pairing budget, charged per document.
    pub budget: &'a Budget,
}

/// The metrics namespace a scan writes, picked by the entry point and
/// never by a caller: solo scans ([`CloudServer::search`],
/// [`CloudServer::scan`], [`CloudServer::search_bounded`]) write the
/// `cloud.scan.*` ledger, batched waves ([`CloudServer::search_batched`],
/// [`CloudServer::scan_wave`]) the `cloud.wave.*` one, so each stays
/// comparable across versions.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ledger {
    Solo,
    Wave,
}

impl Ledger {
    /// This ledger's name for a metric both ledgers record.
    fn pick(self, solo: &'static str, wave: &'static str) -> &'static str {
        match self {
            Ledger::Solo => solo,
            Ledger::Wave => wave,
        }
    }
}

/// The position of `item` in `table`, appending it first if absent.
fn intern<T: PartialEq>(table: &mut Vec<T>, item: T) -> usize {
    match table.iter().position(|t| *t == item) {
        Some(i) => i,
        None => {
            table.push(item);
            table.len() - 1
        }
    }
}

/// A digest-keyed cache of prepared capabilities, shared across the
/// shards of one deployment so a scatter-gather query pays the Miller
/// precomputation **once**, not once per shard.
///
/// Keys are the SHA-256 of the capability's canonical encoding, so two
/// structurally identical capabilities share an entry regardless of
/// which shard prepared first. The map is unbounded: entries are tiny
/// relative to a scan and a deployment sees few distinct capabilities
/// in flight. Lookups never advance any clock — installing the cache
/// cannot perturb a virtual-clock simulation's timeline.
#[derive(Default)]
pub struct PreparedCache {
    map: RwLock<HashMap<[u8; 32], Arc<PreparedCapability>>>,
    calls: AtomicU64,
    hits: AtomicU64,
}

impl PreparedCache {
    /// An empty cache.
    pub fn new() -> PreparedCache {
        PreparedCache::default()
    }

    /// The cache key for a capability: SHA-256 of its canonical
    /// encoding.
    pub fn key(params: &CurveParams, cap: &Capability) -> [u8; 32] {
        let mut w = Writer::new();
        cap.encode(params, &mut w);
        sha256(&w.finish())
    }

    /// Looks up a prepared capability, counting the call (and the hit).
    pub fn get(&self, key: &[u8; 32]) -> Option<Arc<PreparedCapability>> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let hit = self.map.read().get(key).cloned();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Installs a freshly prepared capability.
    pub fn insert(&self, key: [u8; 32], prepared: Arc<PreparedCapability>) {
        self.map.write().insert(key, prepared);
    }

    /// Lookups performed.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed — i.e. `prepare_capability` runs actually
    /// paid by servers sharing this cache.
    pub fn misses(&self) -> u64 {
        self.calls() - self.hits()
    }

    /// Distinct capabilities cached.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }
}

/// The cloud server.
pub struct CloudServer {
    system: ApksSystem,
    pk: ApksPublicKey,
    ibs: IbsPublicParams,
    registered: RwLock<HashSet<String>>,
    store: Box<dyn CorpusBackend>,
    next_id: AtomicUsize,
    /// Cross-server prepared-capability cache, installed by the shard
    /// router (`None` on solo servers: a solo scan's preparation cost
    /// stays visible, uncached, exactly as the paper measures it).
    prepared: RwLock<Option<Arc<PreparedCache>>>,
    metrics: Arc<MetricsRegistry>,
    clock: Arc<dyn Clock>,
    /// Threads a scan evaluates its documents on, the calling thread
    /// included: the host's available parallelism, read once here
    /// because std re-reads the cgroup quota on every call.
    workers: usize,
}

/// Positions a scan walks before it evaluates their documents. It
/// bounds the decoded indexes one scan holds at once, and it pays for
/// starting the evaluating threads once per chunk: one evaluation costs
/// 230–400 µs on the reference host, a thread start tens of µs.
const CHUNK: usize = 64;

impl CloudServer {
    /// Creates a server for one deployment, timing against the wall
    /// clock with a private metrics registry.
    pub fn new(system: ApksSystem, pk: ApksPublicKey, ibs: IbsPublicParams) -> CloudServer {
        CloudServer::with_telemetry(
            system,
            pk,
            ibs,
            Arc::new(MetricsRegistry::new()),
            Arc::new(WallClock),
        )
    }

    /// Creates a server that records into `metrics` and charges its
    /// timings (stats *and* latency histograms) to `clock`. The sim
    /// passes a deployment-shared registry and its virtual clock so
    /// same-seed chaos runs reproduce every timing byte for byte.
    pub fn with_telemetry(
        system: ApksSystem,
        pk: ApksPublicKey,
        ibs: IbsPublicParams,
        metrics: Arc<MetricsRegistry>,
        clock: Arc<dyn Clock>,
    ) -> CloudServer {
        CloudServer::with_backend(
            system,
            pk,
            ibs,
            metrics,
            clock,
            Box::new(MemoryBackend::new()),
        )
    }

    /// Creates a server over an explicit [`CorpusBackend`].
    pub fn with_backend(
        system: ApksSystem,
        pk: ApksPublicKey,
        ibs: IbsPublicParams,
        metrics: Arc<MetricsRegistry>,
        clock: Arc<dyn Clock>,
        store: Box<dyn CorpusBackend>,
    ) -> CloudServer {
        CloudServer {
            system,
            pk,
            ibs,
            registered: RwLock::new(HashSet::new()),
            store,
            next_id: AtomicUsize::new(0),
            prepared: RwLock::new(None),
            metrics,
            clock,
            workers: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }

    /// Creates a server whose corpus is disk-backed: ciphertexts live
    /// in a [`PagedBackend`] at `dir` and are decoded lazily through a
    /// byte-budgeted LRU (telemetry under `cloud.hydrate.*` in
    /// `metrics`). Documents already on disk are served immediately;
    /// `next_id` resumes past the highest stored id.
    ///
    /// # Errors
    ///
    /// Store open failures (I/O, foreign segments).
    #[allow(clippy::too_many_arguments)] // the deployment's full wiring is explicit by design
    pub fn with_paged_store(
        system: ApksSystem,
        pk: ApksPublicKey,
        ibs: IbsPublicParams,
        metrics: Arc<MetricsRegistry>,
        clock: Arc<dyn Clock>,
        dir: &Path,
        store_config: StoreConfig,
        hydrate_config: HydrateConfig,
    ) -> Result<CloudServer, CorpusError> {
        let backend = PagedBackend::open(
            system.clone(),
            dir,
            store_config,
            hydrate_config,
            metrics.clone(),
            clock.clone(),
        )?;
        let next = backend
            .doc_ids()
            .iter()
            .map(|&id| id as usize + 1)
            .max()
            .unwrap_or(0);
        let server = CloudServer::with_backend(system, pk, ibs, metrics, clock, Box::new(backend));
        server.next_id.store(next, Ordering::Relaxed);
        Ok(server)
    }

    /// Installs a [`PreparedCache`] (normally the shard router's,
    /// shared by every shard of a deployment).
    pub fn set_prepared_cache(&self, cache: Arc<PreparedCache>) {
        *self.prepared.write() = Some(cache);
    }

    /// The installed prepared-capability cache, if any.
    pub fn prepared_cache(&self) -> Option<Arc<PreparedCache>> {
        self.prepared.read().clone()
    }

    /// The server's metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// A point-in-time snapshot of the server's metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Registers an authority identity whose signatures are accepted.
    pub fn register_authority(&self, id: impl Into<String>) {
        self.registered.write().insert(id.into());
    }

    /// Stores an encrypted index; returns its document id.
    ///
    /// # Panics
    ///
    /// Panics if a disk-backed corpus fails to accept the write; use
    /// [`CloudServer::try_upload`] to observe storage errors.
    pub fn upload(&self, index: EncryptedIndex) -> DocumentId {
        self.try_upload(index).expect("corpus append failed")
    }

    /// Stores an encrypted index, surfacing backend storage errors.
    ///
    /// # Errors
    ///
    /// Backend storage failures (I/O on a disk-backed corpus).
    pub fn try_upload(&self, index: EncryptedIndex) -> Result<DocumentId, CorpusError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) as DocumentId;
        self.store.push(id, index)?;
        Ok(id)
    }

    /// Stores a batch of encrypted indexes; returns their document ids
    /// in batch order, guaranteed contiguous (the whole id range is
    /// reserved atomically, so no concurrent upload can interleave ids
    /// inside a batch).
    ///
    /// # Panics
    ///
    /// Panics if a disk-backed corpus fails to accept a write.
    pub fn upload_many(&self, indexes: Vec<EncryptedIndex>) -> Vec<DocumentId> {
        let first = self.next_id.fetch_add(indexes.len(), Ordering::Relaxed) as DocumentId;
        indexes
            .into_iter()
            .enumerate()
            .map(|(i, index)| {
                let id = first + i as DocumentId;
                self.store.push(id, index).expect("corpus append failed");
                id
            })
            .collect()
    }

    /// Stores an encrypted index under a caller-assigned document id.
    ///
    /// Used by the shard router, which owns the global id space and
    /// routes each id to one shard — ids must stay globally unique even
    /// though each shard numbers only a slice of the corpus. Keeps
    /// `next_id` ahead of every assigned id so a later plain
    /// [`CloudServer::upload`] cannot collide.
    ///
    /// Re-using an id **overwrites** the existing document in place
    /// (the document keeps its scan position; the last write wins,
    /// matching the paged store's compaction semantics) — it never
    /// silently stores a second copy for scans to double-count.
    /// Returns `true` when `id` was new, `false` on an overwrite.
    ///
    /// # Panics
    ///
    /// Panics if a disk-backed corpus fails to accept the write.
    pub fn upload_assigned(&self, id: DocumentId, index: EncryptedIndex) -> bool {
        let fresh = self.store.push(id, index).expect("corpus append failed");
        self.next_id.fetch_max(id as usize + 1, Ordering::Relaxed);
        fresh
    }

    /// The stored document ids, in store (scan) order.
    pub fn doc_ids(&self) -> Vec<DocumentId> {
        self.store.doc_ids()
    }

    /// The stored index under `id`, hydrated from the backend — the
    /// anti-entropy pass reads replicas through this to compare and
    /// re-ship documents.
    ///
    /// # Errors
    ///
    /// Storage failures while hydrating a disk-backed document.
    pub fn document(&self, id: DocumentId) -> Result<Option<Arc<EncryptedIndex>>, CorpusError> {
        match self.store.doc_ids().iter().position(|&d| d == id) {
            Some(pos) => self.store.hydrate(pos).map(Some),
            None => Ok(None),
        }
    }

    /// A liveness probe: materializes the first stored document,
    /// surfacing the kind of storage fault that would otherwise degrade
    /// every document of a scan (the batched wave absorbs per-document
    /// hydrate failures into `faulted` rather than erroring). The shard
    /// router probes a replica before serving a wave from it and fails
    /// over on an error. Empty corpora are vacuously healthy.
    ///
    /// # Errors
    ///
    /// Whatever the backend reports for the first document.
    pub fn probe(&self) -> Result<(), CorpusError> {
        if self.store.is_empty() {
            return Ok(());
        }
        self.store.hydrate(0).map(|_| ())
    }

    /// Number of stored indexes.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True iff the store is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// On-disk shape of the backing store — `None` for in-memory
    /// corpora.
    ///
    /// # Errors
    ///
    /// Storage failures while statting a disk-backed corpus.
    pub fn store_stats(&self) -> Result<Option<apks_store::StoreStats>, CorpusError> {
        self.store.store_stats()
    }

    /// The unscanned tail `pos..total` as document ids, without
    /// hydrating anything. Clamped to the `total` captured at scan
    /// start so a concurrent upload cannot inflate a cut query's tail.
    fn ids_tail(&self, pos: usize, total: usize) -> Vec<DocumentId> {
        let mut ids = self.store.ids_from(pos);
        ids.truncate(total.saturating_sub(pos));
        ids
    }

    /// Verifies a signed capability (signature + issuer registration).
    ///
    /// # Errors
    ///
    /// Returns why the capability was rejected.
    pub fn admit(&self, cap: &SignedCapability) -> Result<(), SearchOutcome> {
        if !self.registered.read().contains(&cap.issuer) {
            return Err(SearchOutcome::UnknownIssuer(cap.issuer.clone()));
        }
        if !cap.verify(self.system.params(), &self.ibs) {
            return Err(SearchOutcome::BadSignature);
        }
        Ok(())
    }

    /// The single entry point for capability preparation on every scan
    /// path: measures the work through `clock`, records the ticks into
    /// `metric`, and — when a [`PreparedCache`] is installed — reuses
    /// a previously prepared capability instead of redoing the Miller
    /// precomputation. Returns `(prepared, ticks, source counts)`;
    /// counts are zero on a cache hit because no pairing work ran.
    ///
    /// Never advances a virtual clock, so caching cannot shift a
    /// simulation's timeline — only the measured preparation cost.
    fn prepare_measured(
        &self,
        cap: &Capability,
        clock: &dyn Clock,
        metric: &'static str,
    ) -> (
        Result<Arc<PreparedCapability>, SearchOutcome>,
        u64,
        SourceCounts,
    ) {
        let cache = self.prepared.read().clone();
        let start = clock.now_ticks();
        let key = cache
            .as_ref()
            .map(|_| PreparedCache::key(self.system.params(), cap));
        if let (Some(cache), Some(key)) = (&cache, &key) {
            if let Some(hit) = cache.get(key) {
                self.metrics.add("cloud.prepare.cache_hits", 1);
                let ticks = clock.now_ticks().saturating_sub(start);
                self.metrics.record(metric, ticks);
                return (Ok(hit), ticks, SourceCounts::default());
            }
        }
        let (res, counts) = source::measure(|| self.system.prepare_capability(cap));
        let ticks = clock.now_ticks().saturating_sub(start);
        self.metrics.record(metric, ticks);
        let res = res.map(Arc::new).map_err(SearchOutcome::Apks);
        if let (Some(cache), Some(key), Ok(prepared)) = (&cache, key, &res) {
            cache.insert(key, prepared.clone());
        }
        (res, ticks, counts)
    }

    /// Full search: admit, then [`CloudServer::scan`].
    ///
    /// # Errors
    ///
    /// Fails if the capability is rejected, and otherwise exactly as
    /// [`CloudServer::scan`] does.
    pub fn search(
        &self,
        cap: &SignedCapability,
    ) -> Result<(Vec<DocumentId>, SearchStats), SearchOutcome> {
        self.admit(cap)?;
        self.scan(&cap.capability)
    }

    /// Evaluates an *unsigned* capability against every stored index —
    /// used by benchmarks that are not measuring the authorization
    /// layer.
    ///
    /// A wave of one with no deadline, no budget, no faults and no
    /// service cost. The capability's Miller lines are precomputed
    /// **once per search**, so every per-document pairing runs in the
    /// paper's "with preprocessing" mode (§VII-B.4); the one-time cost
    /// is reported in [`SearchStats::prepare_micros`]. Timings are read
    /// from the server's own clock.
    ///
    /// # Errors
    ///
    /// Strict: fails on deployment mismatch, and on the first document
    /// the backend cannot hydrate ([`SearchOutcome::Corpus`]) or the
    /// deployment cannot evaluate ([`SearchOutcome::Apks`]). The bounded
    /// and batched entry points skip such documents into
    /// [`DegradedScan::faulted`] instead.
    pub fn scan(&self, cap: &Capability) -> Result<(Vec<DocumentId>, SearchStats), SearchOutcome> {
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let budget = Budget::unlimited();
        let request = WaveRequest {
            cap,
            deadline: Deadline::NEVER,
            budget: &budget,
        };
        let scan = self.scan_one(request, &ctx, 0, true)?;
        Ok((scan.matches, scan.stats))
    }

    /// Admit, then scan under a deadline and pairing budget — the
    /// overload-protection entry point.
    ///
    /// A wave of one: bounds, faults and the per-document service cost
    /// behave exactly as in [`CloudServer::scan_wave`], and the
    /// accounting lands on the solo `cloud.scan.*` ledger. A request
    /// whose deadline has already expired on arrival performs no work
    /// at all and touches no counter except
    /// `cloud.scan.deadline_expired` — shed work must not dilute the
    /// scan telemetry.
    ///
    /// # Errors
    ///
    /// Fails if the capability is rejected or cannot be prepared
    /// (deployment mismatch); faults, expiry and exhaustion degrade the
    /// result instead of failing it.
    pub fn search_bounded(
        &self,
        cap: &SignedCapability,
        ctx: &FaultContext<'_>,
        deadline: Deadline,
        budget: &Budget,
        doc_cost_ticks: u64,
    ) -> Result<DegradedScan, SearchOutcome> {
        self.admit(cap)?;
        let request = WaveRequest {
            cap: &cap.capability,
            deadline,
            budget,
        };
        self.scan_one(request, ctx, doc_cost_ticks, false)
    }

    /// A solo scan: one request run as a wave of one on the solo ledger.
    fn scan_one(
        &self,
        request: WaveRequest<'_>,
        ctx: &FaultContext<'_>,
        doc_cost_ticks: u64,
        strict: bool,
    ) -> Result<DegradedScan, SearchOutcome> {
        let mut scans = self.run_wave(&[request], ctx, doc_cost_ticks, Ledger::Solo, strict)?;
        Ok(scans.pop().expect("a wave of one yields one scan"))
    }

    /// Admit every capability, then run one batched wave over the
    /// corpus — the multi-query overload entry point.
    ///
    /// # Errors
    ///
    /// Fails if **any** capability is rejected (the wave is all-or-
    /// nothing at admission; shed decisions belong to the admission
    /// controller, before batching).
    pub fn search_batched(
        &self,
        requests: &[(&SignedCapability, Deadline, &Budget)],
        ctx: &FaultContext<'_>,
        doc_cost_ticks: u64,
    ) -> Result<Vec<DegradedScan>, SearchOutcome> {
        for (cap, _, _) in requests {
            self.admit(cap)?;
        }
        let wave: Vec<WaveRequest<'_>> = requests
            .iter()
            .map(|(cap, deadline, budget)| WaveRequest {
                cap: &cap.capability,
                deadline: *deadline,
                budget,
            })
            .collect();
        self.scan_wave(&wave, ctx, doc_cost_ticks)
    }

    /// Multi-capability batched corpus scan: walks the store **once**,
    /// loads each encrypted index a single time, and evaluates every
    /// query in the wave against it in one lockstep multi-pairing
    /// ([`ApksSystem::search_prepared_wave`]) — one final exponentiation
    /// per (document, capability) group. Identical capabilities in the
    /// wave are deduplicated: their Miller work runs once and the
    /// verdict fans out, though each duplicate still charges its own
    /// [`Budget`].
    ///
    /// This is the server's one scan kernel: every other entry point
    /// runs it as a wave of one. It evaluates a scan's documents on
    /// every core the host gives; results, counters and virtual ticks
    /// do not depend on how many.
    ///
    /// Overload bounds stay per-request. Each query's [`Deadline`] is
    /// re-checked against the fault context's clock and its `Budget`
    /// charged (`n + 3` pairings) before every document, in wave order —
    /// a query whose bound dies mid-wave stops scanning there and
    /// reports the tail in its own [`DegradedScan::unscanned`], while
    /// the rest of the wave continues. Each evaluated document charges
    /// `doc_cost_ticks` (the sim's discrete-event service model) plus
    /// any fault-injected slowness or retry backoff to that clock
    /// **once per document**, not once per query — that amortization is
    /// the point of batching. Faults are a pure function of the
    /// document id, so every query in the wave sees the outcome a solo
    /// scan would: flaky documents retry under `ctx.policy`, while
    /// poisoned documents — and documents the backend cannot hydrate or
    /// the deployment cannot evaluate — are skipped into
    /// [`DegradedScan::faulted`]. With [`Deadline::NEVER`] deadlines a
    /// wave's per-query results (matches, faulted, unscanned,
    /// accounting) are exactly those of sequential
    /// [`CloudServer::search_bounded`] runs, and with live deadlines
    /// each query scans a prefix, so its hits stay a subset of the solo
    /// scan's.
    ///
    /// A query whose deadline has already expired at wave start does no
    /// work at all — its capability is not even prepared unless a live
    /// query shares it. Wave telemetry lands under `cloud.wave.*`
    /// (size, distinct capabilities, measured amortized pairings,
    /// per-query bound cuts); the solo `cloud.scan.*` ledger is
    /// untouched, so solo-scan accounting stays comparable across
    /// versions.
    ///
    /// # Errors
    ///
    /// Fails only if some live capability cannot be prepared
    /// (deployment mismatch).
    pub fn scan_wave(
        &self,
        requests: &[WaveRequest<'_>],
        ctx: &FaultContext<'_>,
        doc_cost_ticks: u64,
    ) -> Result<Vec<DegradedScan>, SearchOutcome> {
        self.run_wave(requests, ctx, doc_cost_ticks, Ledger::Wave, false)
    }

    /// The scan kernel behind every entry point, and the only loop over
    /// corpus positions. `ledger` picks the metrics namespace. A
    /// `strict` scan returns the first hydrate or evaluation error
    /// instead of skipping the document, and reads its timings from the
    /// server's own clock; every other scan times on `ctx.clock`, so a
    /// same-seed simulation reproduces every stat byte for byte.
    ///
    /// The kernel runs in chunks of up to [`CHUNK`] positions, in three
    /// steps. The walk, on the calling thread, makes every decision in
    /// position order: bounds, the service charge, faults and retries,
    /// hydration, capability dedup and every check that can fail the
    /// evaluation. The evaluation runs the chunk's documents on
    /// `workers` threads. The merge folds the verdicts into each
    /// query's scan in position order. So every result, counter,
    /// histogram and virtual tick equals that of a scan evaluating each
    /// position before it walks the next, for any worker count, and a
    /// strict scan fails at that scan's position, with nothing hydrated
    /// past it. Under a wall clock, `scan_micros` is the scan's elapsed
    /// (parallel) time, and each `doc_ticks` value is the walk's ticks
    /// for the document plus its evaluation's ticks on its worker.
    fn run_wave(
        &self,
        requests: &[WaveRequest<'_>],
        ctx: &FaultContext<'_>,
        doc_cost_ticks: u64,
        ledger: Ledger,
        strict: bool,
    ) -> Result<Vec<DegradedScan>, SearchOutcome> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let total = self.store.len();
        let timer: &dyn Clock = if strict { &*self.clock } else { ctx.clock };
        let entry = ctx.clock.now();
        let doc_pairings = (self.system.n() + 3) as u64;

        /// Per-query scan state.
        struct QState {
            /// Index into the distinct-capability table.
            cap_idx: usize,
            /// Still scanning (not cut by a bound).
            live: bool,
            /// Expired before the wave started: no work, no preparation.
            dead_at_entry: bool,
            matches: Vec<DocumentId>,
            faulted: Vec<DocumentId>,
            /// Store position where a bound cut the scan, if any.
            cut_pos: Option<usize>,
            deadline_expired: bool,
            budget_exhausted: bool,
            retries: usize,
            /// Documents actually evaluated (each costs `n + 3`
            /// logical pairings against this query's budget).
            evals: usize,
        }

        // Deduplicate capabilities (waves are small; linear scan).
        let mut distinct: Vec<&Capability> = Vec::new();
        let mut states: Vec<QState> = requests
            .iter()
            .map(|req| {
                let dead_at_entry = req.deadline.expired_at(entry);
                QState {
                    cap_idx: intern(&mut distinct, req.cap),
                    live: !dead_at_entry,
                    dead_at_entry,
                    matches: Vec::new(),
                    faulted: Vec::new(),
                    cut_pos: dead_at_entry.then_some(0),
                    deadline_expired: dead_at_entry,
                    budget_exhausted: false,
                    retries: 0,
                    evals: 0,
                }
            })
            .collect();
        let finish = |q: QState, prepare_micros: u64, scan_micros: u64| {
            let unscanned = match q.cut_pos {
                Some(pos) => self.ids_tail(pos, total),
                None => Vec::new(),
            };
            // a query dead at entry did no work, so it took no time
            let worked = !q.dead_at_entry;
            let stats = SearchStats {
                scanned: total - unscanned.len(),
                matched: q.matches.len(),
                prepare_micros: if worked { prepare_micros } else { 0 },
                scan_micros: if worked { scan_micros } else { 0 },
                pairings: q.evals * doc_pairings as usize,
                faulted_docs: q.faulted.len(),
                retries: q.retries,
                degraded: !q.faulted.is_empty() || !unscanned.is_empty(),
                deadline_expired: q.deadline_expired,
                budget_exhausted: q.budget_exhausted,
                unscanned_docs: unscanned.len(),
            };
            DegradedScan {
                matches: q.matches,
                faulted: q.faulted,
                unscanned,
                stats,
            }
        };

        // A solo request already expired on arrival is shed work: it
        // records its expiry and nothing else.
        if ledger == Ledger::Solo && states.iter().all(|q| q.dead_at_entry) {
            self.metrics.add("cloud.scan.deadline_expired", 1);
            return Ok(states.into_iter().map(|q| finish(q, 0, 0)).collect());
        }

        // Prepare each distinct capability once — but only those some
        // live query needs (a wave of dead queries does no crypto).
        let mut prepared: Vec<Option<Arc<PreparedCapability>>> = vec![None; distinct.len()];
        let mut prep_ticks: Vec<u64> = vec![0; distinct.len()];
        let mut prep_counts = SourceCounts::default();
        let prepare_metric = ledger.pick("cloud.scan.prepare_ticks", "cloud.wave.prepare_ticks");
        for q in states.iter().filter(|q| q.live) {
            if prepared[q.cap_idx].is_some() {
                continue;
            }
            let (res, ticks, counts) =
                self.prepare_measured(distinct[q.cap_idx], timer, prepare_metric);
            prep_counts += counts;
            prep_ticks[q.cap_idx] = ticks;
            prepared[q.cap_idx] = Some(res?);
        }

        let doc_hist = self
            .metrics
            .histogram(ledger.pick("cloud.scan.doc_ticks", "cloud.wave.doc_ticks"));

        /// One walked position, waiting for its verdicts.
        struct Walked {
            id: DocumentId,
            /// The queries that passed their bounds here, in wave order.
            survivors: Vec<usize>,
            /// Each survivor's capability slot in the evaluation.
            slots: Vec<usize>,
            /// This position's evaluation in the chunk's jobs; `None` if
            /// the document was skipped into `faulted`.
            job: Option<usize>,
            /// Ticks the walk spent on this position.
            ticks: u64,
        }
        type Job<'p> = (Vec<&'p PreparedCapability>, Arc<EncryptedIndex>);
        type Evaluated = (usize, Result<Vec<bool>, ApksError>, u64);

        let mut chunk: Vec<Walked> = Vec::with_capacity(CHUNK);
        let mut jobs: Vec<Job<'_>> = Vec::with_capacity(CHUNK);
        let mut results: Vec<Evaluated> = Vec::with_capacity(CHUNK);
        let mut scan_counts = SourceCounts::default();
        let mut docs_touched = 0u64;
        let mut shared_evals = 0u64;
        let mut pos = 0;
        let mut walking = true;
        let scan_start = timer.now_ticks();
        while walking {
            // The walk: every decision of the scan, on this thread, in
            // position order. No decision reads a verdict: deadlines
            // read `ctx.clock`, which evaluation never advances, and
            // bounds, faults, hydration and the service charge are per
            // position. So walking a chunk ahead of its verdicts decides
            // exactly what evaluating each position in turn would.
            while chunk.len() < CHUNK {
                let Some(id) = (pos < total).then(|| self.store.doc_id(pos)).flatten() else {
                    walking = false;
                    break;
                };
                // Each live query's bounds, in wave order: deadline
                // first, then budget.
                let mut survivors = Vec::new();
                for (qi, q) in states.iter_mut().enumerate() {
                    if !q.live {
                        continue;
                    }
                    if requests[qi].deadline.expired_at(ctx.clock.now()) {
                        q.deadline_expired = true;
                    } else if !requests[qi].budget.try_charge(doc_pairings) {
                        q.budget_exhausted = true;
                    } else {
                        survivors.push(qi);
                        continue;
                    }
                    q.live = false;
                    q.cut_pos = Some(pos);
                }
                if survivors.is_empty() {
                    walking = false;
                    break;
                }
                docs_touched += 1;
                let start = timer.now_ticks();
                // One load + one service charge for the whole wave.
                ctx.clock.advance(doc_cost_ticks);
                let (evaluable, retries) = Self::resolve_doc_fault(ctx, id);
                for &qi in &survivors {
                    states[qi].retries += retries;
                }
                let mut slots = Vec::new();
                let job = 'job: {
                    if !evaluable {
                        break 'job Ok(None);
                    }
                    // One hydration for the whole wave — and only now,
                    // when some survivor will actually evaluate it.
                    let idx = match self.store.hydrate(pos) {
                        Ok(idx) => idx,
                        Err(e) if strict => break 'job Err(SearchOutcome::Corpus(e)),
                        Err(_) => break 'job Ok(None),
                    };
                    // Distinct capabilities among the survivors:
                    // duplicates ride along on one evaluation.
                    let mut wave_caps = Vec::new();
                    for &qi in &survivors {
                        slots.push(intern(&mut wave_caps, states[qi].cap_idx));
                    }
                    shared_evals += (survivors.len() - wave_caps.len()) as u64;
                    let caps: Vec<&PreparedCapability> = wave_caps
                        .iter()
                        .map(|&ci| {
                            &**prepared[ci]
                                .as_ref()
                                .expect("live query's capability prepared")
                        })
                        .collect();
                    // everything that can fail fails here, in position
                    // order, so the evaluation below cannot
                    match self.system.check_prepared_wave(&caps, &idx) {
                        Ok(()) => {
                            jobs.push((caps, idx));
                            Ok(Some(jobs.len() - 1))
                        }
                        Err(e) if strict => Err(SearchOutcome::Apks(e)),
                        Err(_) => Ok(None),
                    }
                };
                let ticks = timer.now_ticks().saturating_sub(start);
                let job = match job {
                    Ok(job) => job,
                    Err(e) => {
                        // every touched position is timed, the
                        // failing one included
                        for doc in &chunk {
                            doc_hist.record(doc.ticks);
                        }
                        doc_hist.record(ticks);
                        return Err(e);
                    }
                };
                chunk.push(Walked {
                    id,
                    survivors,
                    slots,
                    job,
                    ticks,
                });
                pos += 1;
            }

            // The evaluation: the chunk's documents on up to `workers`
            // threads, this one included. Each thread takes the next
            // document off a shared counter (one vCPU may be slowed by a
            // neighbour) and counts its own pairing work, since the
            // source counters are per thread.
            let next = AtomicUsize::new(0);
            let evaluate = || {
                source::measure(|| {
                    let mut done = Vec::new();
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        let Some((caps, idx)) = jobs.get(j) else {
                            break done;
                        };
                        let start = timer.now_ticks();
                        let verdicts = self.system.search_prepared_wave(&self.pk, caps, idx);
                        done.push((j, verdicts, timer.now_ticks().saturating_sub(start)));
                    }
                })
            };
            std::thread::scope(|s| {
                let spawned: Vec<_> = (1..self.workers.min(jobs.len()))
                    .map(|_| s.spawn(evaluate))
                    .collect();
                let mut gather = |(done, counts): (Vec<Evaluated>, SourceCounts)| {
                    results.extend(done);
                    scan_counts += counts;
                };
                gather(evaluate());
                for worker in spawned {
                    match worker.join() {
                        Ok(out) => gather(out),
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                }
            });
            results.sort_unstable_by_key(|r| r.0);

            // The merge, in position order. A document's `doc_ticks` is
            // its walk ticks plus its evaluation ticks on its worker
            // (zero under a virtual clock, which evaluation never
            // advances).
            for doc in chunk.drain(..) {
                let (verdicts, eval_ticks) = match doc.job.map(|j| &results[j]) {
                    Some((_, Ok(verdicts), ticks)) => (Some(verdicts), *ticks),
                    Some((_, Err(e), _)) if strict => return Err(SearchOutcome::Apks(e.clone())),
                    Some((_, Err(_), ticks)) => (None, *ticks),
                    None => (None, 0),
                };
                doc_hist.record(doc.ticks + eval_ticks);
                match verdicts {
                    Some(verdicts) => {
                        for (&qi, &slot) in doc.survivors.iter().zip(&doc.slots) {
                            states[qi].evals += 1;
                            if verdicts[slot] {
                                states[qi].matches.push(doc.id);
                            }
                        }
                    }
                    // skipped by the fault plan, or unloadable, or
                    // unevaluable: degraded for every survivor alike
                    None => {
                        for &qi in &doc.survivors {
                            states[qi].faulted.push(doc.id);
                        }
                    }
                }
            }
            jobs.clear();
            results.clear();
        }
        let scan_micros = timer.now_ticks().saturating_sub(scan_start);
        let out: Vec<DegradedScan> = states
            .into_iter()
            .map(|q| {
                let prepare_micros = prep_ticks[q.cap_idx];
                finish(q, prepare_micros, scan_micros)
            })
            .collect();

        let sum = |f: fn(&DegradedScan) -> usize| out.iter().map(f).sum::<usize>() as u64;
        let count = |solo, wave, n| self.metrics.add(ledger.pick(solo, wave), n);
        count("cloud.scans", "cloud.wave.scans", 1);
        count("cloud.scan.docs", "cloud.wave.docs", docs_touched);
        count(
            "cloud.scan.pairings",
            "cloud.wave.pairings",
            scan_counts.pairings,
        );
        count(
            "cloud.scan.miller_loops",
            "cloud.wave.miller_loops",
            scan_counts.miller_loops + prep_counts.miller_loops,
        );
        count(
            "cloud.scan.predicate_evals",
            "cloud.wave.predicate_evals",
            scan_counts.predicate_evals,
        );
        match ledger {
            Ledger::Solo => {
                self.metrics
                    .add("cloud.scan.matches", sum(|d| d.matches.len()));
                self.metrics
                    .add("cloud.scan.retries", sum(|d| d.stats.retries));
                self.metrics
                    .add("cloud.scan.faulted_docs", sum(|d| d.faulted.len()));
                let degraded = sum(|d| usize::from(!d.faulted.is_empty()));
                if degraded > 0 {
                    self.metrics.add("cloud.scan.degraded_scans", degraded);
                }
            }
            Ledger::Wave => {
                self.metrics
                    .record("cloud.wave.size", requests.len() as u64);
                self.metrics
                    .record("cloud.wave.distinct_caps", distinct.len() as u64);
                self.metrics.add("cloud.wave.shared_evals", shared_evals);
                self.metrics.record(
                    "cloud.wave.amortized_pairings_per_query",
                    scan_counts.pairings / requests.len() as u64,
                );
            }
        }
        // per-query bound cuts, recorded only when some query was cut
        for (solo, wave, n) in [
            (
                "cloud.scan.deadline_expired",
                "cloud.wave.deadline_expired",
                sum(|d| usize::from(d.stats.deadline_expired)),
            ),
            (
                "cloud.scan.budget_exhausted",
                "cloud.wave.budget_exhausted",
                sum(|d| usize::from(d.stats.budget_exhausted)),
            ),
            (
                "cloud.scan.unscanned_docs",
                "cloud.wave.unscanned_docs",
                sum(|d| d.unscanned.len()),
            ),
        ] {
            if n > 0 {
                count(solo, wave, n);
            }
        }
        Ok(out)
    }

    /// Resolves a document's injected fault: whether evaluation may
    /// proceed, and the retries spent getting there. Slowness and retry
    /// backoff advance the fault context's clock. The fault is a pure
    /// function of the document id, so a wave resolves it **once** per
    /// document and every query in the wave sees the outcome a solo
    /// scan would.
    fn resolve_doc_fault(ctx: &FaultContext<'_>, id: DocumentId) -> (bool, usize) {
        match ctx.plan.doc_fault(id) {
            None => (true, 0),
            Some(DocFault::Slow { ticks }) => {
                ctx.clock.advance(ticks);
                (true, 0)
            }
            Some(DocFault::Flaky { burst }) => {
                // attempts 0..burst fault; each retry backs off
                let mut retries = 0;
                for attempt in 0..ctx.policy.max_attempts {
                    if attempt >= burst {
                        return (true, retries);
                    }
                    if attempt + 1 < ctx.policy.max_attempts {
                        retries += 1;
                        ctx.clock.advance(ctx.policy.backoff(attempt, id));
                    }
                }
                (false, retries)
            }
            Some(DocFault::Poisoned) => (false, 0),
        }
    }

    /// The deployment's public key (public information).
    pub fn public_key(&self) -> &ApksPublicKey {
        &self.pk
    }

    /// The system context (public information).
    pub fn system(&self) -> &ApksSystem {
        &self.system
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apks_authz::{AttributeDirectory, Eligibility, EligibilityRules, TrustedAuthority};
    use apks_core::{FieldValue, Query, QueryPolicy, Record, Schema};
    use apks_curve::CurveParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn deployment() -> (CloudServer, TrustedAuthority, StdRng) {
        let schema = Schema::builder()
            .flat_field("illness", 1)
            .flat_field("sex", 1)
            .build()
            .unwrap();
        let sys = ApksSystem::new(CurveParams::fast(), schema);
        let mut rng = StdRng::seed_from_u64(1100);
        let ta = TrustedAuthority::setup(sys, &mut rng);
        let server = CloudServer::new(
            ta.system().clone(),
            ta.public_key().clone(),
            ta.ibs_params().clone(),
        );
        server.register_authority("ta");
        (server, ta, rng)
    }

    fn upload_corpus(
        server: &CloudServer,
        ta: &TrustedAuthority,
        rng: &mut StdRng,
    ) -> Vec<DocumentId> {
        let sys = ta.system();
        let pk = ta.public_key();
        let mut ids = Vec::new();
        for (illness, sex) in [
            ("flu", "female"),
            ("flu", "male"),
            ("diabetes", "female"),
            ("cancer", "male"),
            ("flu", "female"),
        ] {
            let rec = Record::new(vec![FieldValue::text(illness), FieldValue::text(sex)]);
            ids.push(server.upload(sys.gen_index(pk, &rec, rng).unwrap()));
        }
        ids
    }

    #[test]
    fn signed_search_returns_matches() {
        let (server, ta, mut rng) = deployment();
        let ids = upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new()
                    .equals("illness", "flu")
                    .equals("sex", "female"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let (hits, stats) = server.search(&cap).unwrap();
        assert_eq!(hits, vec![ids[0], ids[4]]);
        assert_eq!(stats.scanned, 5);
        assert_eq!(stats.matched, 2);
    }

    #[test]
    fn upload_assigned_overwrites_duplicates_in_place() {
        let (server, ta, mut rng) = deployment();
        let ids = upload_corpus(&server, &ta, &mut rng);
        let sys = ta.system();
        let pk = ta.public_key();
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "measles"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        assert!(server.search(&cap).unwrap().0.is_empty());

        // overwrite the middle document: not fresh, corpus size and
        // scan order unchanged, new ciphertext visible exactly once
        let rec = Record::new(vec![FieldValue::text("measles"), FieldValue::text("male")]);
        let idx = sys.gen_index(pk, &rec, &mut rng).unwrap();
        assert!(!server.upload_assigned(ids[2], idx));
        assert_eq!(server.len(), ids.len());
        assert_eq!(server.doc_ids(), ids);
        let (hits, stats) = server.search(&cap).unwrap();
        assert_eq!(hits, vec![ids[2]]);
        assert_eq!(stats.matched, 1);

        // a genuinely new id is fresh and lands at the end of the scan
        let rec = Record::new(vec![
            FieldValue::text("measles"),
            FieldValue::text("female"),
        ]);
        let idx = sys.gen_index(pk, &rec, &mut rng).unwrap();
        assert!(server.upload_assigned(99, idx));
        assert_eq!(server.len(), ids.len() + 1);
        assert_eq!(*server.doc_ids().last().unwrap(), 99);
        let (hits, _) = server.search(&cap).unwrap();
        assert_eq!(hits, vec![ids[2], 99]);
        // and the bumped counter keeps future uploads collision-free
        let rec = Record::new(vec![FieldValue::text("flu"), FieldValue::text("male")]);
        let idx = sys.gen_index(pk, &rec, &mut rng).unwrap();
        assert_eq!(server.upload(idx), 100);
    }

    #[test]
    fn prepared_scan_agrees_with_plain_per_document_search() {
        let (server, ta, mut rng) = deployment();
        let ids = upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let sys = ta.system();
        // the unprepared baseline: one plain multi-pairing per document
        let plain: Vec<DocumentId> = ids
            .iter()
            .copied()
            .filter(|&id| {
                let idx = server.document(id).unwrap().unwrap();
                sys.search(ta.public_key(), &cap.capability, &idx).unwrap()
            })
            .collect();
        assert_eq!(plain.len(), 3);
        let (hits, stats) = server.scan(&cap.capability).unwrap();
        assert_eq!(hits, plain);
        assert_eq!(stats.scanned, ids.len());
        assert_eq!(stats.matched, plain.len());
        assert_eq!(stats.pairings, stats.scanned * (sys.n() + 3));
    }

    use apks_core::fault::{FaultConfig, FaultPlan, RetryPolicy, VirtualClock};

    #[test]
    fn degraded_scan_without_faults_equals_plain_scan() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let (plain, _) = server.search(&cap).unwrap();
        let degraded = server
            .search_bounded(&cap, &ctx, Deadline::NEVER, &Budget::unlimited(), 0)
            .unwrap();
        assert_eq!(degraded.matches, plain);
        assert!(degraded.faulted.is_empty());
        assert!(!degraded.stats.degraded);
        assert_eq!(degraded.stats.retries, 0);
        assert_eq!(clock.now(), 0);
    }

    #[test]
    fn poisoned_docs_are_skipped_and_reported_never_silently_dropped() {
        let (server, ta, mut rng) = deployment();
        let ids = upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig {
            seed: 31,
            poisoned_doc_permille: 400,
            ..FaultConfig::default()
        });
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let poisoned: Vec<DocumentId> = ids
            .iter()
            .copied()
            .filter(|&id| plan.doc_fault(id).is_some())
            .collect();
        assert!(
            !poisoned.is_empty() && poisoned.len() < ids.len(),
            "seed must poison a strict subset; got {poisoned:?}"
        );
        let (plain, _) = server.search(&cap).unwrap();
        let degraded = server
            .search_bounded(&cap, &ctx, Deadline::NEVER, &Budget::unlimited(), 0)
            .unwrap();
        assert_eq!(degraded.faulted, poisoned);
        assert_eq!(degraded.stats.faulted_docs, poisoned.len());
        assert!(degraded.stats.degraded);
        // healthy corpus answers exactly as the fault-free scan does
        let expected: Vec<DocumentId> = plain
            .iter()
            .copied()
            .filter(|id| !poisoned.contains(id))
            .collect();
        assert_eq!(degraded.matches, expected);
        // subset property + full accounting: every document is either
        // evaluated or explicitly faulted
        assert!(degraded.matches.iter().all(|id| plain.contains(id)));
        assert_eq!(
            degraded.stats.pairings,
            (degraded.stats.scanned - poisoned.len()) * (ta.system().n() + 3)
        );
    }

    #[test]
    fn flaky_docs_recover_with_retries_and_slow_docs_charge_the_clock() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig {
            seed: 8,
            flaky_doc_permille: 600,
            slow_doc_permille: 400,
            max_fault_burst: 2,
            slow_doc_ticks: 5,
            ..FaultConfig::default()
        });
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let (plain, _) = server.search(&cap).unwrap();
        let degraded = server
            .search_bounded(&cap, &ctx, Deadline::NEVER, &Budget::unlimited(), 0)
            .unwrap();
        // bursts (≤2) fit the budget (4): everything recovers
        assert_eq!(degraded.matches, plain);
        assert!(degraded.faulted.is_empty());
        assert!(!degraded.stats.degraded);
        assert!(degraded.stats.retries > 0, "flaky docs must retry");
        assert!(clock.now() > 0, "backoff + slowness on the virtual clock");
    }

    #[test]
    fn telemetry_pairing_counts_match_legacy_stats() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let n0 = ta.system().n() + 3;
        let (_, stats) = server.search(&cap).unwrap();
        let snap = server.metrics_snapshot();
        // the measured counter reproduces the legacy closed-form value
        assert_eq!(stats.pairings, stats.scanned * n0);
        assert_eq!(
            snap.counter("cloud.scan.pairings"),
            Some(stats.pairings as u64)
        );
        assert_eq!(snap.counter("cloud.scans"), Some(1));
        assert_eq!(snap.counter("cloud.scan.docs"), Some(stats.scanned as u64));
        assert_eq!(
            snap.counter("cloud.scan.predicate_evals"),
            Some(stats.scanned as u64)
        );
        // prepared scan: Miller loops spent once at preparation
        assert_eq!(snap.counter("cloud.scan.miller_loops"), Some(n0 as u64));
        // one latency observation per scanned document
        assert_eq!(
            snap.histogram("cloud.scan.doc_ticks").unwrap().count,
            stats.scanned as u64
        );
        // a second scan keeps accumulating
        let (_, stats2) = server.search(&cap).unwrap();
        let snap2 = server.metrics_snapshot();
        assert_eq!(
            snap2.counter("cloud.scan.pairings"),
            Some((stats.pairings + stats2.pairings) as u64)
        );
        assert_eq!(snap2.counter("cloud.scans"), Some(2));
    }

    #[test]
    fn bounded_scan_with_no_limits_matches_plain_scan() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let budget = Budget::unlimited();
        let (plain, _) = server.search(&cap).unwrap();
        let d = server
            .search_bounded(&cap, &ctx, Deadline::NEVER, &budget, 3)
            .unwrap();
        assert_eq!(d.matches, plain);
        assert!(d.faulted.is_empty() && d.unscanned.is_empty());
        assert!(!d.stats.deadline_expired && !d.stats.budget_exhausted);
        assert!(!d.stats.degraded);
        assert_eq!(d.stats.scanned, 5);
        assert_eq!(clock.now(), 15, "5 docs x 3 ticks each");
        assert!(budget.is_unlimited(), "unlimited budgets are never drawn");
    }

    #[test]
    fn already_expired_deadline_consumes_nothing() {
        let (server, ta, mut rng) = deployment();
        let ids = upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        clock.advance(100);
        let budget = Budget::pairings(10_000);
        let before = budget.remaining();
        let d = server
            .search_bounded(&cap, &ctx, Deadline::at(50), &budget, 3)
            .unwrap();
        assert!(d.matches.is_empty() && d.faulted.is_empty());
        assert_eq!(d.unscanned, ids, "every document is explicitly unscanned");
        assert!(d.stats.deadline_expired);
        assert_eq!(d.stats.scanned, 0);
        assert_eq!(d.stats.pairings, 0, "no pairing was spent");
        assert_eq!(budget.remaining(), before, "no budget was drawn");
        assert_eq!(clock.now(), 100, "no service time was charged");
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("cloud.scan.deadline_expired"), Some(1));
        assert_eq!(
            snap.counter("cloud.scans"),
            None,
            "shed work must not dilute the scan telemetry"
        );
    }

    #[test]
    fn mid_scan_deadline_stops_pairing_spend() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let n0 = ta.system().n() + 3;
        let (plain, _) = server.search(&cap).unwrap();
        let snap_before = server.metrics_snapshot();
        // docs are checked at ticks 0, 10, 20, 30: the deadline at 25
        // admits three documents and cuts the last two off
        let d = server
            .search_bounded(&cap, &ctx, Deadline::at(25), &Budget::unlimited(), 10)
            .unwrap();
        assert_eq!(d.stats.scanned, 3);
        assert_eq!(d.unscanned.len(), 2);
        assert!(d.stats.deadline_expired);
        assert!(!d.stats.budget_exhausted);
        assert!(d.stats.degraded);
        assert_eq!(d.stats.pairings, 3 * n0, "only evaluated docs paid");
        assert!(
            d.matches.iter().all(|id| plain.contains(id)),
            "partial matches are a subset of the full scan"
        );
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("cloud.scan.deadline_expired"), Some(1));
        assert_eq!(snap.counter("cloud.scan.unscanned_docs"), Some(2));
        assert_eq!(
            snap.counter("cloud.scan.docs"),
            Some(snap_before.counter("cloud.scan.docs").unwrap() + 3)
        );
    }

    #[test]
    fn budget_exhaustion_stops_scan_with_explicit_accounting() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let n0 = ta.system().n() + 3;
        // budget for exactly two documents
        let budget = Budget::pairings((2 * n0) as u64);
        let d = server
            .search_bounded(&cap, &ctx, Deadline::NEVER, &budget, 1)
            .unwrap();
        assert_eq!(d.stats.scanned, 2);
        assert!(d.stats.budget_exhausted);
        assert!(!d.stats.deadline_expired);
        assert_eq!(d.unscanned.len(), 3);
        assert_eq!(budget.remaining(), 0);
        assert_eq!(d.stats.pairings, 2 * n0);
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("cloud.scan.budget_exhausted"), Some(1));
        assert_eq!(snap.counter("cloud.scan.unscanned_docs"), Some(3));
    }

    #[test]
    fn scan_refuses_a_capability_point_outside_the_group() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let mut cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap()
            .capability;
        // the order-4 point (±1, y): it decodes, and doubles to (0, 0)
        let fp = ta.system().params().fp();
        cap.key.dec.0[0] = [fp.one(), fp.neg(fp.one())]
            .into_iter()
            .find_map(|x| {
                let mut bytes = fp.to_bytes(x);
                bytes.push(2);
                apks_curve::G1Affine::from_bytes(fp, &bytes)
            })
            .expect("x = 1 or x = p − 1 lies on the curve");
        match server.scan(&cap) {
            Err(SearchOutcome::Apks(e)) => {
                assert_eq!(e, ApksError::Hpe(apks_hpe::HpeError::KeyOutsideGroup))
            }
            other => panic!("expected an APKS error, got {other:?}"),
        }
    }

    #[test]
    fn strict_search_fails_on_a_foreign_index_that_bounded_search_skips() {
        let (server, ta, mut rng) = deployment();
        let ids = upload_corpus(&server, &ta, &mut rng);
        // an index from a deployment with another schema: its digest
        // differs, so evaluating it is an error, not a verdict
        let foreign_schema = Schema::builder().flat_field("blood", 1).build().unwrap();
        let foreign = ApksSystem::new(CurveParams::fast(), foreign_schema);
        let (foreign_pk, _) = foreign.setup(&mut rng);
        let rec = Record::new(vec![FieldValue::text("a+")]);
        let stray = server.upload(foreign.gen_index(&foreign_pk, &rec, &mut rng).unwrap());
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        assert!(matches!(server.search(&cap), Err(SearchOutcome::Apks(_))));

        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let d = server
            .search_bounded(&cap, &ctx, Deadline::NEVER, &Budget::unlimited(), 0)
            .unwrap();
        assert_eq!(d.faulted, vec![stray]);
        assert_eq!(d.matches, vec![ids[0], ids[1], ids[4]]);
        assert!(d.stats.degraded);
    }

    /// A memory backend whose `hydrate` fails at one position, and
    /// which counts the hydrations asked of it.
    struct HoleyBackend {
        inner: MemoryBackend,
        hole: usize,
        hydrates: Arc<AtomicUsize>,
    }

    impl CorpusBackend for HoleyBackend {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn doc_id(&self, pos: usize) -> Option<DocumentId> {
            self.inner.doc_id(pos)
        }
        fn doc_ids(&self) -> Vec<DocumentId> {
            self.inner.doc_ids()
        }
        fn ids_from(&self, pos: usize) -> Vec<DocumentId> {
            self.inner.ids_from(pos)
        }
        fn push(&self, id: DocumentId, index: EncryptedIndex) -> Result<bool, CorpusError> {
            self.inner.push(id, index)
        }
        fn hydrate(&self, pos: usize) -> Result<Arc<EncryptedIndex>, CorpusError> {
            self.hydrates.fetch_add(1, Ordering::Relaxed);
            if pos == self.hole {
                return Err(CorpusError::UnknownPosition(pos));
            }
            self.inner.hydrate(pos)
        }
    }

    #[test]
    fn strict_search_fails_on_a_hydrate_error() {
        let (_, ta, mut rng) = deployment();
        let server = CloudServer::with_backend(
            ta.system().clone(),
            ta.public_key().clone(),
            ta.ibs_params().clone(),
            Arc::new(MetricsRegistry::new()),
            Arc::new(WallClock),
            Box::new(HoleyBackend {
                inner: MemoryBackend::new(),
                hole: 2,
                hydrates: Arc::default(),
            }),
        );
        server.register_authority("ta");
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        assert!(matches!(
            server.search(&cap),
            Err(SearchOutcome::Corpus(CorpusError::UnknownPosition(2)))
        ));
    }

    #[test]
    fn unknown_issuer_rejected() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let mut cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        cap.issuer = "lta:rogue".into();
        assert!(matches!(
            server.search(&cap),
            Err(SearchOutcome::UnknownIssuer(_))
        ));
    }

    #[test]
    fn tampered_signature_rejected() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let good = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let other = ta
            .issue_capability(
                &Query::new().equals("illness", "cancer"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        // graft flu's signature onto cancer's capability
        let forged = SignedCapability {
            capability: other.capability.clone(),
            issuer: good.issuer.clone(),
            signature: good.signature.clone(),
        };
        assert_eq!(server.search(&forged), Err(SearchOutcome::BadSignature));
    }

    #[test]
    fn lta_issued_capability_accepted_after_registration() {
        let schema = Schema::builder()
            .flat_field("provider", 1)
            .flat_field("illness", 1)
            .build()
            .unwrap();
        let sys = ApksSystem::new(CurveParams::fast(), schema);
        let mut rng = StdRng::seed_from_u64(1101);
        let mut ta = TrustedAuthority::setup(sys, &mut rng);
        let server = CloudServer::new(
            ta.system().clone(),
            ta.public_key().clone(),
            ta.ibs_params().clone(),
        );
        let mut dir = AttributeDirectory::new();
        dir.register_user("alice", [("illness", FieldValue::text("flu"))]);
        let lta = ta
            .register_lta(
                "lta:h",
                &Query::new().equals("provider", "h"),
                dir,
                EligibilityRules::with_default(Eligibility::OwnsValue),
                QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let sys = ta.system().clone();
        let pk = ta.public_key().clone();
        let cap = lta
            .request_capability(
                &sys,
                &pk,
                "alice",
                &Query::new().equals("illness", "flu"),
                &mut rng,
            )
            .unwrap();
        // not yet registered
        assert!(matches!(
            server.search(&cap),
            Err(SearchOutcome::UnknownIssuer(_))
        ));
        server.register_authority("lta:h");
        let rec = Record::new(vec![FieldValue::text("h"), FieldValue::text("flu")]);
        server.upload(sys.gen_index(&pk, &rec, &mut rng).unwrap());
        let (hits, _) = server.search(&cap).unwrap();
        assert_eq!(hits.len(), 1);
    }

    /// Everything but the timing fields, which legitimately differ
    /// between a batched wave (one clock charge per document) and a
    /// sequence of solo scans.
    fn untimed(
        d: &DegradedScan,
    ) -> (
        Vec<DocumentId>,
        Vec<DocumentId>,
        Vec<DocumentId>,
        SearchStats,
    ) {
        (
            d.matches.clone(),
            d.faulted.clone(),
            d.unscanned.clone(),
            SearchStats {
                prepare_micros: 0,
                scan_micros: 0,
                ..d.stats
            },
        )
    }

    #[test]
    fn wave_matches_sequential_bounded_scans_including_degradation() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let caps: Vec<SignedCapability> = [
            Query::new()
                .equals("illness", "flu")
                .equals("sex", "female"),
            Query::new().equals("illness", "flu"),
            Query::new().equals("illness", "cancer"),
        ]
        .into_iter()
        .map(|q| {
            ta.issue_capability(&q, &QueryPolicy::default(), &mut rng)
                .unwrap()
        })
        .collect();
        let n0 = (ta.system().n() + 3) as u64;
        // flaky + poisoned corpus, and one budget that dies mid-wave
        let plan = FaultPlan::new(FaultConfig {
            seed: 31,
            poisoned_doc_permille: 400,
            flaky_doc_permille: 300,
            ..FaultConfig::default()
        });
        let policy = RetryPolicy::default();
        let budgets = [
            Budget::unlimited(),
            Budget::pairings(2 * n0),
            Budget::unlimited(),
        ];

        let mut solo = Vec::new();
        for (cap, budget) in caps.iter().zip(budgets.iter()) {
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
        let reqs: Vec<(&SignedCapability, Deadline, &Budget)> = caps
            .iter()
            .zip(budgets.iter())
            .map(|(c, b)| (c, Deadline::NEVER, b))
            .collect();
        let wave = server.search_batched(&reqs, &ctx, 7).unwrap();

        assert_eq!(wave.len(), solo.len());
        for (w, s) in wave.iter().zip(solo.iter()) {
            assert_eq!(untimed(w), untimed(s));
        }
        assert!(
            wave[1].stats.budget_exhausted && !wave[1].unscanned.is_empty(),
            "the starved query degrades mid-wave"
        );
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("cloud.wave.scans"), Some(1));
        assert_eq!(snap.counter("cloud.wave.budget_exhausted"), Some(1));
        assert_eq!(
            snap.counter("cloud.scans"),
            Some(3),
            "wave work stays out of the solo-scan ledger"
        );
    }

    #[test]
    fn wave_shares_evaluations_between_identical_capabilities() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let b1 = Budget::unlimited();
        let b2 = Budget::unlimited();
        // the SAME capability submitted twice (a re-issued query has
        // fresh randomness and would not dedup)
        let wave = server
            .search_batched(
                &[(&cap, Deadline::NEVER, &b1), (&cap, Deadline::NEVER, &b2)],
                &ctx,
                3,
            )
            .unwrap();
        assert_eq!(wave[0].matches, wave[1].matches);
        let (plain, _) = server.search(&cap).unwrap();
        assert_eq!(wave[0].matches, plain);
        // both queries are billed, but the crypto ran once per document
        assert_eq!(wave[0].stats.pairings, wave[1].stats.pairings);
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("cloud.wave.shared_evals"), Some(5));
        assert_eq!(clock.now(), 15, "5 docs x 3 ticks, charged once per doc");
    }

    #[test]
    fn empty_wave_is_free() {
        let (server, _, _) = deployment();
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let out = server.scan_wave(&[], &ctx, 3).unwrap();
        assert!(out.is_empty());
        assert_eq!(server.metrics_snapshot().counter("cloud.wave.scans"), None);
    }

    #[test]
    fn dead_at_entry_query_rides_the_wave_without_work() {
        let (server, ta, mut rng) = deployment();
        let ids = upload_corpus(&server, &ta, &mut rng);
        let live = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let dead = ta
            .issue_capability(
                &Query::new().equals("illness", "cancer"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        clock.advance(100);
        let dead_budget = Budget::pairings(10_000);
        let before = dead_budget.remaining();
        let live_budget = Budget::unlimited();
        let wave = server
            .search_batched(
                &[
                    (&live, Deadline::NEVER, &live_budget),
                    (&dead, Deadline::at(50), &dead_budget),
                ],
                &ctx,
                3,
            )
            .unwrap();
        // the live query is untouched by its neighbour's expiry
        let (plain, _) = server.search(&live).unwrap();
        assert_eq!(wave[0].matches, plain);
        assert!(!wave[0].stats.deadline_expired);
        // the dead query consumed nothing
        let d = &wave[1];
        assert!(d.matches.is_empty() && d.faulted.is_empty());
        assert_eq!(d.unscanned, ids);
        assert!(d.stats.deadline_expired);
        assert_eq!(d.stats.scanned, 0);
        assert_eq!(d.stats.pairings, 0);
        assert_eq!(d.stats.prepare_micros, 0);
        assert_eq!(dead_budget.remaining(), before, "no budget was drawn");
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("cloud.wave.deadline_expired"), Some(1));
    }

    #[test]
    fn mid_wave_deadline_scans_a_prefix_and_hits_stay_a_subset() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let (plain, _) = server.search(&cap).unwrap();
        let hurried = Budget::unlimited();
        let patient = Budget::unlimited();
        // docs are checked at ticks 0, 10, 20, 30: the deadline at 25
        // admits three documents and cuts the last two off
        let wave = server
            .search_batched(
                &[
                    (&cap, Deadline::at(25), &hurried),
                    (&cap, Deadline::NEVER, &patient),
                ],
                &ctx,
                10,
            )
            .unwrap();
        assert_eq!(wave[0].stats.scanned, 3);
        assert_eq!(wave[0].unscanned.len(), 2);
        assert!(wave[0].stats.deadline_expired && wave[0].stats.degraded);
        assert!(wave[0].matches.iter().all(|id| plain.contains(id)));
        assert_eq!(wave[1].matches, plain, "the patient query finishes");
        assert!(!wave[1].stats.deadline_expired);
    }

    /// The fixture of the worker-count tests: a corpus longer than one
    /// chunk, an index from a foreign deployment, and three capabilities
    /// of the [`deployment`] authority.
    struct Fixture {
        ta: TrustedAuthority,
        corpus: Vec<EncryptedIndex>,
        foreign: EncryptedIndex,
        caps: Vec<SignedCapability>,
    }

    fn fixture() -> &'static Fixture {
        static FIXTURE: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let (_, ta, mut rng) = deployment();
            let (sys, pk) = (ta.system(), ta.public_key());
            let corpus = (0..CHUNK + 8)
                .map(|i| {
                    let illness = ["flu", "diabetes", "cancer"][i % 3];
                    let sex = ["female", "male"][i / 3 % 2];
                    let rec = Record::new(vec![FieldValue::text(illness), FieldValue::text(sex)]);
                    sys.gen_index(pk, &rec, &mut rng).unwrap()
                })
                .collect();
            let foreign_schema = Schema::builder().flat_field("blood", 1).build().unwrap();
            let other = ApksSystem::new(CurveParams::fast(), foreign_schema);
            let (other_pk, _) = other.setup(&mut rng);
            let rec = Record::new(vec![FieldValue::text("a+")]);
            let foreign = other.gen_index(&other_pk, &rec, &mut rng).unwrap();
            let caps = [
                Query::new().equals("illness", "flu"),
                Query::new()
                    .equals("illness", "cancer")
                    .equals("sex", "male"),
                Query::new().equals("sex", "female"),
            ]
            .iter()
            .map(|q| {
                ta.issue_capability(q, &QueryPolicy::default(), &mut rng)
                    .unwrap()
            })
            .collect();
            Fixture {
                ta,
                corpus,
                foreign,
                caps,
            }
        })
    }

    impl Fixture {
        /// A server on `workers` threads over `store`, timing on a
        /// virtual clock, holding the corpus with the foreign index at
        /// position `foreign_at`.
        fn server(
            &self,
            store: Box<dyn CorpusBackend>,
            foreign_at: usize,
            workers: usize,
        ) -> CloudServer {
            let mut server = CloudServer::with_backend(
                self.ta.system().clone(),
                self.ta.public_key().clone(),
                self.ta.ibs_params().clone(),
                Arc::new(MetricsRegistry::new()),
                Arc::new(VirtualClock::new()),
                store,
            );
            server.workers = workers;
            server.register_authority("ta");
            let mut docs = self.corpus.clone();
            docs.insert(foreign_at.min(docs.len()), self.foreign.clone());
            server.upload_many(docs);
            server
        }
    }

    /// A scratch directory, emptied on creation and removed on drop.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!("apks-cloud-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Every entry point gives the same scans, metrics and virtual
        /// ticks on 1, 2 and 8 workers, under deadlines that cut
        /// mid-scan, budgets, faults, waves that repeat a capability,
        /// and every backend: memory, and paged with no cache, an
        /// evicting cache and an unbounded one.
        #[test]
        fn worker_count_changes_nothing(
            store in 0usize..4,
            foreign_at in 0usize..CHUNK + 9,
            fault_seed in any::<u64>(),
            poisoned in 0u32..100,
            flaky in 0u32..300,
            slow in 0u32..300,
            burst in 1u32..6,
            doc_cost in 1u64..12,
            wave in prop::collection::vec((0usize..3, 0u64..1600, 0u64..120), 1..6),
        ) {
            let fx = fixture();
            let n0 = (fx.ta.system().n() + 3) as u64;
            let plan = FaultPlan::new(FaultConfig {
                seed: fault_seed,
                poisoned_doc_permille: poisoned,
                flaky_doc_permille: flaky,
                slow_doc_permille: slow,
                max_fault_burst: burst,
                ..FaultConfig::default()
            });
            let policy = RetryPolicy::default();
            let bounds = |(_, deadline, docs): (usize, u64, u64)| {
                let deadline = if deadline < 1200 { Deadline::at(deadline) } else { Deadline::NEVER };
                let budget = if docs < 100 { Budget::pairings(docs * n0) } else { Budget::unlimited() };
                (deadline, budget)
            };
            let index_bytes = fx.corpus[0].encoded_size();
            let run = |workers: usize| {
                let dir = TempDir::new(&format!("workers-{workers}"));
                let paged = |cache_budget_bytes| -> Box<dyn CorpusBackend> {
                    Box::new(
                        PagedBackend::open(
                            fx.ta.system().clone(),
                            &dir.0,
                            StoreConfig::default(),
                            HydrateConfig { cache_budget_bytes },
                            Arc::new(MetricsRegistry::new()),
                            Arc::new(VirtualClock::new()),
                        )
                        .unwrap(),
                    )
                };
                let backend = match store {
                    0 => Box::new(MemoryBackend::new()),
                    1 => paged(0),
                    2 => paged(3 * index_bytes),
                    _ => paged(usize::MAX),
                };
                let server = fx.server(backend, foreign_at, workers);
                let strict = server.search(&fx.caps[wave[0].0]);
                let (deadline, budget) = bounds(wave[0]);
                let solo_clock = VirtualClock::new();
                let solo = server.search_bounded(
                    &fx.caps[wave[0].0],
                    &FaultContext::new(&plan, &policy, &solo_clock),
                    deadline,
                    &budget,
                    doc_cost,
                );
                let wave_bounds: Vec<(Deadline, Budget)> = wave.iter().map(|&q| bounds(q)).collect();
                let requests: Vec<(&SignedCapability, Deadline, &Budget)> = wave
                    .iter()
                    .zip(&wave_bounds)
                    .map(|(&(cap, _, _), (deadline, budget))| (&fx.caps[cap], *deadline, budget))
                    .collect();
                let wave_clock = VirtualClock::new();
                let waved = server.search_batched(
                    &requests,
                    &FaultContext::new(&plan, &policy, &wave_clock),
                    doc_cost,
                );
                (
                    strict,
                    solo,
                    waved,
                    server.metrics_snapshot().canonical_bytes(),
                    [solo_clock.now(), wave_clock.now()],
                )
            };
            let serial = run(1);
            prop_assert!(serial.0.is_err(), "the foreign index fails a strict scan");
            for workers in [2, 8] {
                prop_assert!(run(workers) == serial, "{workers} workers differ from one");
            }
        }
    }

    #[test]
    fn strict_scan_fails_where_the_serial_scan_fails() {
        let fx = fixture();
        let cap = &fx.caps[0];
        for (foreign_at, hole) in [(5, 40), (40, 5), (10, CHUNK + 2), (CHUNK + 2, 10)] {
            for workers in [1, 2, 8] {
                let hydrates = Arc::new(AtomicUsize::new(0));
                let backend = HoleyBackend {
                    inner: MemoryBackend::new(),
                    hole,
                    hydrates: hydrates.clone(),
                };
                let server = fx.server(Box::new(backend), foreign_at, workers);
                hydrates.store(0, Ordering::Relaxed);
                let failed = server.search(cap);
                if foreign_at < hole {
                    assert!(
                        matches!(
                            failed,
                            Err(SearchOutcome::Apks(ApksError::InvalidRecord(_)))
                        ),
                        "{workers} workers: {failed:?}"
                    );
                } else {
                    assert_eq!(
                        failed,
                        Err(SearchOutcome::Corpus(CorpusError::UnknownPosition(hole))),
                        "{workers} workers"
                    );
                }
                assert_eq!(
                    hydrates.load(Ordering::Relaxed),
                    foreign_at.min(hole) + 1,
                    "{workers} workers hydrated past the failing position"
                );
            }
        }
    }
}
