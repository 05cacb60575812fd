//! The three workloads: set-up, warm-up and timed operations, and the
//! correctness checks each answer must pass.
//!
//! One client drives each workload from a single thread in a closed
//! loop: the next request goes out when the previous answer is back.
//! Every timed step is repeatable — same inputs, same answer, same state
//! afterwards — so the quiet-host gate of [`Tracer::timed`] may measure it
//! again; state-changing calls (uploads) are timed once, outside it.

use crate::catalogue::Workload;
use crate::deploy::{
    sample_rows, stream, user_query, BenchResult, Deployment, Digest, Ledger, Link, Stream,
    PAIRINGS_PER_DOC,
};
use crate::trace::Tracer;
use apks_authz::SignedCapability;
use apks_cloud::{
    AdmissionConfig, AdmissionController, AdmissionDecision, CloudServer, HydrateConfig,
    QueryShape, RequestClass, ShardConfig, ShardRouter, WaveBatcher, WaveConfig,
};
use apks_core::fault::{FaultConfig, FaultPlan, RetryPolicy, VirtualClock};
use apks_core::{Budget, Deadline, EncryptedIndex, Query, Record};
use apks_dataset::Zipf;
use apks_telemetry::{MetricsRegistry, MetricsSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Queries per wave on wave-disk.
const WAVE: usize = 8;
/// Shards behind the wave-disk router.
const SHARDS: usize = 4;
/// How many of a wave's queries each of its distinct capabilities
/// carries: every wave holds 4 distinct capabilities, so every wave does
/// the same work and the median wave is not a coin toss between waves
/// of 3 and of 6.
const WAVE_SHAPE: [usize; 4] = [4, 2, 1, 1];
const _: () = assert!(WAVE_SHAPE[0] + WAVE_SHAPE[1] + WAVE_SHAPE[2] + WAVE_SHAPE[3] == WAVE);
/// Zipf exponent of capability popularity on wave-disk.
const ZIPF_S: f64 = 1.1;
/// Seed of the wave-disk popularity schedule (which capabilities each
/// wave asks for). It is part of the workload's definition, not of its
/// inputs: every `--seed` sees the same schedule, and only the corpus
/// and the queries behind each capability change.
const SCHEDULE_SEED: u64 = 0x5EED_2A7E;
/// Owners uploads rotate through.
const OWNERS: usize = 8;
/// Ingest-mix searches at each corpus size. The corpus grows between
/// sizes, so each size's searches cost differently, and a run's median
/// search is one of those at the middle size: with 4 per size (and an
/// odd number of sizes) it is the middle of 4, not a single search.
const SEARCHES_PER_SIZE: usize = 4;

/// How large a run is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// A few seconds per workload, for tests.
    Smoke,
}

/// A workload's sizes for one run. Timed operation counts derive from
/// `--seconds` through a fixed rate per workload, so the work done is the
/// same on every commit and takes about `--seconds` on the reference
/// machine (2-vCPU Xeon).
#[derive(Clone, Debug)]
pub struct Plan {
    /// Input seed.
    pub seed: u64,
    /// Documents loaded at set-up.
    pub corpus: usize,
    /// Untimed (but checked) operations before the timed ones.
    pub warmup: usize,
    /// Timed operations: queries (solo-mem), waves (wave-disk) or uploads
    /// (ingest-mix).
    pub ops: usize,
    /// Capabilities issued at set-up (wave-disk, ingest-mix).
    pub caps: usize,
    /// Decoded-index cache budget per shard (wave-disk).
    pub cache_bytes: usize,
    /// Searches follow every this many uploads (ingest-mix).
    pub search_every: usize,
}

impl Plan {
    /// The sizes of `workload` at `scale`; at full scale the timed
    /// operation count is the workload's rate times `seconds`.
    pub fn new(workload: Workload, scale: Scale, seed: u64, seconds: u64) -> Plan {
        let per_s = |rate: f64| ((rate * seconds as f64).round() as usize).max(1);
        let full = scale == Scale::Full;
        let mut plan = Plan {
            seed,
            corpus: 0,
            warmup: 0,
            ops: 0,
            caps: 0,
            cache_bytes: 0,
            search_every: 0,
        };
        match workload {
            // ~300 ms per query: ~160 ms issuance + ~140 ms search
            Workload::SoloMem => {
                plan.corpus = if full { 96 } else { 12 };
                plan.warmup = if full { 2 } else { 1 };
                plan.ops = if full { per_s(3.0) } else { 3 };
            }
            // 16 documents per shard (~15 KB encoded) against an 8 KiB
            // cache: a sequential scan evicts every document it needs
            // next; ~300 ms per wave. The warm-up waves ask for every
            // capability once, so timed waves never prepare.
            Workload::WaveDisk => {
                plan.corpus = if full { 64 } else { 16 };
                plan.caps = if full { 8 } else { 4 };
                plan.warmup = plan.caps / WAVE_SHAPE.len();
                plan.ops = if full { per_s(2.5) } else { 2 };
                plan.cache_bytes = if full { 8 << 10 } else { 2 << 10 };
            }
            // ~26 ms per upload, plus 4 searches every 48 uploads (5
            // corpus sizes at 12 s)
            Workload::IngestMix => {
                plan.corpus = if full { 32 } else { 4 };
                plan.ops = if full { per_s(20.0) } else { 16 };
                plan.caps = if full { 8 } else { 4 };
                plan.search_every = if full { 48 } else { 8 };
            }
        }
        plan
    }

    /// The operation ranges of the warm-up and the timed phase.
    pub fn phases(&self) -> [Range<usize>; 2] {
        [0..self.warmup, self.warmup..self.warmup + self.ops]
    }
}

/// Everything a run timed.
#[derive(Default)]
pub struct Samples {
    /// Set-up time, one per set-up: the sum of its measured steps (s).
    pub setup_s: Vec<f64>,
    /// Keys, servers and capabilities, one per set-up (s).
    pub deploy_s: Vec<f64>,
    /// Corpus load, one per set-up (s).
    pub corpus_s: Vec<f64>,
    /// `Lta::request_capability` latencies (ms).
    pub issue_ms: Vec<f64>,
    /// Per-document encrypt + proxy chain + upload latencies (ms).
    pub ingest_ms: Vec<f64>,
    /// Per-query search latencies (ms); a wave's latency is each of its
    /// queries' latency.
    pub search_ms: Vec<f64>,
    /// (query, document) verdicts per second of each timed search (one
    /// per wave on wave-disk).
    pub evals_per_s: Vec<f64>,
    /// The workload's unit operation (attribution target), ms.
    pub op_ms: Vec<f64>,
}

/// What the ladder reuses from a finished run.
pub struct LadderInputs<'a> {
    /// The deployment.
    pub dep: &'a Deployment,
    /// Issued capabilities with their user queries (at least 4).
    pub caps: Vec<(&'a SignedCapability, &'a Query)>,
    /// Stored documents (at least 4).
    pub docs: &'a [EncryptedIndex],
    /// Source rows of `docs`.
    pub rows: &'a [Record],
}

/// Disk footprint of a workload's stores.
pub struct StoreShape {
    /// File bytes on disk.
    pub bytes: u64,
    /// Documents stored.
    pub docs: u64,
    /// Canonical encoded bytes of those documents.
    pub encoded: u64,
}

/// Per-operation counts read from the program's counters over the timed
/// phase.
pub struct Counts {
    /// Documents each query scanned.
    pub docs_per_query: f64,
    /// Pairings per query (shared wave pairings split across the wave).
    pub pairings_per_query: f64,
    /// Distinct capabilities per wave (0 without waves).
    pub distinct_caps: f64,
    /// Verdicts that rode on another query's evaluation, over all
    /// verdicts of waves (0 without waves).
    pub shared_eval_ratio: f64,
    /// Prepared-capability cache hits over lookups (0 without a cache).
    pub prepare_hit_ratio: f64,
    /// Decoded-index misses over lookups (0 without a paged store).
    pub hydrate_miss_ratio: f64,
    /// Proxy transformations per encrypted document.
    pub transforms_per_doc: f64,
    /// `(per-layer metric, calls per operation)`: the attribution model.
    pub per_op: Vec<(&'static str, f64)>,
}

/// One workload's world: built by [`Scenario::setup`], driven by
/// [`Scenario::run`].
pub trait Scenario: Sized {
    /// Builds the deployment and loads the corpus, recording set-up and
    /// ingest timings.
    ///
    /// # Errors
    ///
    /// Any set-up failure (the run cannot continue).
    fn setup(
        plan: &Plan,
        all_rows: &[Record],
        dir: &Path,
        tracer: &mut Tracer,
        samples: &mut Samples,
        ledger: &mut Ledger,
    ) -> BenchResult<Self>;

    /// Operations `ops` of the run: indices below `plan.warmup` are the
    /// warm-up (checked, not timed), the rest are timed.
    ///
    /// # Errors
    ///
    /// Failures outside any single operation.
    fn run(
        &mut self,
        plan: &Plan,
        ops: Range<usize>,
        tracer: &mut Tracer,
        samples: &mut Samples,
        ledger: &mut Ledger,
        digest: &mut Digest,
    ) -> BenchResult<()>;

    /// The program's counters now.
    fn snapshot(&self) -> MetricsSnapshot;

    /// Per-operation counts between two snapshots around the timed
    /// [`Scenario::run`]; `tracer` is the one that drove the world since
    /// its set-up.
    fn counts(&self, before: &MetricsSnapshot, after: &MetricsSnapshot, tracer: &Tracer) -> Counts;

    /// Objects the ladder measures on.
    fn ladder_inputs(&self) -> LadderInputs<'_>;

    /// The workload's own store footprint (`None`: no paged store).
    ///
    /// # Errors
    ///
    /// Store stat failures.
    fn store_shape(&self) -> BenchResult<Option<StoreShape>>;
}

fn counter(s: &MetricsSnapshot, name: &str) -> u64 {
    s.counter(name).unwrap_or(0)
}

fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    counter(after, name).saturating_sub(counter(before, name)) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Proxy transformations over encryption attempts of the world's
/// deployment (its chain counts every attempt's transformations).
fn transforms_per_doc(dep: &Deployment, tracer: &Tracer) -> f64 {
    let snap = dep.chain.metrics_snapshot();
    let transforms: u64 = snap
        .entries()
        .iter()
        .filter(|(name, _)| name.starts_with("proxy.transforms."))
        .map(|(name, _)| counter(&snap, name))
        .sum();
    ratio(transforms as f64, tracer.attempts(ENCRYPT) as f64)
}

/// The timed encryption step's name.
const ENCRYPT: &str = "owner.encrypt";
/// The timed issuance step's name.
const ISSUANCE: &str = "authz.request_capability";

/// One owner upload: the encryption (timed behind the gate) and the
/// state-changing `put` (timed once). Returns the index, its id and the
/// whole latency in milliseconds.
fn ingest_one(
    dep: &Deployment,
    row: &Record,
    owner: &str,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    put: &mut impl FnMut(EncryptedIndex) -> BenchResult<u64>,
) -> BenchResult<(EncryptedIndex, u64, f64)> {
    let (idx, encrypt_ms) = tracer.timed_rng(ENCRYPT, rng, |t, r| dep.encrypt(t, row, owner, r));
    let idx = idx?;
    let (id, put_ms) = tracer.span("upload", |_| put(idx.clone()));
    Ok((idx, id?, encrypt_ms + put_ms))
}

/// Loads `rows` as documents `0..`, checking ids come back contiguous;
/// returns the documents and the load's milliseconds.
#[allow(clippy::too_many_arguments)] // the set-up's full wiring
fn load_corpus(
    dep: &Deployment,
    rows: &[Record],
    rng: &mut StdRng,
    tracer: &mut Tracer,
    samples: &mut Samples,
    ledger: &mut Ledger,
    mut put: impl FnMut(EncryptedIndex) -> BenchResult<u64>,
) -> BenchResult<(Vec<EncryptedIndex>, f64)> {
    let mut docs = Vec::with_capacity(rows.len());
    let mut total_ms = 0.0;
    for (i, row) in rows.iter().enumerate() {
        let owner = format!("owner-{}", i % OWNERS);
        let (idx, id, ms) = ingest_one(dep, row, &owner, rng, tracer, &mut put)?;
        samples.ingest_ms.push(ms);
        total_ms += ms;
        ledger.attempted += 1;
        ledger.check(id == i as u64, || {
            format!("set-up upload got id {id}, expected {i}")
        });
        docs.push(idx);
    }
    Ok((docs, total_ms))
}

/// Issues one capability per query (timed); returns them and the
/// milliseconds spent.
fn issue_all(
    dep: &Deployment,
    queries: Vec<Query>,
    seed: u64,
    tracer: &mut Tracer,
    samples: &mut Samples,
) -> BenchResult<(Vec<(SignedCapability, Query)>, f64)> {
    let mut rng = stream(seed, Stream::Issue);
    let mut caps = Vec::with_capacity(queries.len());
    let mut total_ms = 0.0;
    for q in queries {
        let (cap, ms) = tracer.timed_rng(ISSUANCE, &mut rng, |_, r| dep.issue(&q, r));
        samples.issue_ms.push(ms);
        total_ms += ms;
        caps.push((cap?, q));
    }
    Ok((caps, total_ms))
}

/// Builds the keys (timed) and then the servers (`build`, timed once).
fn deploy<T>(
    seed: u64,
    tracer: &mut Tracer,
    build: impl FnOnce(&Deployment) -> BenchResult<T>,
) -> BenchResult<(Deployment, T, f64)> {
    let (dep, keys_ms) = tracer.timed("setup.keys", |_| Deployment::new(seed));
    let dep = dep?;
    let (servers, servers_ms) = tracer.span("setup.servers", |_| build(&dep));
    Ok((dep, servers?, keys_ms + servers_ms))
}

/// Records one set-up's split.
fn record_setup(samples: &mut Samples, deploy_ms: f64, corpus_ms: f64) {
    samples.deploy_s.push(deploy_ms / 1e3);
    samples.corpus_s.push(corpus_ms / 1e3);
    samples.setup_s.push((deploy_ms + corpus_ms) / 1e3);
}

/// The scan-ledger invariant of the serial path: every scanned document
/// costs exactly n + 3 pairings.
fn check_pairing_ledger(ledger: &mut Ledger, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    let docs = delta(before, after, "cloud.scan.docs") as u64;
    let pairings = delta(before, after, "cloud.scan.pairings") as u64;
    ledger.attempted += 1;
    ledger.check(pairings == docs * PAIRINGS_PER_DOC, || {
        format!("cloud.scan.pairings {pairings} != {docs} scanned x {PAIRINGS_PER_DOC}")
    });
}

// ---------------------------------------------------------------- solo-mem

/// solo-mem: one in-memory server behind a framed link.
pub struct SoloMem {
    dep: Deployment,
    server: Arc<CloudServer>,
    link: Link,
    rows: Vec<Record>,
    docs: Vec<EncryptedIndex>,
    queries: StdRng,
    issue_rng: StdRng,
    /// The most recent capabilities and queries (ladder inputs).
    recent: Vec<(SignedCapability, Query)>,
}

impl Scenario for SoloMem {
    fn setup(
        plan: &Plan,
        all_rows: &[Record],
        _dir: &Path,
        tracer: &mut Tracer,
        samples: &mut Samples,
        ledger: &mut Ledger,
    ) -> BenchResult<SoloMem> {
        let rows = sample_rows(
            all_rows,
            plan.corpus,
            &mut stream(plan.seed, Stream::Corpus),
        );
        let (dep, (server, mut link), deploy_ms) = deploy(plan.seed, tracer, |dep| {
            let clock = Arc::new(VirtualClock::new());
            let server =
                Arc::new(dep.memory_server(Arc::new(MetricsRegistry::new()), clock.clone()));
            let link = Link::new(server.clone(), dep.system.params().clone(), clock);
            Ok((server, link))
        })?;
        let mut rng = stream(plan.seed, Stream::Encrypt);
        let (docs, corpus_ms) =
            load_corpus(&dep, &rows, &mut rng, tracer, samples, ledger, |idx| {
                link.upload("owner", idx)
            })?;
        record_setup(samples, deploy_ms, corpus_ms);
        Ok(SoloMem {
            dep,
            server,
            link,
            rows,
            docs,
            queries: stream(plan.seed, Stream::Queries),
            issue_rng: stream(plan.seed, Stream::Issue),
            recent: Vec::new(),
        })
    }

    fn run(
        &mut self,
        plan: &Plan,
        ops: Range<usize>,
        tracer: &mut Tracer,
        samples: &mut Samples,
        ledger: &mut Ledger,
        digest: &mut Digest,
    ) -> BenchResult<()> {
        let before = self.server.metrics_snapshot();
        for op in ops {
            let query = user_query(&self.rows, &mut self.queries);
            tracer.next_op();
            let dep = &self.dep;
            let (cap, issue_ms) =
                tracer.timed_rng(ISSUANCE, &mut self.issue_rng, |_, r| dep.issue(&query, r));
            let Some(cap) = ledger.attempt("issue", cap.map_err(Into::into)) else {
                continue;
            };
            let link = &mut self.link;
            let (hits, search_ms) = tracer.timed("client.search", |_| link.search(&cap));
            let Some(hits) = ledger.attempt("search", hits) else {
                continue;
            };
            let want = self.dep.oracle(&query, &self.rows)?;
            ledger.check(hits == want, || {
                format!("solo-mem query {query}: hits {hits:?}, oracle {want:?}")
            });
            digest.hits(&hits);
            if op >= plan.warmup {
                samples.issue_ms.push(issue_ms);
                samples.search_ms.push(search_ms);
                samples
                    .evals_per_s
                    .push(self.rows.len() as f64 / (search_ms / 1e3));
                samples.op_ms.push(issue_ms + search_ms);
            }
            self.recent.push((cap, query));
            if self.recent.len() > 8 {
                self.recent.remove(0);
            }
        }
        check_pairing_ledger(ledger, &before, &self.server.metrics_snapshot());
        Ok(())
    }

    fn snapshot(&self) -> MetricsSnapshot {
        self.server.metrics_snapshot()
    }

    fn counts(&self, before: &MetricsSnapshot, after: &MetricsSnapshot, tracer: &Tracer) -> Counts {
        let scans = delta(before, after, "cloud.scans");
        let docs = ratio(delta(before, after, "cloud.scan.docs"), scans);
        Counts {
            docs_per_query: docs,
            pairings_per_query: ratio(delta(before, after, "cloud.scan.pairings"), scans),
            distinct_caps: 0.0,
            shared_eval_ratio: 0.0,
            prepare_hit_ratio: 0.0,
            hydrate_miss_ratio: 0.0,
            transforms_per_doc: transforms_per_doc(&self.dep, tracer),
            per_op: vec![
                ("core.delegate_ms", 1.0),
                ("authz.sign_ms", 1.0),
                ("wire.codec_us", 1.0),
                ("authz.verify_ms", 1.0),
                ("core.prepare_ms", 1.0),
                ("core.eval_us", docs),
            ],
        }
    }

    fn ladder_inputs(&self) -> LadderInputs<'_> {
        LadderInputs {
            dep: &self.dep,
            caps: self.recent.iter().map(|(c, q)| (c, q)).collect(),
            docs: &self.docs,
            rows: &self.rows,
        }
    }

    fn store_shape(&self) -> BenchResult<Option<StoreShape>> {
        Ok(None)
    }
}

// --------------------------------------------------------------- wave-disk

/// wave-disk: a 4-shard router over paged stores, fed by admission and
/// wave batching.
pub struct WaveDisk {
    dep: Deployment,
    router: ShardRouter,
    metrics: Arc<MetricsRegistry>,
    clock: Arc<VirtualClock>,
    admission: AdmissionController,
    batcher: WaveBatcher,
    caps: Vec<(SignedCapability, Query)>,
    cap_hits: Vec<Vec<u64>>,
    rows: Vec<Record>,
    docs: Vec<EncryptedIndex>,
    schedule: StdRng,
    next_request: u64,
}

impl WaveDisk {
    /// One wave: admit and batch 8 requests, scatter-gather them, release
    /// their admission slots. Repeatable: the controller and batcher end
    /// empty, as they started.
    fn wave(
        &self,
        first: u64,
        ranks: &[usize],
        tracer: &mut Tracer,
    ) -> BenchResult<apks_cloud::ShardedBatch> {
        let mut dispatched = None;
        for id in first..first + WAVE as u64 {
            let (decision, _) = tracer.span("cloud.admission.offer", |_| {
                self.admission
                    .offer(id, RequestClass::Normal(QueryShape::Equality))
            });
            if !matches!(decision, AdmissionDecision::Admitted { .. }) {
                return Err(format!("request {id} shed: {decision:?}").into());
            }
            let now = self.clock.now();
            dispatched = tracer
                .span("cloud.wave.enqueue", |_| self.batcher.enqueue(id, now))
                .0;
        }
        let ids = dispatched.ok_or("a full wave did not dispatch")?;
        let budgets: Vec<Budget> = ids.iter().map(|_| Budget::unlimited()).collect();
        let requests: Vec<_> = ids
            .iter()
            .zip(&budgets)
            .map(|(&id, budget)| {
                (
                    &self.caps[ranks[(id - first) as usize]].0,
                    Deadline::NEVER,
                    budget,
                )
            })
            .collect();
        let faults = FaultPlan::new(FaultConfig::default());
        let (batch, _) = tracer.span("cloud.router.search_batched", |_| {
            self.router
                .search_batched(&requests, &faults, &RetryPolicy::default(), 0)
        });
        for &id in &ids {
            self.admission.complete(id);
        }
        Ok(batch?)
    }
}

impl Scenario for WaveDisk {
    fn setup(
        plan: &Plan,
        all_rows: &[Record],
        dir: &Path,
        tracer: &mut Tracer,
        samples: &mut Samples,
        ledger: &mut Ledger,
    ) -> BenchResult<WaveDisk> {
        let rows = sample_rows(
            all_rows,
            plan.corpus,
            &mut stream(plan.seed, Stream::Corpus),
        );
        let mut qrng = stream(plan.seed, Stream::Queries);
        let queries: Vec<Query> = (0..plan.caps)
            .map(|_| user_query(&rows, &mut qrng))
            .collect();
        let metrics = Arc::new(MetricsRegistry::new());
        let clock = Arc::new(VirtualClock::new());
        let (dep, router, deploy_ms) = deploy(plan.seed, tracer, |dep| {
            let shards = (0..SHARDS)
                .map(|s| {
                    let shard_dir = dir.join(format!("shard-{s}"));
                    dep.paged_server(metrics.clone(), clock.clone(), &shard_dir, plan.cache_bytes)
                        .map(Arc::new)
                })
                .collect::<BenchResult<Vec<_>>>()?;
            Ok(ShardRouter::new(
                shards,
                ShardConfig::default(),
                clock.clone(),
                metrics.clone(),
            ))
        })?;
        let (caps, issue_ms) = issue_all(&dep, queries, plan.seed, tracer, samples)?;
        let mut rng = stream(plan.seed, Stream::Encrypt);
        let (docs, corpus_ms) =
            load_corpus(&dep, &rows, &mut rng, tracer, samples, ledger, |idx| {
                Ok(router.upload(idx))
            })?;
        record_setup(samples, deploy_ms + issue_ms, corpus_ms);
        let cap_hits = caps
            .iter()
            .map(|(_, q)| dep.oracle(q, &rows))
            .collect::<BenchResult<_>>()?;
        Ok(WaveDisk {
            admission: AdmissionController::new(AdmissionConfig::default(), metrics.clone()),
            batcher: WaveBatcher::new(WaveConfig::new(WAVE, 0), metrics.clone()),
            dep,
            router,
            metrics,
            clock,
            caps,
            cap_hits,
            rows,
            docs,
            schedule: StdRng::seed_from_u64(SCHEDULE_SEED),
            next_request: 0,
        })
    }

    fn run(
        &mut self,
        plan: &Plan,
        ops: Range<usize>,
        tracer: &mut Tracer,
        samples: &mut Samples,
        ledger: &mut Ledger,
        digest: &mut Digest,
    ) -> BenchResult<()> {
        let zipf = Zipf::new(self.caps.len(), ZIPF_S);
        for wave in ops {
            let distinct: Vec<usize> = if wave < plan.warmup {
                (wave * WAVE_SHAPE.len()..(wave + 1) * WAVE_SHAPE.len()).collect()
            } else {
                let mut picked = Vec::with_capacity(WAVE_SHAPE.len());
                while picked.len() < WAVE_SHAPE.len() {
                    let rank = zipf.sample(&mut self.schedule);
                    if !picked.contains(&rank) {
                        picked.push(rank);
                    }
                }
                picked
            };
            let ranks: Vec<usize> = distinct
                .iter()
                .zip(WAVE_SHAPE)
                .flat_map(|(&rank, n)| std::iter::repeat_n(rank, n))
                .collect();
            let first = self.next_request;
            self.next_request += WAVE as u64;
            tracer.next_op();
            let (batch, wave_ms) = tracer.timed("wave", |t| self.wave(first, &ranks, t));
            ledger.attempted += WAVE as u64;
            let batch = match batch {
                Ok(batch) if batch.results.len() == WAVE => batch,
                Ok(batch) => {
                    ledger.check(false, || {
                        format!("wave answered {} queries", batch.results.len())
                    });
                    continue;
                }
                Err(e) => {
                    ledger.failed += WAVE as u64;
                    eprintln!("perfbench: FAILED wave {wave}: {e}");
                    continue;
                }
            };
            for (scan, &rank) in batch.results.iter().zip(&ranks) {
                let mut hits = scan.matches.clone();
                hits.sort_unstable();
                let want = &self.cap_hits[rank];
                ledger.check(
                    hits == *want && scan.faulted.is_empty() && scan.unscanned.is_empty(),
                    || format!("wave-disk rank {rank}: hits {hits:?}, oracle {want:?}"),
                );
                digest.hits(&hits);
            }
            if wave >= plan.warmup {
                samples.search_ms.extend([wave_ms; WAVE]);
                samples
                    .evals_per_s
                    .push((WAVE * self.rows.len()) as f64 / (wave_ms / 1e3));
                samples.op_ms.push(wave_ms);
            }
        }
        Ok(())
    }

    fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    fn counts(&self, before: &MetricsSnapshot, after: &MetricsSnapshot, tracer: &Tracer) -> Counts {
        let d = |name| delta(before, after, name);
        let waves = d("cloud.shard.batches");
        let pairings = d("cloud.wave.pairings");
        let wave_evals = pairings / PAIRINGS_PER_DOC as f64;
        let shared = d("cloud.wave.shared_evals");
        let distinct = |s: &MetricsSnapshot| {
            s.histogram("cloud.wave.distinct_caps")
                .map_or((0, 0), |h| (h.count, h.sum))
        };
        let ((c0, s0), (c1, s1)) = (distinct(before), distinct(after));
        let hits = d("cloud.hydrate.hits");
        let misses = d("cloud.hydrate.misses");
        let prepares = |s: &MetricsSnapshot| {
            s.histogram("cloud.wave.prepare_ticks")
                .map_or(0, |h| h.count)
        };
        let prepare_calls = prepares(after).saturating_sub(prepares(before)) as f64;
        let prepare_hits = d("cloud.prepare.cache_hits");
        Counts {
            docs_per_query: ratio(d("cloud.wave.docs"), waves),
            pairings_per_query: ratio(pairings, waves * WAVE as f64),
            distinct_caps: ratio((s1 - s0) as f64, (c1 - c0) as f64),
            shared_eval_ratio: ratio(shared, shared + wave_evals),
            prepare_hit_ratio: ratio(prepare_hits, prepare_calls),
            hydrate_miss_ratio: ratio(misses, hits + misses),
            transforms_per_doc: transforms_per_doc(&self.dep, tracer),
            per_op: vec![
                ("cloud.admission.offer_ns", WAVE as f64),
                // every shard admits every request of the wave
                ("authz.verify_ms", (WAVE * self.router.shard_count()) as f64),
                (
                    "core.prepare_ms",
                    ratio(prepare_calls - prepare_hits, waves),
                ),
                ("cloud.hydrate.miss_us", ratio(misses, waves)),
                ("cloud.hydrate.hit_us", ratio(hits, waves)),
                ("core.wave_eval_us", ratio(wave_evals, waves)),
            ],
        }
    }

    fn ladder_inputs(&self) -> LadderInputs<'_> {
        LadderInputs {
            dep: &self.dep,
            caps: self.caps.iter().map(|(c, q)| (c, q)).collect(),
            docs: &self.docs,
            rows: &self.rows,
        }
    }

    fn store_shape(&self) -> BenchResult<Option<StoreShape>> {
        let mut shape = StoreShape {
            bytes: 0,
            docs: self.docs.len() as u64,
            encoded: self.docs.iter().map(|d| d.encoded_size() as u64).sum(),
        };
        for shard in self.router.shards() {
            if let Some(stats) = shard.store_stats()? {
                shape.bytes += stats.bytes;
            }
        }
        Ok(Some(shape))
    }
}

// -------------------------------------------------------------- ingest-mix

/// ingest-mix: one paged server behind a framed link; uploads with a
/// search every `search_every` of them.
pub struct IngestMix {
    dep: Deployment,
    server: Arc<CloudServer>,
    link: Link,
    caps: Vec<(SignedCapability, Query)>,
    /// Every row the run will upload: the set-up corpus, then the timed
    /// uploads.
    rows: Vec<Record>,
    docs: Vec<EncryptedIndex>,
    rng: StdRng,
}

impl Scenario for IngestMix {
    fn setup(
        plan: &Plan,
        all_rows: &[Record],
        dir: &Path,
        tracer: &mut Tracer,
        samples: &mut Samples,
        ledger: &mut Ledger,
    ) -> BenchResult<IngestMix> {
        let rows = sample_rows(
            all_rows,
            plan.corpus + plan.ops,
            &mut stream(plan.seed, Stream::Corpus),
        );
        let mut qrng = stream(plan.seed, Stream::Queries);
        let queries: Vec<Query> = (0..plan.caps)
            .map(|_| user_query(&rows, &mut qrng))
            .collect();
        let (dep, (server, mut link), deploy_ms) = deploy(plan.seed, tracer, |dep| {
            let clock = Arc::new(VirtualClock::new());
            let server = Arc::new(dep.paged_server(
                Arc::new(MetricsRegistry::new()),
                clock.clone(),
                &dir.join("store"),
                HydrateConfig::default().cache_budget_bytes,
            )?);
            let link = Link::new(server.clone(), dep.system.params().clone(), clock);
            Ok((server, link))
        })?;
        let (caps, issue_ms) = issue_all(&dep, queries, plan.seed, tracer, samples)?;
        // the timed uploads continue the owners' encryption stream
        let mut rng = stream(plan.seed, Stream::Encrypt);
        let (docs, corpus_ms) = load_corpus(
            &dep,
            &rows[..plan.corpus],
            &mut rng,
            tracer,
            samples,
            ledger,
            |idx| link.upload("owner-0", idx),
        )?;
        record_setup(samples, deploy_ms + issue_ms, corpus_ms);
        Ok(IngestMix {
            dep,
            server,
            link,
            caps,
            rows,
            docs,
            rng,
        })
    }

    fn run(
        &mut self,
        plan: &Plan,
        ops: Range<usize>,
        tracer: &mut Tracer,
        samples: &mut Samples,
        ledger: &mut Ledger,
        digest: &mut Digest,
    ) -> BenchResult<()> {
        let before = self.server.metrics_snapshot();
        for i in ops {
            let pos = plan.corpus + i;
            let owner = format!("owner-{}", pos % OWNERS);
            tracer.next_op();
            let link = &mut self.link;
            let mut put = |idx| link.upload(&owner, idx);
            let res = ingest_one(
                &self.dep,
                &self.rows[pos],
                &owner,
                &mut self.rng,
                tracer,
                &mut put,
            );
            if let Some((idx, id, ms)) = ledger.attempt("upload", res) {
                ledger.check(id == pos as u64, || {
                    format!("upload got id {id}, expected {pos}")
                });
                digest.upload(id);
                samples.ingest_ms.push(ms);
                samples.op_ms.push(ms);
                self.docs.push(idx);
            }
            if (i + 1) % plan.search_every != 0 {
                continue;
            }
            let first = (i / plan.search_every) * SEARCHES_PER_SIZE;
            for k in first..first + SEARCHES_PER_SIZE {
                let (cap, query) = &self.caps[k % self.caps.len()];
                tracer.next_op();
                let link = &mut self.link;
                let (hits, search_ms) = tracer.timed("client.search", |_| link.search(cap));
                let stored = &self.rows[..self.docs.len()];
                if let Some(hits) = ledger.attempt("search", hits) {
                    let want = self.dep.oracle(query, stored)?;
                    ledger.check(hits == want, || {
                        format!("ingest-mix query {query}: hits {hits:?}, oracle {want:?}")
                    });
                    digest.hits(&hits);
                    samples.search_ms.push(search_ms);
                    samples
                        .evals_per_s
                        .push(stored.len() as f64 / (search_ms / 1e3));
                }
            }
        }
        check_pairing_ledger(ledger, &before, &self.server.metrics_snapshot());
        Ok(())
    }

    fn snapshot(&self) -> MetricsSnapshot {
        self.server.metrics_snapshot()
    }

    fn counts(&self, before: &MetricsSnapshot, after: &MetricsSnapshot, tracer: &Tracer) -> Counts {
        let d = |name| delta(before, after, name);
        let scans = d("cloud.scans");
        let hits = d("cloud.hydrate.hits");
        let misses = d("cloud.hydrate.misses");
        let per_doc = transforms_per_doc(&self.dep, tracer);
        Counts {
            docs_per_query: ratio(d("cloud.scan.docs"), scans),
            pairings_per_query: ratio(d("cloud.scan.pairings"), scans),
            distinct_caps: 0.0,
            shared_eval_ratio: 0.0,
            prepare_hit_ratio: 0.0,
            hydrate_miss_ratio: ratio(misses, hits + misses),
            transforms_per_doc: per_doc,
            per_op: vec![
                ("core.gen_index_ms", 1.0),
                ("proxy.transform_ms", per_doc),
                ("wire.upload_codec_us", 1.0),
                ("cloud.upload_us", 1.0),
            ],
        }
    }

    fn ladder_inputs(&self) -> LadderInputs<'_> {
        LadderInputs {
            dep: &self.dep,
            caps: self.caps.iter().map(|(c, q)| (c, q)).collect(),
            docs: &self.docs,
            rows: &self.rows,
        }
    }

    fn store_shape(&self) -> BenchResult<Option<StoreShape>> {
        let stats = self
            .server
            .store_stats()?
            .ok_or("ingest-mix store is paged")?;
        Ok(Some(StoreShape {
            bytes: stats.bytes,
            docs: self.docs.len() as u64,
            encoded: self.docs.iter().map(|d| d.encoded_size() as u64).sum(),
        }))
    }
}
