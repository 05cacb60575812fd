//! Seeded end-to-end benchmark of the APKS stack with per-layer
//! attribution.
//!
//! A run builds one workload's deployment [`workloads::SETUP_REPEATS`]
//! times (the set-up time is their median), drives the last one through
//! a warm-up and a fixed number of timed operations, checks every answer
//! against the plaintext oracle, and reports the end-to-end metrics of
//! [`catalogue::END_TO_END`]. A traced run then replays the same seed on
//! a fresh deployment with spans recorded, times every inner layer on
//! that replay's own objects ([`ladder`]), reads the program's counters,
//! and reports [`catalogue::PER_LAYER`], including how much of the
//! operation latency the layers leave unexplained.

pub mod catalogue;
pub mod deploy;
pub mod json;
pub mod ladder;
pub mod stats;
pub mod trace;
pub mod workloads;

use catalogue::Workload;
use deploy::{BenchResult, Digest, Ledger};
use json::Obj;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use trace::Tracer;
use workloads::{Counts, IngestMix, Plan, Samples, Scale, Scenario, SoloMem, StoreShape, WaveDisk};

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Sets the timed operation count (see [`Plan::new`]).
    pub seconds: u64,
    /// Full or smoke sizes.
    pub scale: Scale,
    /// Replay traced and report per-layer metrics.
    pub trace: bool,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Observations behind the value.
    pub samples: usize,
}

/// The outcome of one run.
pub struct Report {
    /// What ran.
    pub config: RunConfig,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks failed.
    pub failed: u64,
    /// SHA-256 over every hit list and upload id of the timed phase.
    pub digest: String,
    /// End-to-end metrics, or per-layer metrics on a traced run.
    pub metrics: Vec<Metric>,
    /// Where a traced run wrote its spans.
    pub trace_file: Option<PathBuf>,
    /// The untraced run's quiet-host gate: attempts, steps kept although
    /// the host read busy, and seconds spent waiting or discarded.
    pub gate: (u64, u64, f64),
}

impl Report {
    /// True iff every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Failures over attempts.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// A metric's value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Where runs keep scratch stores and write traces.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-run scratch directory, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> BenchResult<Scratch> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("run-{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures; operation failures are counted in the report.
pub fn run(config: &RunConfig) -> BenchResult<Report> {
    match config.workload {
        Workload::SoloMem => execute::<SoloMem>(config),
        Workload::WaveDisk => execute::<WaveDisk>(config),
        Workload::IngestMix => execute::<IngestMix>(config),
    }
}

fn execute<S: Scenario>(config: &RunConfig) -> BenchResult<Report> {
    let plan = Plan::new(config.workload, config.scale, config.seed, config.seconds);
    let all_rows = apks_dataset::nursery_records();
    let scratch = Scratch::new(config.workload.name())?;
    let mut samples = Samples::default();
    let mut ledger = Ledger::default();
    let mut untraced = Tracer::new(false);
    let mut world: Option<S> = None;
    for i in 0..workloads::SETUP_REPEATS {
        // free the previous deployment before building the next
        drop(world.take());
        world = Some(S::setup(
            &plan,
            &all_rows,
            &scratch.path(&format!("setup-{i}")),
            &mut untraced,
            &mut samples,
            &mut ledger,
        )?);
    }
    let mut world = world.ok_or("no set-up ran")?;
    let mut digest = Digest::default();
    for ops in plan.phases() {
        world.run(
            &plan,
            ops,
            &mut untraced,
            &mut samples,
            &mut ledger,
            &mut digest,
        )?;
    }
    drop(world);
    let digest = digest.hex();
    let g = &untraced.gate;
    let gate = (g.attempts, g.busy_steps, g.spent.as_secs_f64());

    let (metrics, trace_file) = if config.trace {
        let (metrics, file) = traced::<S>(
            config,
            &plan,
            &all_rows,
            &scratch,
            &samples,
            &digest,
            &mut ledger,
        )?;
        (metrics, Some(file))
    } else {
        (end_to_end(&samples)?, None)
    };
    Ok(Report {
        config: config.clone(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        digest,
        metrics,
        trace_file,
        gate,
    })
}

fn metric(name: &'static str, value: f64, samples: usize) -> BenchResult<Metric> {
    let def = catalogue::find(name).ok_or_else(|| format!("{name} is not in the catalogue"))?;
    if !value.is_finite() {
        return Err(format!("{name} has no finite value").into());
    }
    Ok(Metric {
        name,
        unit: def.unit,
        value,
        samples,
    })
}

fn quantile(name: &'static str, v: &[f64], q: f64) -> BenchResult<Metric> {
    let value = stats::quantile(v, q).ok_or_else(|| format!("{name}: no samples"))?;
    metric(name, value, v.len())
}

fn end_to_end(s: &Samples) -> BenchResult<Vec<Metric>> {
    Ok(vec![
        quantile("setup_s", &s.setup_s, 0.5)?,
        quantile("search_p50_ms", &s.search_ms, 0.5)?,
        quantile("evals_per_s", &s.evals_per_s, 0.5)?,
        quantile("issue_p50_ms", &s.issue_ms, 0.5)?,
        quantile("ingest_p50_ms", &s.ingest_ms, 0.5)?,
        metric("peak_rss_mb", peak_rss_mb()?, 1)?,
    ])
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Milliseconds per unit of a catalogue timing unit.
fn ms_per(unit: &str) -> f64 {
    match unit {
        "s" => 1e3,
        "us" => 1e-3,
        "ns" => 1e-6,
        _ => 1.0,
    }
}

/// The attribution model of one operation: `(layer, calls per op, ms per
/// call)` and the residual `op p50 − Σ calls × ms` as a share of op p50.
struct Attribution {
    terms: Vec<(&'static str, f64, f64)>,
    op_p50_ms: f64,
    residual_pct: f64,
}

fn attribute(counts: &Counts, ladder: &ladder::Ladder, op_p50_ms: f64) -> BenchResult<Attribution> {
    let mut terms = Vec::new();
    for &(layer, calls) in &counts.per_op {
        let value = ladder
            .values
            .get(layer)
            .ok_or_else(|| format!("no ladder rung {layer}"))?;
        let unit = catalogue::find(layer).map_or("ms", |m| m.unit);
        terms.push((layer, calls, value * ms_per(unit)));
    }
    let explained: f64 = terms.iter().map(|(_, calls, ms)| calls * ms).sum();
    Ok(Attribution {
        residual_pct: (op_p50_ms - explained) / op_p50_ms * 100.0,
        terms,
        op_p50_ms,
    })
}

/// The traced replay, the ladder and the per-layer metrics.
fn traced<S: Scenario>(
    config: &RunConfig,
    plan: &Plan,
    all_rows: &[apks_core::Record],
    scratch: &Scratch,
    untraced: &Samples,
    digest: &str,
    ledger: &mut Ledger,
) -> BenchResult<(Vec<Metric>, PathBuf)> {
    let mut tracer = Tracer::new(true);
    let mut samples = Samples::default();
    let mut replay = S::setup(
        plan,
        all_rows,
        &scratch.path("replay"),
        &mut tracer,
        &mut samples,
        ledger,
    )?;
    let mut replay_digest = Digest::default();
    let [warm_up, timed] = plan.phases();
    replay.run(
        plan,
        warm_up,
        &mut tracer,
        &mut samples,
        ledger,
        &mut replay_digest,
    )?;
    let before = replay.snapshot();
    replay.run(
        plan,
        timed,
        &mut tracer,
        &mut samples,
        ledger,
        &mut replay_digest,
    )?;
    let after = replay.snapshot();
    let replay_digest = replay_digest.hex();
    ledger.attempted += 1;
    ledger.check(replay_digest == digest, || {
        format!("traced replay digest {replay_digest} differs from {digest}")
    });

    let counts = replay.counts(&before, &after, &tracer);
    let ladder = ladder::run(
        &replay.ladder_inputs(),
        &scratch.path("ladder"),
        config.scale,
        config.seed,
        &mut tracer.gate,
    )?;
    let op_p50 = stats::median(&untraced.op_ms).ok_or("no timed operations")?;
    let traced_p50 = stats::median(&samples.op_ms).ok_or("no traced operations")?;
    let attribution = attribute(&counts, &ladder, op_p50)?;
    let store = replay.store_shape()?.unwrap_or(ladder.scratch_store);

    let mut metrics = Vec::new();
    let single = ladder
        .values
        .iter()
        .map(|(name, value)| (*name, *value))
        .chain([
            ("proxy.transforms_per_doc", counts.transforms_per_doc),
            ("cloud.hydrate.miss_ratio", counts.hydrate_miss_ratio),
            ("cloud.docs_per_query", counts.docs_per_query),
            ("cloud.pairings_per_query", counts.pairings_per_query),
            ("cloud.wave.distinct_caps", counts.distinct_caps),
            ("cloud.wave.shared_eval_ratio", counts.shared_eval_ratio),
            ("cloud.prepare.cache_hit_ratio", counts.prepare_hit_ratio),
            (
                "store.bytes_per_doc",
                store.bytes as f64 / store.docs.max(1) as f64,
            ),
            (
                "store.space_amp",
                store.bytes as f64 / store.encoded.max(1) as f64,
            ),
        ]);
    for (name, value) in single {
        metrics.push(metric(name, value, 1)?);
    }
    let ops = untraced.op_ms.len();
    metrics.push(metric(
        "attribution.residual_pct",
        attribution.residual_pct,
        ops,
    )?);
    let overhead_pct = (traced_p50 - op_p50) / op_p50 * 100.0;
    metrics.push(metric("trace.overhead_pct", overhead_pct, ops)?);
    metrics.push(quantile("setup.deploy_s", &untraced.deploy_s, 0.5)?);
    metrics.push(quantile("setup.corpus_s", &untraced.corpus_s, 0.5)?);
    metrics.sort_by_key(|m| {
        catalogue::PER_LAYER
            .iter()
            .position(|d| d.name == m.name)
            .unwrap_or(usize::MAX)
    });

    let file = out_dir().join(format!(
        "trace-{}-seed{}.json",
        config.workload.name(),
        config.seed
    ));
    std::fs::write(
        &file,
        trace_json(config, &tracer, &after, &attribution, &store) + "\n",
    )?;
    Ok((metrics, file))
}

fn trace_json(
    config: &RunConfig,
    tracer: &Tracer,
    counters: &apks_telemetry::MetricsSnapshot,
    attribution: &Attribution,
    store: &StoreShape,
) -> String {
    let mut counter_obj = Obj::new();
    for (name, m) in counters.entries() {
        counter_obj = match m {
            apks_telemetry::Metric::Counter(v) => counter_obj.int(name, *v),
            apks_telemetry::Metric::Histogram(h) => {
                counter_obj.obj(name, Obj::new().int("count", h.count).int("sum", h.sum))
            }
        };
    }
    let terms = json::array(attribution.terms.iter().map(|(layer, calls, ms)| {
        Obj::new()
            .str("layer", layer)
            .num("calls_per_op", *calls)
            .num("ms_per_call", *ms)
            .num("ms_per_op", calls * ms)
            .finish()
    }));
    Obj::new()
        .str("workload", config.workload.name())
        .int("seed", config.seed)
        .obj("fingerprint", fingerprint())
        .obj(
            "attribution",
            Obj::new()
                .num("op_p50_ms", attribution.op_p50_ms)
                .raw("terms", terms)
                .num("residual_pct", attribution.residual_pct),
        )
        .obj(
            "store",
            Obj::new()
                .int("bytes", store.bytes)
                .int("docs", store.docs)
                .int("encoded_bytes", store.encoded),
        )
        .obj("counters", counter_obj)
        .raw("spans", tracer.to_json())
        .finish()
}

/// rustc version, CPU model and available parallelism of this run.
pub fn fingerprint() -> Obj {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Obj::new()
        .str("rustc", env!("PERFBENCH_RUSTC"))
        .str("cpu", &cpu)
        .int("nproc", nproc)
}

/// The full JSON line of a run: metrics with units and sample counts,
/// correctness, digest and fingerprint.
pub fn detail_line(r: &Report) -> String {
    let mut metrics = Obj::new();
    for m in &r.metrics {
        metrics = metrics.obj(
            m.name,
            Obj::new()
                .num("value", m.value)
                .str("unit", m.unit)
                .int("samples", m.samples as u64),
        );
    }
    let mut line = Obj::new()
        .str("workload", r.config.workload.name())
        .int("seed", r.config.seed)
        .int("seconds", r.config.seconds)
        .str(
            "scale",
            if r.config.scale == Scale::Full {
                "full"
            } else {
                "smoke"
            },
        )
        .bool("trace", r.config.trace)
        .bool("correct", r.correct())
        .num("fail_ratio", r.fail_ratio())
        .str("result_digest", &r.digest)
        .obj(
            "quiet_gate",
            Obj::new()
                .int("attempts", r.gate.0)
                .int("busy_steps", r.gate.1)
                .num("spent_s", r.gate.2),
        )
        .obj("fingerprint", fingerprint());
    if let Some(file) = &r.trace_file {
        line = line.str("trace_file", &file.display().to_string());
    }
    line.obj("metrics", metrics).finish()
}

/// The result line the benchmark contract asks for: exactly `correct`,
/// `attempted`, `failed` and `metrics` (value and unit per metric).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut m = Obj::new();
    for (name, value, unit) in metrics {
        m = m.obj(name, Obj::new().num("value", *value).str("unit", unit));
    }
    Obj::new()
        .bool("correct", correct)
        .int("attempted", attempted)
        .int("failed", failed)
        .obj("metrics", m)
        .finish()
}
