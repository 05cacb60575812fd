//! The workloads and the metric catalogue. `BENCHMARK.json` at the
//! repository root mirrors these tables (a test checks it names every
//! metric); `--list` prints them.

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Per-query path on an in-memory server: issue, then search.
    SoloMem,
    /// Batched Zipf waves over four disk-backed shards.
    WaveDisk,
    /// Uploads with periodic searches on one disk-backed server.
    IngestMix,
}

impl Workload {
    /// Every workload, in `--workload all` order.
    pub const ALL: [Workload; 3] = [Workload::SoloMem, Workload::WaveDisk, Workload::IngestMix];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloMem => "solo-mem",
            Workload::WaveDisk => "wave-disk",
            Workload::IngestMix => "ingest-mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, as in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SoloMem => {
                "per-query path: LTA issuance then a framed serial scan of an in-memory corpus; \
                 no store, cache or batching"
            }
            Workload::WaveDisk => {
                "shared work: waves of 8 queries over 4 Zipf-picked capabilities, through \
                 admission and batching, over 4 paged shards whose cache always misses"
            }
            Workload::IngestMix => {
                "writes beside reads: encrypt, proxy and upload into one paged server, four \
                 framed searches every 48 uploads"
            }
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry.
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// What is measured (end-to-end), or the end-to-end metric and
    /// workload this layer should move (per-layer).
    pub about: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        about,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        about,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees; every workload reports all of them
/// on an untraced run.
pub const END_TO_END: &[MetricDef] = &[
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "median of 3 set-ups: keys, servers, capabilities, corpus",
    ),
    e2e(
        "search_p50_ms",
        "ms",
        Lower,
        0.2,
        "median latency of one query, request to verdicts",
    ),
    e2e(
        "evals_per_s",
        "1/s",
        Higher,
        0.2,
        "median (query, document) verdicts per second of one search",
    ),
    e2e(
        "issue_p50_ms",
        "ms",
        Lower,
        0.2,
        "median Lta::request_capability latency",
    ),
    e2e(
        "ingest_p50_ms",
        "ms",
        Lower,
        0.2,
        "median per-document gen_index + proxy chain + upload",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Lower,
        0.2,
        "peak resident set (VmHWM) of the benchmark process",
    ),
];

/// Single-layer metrics; every workload reports all of them on a traced
/// run. Timings come from the ladder pass, which calls each layer's
/// public entry point on the run's own objects.
pub const PER_LAYER: &[MetricDef] = &[
    layer(
        "authz.verify_ms",
        "ms",
        Lower,
        "search_p50_ms on solo-mem and ingest-mix; evals_per_s on wave-disk (4 verifies per query)",
    ),
    layer("authz.sign_ms", "ms", Lower, "issue_p50_ms on solo-mem"),
    layer("core.delegate_ms", "ms", Lower, "issue_p50_ms on solo-mem"),
    layer(
        "core.prepare_ms",
        "ms",
        Lower,
        "search_p50_ms on solo-mem and ingest-mix",
    ),
    layer(
        "core.gen_index_ms",
        "ms",
        Lower,
        "ingest_p50_ms on ingest-mix; setup_s everywhere",
    ),
    layer(
        "core.eval_us",
        "us",
        Lower,
        "search_p50_ms, evals_per_s on solo-mem and ingest-mix",
    ),
    layer(
        "core.wave_eval_us",
        "us",
        Lower,
        "evals_per_s on wave-disk (per document and distinct capability)",
    ),
    layer(
        "proxy.transform_ms",
        "ms",
        Lower,
        "ingest_p50_ms on ingest-mix; setup_s everywhere",
    ),
    layer(
        "proxy.transforms_per_doc",
        "count",
        Lower,
        "ingest_p50_ms on ingest-mix",
    ),
    layer(
        "hpe.test_prepared_us",
        "us",
        Lower,
        "evals_per_s on every workload",
    ),
    layer("dpvs.pair_us", "us", Lower, "evals_per_s on every workload"),
    layer(
        "curve.miller_us",
        "us",
        Lower,
        "evals_per_s on every workload (13-pair prepared Miller loop)",
    ),
    layer(
        "curve.final_exp_us",
        "us",
        Lower,
        "evals_per_s on every workload",
    ),
    layer(
        "math.fp_mul_ns",
        "ns",
        Lower,
        "evals_per_s on every workload",
    ),
    layer(
        "math.fp_sqr_ns",
        "ns",
        Lower,
        "evals_per_s on every workload",
    ),
    layer(
        "math.fp_inv_us",
        "us",
        Lower,
        "evals_per_s on every workload",
    ),
    layer(
        "wire.codec_us",
        "us",
        Lower,
        "search_p50_ms on solo-mem (expected share < 1%)",
    ),
    layer(
        "wire.upload_codec_us",
        "us",
        Lower,
        "ingest_p50_ms on ingest-mix",
    ),
    layer(
        "wire.bytes_per_search",
        "B",
        Lower,
        "search_p50_ms on solo-mem",
    ),
    layer(
        "wire.bytes_per_upload",
        "B",
        Lower,
        "ingest_p50_ms on ingest-mix",
    ),
    layer(
        "cloud.admission.offer_ns",
        "ns",
        Lower,
        "evals_per_s on wave-disk",
    ),
    layer(
        "cloud.upload_us",
        "us",
        Lower,
        "ingest_p50_ms on ingest-mix",
    ),
    layer(
        "cloud.hydrate.miss_us",
        "us",
        Lower,
        "search_p50_ms on wave-disk",
    ),
    layer(
        "cloud.hydrate.hit_us",
        "us",
        Lower,
        "search_p50_ms on ingest-mix",
    ),
    layer(
        "cloud.hydrate.miss_ratio",
        "ratio",
        Lower,
        "search_p50_ms on wave-disk (16/17 by construction)",
    ),
    layer(
        "cloud.docs_per_query",
        "count",
        Lower,
        "search_p50_ms, peak_rss_mb everywhere",
    ),
    layer(
        "cloud.pairings_per_query",
        "count",
        Lower,
        "evals_per_s on wave-disk; search_p50_ms elsewhere",
    ),
    layer(
        "cloud.wave.distinct_caps",
        "count",
        Lower,
        "evals_per_s on wave-disk",
    ),
    layer(
        "cloud.wave.shared_eval_ratio",
        "ratio",
        Higher,
        "evals_per_s on wave-disk",
    ),
    layer(
        "cloud.prepare.cache_hit_ratio",
        "ratio",
        Higher,
        "evals_per_s on wave-disk",
    ),
    layer("store.bytes_per_doc", "B", Lower, "setup_s, peak_rss_mb"),
    layer(
        "store.space_amp",
        "ratio",
        Lower,
        "setup_s, peak_rss_mb (disk bytes per encoded-index byte)",
    ),
    layer("setup.deploy_s", "s", Lower, "setup_s everywhere"),
    layer("setup.corpus_s", "s", Lower, "setup_s everywhere"),
    layer(
        "attribution.residual_pct",
        "%",
        Lower,
        "op p50 minus the sum of per-op layer counts times ladder self times",
    ),
    layer(
        "trace.overhead_pct",
        "%",
        Lower,
        "traced minus untraced op p50",
    ),
];

/// Looks up a catalogue entry by name.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
