//! `apks sim <scenario>`: runs one of the seeded virtual-tick scenarios
//! of `apks-sim`, prints its ledger, and hands out its metrics snapshot
//! as single-line JSON (`--json` to stdout instead of the ledger,
//! `--out PATH` to a file).
//!
//! Every scenario starts from its `apks-sim` config default, seed 1
//! included, and each option overrides one knob. Same-seed runs print
//! the same ledger and snapshot; only the lines starting `wall:`
//! (ingest and scan seconds) vary.

use crate::commands::{hex, write_file, Args, CliError, Spec, USAGE};
use apks_sim::overload::{OverloadConfig, OverloadReport};
use apks_telemetry::{Metric, MetricsSnapshot};
use std::io::Write;
use std::path::PathBuf;

/// Runs a scenario, writes its ledger to `out`, and returns the
/// snapshot that `--json` and `--out` hand out.
type Scenario = fn(&Args, &mut dyn Write) -> Result<MetricsSnapshot, CliError>;

const SCENARIOS: &[(&str, Spec, Scenario)] = &[
    (
        "overload",
        Spec::new(&["seed", "out"], &["json"]),
        sim_overload,
    ),
    (
        "batched",
        Spec::new(&["seed", "out"], &["json"]),
        sim_batched,
    ),
    (
        "framed",
        Spec::new(
            &[
                "arrivals",
                "docs",
                "burst",
                "ticks-per-frame",
                "ticks-per-byte",
                "seed",
                "out",
            ],
            &["json"],
        ),
        sim_framed,
    ),
    (
        "shard",
        Spec::new(
            &[
                "docs",
                "shards",
                "waves",
                "wave-size",
                "deadline",
                "budget",
                "seed",
                "dir",
                "out",
            ],
            &["full", "no-oracle", "json"],
        ),
        sim_shard,
    ),
    (
        "hydrate",
        Spec::new(
            &[
                "docs",
                "queries",
                "cache-bytes",
                "deadline",
                "budget",
                "seed",
                "dir",
                "out",
            ],
            &["faulted", "no-rescan", "json"],
        ),
        sim_hydrate,
    ),
    (
        "chaos-net",
        Spec::new(
            &[
                "docs",
                "partitions",
                "replication",
                "searches",
                "drop",
                "corrupt",
                "duplicate",
                "crash-workloads",
                "crash-points",
                "seed",
                "dir",
                "out",
            ],
            &["no-oracle", "json"],
        ),
        sim_chaos_net,
    ),
];

/// `apks sim <scenario> [options]`.
pub(crate) fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let unknown = |what: String| CliError(format!("{what}\n{USAGE}"));
    let (name, rest) = args
        .split_first()
        .ok_or_else(|| unknown("sim needs a scenario".into()))?;
    let (_, spec, scenario) = SCENARIOS
        .iter()
        .find(|(n, ..)| n == name)
        .ok_or_else(|| unknown(format!("unknown scenario {name:?}")))?;
    let args = Args::parse(&format!("sim {name}"), rest, spec)?;
    let json = args.has_flag("json");
    let snapshot = if json {
        scenario(&args, &mut std::io::sink())?
    } else {
        scenario(&args, out)?
    }
    .to_json();
    if let Some(path) = args.get("out") {
        write_file(path, snapshot.as_bytes())?;
        if !json {
            writeln!(out, "metrics -> {path}")?;
        }
    }
    if json {
        writeln!(out, "{snapshot}")?;
    }
    Ok(())
}

/// `--dir`, or a per-process directory under the system temp dir.
fn store_dir(args: &Args, default: &str) -> PathBuf {
    args.get("dir").map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("apks-{default}-{}", std::process::id()))
    })
}

fn overload_config(args: &Args) -> Result<OverloadConfig, CliError> {
    let mut config = OverloadConfig::default();
    args.apply("seed", &mut config.seed)?;
    Ok(config)
}

/// The ledger every overload run shares, whichever way it was driven:
/// admission, degradation, the p99 shed-vs-result comparison and the
/// end-of-run breaker states.
fn render_overload(out: &mut dyn Write, label: &str, r: &OverloadReport) -> std::io::Result<()> {
    writeln!(
        out,
        "{label}: {} arrivals over {} virtual ticks, {} docs",
        r.arrivals, r.virtual_ticks, r.docs_stored
    )?;
    writeln!(
        out,
        "admission: {} admitted, {} shed at the queue, {} browned out (max level {}), {} displaced by priority",
        r.admitted, r.shed_queue_full, r.shed_brownout, r.max_brownout_level, r.displaced
    )?;
    writeln!(
        out,
        "degradation: {} deadline-expired, {} budget-exhausted, {} documents left unscanned",
        r.deadline_expired, r.budget_exhausted, r.unscanned_docs
    )?;
    writeln!(
        out,
        "p99 time-to-shed {} ticks vs p99 time-to-result {} ticks",
        r.time_to_shed_p99(),
        r.scan_latency_p99()
    )?;
    writeln!(out, "circuit breakers:")?;
    for (id, state) in &r.breaker_states {
        writeln!(out, "  {id}: {state}")?;
    }
    Ok(())
}

/// Prints every counter and histogram whose name starts with one of
/// `prefixes`.
fn render_ledger(
    out: &mut dyn Write,
    title: &str,
    metrics: &MetricsSnapshot,
    prefixes: &[&str],
) -> std::io::Result<()> {
    writeln!(out, "{title}:")?;
    for (name, metric) in metrics.entries() {
        if !prefixes.iter().any(|p| name.starts_with(p)) {
            continue;
        }
        match metric {
            Metric::Counter(v) => writeln!(out, "  {name}: {v}")?,
            Metric::Histogram(h) => writeln!(
                out,
                "  {name}: count {} sum {} p50<={} p99<={}",
                h.count,
                h.sum,
                h.quantile_upper_bound(0.5),
                h.quantile_upper_bound(0.99),
            )?,
        }
    }
    Ok(())
}

/// The deterministic overload scenario: admission, brown-out, breaker
/// and latency telemetry under a saturating Zipf burst.
fn sim_overload(args: &Args, out: &mut dyn Write) -> Result<MetricsSnapshot, CliError> {
    use apks_sim::overload::run_overload;

    let config = overload_config(args)?;
    let r = run_overload(&config).map_err(|e| CliError(e.to_string()))?;
    render_overload(
        out,
        &format!("overload scenario (seed {})", config.seed),
        &r,
    )?;
    Ok(r.metrics)
}

/// The overload stream in micro-batched admission mode — the wave
/// engine's `cloud.wave.*` ledger — then the wave-depth series: one
/// saturating burst with no deadline or budget, so every query
/// completes, batched at depths 1–16 against the per-query prepared
/// path on the virtual clock.
fn sim_batched(args: &Args, out: &mut dyn Write) -> Result<MetricsSnapshot, CliError> {
    use apks_cloud::WaveConfig;
    use apks_sim::overload::{run_overload, run_overload_batched};

    let config = overload_config(args)?;
    let wave = WaveConfig::default();
    let r = run_overload_batched(&config, &wave).map_err(|e| CliError(e.to_string()))?;
    render_overload(
        out,
        &format!(
            "batched overload scenario (seed {}, waves of {} within {} ticks)",
            config.seed, wave.max_wave, wave.window_ticks
        ),
        &r,
    )?;
    let m = &r.metrics;
    writeln!(
        out,
        "waves: {} dispatched ({} filled, {} window-expired, {} drained)",
        m.counter("cloud.wave.scans").unwrap_or(0),
        m.counter("cloud.wave.flush.full").unwrap_or(0),
        m.counter("cloud.wave.flush.window").unwrap_or(0),
        m.counter("cloud.wave.flush.drain").unwrap_or(0),
    )?;
    if let Some(h) = m.histogram("cloud.wave.size") {
        writeln!(
            out,
            "wave size: mean {} (p99<={}), {} duplicate evaluations shared",
            h.sum / h.count.max(1),
            h.quantile_upper_bound(0.99),
            m.counter("cloud.wave.shared_evals").unwrap_or(0),
        )?;
    }
    if let Some(h) = m.histogram("cloud.wave.amortized_pairings_per_query") {
        writeln!(
            out,
            "amortized pairings per query: mean {} (p99<={}) across {} waves",
            h.sum / h.count.max(1),
            h.quantile_upper_bound(0.99),
            h.count,
        )?;
    }
    render_ledger(out, "full wave ledger", m, &["cloud.wave."])?;

    // every arrival lands on tick 0 of the unloaded twin: no arrival-gap
    // floor, so throughput is pure scan economics
    let burst = OverloadConfig {
        burst_size: config.arrivals,
        burst_gap_ticks: 0,
        ..config.unloaded()
    };
    let per_query = run_overload(&burst).map_err(|e| CliError(e.to_string()))?;
    let qps = |ticks: u64| burst.arrivals as f64 * 1000.0 / ticks.max(1) as f64;
    writeln!(out)?;
    writeln!(
        out,
        "wave-depth series: one burst of {} arrivals, unloaded, window disabled (virtual ticks)",
        burst.arrivals
    )?;
    writeln!(
        out,
        "| wave depth | waves | virtual ticks | queries/ktick | speed-up | amortized pairings/query |"
    )?;
    writeln!(
        out,
        "|------------|-------|---------------|---------------|----------|--------------------------|"
    )?;
    writeln!(
        out,
        "| per-query | — | {} | {:.1} | 1.00x | {} |",
        per_query.virtual_ticks,
        qps(per_query.virtual_ticks),
        per_query
            .metrics
            .counter("cloud.scan.pairings")
            .unwrap_or(0)
            / burst.arrivals.max(1) as u64,
    )?;
    let mut at_depth_8 = 0.0;
    for depth in [1usize, 2, 4, 8, 16] {
        // window disabled: waves dispatch full, or drain at the end
        let d = run_overload_batched(&burst, &WaveConfig::new(depth, u64::MAX))
            .map_err(|e| CliError(e.to_string()))?;
        if d.requests
            .iter()
            .zip(&per_query.requests)
            .any(|(b, p)| b.outcome != p.outcome)
        {
            return Err(CliError(format!(
                "unbounded batched run at depth {depth} answered differently from per-query"
            )));
        }
        let speedup = per_query.virtual_ticks as f64 / d.virtual_ticks.max(1) as f64;
        writeln!(
            out,
            "| {depth} | {} | {} | {:.1} | {speedup:.2}x | {} |",
            d.metrics.counter("cloud.wave.scans").unwrap_or(0),
            d.virtual_ticks,
            qps(d.virtual_ticks),
            d.metrics
                .histogram("cloud.wave.amortized_pairings_per_query")
                .map(|h| h.sum / h.count.max(1))
                .unwrap_or(0),
        )?;
        if depth == 8 {
            at_depth_8 = speedup;
        }
    }
    writeln!(
        out,
        "batch >= 8 target (>= 5x aggregate QPS over per-query prepared): {at_depth_8:.2}x — {}",
        if at_depth_8 >= 5.0 { "met" } else { "MISSED" },
    )?;
    Ok(r.metrics)
}

/// The overload stream through the real framed client/server path,
/// with the wire ledger and the request/response frame digests.
fn sim_framed(args: &Args, out: &mut dyn Write) -> Result<MetricsSnapshot, CliError> {
    use apks_client::TransportCost;
    use apks_sim::framed::run_overload_framed;

    let mut config = overload_config(args)?;
    args.apply("arrivals", &mut config.arrivals)?;
    args.apply("docs", &mut config.docs)?;
    args.apply("burst", &mut config.burst_size)?;
    let mut cost = TransportCost {
        ticks_per_frame: 5,
        ticks_per_byte: 0,
    };
    args.apply("ticks-per-frame", &mut cost.ticks_per_frame)?;
    args.apply("ticks-per-byte", &mut cost.ticks_per_byte)?;
    let framed = run_overload_framed(&config, cost).map_err(|e| CliError(e.to_string()))?;
    render_overload(
        out,
        &format!("framed overload scenario (seed {})", config.seed),
        &framed.report,
    )?;
    writeln!(
        out,
        "wire: frames {}->{} bytes {}->{} (cost {}t/frame {}t/byte)",
        framed.frames_sent,
        framed.frames_received,
        framed.bytes_sent,
        framed.bytes_received,
        cost.ticks_per_frame,
        cost.ticks_per_byte
    )?;
    writeln!(out, "request_digest={}", hex(&framed.request_digest))?;
    writeln!(out, "response_digest={}", hex(&framed.response_digest))?;
    Ok(framed.report.metrics)
}

/// A modeled corpus ingested into paged shard stores and scanned by
/// the scatter-gather wave router. The default is a CI-sized smoke;
/// `--full` starts from the 10M-document / 8-shard experiment scale
/// with the single-node oracle off (one corpus pass per wave is the
/// point at that scale), and explicit options override either base.
/// The stores stay in `--dir` for `apks store-stats`.
fn sim_shard(args: &Args, out: &mut dyn Write) -> Result<MetricsSnapshot, CliError> {
    use apks_sim::shard::{run_shard_sim, ShardSimConfig};

    let mut config = if args.has_flag("full") {
        ShardSimConfig {
            verify_oracle: false,
            ..ShardSimConfig::full_scale()
        }
    } else {
        ShardSimConfig::default()
    };
    args.apply("docs", &mut config.docs)?;
    args.apply("shards", &mut config.shards)?;
    args.apply("waves", &mut config.waves)?;
    args.apply("wave-size", &mut config.wave_size)?;
    args.apply("deadline", &mut config.deadline_ticks)?;
    args.apply("budget", &mut config.pairing_budget)?;
    args.apply("seed", &mut config.seed)?;
    if args.has_flag("no-oracle") {
        config.verify_oracle = false;
    }
    if config.shards == 0 {
        return Err(CliError("--shards must be at least 1".into()));
    }
    let dir = store_dir(args, "shard-sim");
    let r = run_shard_sim(&config, &dir).map_err(|e| CliError(e.to_string()))?;
    writeln!(
        out,
        "shard: seed={} docs={} shards={} waves={}x{}",
        config.seed, r.docs, r.shards, r.waves, config.wave_size
    )?;
    writeln!(
        out,
        "  store: segments={} pages={} bytes={}",
        r.segments, r.pages, r.store_bytes
    )?;
    writeln!(
        out,
        "  scan: hits={} deadline_expired={} budget_exhausted={} unscanned_docs={}",
        r.hits_total, r.deadline_expired, r.budget_exhausted, r.unscanned_docs
    )?;
    writeln!(
        out,
        "  time: virtual_ticks={} wave_latency_p99={} oracle_verified={}",
        r.virtual_ticks, r.wave_latency_p99, r.oracle_verified
    )?;
    writeln!(
        out,
        "  wire: frames_sent={} bytes_sent={}",
        r.frames_sent, r.bytes_sent
    )?;
    writeln!(out, "  request_digest={}", hex(&r.request_digest))?;
    writeln!(out, "  response_digest={}", hex(&r.response_digest))?;
    writeln!(
        out,
        "  wall: ingest {:.2}s ({:.0} docs/s)",
        r.ingest_wall_secs, r.ingest_docs_per_sec
    )?;
    Ok(r.metrics)
}

/// Real encrypted indexes in a paged store, scanned through lazy
/// hydration, every query checked against an in-memory twin; prints
/// the cache ledger. `--faulted` adds poisoned, flaky and slow
/// documents; `--cache-bytes` small enough forces LRU evictions. The
/// store in `--dir` is removed afterwards.
fn sim_hydrate(args: &Args, out: &mut dyn Write) -> Result<MetricsSnapshot, CliError> {
    use apks_core::fault::FaultConfig;
    use apks_sim::hydrate::{run_hydrate_sim, HydrateSimConfig};

    let mut config = HydrateSimConfig::default();
    args.apply("docs", &mut config.docs)?;
    args.apply("queries", &mut config.queries)?;
    args.apply("cache-bytes", &mut config.cache_budget_bytes)?;
    args.apply("deadline", &mut config.deadline_ticks)?;
    args.apply("budget", &mut config.pairing_budget)?;
    if let Some(seed) = args.parsed("seed")? {
        config.seed = seed;
        config.faults.seed = seed;
    }
    if args.has_flag("faulted") {
        config.faults = FaultConfig {
            seed: config.seed,
            poisoned_doc_permille: 120,
            flaky_doc_permille: 100,
            slow_doc_permille: 100,
            ..FaultConfig::default()
        };
    }
    if args.has_flag("no-rescan") {
        config.rescan = false;
    }
    let dir = store_dir(args, "hydrate-sim");
    let result = run_hydrate_sim(&config, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let r = result.map_err(|e| CliError(e.to_string()))?;
    writeln!(
        out,
        "hydrate: seed={} docs={} queries={} cache_bytes={}",
        config.seed, r.docs, r.queries, config.cache_budget_bytes
    )?;
    writeln!(
        out,
        "  store: segments={} pages={} indexed_docs={} bytes={}",
        r.segments, r.pages, r.indexed_docs, r.store_bytes
    )?;
    writeln!(
        out,
        "  hydrate: misses={} hits={} evictions={} oversize={}",
        r.hydrate_misses, r.hydrate_hits, r.hydrate_evictions, r.hydrate_oversize
    )?;
    writeln!(
        out,
        "  scan: hits={} deadline_expired={} budget_exhausted={} faulted_docs={}",
        r.hits_total, r.deadline_expired, r.budget_exhausted, r.faulted_docs
    )?;
    writeln!(
        out,
        "  wall: ingest {:.2}s scan {:.2}s",
        r.ingest_wall_secs, r.scan_wall_secs
    )?;
    writeln!(
        out,
        "  time: virtual_ticks={} oracle_verified={}",
        r.virtual_ticks, r.oracle_verified
    )?;
    Ok(r.metrics)
}

/// The composed robustness scenario: a lossy framed link, replicated
/// shards with a forced-open primary breaker, and a seeded crash-point
/// sweep, with the `cloud.replica.*` / `wire.*` ledger. The sweep's
/// stores in `--dir` are removed afterwards; a violated robustness
/// invariant panics, which is the point.
fn sim_chaos_net(args: &Args, out: &mut dyn Write) -> Result<MetricsSnapshot, CliError> {
    use apks_sim::chaos_net::{run_chaos_net, ChaosNetConfig};

    let mut config = ChaosNetConfig::default();
    args.apply("docs", &mut config.docs)?;
    args.apply("partitions", &mut config.partitions)?;
    args.apply("replication", &mut config.replication)?;
    args.apply("searches", &mut config.searches)?;
    args.apply("drop", &mut config.drop_permille)?;
    args.apply("corrupt", &mut config.corrupt_permille)?;
    args.apply("duplicate", &mut config.duplicate_permille)?;
    args.apply("crash-workloads", &mut config.crash_workloads)?;
    args.apply("crash-points", &mut config.crash_points_per_workload)?;
    args.apply("seed", &mut config.seed)?;
    if args.has_flag("no-oracle") {
        config.verify_oracle = false;
    }
    let dir = store_dir(args, "chaos-net");
    let result = run_chaos_net(&config, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let r = result.map_err(|e| CliError(e.to_string()))?;
    writeln!(
        out,
        "chaos-net: seed={} docs={} partitions={} replication={} searches={}",
        config.seed, r.docs, r.partitions, r.replication, r.searches
    )?;
    writeln!(
        out,
        "  link: dropped={} corrupted={} duplicated={} reconnects={} dedup_hits={}",
        r.frames_dropped, r.frames_corrupted, r.frames_duplicated, r.reconnects, r.dedup_hits
    )?;
    writeln!(
        out,
        "  replication: failovers={} oracle_verified={} framed_verified={} hits={}",
        r.failovers, r.oracle_verified, r.framed_verified, r.hits_total
    )?;
    writeln!(
        out,
        "  crash: points={} acked_checked={} acked_lost={} reopen_failures={}",
        r.crash_points, r.acked_puts_checked, r.acked_puts_lost, r.reopen_failures
    )?;
    writeln!(out, "  time: virtual_ticks={}", r.virtual_ticks)?;
    for q in &r.queries {
        writeln!(
            out,
            "  wave {}: keyword={} hits={} partition0_replica={} straggler={}",
            q.wave,
            q.keyword,
            q.hits.len(),
            q.partition0_replica,
            q.straggler_ticks
        )?;
    }
    render_ledger(
        out,
        "replication ledger",
        &r.metrics,
        &["cloud.replica.", "wire."],
    )?;
    Ok(r.metrics)
}

#[cfg(test)]
mod tests {
    use crate::commands::tests::{run_strs, tmpdir};

    /// Runs `apks sim <args>` twice with `--out` and once with `--json`;
    /// checks that the two ledgers agree once the wall-clock lines are
    /// dropped, and that `--out` wrote the JSON that `--json` printed.
    /// Returns the first ledger.
    fn replay(tag: &str, args: &[&str]) -> String {
        let dir = tmpdir(tag);
        let snapshot = dir.join("snapshot.json");
        let run = |extra: &[&str]| {
            let mut full = vec!["sim"];
            full.extend_from_slice(args);
            full.extend_from_slice(extra);
            run_strs(&full).unwrap()
        };
        let ledger = |out: &str| -> Vec<String> {
            out.lines()
                .filter(|l| !l.trim_start().starts_with("wall:"))
                .map(String::from)
                .collect()
        };
        let out_flag = ["--out", snapshot.to_str().unwrap()];
        let first = run(&out_flag);
        let written = std::fs::read_to_string(&snapshot).unwrap();
        assert_eq!(
            ledger(&first),
            ledger(&run(&out_flag)),
            "same seed, same ledger"
        );
        let json = run(&["--json"]);
        assert!(json.starts_with('{'), "got:\n{json}");
        assert_eq!(
            json,
            format!("{written}\n"),
            "--out writes what --json prints"
        );
        let _ = std::fs::remove_dir_all(dir);
        first
    }

    #[test]
    fn sim_overload_reports_breakers_and_sheds() {
        let out = run_strs(&["sim", "overload", "--seed", "1"]).unwrap();
        assert!(out.contains("overload scenario (seed 1)"));
        assert!(out.contains("circuit breakers:"));
        assert!(out.contains("proxy-0: "));
        assert!(out.contains("p99 time-to-shed"));
        // the same seed replays identically
        let again = run_strs(&["sim", "overload", "--seed", "1"]).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn sim_batched_reports_wave_ledger() {
        let out = run_strs(&["sim", "batched", "--seed", "1"]).unwrap();
        assert!(out.contains("batched overload scenario (seed 1"));
        assert!(out.contains("waves: "));
        assert!(out.contains("amortized pairings per query"));
        assert!(out.contains("cloud.wave.scans"));
        assert!(out.contains("cloud.wave.size"));
        assert!(
            !out.contains("cloud.scans"),
            "batched mode must not touch the solo-scan ledger"
        );
        // the wave-depth series: waves of 8 share each document's
        // service charge, which EXPERIMENTS.md records as 7.65x
        assert!(out.contains("| 16 | 2 |"), "got:\n{out}");
        assert!(out.contains("7.65x — met"), "got:\n{out}");
        // the same seed replays identically
        let again = run_strs(&["sim", "batched", "--seed", "1"]).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn sim_framed_replays_through_the_wire() {
        let out = replay("sim-framed", &["framed", "--arrivals", "8", "--docs", "3"]);
        assert!(out.contains("framed overload scenario (seed 1): 8 arrivals"));
        assert!(out.contains("wire: frames "), "got:\n{out}");
        assert!(out.contains("request_digest="));
        assert!(run_strs(&["sim", "framed", "--dir", "x"]).is_err());
    }

    #[test]
    fn sim_shard_gathers_what_the_oracle_scans() {
        let dir = tmpdir("sim-shard-store");
        let store = dir.to_str().unwrap();
        let out = replay(
            "sim-shard",
            &["shard", "--docs", "2000", "--shards", "2", "--dir", store],
        );
        assert!(out.contains("shard: seed=1 docs=2000 shards=2"));
        assert!(out.contains("oracle_verified=true"), "got:\n{out}");
        // the store stays behind for store-stats
        let stats = run_strs(&[
            "store-stats",
            "--dir",
            dir.join("shard-0").to_str().unwrap(),
        ]);
        assert!(stats.unwrap().contains("indexed:  1000 doc(s)"));
        assert!(run_strs(&["sim", "shard", "--faulted"]).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sim_hydrate_matches_its_in_memory_twin() {
        let dir = tmpdir("sim-hydrate-store");
        let store = dir.join("store");
        let out = replay(
            "sim-hydrate",
            &[
                "hydrate",
                "--docs",
                "8",
                "--queries",
                "2",
                "--faulted",
                "--dir",
                store.to_str().unwrap(),
            ],
        );
        assert!(out.contains("hydrate: seed=1 docs=8 queries=2"));
        assert!(out.contains("oracle_verified=true"), "got:\n{out}");
        assert!(!store.exists(), "hydrate removes its store");
        assert!(run_strs(&["sim", "hydrate", "--full"]).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sim_chaos_net_survives_its_fault_plan() {
        let dir = tmpdir("sim-chaos-net-store");
        let store = dir.join("store");
        let out = replay(
            "sim-chaos-net",
            &[
                "chaos-net",
                "--docs",
                "6",
                "--crash-workloads",
                "1",
                "--crash-points",
                "4",
                "--dir",
                store.to_str().unwrap(),
            ],
        );
        assert!(
            out.contains("oracle_verified=true framed_verified=true"),
            "got:\n{out}"
        );
        assert!(out.contains("acked_lost=0"));
        assert!(out.contains("cloud.replica.failovers"));
        assert!(!store.exists(), "chaos-net removes its store");
        assert!(run_strs(&["sim", "chaos-net", "--arrivals", "4"]).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }
}
