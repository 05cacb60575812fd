//! Regenerates every table and figure of the paper's evaluation (§VII) as
//! text, side by side with the paper's reported numbers.
//!
//! ```text
//! cargo run --release -p apks-bench --bin report                 # fast curve, first 4 n values
//! APKS_GRID=8 APKS_FULL_PARAMS=1 cargo run --release -p apks-bench --bin report
//! ```
//!
//! Sections: Fig. 8(a) setup, Fig. 8(b) encryption, Fig. 8(c) capability
//! generation/delegation, Fig. 8(d) search, Table III projection, the
//! §VII size accounting, and the MRQED^D comparison.

use apks_bench::{
    bench_params, fmt_duration, paper, time_mean, time_once, BenchSystem, PAPER_N_GRID,
};
use apks_core::Query;
use apks_curve::{pairing, pairing_prepared, PreparedG1};
use apks_dataset::nursery::NURSERY_ROWS;
use apks_math::Fr;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn main() {
    let params = bench_params();
    // CI runs just the telemetry section to produce the snapshot
    // artifact without paying for the full evaluation grid.
    if std::env::var("APKS_METRICS_ONLY").as_deref() == Ok("1") {
        metrics_section(&params);
        overload_section();
        wave_section();
        hydrate_section(&params);
        return;
    }
    let grid_len: usize = std::env::var("APKS_GRID")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
        .min(PAPER_N_GRID.len());
    let grid = &PAPER_N_GRID[..grid_len];
    println!("# APKS evaluation report");
    println!();
    println!(
        "curve: `{}` (paper: 512-bit type A, 160-bit q, Pentium D 3.4 GHz + PBC)",
        params.label()
    );
    println!("grid: n ∈ {grid:?}  (paper grid: {PAPER_N_GRID:?})");
    println!();

    let mut setup_times = Vec::new();
    let mut encrypt_times = Vec::new();
    let mut gencap_exponent = Vec::new();
    let mut gencap_worst = Vec::new();
    let mut gencap_sparse = Vec::new();
    let mut delegate_times = Vec::new();
    let mut search_times = Vec::new();
    let mut search_prepared_times = Vec::new();
    let mut prepare_times = Vec::new();
    let mut sizes = Vec::new();

    for (i, &n) in grid.iter().enumerate() {
        let d = (n - 1) / 9;
        eprintln!("[{}/{}] measuring n = {n} (d = {d}) ...", i + 1, grid.len());
        let schema = apks_dataset::nursery_schema(d).unwrap();
        let system = apks_core::ApksSystem::new(params.clone(), schema);
        let mut rng = StdRng::seed_from_u64(1000 + n as u64);
        let (t_setup, _) = time_once(|| system.setup(&mut rng));
        setup_times.push(t_setup);

        let mut sys = BenchSystem::new(params.clone(), d, 2000 + n as u64);
        let t_enc = time_mean(2, || {
            sys.encrypt_one();
        });
        encrypt_times.push(t_enc);

        let qw = sys.worst_case_query();
        let qs = sys.sparse_query(3);
        // exponent-path generation (our optimization; flat in sparsity)
        let t_cap_exp = time_mean(1, || {
            sys.cap_for(&qw);
        });
        gencap_exponent.push(t_cap_exp);
        // point-path generation — the paper's measured implementation,
        // where "don't care" zeros skip whole basis rows (Fig. 8(c))
        let policy = apks_core::QueryPolicy::permissive();
        let t_cap_w = time_mean(1, || {
            sys.system
                .gen_cap_via_points(&sys.pk, &sys.msk, &qw, &policy, &mut sys.rng)
                .unwrap();
        });
        gencap_worst.push(t_cap_w);
        let t_cap_s = time_mean(1, || {
            sys.system
                .gen_cap_via_points(&sys.pk, &sys.msk, &qs, &policy, &mut sys.rng)
                .unwrap();
        });
        gencap_sparse.push(t_cap_s);

        let parent = sys.cap_for(&qw);
        let q2 = Query::new().equals("class", "priority");
        let t_del = time_mean(1, || {
            sys.system
                .delegate_cap(&sys.pk, &parent, &q2, &mut sys.rng)
                .unwrap();
        });
        delegate_times.push(t_del);

        let idx = sys.encrypt_one();
        let cap = sys.cap_for(&qs);
        let t_search = time_mean(5, || {
            sys.system.search(&sys.pk, &cap, &idx).unwrap();
        });
        search_times.push(t_search);

        // the default corpus-scan path: prepare once, evaluate many
        let (t_prepare, prep_cap) = time_once(|| sys.system.prepare_capability(&cap).unwrap());
        prepare_times.push(t_prepare);
        let t_search_prep = time_mean(5, || {
            sys.system
                .search_prepared(&sys.pk, &prep_cap, &idx)
                .unwrap();
        });
        search_prepared_times.push(t_search_prep);

        sizes.push(sys.sizes());
    }

    // ---- Fig 8(a) --------------------------------------------------------
    println!("## Fig. 8(a) — Setup time vs n");
    println!();
    println!("| n | measured | scaling check (t/n₀²) | paper anchor |");
    println!("|---|----------|------------------------|--------------|");
    for (&n, t) in grid.iter().zip(&setup_times) {
        let n0 = (n + 3) as f64;
        let anchor = if n == 46 {
            format!("{:.0} s", paper::SETUP_AT_46)
        } else {
            "—".into()
        };
        println!(
            "| {n} | {} | {:.2} µs | {anchor} |",
            fmt_duration(*t),
            t.as_secs_f64() * 1e6 / (n0 * n0)
        );
    }
    println!();

    // ---- Fig 8(b) --------------------------------------------------------
    println!("## Fig. 8(b) — per-index encryption time vs n");
    println!();
    println!("| n | measured | scaling check (t/n₀²) | paper anchor |");
    println!("|---|----------|------------------------|--------------|");
    for (&n, t) in grid.iter().zip(&encrypt_times) {
        let n0 = (n + 3) as f64;
        let anchor = if n == 46 {
            format!("{:.0} s", paper::ENCRYPT_AT_46)
        } else {
            "—".into()
        };
        println!(
            "| {n} | {} | {:.2} µs | {anchor} |",
            fmt_duration(*t),
            t.as_secs_f64() * 1e6 / (n0 * n0)
        );
    }
    println!();

    // ---- Fig 8(c) --------------------------------------------------------
    println!("## Fig. 8(c) — capability generation & delegation vs n");
    println!();
    println!("| n | GenCap pt-path (worst case) | GenCap pt-path (don't-care) | GenCap exponent-path | Delegate | paper anchor (delegate) |");
    println!("|---|------------------------------|------------------------------|----------------------|----------|-------------------------|");
    for i in 0..grid.len() {
        let anchor = if grid[i] == 46 {
            format!("{:.0} s", paper::DELEGATE_AT_46)
        } else {
            "—".into()
        };
        println!(
            "| {} | {} | {} | {} | {} | {anchor} |",
            grid[i],
            fmt_duration(gencap_worst[i]),
            fmt_duration(gencap_sparse[i]),
            fmt_duration(gencap_exponent[i]),
            fmt_duration(delegate_times[i]),
        );
    }
    println!();

    // ---- Fig 8(d) --------------------------------------------------------
    println!("## Fig. 8(d) — per-index search time vs n");
    println!();
    println!(
        "| n | plain | prepared | one-time prepare | speed-up | paper (n+3 pairings @ 2.5 ms) |"
    );
    println!(
        "|---|-------|----------|------------------|----------|-------------------------------|"
    );
    for (i, &n) in grid.iter().enumerate() {
        let t = search_times[i];
        let tp = search_prepared_times[i];
        println!(
            "| {n} | {} | {} | {} | {:.2}× | {:.1} ms |",
            fmt_duration(t),
            fmt_duration(tp),
            fmt_duration(prepare_times[i]),
            t.as_secs_f64() / tp.as_secs_f64().max(1e-9),
            (n + 3) as f64 * paper::PAIRING_MS.1,
        );
    }
    // single-pairing modes
    let mut rng = StdRng::seed_from_u64(42);
    let g = params.generator();
    let p = params.mul(&g, Fr::random(&mut rng));
    let q = params.mul(&g, Fr::random(&mut rng));
    let t_raw = time_mean(20, || {
        pairing(&params, &p, &q);
    });
    let prep = PreparedG1::new(&params, &p);
    let t_prep = time_mean(20, || {
        pairing_prepared(&params, &prep, &q);
    });
    println!();
    println!(
        "single pairing: raw {} / preprocessed {}   (paper: {} ms / {} ms)",
        fmt_duration(t_raw),
        fmt_duration(t_prep),
        paper::PAIRING_MS.0,
        paper::PAIRING_MS.1
    );
    println!();

    // ---- Table III --------------------------------------------------------
    println!("## Table III — projected total search time, Nursery ({NURSERY_ROWS} indexes)");
    println!();
    println!("| n | plain projection | prepared projection (incl. one-time prep) | paper (s) | ratio (paper/prepared) |");
    println!("|---|------------------|--------------------------------------------|-----------|------------------------|");
    for (i, &n) in grid.iter().enumerate() {
        let total = search_times[i] * NURSERY_ROWS as u32;
        let total_prep = search_prepared_times[i] * NURSERY_ROWS as u32 + prepare_times[i];
        let idx = PAPER_N_GRID.iter().position(|&g| g == n).unwrap();
        let paper_s = paper::TABLE3_SECONDS[idx];
        println!(
            "| {n} | {} | {} | {paper_s:.0} | {:.0}× |",
            fmt_duration(total),
            fmt_duration(total_prep),
            paper_s / total_prep.as_secs_f64().max(1e-9),
        );
    }
    println!();

    // ---- sizes -------------------------------------------------------------
    println!("## §VII sizes (measured canonical encodings)");
    println!();
    let elem = 8 * apks_math::FP_LIMBS + 1;
    println!("group element: {elem} B compressed (paper: 65 B at 512-bit p)");
    println!();
    println!("| n | PK | ciphertext | capability (level 1) | paper formulas @65B |");
    println!("|---|----|------------|----------------------|---------------------|");
    for (&n, (pk, ct, cap)) in grid.iter().zip(&sizes) {
        let n0 = n + 3;
        let paper_pk = 65 * (n0 * (n0 - 1) + 3);
        let paper_ct = 65 * (n0 + 1);
        let paper_cap = 65 * (n0 * n0 + 4 * n0);
        println!(
            "| {n} | {pk} B | {ct} B | {cap} B | pk {paper_pk}, ct {paper_ct}, cap {paper_cap} |"
        );
    }
    println!();

    // ---- MRQED comparison ---------------------------------------------------
    println!("## MRQED^D comparison");
    println!();
    println!("| n | op | APKS | MRQED^D | paper @46 |");
    println!("|---|----|------|---------|-----------|");
    for (i, &n) in grid.iter().enumerate() {
        let d = (n - 1) / 9;
        let mrqed = apks_mrqed::Mrqed::new(params.clone(), 9, (d + 1) as u32);
        let mut rng = StdRng::seed_from_u64(3000 + n as u64);
        let (t_msetup, (mpk, mmsk)) = time_once(|| mrqed.setup(&mut rng));
        // misaligned ranges: realistic multi-node canonical covers (the
        // paper's ≈5n try-decryption estimate assumes unlabeled
        // components, not the single-root best case)
        let point = vec![1u64; 9];
        let ranges: Vec<(u64, u64)> = (0..9)
            .map(|_| (1, ((1u64 << (d + 1)) - 2).max(1)))
            .collect();
        let t_menc = time_mean(2, || {
            mrqed.encrypt(&mpk, &point, &mut rng);
        });
        let t_mkey = time_mean(2, || {
            mrqed.gen_key(&mmsk, &ranges);
        });
        let ct = mrqed.encrypt(&mpk, &point, &mut rng);
        let key = mrqed.gen_key(&mmsk, &ranges);
        let t_mmatch = time_mean(3, || {
            mrqed.matches(&key, &ct);
        });
        let anchors: [(&str, Duration, Duration, String); 4] = [
            (
                "setup",
                setup_times[i],
                t_msetup,
                format!(
                    "{:.1} s vs {:.1} s",
                    paper::SETUP_AT_46,
                    paper::MRQED_AT_46.0
                ),
            ),
            (
                "encrypt",
                encrypt_times[i],
                t_menc,
                format!(
                    "{:.1} s vs {:.1} s",
                    paper::ENCRYPT_AT_46,
                    paper::MRQED_AT_46.1
                ),
            ),
            (
                "capability",
                gencap_worst[i],
                t_mkey,
                format!(
                    "{:.1} s vs {:.1} s",
                    paper::DELEGATE_AT_46,
                    paper::MRQED_AT_46.2
                ),
            ),
            (
                "search",
                search_times[i],
                t_mmatch,
                format!(
                    "{:.2} s vs {:.2} s",
                    46.0 * 0.0025 + 3.0 * 0.0025,
                    paper::MRQED_SEARCH_AT_46
                ),
            ),
        ];
        for (op, apks_t, mrqed_t, anchor) in anchors {
            println!(
                "| {n} | {op} | {} | {} | {anchor} |",
                fmt_duration(apks_t),
                fmt_duration(mrqed_t),
            );
        }
    }
    println!();
    println!("shape check: APKS loses setup/encrypt/capability, wins search — matching §VII.");

    resilience_section(&params);
    metrics_section(&params);
    overload_section();
    wave_section();
    hydrate_section(&params);
}

/// Fig. 8(d) disk-backed series — per-index search time when the
/// corpus lives in paged segment files instead of memory. The cold
/// pass pays page reads + strict decodes into the decoded-index LRU;
/// the warm pass runs entirely from cache and must stay within 1.2x
/// of the in-memory scan (decoding is off the repeat path — that is
/// the lazy-hydration claim). Writes the hydrate metrics snapshot CI
/// uploads (`APKS_HYDRATE_OUT`, default
/// `hydrate-metrics-snapshot.json`).
fn hydrate_section(params: &std::sync::Arc<apks_curve::CurveParams>) {
    use apks_authz::IbsAuthority;
    use apks_cloud::{CloudServer, HydrateConfig};
    use apks_core::fault::VirtualClock;
    use apks_core::{ApksSystem, FieldValue, QueryPolicy, Record, Schema};
    use apks_store::StoreConfig;
    use apks_telemetry::MetricsRegistry;
    use std::sync::Arc;

    const DOCS: usize = 40;
    println!();
    println!("## Fig. 8(d) disk-backed — per-index search over the paged store ({DOCS} documents)");
    println!();

    let schema = Schema::builder()
        .flat_field("illness", 1)
        .flat_field("sex", 1)
        .build()
        .unwrap();
    let system = ApksSystem::new(params.clone(), schema);
    let mut rng = StdRng::seed_from_u64(6000);
    let (pk, msk) = system.setup(&mut rng);
    let ibs = IbsAuthority::new(params.clone(), &mut rng);
    let illnesses = ["flu", "diabetes", "cancer", "asthma"];
    let indexes: Vec<_> = (0..DOCS)
        .map(|i| {
            let rec = Record::new(vec![
                FieldValue::text(illnesses[i % illnesses.len()]),
                FieldValue::text(if i % 2 == 0 { "female" } else { "male" }),
            ]);
            system.gen_index(&pk, &rec, &mut rng).unwrap()
        })
        .collect();
    let query = Query::parse("illness = \"flu\"").unwrap();
    let cap = system
        .gen_cap(&pk, &msk, &query, &QueryPolicy::permissive(), &mut rng)
        .unwrap();

    let memory = CloudServer::new(system.clone(), pk.clone(), ibs.public_params().clone());
    for idx in &indexes {
        memory.upload(idx.clone());
    }
    let dir = std::env::temp_dir().join(format!("apks-report-hydrate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = Arc::new(MetricsRegistry::new());
    let paged = CloudServer::with_paged_store(
        system.clone(),
        pk.clone(),
        ibs.public_params().clone(),
        metrics.clone(),
        Arc::new(VirtualClock::new()),
        &dir,
        StoreConfig::default(),
        HydrateConfig::default(),
    )
    .expect("fresh store directory opens");
    for idx in &indexes {
        paged.try_upload(idx.clone()).expect("corpus append");
    }

    // warm up code paths once in memory, then measure
    let (expect_hits, _) = memory.scan(&cap).unwrap();
    let t_mem = time_mean(3, || {
        memory.scan(&cap).unwrap();
    });
    let (t_cold, (cold_hits, _)) = time_once(|| paged.scan(&cap).unwrap());
    assert_eq!(cold_hits, expect_hits, "disk-backed scan diverged");
    let t_warm = time_mean(3, || {
        paged.scan(&cap).unwrap();
    });
    let per_doc = |t: Duration| t.as_secs_f64() * 1e6 / DOCS as f64;

    println!("| corpus | total scan | per-index | vs in-memory |");
    println!("|--------|------------|-----------|--------------|");
    for (label, t) in [
        ("in-memory", t_mem),
        ("paged, cold cache", t_cold),
        ("paged, warm cache", t_warm),
    ] {
        println!(
            "| {label} | {} | {:.1} µs | {:.2}x |",
            fmt_duration(t),
            per_doc(t),
            t.as_secs_f64() / t_mem.as_secs_f64().max(1e-9),
        );
    }
    println!();
    let ratio = t_warm.as_secs_f64() / t_mem.as_secs_f64().max(1e-9);
    println!(
        "warm-cache target (per-index <= 1.2x in-memory): {:.2}x — {}",
        ratio,
        if ratio <= 1.2 { "met" } else { "MISSED" },
    );
    let snap = metrics.snapshot();
    println!(
        "hydrate ledger: misses={} hits={} evictions={} (cold pass decodes each index once; warm passes never touch the decoder)",
        snap.counter("cloud.hydrate.misses").unwrap_or(0),
        snap.counter("cloud.hydrate.hits").unwrap_or(0),
        snap.counter("cloud.hydrate.evictions").unwrap_or(0),
    );

    let path = std::env::var("APKS_HYDRATE_OUT")
        .unwrap_or_else(|_| "hydrate-metrics-snapshot.json".into());
    match std::fs::write(&path, snap.to_json()) {
        Ok(()) => println!("hydrate metrics JSON written to {path}"),
        Err(e) => println!("could not write hydrate metrics JSON to {path}: {e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fig. 8(d) batched series — aggregate queries-per-second at wave
/// depth, batched scan vs the per-query prepared path, on the sim's
/// virtual clock (one saturating burst, no deadlines or budgets, so
/// every query completes and the runs answer identically). The batched
/// engine charges each document's service time once per *wave* instead
/// of once per query, so throughput scales with depth until the
/// admission cost floor. Writes the depth-8 batched metrics snapshot CI
/// uploads (`APKS_BATCH_OUT`, default `batched-metrics-snapshot.json`).
fn wave_section() {
    use apks_cloud::WaveConfig;
    use apks_sim::overload::{run_overload, run_overload_batched, OverloadConfig};

    println!();
    println!("## Fig. 8(d) batched — aggregate QPS vs wave depth (virtual ticks)");
    println!();
    // one burst, everything arrives at tick 0: the unloaded twin with
    // no arrival-gap floor, so throughput is pure scan economics
    let base = OverloadConfig::default();
    let cfg = OverloadConfig {
        burst_size: base.arrivals,
        burst_gap_ticks: 0,
        ..base.unloaded()
    };
    let per_query = run_overload(&cfg).unwrap();
    let qps = |ticks: u64| cfg.arrivals as f64 * 1000.0 / ticks.max(1) as f64;
    let baseline_qps = qps(per_query.virtual_ticks);

    println!("| wave depth | waves | virtual ticks | queries/ktick | speed-up | amortized pairings/query |");
    println!("|------------|-------|---------------|---------------|----------|--------------------------|");
    println!(
        "| per-query | — | {} | {:.1} | 1.00x | {} |",
        per_query.virtual_ticks,
        baseline_qps,
        per_query
            .metrics
            .counter("cloud.scan.pairings")
            .unwrap_or(0)
            / cfg.arrivals as u64,
    );
    let mut at_depth_8 = None;
    for depth in [1usize, 2, 4, 8, 16] {
        // window disabled: waves dispatch full (or at the end drain)
        let wave = WaveConfig::new(depth, u64::MAX);
        let r = run_overload_batched(&cfg, &wave).unwrap();
        for (b, p) in r.requests.iter().zip(&per_query.requests) {
            assert_eq!(
                b.outcome, p.outcome,
                "unbounded batched run must answer exactly as per-query"
            );
        }
        let speedup = per_query.virtual_ticks as f64 / r.virtual_ticks.max(1) as f64;
        let amortized = r
            .metrics
            .histogram("cloud.wave.amortized_pairings_per_query")
            .map(|h| h.sum / h.count.max(1))
            .unwrap_or(0);
        println!(
            "| {depth} | {} | {} | {:.1} | {:.2}x | {} |",
            r.metrics.counter("cloud.wave.scans").unwrap_or(0),
            r.virtual_ticks,
            qps(r.virtual_ticks),
            speedup,
            amortized,
        );
        if depth == 8 {
            at_depth_8 = Some((speedup, r));
        }
    }
    println!();
    let (speedup, r) = at_depth_8.expect("depth 8 is in the series");
    println!(
        "batch >= 8 target (>= 5x aggregate QPS over per-query prepared): {:.2}x — {}",
        speedup,
        if speedup >= 5.0 { "met" } else { "MISSED" },
    );

    let path =
        std::env::var("APKS_BATCH_OUT").unwrap_or_else(|_| "batched-metrics-snapshot.json".into());
    match std::fs::write(&path, r.metrics.to_json()) {
        Ok(()) => println!("batched metrics JSON written to {path}"),
        Err(e) => println!("could not write batched metrics JSON to {path}: {e}"),
    }
}

/// Overload protection under a saturating Zipf burst: the admission
/// controller's shed/brown-out ledger, end-of-run breaker states, and
/// the headline comparison — p99 time-to-shed vs p99 time-to-result on
/// the shared virtual clock. Writes the overload metrics snapshot CI
/// uploads (`APKS_OVERLOAD_OUT`, default
/// `overload-metrics-snapshot.json`).
fn overload_section() {
    use apks_sim::overload::{run_overload, OverloadConfig};

    println!();
    println!("## Overload — saturating burst vs unloaded twin (virtual ticks)");
    println!();
    let loaded = run_overload(&OverloadConfig::default()).unwrap();
    let unloaded = run_overload(&OverloadConfig::default().unloaded()).unwrap();

    println!("| run | admitted | queue-full shed | browned out | displaced | deadline-expired | unscanned docs | p99 time-to-shed | p99 time-to-result |");
    println!("|-----|----------|-----------------|-------------|-----------|------------------|----------------|------------------|--------------------|");
    for (label, r) in [("loaded", &loaded), ("unloaded", &unloaded)] {
        println!(
            "| {label} | {} / {} | {} | {} (max level {}) | {} | {} | {} | {} | {} |",
            r.admitted,
            r.arrivals,
            r.shed_queue_full,
            r.shed_brownout,
            r.max_brownout_level,
            r.displaced,
            r.deadline_expired,
            r.unscanned_docs,
            r.time_to_shed_p99(),
            r.scan_latency_p99(),
        );
    }
    println!();
    let shed_p99 = loaded.time_to_shed_p99().max(1);
    println!(
        "shedding is {}x cheaper than scanning at p99 (shed {} ticks vs scan {} ticks)",
        loaded.scan_latency_p99() / shed_p99,
        loaded.time_to_shed_p99(),
        loaded.scan_latency_p99(),
    );
    println!("end-of-run breaker states:");
    for (id, state) in &loaded.breaker_states {
        println!("  {id}: {state}");
    }

    let path = std::env::var("APKS_OVERLOAD_OUT")
        .unwrap_or_else(|_| "overload-metrics-snapshot.json".into());
    match std::fs::write(&path, loaded.metrics.to_json()) {
        Ok(()) => println!("overload metrics JSON written to {path}"),
        Err(e) => println!("could not write overload metrics JSON to {path}: {e}"),
    }
}

/// Scan telemetry: runs plain and prepared corpus scans over a seeded
/// corpus, prints the server's metrics snapshot, cross-checks the
/// measured pairing counter against the legacy `SearchStats`
/// accounting, and writes the JSON artifact CI uploads
/// (`APKS_METRICS_OUT`, default `metrics-snapshot.json`).
fn metrics_section(params: &std::sync::Arc<apks_curve::CurveParams>) {
    use apks_authz::IbsAuthority;
    use apks_cloud::CloudServer;
    use apks_core::{ApksSystem, FieldValue, QueryPolicy, Record, Schema};

    const DOCS: usize = 40;
    println!();
    println!("## Observability — metrics snapshot ({DOCS} documents)");
    println!();

    let schema = Schema::builder()
        .flat_field("illness", 1)
        .flat_field("sex", 1)
        .build()
        .unwrap();
    let system = ApksSystem::new(params.clone(), schema);
    let mut rng = StdRng::seed_from_u64(5000);
    let (pk, msk) = system.setup(&mut rng);
    let ibs = IbsAuthority::new(params.clone(), &mut rng);
    let server = CloudServer::new(system.clone(), pk.clone(), ibs.public_params().clone());
    let illnesses = ["flu", "diabetes", "cancer", "asthma"];
    for i in 0..DOCS {
        let rec = Record::new(vec![
            FieldValue::text(illnesses[i % illnesses.len()]),
            FieldValue::text(if i % 2 == 0 { "female" } else { "male" }),
        ]);
        server.upload(system.gen_index(&pk, &rec, &mut rng).unwrap());
    }
    let query = Query::parse("illness = \"flu\"").unwrap();
    let cap = system
        .gen_cap(&pk, &msk, &query, &QueryPolicy::permissive(), &mut rng)
        .unwrap();

    // two scans: the registry accumulates across them
    let (_, first) = server.scan(&cap).unwrap();
    let (_, second) = server.scan(&cap).unwrap();
    let snap = server.metrics_snapshot();

    println!("```");
    println!("{}", snap.render());
    println!("```");
    println!();
    let measured = snap.counter("cloud.scan.pairings").unwrap_or(0);
    let legacy = (first.pairings + second.pairings) as u64;
    println!(
        "pairing cross-check: telemetry {measured} vs SearchStats {legacy} — {}",
        if measured == legacy {
            "consistent"
        } else {
            "MISMATCH"
        }
    );

    let path = std::env::var("APKS_METRICS_OUT").unwrap_or_else(|_| "metrics-snapshot.json".into());
    match std::fs::write(&path, snap.to_json()) {
        Ok(()) => println!("metrics JSON written to {path}"),
        Err(e) => println!("could not write metrics JSON to {path}: {e}"),
    }
}

/// Degraded-mode scan under a seeded fault plan vs the fault-free scan
/// over the same corpus: overhead of retries/skips and the accounting
/// the cloud returns instead of silently dropping documents.
fn resilience_section(params: &std::sync::Arc<apks_curve::CurveParams>) {
    use apks_authz::IbsAuthority;
    use apks_cloud::{CloudServer, WaveRequest};
    use apks_core::fault::{FaultConfig, FaultContext, FaultPlan, RetryPolicy, VirtualClock};
    use apks_core::{ApksSystem, Budget, Deadline, FieldValue, QueryPolicy, Record, Schema};

    const DOCS: usize = 40;
    println!();
    println!("## Resilience — degraded scan under a seeded fault plan ({DOCS} documents)");
    println!();

    let schema = Schema::builder()
        .flat_field("illness", 1)
        .flat_field("sex", 1)
        .build()
        .unwrap();
    let system = ApksSystem::new(params.clone(), schema);
    let mut rng = StdRng::seed_from_u64(4000);
    let (pk, msk) = system.setup(&mut rng);
    let ibs = IbsAuthority::new(params.clone(), &mut rng);
    let server = CloudServer::new(system.clone(), pk.clone(), ibs.public_params().clone());
    let illnesses = ["flu", "diabetes", "cancer", "asthma"];
    for i in 0..DOCS {
        let rec = Record::new(vec![
            FieldValue::text(illnesses[i % illnesses.len()]),
            FieldValue::text(if i % 2 == 0 { "female" } else { "male" }),
        ]);
        server.upload(system.gen_index(&pk, &rec, &mut rng).unwrap());
    }
    let query = Query::parse("illness = \"flu\"").unwrap();
    let cap = system
        .gen_cap(&pk, &msk, &query, &QueryPolicy::permissive(), &mut rng)
        .unwrap();

    let (healthy, healthy_stats) = server.scan(&cap).unwrap();

    let plan = FaultPlan::new(FaultConfig {
        seed: 7,
        poisoned_doc_permille: 100,
        flaky_doc_permille: 200,
        slow_doc_permille: 200,
        ..FaultConfig::default()
    });
    let policy = RetryPolicy::default();
    let clock = VirtualClock::default();
    let ctx = FaultContext::new(&plan, &policy, &clock);
    let budget = Budget::unlimited();
    let request = WaveRequest {
        cap: &cap,
        deadline: Deadline::NEVER,
        budget: &budget,
    };
    let degraded = server.scan_wave(&[request], &ctx, 0).unwrap().remove(0);

    println!("| mode | scanned | matched | skipped | retries | scan time |");
    println!("|------|---------|---------|---------|---------|-----------|");
    println!(
        "| fault-free | {} | {} | 0 | 0 | {} |",
        healthy_stats.scanned,
        healthy.len(),
        fmt_duration(Duration::from_micros(healthy_stats.scan_micros)),
    );
    println!(
        "| degraded (poison 10% / flaky 20% / slow 20%) | {} | {} | {} | {} | {} |",
        degraded.stats.scanned,
        degraded.matches.len(),
        degraded.stats.faulted_docs,
        degraded.stats.retries,
        fmt_duration(Duration::from_micros(degraded.stats.scan_micros)),
    );
    println!();
    let subset = degraded.matches.iter().all(|id| healthy.contains(id));
    println!(
        "degraded matches ⊆ fault-free matches: {}; skipped documents reported explicitly: {:?}; virtual ticks charged: {}",
        if subset { "yes" } else { "NO — BUG" },
        degraded.faulted,
        clock.now(),
    );
}
