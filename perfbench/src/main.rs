//! `perfbench`: seeded end-to-end benchmark of the APKS stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solo-mem|wave-disk|ingest-mix|all> --seed <u64> \
//!     [--seconds <n>] [--trace <0|1>] [--scale <full|smoke>] [--repeat <k>] [--list]
//! ```
//!
//! Standard output carries one detail line per run (metrics with units
//! and sample counts, digest, fingerprint) and, last, one result line
//! holding exactly `correct`, `attempted`, `failed` and `metrics`.
//! Progress and failures go to standard error. Exit status: 0 when every
//! check passed, 1 on a failed check or set-up error, 2 on bad usage.

use apks_perfbench::catalogue::{self, Workload, END_TO_END, PER_LAYER};
use apks_perfbench::workloads::Scale;
use apks_perfbench::{detail_line, result_line, run, stats, Report, RunConfig};
use std::process::ExitCode;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    repeat: u64,
    list: bool,
}

const USAGE: &str = "usage: perfbench --workload <solo-mem|wave-disk|ingest-mix|all> --seed <u64> \
                     [--seconds <n>] [--trace <0|1>] [--scale <full|smoke>] [--repeat <k>] [--list]";

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 12,
        trace: false,
        scale: Scale::Full,
        repeat: 1,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--list" {
            args.list = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(format!("--scale takes full or smoke, not {value}")),
                }
            }
            "--repeat" => args.repeat = number()?.max(1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn list() {
    println!("workloads:");
    for w in Workload::ALL {
        println!("  {:<11} {}", w.name(), w.why());
    }
    for (title, defs) in [
        ("end-to-end metrics", END_TO_END),
        ("per-layer metrics", PER_LAYER),
    ] {
        println!("{title}:");
        for m in defs {
            let bound = m
                .bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
            println!(
                "  {:<30} {:<6} {:<7} bound {:<4} {}",
                m.name,
                m.unit,
                m.better.label(),
                bound,
                m.about
            );
        }
    }
}

/// Per-run values, median and IQR (% of median) of every metric.
fn print_repeat(reports: &[Report]) {
    let Some(first) = reports.first() else {
        return;
    };
    println!(
        "# {}: {} runs, seeds {}..={}",
        first.config.workload.name(),
        reports.len(),
        first.config.seed,
        first.config.seed + reports.len() as u64 - 1
    );
    for m in &first.metrics {
        let values: Vec<f64> = reports.iter().filter_map(|r| r.metric(m.name)).collect();
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "#   {:<30} {:<6} median {:>12.4}  iqr {:>6.2}%  [{}]",
            m.name,
            m.unit,
            stats::median(&values).unwrap_or(f64::NAN),
            stats::iqr_pct(&values).unwrap_or(f64::NAN),
            shown.join(", ")
        );
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        list();
        return ExitCode::SUCCESS;
    }
    let mut all: Vec<Vec<Report>> = Vec::new();
    for &workload in &args.workloads {
        let mut reports = Vec::new();
        for r in 0..args.repeat {
            let config = RunConfig {
                workload,
                seed: args.seed + r,
                seconds: args.seconds,
                scale: args.scale,
                trace: args.trace,
            };
            eprintln!("perfbench: {} seed {} ...", workload.name(), config.seed);
            let report = match run(&config) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("perfbench: {} seed {}: {e}", workload.name(), config.seed);
                    return ExitCode::FAILURE;
                }
            };
            println!("{}", detail_line(&report));
            reports.push(report);
        }
        if args.repeat > 1 {
            print_repeat(&reports);
        }
        all.push(reports);
    }

    // the result line: medians over repeats, workload-prefixed when
    // several workloads ran
    let prefix = all.len() > 1;
    let mut metrics = Vec::new();
    for reports in &all {
        for m in &reports[0].metrics {
            let values: Vec<f64> = reports.iter().filter_map(|r| r.metric(m.name)).collect();
            let name = if prefix {
                format!("{}/{}", reports[0].config.workload.name(), m.name)
            } else {
                m.name.to_string()
            };
            let unit = catalogue::find(m.name).map_or("", |d| d.unit);
            metrics.push((name, stats::median(&values).unwrap_or(f64::NAN), unit));
        }
    }
    let runs = all.iter().flatten();
    let correct = runs.clone().all(Report::correct);
    let attempted = runs.clone().map(|r| r.attempted).sum();
    let failed = runs.map(|r| r.failed).sum();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
