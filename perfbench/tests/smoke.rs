//! Smoke-scale runs: every workload is correct, same-seed runs agree on
//! their result digest, traced runs report the whole per-layer
//! catalogue, and `BENCHMARK.json` names every metric the program emits.

use apks_perfbench::catalogue::{Workload, END_TO_END, PER_LAYER};
use apks_perfbench::workloads::Scale;
use apks_perfbench::{run, Report, RunConfig};

fn smoke(workload: Workload, trace: bool) -> Report {
    run(&RunConfig {
        workload,
        seed: 7,
        seconds: 1,
        scale: Scale::Smoke,
        trace,
    })
    .unwrap_or_else(|e| panic!("{} smoke run: {e}", workload.name()))
}

fn names(report: &Report) -> Vec<&'static str> {
    report.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn same_seed_smoke_runs_are_correct_and_identical() {
    for workload in Workload::ALL {
        let a = smoke(workload, false);
        let b = smoke(workload, false);
        for r in [&a, &b] {
            assert!(r.correct(), "{}: {} failed", workload.name(), r.failed);
            assert_eq!(r.fail_ratio(), 0.0);
            assert!(r.attempted > 0);
        }
        assert_eq!(a.digest, b.digest, "{} digest", workload.name());
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names(&a), want, "{} end-to-end metrics", workload.name());
        for m in &a.metrics {
            assert!(
                m.value > 0.0,
                "{} {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_smoke_runs_report_every_per_layer_metric() {
    for workload in Workload::ALL {
        let r = smoke(workload, true);
        assert!(r.correct(), "{}: {} failed", workload.name(), r.failed);
        let mut got = names(&r);
        let mut want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{} per-layer metrics", workload.name());
        let file = r.trace_file.expect("traced runs write spans");
        let spans = std::fs::read_to_string(&file).expect("trace file");
        assert!(
            spans.contains("\"spans\": [{"),
            "{} has spans",
            file.display()
        );
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name,
            m.unit,
            m.better.label()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        if let Some(bound) = m.bound {
            assert!(
                json.contains(&format!("{entry}, \"bound\": {bound}}}")),
                "BENCHMARK.json bound of {} is not {bound}",
                m.name
            );
        }
    }
    for w in Workload::ALL {
        let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why());
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
