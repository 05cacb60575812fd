//! **Table III** — total search time over the Nursery dataset
//! (12,960 indexes).
//!
//! The paper extrapolates per-index search × 12,960 (with pairing
//! preprocessing). This bench measures an actual scan over an encrypted
//! sample and criterion reports the per-scan cost; the `report` binary
//! prints the full projected table next to the paper's numbers.

use apks_bench::{bench_params, BenchSystem};
use apks_cloud::CloudServer;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const SAMPLE: usize = 24;

fn bench_dataset_scan(c: &mut Criterion) {
    let params = bench_params();
    let mut group = c.benchmark_group("table3_nursery_scan");
    group.sample_size(10);
    for d in [1usize, 2] {
        let mut sys = BenchSystem::new(params.clone(), d, 80 + d as u64);
        let n = sys.n();
        let server = CloudServer::new(
            sys.system.clone(),
            sys.pk.clone(),
            apks_authz::IbsAuthority::new(sys.system.params().clone(), &mut sys.rng)
                .public_params()
                .clone(),
        );
        for rec in apks_dataset::nursery::nursery_sample(SAMPLE) {
            server.upload(sys.system.gen_index(&sys.pk, &rec, &mut sys.rng).unwrap());
        }
        let q = sys.sparse_query(3);
        let cap = sys.cap_for(&q);
        group.bench_with_input(
            BenchmarkId::new(format!("scan_{SAMPLE}_rows"), n),
            &n,
            |b, _| {
                b.iter(|| server.scan(&cap).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dataset_scan);
criterion_main!(benches);
