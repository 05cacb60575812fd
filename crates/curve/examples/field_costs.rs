//! Times the costs that the field width sets, on both curves: one `F_p`
//! multiplication, one 13-pair prepared evaluation (the scan's per-index
//! work at n = 10), a wave of four such evaluations against one document
//! (per capability) and one scalar multiplication; and prints the heap
//! bytes of one prepared 13-coordinate capability.
//!
//! ```text
//! cargo run --release -p apks-curve --example field_costs
//! ```
//!
//! Each figure is the median of 15 batches; a batch is timed as a whole
//! and divided by its operation count. The 13-pair row cycles through
//! every pair of 4 capabilities and 8 documents, and the scalar row
//! through 64 scalars: a batch that repeats one input reads much faster
//! than the varied inputs a scan pays for.

use apks_curve::{multi_pairing_prepared_many, CurveParams, G1Affine, PreparedG1};
use apks_math::Fr;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BATCHES: usize = 15;

/// Median over [`BATCHES`] batches of `ops` calls, in nanoseconds per call.
fn median_ns(ops: u32, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..ops {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(ops)
        })
        .collect();
    per_op.sort_by(f64::total_cmp);
    per_op[BATCHES / 2]
}

fn row(params: &Arc<CurveParams>) {
    let fp = params.fp();
    let mut rng = StdRng::seed_from_u64(7);
    let g = params.generator();
    let mut point = || params.mul(&g, Fr::random_nonzero(&mut rng));

    let (mut x, y) = (
        fp.random(&mut StdRng::seed_from_u64(8)),
        fp.random(&mut StdRng::seed_from_u64(9)),
    );
    let fp_mul = median_ns(100_000, || x = fp.mul(black_box(x), y));

    // four capabilities of 13 coordinates, and eight documents
    let caps: Vec<Vec<PreparedG1>> = (0..4)
        .map(|_| {
            let lhs: Vec<G1Affine> = (0..13).map(|_| point()).collect();
            PreparedG1::new_many(params, &lhs).expect("order-q points")
        })
        .collect();
    let docs: Vec<Vec<G1Affine>> = (0..8).map(|_| (0..13).map(|_| point()).collect()).collect();
    // every (document, capability) pair, document-major
    let pairs: Vec<Vec<(&PreparedG1, G1Affine)>> = docs
        .iter()
        .flat_map(|doc| {
            caps.iter()
                .map(|cap| cap.iter().zip(doc.iter().copied()).collect())
        })
        .collect();
    let groups: Vec<&[(&PreparedG1, G1Affine)]> = pairs.iter().map(|g| g.as_slice()).collect();
    let mut turn = 0;
    let eval = median_ns(20, || {
        let single = &groups[turn % groups.len()..][..1];
        turn += 1;
        black_box(multi_pairing_prepared_many(params, black_box(single)));
    });
    // the four capabilities against the first document
    let wave = median_ns(5, || {
        black_box(multi_pairing_prepared_many(params, black_box(&groups[..4])));
    }) / 4.0;
    let cap_bytes: usize = caps[0]
        .iter()
        .map(|p| std::mem::size_of::<PreparedG1>() + p.heap_bytes())
        .sum();

    let base = point();
    let mut scalar_rng = StdRng::seed_from_u64(10);
    let scalars: Vec<Fr> = (0..64)
        .map(|_| Fr::random_nonzero(&mut scalar_rng))
        .collect();
    let mut turn = 0;
    let scalar_mul = median_ns(50, || {
        let k = scalars[turn % scalars.len()];
        turn += 1;
        black_box(params.mul(black_box(&base), k));
    });

    println!(
        "| {} | {:.1} ns | {:.0} µs | {:.0} µs | {:.0} µs | {:.1} KB |",
        params.label(),
        fp_mul,
        eval / 1e3,
        wave / 1e3,
        scalar_mul / 1e3,
        cap_bytes as f64 / 1e3
    );
}

fn main() {
    println!(
        "| curve | `F_p` mul | 13-pair prepared evaluation | 4-capability wave, per capability \
         | scalar multiplication | prepared capability |"
    );
    println!("|---|---|---|---|---|---|");
    row(&CurveParams::fast());
    row(&CurveParams::standard());
}
