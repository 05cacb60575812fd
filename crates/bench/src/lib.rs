//! Shared harness for the evaluation reproduction.
//!
//! The paper's experiments (§VII) all run over the Nursery-shaped
//! configuration: `m' = 9` dimensions, per-dimension OR budget `d`, so
//! that `n = 9d + 1 ∈ {10, 19, 28, 37, 46, 55, 64, 73}` for `d = 1..8`.
//! [`BenchSystem`] builds exactly that configuration on either curve and
//! provides the operations each figure measures, plus the paper's
//! reference numbers so the `report` binary can print
//! paper-vs-measured tables.

use apks_core::FieldValue;
use apks_core::{
    ApksMasterKey, ApksPublicKey, ApksSystem, Capability, EncryptedIndex, Query, QueryPolicy,
    Record,
};
use apks_curve::CurveParams;
use apks_dataset::nursery::NURSERY_ATTRIBUTES;
use apks_math::encode::Writer;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's `n` grid (`n = 9d + 1`, `d = 1..8`).
pub const PAPER_N_GRID: [usize; 8] = [10, 19, 28, 37, 46, 55, 64, 73];

/// Paper-reported numbers for §VII (2005-era 3.4 GHz Pentium D, PBC):
/// used only for side-by-side reporting, never for assertions.
pub mod paper {
    /// Table III: projected total Nursery search seconds (with pairing
    /// preprocessing) per `n` in [`super::PAPER_N_GRID`].
    pub const TABLE3_SECONDS: [f64; 8] =
        [424.0, 714.0, 1016.0, 1330.0, 1625.0, 1911.0, 2194.0, 2498.0];
    /// Fig. 8(a) anchor: setup ≈ 40 s at n = 46.
    pub const SETUP_AT_46: f64 = 40.0;
    /// Fig. 8(b) anchor: per-index encryption ≈ 15 s at n = 46.
    pub const ENCRYPT_AT_46: f64 = 15.0;
    /// Fig. 8(c) anchor: first-level delegation ≈ 35 s at n = 46.
    pub const DELEGATE_AT_46: f64 = 35.0;
    /// §VII-B.4: per-pairing cost, raw and preprocessed (ms).
    pub const PAIRING_MS: (f64, f64) = (5.5, 2.5);
    /// MRQED^D estimates at n = 46: setup, encrypt, capability (s).
    pub const MRQED_AT_46: (f64, f64, f64) = (4.6, 2.3, 2.3);
    /// MRQED^D per-index search at n = 46 with preprocessing (s) — "5
    /// times of ours".
    pub const MRQED_SEARCH_AT_46: f64 = 0.59;
}

/// A Nursery-shaped benchmark deployment.
pub struct BenchSystem {
    /// The APKS system (`m' = 9`, per-dimension degree `d`).
    pub system: ApksSystem,
    /// Public key.
    pub pk: ApksPublicKey,
    /// Master key.
    pub msk: ApksMasterKey,
    /// The OR budget `d`.
    pub d: usize,
    /// Deterministic RNG for workload generation.
    pub rng: StdRng,
}

impl BenchSystem {
    /// Builds the `m' = 9`, budget-`d` system (`n = 9d + 1`) and runs
    /// `Setup`.
    pub fn new(params: Arc<CurveParams>, d: usize, seed: u64) -> BenchSystem {
        let schema = apks_dataset::nursery_schema(d).expect("valid schema");
        let system = ApksSystem::new(params, schema);
        let mut rng = StdRng::seed_from_u64(seed);
        let (pk, msk) = system.setup(&mut rng);
        BenchSystem {
            system,
            pk,
            msk,
            d,
            rng,
        }
    }

    /// A random Nursery record.
    pub fn random_record(&mut self) -> Record {
        let mut values: Vec<FieldValue> = NURSERY_ATTRIBUTES
            .iter()
            .map(|(_, vals)| FieldValue::text(vals[self.rng.gen_range(0..vals.len())]))
            .collect();
        values.push(FieldValue::text(
            apks_dataset::nursery::NURSERY_CLASSES[self.rng.gen_range(0..5usize)],
        ));
        Record::new(values)
    }

    /// A worst-case query: every dimension constrained with `d` OR terms
    /// drawn from the keyword universe (no "don't care" dimensions, no
    /// zero coefficients — Fig. 8(c) set 1).
    pub fn worst_case_query(&mut self) -> Query {
        let mut q = Query::new();
        for (name, vals) in NURSERY_ATTRIBUTES {
            let take = self.d.min(vals.len());
            let mut picked: Vec<&str> = Vec::new();
            while picked.len() < take {
                let v = vals[self.rng.gen_range(0..vals.len())];
                if !picked.contains(&v) {
                    picked.push(v);
                }
            }
            // pad with synthetic keywords when d exceeds the universe —
            // the paper draws d keywords per dimension regardless
            let mut owned: Vec<String> = picked.iter().map(|s| s.to_string()).collect();
            for extra in 0..self.d.saturating_sub(take) {
                owned.push(format!("pad-{name}-{extra}"));
            }
            q = q.one_of(name, owned);
        }
        let class_vals = apks_dataset::nursery::NURSERY_CLASSES;
        let take = self.d.min(class_vals.len());
        let mut owned: Vec<String> = class_vals[..take].iter().map(|s| s.to_string()).collect();
        for extra in 0..self.d.saturating_sub(take) {
            owned.push(format!("pad-class-{extra}"));
        }
        q.one_of("class", owned)
    }

    /// A realistic query touching only `dims` of the 9 dimensions
    /// (the rest "don't care" — Fig. 8(c) set 2).
    pub fn sparse_query(&mut self, dims: usize) -> Query {
        let mut q = Query::new();
        for (name, vals) in NURSERY_ATTRIBUTES.iter().take(dims.min(8)) {
            let v = vals[self.rng.gen_range(0..vals.len())];
            q = q.equals(*name, v);
        }
        if dims > 8 {
            q = q.equals("class", "priority");
        }
        q
    }

    /// Encrypts one random record.
    pub fn encrypt_one(&mut self) -> EncryptedIndex {
        let r = self.random_record();
        self.system
            .gen_index(&self.pk, &r, &mut self.rng)
            .expect("record fits schema")
    }

    /// Issues a capability for a query.
    pub fn cap_for(&mut self, q: &Query) -> Capability {
        self.system
            .gen_cap(
                &self.pk,
                &self.msk,
                q,
                &QueryPolicy::permissive(),
                &mut self.rng,
            )
            .expect("query valid")
    }

    /// Encoded sizes (bytes) of the main objects at this `n`:
    /// `(pk, ciphertext, level-1 capability)`.
    pub fn sizes(&mut self) -> (usize, usize, usize) {
        let pk_size = self.pk.hpe.encoded_size();
        let ct = self.encrypt_one();
        let mut w = Writer::new();
        ct.encode(self.system.params(), &mut w);
        let ct_size = w.len();
        let q = self.sparse_query(3);
        let cap = self.cap_for(&q);
        let cap_size = cap.encoded_size();
        (pk_size, ct_size, cap_size)
    }
}

/// Times one closure invocation.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed(), out)
}

/// Times `iters` invocations and returns the mean duration.
pub fn time_mean(iters: usize, mut f: impl FnMut()) -> Duration {
    let t = Instant::now();
    for _ in 0..iters.max(1) {
        f();
    }
    t.elapsed() / iters.max(1) as u32
}

/// Picks the benchmark curve from `APKS_FULL_PARAMS`.
pub fn bench_params() -> Arc<CurveParams> {
    if std::env::var("APKS_FULL_PARAMS").is_ok() {
        CurveParams::standard()
    } else {
        CurveParams::fast()
    }
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_grid_matches_9d_plus_1() {
        for (i, n) in PAPER_N_GRID.iter().enumerate() {
            assert_eq!(*n, 9 * (i + 1) + 1);
        }
    }

    #[test]
    fn bench_system_round_trips() {
        let mut b = BenchSystem::new(CurveParams::fast(), 1, 1);
        assert_eq!(b.system.n(), 10);
        let idx = b.encrypt_one();
        let q = b.sparse_query(3);
        let cap = b.cap_for(&q);
        // deterministic sanity: search executes without error
        let _ = b.system.search(&b.pk, &cap, &idx).unwrap();
    }

    #[test]
    fn worst_case_query_constrains_all_dims() {
        let mut b = BenchSystem::new(CurveParams::fast(), 2, 2);
        let q = b.worst_case_query();
        let conv = q.convert(b.system.schema()).unwrap();
        assert_eq!(conv.dimensions(), 9);
        assert!(conv.terms.iter().all(|t| t.keywords.len() == 2));
    }

    #[test]
    fn sparse_query_leaves_dont_cares() {
        let mut b = BenchSystem::new(CurveParams::fast(), 1, 3);
        let q = b.sparse_query(3);
        let conv = q.convert(b.system.schema()).unwrap();
        assert_eq!(conv.dimensions(), 3);
    }

    #[test]
    fn sizes_are_positive_and_ordered() {
        let mut b = BenchSystem::new(CurveParams::fast(), 1, 4);
        let (pk, ct, cap) = b.sizes();
        assert!(pk > ct);
        assert!(
            cap > ct,
            "capability (n+3 component vectors) dwarfs one ciphertext"
        );
    }
}
