//! Curve parameter contexts.
//!
//! A [`CurveParams`] bundles the `F_p` context, the cofactor, the group
//! generator and a fixed-base table for it, mirroring PBC's `pairing_t`.
//! Two cached sets are provided:
//!
//! * [`CurveParams::standard`] — 512-bit `p`, 160-bit `q` (the paper's
//!   80-bit-security type-A configuration),
//! * [`CurveParams::fast`] — 192-bit `p`, same `q`; identical algebra and
//!   the same number of field operations per pairing, but each field
//!   operation runs at 3 limbs instead of 8 (~4× cheaper) and the final
//!   exponentiation is much shorter. Used by unit tests and the benchmark;
//!   fast-192 timings make no claim about standard-512.
//!
//! Both are generated deterministically (fixed RNG seeds) so every build of
//! the workspace agrees on the parameters.

use crate::point::{G1Affine, G1Projective};
use apks_math::fp::{Fp, FpCtx};
use apks_math::fp2::{Fp2, Fp2Ops};
use apks_math::hash::hash_to_fp;
use apks_math::prime::TypeAParams;
use apks_math::{Fr, UintP};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// Width (bits) of each fixed-base window.
const COMB_WINDOW: usize = 4;
/// Number of windows covering a 160-bit scalar.
const COMB_WINDOWS: usize = 160usize.div_ceil(COMB_WINDOW);

/// A full pairing-parameter context.
#[derive(Debug)]
pub struct CurveParams {
    fp: FpCtx,
    type_a: TypeAParams,
    generator: G1Affine,
    gt_generator: OnceLock<Fp2>,
    /// `table[w][j] = [j · 2^{4w}] G` for `j ∈ [0, 16)`.
    comb_table: Vec<[G1Affine; 1 << COMB_WINDOW]>,
    /// Human-readable label ("standard-512", "fast-192").
    label: &'static str,
}

impl CurveParams {
    /// Builds a context from raw type-A parameters.
    pub fn from_type_a(type_a: TypeAParams, label: &'static str) -> Self {
        let fp = FpCtx::new(type_a.p);
        let generator = find_generator(&fp, &type_a.h);
        let comb_table = build_comb_table(&fp, &generator);
        CurveParams {
            fp,
            type_a,
            generator,
            gt_generator: OnceLock::new(),
            comb_table,
            label,
        }
    }

    /// The paper's configuration: 512-bit `p`, 160-bit `q`.
    pub fn standard() -> Arc<CurveParams> {
        static P: OnceLock<Arc<CurveParams>> = OnceLock::new();
        P.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0x41504b53_00000001); // "APKS"|1
            Arc::new(CurveParams::from_type_a(
                TypeAParams::generate(512, &mut rng),
                "standard-512",
            ))
        })
        .clone()
    }

    /// A reduced-size test configuration (192-bit `p`, same 160-bit `q`).
    pub fn fast() -> Arc<CurveParams> {
        static P: OnceLock<Arc<CurveParams>> = OnceLock::new();
        P.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0x41504b53_00000002); // "APKS"|2
            Arc::new(CurveParams::from_type_a(
                TypeAParams::generate(192, &mut rng),
                "fast-192",
            ))
        })
        .clone()
    }

    /// The base-field context.
    pub fn fp(&self) -> &FpCtx {
        &self.fp
    }

    /// The raw type-A parameters (`p`, `q`, `h`).
    pub fn type_a(&self) -> &TypeAParams {
        &self.type_a
    }

    /// The cofactor `h = (p+1)/q`.
    pub fn cofactor(&self) -> &UintP {
        &self.type_a.h
    }

    /// The label of this parameter set.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// The subgroup generator `G`.
    pub fn generator(&self) -> G1Affine {
        self.generator
    }

    /// `g_T = ê(G, G)`, the target-group generator.
    pub fn gt_generator(&self) -> Fp2 {
        *self
            .gt_generator
            .get_or_init(|| crate::pairing::pairing_fp2(self, &self.generator, &self.generator))
    }

    /// Scalar multiplication of an arbitrary point.
    pub fn mul(&self, p: &G1Affine, k: Fr) -> G1Affine {
        p.to_projective(&self.fp)
            .mul_scalar(&self.fp, k)
            .to_affine(&self.fp)
    }

    /// Fixed-base multiplication of the generator: `[k] G` via the comb
    /// table (≈ `COMB_WINDOWS` mixed additions, no doublings).
    pub fn mul_generator(&self, k: Fr) -> G1Projective {
        let bits = k.to_uint();
        let mut acc = G1Projective::identity(&self.fp);
        for w in 0..COMB_WINDOWS {
            let bitpos = w * COMB_WINDOW;
            let limb = bitpos / 64;
            let off = bitpos % 64;
            // windows never straddle limbs: 64 % COMB_WINDOW == 0
            let idx = (bits.0[limb] >> off) & ((1 << COMB_WINDOW) - 1);
            if idx != 0 {
                acc = acc.add_mixed(&self.fp, &self.comb_table[w][idx as usize]);
            }
        }
        acc
    }

    /// `F_{p²}` exponentiation of a `G_T` element by a scalar.
    pub fn gt_pow(&self, a: &Fp2, k: Fr) -> Fp2 {
        self.fp.fp2_pow(*a, &k.to_uint().0)
    }

    /// Hashes arbitrary bytes onto the order-`q` subgroup
    /// (try-and-increment, then cofactor clearing).
    pub fn hash_to_point(&self, domain: &str, data: &[u8]) -> G1Affine {
        let fp = &self.fp;
        for counter in 0u32..=255 {
            let mut input = Vec::with_capacity(data.len() + 4);
            input.extend_from_slice(&counter.to_le_bytes());
            input.extend_from_slice(data);
            let x = hash_to_fp(fp, domain, &input);
            let rhs = fp.add(fp.mul(fp.sqr(x), x), x);
            if let Some(y) = fp.sqrt(rhs) {
                let pt = G1Affine::new_unchecked(x, y);
                let cleared = clear_cofactor(fp, &pt, &self.type_a.h);
                if !cleared.is_identity(fp) {
                    return cleared.to_affine(fp);
                }
            }
        }
        unreachable!("hash-to-point failed 256 consecutive times");
    }
}

/// Multiplies by the cofactor `h` to land in the order-`q` subgroup.
fn clear_cofactor(fp: &FpCtx, p: &G1Affine, h: &UintP) -> G1Projective {
    let mut acc = G1Projective::identity(fp);
    let n = h.bits();
    for i in (0..n).rev() {
        acc = acc.double(fp);
        if h.bit(i) {
            acc = acc.add_mixed(fp, p);
        }
    }
    acc
}

/// Finds a deterministic subgroup generator.
fn find_generator(fp: &FpCtx, h: &UintP) -> G1Affine {
    for counter in 0u64.. {
        let x = hash_to_fp(fp, "apks:generator", &counter.to_le_bytes());
        let rhs = fp.add(fp.mul(fp.sqr(x), x), x);
        if let Some(y) = fp.sqrt(rhs) {
            let pt = G1Affine::new_unchecked(x, y);
            let cleared = clear_cofactor(fp, &pt, h);
            if !cleared.is_identity(fp) {
                return cleared.to_affine(fp);
            }
        }
    }
    unreachable!()
}

/// Precomputes `[j · 2^{4w}] G` for all windows and digits.
fn build_comb_table(fp: &FpCtx, g: &G1Affine) -> Vec<[G1Affine; 1 << COMB_WINDOW]> {
    let mut table = Vec::with_capacity(COMB_WINDOWS);
    let mut base = g.to_projective(fp);
    for _ in 0..COMB_WINDOWS {
        let mut row_proj = Vec::with_capacity(1 << COMB_WINDOW);
        row_proj.push(G1Projective::identity(fp));
        for j in 1..(1 << COMB_WINDOW) {
            let prev: G1Projective = row_proj[j - 1];
            row_proj.push(prev.add(fp, &base));
        }
        let affine = crate::point::batch_to_affine(fp, &row_proj);
        let mut row = [G1Affine::identity(); 1 << COMB_WINDOW];
        row.copy_from_slice(&affine);
        table.push(row);
        for _ in 0..COMB_WINDOW {
            base = base.double(fp);
        }
    }
    table
}

/// A sample of arbitrary-looking Fp elements — used by tests that need
/// deterministic non-structured field data.
pub fn sample_fp(params: &CurveParams, tag: u64) -> Fp {
    hash_to_fp(params.fp(), "apks:sample", &tag.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fast_params_consistent() {
        let params = CurveParams::fast();
        let fp = params.fp();
        assert!(params.generator().is_on_curve(fp));
        assert_eq!(params.type_a().p.bits(), 192);
        assert_eq!(params.label(), "fast-192");
    }

    #[test]
    fn mul_generator_matches_generic() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let mut rng = StdRng::seed_from_u64(70);
        for _ in 0..8 {
            let k = Fr::random(&mut rng);
            let fast = params.mul_generator(k).to_affine(fp);
            let slow = params.mul(&params.generator(), k);
            assert_eq!(fast, slow);
        }
        // edge scalars
        assert!(params.mul_generator(Fr::ZERO).is_identity(fp));
        assert_eq!(
            params.mul_generator(Fr::one()).to_affine(fp),
            params.generator()
        );
    }

    #[test]
    fn hash_to_point_on_subgroup() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let p = params.hash_to_point("test", b"alice");
        assert!(p.is_on_curve(fp));
        // [q]P == O
        let minus_one = Fr::ZERO - Fr::one();
        let qp = p
            .to_projective(fp)
            .mul_scalar(fp, minus_one)
            .add_mixed(fp, &p);
        assert!(qp.is_identity(fp));
        // deterministic and domain-separated
        assert_eq!(p, params.hash_to_point("test", b"alice"));
        assert_ne!(p, params.hash_to_point("test2", b"alice"));
    }
}
