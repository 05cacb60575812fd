//! The elliptic-curve group law on `E : y² = x³ + x` over `F_p`.
//!
//! Points of the order-`q` subgroup are the pairing groups `G₁ = G₂` of the
//! symmetric type-A pairing. Affine points are the wire format; Jacobian
//! projective coordinates (`x = X/Z²`, `y = Y/Z³`) carry all interior
//! arithmetic so that no inversion happens inside scalar multiplication or
//! the Miller loop.

use apks_math::fp::{Fp, FpCtx};
use apks_math::Fr;

/// A point in affine coordinates, or the point at infinity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct G1Affine {
    /// x-coordinate (meaningless when `infinity`).
    pub x: Fp,
    /// y-coordinate (meaningless when `infinity`).
    pub y: Fp,
    /// Marker for the identity element.
    pub infinity: bool,
}

impl G1Affine {
    /// Exact length of the canonical compressed encoding
    /// ([`G1Affine::to_bytes`]): `8·FP_LIMBS` bytes of `x` plus one
    /// flag byte — 65 bytes at 512-bit `p`, the paper's "65B in
    /// compressed form". Every wire-size formula in the workspace is
    /// expressed in this constant.
    pub const ENCODED_LEN: usize = 8 * apks_math::FP_LIMBS + 1;

    /// The identity element.
    pub fn identity() -> Self {
        G1Affine {
            x: Fp::default(),
            y: Fp::default(),
            infinity: true,
        }
    }

    /// Builds an affine point without checking curve membership.
    pub fn new_unchecked(x: Fp, y: Fp) -> Self {
        G1Affine {
            x,
            y,
            infinity: false,
        }
    }

    /// Checks `y² = x³ + x`.
    pub fn is_on_curve(&self, fp: &FpCtx) -> bool {
        if self.infinity {
            return true;
        }
        let y2 = fp.sqr(self.y);
        let x3 = fp.mul(fp.sqr(self.x), self.x);
        y2 == fp.add(x3, self.x)
    }

    /// Negation.
    pub fn neg(&self, fp: &FpCtx) -> Self {
        if self.infinity {
            *self
        } else {
            G1Affine {
                x: self.x,
                y: fp.neg(self.y),
                infinity: false,
            }
        }
    }

    /// Converts into Jacobian coordinates.
    pub fn to_projective(&self, fp: &FpCtx) -> G1Projective {
        if self.infinity {
            G1Projective::identity(fp)
        } else {
            G1Projective {
                x: self.x,
                y: self.y,
                z: fp.one(),
            }
        }
    }

    /// Compressed encoding: `8·FP_LIMBS` bytes of `x` plus one flag byte
    /// (`0` = infinity, else `2 | parity(y)`), i.e. 65 bytes at 512-bit `p`
    /// — matching the paper's "65B in compressed form".
    pub fn to_bytes(&self, fp: &FpCtx) -> Vec<u8> {
        let mut out = fp.to_bytes(self.x);
        if self.infinity {
            out.iter_mut().for_each(|b| *b = 0);
            out.push(0);
        } else {
            out.push(2 | u8::from(fp.parity(self.y)));
        }
        out
    }

    /// Decodes a compressed encoding; `None` if malformed, off-curve, or
    /// the 2-torsion point `(0, 0)`.
    pub fn from_bytes(fp: &FpCtx, bytes: &[u8]) -> Option<Self> {
        let n = 8 * apks_math::FP_LIMBS;
        if bytes.len() != n + 1 {
            return None;
        }
        let flag = bytes[n];
        if flag == 0 {
            if bytes[..n].iter().any(|&b| b != 0) {
                return None;
            }
            return Some(G1Affine::identity());
        }
        if flag & !3 != 0 || flag & 2 == 0 {
            return None;
        }
        let x = fp.from_bytes(&bytes[..n])?;
        let rhs = fp.add(fp.mul(fp.sqr(x), x), x);
        let mut y = fp.sqrt(rhs)?;
        // y = 0 only at (0, 0): −1 is a non-residue (p ≡ 3 mod 4), so
        // x³ + x = x(x² + 1) vanishes only at x = 0. That point has order
        // 2, so it is never in the order-q group, and both flags would
        // decode it alike.
        if fp.is_zero(y) {
            return None;
        }
        if fp.parity(y) != (flag & 1 == 1) {
            y = fp.neg(y);
        }
        Some(G1Affine::new_unchecked(x, y))
    }
}

/// A point in Jacobian projective coordinates.
#[derive(Clone, Copy, Debug)]
pub struct G1Projective {
    /// X coordinate (`x = X/Z²`).
    pub x: Fp,
    /// Y coordinate (`y = Y/Z³`).
    pub y: Fp,
    /// Z coordinate; zero encodes the identity.
    pub z: Fp,
}

impl G1Projective {
    /// The identity element (`Z = 0`).
    pub fn identity(fp: &FpCtx) -> Self {
        G1Projective {
            x: fp.one(),
            y: fp.one(),
            z: fp.zero(),
        }
    }

    /// True iff this is the identity.
    pub fn is_identity(&self, fp: &FpCtx) -> bool {
        fp.is_zero(self.z)
    }

    /// Point doubling (`dbl-2007-bl` with `a = 1`).
    pub fn double(&self, fp: &FpCtx) -> Self {
        if self.is_identity(fp) || fp.is_zero(self.y) {
            return G1Projective::identity(fp);
        }
        let xx = fp.sqr(self.x);
        let yy = fp.sqr(self.y);
        let yyyy = fp.sqr(yy);
        let zz = fp.sqr(self.z);
        // S = 2((X+YY)² − XX − YYYY)
        let s = {
            let t = fp.sqr(fp.add(self.x, yy));
            fp.dbl(fp.sub(fp.sub(t, xx), yyyy))
        };
        // M = 3XX + a·ZZ², a = 1
        let m = fp.add(fp.add(fp.dbl(xx), xx), fp.sqr(zz));
        let x3 = fp.sub(fp.sqr(m), fp.dbl(s));
        let y3 = fp.sub(fp.mul(m, fp.sub(s, x3)), fp.dbl(fp.dbl(fp.dbl(yyyy))));
        // Z3 = (Y+Z)² − YY − ZZ = 2YZ
        let z3 = fp.sub(fp.sub(fp.sqr(fp.add(self.y, self.z)), yy), zz);
        G1Projective {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine point (`madd-2007-bl`).
    pub fn add_mixed(&self, fp: &FpCtx, rhs: &G1Affine) -> Self {
        if rhs.infinity {
            return *self;
        }
        if self.is_identity(fp) {
            return rhs.to_projective(fp);
        }
        let zz = fp.sqr(self.z);
        let u2 = fp.mul(rhs.x, zz);
        let s2 = fp.mul(fp.mul(rhs.y, zz), self.z);
        let h = fp.sub(u2, self.x);
        let rr = fp.dbl(fp.sub(s2, self.y));
        if fp.is_zero(h) {
            if fp.is_zero(rr) {
                return self.double(fp);
            }
            return G1Projective::identity(fp);
        }
        let hh = fp.sqr(h);
        let i = fp.dbl(fp.dbl(hh));
        let j = fp.mul(h, i);
        let v = fp.mul(self.x, i);
        let x3 = fp.sub(fp.sub(fp.sqr(rr), j), fp.dbl(v));
        let y3 = fp.sub(fp.mul(rr, fp.sub(v, x3)), fp.dbl(fp.mul(self.y, j)));
        let z3 = fp.sub(fp.sub(fp.sqr(fp.add(self.z, h)), zz), hh);
        G1Projective {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General projective addition.
    pub fn add(&self, fp: &FpCtx, rhs: &G1Projective) -> Self {
        if rhs.is_identity(fp) {
            return *self;
        }
        if self.is_identity(fp) {
            return *rhs;
        }
        // add-2007-bl
        let z1z1 = fp.sqr(self.z);
        let z2z2 = fp.sqr(rhs.z);
        let u1 = fp.mul(self.x, z2z2);
        let u2 = fp.mul(rhs.x, z1z1);
        let s1 = fp.mul(fp.mul(self.y, rhs.z), z2z2);
        let s2 = fp.mul(fp.mul(rhs.y, self.z), z1z1);
        let h = fp.sub(u2, u1);
        let rr = fp.dbl(fp.sub(s2, s1));
        if fp.is_zero(h) {
            if fp.is_zero(rr) {
                return self.double(fp);
            }
            return G1Projective::identity(fp);
        }
        let i = fp.sqr(fp.dbl(h));
        let j = fp.mul(h, i);
        let v = fp.mul(u1, i);
        let x3 = fp.sub(fp.sub(fp.sqr(rr), j), fp.dbl(v));
        let y3 = fp.sub(fp.mul(rr, fp.sub(v, x3)), fp.dbl(fp.mul(s1, j)));
        let z3 = fp.mul(fp.mul(fp.dbl(self.z), rhs.z), h);
        G1Projective {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Negation.
    pub fn neg(&self, fp: &FpCtx) -> Self {
        G1Projective {
            x: self.x,
            y: fp.neg(self.y),
            z: self.z,
        }
    }

    /// Converts back to affine (one inversion).
    pub fn to_affine(&self, fp: &FpCtx) -> G1Affine {
        if self.is_identity(fp) {
            return G1Affine::identity();
        }
        let zinv = fp.inv(self.z).expect("nonzero z");
        let zinv2 = fp.sqr(zinv);
        let zinv3 = fp.mul(zinv2, zinv);
        G1Affine::new_unchecked(fp.mul(self.x, zinv2), fp.mul(self.y, zinv3))
    }

    /// Scalar multiplication by a scalar in `F_q` (width-4 wNAF).
    ///
    /// Not constant-time; this is a research reproduction, and the paper's
    /// PBC baseline is not constant-time either.
    pub fn mul_scalar(&self, fp: &FpCtx, k: Fr) -> G1Projective {
        if fp.is_zero(self.z) || k.is_zero() {
            return G1Projective::identity(fp);
        }
        let digits = wnaf4(&k.to_uint());
        let table = batch_to_affine(fp, &self.odd_multiples(fp));
        let mut acc = G1Projective::identity(fp);
        for &d in digits.iter().rev() {
            acc = acc.double(fp);
            acc = acc.add_wnaf_digit(fp, d, &table);
        }
        acc
    }

    /// The odd multiples `P, 3P, 5P, 7P` that the width-4 NAF digits
    /// `±1, ±3, ±5, ±7` ([`wnaf4`]) select.
    pub fn odd_multiples(&self, fp: &FpCtx) -> [G1Projective; 4] {
        let two_p = self.double(fp);
        let mut table = [*self; 4];
        for i in 1..4 {
            table[i] = table[i - 1].add(fp, &two_p);
        }
        table
    }

    /// Adds `d·P` for a width-4 NAF digit `d`, given the affine
    /// [odd multiples](G1Projective::odd_multiples) of `P`.
    #[inline]
    pub fn add_wnaf_digit(&self, fp: &FpCtx, d: i8, odd_multiples: &[G1Affine]) -> Self {
        if d == 0 {
            return *self;
        }
        let p = odd_multiples[(d.unsigned_abs() as usize - 1) / 2];
        self.add_mixed(fp, &if d > 0 { p } else { p.neg(fp) })
    }

    /// Plain double-and-add scalar multiplication (reference oracle for
    /// the wNAF path; also used where the scalar is public and tiny).
    pub fn mul_scalar_binary(&self, fp: &FpCtx, k: Fr) -> G1Projective {
        let bits = k.to_uint();
        let n = bits.bits();
        let mut acc = G1Projective::identity(fp);
        if n == 0 || fp.is_zero(self.z) {
            return acc;
        }
        let base = self.to_affine(fp);
        for i in (0..n).rev() {
            acc = acc.double(fp);
            if bits.bit(i) {
                acc = acc.add_mixed(fp, &base);
            }
        }
        acc
    }
}

/// Width-4 non-adjacent form: digits in `{0, ±1, ±3, ±5, ±7}`, least
/// significant first; at most one of any four consecutive digits is
/// nonzero.
pub fn wnaf4(scalar: &apks_math::UintR) -> Vec<i8> {
    let mut k = *scalar;
    let mut out = Vec::with_capacity(k.bits() + 1);
    while !k.is_zero() {
        if k.is_odd() {
            let window = (k.0[0] & 0xf) as i16; // low 4 bits
            let digit = if window >= 8 { window - 16 } else { window };
            out.push(digit as i8);
            if digit > 0 {
                let (d, _) = k.sub_borrow(&apks_math::Uint::from_u64(digit as u64));
                k = d;
            } else {
                let (s, _) = k.add_carry(&apks_math::Uint::from_u64((-digit) as u64));
                k = s;
            }
        } else {
            out.push(0);
        }
        k = k.shr1();
    }
    out
}

/// Batch conversion of Jacobian points to affine with a single inversion
/// (Montgomery's trick, `batch_invert`). The identity maps to the
/// affine identity.
pub fn batch_to_affine(fp: &FpCtx, points: &[G1Projective]) -> Vec<G1Affine> {
    let mut zinvs: Vec<Fp> = points
        .iter()
        .map(|pt| pt.z)
        .filter(|&z| !fp.is_zero(z))
        .collect();
    batch_invert(fp, &mut zinvs).expect("only nonzero z are inverted");
    let mut zinvs = zinvs.into_iter();
    points
        .iter()
        .map(|pt| {
            if fp.is_zero(pt.z) {
                return G1Affine::identity();
            }
            let zinv = zinvs.next().expect("one inverse per finite point");
            let zinv2 = fp.sqr(zinv);
            let zinv3 = fp.mul(zinv2, zinv);
            G1Affine::new_unchecked(fp.mul(pt.x, zinv2), fp.mul(pt.y, zinv3))
        })
        .collect()
}

/// Replaces every element of `values` by its inverse with a single field
/// inversion (Montgomery's trick). `None`, leaving `values` unchanged, if
/// any element is zero.
pub(crate) fn batch_invert(fp: &FpCtx, values: &mut [Fp]) -> Option<()> {
    let mut prefix = Vec::with_capacity(values.len());
    let mut acc = fp.one();
    for &v in values.iter() {
        prefix.push(acc);
        acc = fp.mul(acc, v);
    }
    let mut inv = fp.inv(acc)?;
    for (v, before) in values.iter_mut().zip(prefix).rev() {
        let v_inv = fp.mul(inv, before);
        inv = fp.mul(inv, *v);
        *v = v_inv;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CurveParams;
    use apks_math::Fr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generator_on_curve_and_order_q() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let g = params.generator();
        assert!(g.is_on_curve(fp));
        // [q]G = O
        let gq = g
            .to_projective(fp)
            .mul_scalar(fp, Fr::ZERO - Fr::one())
            .add_mixed(fp, &g);
        assert!(gq.is_identity(fp), "q·G must be the identity");
    }

    #[test]
    fn add_commutes_and_associates() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let mut rng = StdRng::seed_from_u64(60);
        let g = params.generator().to_projective(fp);
        let a = g.mul_scalar(fp, Fr::random(&mut rng));
        let b = g.mul_scalar(fp, Fr::random(&mut rng));
        let c = g.mul_scalar(fp, Fr::random(&mut rng));
        let ab = a.add(fp, &b).to_affine(fp);
        let ba = b.add(fp, &a).to_affine(fp);
        assert_eq!(ab, ba);
        let left = a.add(fp, &b).add(fp, &c).to_affine(fp);
        let right = a.add(fp, &b.add(fp, &c)).to_affine(fp);
        assert_eq!(left, right);
    }

    #[test]
    fn mixed_add_matches_general() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let mut rng = StdRng::seed_from_u64(61);
        let g = params.generator().to_projective(fp);
        let a = g.mul_scalar(fp, Fr::random(&mut rng));
        let b_scalar = Fr::random(&mut rng);
        let b = g.mul_scalar(fp, b_scalar);
        let b_aff = b.to_affine(fp);
        assert_eq!(
            a.add_mixed(fp, &b_aff).to_affine(fp),
            a.add(fp, &b).to_affine(fp)
        );
    }

    #[test]
    fn scalar_mul_distributes() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let mut rng = StdRng::seed_from_u64(62);
        let g = params.generator().to_projective(fp);
        let (a, b) = (Fr::random(&mut rng), Fr::random(&mut rng));
        let lhs = g.mul_scalar(fp, a + b).to_affine(fp);
        let rhs = g
            .mul_scalar(fp, a)
            .add(fp, &g.mul_scalar(fp, b))
            .to_affine(fp);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn wnaf_matches_binary_ladder() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let mut rng = StdRng::seed_from_u64(65);
        let g = params.generator().to_projective(fp);
        for _ in 0..10 {
            let k = Fr::random(&mut rng);
            assert_eq!(
                g.mul_scalar(fp, k).to_affine(fp),
                g.mul_scalar_binary(fp, k).to_affine(fp)
            );
        }
        // edge scalars
        for k in [Fr::ZERO, Fr::one(), Fr::from_u64(7), Fr::ZERO - Fr::one()] {
            assert_eq!(
                g.mul_scalar(fp, k).to_affine(fp),
                g.mul_scalar_binary(fp, k).to_affine(fp)
            );
        }
    }

    #[test]
    fn doubling_degenerate_cases() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let id = G1Projective::identity(fp);
        assert!(id.double(fp).is_identity(fp));
        let g = params.generator();
        // P + (−P) = O
        let p = g.to_projective(fp);
        let sum = p.add_mixed(fp, &g.neg(fp));
        assert!(sum.is_identity(fp));
    }

    #[test]
    fn compression_roundtrip() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let mut rng = StdRng::seed_from_u64(63);
        for _ in 0..5 {
            let p = params
                .generator()
                .to_projective(fp)
                .mul_scalar(fp, Fr::random(&mut rng))
                .to_affine(fp);
            let enc = p.to_bytes(fp);
            assert_eq!(enc.len(), 8 * apks_math::FP_LIMBS + 1);
            let q = G1Affine::from_bytes(fp, &enc).unwrap();
            assert_eq!(p, q);
        }
        let id = G1Affine::identity();
        let enc = id.to_bytes(fp);
        assert_eq!(G1Affine::from_bytes(fp, &enc).unwrap(), id);
    }

    #[test]
    fn invalid_encodings_rejected() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let n = 8 * apks_math::FP_LIMBS;
        // wrong length
        assert!(G1Affine::from_bytes(fp, &vec![0u8; n]).is_none());
        // bad flag bits
        let mut buf = params.generator().to_bytes(fp);
        buf[n] = 0x08;
        assert!(G1Affine::from_bytes(fp, &buf).is_none());
        // non-canonical x (x = p, not reduced)
        let mut buf = params.fp().modulus().to_le_bytes();
        buf.push(2);
        assert!(G1Affine::from_bytes(fp, &buf).is_none());
        // x with non-square x³+x must be rejected: search a small one
        let mut rejected = false;
        for v in 2u64..64 {
            let x = fp.from_u64(v);
            let rhs = fp.add(fp.mul(fp.sqr(x), x), x);
            if fp.sqrt(rhs).is_none() {
                let mut buf = fp.to_bytes(x);
                buf.push(2);
                assert!(G1Affine::from_bytes(fp, &buf).is_none());
                rejected = true;
                break;
            }
        }
        assert!(rejected, "expected to find a non-square x³+x");
        // infinity with nonzero x bytes is malformed
        let mut buf = vec![0u8; n + 1];
        buf[0] = 1;
        buf[n] = 0;
        assert!(G1Affine::from_bytes(fp, &buf).is_none());
    }

    #[test]
    fn two_torsion_encodings_rejected_on_both_curves() {
        for params in [CurveParams::fast(), CurveParams::standard()] {
            let n = 8 * apks_math::FP_LIMBS;
            for flag in [2u8, 3] {
                let mut buf = vec![0u8; n];
                buf.push(flag);
                assert!(
                    G1Affine::from_bytes(params.fp(), &buf).is_none(),
                    "{}: x = 0 with flag {flag} must be refused",
                    params.label()
                );
            }
        }
    }

    #[test]
    fn two_torsion_point_not_in_subgroup_math() {
        // (0,0) is the 2-torsion point on y² = x³ + x; it is on the curve
        // but of order 2, never order q — the subgroup machinery must not
        // produce it.
        let params = CurveParams::fast();
        let fp = params.fp();
        let t = G1Affine::new_unchecked(fp.zero(), fp.zero());
        assert!(t.is_on_curve(fp));
        let doubled = t.to_projective(fp).double(fp);
        assert!(doubled.is_identity(fp), "2-torsion doubles to O");
        assert_ne!(params.generator(), t);
    }

    #[test]
    fn batch_to_affine_matches_individual() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let mut rng = StdRng::seed_from_u64(64);
        let g = params.generator().to_projective(fp);
        let pts: Vec<_> = (0..6)
            .map(|i| {
                if i == 3 {
                    G1Projective::identity(fp)
                } else {
                    g.mul_scalar(fp, Fr::random(&mut rng))
                }
            })
            .collect();
        let batch = batch_to_affine(fp, &pts);
        for (b, p) in batch.iter().zip(&pts) {
            assert_eq!(*b, p.to_affine(fp));
        }
    }
}
