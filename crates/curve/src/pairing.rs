//! The modified Tate pairing `ê(P, Q) = f_{q,P}(φ(Q))^{(p²−1)/q}`.
//!
//! `φ(x, y) = (−x, i·y)` is the distortion map; because the curve is
//! supersingular with embedding degree 2 and `F_{p²} = F_p[i]`, vertical
//! lines evaluate inside `F_p` and are annihilated by the final
//! exponentiation (*denominator elimination*), so the Miller loop only
//! multiplies in tangent/chord numerators.
//!
//! Two Miller-loop implementations are provided: a slow affine one used as
//! a test oracle, and the production Jacobian one (no inversions). The
//! group order `q = 2^159 + 2^17 + 1` has Hamming weight 3, so the loop is
//! 159 doubling steps and just 2 addition steps.

use crate::params::CurveParams;
use crate::point::G1Affine;
use apks_math::fp::{Fp, FpCtx};
use apks_math::fp2::{Fp2, Fp2Ops};
use apks_math::Fr;

/// The result of a Miller loop before final exponentiation.
///
/// Useful for product-of-pairings: multiply several unreduced values, then
/// call [`final_exponentiation`] once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MillerValue(pub Fp2);

/// Computes the full pairing and wraps it in [`crate::Gt`].
pub fn pairing(params: &CurveParams, p: &G1Affine, q: &G1Affine) -> crate::Gt {
    crate::Gt(pairing_fp2(params, p, q))
}

/// Computes the full pairing as a raw `F_{p²}` element.
pub fn pairing_fp2(params: &CurveParams, p: &G1Affine, q: &G1Affine) -> Fp2 {
    final_exponentiation(params, pairing_unreduced(params, p, q))
}

/// Runs only the Miller loop (no final exponentiation).
pub fn pairing_unreduced(params: &CurveParams, p: &G1Affine, q: &G1Affine) -> MillerValue {
    let fp = params.fp();
    if p.infinity || q.infinity {
        return MillerValue(fp.fp2_one());
    }
    MillerValue(miller_jacobian(fp, p, q))
}

/// Product of pairings `Π ê(Pᵢ, Qᵢ)` with shared Miller squarings and a
/// single final exponentiation.
///
/// This is what makes HPE decryption (= APKS `Search`) cost roughly one
/// Miller loop of work per coordinate plus *one* final exponentiation,
/// instead of `n + 3` independent pairings.
pub fn multi_pairing(params: &CurveParams, pairs: &[(G1Affine, G1Affine)]) -> crate::Gt {
    let fp = params.fp();
    let live: Vec<&(G1Affine, G1Affine)> = pairs
        .iter()
        .filter(|(p, q)| !p.infinity && !q.infinity)
        .collect();
    if live.is_empty() {
        return crate::Gt(fp.fp2_one());
    }

    let mut states: Vec<MillerState> = live.iter().map(|(p, _)| MillerState::new(fp, p)).collect();
    let mut f = fp.fp2_one();
    let order = Fr::modulus();
    let nbits = order.bits();
    for i in (0..nbits - 1).rev() {
        f = fp.fp2_sqr(f);
        for (state, (p, q)) in states.iter_mut().zip(live.iter()) {
            let l = state.double_step(fp, q);
            f = fp.fp2_mul(f, l);
            if order.bit(i) {
                if let Some(l) = state.add_step(fp, p, q) {
                    f = fp.fp2_mul(f, l);
                }
            }
        }
    }
    crate::Gt(final_exponentiation(params, MillerValue(f)))
}

/// Final exponentiation: `f^{(p²−1)/q} = (conj(f)/f)^{h}`-style two-stage
/// computation (`f^{p−1}` via Frobenius, then an `h`-power).
pub fn final_exponentiation(params: &CurveParams, value: MillerValue) -> Fp2 {
    let fp = params.fp();
    let f = value.0;
    if fp.fp2_is_zero(f) {
        // Cannot happen for valid inputs; map to the identity defensively.
        return fp.fp2_one();
    }
    // f^(p-1) = conj(f) * f^{-1}  (Frobenius is conjugation in Fp[i])
    let f_inv = fp.fp2_inv(f).expect("nonzero");
    let g = fp.fp2_mul(fp.fp2_conj(f), f_inv);
    // now raise to h = (p+1)/q
    fp.fp2_pow(g, &params.cofactor().0)
}

/// Mutable state of one Miller loop: the running point `T` in Jacobian
/// coordinates plus the cached `Z²`.
struct MillerState {
    x: Fp,
    y: Fp,
    z: Fp,
}

impl MillerState {
    fn new(fp: &FpCtx, p: &G1Affine) -> Self {
        MillerState {
            x: p.x,
            y: p.y,
            z: fp.one(),
        }
    }

    /// Doubling step: `T ← 2T`, returning the tangent line at `T`
    /// evaluated at `φ(Q)` (up to `F_p` factors).
    fn double_step(&mut self, fp: &FpCtx, q: &G1Affine) -> Fp2 {
        let (x, y, z) = (self.x, self.y, self.z);
        let xx = fp.sqr(x);
        let yy = fp.sqr(y);
        let yyyy = fp.sqr(yy);
        let zz = fp.sqr(z);
        let s = {
            let t = fp.sqr(fp.add(x, yy));
            fp.dbl(fp.sub(fp.sub(t, xx), yyyy))
        };
        let m = fp.add(fp.add(fp.dbl(xx), xx), fp.sqr(zz)); // 3X² + Z⁴ (a = 1)
        let x3 = fp.sub(fp.sqr(m), fp.dbl(s));
        let y3 = fp.sub(fp.mul(m, fp.sub(s, x3)), fp.dbl(fp.dbl(fp.dbl(yyyy))));
        let z3 = fp.sub(fp.sub(fp.sqr(fp.add(y, z)), yy), zz); // 2YZ

        // Tangent at T evaluated at φ(Q) = (−x_Q, i·y_Q), scaled by 2Y·Z⁶:
        //   l = i·y_Q − y_T + λ(x_Q + x_T)  ⇒
        //   c0 = M·X − 2YY + M·ZZ·x_Q,  c1 = Z3·ZZ·y_Q
        let mzz = fp.mul(m, zz);
        let c0 = fp.add(fp.sub(fp.mul(m, x), fp.dbl(yy)), fp.mul(mzz, q.x));
        let c1 = fp.mul(fp.mul(z3, zz), q.y);

        self.x = x3;
        self.y = y3;
        self.z = z3;
        Fp2::new(c0, c1)
    }

    /// Addition step: `T ← T + P`, returning the chord line through `T` and
    /// `P` evaluated at `φ(Q)`, or `None` when the line is vertical
    /// (`T = −P`, the final step of the loop) — vertical lines are
    /// denominator-eliminated.
    fn add_step(&mut self, fp: &FpCtx, p: &G1Affine, q: &G1Affine) -> Option<Fp2> {
        let (x1, y1, z1) = (self.x, self.y, self.z);
        let zz = fp.sqr(z1);
        let u2 = fp.mul(p.x, zz);
        let s2 = fp.mul(fp.mul(p.y, zz), z1);
        let h = fp.sub(u2, x1);
        let rr = fp.dbl(fp.sub(s2, y1));
        if fp.is_zero(h) {
            // T == ±P; for order-q inputs inside the loop this is T == −P
            // (the final vertical). Set T ← O and drop the line.
            self.x = fp.one();
            self.y = fp.one();
            self.z = fp.zero();
            return None;
        }
        let hh = fp.sqr(h);
        let i = fp.dbl(fp.dbl(hh));
        let j = fp.mul(h, i);
        let v = fp.mul(x1, i);
        let x3 = fp.sub(fp.sub(fp.sqr(rr), j), fp.dbl(v));
        let y3 = fp.sub(fp.mul(rr, fp.sub(v, x3)), fp.dbl(fp.mul(y1, j)));
        let z3 = fp.sub(fp.sub(fp.sqr(fp.add(z1, h)), zz), hh); // 2 Z1 H

        // Chord through T and P at φ(Q), scaled by 2Z³:
        //   c0 = Z3·y_P − rr·(x_Q + x_P),  c1 = −Z3·y_Q
        let c0 = fp.sub(fp.mul(z3, p.y), fp.mul(rr, fp.add(q.x, p.x)));
        let c1 = fp.neg(fp.mul(z3, q.y));

        self.x = x3;
        self.y = y3;
        self.z = z3;
        Some(Fp2::new(c0, c1))
    }
}

/// Production Miller loop in Jacobian coordinates.
fn miller_jacobian(fp: &FpCtx, p: &G1Affine, q: &G1Affine) -> Fp2 {
    let mut state = MillerState {
        x: p.x,
        y: p.y,
        z: fp.one(),
    };
    let mut f = fp.fp2_one();
    let order = Fr::modulus();
    let nbits = order.bits();
    for i in (0..nbits - 1).rev() {
        f = fp.fp2_sqr(f);
        let l = state.double_step(fp, q);
        f = fp.fp2_mul(f, l);
        if order.bit(i) {
            if let Some(l) = state.add_step(fp, p, q) {
                f = fp.fp2_mul(f, l);
            }
        }
    }
    f
}

/// Reference Miller loop in affine coordinates (slow; test oracle).
///
/// Exposed `#[doc(hidden)]` so integration tests and benches can compare.
#[doc(hidden)]
pub fn miller_affine_reference(fp: &FpCtx, p: &G1Affine, q: &G1Affine) -> Fp2 {
    let mut tx = p.x;
    let mut ty = p.y;
    let mut t_inf = false;
    let mut f = fp.fp2_one();
    let order = Fr::modulus();
    let nbits = order.bits();

    // line through (x1,y1) with slope λ, evaluated at φ(Q):
    //   c0 = λ(x_Q + x1) − y1, c1 = y_Q
    let line = |fp: &FpCtx, lambda: Fp, x1: Fp, y1: Fp| -> Fp2 {
        let c0 = fp.sub(fp.mul(lambda, fp.add(q.x, x1)), y1);
        Fp2::new(c0, q.y)
    };

    for i in (0..nbits - 1).rev() {
        f = fp.fp2_sqr(f);
        if !t_inf {
            // tangent
            let num = fp.add(fp.add(fp.dbl(fp.sqr(tx)), fp.sqr(tx)), fp.one()); // 3x²+1
            let den = fp.inv(fp.dbl(ty)).expect("y ≠ 0 for order-q points");
            let lambda = fp.mul(num, den);
            f = fp.fp2_mul(f, line(fp, lambda, tx, ty));
            // double T
            let x3 = fp.sub(fp.sqr(lambda), fp.dbl(tx));
            let y3 = fp.sub(fp.mul(lambda, fp.sub(tx, x3)), ty);
            tx = x3;
            ty = y3;
        }
        if order.bit(i) && !t_inf {
            if tx == p.x {
                // vertical: T == −P (or T == P, impossible mid-loop)
                t_inf = true;
            } else {
                let lambda = fp.mul(
                    fp.sub(ty, p.y),
                    fp.inv(fp.sub(tx, p.x)).expect("distinct x"),
                );
                f = fp.fp2_mul(f, line(fp, lambda, tx, ty));
                let x3 = fp.sub(fp.sqr(lambda), fp.add(tx, p.x));
                let y3 = fp.sub(fp.mul(lambda, fp.sub(tx, x3)), ty);
                tx = x3;
                ty = y3;
            }
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use apks_math::Fr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn jacobian_matches_affine_reference() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let mut rng = StdRng::seed_from_u64(80);
        for _ in 0..3 {
            let p = params.mul(&params.generator(), Fr::random(&mut rng));
            let q = params.mul(&params.generator(), Fr::random(&mut rng));
            let fast =
                final_exponentiation(params.as_ref(), pairing_unreduced(params.as_ref(), &p, &q));
            let slow = final_exponentiation(
                params.as_ref(),
                MillerValue(miller_affine_reference(fp, &p, &q)),
            );
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn bilinearity() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(81);
        let g = params.generator();
        let (a, b) = (Fr::random(&mut rng), Fr::random(&mut rng));
        let ga = params.mul(&g, a);
        let gb = params.mul(&g, b);
        let e_ab = pairing_fp2(&params, &ga, &gb);
        let e_gg = pairing_fp2(&params, &g, &g);
        assert_eq!(e_ab, params.gt_pow(&e_gg, a * b));
        // e(aG, G) = e(G, aG) (symmetry)
        assert_eq!(pairing_fp2(&params, &ga, &g), pairing_fp2(&params, &g, &ga));
    }

    #[test]
    fn non_degeneracy() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let g = params.generator();
        let e = pairing_fp2(&params, &g, &g);
        assert_ne!(e, fp.fp2_one(), "pairing must be non-degenerate");
        // e has order q: e^q = 1
        let eq = fp.fp2_pow(e, &Fr::modulus().0);
        assert_eq!(eq, fp.fp2_one());
    }

    #[test]
    fn identity_inputs() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let g = params.generator();
        let id = G1Affine::identity();
        assert_eq!(pairing_fp2(&params, &id, &g), fp.fp2_one());
        assert_eq!(pairing_fp2(&params, &g, &id), fp.fp2_one());
    }

    #[test]
    fn multi_pairing_matches_product() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let mut rng = StdRng::seed_from_u64(82);
        let g = params.generator();
        let pairs: Vec<(G1Affine, G1Affine)> = (0..4)
            .map(|_| {
                (
                    params.mul(&g, Fr::random(&mut rng)),
                    params.mul(&g, Fr::random(&mut rng)),
                )
            })
            .collect();
        let multi = multi_pairing(&params, &pairs);
        let mut product = fp.fp2_one();
        for (p, q) in &pairs {
            product = fp.fp2_mul(product, pairing_fp2(&params, p, q));
        }
        assert_eq!(multi.0, product);
    }

    #[test]
    fn pairing_of_inverse() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let mut rng = StdRng::seed_from_u64(83);
        let g = params.generator();
        let a = Fr::random(&mut rng);
        let ga = params.mul(&g, a);
        let ga_neg = ga.neg(fp);
        let e1 = pairing_fp2(&params, &ga, &g);
        let e2 = pairing_fp2(&params, &ga_neg, &g);
        assert_eq!(fp.fp2_mul(e1, e2), fp.fp2_one());
    }
}
