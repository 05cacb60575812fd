//! Pairing preprocessing — the paper's "with preprocessing" mode.
//!
//! PBC lets callers preprocess the first pairing argument; the paper reports
//! 5.5 ms per raw pairing vs 2.5 ms with preprocessing (§VII-B.4). The same
//! trick here: for a fixed `P`, the Miller loop's point arithmetic depends
//! only on `P`, so we precompute per-step line *coefficients* once. A
//! prepared pairing then only evaluates each stored line at `φ(Q)` (two
//! `F_p` multiplications) and accumulates.
//!
//! Stored line form: `l(Q) = (a + b·x_Q) + i·y_Q` — the imaginary
//! coefficient of an affine tangent/chord line is always 1, so it is
//! not stored and evaluation reads `y_Q` directly.
//!
//! Storage: `q = 2^159 + 2^17 + 1`, so the walk of a point of order `q`
//! has 159 doubling lines and one interior addition line (bit 17); the
//! bit-0 step is the final vertical and stores nothing. Each line is the
//! Montgomery residues of `a` and `b` at the width `w` of `p` (`2·w`
//! limbs: 48 B on fast-192, 128 B on standard-512).
//!
//! Evaluation: every prepared pairing, single or multi, one group or a
//! wave of them, runs through one lockstep Miller kernel on `[u64; W]`
//! values, instantiated at the two widths `p` runs at.

use crate::pairing::{final_exponentiation, MillerValue};
use crate::params::CurveParams;
use crate::point::{batch_invert, G1Affine};
use apks_math::fp::{Fp, FpCtx};
use apks_math::fp2::Fp2;
use apks_math::mont::{MontKernel, NARROW};
use apks_math::{Fr, FP_LIMBS};

/// A first pairing argument with its Miller lines precomputed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreparedG1 {
    /// The walk's lines in order, each as the Montgomery residues of `a`
    /// and then `b` at the width of `p`; empty for the identity.
    lines: Vec<u64>,
}

impl PreparedG1 {
    /// Preprocesses a point: the per-point reference for
    /// [`PreparedG1::new_many`], with one inversion per walk step.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not the identity and not of order `q` (the walk
    /// meets `y = 0` or a vertical line early, or does not end at
    /// `[q − 1]P = −P`).
    pub fn new(params: &CurveParams, p: &G1Affine) -> Self {
        let fp = params.fp();
        if p.infinity {
            return PreparedG1 { lines: Vec::new() };
        }
        let order = Fr::modulus();
        let mut lines = Vec::with_capacity(2 * fp.width() * line_count());

        // Affine walk with per-step inversion: preprocessing is a one-time
        // cost, and affine coefficients are what we must store anyway.
        let mut t = (p.x, p.y);
        for i in (0..order.bits() - 1).rev() {
            // tangent: λ = (3x²+1)/(2y); line c0 = λ(x_Q + x_T) − y_T,
            // so a = λ·x_T − y_T, b = λ.
            let den = fp.inv(fp.dbl(t.1)).expect("y ≠ 0 on the walk");
            let lambda = fp.mul(tangent_numerator(fp, t.0), den);
            t = push_line(fp, &mut lines, lambda, t, t.0);
            if i > 0 && order.bit(i) {
                let den = fp.inv(fp.sub(t.0, p.x)).expect("T ≠ ±P before the end");
                let lambda = fp.mul(fp.sub(t.1, p.y), den);
                t = push_line(fp, &mut lines, lambda, t, p.x);
            }
        }
        assert!(
            ends_at_minus_p(fp, t, p),
            "[q − 1]P = −P for a point of order q"
        );
        PreparedG1 { lines }
    }

    /// Preprocesses several points in one lockstep walk of their Miller
    /// loops. Each walk step needs one slope denominator per point; all
    /// of them share one batched inversion (Montgomery's trick, as
    /// [`crate::point::batch_to_affine`] uses) instead of one inversion
    /// each, which is nearly all of the cost of [`PreparedG1::new`].
    ///
    /// The walk computes `[q − 1]P`, so it doubles as a subgroup check:
    /// its last step is the vertical `T = −P`, and no earlier step meets
    /// `y = 0` or a vertical, exactly when `P ≠ O` has order `q`. `None`
    /// if any point is neither the identity nor of order `q`; otherwise
    /// element `i` equals `PreparedG1::new(params, &points[i])` line for
    /// line.
    pub fn new_many(params: &CurveParams, points: &[G1Affine]) -> Option<Vec<Self>> {
        let fp = params.fp();
        let order = Fr::modulus();
        let capacity = 2 * fp.width() * line_count();
        let mut out: Vec<PreparedG1> = points
            .iter()
            .map(|p| PreparedG1 {
                lines: Vec::with_capacity(if p.infinity { 0 } else { capacity }),
            })
            .collect();
        // the running point T of every non-identity point
        let mut walk: Vec<(usize, (Fp, Fp))> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.infinity)
            .map(|(k, p)| (k, (p.x, p.y)))
            .collect();
        let mut dens = Vec::with_capacity(walk.len());
        for i in (0..order.bits() - 1).rev() {
            // tangent at T: λ = (3x²+1)/(2y), as in `new`
            dens.clear();
            dens.extend(walk.iter().map(|(_, (_, ty))| fp.dbl(*ty)));
            batch_invert(fp, &mut dens)?;
            for ((k, t), den_inv) in walk.iter_mut().zip(&dens) {
                let lambda = fp.mul(tangent_numerator(fp, t.0), *den_inv);
                *t = push_line(fp, &mut out[*k].lines, lambda, *t, t.0);
            }
            if i == 0 || !order.bit(i) {
                continue;
            }
            // chord through T and P: λ = (y_T − y_P)/(x_T − x_P)
            dens.clear();
            dens.extend(walk.iter().map(|(k, (tx, _))| fp.sub(*tx, points[*k].x)));
            batch_invert(fp, &mut dens)?;
            for ((k, t), den_inv) in walk.iter_mut().zip(&dens) {
                let p = &points[*k];
                let lambda = fp.mul(fp.sub(t.1, p.y), *den_inv);
                *t = push_line(fp, &mut out[*k].lines, lambda, *t, p.x);
            }
        }
        walk.iter()
            .all(|(k, t)| ends_at_minus_p(fp, *t, &points[*k]))
            .then_some(out)
    }

    /// True iff the prepared point is the identity.
    pub fn is_infinity(&self) -> bool {
        self.lines.is_empty()
    }

    /// Bytes the stored lines hold on the heap.
    pub fn heap_bytes(&self) -> usize {
        self.lines.capacity() * std::mem::size_of::<u64>()
    }
}

/// Lines the walk of a point of order `q` stores: one per doubling, and
/// one per set bit of `q` strictly between the top bit and bit 0.
fn line_count() -> usize {
    let order = Fr::modulus();
    let top = order.bits() - 1;
    top + (1..top).filter(|&i| order.bit(i)).count()
}

/// `3x² + 1`, the tangent slope's numerator on `y² = x³ + x`.
fn tangent_numerator(fp: &FpCtx, x: Fp) -> Fp {
    let xx = fp.sqr(x);
    fp.add(fp.add(fp.dbl(xx), xx), fp.one())
}

/// Appends the line of slope `λ` through `T = (x_T, y_T)` to `lines`
/// (`a = λ·x_T − y_T`, then `b = λ`, each at the width of `p`), and
/// returns the third intersection's reflection
/// `T' = (λ² − x_T − x_other, λ(x_T − x_T') − y_T)`: the doubling of `T`
/// when `x_other = x_T`, else `T + P` for `x_other = x_P`.
fn push_line(
    fp: &FpCtx,
    lines: &mut Vec<u64>,
    lambda: Fp,
    (tx, ty): (Fp, Fp),
    x_other: Fp,
) -> (Fp, Fp) {
    let a = fp.sub(fp.mul(lambda, tx), ty);
    lines.extend_from_slice(fp.limbs(&a));
    lines.extend_from_slice(fp.limbs(&lambda));
    let x3 = fp.sub(fp.sqr(lambda), fp.add(tx, x_other));
    let y3 = fp.sub(fp.mul(lambda, fp.sub(tx, x3)), ty);
    (x3, y3)
}

/// The subgroup check at the walk's end: `T = [q − 1]P` is `−P`.
fn ends_at_minus_p(fp: &FpCtx, (tx, ty): (Fp, Fp), p: &G1Affine) -> bool {
    tx == p.x && ty == fp.neg(p.y)
}

/// An `F_{p²}` element `c0 + c1·i` as Montgomery residues at width `W`.
type Fp2Limbs<const W: usize> = ([u64; W], [u64; W]);

/// The Miller accumulator of every group of prepared pairs (identity on
/// either side contributes 1), before the final exponentiation: the one
/// kernel behind every prepared pairing, run at the width of `p`.
fn miller_lockstep(params: &CurveParams, groups: &[&[(&PreparedG1, G1Affine)]]) -> Vec<Fp2> {
    let fp = params.fp();
    if let Some(k) = fp.kernel::<NARROW>() {
        miller_lockstep_at(fp, &k, groups)
    } else if let Some(k) = fp.kernel::<FP_LIMBS>() {
        miller_lockstep_at(fp, &k, groups)
    } else {
        unreachable!("p runs at {NARROW} or {FP_LIMBS} limbs")
    }
}

/// [`miller_lockstep`] at width `W`. Every step runs per group: one
/// `F_{p²}` squaring, then for each pair and each of the step's lines
/// `c0 = a + b·x_Q` and a Karatsuba product with `(c0, y_Q)`. The groups
/// share the step loop, so a wave reads each step's lines while they are
/// hot; document points are narrowed once per call.
fn miller_lockstep_at<const W: usize>(
    fp: &FpCtx,
    k: &MontKernel<W>,
    groups: &[&[(&PreparedG1, G1Affine)]],
) -> Vec<Fp2> {
    let narrow = |a: &Fp| -> [u64; W] { fp.limbs(a).try_into().expect("W is the width of p") };
    // per group, each live pair's lines (a at 2l, b at 2l + 1) and φ(Q)'s
    // coordinates
    type Live<'a, const W: usize> = (&'a [[u64; W]], [u64; W], [u64; W]);
    let live: Vec<Vec<Live<'_, W>>> = groups
        .iter()
        .map(|pairs| {
            pairs
                .iter()
                .filter(|(p, q)| !p.is_infinity() && !q.infinity)
                .map(|(p, q)| (p.lines.as_chunks::<W>().0, narrow(&q.x), narrow(&q.y)))
                .collect()
        })
        .collect();
    debug_assert!(live
        .iter()
        .flatten()
        .all(|(lines, _, _)| lines.len() == 2 * line_count()));
    let one: Fp2Limbs<W> = (narrow(&fp.one()), [0; W]);
    let mut acc = vec![one; groups.len()];
    let order = Fr::modulus();
    let mut first = 0; // the step's first line
    for i in (0..order.bits() - 1).rev() {
        let end = first + if i > 0 && order.bit(i) { 2 } else { 1 };
        for (pairs, f) in live.iter().zip(acc.iter_mut()) {
            if pairs.is_empty() {
                continue;
            }
            let mut v = fp2_sqr(k, f);
            for (lines, qx, qy) in pairs {
                for l in first..end {
                    let c0 = k.add(&lines[2 * l], &k.mul(&lines[2 * l + 1], qx));
                    v = fp2_mul(k, &v, &(c0, *qy));
                }
            }
            *f = v;
        }
        first = end;
    }
    let widen = |a: &[u64; W]| fp.from_limbs(a).expect("the kernel keeps residues below p");
    acc.iter()
        .map(|(c0, c1)| Fp2::new(widen(c0), widen(c1)))
        .collect()
}

/// `(a0 + a1·i)² = (a0 + a1)(a0 − a1) + 2·a0·a1·i`, as
/// [`Fp2Ops::fp2_sqr`](apks_math::fp2::Fp2Ops::fp2_sqr) computes it.
#[inline(always)]
fn fp2_sqr<const W: usize>(k: &MontKernel<W>, (a0, a1): &Fp2Limbs<W>) -> Fp2Limbs<W> {
    let c0 = k.mul(&k.add(a0, a1), &k.sub(a0, a1));
    let t = k.mul(a0, a1);
    (c0, k.add(&t, &t))
}

/// Karatsuba `(a0 + a1·i)(b0 + b1·i)`, as
/// [`Fp2Ops::fp2_mul`](apks_math::fp2::Fp2Ops::fp2_mul) computes it.
#[inline(always)]
fn fp2_mul<const W: usize>(
    k: &MontKernel<W>,
    (a0, a1): &Fp2Limbs<W>,
    (b0, b1): &Fp2Limbs<W>,
) -> Fp2Limbs<W> {
    let t0 = k.mul(a0, b0);
    let t1 = k.mul(a1, b1);
    let s = k.mul(&k.add(a0, a1), &k.add(b0, b1));
    (k.sub(&t0, &t1), k.sub(&k.sub(&s, &t0), &t1))
}

/// Pairing with a prepared first argument (unreduced): a wave of one
/// group of one pair.
pub fn pairing_prepared_unreduced(
    params: &CurveParams,
    prep: &PreparedG1,
    q: &G1Affine,
) -> MillerValue {
    MillerValue(miller_lockstep(params, &[&[(prep, *q)]])[0])
}

/// Full pairing with a prepared first argument.
pub fn pairing_prepared(params: &CurveParams, prep: &PreparedG1, q: &G1Affine) -> crate::Gt {
    crate::Gt(final_exponentiation(
        params,
        pairing_prepared_unreduced(params, prep, q),
    ))
}

/// Product of prepared pairings with shared squarings and one final
/// exponentiation: a wave of one group.
pub fn multi_pairing_prepared(
    params: &CurveParams,
    pairs: &[(&PreparedG1, G1Affine)],
) -> crate::Gt {
    let f = miller_lockstep(params, &[pairs])[0];
    crate::Gt(final_exponentiation(params, MillerValue(f)))
}

/// Several prepared multi-pairings evaluated in one lockstep Miller
/// walk: one accumulator and one final exponentiation *per group*, with
/// the step loop shared across groups.
///
/// Each group is a pair list as in [`multi_pairing_prepared`]; the
/// result at index `i` equals `multi_pairing_prepared(params,
/// groups[i])`. The wave scan uses this to evaluate every capability in
/// a batch against one document in a single pass over the loop
/// iterations, keeping all line coefficients for the step hot while
/// each group folds its own product.
pub fn multi_pairing_prepared_many(
    params: &CurveParams,
    groups: &[&[(&PreparedG1, G1Affine)]],
) -> Vec<crate::Gt> {
    miller_lockstep(params, groups)
        .into_iter()
        .map(|f| crate::Gt(final_exponentiation(params, MillerValue(f))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::{miller_affine_reference, multi_pairing, pairing};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn prepared_matches_plain() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(100);
        let g = params.generator();
        for _ in 0..3 {
            let p = params.mul(&g, Fr::random(&mut rng));
            let q = params.mul(&g, Fr::random(&mut rng));
            let prep = PreparedG1::new(&params, &p);
            assert_eq!(
                pairing_prepared(&params, &prep, &q),
                pairing(&params, &p, &q)
            );
        }
    }

    #[test]
    fn prepared_identity() {
        let params = CurveParams::fast();
        let g = params.generator();
        let prep = PreparedG1::new(&params, &G1Affine::identity());
        assert!(prep.is_infinity());
        assert!(pairing_prepared(&params, &prep, &g).is_identity(&params));
    }

    #[test]
    fn multi_prepared_matches_multi() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(101);
        let g = params.generator();
        let pts: Vec<(G1Affine, G1Affine)> = (0..3)
            .map(|_| {
                (
                    params.mul(&g, Fr::random(&mut rng)),
                    params.mul(&g, Fr::random(&mut rng)),
                )
            })
            .collect();
        let preps: Vec<PreparedG1> = pts
            .iter()
            .map(|(p, _)| PreparedG1::new(&params, p))
            .collect();
        let pairs: Vec<(&PreparedG1, G1Affine)> = preps
            .iter()
            .zip(pts.iter())
            .map(|(prep, (_, q))| (prep, *q))
            .collect();
        assert_eq!(
            multi_pairing_prepared(&params, &pairs),
            multi_pairing(&params, &pts)
        );
    }

    #[test]
    fn many_matches_per_group_multi() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(102);
        let g = params.generator();
        // three groups of different sizes, one containing an identity pair
        let mut groups_pts: Vec<Vec<(G1Affine, G1Affine)>> = (1..=3)
            .map(|n| {
                (0..n)
                    .map(|_| {
                        (
                            params.mul(&g, Fr::random(&mut rng)),
                            params.mul(&g, Fr::random(&mut rng)),
                        )
                    })
                    .collect()
            })
            .collect();
        groups_pts[2][1].1 = G1Affine::identity();
        let preps: Vec<Vec<PreparedG1>> = groups_pts
            .iter()
            .map(|pts| {
                pts.iter()
                    .map(|(p, _)| PreparedG1::new(&params, p))
                    .collect()
            })
            .collect();
        let pairs: Vec<Vec<(&PreparedG1, G1Affine)>> = preps
            .iter()
            .zip(&groups_pts)
            .map(|(ps, pts)| {
                ps.iter()
                    .zip(pts)
                    .map(|(prep, (_, q))| (prep, *q))
                    .collect()
            })
            .collect();
        let refs: Vec<&[(&PreparedG1, G1Affine)]> = pairs.iter().map(|g| g.as_slice()).collect();
        let many = multi_pairing_prepared_many(&params, &refs);
        assert_eq!(many.len(), 3);
        for (out, group) in many.iter().zip(&pairs) {
            assert_eq!(*out, multi_pairing_prepared(&params, group));
        }
    }

    #[test]
    fn many_handles_empty_and_all_identity_groups() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(103);
        let g = params.generator();
        let p = params.mul(&g, Fr::random(&mut rng));
        let q = params.mul(&g, Fr::random(&mut rng));
        let prep = PreparedG1::new(&params, &p);
        let prep_inf = PreparedG1::new(&params, &G1Affine::identity());
        let live: Vec<(&PreparedG1, G1Affine)> = vec![(&prep, q)];
        let dead: Vec<(&PreparedG1, G1Affine)> = vec![(&prep_inf, q)];
        let empty: Vec<(&PreparedG1, G1Affine)> = Vec::new();
        let out = multi_pairing_prepared_many(
            &params,
            &[live.as_slice(), dead.as_slice(), empty.as_slice()],
        );
        assert_eq!(out[0], pairing_prepared(&params, &prep, &q));
        assert!(out[1].is_identity(&params));
        assert!(out[2].is_identity(&params));
        assert!(multi_pairing_prepared_many(&params, &[]).is_empty());
    }

    /// The order-4 point `(±1, y)`: `x = 1` when 2 is a square mod `p`,
    /// else `x = p − 1`. It decodes, and doubles to `(0, 0)`.
    fn order_four_point(params: &CurveParams) -> G1Affine {
        let fp = params.fp();
        [fp.one(), fp.neg(fp.one())]
            .into_iter()
            .find_map(|x| {
                let mut bytes = fp.to_bytes(x);
                bytes.push(2);
                G1Affine::from_bytes(fp, &bytes)
            })
            .expect("x = 1 or x = p − 1 lies on the curve")
    }

    #[test]
    fn lines_are_packed_at_the_width_of_p() {
        assert_eq!(line_count(), 160, "159 doubling lines and the bit-17 line");
        for (params, width) in [(CurveParams::fast(), 3), (CurveParams::standard(), 8)] {
            let fp = params.fp();
            let p = params.mul(&params.generator(), Fr::from_u64(11));
            let prep = PreparedG1::new(&params, &p);
            assert_eq!(fp.width(), width);
            assert_eq!(prep.lines.len(), 2 * width * 160, "{}", params.label());
            // every stored limb group is a residue below p
            assert!(prep
                .lines
                .chunks(width)
                .all(|limbs| fp.from_limbs(limbs).is_some()));
        }
    }

    #[test]
    fn unreduced_matches_affine_reference_on_both_curves() {
        for params in [CurveParams::fast(), CurveParams::standard()] {
            let fp = params.fp();
            let mut rng = StdRng::seed_from_u64(104);
            let g = params.generator();
            let lhs: Vec<G1Affine> = (0..2)
                .map(|_| params.mul(&g, Fr::random_nonzero(&mut rng)))
                .collect();
            let q = params.mul(&g, Fr::random_nonzero(&mut rng));
            let many = PreparedG1::new_many(&params, &lhs).expect("order-q points");
            for (p, prep) in lhs.iter().zip(&many) {
                let want = miller_affine_reference(fp, p, &q);
                assert_eq!(pairing_prepared_unreduced(&params, prep, &q).0, want);
                let per_point = PreparedG1::new(&params, p);
                assert_eq!(pairing_prepared_unreduced(&params, &per_point, &q).0, want);
            }
        }
    }

    #[test]
    fn walk_refuses_points_outside_the_group() {
        let mut rng = StdRng::seed_from_u64(105);
        for params in [CurveParams::fast(), CurveParams::standard()] {
            let fp = params.fp();
            let t4 = order_four_point(&params);
            let two_t4 = t4.to_projective(fp).double(fp).to_affine(fp);
            assert!(
                fp.is_zero(two_t4.x) && fp.is_zero(two_t4.y),
                "2·T₄ = (0, 0)"
            );
            let p = params.mul(&params.generator(), Fr::random_nonzero(&mut rng));
            let order_4q = p.to_projective(fp).add_mixed(fp, &t4).to_affine(fp);
            let id = G1Affine::identity();
            let label = params.label();
            assert!(PreparedG1::new_many(&params, &[t4]).is_none(), "{label}");
            assert!(
                PreparedG1::new_many(&params, &[p, id, t4]).is_none(),
                "{label}"
            );
            assert!(
                PreparedG1::new_many(&params, &[order_4q, p]).is_none(),
                "{label}"
            );
            let ok = PreparedG1::new_many(&params, &[p, id]).expect("O and an order-q point");
            assert_eq!(
                ok,
                [PreparedG1::new(&params, &p), PreparedG1::new(&params, &id)]
            );
            assert_eq!(PreparedG1::new_many(&params, &[]), Some(Vec::new()));
        }
    }

    /// On fast-192, 13 divides both `p + 1` and `q − 2`, so a point `T`
    /// of order 13 has `[q − 1]T = T`: its walk meets no vertical and no
    /// `y = 0`, and ends at `T` rather than `−T`.
    #[test]
    fn walk_refuses_an_order_13_point_that_ends_at_itself() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let (h13, rem) = params.cofactor().div_rem(&apks_math::UintP::from_u64(13));
        assert!(rem.is_zero() && h13.0[1..].iter().all(|&l| l == 0));
        let minus_one = Fr::ZERO - Fr::one();
        // [h/13]·[q]R has order 13 unless it is O
        let t13 = (2u64..)
            .filter_map(|v| {
                let mut bytes = fp.to_bytes(fp.from_u64(v));
                bytes.push(2);
                G1Affine::from_bytes(fp, &bytes)
            })
            .map(|r| {
                let r = r.to_projective(fp);
                let qr = r.mul_scalar(fp, minus_one).add(fp, &r);
                qr.mul_scalar(fp, Fr::from_u64(h13.0[0])).to_affine(fp)
            })
            .find(|t| !t.infinity)
            .expect("E(F_p) has points of order 13");
        let t = t13.to_projective(fp);
        assert_eq!(
            t.mul_scalar(fp, minus_one).to_affine(fp),
            t13,
            "[q − 1]T = T"
        );
        assert_eq!(G1Affine::from_bytes(fp, &t13.to_bytes(fp)), Some(t13));
        assert!(PreparedG1::new_many(&params, &[t13]).is_none());
    }

    #[test]
    #[should_panic(expected = "y ≠ 0")]
    fn per_point_prepare_panics_on_an_order_four_point() {
        let params = CurveParams::fast();
        PreparedG1::new(&params, &order_four_point(&params));
    }

    #[test]
    #[should_panic(expected = "[q − 1]P = −P")]
    fn per_point_prepare_panics_on_an_order_4q_point() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let p = params.generator().to_projective(fp);
        PreparedG1::new(
            &params,
            &p.add_mixed(fp, &order_four_point(&params)).to_affine(fp),
        );
    }

    /// Groups of `(P, Q)` from `seed`, of the given sizes: each side is
    /// the identity with probability 1/5.
    fn random_groups(
        params: &CurveParams,
        seed: u64,
        sizes: &[usize],
    ) -> Vec<Vec<(G1Affine, G1Affine)>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = params.generator();
        let point = |rng: &mut StdRng| {
            if rng.gen_range(0..5) == 0 {
                G1Affine::identity()
            } else {
                params.mul(&g, Fr::random_nonzero(rng))
            }
        };
        sizes
            .iter()
            .map(|&n| (0..n).map(|_| (point(&mut rng), point(&mut rng))).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        // Scalars come straight from the generator, so `a == 0` / `b == 0`
        // exercise the identity branches too.
        #[test]
        fn prop_pairing_prepared_matches_pairing(a in any::<u64>(), b in any::<u64>()) {
            let params = CurveParams::fast();
            let g = params.generator();
            let p = params.mul(&g, Fr::from_u64(a));
            let q = params.mul(&g, Fr::from_u64(b));
            let prep = PreparedG1::new(&params, &p);
            prop_assert_eq!(
                pairing_prepared(&params, &prep, &q),
                pairing(&params, &p, &q)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        // Groups of 0–4 pairs plus one empty group, on both curves: each
        // group's lockstep result is the product of unprepared pairings.
        #[test]
        fn prop_many_matches_product_of_pairings(
            seed in any::<u64>(),
            sizes in proptest::collection::vec(0usize..5, 1..4),
        ) {
            for params in [CurveParams::fast(), CurveParams::standard()] {
                let mut sizes = sizes.clone();
                sizes.push(0);
                let groups = random_groups(&params, seed, &sizes);
                let lhs: Vec<G1Affine> = groups.iter().flatten().map(|(p, _)| *p).collect();
                let preps = PreparedG1::new_many(&params, &lhs).expect("O or order q");
                let mut preps = preps.iter();
                let pairs: Vec<Vec<(&PreparedG1, G1Affine)>> = groups
                    .iter()
                    .map(|g| g.iter().map(|(_, q)| (preps.next().unwrap(), *q)).collect())
                    .collect();
                let refs: Vec<&[(&PreparedG1, G1Affine)]> =
                    pairs.iter().map(|g| g.as_slice()).collect();
                let many = multi_pairing_prepared_many(&params, &refs);
                prop_assert_eq!(many.len(), groups.len());
                for (out, group) in many.iter().zip(&groups) {
                    let product = group.iter().fold(crate::Gt::identity(&params), |acc, (p, q)| {
                        acc.mul(&params, &pairing(&params, p, q))
                    });
                    prop_assert_eq!(*out, product);
                }
            }
        }
    }
}
