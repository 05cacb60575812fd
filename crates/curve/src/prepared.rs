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

use crate::pairing::{final_exponentiation, MillerValue};
use crate::params::CurveParams;
use crate::point::{batch_invert, G1Affine};
use apks_math::fp::{Fp, FpCtx};
use apks_math::fp2::{Fp2, Fp2Ops};
use apks_math::Fr;

/// One precomputed Miller step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// A line with coefficients `(a, b)`; evaluation is
    /// `(a + b·x_Q) + i·y_Q`.
    Line { a: Fp, b: Fp },
    /// A squaring-only step (vertical line dropped at the loop tail).
    Skip,
}

/// A first pairing argument with its Miller lines precomputed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreparedG1 {
    /// `(double-step line, optional add-step line)` per loop iteration.
    steps: Vec<(Step, Option<Step>)>,
    infinity: bool,
}

impl PreparedG1 {
    /// Preprocesses a point.
    pub fn new(params: &CurveParams, p: &G1Affine) -> Self {
        let fp = params.fp();
        if p.infinity {
            return PreparedG1 {
                steps: Vec::new(),
                infinity: true,
            };
        }
        let order = Fr::modulus();
        let nbits = order.bits();
        let mut steps = Vec::with_capacity(nbits - 1);

        // Affine walk with per-step inversion: preprocessing is a one-time
        // cost, and affine coefficients are what we must store anyway.
        let mut tx = p.x;
        let mut ty = p.y;
        let mut t_inf = false;
        for i in (0..nbits - 1).rev() {
            let dbl = if t_inf {
                Step::Skip
            } else {
                // tangent: λ = (3x²+1)/(2y); line c0 = λ(x_Q + x_T) − y_T,
                // so a = λ·x_T − y_T, b = λ.
                let num = fp.add(fp.add(fp.dbl(fp.sqr(tx)), fp.sqr(tx)), fp.one());
                let lambda = fp.mul(num, fp.inv(fp.dbl(ty)).expect("y ≠ 0"));
                let a = fp.sub(fp.mul(lambda, tx), ty);
                let step = Step::Line { a, b: lambda };
                let x3 = fp.sub(fp.sqr(lambda), fp.dbl(tx));
                let y3 = fp.sub(fp.mul(lambda, fp.sub(tx, x3)), ty);
                tx = x3;
                ty = y3;
                step
            };
            let add = if order.bit(i) && !t_inf {
                if tx == p.x {
                    t_inf = true;
                    Some(Step::Skip)
                } else {
                    let lambda = fp.mul(
                        fp.sub(ty, p.y),
                        fp.inv(fp.sub(tx, p.x)).expect("distinct x"),
                    );
                    let a = fp.sub(fp.mul(lambda, tx), ty);
                    let step = Step::Line { a, b: lambda };
                    let x3 = fp.sub(fp.sqr(lambda), fp.add(tx, p.x));
                    let y3 = fp.sub(fp.mul(lambda, fp.sub(tx, x3)), ty);
                    tx = x3;
                    ty = y3;
                    Some(step)
                }
            } else {
                None
            };
            steps.push((dbl, add));
        }
        PreparedG1 {
            steps,
            infinity: false,
        }
    }

    /// Preprocesses several points in one lockstep walk of their Miller
    /// loops. Each walk step needs one slope denominator per point; all
    /// of them share one batched inversion (Montgomery's trick, as
    /// [`crate::point::batch_to_affine`] uses) instead of one inversion
    /// each, which is nearly all of the cost of [`PreparedG1::new`].
    ///
    /// Element `i` equals `PreparedG1::new(params, &points[i])` line for
    /// line.
    pub fn new_many(params: &CurveParams, points: &[G1Affine]) -> Vec<Self> {
        let fp = params.fp();
        let order = Fr::modulus();
        let nbits = order.bits();
        let mut out: Vec<PreparedG1> = points
            .iter()
            .map(|p| PreparedG1 {
                steps: Vec::with_capacity(if p.infinity { 0 } else { nbits - 1 }),
                infinity: p.infinity,
            })
            .collect();
        // the running point T of every non-identity point; `None` once T
        // reaches infinity
        let mut walk: Vec<(usize, Option<(Fp, Fp)>)> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.infinity)
            .map(|(k, p)| (k, Some((p.x, p.y))))
            .collect();
        let mut dens = Vec::with_capacity(walk.len());
        for i in (0..nbits - 1).rev() {
            // tangent at T: λ = (3x²+1)/(2y), as in `new`
            dens.clear();
            dens.extend(walk.iter().flat_map(|(_, t)| t.map(|(_, ty)| fp.dbl(ty))));
            batch_invert(fp, &mut dens).expect("y ≠ 0");
            let mut inv = dens.iter();
            for (k, t) in &mut walk {
                let dbl = match *t {
                    None => Step::Skip,
                    Some((tx, ty)) => {
                        let den_inv = *inv.next().expect("one denominator per live walk");
                        let num = fp.add(fp.add(fp.dbl(fp.sqr(tx)), fp.sqr(tx)), fp.one());
                        let (step, next) = line_step(fp, fp.mul(num, den_inv), (tx, ty), tx);
                        *t = Some(next);
                        step
                    }
                };
                out[*k].steps.push((dbl, None));
            }
            if !order.bit(i) {
                continue;
            }
            // chord through T and P: λ = (y_T − y_P)/(x_T − x_P); T = −P
            // ends the walk
            dens.clear();
            for (k, t) in &mut walk {
                if let Some((tx, _)) = *t {
                    let p = &points[*k];
                    if tx == p.x {
                        *t = None;
                        out[*k].last_step().1 = Some(Step::Skip);
                    } else {
                        dens.push(fp.sub(tx, p.x));
                    }
                }
            }
            batch_invert(fp, &mut dens).expect("distinct x");
            let mut inv = dens.iter();
            for (k, t) in &mut walk {
                let Some((tx, ty)) = *t else { continue };
                let p = &points[*k];
                let den_inv = *inv.next().expect("one denominator per live walk");
                let lambda = fp.mul(fp.sub(ty, p.y), den_inv);
                let (step, next) = line_step(fp, lambda, (tx, ty), p.x);
                *t = Some(next);
                out[*k].last_step().1 = Some(step);
            }
        }
        out
    }

    fn last_step(&mut self) -> &mut (Step, Option<Step>) {
        self.steps.last_mut().expect("a step was pushed")
    }

    /// True iff the prepared point is the identity.
    pub fn is_infinity(&self) -> bool {
        self.infinity
    }

    fn eval_step(fp: &FpCtx, step: &Step, q: &G1Affine, f: Fp2) -> Fp2 {
        match step {
            Step::Skip => f,
            Step::Line { a, b } => {
                let c0 = fp.add(*a, fp.mul(*b, q.x));
                fp.fp2_mul(f, Fp2::new(c0, q.y))
            }
        }
    }
}

/// The line of slope `λ` through `T = (x_T, y_T)`, stored as in
/// [`PreparedG1::new`] (`a = λ·x_T − y_T`, `b = λ`), and the third
/// intersection's reflection `T' = (λ² − x_T − x_other, λ(x_T − x_T') − y_T)`:
/// the doubling of `T` when `x_other = x_T`, else `T + P` for
/// `x_other = x_P`.
fn line_step(fp: &FpCtx, lambda: Fp, (tx, ty): (Fp, Fp), x_other: Fp) -> (Step, (Fp, Fp)) {
    let a = fp.sub(fp.mul(lambda, tx), ty);
    let x3 = fp.sub(fp.sqr(lambda), fp.add(tx, x_other));
    let y3 = fp.sub(fp.mul(lambda, fp.sub(tx, x3)), ty);
    (Step::Line { a, b: lambda }, (x3, y3))
}

/// Pairing with a prepared first argument (unreduced).
pub fn pairing_prepared_unreduced(
    params: &CurveParams,
    prep: &PreparedG1,
    q: &G1Affine,
) -> MillerValue {
    let fp = params.fp();
    if prep.infinity || q.infinity {
        return MillerValue(fp.fp2_one());
    }
    let mut f = fp.fp2_one();
    for (dbl, add) in &prep.steps {
        f = fp.fp2_sqr(f);
        f = PreparedG1::eval_step(fp, dbl, q, f);
        if let Some(add) = add {
            f = PreparedG1::eval_step(fp, add, q, f);
        }
    }
    MillerValue(f)
}

/// Full pairing with a prepared first argument.
pub fn pairing_prepared(params: &CurveParams, prep: &PreparedG1, q: &G1Affine) -> crate::Gt {
    crate::Gt(final_exponentiation(
        params,
        pairing_prepared_unreduced(params, prep, q),
    ))
}

/// Product of prepared pairings with shared squarings and one final
/// exponentiation.
pub fn multi_pairing_prepared(
    params: &CurveParams,
    pairs: &[(&PreparedG1, G1Affine)],
) -> crate::Gt {
    let fp = params.fp();
    let live: Vec<&(&PreparedG1, G1Affine)> = pairs
        .iter()
        .filter(|(p, q)| !p.infinity && !q.infinity)
        .collect();
    if live.is_empty() {
        return crate::Gt(fp.fp2_one());
    }
    let nsteps = live[0].0.steps.len();
    debug_assert!(live.iter().all(|(p, _)| p.steps.len() == nsteps));
    let mut f = fp.fp2_one();
    for s in 0..nsteps {
        f = fp.fp2_sqr(f);
        for (prep, q) in &live {
            let (dbl, add) = &prep.steps[s];
            f = PreparedG1::eval_step(fp, dbl, q, f);
            if let Some(add) = add {
                f = PreparedG1::eval_step(fp, add, q, f);
            }
        }
    }
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
    let fp = params.fp();
    // per-group live pairs (identity on either side contributes 1)
    let live: Vec<Vec<&(&PreparedG1, G1Affine)>> = groups
        .iter()
        .map(|pairs| {
            pairs
                .iter()
                .filter(|(p, q)| !p.infinity && !q.infinity)
                .collect()
        })
        .collect();
    let nsteps = live
        .iter()
        .flat_map(|g| g.first())
        .map(|(p, _)| p.steps.len())
        .next()
        .unwrap_or(0);
    debug_assert!(live
        .iter()
        .all(|g| g.iter().all(|(p, _)| p.steps.len() == nsteps)));
    let mut acc: Vec<Fp2> = vec![fp.fp2_one(); groups.len()];
    for s in 0..nsteps {
        for (g, f) in live.iter().zip(acc.iter_mut()) {
            if g.is_empty() {
                continue;
            }
            let mut v = fp.fp2_sqr(*f);
            for (prep, q) in g {
                let (dbl, add) = &prep.steps[s];
                v = PreparedG1::eval_step(fp, dbl, q, v);
                if let Some(add) = add {
                    v = PreparedG1::eval_step(fp, add, q, v);
                }
            }
            *f = v;
        }
    }
    acc.into_iter()
        .map(|f| crate::Gt(final_exponentiation(params, MillerValue(f))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::{multi_pairing, pairing};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
}
