//! Prepared vectors: the pairing form with a fixed left argument.
//!
//! A corpus scan evaluates `e(x, y) = Π e(xᵢ, yᵢ)` once per document with
//! the *same* capability vector `y` every time. The Miller loop's point
//! arithmetic depends only on the first argument, so preparing each
//! coordinate of `y` once ([`apks_curve::PreparedG1`]) turns every
//! subsequent pairing into line *evaluations* only. The underlying
//! pairing is symmetric (`e(P, Q) = e(Q, P)`), so a prepared vector can
//! stand on either side of the form.

use crate::vector::DpvsVector;
use apks_curve::{
    multi_pairing_prepared, multi_pairing_prepared_many, CurveParams, Gt, PreparedG1,
};

/// A [`DpvsVector`] with every coordinate's Miller lines precomputed.
///
/// Preparation walks the Miller loops of all coordinates in lockstep,
/// with one batched field inversion per loop step; each subsequent
/// [`PreparedDpvsVector::pair`] then runs at the paper's "with
/// preprocessing" rate (§VII-B.4). Break-even is after a couple of
/// pairings, so any scan over more than a handful of documents wins.
#[derive(Clone, Debug)]
pub struct PreparedDpvsVector {
    coords: Vec<PreparedG1>,
}

impl PreparedDpvsVector {
    /// Precomputes Miller line coefficients for every coordinate of `v`
    /// ([`PreparedG1::new_many`]: the same lines as a per-coordinate
    /// [`PreparedG1::new`]).
    ///
    /// `None` if a coordinate is neither the identity nor of order `q`:
    /// the walk that computes the lines is the subgroup check.
    pub fn prepare(params: &CurveParams, v: &DpvsVector) -> Option<Self> {
        // preparation spends the Miller loops up front (no pairings yet)
        apks_telemetry::source::record_miller_loops(v.dim() as u64);
        Some(PreparedDpvsVector {
            coords: PreparedG1::new_many(params, &v.0)?,
        })
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// The pairing form `e(self, rhs) = Π e(selfᵢ, rhsᵢ)` as one
    /// prepared multi-pairing (shared squarings, one final
    /// exponentiation).
    ///
    /// Equals [`DpvsVector::pair`] of the unprepared vector with `rhs`
    /// — and, by symmetry of the pairing, `rhs.pair(self)` too: every
    /// prepared coordinate has order `q` or is the identity.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn pair(&self, params: &CurveParams, rhs: &DpvsVector) -> Gt {
        assert_eq!(self.dim(), rhs.dim(), "dimension mismatch");
        // line evaluations only — the Miller loops were counted at prepare
        apks_telemetry::source::record_pairings(self.dim() as u64);
        let pairs: Vec<(&PreparedG1, apks_curve::G1Affine)> = self
            .coords
            .iter()
            .zip(&rhs.0)
            .map(|(prep, q)| (prep, *q))
            .collect();
        multi_pairing_prepared(params, &pairs)
    }

    /// The pairing forms `e(keyⱼ, rhs)` for several prepared vectors
    /// against one right-hand side, in a single lockstep Miller walk
    /// ([`multi_pairing_prepared_many`]): the wave scan's inner step,
    /// loading `rhs`'s coordinates once for the whole batch.
    ///
    /// Result `j` equals `keys[j].pair(params, rhs)`.
    ///
    /// # Panics
    ///
    /// Panics if any key's dimension differs from `rhs`'s.
    pub fn pair_many(
        params: &CurveParams,
        keys: &[&PreparedDpvsVector],
        rhs: &DpvsVector,
    ) -> Vec<Gt> {
        for key in keys {
            assert_eq!(key.dim(), rhs.dim(), "dimension mismatch");
        }
        // each group still folds its own dim-wide product
        apks_telemetry::source::record_pairings(rhs.dim() as u64 * keys.len() as u64);
        let groups: Vec<Vec<(&PreparedG1, apks_curve::G1Affine)>> = keys
            .iter()
            .map(|key| {
                key.coords
                    .iter()
                    .zip(&rhs.0)
                    .map(|(prep, q)| (prep, *q))
                    .collect()
            })
            .collect();
        let refs: Vec<&[(&PreparedG1, apks_curve::G1Affine)]> =
            groups.iter().map(|g| g.as_slice()).collect();
        multi_pairing_prepared_many(params, &refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apks_math::Fr;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_vector(params: &CurveParams, n: usize, rng: &mut StdRng) -> DpvsVector {
        DpvsVector(
            (0..n)
                .map(|_| params.mul(&params.generator(), Fr::random(rng)))
                .collect(),
        )
    }

    #[test]
    fn prepared_pair_matches_plain_pair() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(40);
        for n in [1, 3, 6] {
            let x = random_vector(&params, n, &mut rng);
            let y = random_vector(&params, n, &mut rng);
            let prep = PreparedDpvsVector::prepare(&params, &y).unwrap();
            assert_eq!(prep.dim(), n);
            // symmetric pairing: prepared-y against x == x against y
            assert_eq!(prep.pair(&params, &x), x.pair(&params, &y));
        }
    }

    #[test]
    fn prepared_pair_handles_identity_coordinates() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(41);
        let mut y = random_vector(&params, 4, &mut rng);
        y.0[2] = apks_curve::G1Affine::identity();
        let x = random_vector(&params, 4, &mut rng);
        let prep = PreparedDpvsVector::prepare(&params, &y).unwrap();
        assert_eq!(prep.pair(&params, &x), x.pair(&params, &y));
        // all-identity vector pairs to the identity of G_T
        let zero = DpvsVector::zero(4);
        let prep_zero = PreparedDpvsVector::prepare(&params, &zero).unwrap();
        assert!(prep_zero.pair(&params, &x).is_identity(&params));
    }

    #[test]
    fn lockstep_prepare_equals_per_point_prepare() {
        for params in [CurveParams::fast(), CurveParams::standard()] {
            let mut rng = StdRng::seed_from_u64(45);
            for n in [1, 4, 13] {
                let mut y = random_vector(&params, n, &mut rng);
                if n > 1 {
                    y.0[n / 2] = apks_curve::G1Affine::identity();
                }
                for v in [&y, &DpvsVector::zero(n)] {
                    let per_point: Vec<PreparedG1> =
                        v.0.iter().map(|p| PreparedG1::new(&params, p)).collect();
                    assert_eq!(
                        PreparedDpvsVector::prepare(&params, v).unwrap().coords,
                        per_point,
                        "{} n0={n}",
                        params.label()
                    );
                }
            }
        }
    }

    #[test]
    fn pair_many_matches_individual_pairs() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(43);
        let x = random_vector(&params, 4, &mut rng);
        let keys: Vec<DpvsVector> = (0..3)
            .map(|_| random_vector(&params, 4, &mut rng))
            .collect();
        let preps: Vec<PreparedDpvsVector> = keys
            .iter()
            .map(|y| PreparedDpvsVector::prepare(&params, y).unwrap())
            .collect();
        let refs: Vec<&PreparedDpvsVector> = preps.iter().collect();
        let many = PreparedDpvsVector::pair_many(&params, &refs, &x);
        assert_eq!(many.len(), 3);
        for (out, prep) in many.iter().zip(&preps) {
            assert_eq!(*out, prep.pair(&params, &x));
        }
        assert!(PreparedDpvsVector::pair_many(&params, &[], &x).is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn pair_many_dimension_mismatch_panics() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(44);
        let y = PreparedDpvsVector::prepare(&params, &random_vector(&params, 3, &mut rng)).unwrap();
        let x = random_vector(&params, 4, &mut rng);
        PreparedDpvsVector::pair_many(&params, &[&y], &x);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(42);
        let y = random_vector(&params, 3, &mut rng);
        let x = random_vector(&params, 4, &mut rng);
        PreparedDpvsVector::prepare(&params, &y)
            .unwrap()
            .pair(&params, &x);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn prop_prepared_pair_matches_plain_pair(seed in any::<u64>(), n in 1usize..5) {
            let params = CurveParams::fast();
            let mut rng = StdRng::seed_from_u64(seed);
            let x = random_vector(&params, n, &mut rng);
            let y = random_vector(&params, n, &mut rng);
            let prep = PreparedDpvsVector::prepare(&params, &y).unwrap();
            prop_assert_eq!(prep.pair(&params, &x), x.pair(&params, &y));
        }
    }
}
