//! Vectors of curve points with the group operations HPE needs.
//!
//! A [`DpvsVector`] is an element of `V = G^{n₀}`: coordinate-wise point
//! addition, scalar multiplication, linear combinations of basis rows
//! (a small multi-scalar multiplication per coordinate), and the pairing
//! form `e(x, y) = Π e(xᵢ, yᵢ)` evaluated as one multi-pairing.

use apks_curve::point::{batch_to_affine, wnaf4};
use apks_curve::{multi_pairing, CurveParams, G1Affine, G1Projective, Gt};
use apks_math::encode::{DecodeError, Reader, Writer};
use apks_math::Fr;

/// An element of the `n₀`-dimensional point vector space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DpvsVector(pub Vec<G1Affine>);

impl DpvsVector {
    /// The zero vector (all identities) of dimension `n`.
    pub fn zero(n: usize) -> Self {
        DpvsVector(vec![G1Affine::identity(); n])
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Coordinate-wise addition.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add(&self, params: &CurveParams, rhs: &DpvsVector) -> DpvsVector {
        assert_eq!(self.dim(), rhs.dim(), "dimension mismatch");
        let fp = params.fp();
        let proj: Vec<G1Projective> = self
            .0
            .iter()
            .zip(&rhs.0)
            .map(|(a, b)| a.to_projective(fp).add_mixed(fp, b))
            .collect();
        DpvsVector(batch_to_affine(fp, &proj))
    }

    /// Scalar multiplication of every coordinate.
    pub fn scale(&self, params: &CurveParams, k: Fr) -> DpvsVector {
        let fp = params.fp();
        let proj: Vec<G1Projective> = self
            .0
            .iter()
            .map(|a| a.to_projective(fp).mul_scalar(fp, k))
            .collect();
        DpvsVector(batch_to_affine(fp, &proj))
    }

    /// Linear combination `Σ coeffs[i] · rows[i]`.
    ///
    /// This is the workhorse of HPE key generation and encryption: each
    /// output coordinate is an MSM of up to `rows.len()` terms. Zero
    /// coefficients are skipped, which is exactly the "don't care"
    /// speed-up the paper measures in Fig. 8(c). The MSM interleaves all
    /// terms of a coordinate into one shared doubling chain (Straus) over
    /// width-4 NAF digits: each scalar's digits are computed once for all
    /// coordinates, the odd multiples `P, 3P, 5P, 7P` of every (term,
    /// coordinate) point are made affine with one shared inversion, and a
    /// term then costs a mixed addition on about one bit in five instead
    /// of one in two. The naive path is kept as
    /// [`DpvsVector::linear_combination_naive`], the reference and the
    /// ablation baseline.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `coeffs` lengths differ, or rows have unequal
    /// dimensions.
    pub fn linear_combination(
        params: &CurveParams,
        rows: &[&DpvsVector],
        coeffs: &[Fr],
    ) -> DpvsVector {
        assert_eq!(rows.len(), coeffs.len(), "rows/coeffs mismatch");
        assert!(!rows.is_empty(), "empty linear combination");
        let n = rows[0].dim();
        assert!(rows.iter().all(|r| r.dim() == n), "ragged rows");
        let fp = params.fp();

        // live terms: skip zero coefficients entirely
        let live: Vec<(usize, Vec<i8>)> = coeffs
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_zero())
            .map(|(i, c)| (i, wnaf4(&c.to_uint())))
            .collect();
        if live.is_empty() {
            return DpvsVector::zero(n);
        }
        let top = live.iter().map(|(_, d)| d.len()).max().unwrap_or(0);
        // the odd multiples of live term t's coordinate j start at
        // 4·(t·n + j)
        let multiples: Vec<G1Projective> = live
            .iter()
            .flat_map(|(i, _)| &rows[*i].0)
            .flat_map(|p| p.to_projective(fp).odd_multiples(fp))
            .collect();
        let table = batch_to_affine(fp, &multiples);

        let acc: Vec<G1Projective> = (0..n)
            .map(|j| {
                let mut a = G1Projective::identity(fp);
                for bit in (0..top).rev() {
                    a = a.double(fp);
                    for (t, (_, digits)) in live.iter().enumerate() {
                        let d = digits.get(bit).copied().unwrap_or(0);
                        let at = 4 * (t * n + j);
                        a = a.add_wnaf_digit(fp, d, &table[at..at + 4]);
                    }
                }
                a
            })
            .collect();
        DpvsVector(batch_to_affine(fp, &acc))
    }

    /// The naive per-term double-and-add linear combination (ablation
    /// baseline for the interleaved MSM).
    ///
    /// # Panics
    ///
    /// As [`DpvsVector::linear_combination`].
    pub fn linear_combination_naive(
        params: &CurveParams,
        rows: &[&DpvsVector],
        coeffs: &[Fr],
    ) -> DpvsVector {
        assert_eq!(rows.len(), coeffs.len(), "rows/coeffs mismatch");
        assert!(!rows.is_empty(), "empty linear combination");
        let n = rows[0].dim();
        assert!(rows.iter().all(|r| r.dim() == n), "ragged rows");
        let fp = params.fp();
        let mut acc = vec![G1Projective::identity(fp); n];
        for (row, &c) in rows.iter().zip(coeffs) {
            if c.is_zero() {
                continue;
            }
            for (j, accj) in acc.iter_mut().enumerate() {
                let term = row.0[j].to_projective(fp).mul_scalar(fp, c);
                *accj = accj.add(fp, &term);
            }
        }
        DpvsVector(batch_to_affine(fp, &acc))
    }

    /// The pairing form `e(x, y) = Π e(xᵢ, yᵢ)`, computed as one
    /// multi-pairing with a single final exponentiation.
    ///
    /// For `x = Σ xᵢ bᵢ` and `y = Σ vⱼ b*ⱼ` this equals `g_T^{x⃗·v⃗}`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn pair(&self, params: &CurveParams, rhs: &DpvsVector) -> Gt {
        assert_eq!(self.dim(), rhs.dim(), "dimension mismatch");
        // plain multi-pairing: one Miller loop per coordinate
        apks_telemetry::source::record_pairings(self.dim() as u64);
        apks_telemetry::source::record_miller_loops(self.dim() as u64);
        let pairs: Vec<(G1Affine, G1Affine)> =
            self.0.iter().zip(&rhs.0).map(|(a, b)| (*a, *b)).collect();
        multi_pairing(params, &pairs)
    }

    /// Canonical encoding: dimension, then compressed points.
    pub fn encode(&self, params: &CurveParams, w: &mut Writer) {
        w.u32(self.dim() as u32);
        for p in &self.0 {
            w.bytes(&p.to_bytes(params.fp()));
        }
    }

    /// Decodes a vector.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or an off-curve point.
    pub fn decode(params: &CurveParams, r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = 8 * apks_math::FP_LIMBS + 1;
        // refuse dimensions that cannot fit the remaining input before
        // the Vec is sized for them
        let n = r.count(len)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let bytes = r.bytes(len)?;
            let p = G1Affine::from_bytes(params.fp(), bytes)
                .ok_or(DecodeError::Invalid("curve point"))?;
            out.push(p);
        }
        Ok(DpvsVector(out))
    }

    /// Encoded size in bytes for a vector of dimension `n`.
    pub fn encoded_size(n: usize) -> usize {
        4 + n * (8 * apks_math::FP_LIMBS + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn add_and_scale() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(10);
        let v = random_vector(&params, 4, &mut rng);
        let two_v = v.scale(&params, Fr::from_u64(2));
        assert_eq!(v.add(&params, &v), two_v);
        let zero = DpvsVector::zero(4);
        assert_eq!(v.add(&params, &zero), v);
    }

    #[test]
    fn linear_combination_matches_manual() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(11);
        let rows: Vec<DpvsVector> = (0..3)
            .map(|_| random_vector(&params, 4, &mut rng))
            .collect();
        let coeffs: Vec<Fr> = (0..3).map(|_| Fr::random(&mut rng)).collect();
        let refs: Vec<&DpvsVector> = rows.iter().collect();
        let combo = DpvsVector::linear_combination(&params, &refs, &coeffs);
        let manual = rows[0]
            .scale(&params, coeffs[0])
            .add(&params, &rows[1].scale(&params, coeffs[1]))
            .add(&params, &rows[2].scale(&params, coeffs[2]));
        assert_eq!(combo, manual);
    }

    #[test]
    fn interleaved_msm_matches_naive() {
        for params in [CurveParams::fast(), CurveParams::standard()] {
            let mut rng = StdRng::seed_from_u64(15);
            let mut rows: Vec<DpvsVector> = (0..5)
                .map(|_| random_vector(&params, 3, &mut rng))
                .collect();
            rows[1].0[2] = G1Affine::identity(); // an identity coordinate
            let refs: Vec<&DpvsVector> = rows.iter().collect();
            let mut coeffs: Vec<Fr> = (0..5).map(|_| Fr::random(&mut rng)).collect();
            coeffs[2] = Fr::ZERO; // exercise the zero-skip path
            coeffs[3] = Fr::one();
            coeffs[4] = Fr::ZERO - Fr::one(); // q − 1: negative digits
            let label = params.label();
            let naive = |refs: &[&DpvsVector], coeffs: &[Fr]| {
                DpvsVector::linear_combination_naive(&params, refs, coeffs)
            };
            assert_eq!(
                DpvsVector::linear_combination(&params, &refs, &coeffs),
                naive(&refs, &coeffs),
                "{label}"
            );
            // a single term, each of the edge coefficients alone
            for c in [coeffs[0], Fr::one(), Fr::ZERO - Fr::one()] {
                assert_eq!(
                    DpvsVector::linear_combination(&params, &refs[1..2], &[c]),
                    naive(&refs[1..2], &[c]),
                    "{label}"
                );
            }
            // all-zero coefficients give the zero vector
            let zeros = vec![Fr::ZERO; 5];
            assert_eq!(
                DpvsVector::linear_combination(&params, &refs, &zeros),
                DpvsVector::zero(3),
                "{label}"
            );
        }
    }

    #[test]
    fn zero_coefficients_skipped() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(12);
        let rows: Vec<DpvsVector> = (0..2)
            .map(|_| random_vector(&params, 3, &mut rng))
            .collect();
        let refs: Vec<&DpvsVector> = rows.iter().collect();
        let combo = DpvsVector::linear_combination(&params, &refs, &[Fr::ZERO, Fr::from_u64(5)]);
        assert_eq!(combo, rows[1].scale(&params, Fr::from_u64(5)));
    }

    #[test]
    fn pair_is_bilinear_form() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(13);
        let x = random_vector(&params, 3, &mut rng);
        let y = random_vector(&params, 3, &mut rng);
        let k = Fr::random(&mut rng);
        let lhs = x.scale(&params, k).pair(&params, &y);
        let rhs = x.pair(&params, &y).pow(&params, k);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn encode_roundtrip() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(14);
        let v = random_vector(&params, 5, &mut rng);
        let mut w = Writer::new();
        v.encode(&params, &mut w);
        let buf = w.finish();
        assert_eq!(buf.len(), DpvsVector::encoded_size(5));
        let mut r = Reader::new(&buf);
        let back = DpvsVector::decode(&params, &mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn hostile_dimension_prefix_rejected_before_allocation() {
        let params = CurveParams::fast();
        // a declared dimension of u32::MAX followed by no point bytes
        // must be refused by the count guard, not allocated for
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(
            DpvsVector::decode(&params, &mut r),
            Err(apks_math::encode::DecodeError::UnexpectedEnd)
        );
    }
}
