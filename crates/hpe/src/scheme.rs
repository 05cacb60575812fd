//! The five HPE algorithms: `Setup`, `GenKey`, `Enc`, `Dec`, `Delegate`.
//!
//! Key component structure (level 1, reconstructed from OT09 — the APKS
//! paper's appendix truncates `GenKey`), writing `S(v⃗) = Σ vᵢ b*ᵢ` and
//! `W = b*_{n+1} − b*_{n+2}`:
//!
//! ```text
//! k*_dec    = σ_dec·S(v⃗) + η_dec·W + b*_{n+2}
//! k*_ran,j  = σ_j·S(v⃗)   + η_j·W                   (j = 1, 2)
//! k*_del,j  = σ'_j·S(v⃗)  + ψ·b*_j + η'_j·W         (j = 1, …, n)
//! ```
//!
//! The `(n+1, n+2)` coefficients of `k*_dec` sum to 1 and those of every
//! other component sum to 0, so pairing with `ζ·d_{n+1}` contributes
//! exactly `g_T^ζ` to decryption. Delegation (`Delegate`, verbatim from
//! the paper's appendix) preserves both invariants.

use crate::keys::{HpeCiphertext, HpeMasterKey, HpePublicKey, HpeSecretKey, PreparedHpeKey};
use apks_curve::{CurveParams, Gt};
use apks_dpvs::{Dpvs, DpvsVector, PreparedDpvsVector};
use apks_math::Fr;
use core::fmt;
use rand::Rng;
use std::sync::Arc;

/// Errors from HPE operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HpeError {
    /// A vector had the wrong dimension for this instance.
    DimensionMismatch {
        /// The dimension required by the instance.
        expected: usize,
        /// The dimension supplied by the caller.
        got: usize,
    },
    /// Delegation was requested on a finalized key.
    KeyNotDelegatable,
    /// A predicate vector was identically zero.
    ZeroPredicate,
    /// A key point is neither the identity nor of order `q`, so it
    /// cannot be prepared.
    KeyOutsideGroup,
}

impl fmt::Display for HpeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HpeError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "vector dimension mismatch: expected {expected}, got {got}"
                )
            }
            HpeError::KeyNotDelegatable => {
                write!(f, "key was finalized and cannot be delegated")
            }
            HpeError::ZeroPredicate => write!(f, "predicate vector must be non-zero"),
            HpeError::KeyOutsideGroup => {
                write!(f, "key point is outside the order-q group")
            }
        }
    }
}

impl std::error::Error for HpeError {}

/// An HPE instance for `n`-dimensional predicate vectors.
#[derive(Clone, Debug)]
pub struct Hpe {
    params: Arc<CurveParams>,
    dpvs: Dpvs,
    n: usize,
}

impl Hpe {
    /// Creates an instance for predicate dimension `n` (ambient `n + 3`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(params: Arc<CurveParams>, n: usize) -> Self {
        assert!(n > 0, "predicate dimension must be positive");
        let dpvs = Dpvs::new(params.clone(), n + 3);
        Hpe { params, dpvs, n }
    }

    /// Predicate dimension `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Ambient dimension `n₀ = n + 3`.
    pub fn n0(&self) -> usize {
        self.n + 3
    }

    /// The curve parameters.
    pub fn params(&self) -> &Arc<CurveParams> {
        &self.params
    }

    /// `HPE-Setup`: samples dual bases and publishes `B̂`.
    ///
    /// Cost: `O(n₀²)` exponentiations per basis — Fig. 8(a).
    pub fn setup<R: Rng + ?Sized>(&self, rng: &mut R) -> (HpePublicKey, HpeMasterKey) {
        let (b, b_star, _x, y) = self.dpvs.generate_dual_bases(rng);
        let pk = self.publish(&b);
        (pk, HpeMasterKey { b_star, y })
    }

    /// Builds the published part `B̂` from a full basis `B`.
    pub(crate) fn publish(&self, b: &apks_dpvs::DpvsBasis) -> HpePublicKey {
        let n = self.n;
        let rows = (0..n).map(|i| b.row(i).clone()).collect();
        let d_mid = b.row(n).add(&self.params, b.row(n + 1));
        let b_last = b.row(n + 2).clone();
        HpePublicKey {
            n,
            rows,
            d_mid,
            b_last,
        }
    }

    fn check_dim(&self, v: &[Fr]) -> Result<(), HpeError> {
        if v.len() != self.n {
            return Err(HpeError::DimensionMismatch {
                expected: self.n,
                got: v.len(),
            });
        }
        Ok(())
    }

    /// Checks the shape of a key, which decoding does not: either
    /// finalized (no `ran`, no `del`) or with `level + 1` `ran` and `n`
    /// `del` components, and every component of dimension `n₀`. Keys
    /// decoded from outside input reach [`Hpe::delegate`],
    /// [`Hpe::delegate_final`], [`Hpe::rerandomize`] and
    /// [`Hpe::decrypt`], whose point arithmetic assumes this shape.
    fn check_key(&self, key: &HpeSecretKey) -> Result<(), HpeError> {
        let mismatch =
            |expected: usize, got: usize| Err(HpeError::DimensionMismatch { expected, got });
        if !key.ran.is_empty() || !key.del.is_empty() {
            let ran_len = key.level.saturating_add(1);
            if key.ran.len() != ran_len {
                return mismatch(ran_len, key.ran.len());
            }
            if key.del.len() != self.n {
                return mismatch(self.n, key.del.len());
            }
        }
        let components = std::iter::once(&key.dec).chain(&key.ran).chain(&key.del);
        match components.map(DpvsVector::dim).find(|&d| d != self.n0()) {
            Some(got) => mismatch(self.n0(), got),
            None => Ok(()),
        }
    }

    /// The checks [`Hpe::delegate`] and [`Hpe::delegate_final`] share.
    fn check_delegation(&self, key: &HpeSecretKey, v_next: &[Fr]) -> Result<(), HpeError> {
        self.check_dim(v_next)?;
        self.check_key(key)?;
        if !key.can_delegate() {
            return Err(HpeError::KeyNotDelegatable);
        }
        if v_next.iter().all(|c| c.is_zero()) {
            return Err(HpeError::ZeroPredicate);
        }
        Ok(())
    }

    /// Combines `B*` rows with a full-width coefficient vector, done in
    /// the exponent (the msk holder knows `Y`): one `F_q` matvec plus
    /// `n₀` fixed-base exponentiations.
    fn combine_star(&self, msk: &HpeMasterKey, coeffs: &[Fr]) -> DpvsVector {
        self.dpvs.combine_in_exponent(&msk.y, coeffs)
    }

    /// Coefficient vector `σ·v⃗` on `0..n`, `(η, −η)` on `(n, n+1)`, plus
    /// optional extras.
    fn star_coeffs(&self, sigma: Fr, v: &[Fr], eta: Fr) -> Vec<Fr> {
        let mut c = vec![Fr::ZERO; self.n0()];
        for (ci, &vi) in c.iter_mut().zip(v) {
            *ci = sigma * vi;
        }
        c[self.n] = eta;
        c[self.n + 1] = -eta;
        c
    }

    /// `HPE-GenKey`: issues a level-1 key for predicate vector `v⃗`.
    ///
    /// Components are assembled *in the exponent* (the msk holder knows
    /// `Y`), costing one fixed-base exponentiation per coordinate —
    /// `O(n₀²)` for the whole key.
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch or a zero predicate vector.
    pub fn gen_key<R: Rng + ?Sized>(
        &self,
        pk: &HpePublicKey,
        msk: &HpeMasterKey,
        v: &[Fr],
        rng: &mut R,
    ) -> Result<HpeSecretKey, HpeError> {
        self.gen_key_with(pk, msk, v, rng, |c| self.combine_star(msk, c))
    }

    /// `HPE-GenKey` computed by point arithmetic over the `B*` rows — the
    /// implementation a holder of bare basis *points* would use, and the
    /// cost profile the paper's Fig. 8(c) exhibits (zero coefficients of
    /// "don't care" dimensions skip whole rows, so sparse queries are
    /// cheaper to authorize). Kept for the ablation benchmark and the
    /// report's Fig. 8(c) reproduction.
    ///
    /// # Errors
    ///
    /// As [`Hpe::gen_key`].
    pub fn gen_key_via_points<R: Rng + ?Sized>(
        &self,
        pk: &HpePublicKey,
        msk: &HpeMasterKey,
        v: &[Fr],
        rng: &mut R,
    ) -> Result<HpeSecretKey, HpeError> {
        self.gen_key_with(pk, msk, v, rng, |c| msk.b_star.combine(&self.params, c))
    }

    fn gen_key_with<R: Rng + ?Sized>(
        &self,
        _pk: &HpePublicKey,
        _msk: &HpeMasterKey,
        v: &[Fr],
        rng: &mut R,
        combine: impl Fn(&[Fr]) -> DpvsVector,
    ) -> Result<HpeSecretKey, HpeError> {
        self.check_dim(v)?;
        if v.iter().all(|c| c.is_zero()) {
            return Err(HpeError::ZeroPredicate);
        }
        let n = self.n;

        // k*_dec
        let mut c = self.star_coeffs(Fr::random(rng), v, Fr::random(rng));
        c[n + 1] += Fr::one(); // + b*_{n+2}
        let dec = combine(&c);

        // k*_ran,1 , k*_ran,2
        let ran = (0..2)
            .map(|_| {
                let c = self.star_coeffs(Fr::random(rng), v, Fr::random(rng));
                combine(&c)
            })
            .collect();

        // k*_del,j with shared ψ
        let psi = Fr::random_nonzero(rng);
        let del = (0..n)
            .map(|j| {
                let mut c = self.star_coeffs(Fr::random(rng), v, Fr::random(rng));
                c[j] += psi;
                combine(&c)
            })
            .collect();

        Ok(HpeSecretKey {
            level: 1,
            dec,
            ran,
            del,
        })
    }

    /// Re-randomizes a key in place of its predicate: adds a fresh random
    /// combination of the `ran` components to every part, producing a key
    /// for the *same* predicate chain that is unlinkable to the original.
    /// (This is what the `k*_ran` components exist for; an LTA can hand
    /// out re-randomized copies of one delegated capability so the server
    /// cannot correlate users who share a query.)
    ///
    /// # Errors
    ///
    /// Fails if the key was finalized (no `ran` components) or is
    /// malformed.
    pub fn rerandomize<R: Rng + ?Sized>(
        &self,
        key: &HpeSecretKey,
        rng: &mut R,
    ) -> Result<HpeSecretKey, HpeError> {
        self.check_key(key)?;
        if key.ran.is_empty() {
            return Err(HpeError::KeyNotDelegatable);
        }
        let ran_refs: Vec<&DpvsVector> = key.ran.iter().collect();
        let fresh = |rng: &mut R| -> DpvsVector {
            let alphas: Vec<Fr> = (0..ran_refs.len()).map(|_| Fr::random(rng)).collect();
            DpvsVector::linear_combination(&self.params, &ran_refs, &alphas)
        };
        let dec = key.dec.add(&self.params, &fresh(rng));
        let ran = key
            .ran
            .iter()
            .map(|k| k.add(&self.params, &fresh(rng)))
            .collect();
        let del = key
            .del
            .iter()
            .map(|k| k.add(&self.params, &fresh(rng)))
            .collect();
        Ok(HpeSecretKey {
            level: key.level,
            dec,
            ran,
            del,
        })
    }

    /// `HPE-Enc`: encrypts message `m ∈ G_T` under attribute vector `x⃗`.
    ///
    /// Cost: `O(n₀²)` exponentiations — Fig. 8(b).
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        pk: &HpePublicKey,
        x: &[Fr],
        m: &Gt,
        rng: &mut R,
    ) -> Result<HpeCiphertext, HpeError> {
        self.check_dim(x)?;
        let delta1 = Fr::random(rng);
        let delta2 = Fr::random(rng);
        let zeta = Fr::random(rng);

        let mut rows: Vec<&DpvsVector> = pk.rows.iter().collect();
        rows.push(&pk.d_mid);
        rows.push(&pk.b_last);
        let mut coeffs: Vec<Fr> = x.iter().map(|&xi| delta1 * xi).collect();
        coeffs.push(zeta);
        coeffs.push(delta2);
        let c1 = DpvsVector::linear_combination(&self.params, &rows, &coeffs);

        let gt = Gt(self.params.gt_generator());
        let c2 = gt.pow(&self.params, zeta).mul(&self.params, m);
        Ok(HpeCiphertext { c1, c2 })
    }

    /// Encrypts the *marker* plaintext (the `G_T` identity) — APKS
    /// `GenIndex` uses this so `Search` is a plain comparison.
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch.
    pub fn encrypt_marker<R: Rng + ?Sized>(
        &self,
        pk: &HpePublicKey,
        x: &[Fr],
        rng: &mut R,
    ) -> Result<HpeCiphertext, HpeError> {
        self.encrypt(pk, x, &Gt::identity(&self.params), rng)
    }

    /// `HPE-Dec`: returns `c₂ / e(c₁, k*_dec)`.
    ///
    /// When every predicate vector embedded in `key` is orthogonal to the
    /// ciphertext's attribute vector, this equals the encrypted message;
    /// otherwise it is a uniformly random-looking `G_T` element.
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch or a malformed key.
    pub fn decrypt(
        &self,
        _pk: &HpePublicKey,
        key: &HpeSecretKey,
        ct: &HpeCiphertext,
    ) -> Result<Gt, HpeError> {
        if ct.c1.dim() != self.n0() {
            return Err(HpeError::DimensionMismatch {
                expected: self.n0(),
                got: ct.c1.dim(),
            });
        }
        self.check_key(key)?;
        apks_telemetry::source::record_predicate_evals(1);
        let e = ct.c1.pair(&self.params, &key.dec);
        Ok(ct.c2.mul(&self.params, &e.inverse(&self.params)))
    }

    /// `Search`-style predicate test: true iff decryption yields the marker.
    ///
    /// Cost: `n₀ = n + 3` pairings (one multi-pairing) — Fig. 8(d).
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch.
    pub fn test(
        &self,
        pk: &HpePublicKey,
        key: &HpeSecretKey,
        ct: &HpeCiphertext,
    ) -> Result<bool, HpeError> {
        Ok(self.decrypt(pk, key, ct)?.is_identity(&self.params))
    }

    /// Precomputes the Miller lines of `k*_dec` for repeated evaluation.
    ///
    /// One-time cost of roughly one Miller loop per coordinate (`n₀`
    /// total); every subsequent [`Hpe::test_prepared`] on the result
    /// then runs in the paper's "with preprocessing" mode (§VII-B.4) —
    /// the corpus-scan amortization.
    ///
    /// # Errors
    ///
    /// [`HpeError::KeyOutsideGroup`] if a coordinate of `k*_dec` is
    /// neither the identity nor of order `q` (a decodable small-order
    /// point, for one).
    pub fn prepare_key(&self, key: &HpeSecretKey) -> Result<PreparedHpeKey, HpeError> {
        Ok(PreparedHpeKey {
            level: key.level,
            dec: PreparedDpvsVector::prepare(&self.params, &key.dec)
                .ok_or(HpeError::KeyOutsideGroup)?,
        })
    }

    /// [`Hpe::decrypt`] with a prepared key: `c₂ / e(c₁, k*_dec)`, the
    /// pairing evaluated from the precomputed lines (the pairing is
    /// symmetric, so fixing the key side is sound).
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch.
    pub fn decrypt_prepared(
        &self,
        _pk: &HpePublicKey,
        key: &PreparedHpeKey,
        ct: &HpeCiphertext,
    ) -> Result<Gt, HpeError> {
        if ct.c1.dim() != self.n0() || key.dim() != self.n0() {
            return Err(HpeError::DimensionMismatch {
                expected: self.n0(),
                got: if ct.c1.dim() != self.n0() {
                    ct.c1.dim()
                } else {
                    key.dim()
                },
            });
        }
        apks_telemetry::source::record_predicate_evals(1);
        let e = key.dec.pair(&self.params, &ct.c1);
        Ok(ct.c2.mul(&self.params, &e.inverse(&self.params)))
    }

    /// [`Hpe::test`] with a prepared key — identical verdicts, amortized
    /// Miller loops.
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch.
    pub fn test_prepared(
        &self,
        pk: &HpePublicKey,
        key: &PreparedHpeKey,
        ct: &HpeCiphertext,
    ) -> Result<bool, HpeError> {
        Ok(self
            .decrypt_prepared(pk, key, ct)?
            .is_identity(&self.params))
    }

    /// [`Hpe::test_prepared`] for a whole wave of prepared keys against
    /// one ciphertext: the Miller loops run in lockstep
    /// ([`PreparedDpvsVector::pair_many`]), so `c₁`'s coordinates are
    /// loaded once for the batch, with one final exponentiation per key.
    ///
    /// Verdict `j` is identical to `test_prepared(pk, keys[j], ct)`.
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch of the ciphertext or any key.
    pub fn test_prepared_wave(
        &self,
        _pk: &HpePublicKey,
        keys: &[&PreparedHpeKey],
        ct: &HpeCiphertext,
    ) -> Result<Vec<bool>, HpeError> {
        if ct.c1.dim() != self.n0() {
            return Err(HpeError::DimensionMismatch {
                expected: self.n0(),
                got: ct.c1.dim(),
            });
        }
        for key in keys {
            if key.dim() != self.n0() {
                return Err(HpeError::DimensionMismatch {
                    expected: self.n0(),
                    got: key.dim(),
                });
            }
        }
        apks_telemetry::source::record_predicate_evals(keys.len() as u64);
        let decs: Vec<&PreparedDpvsVector> = keys.iter().map(|k| &k.dec).collect();
        let pairings = PreparedDpvsVector::pair_many(&self.params, &decs, &ct.c1);
        Ok(pairings
            .into_iter()
            .map(|e| {
                ct.c2
                    .mul(&self.params, &e.inverse(&self.params))
                    .is_identity(&self.params)
            })
            .collect())
    }

    /// `HPE-Delegate`: derives a level-`ℓ+1` key that additionally
    /// requires `x⃗ · v⃗_{ℓ+1} = 0` (the paper's appendix, verbatim).
    ///
    /// # Errors
    ///
    /// Fails if the key was finalized or is malformed, on dimension
    /// mismatch, or if `v_next` is zero.
    pub fn delegate<R: Rng + ?Sized>(
        &self,
        _pk: &HpePublicKey,
        key: &HpeSecretKey,
        v_next: &[Fr],
        rng: &mut R,
    ) -> Result<HpeSecretKey, HpeError> {
        self.check_delegation(key, v_next)?;
        let n = self.n;
        let level = key.level + 1;

        // Σ_j v_{ℓ+1,j} k*_del,j — computed once, re-scaled per component.
        let del_refs: Vec<&DpvsVector> = key.del.iter().collect();
        let sv_del = DpvsVector::linear_combination(&self.params, &del_refs, v_next);

        let ran_refs: Vec<&DpvsVector> = key.ran.iter().collect();
        // Fresh `Σ αᵢ k*_{ℓ,ran,i} + σ (Σ v k*_del)` with new randomness
        // per invocation.
        let rand_combo = |rng: &mut R| -> DpvsVector {
            let alphas: Vec<Fr> = (0..ran_refs.len()).map(|_| Fr::random(rng)).collect();
            let sigma = Fr::random(rng);
            DpvsVector::linear_combination(&self.params, &ran_refs, &alphas)
                .add(&self.params, &sv_del.scale(&self.params, sigma))
        };

        // k*_{ℓ+1,dec} = k*_{ℓ,dec} + Σ α_i k*_{ℓ,ran,i} + σ_dec Σ v k*_del
        let dec = key.dec.add(&self.params, &rand_combo(rng));

        // k*_{ℓ+1,ran,j}, j = 1..ℓ+2
        let ran = (0..level + 1).map(|_| rand_combo(rng)).collect();

        // k*_{ℓ+1,del,j} = Σ α k*_ran + σ_del,j Σ v k*_del + ψ' k*_{ℓ,del,j}
        let psi = Fr::random_nonzero(rng);
        let del = (0..n)
            .map(|j| rand_combo(rng).add(&self.params, &key.del[j].scale(&self.params, psi)))
            .collect();

        Ok(HpeSecretKey {
            level,
            dec,
            ran,
            del,
        })
    }

    /// [`Hpe::delegate`] followed by [`HpeSecretKey::finalize`], computing
    /// only the component `finalize` keeps:
    /// `k*_{ℓ+1,dec} = k*_{ℓ,dec} + Σ αᵢ k*_{ℓ,ran,i} + σ Σ vⱼ k*_{ℓ,del,j}`,
    /// as one linear combination of the parent's rows (zero `vⱼ` skip
    /// their row).
    ///
    /// It draws exactly the randomness `delegate` draws, in the same
    /// order, and discards the draws for the stripped `ran` and `del`
    /// components, so `delegate_final(pk, k, v, rng)` equals
    /// `delegate(pk, k, v, rng).finalize()` byte for byte and leaves
    /// `rng` in the same state.
    ///
    /// # Errors
    ///
    /// As [`Hpe::delegate`].
    pub fn delegate_final<R: Rng + ?Sized>(
        &self,
        _pk: &HpePublicKey,
        key: &HpeSecretKey,
        v_next: &[Fr],
        rng: &mut R,
    ) -> Result<HpeSecretKey, HpeError> {
        self.check_delegation(key, v_next)?;
        let level = key.level + 1;
        let mut rows: Vec<&DpvsVector> = std::iter::once(&key.dec).chain(&key.ran).collect();
        let mut coeffs = vec![Fr::one()];
        coeffs.extend((0..key.ran.len()).map(|_| Fr::random(rng)));
        let sigma = Fr::random(rng);
        rows.extend(&key.del);
        coeffs.extend(v_next.iter().map(|&vj| sigma * vj));
        let dec = DpvsVector::linear_combination(&self.params, &rows, &coeffs);

        // `delegate`'s draws for the `ran` and `del` combinations and ψ
        let combo_draws = key.ran.len() + 1;
        for _ in 0..(level + 1) * combo_draws {
            Fr::random(rng);
        }
        Fr::random_nonzero(rng);
        for _ in 0..self.n * combo_draws {
            Fr::random(rng);
        }

        Ok(HpeSecretKey {
            level,
            dec,
            ran: Vec::new(),
            del: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, seed: u64) -> (Hpe, HpePublicKey, HpeMasterKey, StdRng) {
        let hpe = Hpe::new(CurveParams::fast(), n);
        let mut rng = StdRng::seed_from_u64(seed);
        let (pk, msk) = hpe.setup(&mut rng);
        (hpe, pk, msk, rng)
    }

    /// x orthogonal to v: x = (1, t, t²), v built so x·v = 0.
    fn orthogonal_pair(rng: &mut StdRng) -> (Vec<Fr>, Vec<Fr>) {
        let t = Fr::random(rng);
        let x = vec![Fr::one(), t, t * t];
        // v = (a, b, c) with a + b t + c t² = 0: pick b, c random, solve a.
        let b = Fr::random(rng);
        let c = Fr::random(rng);
        let a = -(b * t + c * t * t);
        (x, vec![a, b, c])
    }

    #[test]
    fn decrypt_recovers_message_when_orthogonal() {
        let (hpe, pk, msk, mut rng) = setup(3, 200);
        let (x, v) = orthogonal_pair(&mut rng);
        let key = hpe.gen_key(&pk, &msk, &v, &mut rng).unwrap();
        let m = Gt(hpe.params().gt_generator()).pow(hpe.params(), Fr::random(&mut rng));
        let ct = hpe.encrypt(&pk, &x, &m, &mut rng).unwrap();
        assert_eq!(hpe.decrypt(&pk, &key, &ct).unwrap(), m);
    }

    #[test]
    fn point_path_keys_equivalent_to_exponent_path() {
        let (hpe, pk, msk, mut rng) = setup(3, 210);
        let (x, v) = orthogonal_pair(&mut rng);
        let key = hpe.gen_key_via_points(&pk, &msk, &v, &mut rng).unwrap();
        let ct = hpe.encrypt_marker(&pk, &x, &mut rng).unwrap();
        assert!(hpe.test(&pk, &key, &ct).unwrap());
        // and delegation still works from a point-path key
        let v2 = {
            let t = Fr::random(&mut rng);
            let _ = t;
            v.clone()
        };
        let k2 = hpe.delegate(&pk, &key, &v2, &mut rng).unwrap();
        assert!(hpe.test(&pk, &k2, &ct).unwrap());
    }

    #[test]
    fn prepared_key_matches_plain_test_and_decrypt() {
        let (hpe, pk, msk, mut rng) = setup(3, 212);
        let (x, v) = orthogonal_pair(&mut rng);
        let key = hpe.gen_key(&pk, &msk, &v, &mut rng).unwrap();
        let prep = hpe.prepare_key(&key).unwrap();
        assert_eq!(prep.dim(), hpe.n0());
        assert_eq!(prep.level, key.level);

        // matching ciphertext: same verdict and same decrypted value
        let m = Gt(hpe.params().gt_generator()).pow(hpe.params(), Fr::random(&mut rng));
        let ct = hpe.encrypt(&pk, &x, &m, &mut rng).unwrap();
        assert_eq!(
            hpe.decrypt_prepared(&pk, &prep, &ct).unwrap(),
            hpe.decrypt(&pk, &key, &ct).unwrap()
        );
        assert!(hpe
            .test_prepared(&pk, &hpe.prepare_key(&key).unwrap(), &ct)
            .is_ok());

        // non-matching ciphertext: both reject
        let x_bad = vec![
            Fr::random(&mut rng),
            Fr::random(&mut rng),
            Fr::random(&mut rng),
        ];
        let ct_bad = hpe.encrypt_marker(&pk, &x_bad, &mut rng).unwrap();
        assert_eq!(
            hpe.test_prepared(&pk, &prep, &ct_bad).unwrap(),
            hpe.test(&pk, &key, &ct_bad).unwrap()
        );
        let ct_hit = hpe.encrypt_marker(&pk, &x, &mut rng).unwrap();
        assert!(hpe.test_prepared(&pk, &prep, &ct_hit).unwrap());

        // dimension mismatch surfaces as an error, not a panic
        let other = Hpe::new(CurveParams::fast(), 5);
        let mut rng2 = StdRng::seed_from_u64(213);
        let (pk5, msk5) = other.setup(&mut rng2);
        let v5 = vec![Fr::one(), Fr::one(), Fr::one(), Fr::one(), Fr::one()];
        let key5 = other.gen_key(&pk5, &msk5, &v5, &mut rng2).unwrap();
        let prep5 = other.prepare_key(&key5).unwrap();
        assert!(matches!(
            hpe.test_prepared(&pk, &prep5, &ct_hit),
            Err(HpeError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn wave_test_matches_per_key_test() {
        let (hpe, pk, msk, mut rng) = setup(3, 214);
        let (x, v) = orthogonal_pair(&mut rng);
        let hit_key = hpe.gen_key(&pk, &msk, &v, &mut rng).unwrap();
        let (_, v_miss) = orthogonal_pair(&mut rng);
        let miss_key = hpe.gen_key(&pk, &msk, &v_miss, &mut rng).unwrap();
        let ct = hpe.encrypt_marker(&pk, &x, &mut rng).unwrap();
        let preps = [
            hpe.prepare_key(&hit_key).unwrap(),
            hpe.prepare_key(&miss_key).unwrap(),
            hpe.prepare_key(&hit_key).unwrap(),
        ];
        let refs: Vec<&PreparedHpeKey> = preps.iter().collect();
        let wave = hpe.test_prepared_wave(&pk, &refs, &ct).unwrap();
        let singles: Vec<bool> = preps
            .iter()
            .map(|p| hpe.test_prepared(&pk, p, &ct).unwrap())
            .collect();
        assert_eq!(wave, singles);
        assert_eq!(wave, vec![true, false, true]);
        assert!(hpe.test_prepared_wave(&pk, &[], &ct).unwrap().is_empty());

        // a mismatched key anywhere in the wave errors out
        let other = Hpe::new(CurveParams::fast(), 5);
        let mut rng2 = StdRng::seed_from_u64(215);
        let (pk5, msk5) = other.setup(&mut rng2);
        let v5 = vec![Fr::one(); 5];
        let prep5 = other
            .prepare_key(&other.gen_key(&pk5, &msk5, &v5, &mut rng2).unwrap())
            .unwrap();
        assert!(matches!(
            hpe.test_prepared_wave(&pk, &[&preps[0], &prep5], &ct),
            Err(HpeError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn test_rejects_non_orthogonal() {
        let (hpe, pk, msk, mut rng) = setup(3, 201);
        let (x, mut v) = orthogonal_pair(&mut rng);
        v[0] += Fr::one(); // break orthogonality
        let key = hpe.gen_key(&pk, &msk, &v, &mut rng).unwrap();
        let ct = hpe.encrypt_marker(&pk, &x, &mut rng).unwrap();
        assert!(!hpe.test(&pk, &key, &ct).unwrap());
    }

    #[test]
    fn test_accepts_orthogonal_marker() {
        let (hpe, pk, msk, mut rng) = setup(3, 202);
        let (x, v) = orthogonal_pair(&mut rng);
        let key = hpe.gen_key(&pk, &msk, &v, &mut rng).unwrap();
        let ct = hpe.encrypt_marker(&pk, &x, &mut rng).unwrap();
        assert!(hpe.test(&pk, &key, &ct).unwrap());
    }

    #[test]
    fn delegated_key_requires_both_predicates() {
        let (hpe, pk, msk, mut rng) = setup(4, 203);
        // x known; v1 ⊥ x; v2 ⊥ x: use x = (1, t, t², t³) and two
        // independent orthogonal vectors.
        let t = Fr::random(&mut rng);
        let x = vec![Fr::one(), t, t * t, t * t * t];
        let mk_orth = |rng: &mut StdRng| {
            let b = Fr::random(rng);
            let c = Fr::random(rng);
            let d = Fr::random(rng);
            let a = -(b * t + c * t * t + d * t * t * t);
            vec![a, b, c, d]
        };
        let v1 = mk_orth(&mut rng);
        let v2 = mk_orth(&mut rng);
        let k1 = hpe.gen_key(&pk, &msk, &v1, &mut rng).unwrap();
        let k2 = hpe.delegate(&pk, &k1, &v2, &mut rng).unwrap();
        assert_eq!(k2.level, 2);
        assert_eq!(k2.ran.len(), 3);

        // matches x (both orthogonal)
        let ct = hpe.encrypt_marker(&pk, &x, &mut rng).unwrap();
        assert!(hpe.test(&pk, &k2, &ct).unwrap());

        // x' orthogonal to v1 but NOT to v2 must be rejected by k2 but
        // accepted by k1. Find x' with x'·v1 = 0, x'·v2 ≠ 0:
        // solve 2 unknowns: x' = x + w where w·v1 = 0 pushes x'·v1 = 0.
        // Simpler: x' = (1, s, s², s³) for fresh s satisfies neither —
        // instead construct directly in the dual: pick x' random with
        // x'·v1 = 0 via solving last coordinate.
        let mut xp = vec![
            Fr::random(&mut rng),
            Fr::random(&mut rng),
            Fr::random(&mut rng),
        ];
        let last = -(xp[0] * v1[0] + xp[1] * v1[1] + xp[2] * v1[2])
            * v1[3].inv().expect("nonzero with overwhelming probability");
        xp.push(last);
        let dot2: Fr = xp.iter().zip(&v2).map(|(&a, &b)| a * b).sum();
        assert!(!dot2.is_zero(), "degenerate test vector");
        let ct2 = hpe.encrypt_marker(&pk, &xp, &mut rng).unwrap();
        assert!(hpe.test(&pk, &k1, &ct2).unwrap());
        assert!(!hpe.test(&pk, &k2, &ct2).unwrap());
    }

    #[test]
    fn two_level_delegation_chain() {
        let (hpe, pk, msk, mut rng) = setup(5, 204);
        let t = Fr::random(&mut rng);
        let x: Vec<Fr> = (0..5)
            .scan(Fr::one(), |acc, _| {
                let cur = *acc;
                *acc *= t;
                Some(cur)
            })
            .collect();
        let mk_orth = |rng: &mut StdRng| {
            let tail: Vec<Fr> = (0..4).map(|_| Fr::random(rng)).collect();
            let a = -(tail[0] * x[1] + tail[1] * x[2] + tail[2] * x[3] + tail[3] * x[4]);
            let mut v = vec![a];
            v.extend(tail);
            v
        };
        let v1 = mk_orth(&mut rng);
        let v2 = mk_orth(&mut rng);
        let v3 = mk_orth(&mut rng);
        let k1 = hpe.gen_key(&pk, &msk, &v1, &mut rng).unwrap();
        let k2 = hpe.delegate(&pk, &k1, &v2, &mut rng).unwrap();
        let k3 = hpe.delegate(&pk, &k2, &v3, &mut rng).unwrap();
        assert_eq!(k3.level, 3);
        let ct = hpe.encrypt_marker(&pk, &x, &mut rng).unwrap();
        assert!(hpe.test(&pk, &k3, &ct).unwrap());
    }

    #[test]
    fn rerandomized_key_works_and_differs() {
        let (hpe, pk, msk, mut rng) = setup(3, 211);
        let (x, v) = orthogonal_pair(&mut rng);
        let key = hpe.gen_key(&pk, &msk, &v, &mut rng).unwrap();
        let rr = hpe.rerandomize(&key, &mut rng).unwrap();
        assert_ne!(rr.dec, key.dec, "unlinkable to the original");
        let ct = hpe.encrypt_marker(&pk, &x, &mut rng).unwrap();
        assert!(hpe.test(&pk, &rr, &ct).unwrap());
        // still rejects non-matching ciphertexts
        let x_bad = vec![
            Fr::random(&mut rng),
            Fr::random(&mut rng),
            Fr::random(&mut rng),
        ];
        let ct_bad = hpe.encrypt_marker(&pk, &x_bad, &mut rng).unwrap();
        assert!(!hpe.test(&pk, &rr, &ct_bad).unwrap());
        // delegation still works after re-randomization
        let k2 = hpe.delegate(&pk, &rr, &v, &mut rng).unwrap();
        assert!(hpe.test(&pk, &k2, &ct).unwrap());
        // finalized keys cannot be re-randomized
        assert!(hpe.rerandomize(&key.finalize(), &mut rng).is_err());
    }

    #[test]
    fn finalized_key_still_searches_but_cannot_delegate() {
        let (hpe, pk, msk, mut rng) = setup(3, 205);
        let (x, v) = orthogonal_pair(&mut rng);
        let key = hpe.gen_key(&pk, &msk, &v, &mut rng).unwrap();
        let fin = key.finalize();
        assert!(!fin.can_delegate());
        let ct = hpe.encrypt_marker(&pk, &x, &mut rng).unwrap();
        assert!(hpe.test(&pk, &fin, &ct).unwrap());
        let err = hpe.delegate(&pk, &fin, &v, &mut rng).unwrap_err();
        assert_eq!(err, HpeError::KeyNotDelegatable);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (hpe, pk, msk, mut rng) = setup(3, 206);
        let short = vec![Fr::one(); 2];
        assert!(matches!(
            hpe.gen_key(&pk, &msk, &short, &mut rng),
            Err(HpeError::DimensionMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert!(matches!(
            hpe.encrypt_marker(&pk, &short, &mut rng),
            Err(HpeError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn zero_predicate_rejected() {
        let (hpe, pk, msk, mut rng) = setup(3, 207);
        let zero = vec![Fr::ZERO; 3];
        assert_eq!(
            hpe.gen_key(&pk, &msk, &zero, &mut rng).unwrap_err(),
            HpeError::ZeroPredicate
        );
    }

    #[test]
    fn key_and_ciphertext_encoding_roundtrip() {
        let (hpe, pk, msk, mut rng) = setup(3, 208);
        let (x, v) = orthogonal_pair(&mut rng);
        let key = hpe.gen_key(&pk, &msk, &v, &mut rng).unwrap();
        let ct = hpe.encrypt_marker(&pk, &x, &mut rng).unwrap();
        let params = hpe.params();

        let mut w = apks_math::encode::Writer::new();
        key.encode(params, &mut w);
        let buf = w.finish();
        assert_eq!(buf.len(), key.encoded_size());
        let mut r = apks_math::encode::Reader::new(&buf);
        let key2 = HpeSecretKey::decode(params, &mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(key, key2);

        let mut w = apks_math::encode::Writer::new();
        ct.encode(params, &mut w);
        let buf = w.finish();
        assert_eq!(buf.len(), HpeCiphertext::encoded_size(hpe.n0()));
        let mut r = apks_math::encode::Reader::new(&buf);
        let ct2 = HpeCiphertext::decode(params, &mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(ct, ct2);
        // decoded objects still work
        assert!(hpe.test(&pk, &key2, &ct2).unwrap());
    }

    /// A key at `level` for random predicates: `gen_key`, then
    /// `level − 1` delegations.
    fn key_at_level(
        hpe: &Hpe,
        pk: &HpePublicKey,
        msk: &HpeMasterKey,
        level: usize,
        rng: &mut StdRng,
    ) -> HpeSecretKey {
        let random_v =
            |rng: &mut StdRng| -> Vec<Fr> { (0..hpe.n()).map(|_| Fr::random(rng)).collect() };
        let mut key = hpe.gen_key(pk, msk, &random_v(rng), rng).unwrap();
        for _ in 1..level {
            key = hpe.delegate(pk, &key, &random_v(rng), rng).unwrap();
        }
        key
    }

    #[test]
    fn delegate_final_errors_match_delegate() {
        let (hpe, pk, msk, mut rng) = setup(3, 216);
        let key = key_at_level(&hpe, &pk, &msk, 1, &mut rng);
        let cases: [(&HpeSecretKey, Vec<Fr>, HpeError); 3] = [
            (
                &key.finalize(),
                vec![Fr::one(); 3],
                HpeError::KeyNotDelegatable,
            ),
            (&key, vec![Fr::ZERO; 3], HpeError::ZeroPredicate),
            (
                &key,
                vec![Fr::one(); 4],
                HpeError::DimensionMismatch {
                    expected: 3,
                    got: 4,
                },
            ),
        ];
        for (k, v, err) in cases {
            assert_eq!(hpe.delegate(&pk, k, &v, &mut rng).unwrap_err(), err);
            assert_eq!(hpe.delegate_final(&pk, k, &v, &mut rng).unwrap_err(), err);
        }
    }

    #[test]
    fn malformed_key_shapes_are_errors() {
        let (hpe, pk, msk, mut rng) = setup(3, 217);
        let (x, v) = orthogonal_pair(&mut rng);
        let key = key_at_level(&hpe, &pk, &msk, 2, &mut rng);
        let ct = hpe.encrypt_marker(&pk, &x, &mut rng).unwrap();
        let short = DpvsVector::zero(hpe.n0() - 1);
        let mut bad_keys = Vec::new();
        let mut k = key.clone();
        k.del.pop();
        bad_keys.push(k);
        let mut k = key.clone();
        k.ran[1] = short.clone();
        bad_keys.push(k);
        let mut k = key.clone();
        k.level = u32::MAX as usize;
        bad_keys.push(k);
        let mut k = key.clone();
        k.ran.clear();
        bad_keys.push(k);
        let mut k = key.finalize();
        k.dec = short;
        bad_keys.push(k);
        for k in &bad_keys {
            let shape = |r: Result<(), HpeError>| {
                assert!(
                    matches!(r, Err(HpeError::DimensionMismatch { .. })),
                    "{r:?}"
                )
            };
            shape(hpe.delegate(&pk, k, &v, &mut rng).map(drop));
            shape(hpe.delegate_final(&pk, k, &v, &mut rng).map(drop));
            shape(hpe.rerandomize(k, &mut rng).map(drop));
            shape(hpe.test(&pk, k, &ct).map(drop));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        // `shape`: 0 dense, 1 random zero coordinates, 2 one nonzero
        // coordinate at `pick % n`.
        #[test]
        fn prop_delegate_final_is_delegate_then_finalize(
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..=6,
            level in 1usize..=3,
            shape in 0usize..3,
            zeros in proptest::prelude::any::<u8>(),
            pick in proptest::prelude::any::<usize>(),
        ) {
            use rand::RngCore;
            let (hpe, pk, msk, mut rng) = setup(n, seed);
            let parent = key_at_level(&hpe, &pk, &msk, level, &mut rng);
            let mut v: Vec<Fr> = (0..n).map(|_| Fr::random_nonzero(&mut rng)).collect();
            match shape {
                0 => {}
                1 => {
                    let keep = pick % n;
                    for (j, vj) in v.iter_mut().enumerate() {
                        if j != keep && zeros & (1 << j) != 0 {
                            *vj = Fr::ZERO;
                        }
                    }
                }
                _ => {
                    let keep = pick % n;
                    for (j, vj) in v.iter_mut().enumerate() {
                        if j != keep {
                            *vj = Fr::ZERO;
                        }
                    }
                }
            }
            let mut rng_full = rng.clone();
            let full = hpe.delegate(&pk, &parent, &v, &mut rng_full).unwrap().finalize();
            let fin = hpe.delegate_final(&pk, &parent, &v, &mut rng).unwrap();
            let encoded = |k: &HpeSecretKey| {
                let mut w = apks_math::encode::Writer::new();
                k.encode(hpe.params(), &mut w);
                w.finish()
            };
            proptest::prop_assert_eq!(encoded(&fin), encoded(&full));
            proptest::prop_assert_eq!(fin.level, level + 1);
            proptest::prop_assert_eq!(rng.next_u64(), rng_full.next_u64());
        }
    }

    #[test]
    fn hostile_component_count_rejected_before_allocation() {
        let (hpe, _pk, _msk, _rng) = setup(1, 218);
        let mut w = apks_math::encode::Writer::new();
        w.u32(1);
        DpvsVector::zero(hpe.n0()).encode(hpe.params(), &mut w);
        w.u32(u32::MAX);
        let buf = w.finish();
        let mut r = apks_math::encode::Reader::new(&buf);
        assert_eq!(
            HpeSecretKey::decode(hpe.params(), &mut r),
            Err(apks_math::encode::DecodeError::UnexpectedEnd)
        );
    }

    #[test]
    fn public_key_encoding_roundtrip() {
        let (hpe, pk, _msk, _rng) = setup(2, 209);
        let params = hpe.params();
        let mut w = apks_math::encode::Writer::new();
        pk.encode(params, &mut w);
        let buf = w.finish();
        assert_eq!(buf.len(), pk.encoded_size());
        let mut r = apks_math::encode::Reader::new(&buf);
        let pk2 = HpePublicKey::decode(params, &mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(pk, pk2);
    }
}
