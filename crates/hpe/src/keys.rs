//! HPE key, ciphertext, and capability objects with canonical encodings.
//!
//! Encoded sizes are part of the reproduction: §VII of the paper reports
//! `PK = 65[n₀(n₀−1)+3]` bytes, `ciphertext = 65(n₀+1)` bytes and
//! `capability = 65[n₀² + (l+3)n₀]` bytes at 512-bit `p` (65 bytes per
//! compressed group element). The encoders here use the same compressed
//! representations, so size accounting can
//! be checked against real byte strings.

use apks_curve::{CurveParams, Gt};
use apks_dpvs::{DpvsBasis, DpvsVector};
use apks_math::encode::{DecodeError, Reader, Writer};

/// The HPE public key: the published part `B̂` of the basis.
///
/// `rows` are `b_1, …, b_n`; `d_mid = b_{n+1} + b_{n+2}`; `b_last =
/// b_{n+3}`. (`b_{n+1}`, `b_{n+2}` themselves are *not* published — that
/// is what hides `ζ`.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HpePublicKey {
    /// Predicate dimension `n`.
    pub n: usize,
    /// `b_1 … b_n`.
    pub rows: Vec<DpvsVector>,
    /// `d_{n+1} = b_{n+1} + b_{n+2}`.
    pub d_mid: DpvsVector,
    /// `b_{n+3}`.
    pub b_last: DpvsVector,
}

impl HpePublicKey {
    /// Ambient DPVS dimension `n₀ = n + 3`.
    pub fn n0(&self) -> usize {
        self.n + 3
    }

    /// Canonical encoding.
    pub fn encode(&self, params: &CurveParams, w: &mut Writer) {
        w.u32(self.n as u32);
        for row in &self.rows {
            row.encode(params, w);
        }
        self.d_mid.encode(params, w);
        self.b_last.encode(params, w);
    }

    /// Decodes a public key.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or invalid points.
    pub fn decode(params: &CurveParams, r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.u32()? as usize;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push(DpvsVector::decode(params, r)?);
        }
        let d_mid = DpvsVector::decode(params, r)?;
        let b_last = DpvsVector::decode(params, r)?;
        Ok(HpePublicKey {
            n,
            rows,
            d_mid,
            b_last,
        })
    }

    /// Encoded size in bytes.
    pub fn encoded_size(&self) -> usize {
        4 + (self.n + 2) * DpvsVector::encoded_size(self.n0())
    }
}

/// The HPE master secret key — the paper's `msk := (X, B*)`.
///
/// `b_star` materializes the dual basis (for HPE⁺ the blinded `B̃* =
/// r·B*`); `y` is its exponent matrix (`Y = (Xᵀ)⁻¹`, scaled by `r` in
/// HPE⁺), which lets `GenKey` assemble key components in the exponent at
/// the paper's `O(n₀²)` cost.
#[derive(Clone, Debug)]
pub struct HpeMasterKey {
    /// All `n + 3` rows of `B*` (or `B̃*`).
    pub b_star: DpvsBasis,
    /// The exponent matrix of `b_star` relative to the group generator.
    pub y: apks_dpvs::FrMatrix,
}

impl HpeMasterKey {
    /// Encoded size in bytes (point representation, matching the paper's
    /// `MSK = 85·n₀²` accounting of basis elements + exponents).
    pub fn encoded_size(&self) -> usize {
        let n0 = self.b_star.dim();
        self.b_star.len() * DpvsVector::encoded_size(n0) + n0 * n0 * 32
    }

    /// Canonical encoding (basis points + exponent matrix).
    pub fn encode(&self, params: &CurveParams, w: &mut Writer) {
        self.b_star.encode(params, w);
        self.y.encode(w);
    }

    /// Decodes a master key.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or invalid group/field elements.
    pub fn decode(params: &CurveParams, r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let b_star = DpvsBasis::decode(params, r)?;
        let y = apks_dpvs::FrMatrix::decode(r)?;
        if y.rows() != b_star.len() || y.cols() != b_star.dim() {
            return Err(DecodeError::Invalid("master key shape mismatch"));
        }
        Ok(HpeMasterKey { b_star, y })
    }
}

/// A (possibly delegated) HPE secret key — an APKS search capability.
///
/// A level-`ℓ` key carries one decryption vector, `ℓ+1` re-randomization
/// vectors and (unless *finalized*) `n` delegation vectors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HpeSecretKey {
    /// Delegation level (1 = issued directly from the master key).
    pub level: usize,
    /// `k*_dec` — the component used by `Search`/`Dec`.
    pub dec: DpvsVector,
    /// `k*_{ran,j}` — re-randomization components used by `Delegate`.
    pub ran: Vec<DpvsVector>,
    /// `k*_{del,j}` — delegation components (empty once finalized).
    pub del: Vec<DpvsVector>,
}

/// A secret key preprocessed for repeated `Search`/`Dec` evaluation.
///
/// Holds the Miller line precomputation of `k*_dec` (the only component
/// `Search` pairs with). Produced once per scan by
/// [`crate::Hpe::prepare_key`] and reused across every document; the
/// `ran`/`del` components are deliberately absent — a prepared key can
/// only evaluate, not delegate.
#[derive(Clone, Debug)]
pub struct PreparedHpeKey {
    /// Delegation level of the source key.
    pub level: usize,
    /// `k*_dec` with per-coordinate Miller lines precomputed.
    pub dec: apks_dpvs::PreparedDpvsVector,
}

impl PreparedHpeKey {
    /// Ambient dimension `n₀` of the prepared decryption vector.
    pub fn dim(&self) -> usize {
        self.dec.dim()
    }
}

impl HpeSecretKey {
    /// True iff this key can still be delegated.
    pub fn can_delegate(&self) -> bool {
        !self.del.is_empty()
    }

    /// Returns a *finalized* copy: delegation and re-randomization
    /// components stripped, so the holder (e.g. the cloud server executing
    /// a search) cannot derive further-restricted or re-randomized keys.
    pub fn finalize(&self) -> HpeSecretKey {
        HpeSecretKey {
            level: self.level,
            dec: self.dec.clone(),
            ran: Vec::new(),
            del: Vec::new(),
        }
    }

    /// Canonical encoding.
    pub fn encode(&self, params: &CurveParams, w: &mut Writer) {
        w.u32(self.level as u32);
        self.dec.encode(params, w);
        w.u32(self.ran.len() as u32);
        for v in &self.ran {
            v.encode(params, w);
        }
        w.u32(self.del.len() as u32);
        for v in &self.del {
            v.encode(params, w);
        }
    }

    /// Decodes a secret key. The key's shape (level, component counts,
    /// dimensions) is not checked here; the HPE operations refuse a
    /// malformed key.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or invalid points.
    pub fn decode(params: &CurveParams, r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let level = r.u32()? as usize;
        let dec = DpvsVector::decode(params, r)?;
        // every component starts with a 4-byte dimension prefix, so a
        // count the input cannot hold is refused before allocation
        let n_ran = r.count(4)?;
        let mut ran = Vec::with_capacity(n_ran);
        for _ in 0..n_ran {
            ran.push(DpvsVector::decode(params, r)?);
        }
        let n_del = r.count(4)?;
        let mut del = Vec::with_capacity(n_del);
        for _ in 0..n_del {
            del.push(DpvsVector::decode(params, r)?);
        }
        Ok(HpeSecretKey {
            level,
            dec,
            ran,
            del,
        })
    }

    /// Encoded size in bytes.
    pub fn encoded_size(&self) -> usize {
        let n0 = self.dec.dim();
        12 + (1 + self.ran.len() + self.del.len()) * DpvsVector::encoded_size(n0)
    }
}

/// An HPE ciphertext — an encrypted APKS index entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HpeCiphertext {
    /// `c₁ = δ₁ Σ xᵢ bᵢ + ζ d_{n+1} + δ₂ b_{n+3}`.
    pub c1: DpvsVector,
    /// `c₂ = g_T^ζ · m`.
    pub c2: Gt,
}

impl HpeCiphertext {
    /// Canonical encoding (compressed `G_T`).
    pub fn encode(&self, params: &CurveParams, w: &mut Writer) {
        self.c1.encode(params, w);
        w.bytes(&self.c2.to_bytes_compressed(params));
    }

    /// Decodes a ciphertext.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or invalid group elements.
    pub fn decode(params: &CurveParams, r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let c1 = DpvsVector::decode(params, r)?;
        let gt_len = 8 * apks_math::FP_LIMBS + 1;
        let c2 = Gt::from_bytes_compressed(params, r.bytes(gt_len)?)
            .ok_or(DecodeError::Invalid("Gt element"))?;
        Ok(HpeCiphertext { c1, c2 })
    }

    /// Encoded size in bytes for ambient dimension `n0`.
    pub fn encoded_size(n0: usize) -> usize {
        DpvsVector::encoded_size(n0) + 8 * apks_math::FP_LIMBS + 1
    }
}
