//! The APKS scheme: `Setup`, `GenIndex`, `GenCap`, `Search`,
//! `DelegateCap` (Fig. 5 of the paper), plus the APKS⁺ variants.
//!
//! All objects carry a schema digest so that indexes, capabilities and
//! public keys from different deployments cannot be mixed silently.

use crate::encoding::{phi, psi};
use crate::error::ApksError;
use crate::policy::QueryPolicy;
use crate::query::Query;
use crate::schema::{Record, Schema};
use apks_curve::CurveParams;
use apks_hpe::{Hpe, HpeCiphertext, HpeMasterKey, HpePublicKey, HpeSecretKey, PreparedHpeKey};
use apks_math::encode::{DecodeError, Reader, Writer};
use apks_math::sha256::Sha256;
use rand::Rng;
use std::sync::Arc;

/// The APKS system context: curve parameters + schema + the derived HPE
/// instance.
#[derive(Clone, Debug)]
pub struct ApksSystem {
    params: Arc<CurveParams>,
    schema: Arc<Schema>,
    hpe: Hpe,
    digest: [u8; 32],
}

/// The APKS public key (the paper's `PK = (pk, φ, ψ)`: the HPE public key
/// plus the schema, which determines both mappings).
#[derive(Clone, Debug)]
pub struct ApksPublicKey {
    /// The underlying HPE public key.
    pub hpe: HpePublicKey,
    digest: [u8; 32],
}

/// The APKS master secret key, held by the TA.
#[derive(Clone, Debug)]
pub struct ApksMasterKey {
    /// The underlying HPE master key.
    pub hpe: HpeMasterKey,
}

/// The APKS⁺ master secret key: blinded master key plus the blinding
/// secret `r` (provisioned to proxies as `r⁻¹` shares).
#[derive(Clone, Debug)]
pub struct ApksPlusMasterKey {
    /// The blinded master key used for capability generation.
    pub inner: ApksMasterKey,
    /// The blinding secret `r`.
    pub blinding: apks_math::Fr,
}

/// An encrypted index entry (one per record).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncryptedIndex {
    /// The HPE ciphertext.
    pub ct: HpeCiphertext,
    digest: [u8; 32],
}

/// A search capability (trapdoor) `T_Q`.
///
/// `delegatable` capabilities can be further restricted by an LTA;
/// [`Capability::finalize`] strips that power before the capability is
/// shipped to the cloud server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Capability {
    /// The underlying (possibly delegated) HPE secret key.
    pub key: HpeSecretKey,
    digest: [u8; 32],
}

/// A capability preprocessed for a corpus scan.
///
/// Produced once per search by [`ApksSystem::prepare_capability`]; every
/// [`ApksSystem::search_prepared`] against it skips the Miller-loop
/// point arithmetic (precomputed line coefficients are evaluated
/// instead). Verdicts are identical to [`ApksSystem::search`].
#[derive(Clone, Debug)]
pub struct PreparedCapability {
    /// The prepared HPE key (decryption component only).
    pub key: PreparedHpeKey,
    digest: [u8; 32],
}

impl PreparedCapability {
    /// Ambient dimension `n₀` of the prepared key.
    pub fn dim(&self) -> usize {
        self.key.dim()
    }
}

impl ApksSystem {
    /// Builds a system for the given parameters and schema.
    pub fn new(params: Arc<CurveParams>, schema: Arc<Schema>) -> ApksSystem {
        let hpe = Hpe::new(params.clone(), schema.n());
        let digest = schema_digest(&schema);
        ApksSystem {
            params,
            schema,
            hpe,
            digest,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The curve parameters.
    pub fn params(&self) -> &Arc<CurveParams> {
        &self.params
    }

    /// The underlying HPE instance.
    pub fn hpe(&self) -> &Hpe {
        &self.hpe
    }

    /// Vector length `n` (= `Σ dᵢ + 1` over expanded dimensions).
    pub fn n(&self) -> usize {
        self.schema.n()
    }

    /// The deployment's schema digest — the identity every capability,
    /// index, and on-disk segment is pinned to.
    pub fn schema_digest(&self) -> [u8; 32] {
        self.digest
    }

    /// Rewraps a decoded HPE public key with this system's digest
    /// (used by persistence; the dimension is validated by the caller).
    pub fn public_key_from_parts(&self, hpe: HpePublicKey) -> ApksPublicKey {
        ApksPublicKey {
            hpe,
            digest: self.digest,
        }
    }

    /// `Setup(1^κ)` — Fig. 5.
    pub fn setup<R: Rng + ?Sized>(&self, rng: &mut R) -> (ApksPublicKey, ApksMasterKey) {
        let (pk, msk) = self.hpe.setup(rng);
        (
            ApksPublicKey {
                hpe: pk,
                digest: self.digest,
            },
            ApksMasterKey { hpe: msk },
        )
    }

    /// APKS⁺ setup: blinded master key for query privacy (§V).
    pub fn setup_plus<R: Rng + ?Sized>(&self, rng: &mut R) -> (ApksPublicKey, ApksPlusMasterKey) {
        let (pk, mk) = self.hpe.setup_plus(rng);
        (
            ApksPublicKey {
                hpe: pk,
                digest: self.digest,
            },
            ApksPlusMasterKey {
                inner: ApksMasterKey { hpe: mk.msk },
                blinding: mk.blinding,
            },
        )
    }

    /// `GenIndex(PK, Z⃗)`: encrypts a record's keyword index.
    ///
    /// # Errors
    ///
    /// Fails if the record does not fit the schema or the key belongs to a
    /// different deployment.
    pub fn gen_index<R: Rng + ?Sized>(
        &self,
        pk: &ApksPublicKey,
        record: &Record,
        rng: &mut R,
    ) -> Result<EncryptedIndex, ApksError> {
        self.check_digest(pk.digest)?;
        let keywords = self.schema.convert_record(record)?;
        let x = psi(&self.schema, &keywords);
        let ct = self.hpe.encrypt_marker(&pk.hpe, &x, rng)?;
        Ok(EncryptedIndex {
            ct,
            digest: self.digest,
        })
    }

    /// APKS⁺ `PartialEnc`: identical computation to [`Self::gen_index`];
    /// the result only becomes searchable after proxy transformation.
    ///
    /// # Errors
    ///
    /// As [`Self::gen_index`].
    pub fn gen_partial_index<R: Rng + ?Sized>(
        &self,
        pk: &ApksPublicKey,
        record: &Record,
        rng: &mut R,
    ) -> Result<EncryptedIndex, ApksError> {
        self.gen_index(pk, record, rng)
    }

    /// `GenCap(PK, MSK, Q)`: issues a capability for a query, subject to a
    /// policy.
    ///
    /// # Errors
    ///
    /// Fails if the query cannot be converted under the schema or violates
    /// the policy.
    pub fn gen_cap<R: Rng + ?Sized>(
        &self,
        pk: &ApksPublicKey,
        msk: &ApksMasterKey,
        query: &Query,
        policy: &QueryPolicy,
        rng: &mut R,
    ) -> Result<Capability, ApksError> {
        self.check_digest(pk.digest)?;
        let converted = query.convert(&self.schema)?;
        policy.check(&converted)?;
        let v = phi(&self.schema, &converted, rng);
        let key = self.hpe.gen_key(&pk.hpe, &msk.hpe, &v, rng)?;
        Ok(Capability {
            key,
            digest: self.digest,
        })
    }

    /// As [`Self::gen_cap`] but assembling the key by point arithmetic
    /// over `B*` (the paper's measured implementation — Fig. 8(c)'s
    /// "don't care" speed-up lives here; the exponent path of
    /// [`Self::gen_cap`] is flat in the number of constrained
    /// dimensions).
    ///
    /// # Errors
    ///
    /// As [`Self::gen_cap`].
    pub fn gen_cap_via_points<R: Rng + ?Sized>(
        &self,
        pk: &ApksPublicKey,
        msk: &ApksMasterKey,
        query: &Query,
        policy: &QueryPolicy,
        rng: &mut R,
    ) -> Result<Capability, ApksError> {
        self.check_digest(pk.digest)?;
        let converted = query.convert(&self.schema)?;
        policy.check(&converted)?;
        let v = phi(&self.schema, &converted, rng);
        let key = self.hpe.gen_key_via_points(&pk.hpe, &msk.hpe, &v, rng)?;
        Ok(Capability {
            key,
            digest: self.digest,
        })
    }

    /// `DelegateCap(PK, T_{Q₁}, Q₂)`: restricts an existing capability to
    /// `Q₁ ∧ Q₂`.
    ///
    /// # Errors
    ///
    /// Fails if the parent capability was finalized or the new query is
    /// invalid.
    pub fn delegate_cap<R: Rng + ?Sized>(
        &self,
        pk: &ApksPublicKey,
        parent: &Capability,
        query: &Query,
        rng: &mut R,
    ) -> Result<Capability, ApksError> {
        let v = self.delegation_vector(pk, parent, query, rng)?;
        let key = self.hpe.delegate(&pk.hpe, &parent.key, &v, rng)?;
        Ok(Capability {
            key,
            digest: self.digest,
        })
    }

    /// [`Self::delegate_cap`] followed by [`Capability::finalize`], built
    /// by [`Hpe::delegate_final`]: only the search component is
    /// computed. From the same RNG state it returns the same capability
    /// as `delegate_cap(..).finalize()` and leaves the RNG in the same
    /// state — the issuance path of an LTA, whose users may only search.
    ///
    /// # Errors
    ///
    /// As [`Self::delegate_cap`].
    pub fn delegate_cap_final<R: Rng + ?Sized>(
        &self,
        pk: &ApksPublicKey,
        parent: &Capability,
        query: &Query,
        rng: &mut R,
    ) -> Result<Capability, ApksError> {
        let v = self.delegation_vector(pk, parent, query, rng)?;
        let key = self.hpe.delegate_final(&pk.hpe, &parent.key, &v, rng)?;
        Ok(Capability {
            key,
            digest: self.digest,
        })
    }

    /// The checks and the predicate vector `DelegateCap` starts from.
    fn delegation_vector<R: Rng + ?Sized>(
        &self,
        pk: &ApksPublicKey,
        parent: &Capability,
        query: &Query,
        rng: &mut R,
    ) -> Result<Vec<apks_math::Fr>, ApksError> {
        self.check_digest(pk.digest)?;
        self.check_digest(parent.digest)?;
        if !parent.key.can_delegate() {
            return Err(ApksError::NotDelegatable);
        }
        let converted = query.convert(&self.schema)?;
        Ok(phi(&self.schema, &converted, rng))
    }

    /// `Search(PK, T_Q, E(Z⃗))`: evaluates a capability against one
    /// encrypted index. Costs `n + 3` pairings (one multi-pairing).
    ///
    /// # Errors
    ///
    /// Fails on deployment mismatch.
    pub fn search(
        &self,
        pk: &ApksPublicKey,
        cap: &Capability,
        index: &EncryptedIndex,
    ) -> Result<bool, ApksError> {
        self.check_digest(cap.digest)?;
        self.check_digest(index.digest)?;
        Ok(self.hpe.test(&pk.hpe, &cap.key, &index.ct)?)
    }

    /// Precomputes a capability's Miller lines for a corpus scan.
    ///
    /// One-time cost of `n + 3` Miller loops; amortized away after a
    /// couple of [`ApksSystem::search_prepared`] calls. The digest check
    /// happens here once, so the per-document path only re-checks the
    /// index side.
    ///
    /// # Errors
    ///
    /// Fails on deployment mismatch, and with
    /// [`HpeError::KeyOutsideGroup`](apks_hpe::HpeError::KeyOutsideGroup)
    /// if a key point is neither the identity nor of order `q`.
    pub fn prepare_capability(&self, cap: &Capability) -> Result<PreparedCapability, ApksError> {
        self.check_digest(cap.digest)?;
        Ok(PreparedCapability {
            key: self.hpe.prepare_key(&cap.key)?,
            digest: cap.digest,
        })
    }

    /// [`ApksSystem::search`] with a prepared capability: identical
    /// verdicts, pairings evaluated from precomputed line coefficients
    /// (the paper's "with preprocessing" mode, §VII-B.4).
    ///
    /// # Errors
    ///
    /// Fails on deployment mismatch.
    pub fn search_prepared(
        &self,
        pk: &ApksPublicKey,
        cap: &PreparedCapability,
        index: &EncryptedIndex,
    ) -> Result<bool, ApksError> {
        self.check_digest(cap.digest)?;
        self.check_digest(index.digest)?;
        Ok(self.hpe.test_prepared(&pk.hpe, &cap.key, &index.ct)?)
    }

    /// [`ApksSystem::search_prepared`] for a wave of prepared
    /// capabilities against one index: the ciphertext's coordinates are
    /// loaded once and all Miller loops run in lockstep
    /// ([`Hpe::test_prepared_wave`]), one final exponentiation per
    /// capability. Verdict `j` is identical to `search_prepared(pk,
    /// caps[j], index)`.
    ///
    /// # Errors
    ///
    /// Fails as [`ApksSystem::check_prepared_wave`] does.
    pub fn search_prepared_wave(
        &self,
        pk: &ApksPublicKey,
        caps: &[&PreparedCapability],
        index: &EncryptedIndex,
    ) -> Result<Vec<bool>, ApksError> {
        self.check_prepared_wave(caps, index)?;
        let keys: Vec<&PreparedHpeKey> = caps.iter().map(|c| &c.key).collect();
        Ok(self.hpe.test_prepared_wave(&pk.hpe, &keys, &index.ct)?)
    }

    /// Every check [`ApksSystem::search_prepared_wave`] makes before its
    /// first pairing, in its order and with its errors: each capability
    /// and the index belong to this deployment, and the index and every
    /// key have its dimension `n₀` ([`Hpe::test_prepared_wave`] keeps
    /// the dimension checks as its own guard). Once these pass, the
    /// evaluation cannot fail, so a scan runs them while it walks the
    /// corpus and hands other threads only the pairings.
    ///
    /// # Errors
    ///
    /// Fails on deployment mismatch of any capability or the index, then
    /// on dimension mismatch of the index or any key.
    pub fn check_prepared_wave(
        &self,
        caps: &[&PreparedCapability],
        index: &EncryptedIndex,
    ) -> Result<(), ApksError> {
        for cap in caps {
            self.check_digest(cap.digest)?;
        }
        self.check_digest(index.digest)?;
        let expected = self.hpe.n0();
        let dims = std::iter::once(index.ct.c1.dim()).chain(caps.iter().map(|c| c.dim()));
        for got in dims {
            if got != expected {
                return Err(apks_hpe::HpeError::DimensionMismatch { expected, got }.into());
            }
        }
        Ok(())
    }

    fn check_digest(&self, digest: [u8; 32]) -> Result<(), ApksError> {
        if digest != self.digest {
            return Err(ApksError::InvalidRecord(
                "object belongs to a different deployment/schema".into(),
            ));
        }
        Ok(())
    }
}

impl Capability {
    /// Strips delegation/re-randomization components so the recipient can
    /// only run `Search`.
    pub fn finalize(&self) -> Capability {
        Capability {
            key: self.key.finalize(),
            digest: self.digest,
        }
    }

    /// True iff this capability may be further delegated.
    pub fn can_delegate(&self) -> bool {
        self.key.can_delegate()
    }

    /// Canonical encoding.
    pub fn encode(&self, params: &CurveParams, w: &mut Writer) {
        w.bytes(&self.digest);
        self.key.encode(params, w);
    }

    /// Decodes a capability.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed bytes.
    pub fn decode(params: &CurveParams, r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let digest: [u8; 32] = r
            .bytes(32)?
            .try_into()
            .map_err(|_| DecodeError::UnexpectedEnd)?;
        let key = HpeSecretKey::decode(params, r)?;
        Ok(Capability { key, digest })
    }

    /// Encoded size in bytes.
    pub fn encoded_size(&self) -> usize {
        32 + self.key.encoded_size()
    }
}

impl EncryptedIndex {
    /// Canonical encoding.
    pub fn encode(&self, params: &CurveParams, w: &mut Writer) {
        w.bytes(&self.digest);
        self.ct.encode(params, w);
    }

    /// Decodes an index entry.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed bytes.
    pub fn decode(params: &CurveParams, r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let digest: [u8; 32] = r
            .bytes(32)?
            .try_into()
            .map_err(|_| DecodeError::UnexpectedEnd)?;
        let ct = HpeCiphertext::decode(params, r)?;
        Ok(EncryptedIndex { ct, digest })
    }

    /// Encoded size in bytes (schema digest + ciphertext).
    pub fn encoded_size(&self) -> usize {
        32 + HpeCiphertext::encoded_size(self.ct.c1.dim())
    }
}

/// APKS⁺ proxy transformation: applies a proxy's share to a partial index.
pub fn proxy_transform(
    system: &ApksSystem,
    share: &apks_hpe::ProxyTransformKey,
    index: &EncryptedIndex,
) -> EncryptedIndex {
    EncryptedIndex {
        ct: share.transform(system.hpe(), &index.ct),
        digest: index.digest,
    }
}

/// A deterministic structural digest of a schema (hash of the canonical
/// encoding, stable across processes).
fn schema_digest(schema: &Schema) -> [u8; 32] {
    let mut w = Writer::new();
    crate::persist::encode_schema(schema, &mut w);
    let mut h = Sha256::new();
    h.update(b"apks:schema:v1");
    h.update(&w.finish());
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Hierarchy;
    use crate::keyword::FieldValue;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn small_system() -> ApksSystem {
        let schema = Schema::builder()
            .hierarchical_field("age", Hierarchy::numeric(0, 15, 4), 2)
            .flat_field("sex", 1)
            .build()
            .unwrap();
        ApksSystem::new(CurveParams::fast(), schema)
    }

    fn record(age: i64, sex: &str) -> Record {
        Record::new(vec![FieldValue::num(age), FieldValue::text(sex)])
    }

    #[test]
    fn end_to_end_search() {
        let sys = small_system();
        let mut rng = StdRng::seed_from_u64(500);
        let (pk, msk) = sys.setup(&mut rng);
        let idx = sys.gen_index(&pk, &record(6, "female"), &mut rng).unwrap();

        let hit = Query::new().range("age", 4, 7).equals("sex", "female");
        let cap = sys
            .gen_cap(&pk, &msk, &hit, &QueryPolicy::default(), &mut rng)
            .unwrap();
        assert!(sys.search(&pk, &cap, &idx).unwrap());

        let miss = Query::new().range("age", 8, 11).equals("sex", "female");
        let cap2 = sys
            .gen_cap(&pk, &msk, &miss, &QueryPolicy::default(), &mut rng)
            .unwrap();
        assert!(!sys.search(&pk, &cap2, &idx).unwrap());
    }

    #[test]
    fn prepared_search_matches_plain_search() {
        let sys = small_system();
        let mut rng = StdRng::seed_from_u64(507);
        let (pk, msk) = sys.setup(&mut rng);
        let cap = sys
            .gen_cap(
                &pk,
                &msk,
                &Query::new().range("age", 4, 7).equals("sex", "female"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let prep = sys.prepare_capability(&cap).unwrap();
        assert_eq!(prep.dim(), sys.n() + 3);
        for (age, sex) in [(6, "female"), (12, "female"), (6, "male"), (0, "male")] {
            let idx = sys.gen_index(&pk, &record(age, sex), &mut rng).unwrap();
            assert_eq!(
                sys.search_prepared(&pk, &prep, &idx).unwrap(),
                sys.search(&pk, &cap, &idx).unwrap(),
                "verdict diverged for age={age} sex={sex}"
            );
        }
    }

    /// The order-4 point `(±1, y)`, which decodes and doubles to `(0, 0)`.
    fn order_four_point(params: &CurveParams) -> apks_curve::G1Affine {
        let fp = params.fp();
        [fp.one(), fp.neg(fp.one())]
            .into_iter()
            .find_map(|x| {
                let mut bytes = fp.to_bytes(x);
                bytes.push(2);
                apks_curve::G1Affine::from_bytes(fp, &bytes)
            })
            .expect("x = 1 or x = p − 1 lies on the curve")
    }

    #[test]
    fn prepare_refuses_a_key_point_outside_the_group() {
        for params in [CurveParams::fast(), CurveParams::standard()] {
            let schema = Schema::builder().flat_field("sex", 1).build().unwrap();
            let sys = ApksSystem::new(params.clone(), schema);
            let mut rng = StdRng::seed_from_u64(509);
            let (pk, msk) = sys.setup(&mut rng);
            let query = Query::new().equals("sex", "male");
            let cap = sys
                .gen_cap(&pk, &msk, &query, &QueryPolicy::default(), &mut rng)
                .unwrap();
            assert!(sys.prepare_capability(&cap).is_ok());
            // outside bytes: a capability whose first k*_dec coordinate is
            // the order-4 point still decodes
            let mut bad = cap.clone();
            bad.key.dec.0[0] = order_four_point(&params);
            let mut w = Writer::new();
            bad.encode(&params, &mut w);
            let bytes = w.finish();
            let decoded = Capability::decode(&params, &mut Reader::new(&bytes)).unwrap();
            assert_eq!(decoded, bad);
            assert_eq!(
                sys.prepare_capability(&decoded).unwrap_err(),
                ApksError::Hpe(apks_hpe::HpeError::KeyOutsideGroup),
                "{}",
                params.label()
            );
        }
    }

    #[test]
    fn prepared_search_rejects_cross_deployment() {
        let sys_a = small_system();
        let schema_b = Schema::builder().flat_field("other", 1).build().unwrap();
        let sys_b = ApksSystem::new(CurveParams::fast(), schema_b);
        let mut rng = StdRng::seed_from_u64(508);
        let (pk_a, msk_a) = sys_a.setup(&mut rng);
        let (pk_b, _) = sys_b.setup(&mut rng);
        let cap = sys_a
            .gen_cap(
                &pk_a,
                &msk_a,
                &Query::new().equals("sex", "male"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        // preparing a foreign capability fails up front
        assert!(sys_b.prepare_capability(&cap).is_err());
        // and a prepared capability still rejects foreign indexes
        let prep = sys_a.prepare_capability(&cap).unwrap();
        let idx_b = sys_b
            .gen_index(&pk_b, &Record::new(vec![FieldValue::text("v")]), &mut rng)
            .unwrap();
        assert!(sys_a.search_prepared(&pk_a, &prep, &idx_b).is_err());
    }

    #[test]
    fn delegation_restricts() {
        let sys = small_system();
        let mut rng = StdRng::seed_from_u64(501);
        let (pk, msk) = sys.setup(&mut rng);

        // LTA capability: sex = female
        let base = sys
            .gen_cap(
                &pk,
                &msk,
                &Query::new().equals("sex", "female"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        // delegated: AND age in [4, 7]
        let delegated = sys
            .delegate_cap(&pk, &base, &Query::new().range("age", 4, 7), &mut rng)
            .unwrap();

        let young_f = sys.gen_index(&pk, &record(5, "female"), &mut rng).unwrap();
        let old_f = sys.gen_index(&pk, &record(12, "female"), &mut rng).unwrap();
        let young_m = sys.gen_index(&pk, &record(5, "male"), &mut rng).unwrap();

        assert!(sys.search(&pk, &base, &young_f).unwrap());
        assert!(sys.search(&pk, &base, &old_f).unwrap());
        assert!(sys.search(&pk, &delegated, &young_f).unwrap());
        assert!(!sys.search(&pk, &delegated, &old_f).unwrap());
        assert!(!sys.search(&pk, &delegated, &young_m).unwrap());
    }

    #[test]
    fn finalized_capability_cannot_delegate() {
        let sys = small_system();
        let mut rng = StdRng::seed_from_u64(502);
        let (pk, msk) = sys.setup(&mut rng);
        let cap = sys
            .gen_cap(
                &pk,
                &msk,
                &Query::new().equals("sex", "male"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let fin = cap.finalize();
        assert!(!fin.can_delegate());
        let err = sys
            .delegate_cap(&pk, &fin, &Query::new().range("age", 0, 3), &mut rng)
            .unwrap_err();
        assert_eq!(err, ApksError::NotDelegatable);
        // still searches
        let idx = sys.gen_index(&pk, &record(2, "male"), &mut rng).unwrap();
        assert!(sys.search(&pk, &fin, &idx).unwrap());
    }

    #[test]
    fn policy_enforced_at_gen_cap() {
        let sys = small_system();
        let mut rng = StdRng::seed_from_u64(503);
        let (pk, msk) = sys.setup(&mut rng);
        let policy = QueryPolicy {
            min_dimensions: 2,
            max_total_or_terms: 0,
        };
        let thin = Query::new().equals("sex", "male");
        assert!(matches!(
            sys.gen_cap(&pk, &msk, &thin, &policy, &mut rng),
            Err(ApksError::PolicyViolation(_))
        ));
    }

    #[test]
    fn plus_flow_with_proxy() {
        let sys = small_system();
        let mut rng = StdRng::seed_from_u64(504);
        let (pk, mk) = sys.setup_plus(&mut rng);
        let cap = sys
            .gen_cap(
                &pk,
                &mk.inner,
                &Query::new().equals("sex", "female"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let partial = sys
            .gen_partial_index(&pk, &record(6, "female"), &mut rng)
            .unwrap();
        // untransformed: unsearchable
        assert!(!sys.search(&pk, &cap, &partial).unwrap());
        let share = apks_hpe::ProxyTransformKey {
            r_inv: mk.blinding.inv().unwrap(),
        };
        let full = proxy_transform(&sys, &share, &partial);
        assert!(sys.search(&pk, &cap, &full).unwrap());
    }

    #[test]
    fn capability_encoding_roundtrip() {
        let sys = small_system();
        let mut rng = StdRng::seed_from_u64(505);
        let (pk, msk) = sys.setup(&mut rng);
        let cap = sys
            .gen_cap(
                &pk,
                &msk,
                &Query::new().equals("sex", "female"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let mut w = Writer::new();
        cap.encode(sys.params(), &mut w);
        let buf = w.finish();
        assert_eq!(buf.len(), cap.encoded_size());
        let mut r = Reader::new(&buf);
        let cap2 = Capability::decode(sys.params(), &mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(cap, cap2);
    }

    #[test]
    fn delegate_cap_final_is_delegate_cap_then_finalize() {
        let sys = small_system();
        let mut rng = StdRng::seed_from_u64(510);
        let (pk, msk) = sys.setup(&mut rng);
        let base = sys
            .gen_cap(
                &pk,
                &msk,
                &Query::new().equals("sex", "female"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let query = Query::new().range("age", 4, 7);
        let mut rng_full = rng.clone();
        let full = sys
            .delegate_cap(&pk, &base, &query, &mut rng_full)
            .unwrap()
            .finalize();
        let fin = sys
            .delegate_cap_final(&pk, &base, &query, &mut rng)
            .unwrap();
        assert_eq!(fin, full);
        assert_eq!(rng.next_u64(), rng_full.next_u64());
        let err = sys
            .delegate_cap_final(&pk, &fin, &query, &mut rng)
            .unwrap_err();
        assert_eq!(err, ApksError::NotDelegatable);
    }

    #[test]
    fn malformed_capability_bytes_are_errors_not_panics() {
        let sys = small_system();
        let mut rng = StdRng::seed_from_u64(509);
        let (pk, msk) = sys.setup(&mut rng);
        let base = sys
            .gen_cap(
                &pk,
                &msk,
                &Query::new().equals("sex", "female"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let idx = sys.gen_index(&pk, &record(6, "female"), &mut rng).unwrap();
        let query = Query::new().range("age", 4, 7);
        let edits: [fn(&mut HpeSecretKey); 6] = [
            |k| {
                k.del.pop();
            },
            |k| {
                k.ran[0].0.pop();
            },
            |k| {
                k.dec.0.pop();
            },
            |k| k.level = u32::MAX as usize,
            |k| k.ran.clear(),
            |k| {
                *k = k.finalize();
                k.dec.0.pop();
            },
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut edited = base.clone();
            edit(&mut edited.key);
            let mut w = Writer::new();
            edited.encode(sys.params(), &mut w);
            let buf = w.finish();
            // decoding accepts any shape; the operations must refuse it
            let cap = Capability::decode(sys.params(), &mut Reader::new(&buf)).unwrap();
            assert!(
                sys.delegate_cap(&pk, &cap, &query, &mut rng).is_err(),
                "{i}"
            );
            assert!(
                sys.delegate_cap_final(&pk, &cap, &query, &mut rng).is_err(),
                "{i}"
            );
            assert!(sys.search(&pk, &cap, &idx).is_err(), "{i}");
        }
    }

    #[test]
    fn cross_deployment_objects_rejected() {
        let sys_a = small_system();
        let schema_b = Schema::builder().flat_field("other", 1).build().unwrap();
        let sys_b = ApksSystem::new(CurveParams::fast(), schema_b);
        let mut rng = StdRng::seed_from_u64(506);
        let (pk_a, msk_a) = sys_a.setup(&mut rng);
        let (pk_b, _) = sys_b.setup(&mut rng);
        let cap = sys_a
            .gen_cap(
                &pk_a,
                &msk_a,
                &Query::new().equals("sex", "male"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let idx_b = sys_b
            .gen_index(&pk_b, &Record::new(vec![FieldValue::text("v")]), &mut rng)
            .unwrap();
        assert!(sys_a.search(&pk_a, &cap, &idx_b).is_err());
        // and pk from the wrong system
        assert!(sys_a
            .gen_index(&pk_b, &record(3, "male"), &mut rng)
            .is_err());
    }
}
