//! The TA / LTA hierarchy (§III, Fig. 2).
//!
//! The [`TrustedAuthority`] runs system setup, provisions second-level
//! [`Lta`]s with base capabilities and IBS signing keys, and can then stay
//! offline. Each LTA serves capability requests from its local domain:
//! attribute check → `DelegateCap` from its base capability, finalized
//! (only the search component is computed) → sign. LTAs can also spawn
//! *sub*-LTAs, inheriting their restrictions — the `i`-th-level
//! delegation of the paper, which keeps the full delegated key.

use crate::directory::{AttributeDirectory, EligibilityRules};
use crate::ibs::{IbsAuthority, IbsPublicParams, UserSignKey};
use crate::signed::SignedCapability;
use apks_core::{
    ApksError, ApksMasterKey, ApksPublicKey, ApksSystem, Capability, Query, QueryPolicy,
};
use core::fmt;
use rand::Rng;

/// Authorization-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthzError {
    /// The requester failed the attribute/eligibility check.
    NotEligible {
        /// The fields that failed the check.
        fields: Vec<String>,
    },
    /// The underlying APKS operation failed.
    Apks(ApksError),
}

impl fmt::Display for AuthzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthzError::NotEligible { fields } => {
                write!(
                    f,
                    "requester not eligible for fields: {}",
                    fields.join(", ")
                )
            }
            AuthzError::Apks(e) => write!(f, "apks error: {e}"),
        }
    }
}

impl std::error::Error for AuthzError {}

impl From<ApksError> for AuthzError {
    fn from(e: ApksError) -> Self {
        AuthzError::Apks(e)
    }
}

/// The (root) trusted authority.
pub struct TrustedAuthority {
    system: ApksSystem,
    pk: ApksPublicKey,
    msk: ApksMasterKey,
    ibs: IbsAuthority,
    registered_ltas: Vec<String>,
}

impl TrustedAuthority {
    /// Runs `Setup` and creates the TA.
    pub fn setup<R: Rng + ?Sized>(system: ApksSystem, rng: &mut R) -> TrustedAuthority {
        let (pk, msk) = system.setup(rng);
        Self::from_parts(system, pk, msk, rng)
    }

    /// Builds a TA around existing keys — e.g. an APKS⁺ deployment whose
    /// `setup_plus` ran separately (the blinding stays with the proxies),
    /// or keys reloaded from a persisted deployment.
    pub fn from_parts<R: Rng + ?Sized>(
        system: ApksSystem,
        pk: ApksPublicKey,
        msk: ApksMasterKey,
        rng: &mut R,
    ) -> TrustedAuthority {
        let ibs = IbsAuthority::new(system.params().clone(), rng);
        TrustedAuthority {
            system,
            pk,
            msk,
            ibs,
            registered_ltas: Vec::new(),
        }
    }

    /// The public key every owner/user/server needs.
    pub fn public_key(&self) -> &ApksPublicKey {
        &self.pk
    }

    /// The IBS public parameters the server verifies against.
    pub fn ibs_params(&self) -> &IbsPublicParams {
        self.ibs.public_params()
    }

    /// The APKS system context.
    pub fn system(&self) -> &ApksSystem {
        &self.system
    }

    /// Identities of every authority registered so far (the server's
    /// whitelist).
    pub fn registered_ltas(&self) -> &[String] {
        &self.registered_ltas
    }

    /// Provisions a second-level LTA: issues its base capability for
    /// `base_query` (the domain restriction, e.g.
    /// `provider = "hospital-a"`), its IBS signing key, its directory and
    /// rules.
    ///
    /// # Errors
    ///
    /// Fails if the base query is invalid under the schema.
    pub fn register_lta<R: Rng + ?Sized>(
        &mut self,
        id: impl Into<String>,
        base_query: &Query,
        directory: AttributeDirectory,
        rules: EligibilityRules,
        policy: QueryPolicy,
        rng: &mut R,
    ) -> Result<Lta, AuthzError> {
        let id = id.into();
        let base = self.system.gen_cap(
            &self.pk,
            &self.msk,
            base_query,
            &QueryPolicy::permissive(),
            rng,
        )?;
        let sign_key = self.ibs.extract(&id);
        self.registered_ltas.push(id.clone());
        Ok(Lta {
            id,
            base,
            sign_key,
            directory,
            rules,
            policy,
        })
    }

    /// Directly issues a signed capability (the TA acting as an authority
    /// of last resort, e.g. for medical researchers vetted centrally).
    ///
    /// # Errors
    ///
    /// Fails if the query is invalid or violates `policy`.
    pub fn issue_capability<R: Rng + ?Sized>(
        &self,
        query: &Query,
        policy: &QueryPolicy,
        rng: &mut R,
    ) -> Result<SignedCapability, AuthzError> {
        let cap = self
            .system
            .gen_cap(&self.pk, &self.msk, query, policy, rng)?
            .finalize();
        Ok(self.sign_as("ta", cap, rng))
    }

    fn sign_as<R: Rng + ?Sized>(
        &self,
        issuer: &str,
        cap: Capability,
        rng: &mut R,
    ) -> SignedCapability {
        let key = self.ibs.extract(issuer);
        let msg = SignedCapability::signed_bytes(self.system.params(), &cap, issuer);
        let signature = key.sign(self.system.params(), &msg, rng);
        SignedCapability {
            capability: cap,
            issuer: issuer.to_string(),
            signature,
        }
    }
}

/// A local trusted authority.
pub struct Lta {
    id: String,
    base: Capability,
    sign_key: UserSignKey,
    /// Attribute database for the local domain.
    pub directory: AttributeDirectory,
    /// Per-field eligibility rules.
    pub rules: EligibilityRules,
    /// Query policy enforced on every request.
    pub policy: QueryPolicy,
}

impl Lta {
    /// This LTA's identity.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Serves a user's capability request: attribute check, then a
    /// finalized delegation from the base capability (inheriting this
    /// LTA's restrictions; [`ApksSystem::delegate_cap_final`] computes
    /// only the search component a user receives), then signing. The
    /// signed capability equals `delegate_cap(..).finalize()` signed from
    /// the same RNG state.
    ///
    /// # Errors
    ///
    /// Fails if the user is not eligible, the query is invalid, or the
    /// policy rejects it.
    pub fn request_capability<R: Rng + ?Sized>(
        &self,
        system: &ApksSystem,
        pk: &ApksPublicKey,
        user: &str,
        query: &Query,
        rng: &mut R,
    ) -> Result<SignedCapability, AuthzError> {
        self.directory
            .check_query(user, query, &self.rules)
            .map_err(|fields| AuthzError::NotEligible { fields })?;
        let converted = query.convert(system.schema())?;
        self.policy.check(&converted)?;
        let cap = system.delegate_cap_final(pk, &self.base, query, rng)?;
        let msg = SignedCapability::signed_bytes(system.params(), &cap, &self.id);
        let signature = self.sign_key.sign(system.params(), &msg, rng);
        Ok(SignedCapability {
            capability: cap,
            issuer: self.id.clone(),
            signature,
        })
    }

    /// Spawns a sub-LTA whose base capability further restricts this one
    /// by `sub_query` (the `i`-th-level delegation of Fig. 2). The sub-LTA
    /// signs under its own identity, which the parent must register with
    /// the TA out of band.
    ///
    /// # Errors
    ///
    /// Fails if `sub_query` is invalid under the schema.
    #[allow(clippy::too_many_arguments)] // provisioning takes the full domain config
    pub fn spawn_sub_lta<R: Rng + ?Sized>(
        &self,
        system: &ApksSystem,
        pk: &ApksPublicKey,
        id: impl Into<String>,
        sub_query: &Query,
        sign_key: UserSignKey,
        directory: AttributeDirectory,
        rules: EligibilityRules,
        policy: QueryPolicy,
        rng: &mut R,
    ) -> Result<Lta, AuthzError> {
        let base = system.delegate_cap(pk, &self.base, sub_query, rng)?;
        Ok(Lta {
            id: id.into(),
            base,
            sign_key,
            directory,
            rules,
            policy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::Eligibility;
    use apks_core::{FieldValue, Record, Schema};
    use apks_curve::CurveParams;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn system() -> ApksSystem {
        let schema = Schema::builder()
            .flat_field("provider", 1)
            .flat_field("illness", 2)
            .flat_field("sex", 1)
            .build()
            .unwrap();
        ApksSystem::new(CurveParams::fast(), schema)
    }

    fn record(provider: &str, illness: &str, sex: &str) -> Record {
        Record::new(vec![
            FieldValue::text(provider),
            FieldValue::text(illness),
            FieldValue::text(sex),
        ])
    }

    #[test]
    fn full_authorization_flow() {
        let sys = system();
        let mut rng = StdRng::seed_from_u64(700);
        let mut ta = TrustedAuthority::setup(sys, &mut rng);
        let sys = ta.system().clone();
        let pk = ta.public_key().clone();

        let mut dir = AttributeDirectory::new();
        dir.register_user(
            "alice",
            [
                ("illness", FieldValue::text("diabetes")),
                ("sex", FieldValue::text("female")),
            ],
        );
        let rules = EligibilityRules::with_default(Eligibility::OwnsValue)
            .set("provider", Eligibility::AnyValue);
        let lta = ta
            .register_lta(
                "lta:hospital-a",
                &Query::new().equals("provider", "hospital-a"),
                dir,
                rules,
                QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();

        // Alice asks to match patients with her own illness.
        let signed = lta
            .request_capability(
                &sys,
                &pk,
                "alice",
                &Query::new().equals("illness", "diabetes"),
                &mut rng,
            )
            .unwrap();
        assert!(signed.verify(sys.params(), ta.ibs_params()));
        assert!(
            !signed.capability.can_delegate(),
            "finalized for the server"
        );

        // The capability inherits the LTA's provider restriction.
        let in_domain = sys
            .gen_index(&pk, &record("hospital-a", "diabetes", "female"), &mut rng)
            .unwrap();
        let out_domain = sys
            .gen_index(&pk, &record("hospital-b", "diabetes", "female"), &mut rng)
            .unwrap();
        let wrong_illness = sys
            .gen_index(&pk, &record("hospital-a", "flu", "female"), &mut rng)
            .unwrap();
        assert!(sys.search(&pk, &signed.capability, &in_domain).unwrap());
        assert!(!sys.search(&pk, &signed.capability, &out_domain).unwrap());
        assert!(!sys.search(&pk, &signed.capability, &wrong_illness).unwrap());
    }

    #[test]
    fn ineligible_request_rejected() {
        let sys = system();
        let mut rng = StdRng::seed_from_u64(701);
        let mut ta = TrustedAuthority::setup(sys, &mut rng);
        let sys = ta.system().clone();
        let pk = ta.public_key().clone();
        let mut dir = AttributeDirectory::new();
        dir.register_user("bob", [("illness", FieldValue::text("flu"))]);
        let lta = ta
            .register_lta(
                "lta:x",
                &Query::new().equals("provider", "hospital-a"),
                dir,
                EligibilityRules::with_default(Eligibility::OwnsValue),
                QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let err = lta
            .request_capability(
                &sys,
                &pk,
                "bob",
                &Query::new().equals("illness", "diabetes"),
                &mut rng,
            )
            .unwrap_err();
        assert!(matches!(err, AuthzError::NotEligible { .. }));
    }

    #[test]
    fn tampered_capability_fails_verification() {
        let sys = system();
        let mut rng = StdRng::seed_from_u64(702);
        let ta = TrustedAuthority::setup(sys, &mut rng);
        let sys = ta.system().clone();
        let signed = ta
            .issue_capability(
                &Query::new().equals("sex", "male"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        assert!(signed.verify(sys.params(), ta.ibs_params()));
        // claim a different issuer
        let mut forged = signed.clone();
        forged.issuer = "lta:evil".into();
        assert!(!forged.verify(sys.params(), ta.ibs_params()));
    }

    /// Issuance by full delegation: `delegate_cap`, `finalize`, sign.
    fn request_by_full_delegation(
        lta: &Lta,
        sys: &ApksSystem,
        pk: &ApksPublicKey,
        query: &Query,
        rng: &mut StdRng,
    ) -> SignedCapability {
        let cap = sys
            .delegate_cap(pk, &lta.base, query, rng)
            .unwrap()
            .finalize();
        let msg = SignedCapability::signed_bytes(sys.params(), &cap, &lta.id);
        let signature = lta.sign_key.sign(sys.params(), &msg, rng);
        SignedCapability {
            capability: cap,
            issuer: lta.id.clone(),
            signature,
        }
    }

    #[test]
    fn issuance_equals_full_delegation_then_finalize_and_sign() {
        let sys = system();
        let mut rng = StdRng::seed_from_u64(704);
        let mut ta = TrustedAuthority::setup(sys, &mut rng);
        let sys = ta.system().clone();
        let pk = ta.public_key().clone();
        let directory = || {
            let mut dir = AttributeDirectory::new();
            dir.register_user("carol", [("sex", FieldValue::text("female"))]);
            dir
        };
        let any = || EligibilityRules::with_default(Eligibility::AnyValue);
        let lta = ta
            .register_lta(
                "lta:hospital-a",
                &Query::new().equals("provider", "hospital-a"),
                directory(),
                any(),
                QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let sub = lta
            .spawn_sub_lta(
                &sys,
                &pk,
                "lta:hospital-a:flu-clinic",
                &Query::new().equals("illness", "flu"),
                crate::ibs::IbsAuthority::new(sys.params().clone(), &mut rng)
                    .extract("lta:hospital-a:flu-clinic"),
                directory(),
                any(),
                QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let encoded = |signed: &SignedCapability| {
            let mut w = apks_math::encode::Writer::new();
            signed.encode(sys.params(), &mut w);
            w.finish()
        };
        let query = Query::new().equals("sex", "female");
        for authority in [&lta, &sub] {
            let mut rng_full = rng.clone();
            let issued = authority
                .request_capability(&sys, &pk, "carol", &query, &mut rng)
                .unwrap();
            let full = request_by_full_delegation(authority, &sys, &pk, &query, &mut rng_full);
            assert_eq!(encoded(&issued), encoded(&full), "{}", authority.id());
            assert_eq!(rng.next_u64(), rng_full.next_u64(), "{}", authority.id());
        }
    }

    #[test]
    fn sub_lta_inherits_restrictions() {
        let sys = system();
        let mut rng = StdRng::seed_from_u64(703);
        let mut ta = TrustedAuthority::setup(sys, &mut rng);
        let sys = ta.system().clone();
        let pk = ta.public_key().clone();
        let lta = ta
            .register_lta(
                "lta:hospital-a",
                &Query::new().equals("provider", "hospital-a"),
                AttributeDirectory::new(),
                EligibilityRules::with_default(Eligibility::AnyValue),
                QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        // department-level sub-LTA: restricted to illness = flu
        let mut dept_dir = AttributeDirectory::new();
        dept_dir.register_user("carol", [("sex", FieldValue::text("female"))]);
        let dept = lta
            .spawn_sub_lta(
                &sys,
                &pk,
                "lta:hospital-a:flu-clinic",
                &Query::new().equals("illness", "flu"),
                // sub-LTA IBS key issued by the TA's IBS authority
                crate::ibs::IbsAuthority::new(sys.params().clone(), &mut rng)
                    .extract("lta:hospital-a:flu-clinic"),
                dept_dir,
                EligibilityRules::with_default(Eligibility::AnyValue),
                QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let cap = dept
            .request_capability(
                &sys,
                &pk,
                "carol",
                &Query::new().equals("sex", "female"),
                &mut rng,
            )
            .unwrap();
        // matches only hospital-a AND flu AND female
        let yes = sys
            .gen_index(&pk, &record("hospital-a", "flu", "female"), &mut rng)
            .unwrap();
        let no_provider = sys
            .gen_index(&pk, &record("hospital-b", "flu", "female"), &mut rng)
            .unwrap();
        let no_illness = sys
            .gen_index(&pk, &record("hospital-a", "diabetes", "female"), &mut rng)
            .unwrap();
        assert!(sys.search(&pk, &cap.capability, &yes).unwrap());
        assert!(!sys.search(&pk, &cap.capability, &no_provider).unwrap());
        assert!(!sys.search(&pk, &cap.capability, &no_illness).unwrap());
    }
}
