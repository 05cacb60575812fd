//! The deployment every workload builds: a fast-curve APKS⁺ system on
//! the paper's Nursery schema at d = 1 (n = 10, 13 pairings per
//! document), a TA with one LTA, a 2-stage proxy chain, plus the seeded
//! inputs (corpus rows, user queries) and the plaintext oracle.

use crate::trace::Tracer;
use apks_authz::{
    AttributeDirectory, AuthzError, Eligibility, EligibilityRules, IbsPublicParams, Lta,
    SignedCapability, TrustedAuthority,
};
use apks_client::{duplex, ApksClient, ServerEndpoint, TransportCost};
use apks_cloud::{CloudServer, HydrateConfig};
use apks_core::fault::{FaultConfig, FaultPlan, RetryPolicy, VirtualClock};
use apks_core::{
    ApksMasterKey, ApksPublicKey, ApksSystem, EncryptedIndex, FieldValue, Query, QueryPolicy,
    Record,
};
use apks_curve::CurveParams;
use apks_dataset::nursery::{nursery_schema, NURSERY_ATTRIBUTES};
use apks_math::sha256::Sha256;
use apks_proxy::ProxyChain;
use apks_store::StoreConfig;
use apks_telemetry::MetricsRegistry;
use apks_wire::WireCtx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::path::Path;
use std::sync::Arc;

/// Any failure the benchmark cannot count and carry on from.
pub type BenchResult<T> = Result<T, Box<dyn Error>>;

/// OR budget per dimension: n = 9·1 + 1 = 10, so n + 3 = 13 pairings.
pub const NURSERY_D: usize = 1;
/// Pairings one document costs at [`NURSERY_D`].
pub const PAIRINGS_PER_DOC: u64 = 13;
/// APKS⁺ proxy stages every upload passes through.
pub const PROXY_STAGES: usize = 2;
/// The LTA's identity (registered with every server).
pub const LTA_ID: &str = "lta:nursery";
/// The one user the LTA serves.
pub const ANALYST: &str = "analyst";
/// The LTA's domain restriction: its base capability covers only rows
/// with `finance = convenient`, so every issued capability is
/// `user query ∧ finance = convenient`.
pub const BASE_FIELD: &str = "finance";
/// See [`BASE_FIELD`].
pub const BASE_VALUE: &str = "convenient";

/// Independent random streams drawn from one `--seed`.
#[derive(Clone, Copy)]
pub enum Stream {
    /// Keys, proxy shares, IBS parameters.
    Keys = 1,
    /// Which Nursery rows form the corpus.
    Corpus,
    /// User queries.
    Queries,
    /// Encryption randomness of owners.
    Encrypt,
    /// Delegation and signing randomness of the LTA.
    Issue,
}

/// The random stream `which` of `seed`.
pub fn stream(seed: u64, which: Stream) -> StdRng {
    StdRng::seed_from_u64(seed ^ (which as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Keys and authorities of one deployment.
pub struct Deployment {
    /// The APKS system (fast curve, Nursery schema).
    pub system: ApksSystem,
    /// Public key.
    pub pk: ApksPublicKey,
    /// The TA's blinded master key; the ladder delegates from a base
    /// capability issued under it, exactly as the LTA's was.
    pub msk: ApksMasterKey,
    /// IBS parameters servers verify capability signatures against.
    pub ibs: IbsPublicParams,
    /// The proxy chain that makes partial indexes searchable.
    pub chain: ProxyChain,
    /// The LTA serving [`ANALYST`].
    pub lta: Lta,
    /// The LTA's base query.
    pub base: Query,
}

impl Deployment {
    /// Runs APKS⁺ setup, provisions the proxy chain and registers the LTA.
    ///
    /// # Errors
    ///
    /// Schema or base-query failures (none for the fixed inputs).
    pub fn new(seed: u64) -> BenchResult<Deployment> {
        let mut rng = stream(seed, Stream::Keys);
        let system = ApksSystem::new(CurveParams::fast(), nursery_schema(NURSERY_D)?);
        let (pk, mk) = system.setup_plus(&mut rng);
        // no rate limit: the benchmark is one well-behaved owner fleet
        let chain = ProxyChain::provision(&mk, PROXY_STAGES, usize::MAX, 1, &mut rng);
        let msk = mk.inner.clone();
        let mut ta = TrustedAuthority::from_parts(system.clone(), pk.clone(), mk.inner, &mut rng);
        let mut directory = AttributeDirectory::new();
        directory.register_user(ANALYST, std::iter::empty::<(String, FieldValue)>());
        let base = Query::new().equals(BASE_FIELD, BASE_VALUE);
        let lta = ta.register_lta(
            LTA_ID,
            &base,
            directory,
            EligibilityRules::with_default(Eligibility::AnyValue),
            QueryPolicy::permissive(),
            &mut rng,
        )?;
        Ok(Deployment {
            system,
            pk,
            msk,
            ibs: ta.ibs_params().clone(),
            chain,
            lta,
            base,
        })
    }

    /// An in-memory server with the LTA registered.
    pub fn memory_server(
        &self,
        metrics: Arc<MetricsRegistry>,
        clock: Arc<VirtualClock>,
    ) -> CloudServer {
        let server = CloudServer::with_telemetry(
            self.system.clone(),
            self.pk.clone(),
            self.ibs.clone(),
            metrics,
            clock,
        );
        server.register_authority(LTA_ID);
        server
    }

    /// A disk-backed server at `dir` whose decoded-index cache holds
    /// `cache_bytes`, with the LTA registered.
    ///
    /// # Errors
    ///
    /// Store open failures.
    pub fn paged_server(
        &self,
        metrics: Arc<MetricsRegistry>,
        clock: Arc<VirtualClock>,
        dir: &Path,
        cache_bytes: usize,
    ) -> BenchResult<CloudServer> {
        let server = CloudServer::with_paged_store(
            self.system.clone(),
            self.pk.clone(),
            self.ibs.clone(),
            metrics,
            clock,
            dir,
            StoreConfig::default(),
            HydrateConfig {
                cache_budget_bytes: cache_bytes,
            },
        )?;
        server.register_authority(LTA_ID);
        Ok(server)
    }

    /// An owner's side of one upload: `GenIndex`, then every proxy stage.
    ///
    /// # Errors
    ///
    /// Encryption or proxy failures.
    pub fn encrypt(
        &self,
        tracer: &mut Tracer,
        row: &Record,
        owner: &str,
        rng: &mut StdRng,
    ) -> BenchResult<EncryptedIndex> {
        let (partial, _) = tracer.span("core.gen_index", |_| {
            self.system.gen_index(&self.pk, row, rng)
        });
        let partial = partial?;
        let (full, _) = tracer.span("proxy.ingest", |_| {
            self.chain.ingest(&self.system, owner, 0, &partial)
        });
        Ok(full?)
    }

    /// The analyst asks the LTA for a capability.
    ///
    /// # Errors
    ///
    /// Eligibility, policy or delegation failures.
    pub fn issue(&self, query: &Query, rng: &mut StdRng) -> Result<SignedCapability, AuthzError> {
        self.lta
            .request_capability(&self.system, &self.pk, ANALYST, query, rng)
    }

    /// The plaintext oracle: positions in `rows` (= document ids when the
    /// rows were uploaded in order) matched by `query ∧` the LTA's base
    /// query.
    ///
    /// # Errors
    ///
    /// Query or record conversion failures.
    pub fn oracle(&self, query: &Query, rows: &[Record]) -> BenchResult<Vec<u64>> {
        let schema = self.system.schema();
        let mut hits = Vec::new();
        for (id, row) in rows.iter().enumerate() {
            if self.base.matches_record(schema, row)? && query.matches_record(schema, row)? {
                hits.push(id as u64);
            }
        }
        Ok(hits)
    }
}

/// `count` distinct rows of `all`, drawn uniformly.
pub fn sample_rows(all: &[Record], count: usize, rng: &mut StdRng) -> Vec<Record> {
    let mut idx: Vec<usize> = (0..all.len()).collect();
    let count = count.min(all.len());
    for i in 0..count {
        let j = rng.gen_range(i..all.len());
        idx.swap(i, j);
    }
    idx[..count].iter().map(|&i| all[i].clone()).collect()
}

/// A user query: equality on one Nursery field other than the LTA's base
/// field, with the value taken from a random row of `rows` so hit lists
/// are usually non-empty. Every query has the same shape because
/// delegation cost depends on how many dimensions a query constrains: a
/// mix would make the median issuance time depend on the seed's mix.
pub fn user_query(rows: &[Record], rng: &mut StdRng) -> Query {
    let row = &rows[rng.gen_range(0..rows.len())];
    let names: Vec<&str> = NURSERY_ATTRIBUTES
        .iter()
        .map(|(name, _)| *name)
        .chain(["class"])
        .collect();
    let fields: Vec<usize> = (0..names.len())
        .filter(|&i| names[i] != BASE_FIELD)
        .collect();
    let f = fields[rng.gen_range(0..fields.len())];
    Query::new().equals(names[f], row.values[f].clone())
}

/// A framed `ApksClient` ↔ `ServerEndpoint` link on a free in-process
/// transport.
pub struct Link {
    client: ApksClient,
    endpoint: ServerEndpoint,
}

impl Link {
    /// Connects a client to `server`.
    pub fn new(
        server: Arc<CloudServer>,
        params: Arc<CurveParams>,
        clock: Arc<VirtualClock>,
    ) -> Link {
        let ctx = WireCtx::new(params);
        let (client_end, server_end) = duplex(clock.clone(), TransportCost::FREE);
        Link {
            client: ApksClient::new(ctx.clone(), client_end),
            endpoint: ServerEndpoint::new(
                ctx,
                server,
                server_end,
                FaultPlan::new(FaultConfig::default()),
                RetryPolicy::default(),
                clock,
            ),
        }
    }

    /// Uploads one index as a 1-record batch; returns its id.
    ///
    /// # Errors
    ///
    /// Protocol failures, or a reply that is not exactly one id.
    pub fn upload(&mut self, owner: &str, index: EncryptedIndex) -> BenchResult<u64> {
        match self.client.upload(&mut self.endpoint, owner, vec![index])?[..] {
            [id] => Ok(id),
            ref ids => Err(format!("1-record upload answered with {} ids", ids.len()).into()),
        }
    }

    /// An unbounded search; returns the sorted hit list.
    ///
    /// # Errors
    ///
    /// Protocol failures, or a degraded answer (nothing may fault or be
    /// left unscanned here).
    pub fn search(&mut self, cap: &SignedCapability) -> BenchResult<Vec<u64>> {
        let resp = self
            .client
            .search(&mut self.endpoint, cap, u64::MAX, u64::MAX, 0)?;
        if !resp.faulted.is_empty() || !resp.unscanned.is_empty() {
            return Err(format!(
                "degraded answer: {} faulted, {} unscanned",
                resp.faulted.len(),
                resp.unscanned.len()
            )
            .into());
        }
        let mut hits = resp.matches;
        hits.sort_unstable();
        Ok(hits)
    }
}

/// SHA-256 over every hit list and upload id, in operation order.
pub struct Digest(Sha256);

impl Default for Digest {
    fn default() -> Digest {
        Digest(Sha256::new())
    }
}

impl Digest {
    /// Folds in one query's sorted hit list.
    pub fn hits(&mut self, ids: &[u64]) {
        self.0
            .update(b"H")
            .update(&(ids.len() as u64).to_le_bytes());
        for id in ids {
            self.0.update(&id.to_le_bytes());
        }
    }

    /// Folds in one upload's assigned id.
    pub fn upload(&mut self, id: u64) {
        self.0.update(b"U").update(&id.to_le_bytes());
    }

    /// The digest as lowercase hex.
    pub fn hex(self) -> String {
        self.0
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

/// Operations attempted and failed. A failure is an error from the
/// system or an answer the oracle rejects.
#[derive(Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ledger {
    /// Counts one attempted operation whose outcome is `res`.
    pub fn attempt<T>(&mut self, what: &str, res: BenchResult<T>) -> Option<T> {
        self.attempted += 1;
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts a failed check against an attempted operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: FAILED {why}");
        }
    }
}
