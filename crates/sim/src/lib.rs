//! A discrete-event simulation of a complete APKS deployment.
//!
//! The paper positions APKS for *"a wide range of delay-tolerant database
//! search applications"* (§I, §VII). This crate exercises that claim
//! end-to-end with real cryptography: a TA provisions one LTA per
//! provider; owners upload encrypted PHR indexes day by day (through a
//! proxy chain in APKS⁺ mode); patients and physicians request
//! capabilities — some denied by the attribute check — and search the
//! growing store; capabilities carry monthly validity windows, so
//! searches with stale capabilities stop seeing new data.
//!
//! [`Simulation::run`] returns a [`SimReport`] with per-operation counts
//! and wall-clock totals, giving a workload-level view the
//! per-operation benchmarks cannot (e.g. ingest latency including the
//! proxy hop, match rates under realistic queries, denial rates).

pub mod chaos_net;
pub mod framed;
pub mod hydrate;
pub mod overload;
pub mod shard;

use apks_authz::{
    AttributeDirectory, AuthzError, Eligibility, EligibilityRules, Lta, TrustedAuthority,
};
use apks_cloud::CloudServer;
use apks_core::fault::{FaultConfig, FaultContext, FaultPlan, RetryPolicy, VirtualClock};
use apks_core::revocation::{with_period, Date};
use apks_core::{ApksSystem, Budget, Deadline, FieldValue, Query, QueryPolicy, Record};
use apks_curve::CurveParams;
use apks_dataset::phr::{phr_schema, PhrConfig, ILLNESSES, PHR_EPOCH, PROVIDERS, REGIONS};
use apks_proxy::ProxyChain;
use apks_telemetry::{Clock, MetricsRegistry, MetricsSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulation knobs.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of data owners (patients uploading records).
    pub owners: usize,
    /// Number of searching users.
    pub users: usize,
    /// Simulated days.
    pub days: usize,
    /// Record uploads per day (spread across owners).
    pub uploads_per_day: usize,
    /// Capability requests + searches per day.
    pub queries_per_day: usize,
    /// APKS⁺ mode with this many proxies (0 = plain APKS).
    pub proxies: usize,
    /// Standby replicas per proxy stage (share-replicated failover
    /// targets; only meaningful with `proxies > 0`).
    pub proxy_standbys: usize,
    /// RNG seed.
    pub seed: u64,
    /// Deterministic fault schedule; `None` runs fault-free.
    pub faults: Option<FaultConfig>,
    /// Retry/backoff budget used when faults are injected.
    pub retry: RetryPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            owners: 8,
            users: 6,
            days: 5,
            uploads_per_day: 3,
            queries_per_day: 3,
            proxies: 0,
            proxy_standbys: 0,
            seed: 1,
            faults: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// Aggregated outcome of a run.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Records uploaded (and proxy-transformed in APKS⁺ mode).
    pub uploads: usize,
    /// Capability requests denied by the attribute check.
    pub denied: usize,
    /// Capabilities issued (signed).
    pub issued: usize,
    /// Searches executed.
    pub searches: usize,
    /// Total (index, capability) match events.
    pub matches: usize,
    /// Indexes scanned across all searches.
    pub scanned: usize,
    /// Searches run with an expired window (must match nothing new).
    pub stale_searches: usize,
    /// Searches that had to skip faulted documents.
    pub degraded_searches: usize,
    /// Documents skipped across all searches (each one also counted in
    /// the per-search `SearchStats`, never silently dropped).
    pub faulted_docs: usize,
    /// Evaluation retries performed by degraded scans.
    pub search_retries: usize,
    /// Proxy transform retries performed by resilient ingest.
    pub ingest_retries: usize,
    /// Standby activations after a primary proxy exhausted its budget.
    pub ingest_failovers: usize,
    /// Uploads that never reached the store: the proxy stage stayed
    /// unavailable through primary + standbys.
    pub unavailable_uploads: usize,
    /// Upload attempts dropped in flight (each retried).
    pub dropped_uploads: usize,
    /// Uploads lost for good after the drop-retry budget ran out.
    pub lost_uploads: usize,
    /// Final virtual-clock reading (total backoff + injected latency).
    pub virtual_ticks: u64,
    /// Each search's sorted match set, in execution order — the ground
    /// truth the chaos suite compares across runs.
    pub search_hits: Vec<Vec<u64>>,
    /// The deployment-wide metrics snapshot: cloud scan counters and
    /// latency histograms, per-client proxy counts, and the sim's own
    /// mirrors. All timings are charged to the virtual clock, so this is
    /// deterministic and part of [`SimReport::canonical_bytes`].
    pub metrics: MetricsSnapshot,
    /// Wall-clock spent encrypting + ingesting.
    pub ingest_time: Duration,
    /// Wall-clock spent issuing capabilities.
    pub issue_time: Duration,
    /// Wall-clock spent searching.
    pub search_time: Duration,
}

impl SimReport {
    /// Mean per-index search time across the run.
    pub fn per_index_search(&self) -> Duration {
        if self.scanned == 0 {
            Duration::ZERO
        } else {
            self.search_time / self.scanned as u32
        }
    }

    /// Mean ingest time per record (encrypt + proxy + upload).
    pub fn per_upload(&self) -> Duration {
        if self.uploads == 0 {
            Duration::ZERO
        } else {
            self.ingest_time / self.uploads as u32
        }
    }

    /// Canonical byte encoding of every *deterministic* field — all
    /// counters and every search's match set, in a fixed order, as
    /// little-endian `u64`s. Wall-clock durations are excluded by
    /// design: they are the only nondeterministic fields, and the chaos
    /// suite asserts byte-identity of this encoding across same-seed
    /// runs.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let counters = [
            self.uploads as u64,
            self.denied as u64,
            self.issued as u64,
            self.searches as u64,
            self.matches as u64,
            self.scanned as u64,
            self.stale_searches as u64,
            self.degraded_searches as u64,
            self.faulted_docs as u64,
            self.search_retries as u64,
            self.ingest_retries as u64,
            self.ingest_failovers as u64,
            self.unavailable_uploads as u64,
            self.dropped_uploads as u64,
            self.lost_uploads as u64,
            self.virtual_ticks,
            self.search_hits.len() as u64,
        ];
        for v in counters {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for hits in &self.search_hits {
            out.extend_from_slice(&(hits.len() as u64).to_le_bytes());
            for &id in hits {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        out.extend_from_slice(&self.metrics.canonical_bytes());
        out
    }
}

struct SimUser {
    name: String,
    illness: &'static str,
    /// physicians may query any illness; patients only their own
    physician: bool,
}

/// The simulation driver.
pub struct Simulation {
    config: SimConfig,
    system: ApksSystem,
    ta: TrustedAuthority,
    ltas: Vec<Lta>,
    server: CloudServer,
    chain: Option<ProxyChain>,
    users: Vec<SimUser>,
    rng: StdRng,
    plan: Option<FaultPlan>,
    clock: Arc<VirtualClock>,
    metrics: Arc<MetricsRegistry>,
}

impl Simulation {
    /// Builds the whole deployment (setup, LTA provisioning, server
    /// registration, proxy provisioning).
    ///
    /// # Errors
    ///
    /// Propagates setup failures (none for valid configs).
    pub fn new(config: SimConfig) -> Result<Simulation, AuthzError> {
        let schema = phr_schema(&PhrConfig::default())?;
        let system = ApksSystem::new(CurveParams::fast(), schema);
        let mut rng = StdRng::seed_from_u64(config.seed);
        // one registry and one virtual clock for the whole deployment:
        // the server and every proxy record into the same snapshot, and
        // all timings are virtual, so same-seed runs reproduce the
        // snapshot byte for byte
        let metrics = Arc::new(MetricsRegistry::new());
        let clock = Arc::new(VirtualClock::new());

        let plus = config.proxies > 0;
        // TrustedAuthority::setup runs plain Setup internally; for APKS⁺
        // we need the blinded variant, so assemble manually.
        let (ta, chain) = if plus {
            let (pk, mk) = system.setup_plus(&mut rng);
            let chain = ProxyChain::provision_replicated_with_metrics(
                &mk,
                config.proxies,
                config.proxy_standbys,
                10_000,
                1_000_000,
                Arc::clone(&metrics),
                &mut rng,
            );
            let ta = TrustedAuthority::from_parts(system.clone(), pk, mk.inner, &mut rng);
            (ta, Some(chain))
        } else {
            (TrustedAuthority::setup(system.clone(), &mut rng), None)
        };
        let mut ta = ta;

        // users: half patients (own-illness only), half physicians
        let users: Vec<SimUser> = (0..config.users)
            .map(|i| SimUser {
                name: format!("user-{i}"),
                illness: ILLNESSES[i % ILLNESSES.len()],
                physician: i % 2 == 1,
            })
            .collect();

        // one LTA per provider, directory covering all users
        let mut ltas = Vec::new();
        for provider in PROVIDERS {
            let mut dir = AttributeDirectory::new();
            for u in &users {
                dir.register_user(u.name.clone(), [("illness", FieldValue::text(u.illness))]);
            }
            let rules = EligibilityRules::with_default(Eligibility::AnyValue)
                .set("illness", Eligibility::OwnsValue);
            let lta = ta.register_lta(
                format!("lta:{provider}"),
                &Query::new().equals("provider", provider),
                dir,
                rules,
                QueryPolicy::permissive(),
                &mut rng,
            )?;
            ltas.push(lta);
        }

        let server = CloudServer::with_telemetry(
            ta.system().clone(),
            ta.public_key().clone(),
            ta.ibs_params().clone(),
            Arc::clone(&metrics),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        for lta in &ltas {
            server.register_authority(lta.id());
        }

        let plan = config.faults.clone().map(FaultPlan::new);
        Ok(Simulation {
            config,
            system: ta.system().clone(),
            ta,
            ltas,
            server,
            chain,
            users,
            rng,
            plan,
            clock,
            metrics,
        })
    }

    fn random_record(&mut self, day: usize) -> Record {
        let date = date_of_day(day);
        let age = self.rng.gen_range(0..128i64);
        let sex = if self.rng.gen_bool(0.5) {
            "female"
        } else {
            "male"
        };
        let region = REGIONS[self.rng.gen_range(0..REGIONS.len())];
        let illness = ILLNESSES[self.rng.gen_range(0..ILLNESSES.len())];
        let provider = PROVIDERS[self.rng.gen_range(0..PROVIDERS.len())];
        Record::new(vec![
            FieldValue::num(age),
            FieldValue::text(sex),
            FieldValue::text(region),
            FieldValue::text(illness),
            FieldValue::text(provider),
            apks_core::revocation::time_value(date, PHR_EPOCH),
        ])
    }

    /// Runs the configured number of days and returns the report.
    ///
    /// # Errors
    ///
    /// Propagates unexpected crypto/protocol failures (authorization
    /// denials are counted, not raised).
    pub fn run(mut self) -> Result<SimReport, AuthzError> {
        let mut report = SimReport::default();
        let pk = self.ta.public_key().clone();
        let mut upload_op: u64 = 0;
        for day in 0..self.config.days {
            // ---- uploads ------------------------------------------------
            for u in 0..self.config.uploads_per_day {
                let owner = format!("owner-{}", (day + u) % self.config.owners);
                let record = self.random_record(day);
                let op = upload_op;
                upload_op += 1;
                let t = Instant::now();
                let mut idx = self.system.gen_index(&pk, &record, &mut self.rng)?;
                report.uploads += 1;
                self.metrics.add("sim.uploads", 1);
                // proxy hop — resilient when a fault schedule is active
                if let Some(chain) = &self.chain {
                    match &self.plan {
                        Some(plan) => {
                            let ctx = FaultContext::new(plan, &self.config.retry, &self.clock);
                            match chain.ingest_resilient(&self.system, &owner, &idx, &ctx, op) {
                                Ok((full, stats)) => {
                                    idx = full;
                                    report.ingest_retries += stats.retries as usize;
                                    report.ingest_failovers += stats.failovers as usize;
                                }
                                Err(apks_proxy::ProxyError::Unavailable { .. }) => {
                                    // the record never becomes searchable;
                                    // counted, not hidden
                                    report.unavailable_uploads += 1;
                                    report.ingest_time += t.elapsed();
                                    continue;
                                }
                                Err(e) => {
                                    panic!("simulated owners stay under the rate limit: {e}")
                                }
                            }
                        }
                        None => {
                            idx = chain
                                .ingest(&self.system, &owner, day as u64, &idx)
                                .expect("simulated owners stay under the rate limit");
                        }
                    }
                }
                // cloud upload — dropped attempts are retried with backoff
                let stored = match &self.plan {
                    Some(plan) => {
                        let retry = &self.config.retry;
                        let mut stored = false;
                        for attempt in 0..retry.max_attempts {
                            if plan.upload_dropped(op, attempt) {
                                report.dropped_uploads += 1;
                                if attempt + 1 < retry.max_attempts {
                                    self.clock.advance(retry.backoff(attempt, op));
                                }
                                continue;
                            }
                            stored = true;
                            break;
                        }
                        stored
                    }
                    None => true,
                };
                if stored {
                    self.server.upload(idx);
                } else {
                    report.lost_uploads += 1;
                }
                report.ingest_time += t.elapsed();
            }

            // ---- capability requests + searches -------------------------
            for q in 0..self.config.queries_per_day {
                let user_idx = (day * self.config.queries_per_day + q) % self.users.len();
                let lta_idx = self.rng.gen_range(0..self.ltas.len());
                // patients sometimes try to probe other illnesses — those
                // requests must be denied
                let (user, query, stale) = self.make_query(user_idx, day);
                let lta = &self.ltas[lta_idx];
                let t = Instant::now();
                match lta.request_capability(&self.system, &pk, &user, &query, &mut self.rng) {
                    Ok(cap) => {
                        report.issue_time += t.elapsed();
                        report.issued += 1;
                        self.metrics.add("sim.capabilities_issued", 1);
                        let t = Instant::now();
                        let (hits, stats) = match &self.plan {
                            Some(plan) => {
                                let ctx = FaultContext::new(plan, &self.config.retry, &self.clock);
                                let d = self
                                    .server
                                    .search_bounded(
                                        &cap,
                                        &ctx,
                                        Deadline::NEVER,
                                        &Budget::unlimited(),
                                        0,
                                    )
                                    .expect("registered issuer");
                                if d.stats.degraded {
                                    report.degraded_searches += 1;
                                }
                                report.faulted_docs += d.stats.faulted_docs;
                                report.search_retries += d.stats.retries;
                                (d.matches, d.stats)
                            }
                            None => self.server.search(&cap).expect("registered issuer"),
                        };
                        report.search_time += t.elapsed();
                        report.searches += 1;
                        self.metrics.add("sim.searches", 1);
                        report.scanned += stats.scanned;
                        report.matches += hits.len();
                        if stale {
                            report.stale_searches += 1;
                            // a window entirely in the past cannot match
                            // anything uploaded during the run
                            assert!(hits.is_empty(), "stale capability must not see fresh data");
                        }
                        report.search_hits.push(hits);
                    }
                    Err(AuthzError::NotEligible { .. }) => {
                        report.denied += 1;
                        self.metrics.add("sim.capabilities_denied", 1);
                    }
                    Err(e @ AuthzError::Apks(_)) => return Err(e),
                }
            }
        }
        report.virtual_ticks = self.clock.now();
        report.metrics = self.metrics.snapshot();
        Ok(report)
    }

    /// Builds a user's query for the day. Returns
    /// `(user name, query, is_stale_window)`.
    fn make_query(&mut self, user_idx: usize, day: usize) -> (String, Query, bool) {
        let user = &self.users[user_idx];
        let name = user.name.clone();
        // physicians probe a random illness (AnyValue would be needed; the
        // rules say OwnsValue for illness, so these become denials unless
        // it happens to be their own) — this generates the denial traffic
        let illness = if user.physician && self.rng.gen_bool(0.5) {
            ILLNESSES[self.rng.gen_range(0..ILLNESSES.len())]
        } else {
            user.illness
        };
        let q = Query::new().equals("illness", illness);
        // 1 in 4 queries use last year's window (stale); others use a
        // window covering the whole simulated period
        let stale = self.rng.gen_bool(0.25);
        // stale = a January-only window; uploads start in February
        let (from, to) = if stale {
            (Date::new(PHR_EPOCH, 1, 1), Date::new(PHR_EPOCH, 1, 28))
        } else {
            (Date::new(PHR_EPOCH, 1, 1), Date::new(PHR_EPOCH + 1, 12, 28))
        };
        let _ = day;
        let q = with_period(q, from, to, PHR_EPOCH).expect("valid period");
        (name, q, stale)
    }
}

/// Maps a simulated day to a calendar date (epoch January, 28-day months).
fn date_of_day(day: usize) -> Date {
    let month = 2 + (day / 28) as i64; // uploads start in February
    let dom = 1 + (day % 28) as i64;
    Date::new(PHR_EPOCH, month.min(12), dom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_simulation_runs_consistently() {
        let report = Simulation::new(SimConfig {
            days: 3,
            uploads_per_day: 2,
            queries_per_day: 2,
            ..SimConfig::default()
        })
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(report.uploads, 6);
        assert_eq!(report.issued + report.denied, 6);
        assert!(report.searches == report.issued);
        // every search scanned everything stored at its moment
        assert!(report.scanned >= report.searches);
        assert!(report.per_upload() > Duration::ZERO);
    }

    #[test]
    fn plus_simulation_transforms_and_matches() {
        let report = Simulation::new(SimConfig {
            days: 2,
            uploads_per_day: 2,
            queries_per_day: 2,
            proxies: 2,
            seed: 7,
            ..SimConfig::default()
        })
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(report.uploads, 4);
        // stale-window assertion inside run() also guards correctness
        assert!(report.issued + report.denied == 4);
    }

    #[test]
    fn faulted_simulation_accounts_and_stays_deterministic() {
        let cfg = SimConfig {
            days: 2,
            uploads_per_day: 2,
            queries_per_day: 2,
            proxies: 2,
            proxy_standbys: 1,
            seed: 9,
            faults: Some(apks_core::fault::FaultConfig {
                seed: 9,
                proxy_timeout_permille: 300,
                transform_error_permille: 200,
                poisoned_doc_permille: 200,
                flaky_doc_permille: 200,
                slow_doc_permille: 200,
                drop_upload_permille: 200,
                max_fault_burst: 2,
                ..apks_core::fault::FaultConfig::default()
            }),
            ..SimConfig::default()
        };
        let a = Simulation::new(cfg.clone()).unwrap().run().unwrap();
        let b = Simulation::new(cfg).unwrap().run().unwrap();
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        assert_eq!(a.uploads, 4);
        // bursts (≤2) stay under the retry budget (4): nothing is lost
        assert_eq!(a.lost_uploads, 0);
        assert_eq!(a.unavailable_uploads, 0);
        assert!(a.virtual_ticks > 0, "faults must charge the virtual clock");
    }

    #[test]
    fn metrics_snapshot_mirrors_report_counters() {
        let report = Simulation::new(SimConfig {
            days: 2,
            uploads_per_day: 2,
            queries_per_day: 2,
            proxies: 2,
            seed: 7,
            ..SimConfig::default()
        })
        .unwrap()
        .run()
        .unwrap();
        let m = &report.metrics;
        assert_eq!(m.counter("sim.uploads"), Some(report.uploads as u64));
        assert_eq!(m.counter("sim.searches"), Some(report.searches as u64));
        assert_eq!(
            m.counter("sim.capabilities_issued"),
            Some(report.issued as u64)
        );
        assert_eq!(
            m.counter("sim.capabilities_denied").unwrap_or(0),
            report.denied as u64
        );
        assert_eq!(m.counter("cloud.scans"), Some(report.searches as u64));
        assert_eq!(m.counter("cloud.scan.docs"), Some(report.scanned as u64));
        assert_eq!(m.counter("cloud.scan.matches"), Some(report.matches as u64));
        // every scanned document costs exactly n+3 pairings
        let schema = phr_schema(&PhrConfig::default()).unwrap();
        let n0 = (ApksSystem::new(CurveParams::fast(), schema).n() + 3) as u64;
        assert_eq!(
            m.counter("cloud.scan.pairings"),
            Some(report.scanned as u64 * n0)
        );
        // every upload crossed both proxy stages exactly once
        let transforms: u64 = m
            .entries()
            .iter()
            .filter(|(name, _)| name.starts_with("proxy.transforms."))
            .filter_map(|(name, _)| m.counter(name))
            .sum();
        assert_eq!(transforms, report.uploads as u64 * 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SimConfig {
            days: 2,
            uploads_per_day: 1,
            queries_per_day: 2,
            seed: 42,
            ..SimConfig::default()
        };
        let a = Simulation::new(cfg.clone()).unwrap().run().unwrap();
        let b = Simulation::new(cfg).unwrap().run().unwrap();
        assert_eq!(a.uploads, b.uploads);
        assert_eq!(a.issued, b.issued);
        assert_eq!(a.denied, b.denied);
        assert_eq!(a.matches, b.matches);
    }
}
