//! The overload scenario driven through the **framed client/server
//! protocol**: every admitted search crosses the duplex transport as
//! canonical `apks-wire` bytes instead of calling the server in
//! process.
//!
//! Admission decisions stay in the event loop — a shed request never
//! reaches the wire, exactly as a front-end load shedder refuses before
//! proxying — so at [`TransportCost::FREE`] the request ledger is
//! byte-identical to [`run_overload`](crate::overload::run_overload)'s:
//! the serialization layer must be a *transparent* transport. With a
//! non-zero cost, the transport charges the shared virtual clock per
//! frame and per byte, and network time starts counting against each
//! request's deadline, which is the experiment `apks sim framed` runs.

use crate::overload::{
    build_world, OverloadConfig, OverloadReport, RequestOutcome, RequestRecord, World,
};
use apks_authz::AuthzError;
use apks_client::{duplex, ApksClient, ServerEndpoint, TransportCost};
use apks_cloud::{AdmissionController, AdmissionDecision, ShedReason};
use apks_core::fault::{FaultConfig, FaultPlan};
use apks_curve::CurveParams;
use apks_wire::WireCtx;
use std::collections::VecDeque;
use std::sync::Arc;

/// An [`OverloadReport`] plus the wire-level ledger of the framed run.
#[derive(Clone, Debug)]
pub struct FramedOverloadReport {
    /// The scenario report (same shape as the in-process run's).
    pub report: OverloadReport,
    /// Request frames sent by the client.
    pub frames_sent: u64,
    /// Wire bytes (frame headers included) sent by the client.
    pub bytes_sent: u64,
    /// Response frames received by the client.
    pub frames_received: u64,
    /// Wire bytes received by the client.
    pub bytes_received: u64,
    /// SHA-256 over every request frame, in order.
    pub request_digest: [u8; 32],
    /// SHA-256 over every response frame, in order.
    pub response_digest: [u8; 32],
}

impl FramedOverloadReport {
    /// Canonical bytes: the report's plus the wire ledger. Same-seed
    /// framed runs must reproduce this byte for byte — including both
    /// frame digests, i.e. every wire byte in both directions.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = self.report.canonical_bytes();
        for v in [
            self.frames_sent,
            self.bytes_sent,
            self.frames_received,
            self.bytes_received,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.request_digest);
        out.extend_from_slice(&self.response_digest);
        out
    }
}

/// Runs the overload scenario with every admitted search crossing the
/// framed transport at the given [`TransportCost`].
///
/// # Errors
///
/// Propagates setup/issuance failures (none for valid configs).
///
/// # Panics
///
/// Panics if the protocol itself fails (decode error, dead stream):
/// the simulation only sends well-formed requests, so any wire failure
/// is a codec bug the run must not paper over.
pub fn run_overload_framed(
    config: &OverloadConfig,
    cost: TransportCost,
) -> Result<FramedOverloadReport, AuthzError> {
    let World {
        server,
        chain,
        catalog,
        schedule,
        docs_stored,
        metrics,
        clock,
        retry,
    } = build_world(config)?;

    // -- wire the deployment behind the framed protocol -----------------
    let server = Arc::new(server);
    let ctx = WireCtx::new(CurveParams::fast());
    let (client_end, server_end) = duplex(Arc::clone(&clock), cost);
    let mut client = ApksClient::new(ctx.clone(), client_end);
    let mut endpoint = ServerEndpoint::new(
        ctx,
        Arc::clone(&server),
        server_end,
        FaultPlan::new(FaultConfig::default()),
        retry,
        Arc::clone(&clock),
    );

    let admission = AdmissionController::new(config.admission, Arc::clone(&metrics));
    let shed_hist = metrics.histogram("overload.time_to_shed");
    let latency_hist = metrics.histogram("overload.scan_latency");

    let mut report = OverloadReport {
        arrivals: config.arrivals,
        docs_stored,
        ..OverloadReport::default()
    };
    let mut inflight: VecDeque<(u64, u64)> = VecDeque::new();
    for (i, &(tick, entry)) in schedule.iter().enumerate() {
        let id = i as u64;
        while let Some(&(finish, done)) = inflight.front() {
            if finish > tick {
                break;
            }
            admission.complete(done);
            inflight.pop_front();
        }
        if clock.now() < tick {
            clock.advance(tick - clock.now());
        }
        clock.advance(config.admission_cost_ticks);
        let entry = &catalog[entry];
        let outcome = match admission.offer(id, entry.class) {
            AdmissionDecision::Shed { reason } => {
                shed_hist.record(config.admission_cost_ticks);
                match reason {
                    ShedReason::QueueFull => {
                        report.shed_queue_full += 1;
                        RequestOutcome::ShedQueueFull
                    }
                    ShedReason::Brownout { level } => {
                        report.shed_brownout += 1;
                        report.max_brownout_level = report.max_brownout_level.max(level);
                        RequestOutcome::ShedBrownout { level }
                    }
                }
            }
            AdmissionDecision::Admitted {
                brownout_level,
                displaced,
            } => {
                report.max_brownout_level = report.max_brownout_level.max(brownout_level);
                if let Some(d) = displaced {
                    report.displaced += 1;
                    inflight.retain(|&(_, q)| q != d);
                }
                report.admitted += 1;
                let expires_at = if config.deadline_ticks == u64::MAX {
                    u64::MAX
                } else {
                    tick.saturating_add(config.deadline_ticks)
                };
                let resp = client
                    .search(
                        &mut endpoint,
                        &entry.cap,
                        expires_at,
                        config.pairing_budget,
                        config.doc_cost_ticks,
                    )
                    .expect("well-formed request over a live stream");
                report.deadline_expired += usize::from(resp.stats.deadline_expired());
                report.budget_exhausted += usize::from(resp.stats.budget_exhausted());
                report.unscanned_docs += resp.stats.unscanned_docs as usize;
                latency_hist.record(clock.now().saturating_sub(tick));
                inflight.push_back((clock.now(), id));
                RequestOutcome::Completed {
                    hits: resp.matches,
                    deadline_expired: resp.stats.deadline_expired(),
                    budget_exhausted: resp.stats.budget_exhausted(),
                }
            }
        };
        report.requests.push(RequestRecord {
            id,
            arrival: tick,
            class: entry.label,
            outcome,
        });
    }

    report.virtual_ticks = clock.now();
    report.breaker_states = chain
        .breaker_states(clock.now())
        .into_iter()
        .map(|(id, state)| (id, state.label()))
        .collect();
    report.metrics = metrics.snapshot();

    let client_stats = client.transport_stats();
    Ok(FramedOverloadReport {
        request_digest: client.sent_digest(),
        response_digest: endpoint.sent_digest(),
        frames_sent: client_stats.frames_sent,
        bytes_sent: client_stats.bytes_sent,
        frames_received: client_stats.frames_received,
        bytes_received: client_stats.bytes_received,
        report,
    })
}
