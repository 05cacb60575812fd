//! End-to-end framed protocol: a real deployment behind a
//! [`ServerEndpoint`], driven by [`ApksClient`] over the duplex
//! transport — every request and response crosses as bytes.

use apks_authz::TrustedAuthority;
use apks_client::{duplex, ApksClient, ServerEndpoint, TransportCost};
use apks_cloud::CloudServer;
use apks_core::fault::{FaultConfig, FaultPlan, RetryPolicy, VirtualClock};
use apks_core::keyword::FieldValue;
use apks_core::{ApksSystem, Query, QueryPolicy, Record, Schema};
use apks_curve::CurveParams;
use apks_wire::protocol::ERR_DECODE;
use apks_wire::{Wire, WireCtx};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn harness() -> (ApksClient, ServerEndpoint, TrustedAuthority, StdRng) {
    let schema = Schema::builder()
        .flat_field("illness", 1)
        .flat_field("sex", 1)
        .build()
        .unwrap();
    let sys = ApksSystem::new(CurveParams::fast(), schema);
    let mut rng = StdRng::seed_from_u64(4200);
    let ta = TrustedAuthority::setup(sys, &mut rng);
    let server = Arc::new(CloudServer::new(
        ta.system().clone(),
        ta.public_key().clone(),
        ta.ibs_params().clone(),
    ));
    server.register_authority("ta");
    let clock = Arc::new(VirtualClock::new());
    let ctx = WireCtx::new(CurveParams::fast());
    let (client_end, server_end) = duplex(
        clock.clone(),
        TransportCost {
            ticks_per_frame: 3,
            ticks_per_byte: 1,
        },
    );
    let client = ApksClient::new(ctx.clone(), client_end);
    let endpoint = ServerEndpoint::new(
        ctx,
        server,
        server_end,
        FaultPlan::new(FaultConfig::default()),
        RetryPolicy::default(),
        clock,
    );
    (client, endpoint, ta, rng)
}

#[test]
fn full_protocol_round_trip() {
    let (mut client, mut endpoint, ta, mut rng) = harness();
    client.ping(&mut endpoint).unwrap();

    // upload a corpus through the wire
    let sys = ta.system();
    let pk = ta.public_key();
    let records: Vec<_> = [
        ("flu", "female"),
        ("flu", "male"),
        ("diabetes", "female"),
        ("cancer", "male"),
    ]
    .into_iter()
    .map(|(illness, sex)| {
        let rec = Record::new(vec![FieldValue::text(illness), FieldValue::text(sex)]);
        sys.gen_index(pk, &rec, &mut rng).unwrap()
    })
    .collect();
    let ids = client.upload(&mut endpoint, "owner-a", records).unwrap();
    assert_eq!(ids, vec![0, 1, 2, 3], "batch ids are contiguous");
    assert_eq!(endpoint.server().len(), 4);

    // a framed search agrees with a direct server call
    let cap = ta
        .issue_capability(
            &Query::new().equals("illness", "flu"),
            &QueryPolicy::default(),
            &mut rng,
        )
        .unwrap();
    let (direct, _) = endpoint.server().search(&cap).unwrap();
    let resp = client
        .search(&mut endpoint, &cap, u64::MAX, u64::MAX, 0)
        .unwrap();
    assert_eq!(resp.matches, direct);
    assert_eq!(resp.stats.matched as usize, direct.len());
    assert!(!resp.stats.degraded());
    assert!(resp.faulted.is_empty());
    assert!(resp.unscanned.is_empty());

    // metrics cross the wire and include the protocol's own counters
    let snap = client.metrics(&mut endpoint).unwrap();
    assert_eq!(snap.counter("wire.server.frames"), Some(4));
    assert_eq!(snap.counter("wire.server.decode_errors"), None);
}

#[test]
fn bounded_search_degrades_over_the_wire() {
    let (mut client, mut endpoint, ta, mut rng) = harness();
    let sys = ta.system();
    let pk = ta.public_key();
    let records: Vec<_> = (0..5)
        .map(|_| {
            let rec = Record::new(vec![FieldValue::text("flu"), FieldValue::text("female")]);
            sys.gen_index(pk, &rec, &mut rng).unwrap()
        })
        .collect();
    client.upload(&mut endpoint, "owner-a", records).unwrap();
    let cap = ta
        .issue_capability(
            &Query::new().equals("illness", "flu"),
            &QueryPolicy::default(),
            &mut rng,
        )
        .unwrap();
    // pairing budget for exactly two documents
    let n0 = (ta.system().n() + 3) as u64;
    let resp = client
        .search(&mut endpoint, &cap, u64::MAX, 2 * n0, 1)
        .unwrap();
    assert_eq!(resp.stats.scanned, 2);
    assert!(resp.stats.budget_exhausted());
    assert!(resp.stats.degraded());
    assert_eq!(resp.unscanned.len(), 3);
}

#[test]
fn malformed_request_answered_with_error_and_connection_survives() {
    let (mut client, mut endpoint, _ta, _rng) = harness();
    // a well-framed but garbage payload: strict decode fails, the
    // server answers Error instead of dying
    use apks_wire::{Request, Response};
    let ctx = WireCtx::new(CurveParams::fast());
    let mut bytes = Request::Ping.to_bytes(&ctx);
    bytes[2] = 0x66; // unknown variant
    match client.call_raw(&mut endpoint, &bytes).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ERR_DECODE),
        other => panic!("expected decode error, got {other:?}"),
    }
    assert!(endpoint.dead().is_none(), "stream survives a bad payload");

    // the same connection still serves real requests afterwards
    client.ping(&mut endpoint).unwrap();
    let snap = client.metrics(&mut endpoint).unwrap();
    assert_eq!(snap.counter("wire.server.decode_errors"), Some(1));
}

/// As [`harness`], but the duplex link runs a seeded [`LinkFaultPlan`].
fn harness_faulty(
    link: apks_client::LinkFaultConfig,
) -> (ApksClient, ServerEndpoint, TrustedAuthority, StdRng) {
    use apks_client::{duplex_faulty, LinkFaultPlan};
    let schema = Schema::builder()
        .flat_field("illness", 1)
        .flat_field("sex", 1)
        .build()
        .unwrap();
    let sys = ApksSystem::new(CurveParams::fast(), schema);
    let mut rng = StdRng::seed_from_u64(4300);
    let ta = TrustedAuthority::setup(sys, &mut rng);
    let server = Arc::new(CloudServer::new(
        ta.system().clone(),
        ta.public_key().clone(),
        ta.ibs_params().clone(),
    ));
    server.register_authority("ta");
    let clock = Arc::new(VirtualClock::new());
    let ctx = WireCtx::new(CurveParams::fast());
    let (client_end, server_end) =
        duplex_faulty(clock.clone(), TransportCost::FREE, LinkFaultPlan::new(link));
    let client = ApksClient::new(ctx.clone(), client_end);
    let endpoint = ServerEndpoint::new(
        ctx,
        server,
        server_end,
        FaultPlan::new(FaultConfig::default()),
        RetryPolicy::default(),
        clock,
    );
    (client, endpoint, ta, rng)
}

#[test]
fn duplicated_ingest_frames_apply_exactly_once() {
    // every frame is delivered twice: the server sees each upload
    // request two times and must dedup the second by (owner, seq)
    let link = apks_client::LinkFaultConfig {
        seed: 1,
        duplicate_permille: 1000,
        ..apks_client::LinkFaultConfig::default()
    };
    let (mut client, mut endpoint, ta, mut rng) = harness_faulty(link);
    let sys = ta.system();
    let pk = ta.public_key();
    let policy = RetryPolicy::default();
    for batch in 0..3 {
        let records: Vec<_> = (0..2)
            .map(|_| {
                let rec = Record::new(vec![FieldValue::text("flu"), FieldValue::text("male")]);
                sys.gen_index(pk, &rec, &mut rng).unwrap()
            })
            .collect();
        let ids = client
            .upload_resilient(&mut endpoint, "owner-a", records, &policy)
            .unwrap();
        assert_eq!(ids, vec![batch * 2, batch * 2 + 1]);
    }
    // exactly-once: 3 batches of 2 → 6 documents, despite 2× delivery
    assert_eq!(endpoint.server().len(), 6);
    let snap = endpoint.server().metrics_snapshot();
    assert_eq!(
        snap.counter("wire.server.dedup_hits"),
        Some(3),
        "each duplicated upload frame must hit the dedup window"
    );
}

#[test]
fn dedup_window_keeps_exactly_the_last_256_batches() {
    use apks_client::endpoint::DEDUP_WINDOW;
    use apks_wire::{IngestBatch, Request, Response};

    let (mut client, mut endpoint, ta, mut rng) = harness();
    let (sys, pk) = (ta.system(), ta.public_key());
    let mut upload = |seq: u64, records| {
        let batch = IngestBatch {
            owner: "owner-a".into(),
            seq,
            records,
        };
        match client.call(&mut endpoint, &Request::Upload(batch)).unwrap() {
            Response::Uploaded { ids } => (ids, endpoint.server().len()),
            other => panic!("seq {seq}: expected Uploaded, got {other:?}"),
        }
    };
    let index = |rng: &mut StdRng| {
        let rec = Record::new(vec![FieldValue::text("flu"), FieldValue::text("male")]);
        vec![sys.gen_index(pk, &rec, rng).unwrap()]
    };
    let (oldest, second) = (index(&mut rng), index(&mut rng));

    assert_eq!(upload(0, oldest.clone()), (vec![0], 1));
    // 256 newer batches: the second-oldest, then empty ones as padding
    assert_eq!(upload(1, second.clone()), (vec![1], 2));
    for seq in 2..=DEDUP_WINDOW as u64 {
        assert_eq!(upload(seq, Vec::new()), (vec![], 2));
    }

    // the second-oldest batch is still in the window: a dedup hit with
    // its original ids, nothing applied
    assert_eq!(upload(1, second), (vec![1], 2));
    // the oldest fell out of the window: applied again, with a new id
    assert_eq!(upload(0, oldest), (vec![2], 3));

    let snap = endpoint.server().metrics_snapshot();
    assert_eq!(snap.counter("wire.server.dedup_hits"), Some(1));
}

#[test]
fn resilient_calls_survive_a_lossy_link() {
    // drop + corrupt + truncate at meaningful rates: bare calls would
    // die, resilient calls reconnect and recover
    let link = apks_client::LinkFaultConfig {
        seed: 9,
        drop_permille: 200,
        corrupt_permille: 150,
        truncate_permille: 100,
        duplicate_permille: 100,
        delay_permille: 200,
        delay_ticks: 11,
    };
    let (mut client, mut endpoint, ta, mut rng) = harness_faulty(link);
    let sys = ta.system();
    let pk = ta.public_key();
    let policy = RetryPolicy::new(8, 2, 16, 3).with_jitter_seed(42);
    let mut expected_flu = Vec::new();
    for i in 0..6u64 {
        let illness = if i % 2 == 0 { "flu" } else { "cancer" };
        let rec = Record::new(vec![FieldValue::text(illness), FieldValue::text("male")]);
        let records = vec![sys.gen_index(pk, &rec, &mut rng).unwrap()];
        let ids = client
            .upload_resilient(&mut endpoint, "owner-a", records, &policy)
            .unwrap();
        assert_eq!(ids.len(), 1);
        if illness == "flu" {
            expected_flu.push(ids[0]);
        }
    }
    assert_eq!(endpoint.server().len(), 6, "exactly-once under loss");

    let cap = ta
        .issue_capability(
            &Query::new().equals("illness", "flu"),
            &QueryPolicy::default(),
            &mut rng,
        )
        .unwrap();
    let resp = client
        .search_resilient(&mut endpoint, &cap, u64::MAX, u64::MAX, 0, &policy)
        .unwrap();
    assert_eq!(resp.matches, expected_flu, "hits survive the lossy link");
    assert!(
        client.reconnects() > 0,
        "this seed must actually exercise reconnects"
    );
}

#[test]
fn reconnect_revives_a_framing_dead_stream() {
    // heavy corruption: sooner or later a header byte is hit and the
    // server's framing dies; the resilient path must reconnect through
    // it and keep answering
    let link = apks_client::LinkFaultConfig {
        seed: 4,
        corrupt_permille: 350,
        ..apks_client::LinkFaultConfig::default()
    };
    let (mut client, mut endpoint, _ta, _rng) = harness_faulty(link);
    let policy = RetryPolicy::new(10, 1, 8, 2).with_jitter_seed(7);
    // enough pings that some frame corrupts a header byte eventually;
    // the resilient path must keep succeeding throughout
    for _ in 0..20 {
        client
            .call_resilient(
                &mut endpoint,
                &apks_wire::Request::Ping,
                &policy,
                0,
                |resp| matches!(resp, apks_wire::Response::Pong),
            )
            .unwrap();
    }
    let snap = endpoint.server().metrics_snapshot();
    let resets = snap.counter("wire.server.resets").unwrap_or(0);
    assert!(resets > 0, "corruption at 350‰ must force reconnects");
}
