//! The framed protocol as a *transparent transport*: driving the
//! overload scenario through real `apks-wire` frames must reproduce the
//! in-process run's ledger byte for byte when the transport is free,
//! must be deterministic (same seed ⇒ same frames, both directions),
//! and must charge the virtual clock when the transport has a cost.

use apks_client::TransportCost;
use apks_sim::framed::run_overload_framed;
use apks_sim::overload::{run_overload, OverloadConfig};
use apks_tests::ledger_digest;

/// Golden ledger of the costed framed run in
/// `framed_runs_are_deterministic`.
const FRAMED_LEDGER: &str = "b3b15e41e3d5c2d9233f0fed3d92d1988e2dd043d82fdad98dac258d9fe32cd8";

fn small_config() -> OverloadConfig {
    OverloadConfig {
        docs: 4,
        arrivals: 12,
        burst_size: 4,
        ..OverloadConfig::default()
    }
}

#[test]
fn free_transport_is_byte_identical_to_in_process_run() {
    let config = small_config();
    let plain = run_overload(&config).unwrap();
    let framed = run_overload_framed(&config, TransportCost::FREE).unwrap();

    // per-request outcomes agree exactly — same admissions, same sheds,
    // same hits, same degradation flags
    assert_eq!(framed.report.requests, plain.requests);
    assert_eq!(framed.report.admitted, plain.admitted);
    assert_eq!(framed.report.shed_brownout, plain.shed_brownout);
    assert_eq!(framed.report.shed_queue_full, plain.shed_queue_full);
    assert_eq!(framed.report.virtual_ticks, plain.virtual_ticks);

    // and the whole ledger (everything but the metrics snapshot, which
    // legitimately gains wire.* counters in the framed run) matches
    // byte for byte
    assert_eq!(framed.report.ledger_bytes(), plain.ledger_bytes());

    // every admitted request crossed the wire; nothing else did
    assert_eq!(framed.frames_sent as usize, plain.admitted);
    assert_eq!(framed.frames_received, framed.frames_sent);
    assert_eq!(
        framed.report.metrics.counter("wire.server.frames"),
        Some(framed.frames_sent)
    );
}

#[test]
fn framed_runs_are_deterministic() {
    let config = small_config();
    let cost = TransportCost {
        ticks_per_frame: 7,
        ticks_per_byte: 1,
    };
    let a = run_overload_framed(&config, cost).unwrap();
    let b = run_overload_framed(&config, cost).unwrap();
    assert_eq!(a.request_digest, b.request_digest, "request frames drifted");
    assert_eq!(
        a.response_digest, b.response_digest,
        "response frames drifted"
    );
    assert_eq!(
        a.canonical_bytes(),
        b.canonical_bytes(),
        "same-seed framed runs must be byte-identical end to end"
    );
    assert_eq!(ledger_digest(&a.canonical_bytes()), FRAMED_LEDGER);

    // a different seed produces different wire traffic
    let other = run_overload_framed(
        &OverloadConfig {
            seed: config.seed + 1,
            ..config
        },
        cost,
    )
    .unwrap();
    assert_ne!(a.request_digest, other.request_digest);
}

#[test]
fn transport_cost_charges_the_clock() {
    let config = small_config();
    let free = run_overload_framed(&config, TransportCost::FREE).unwrap();
    let slow = run_overload_framed(
        &config,
        TransportCost {
            ticks_per_frame: 50,
            ticks_per_byte: 1,
        },
    )
    .unwrap();

    // network time is real time: the virtual clock runs further (the
    // *outcomes* may legitimately differ — slower frames shift the
    // admission ladder — so only the clock is monotone here)
    assert!(
        slow.report.virtual_ticks > free.report.virtual_ticks,
        "transport cost must advance the shared clock \
         ({} vs {})",
        slow.report.virtual_ticks,
        free.report.virtual_ticks
    );
    assert!(slow.bytes_sent > 0 && slow.bytes_received > 0);
    // the per-frame floor alone accounts for at least 50 ticks per
    // admitted request in each direction
    let floor = 2 * 50 * slow.frames_sent;
    assert!(slow.report.virtual_ticks >= free.report.virtual_ticks + floor);
}
