//! The ladder pass: after a traced run, each inner layer's public entry
//! point is timed on that run's own capabilities, documents and requests,
//! reporting the median of repeats.

use crate::deploy::{stream, BenchResult, Stream, LTA_ID};
use crate::stats;
use crate::trace::{Gate, MAX_ATTEMPTS};
use crate::workloads::{LadderInputs, Scale, StoreShape};
use apks_authz::{IbsAuthority, SignedCapability};
use apks_cloud::{
    AdmissionConfig, AdmissionController, CloudServer, DegradedScan, QueryShape, RequestClass,
    SearchStats,
};
use apks_core::fault::VirtualClock;
use apks_core::{EncryptedIndex, PreparedCapability, QueryPolicy};
use apks_curve::prepared::pairing_prepared_unreduced;
use apks_curve::{final_exponentiation, multi_pairing_prepared, G1Affine, PreparedG1};
use apks_telemetry::MetricsRegistry;
use apks_wire::{
    encode_frame, FrameDecoder, IngestBatch, Request, Response, SearchRequest, SearchResponse,
    Wire, WireCtx,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Documents the scratch stores of the hydrate and upload rungs hold.
const SCRATCH_DOCS: usize = 16;
/// Field operations per timed batch (ns-scale rungs).
const FP_BATCH: usize = 1024;
/// Inversions per timed batch.
const INV_BATCH: usize = 32;
/// Admission decisions per timed batch.
const OFFER_BATCH: u64 = 1024;

/// Ladder results: per-layer metric name → value in the catalogue's unit.
pub struct Ladder {
    /// The timings and sizes.
    pub values: BTreeMap<&'static str, f64>,
    /// Footprint of the scratch store the hydrate rungs built.
    pub scratch_store: StoreShape,
}

/// Median wall time of `reps` calls of `f(i)` after one warm-up call, in
/// milliseconds, each call timed behind the quiet-host gate.
fn median_ms<T>(gate: &mut Gate, reps: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    black_box(f(0));
    let times: Vec<f64> = (0..reps)
        .map(|i| gate.measure(|| black_box(f(i))).1)
        .collect();
    stats::median(&times).unwrap_or(0.0)
}

/// Encodes, frames, unframes and strictly decodes `value`; returns the
/// framed length.
fn round_trip<W: Wire>(ctx: &WireCtx, value: &W) -> BenchResult<usize> {
    let frame = encode_frame(&value.to_bytes(ctx))?;
    let mut decoder = FrameDecoder::new();
    decoder.push(&frame);
    let payload = decoder.next_frame()?.ok_or("frame did not reassemble")?;
    black_box(W::from_bytes(ctx, &payload)?);
    Ok(frame.len())
}

/// Runs every rung. `dir` is a scratch directory for the hydrate stores;
/// `gate` is the run's quiet-host gate (it knows the run's quietest
/// probe).
///
/// # Errors
///
/// Failures of any measured call (the ladder only feeds it inputs the
/// run already accepted).
pub fn run(
    inputs: &LadderInputs<'_>,
    dir: &Path,
    scale: Scale,
    seed: u64,
    gate: &mut Gate,
) -> BenchResult<Ladder> {
    let reps = |full: usize| if scale == Scale::Full { full } else { 3 };
    let dep = inputs.dep;
    let system = &dep.system;
    let params = system.params().clone();
    let docs = inputs.docs;
    let doc = |i: usize| &docs[i % docs.len()];
    let caps: Vec<&SignedCapability> = inputs.caps.iter().map(|(c, _)| *c).collect();
    if caps.len() < 4 || docs.len() < 4 {
        return Err("the ladder needs at least 4 capabilities and 4 documents".into());
    }
    let mut rng = stream(seed, Stream::Issue);
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();

    // authorization and issuance
    let server = CloudServer::new(system.clone(), dep.pk.clone(), dep.ibs.clone());
    server.register_authority(LTA_ID);
    v.insert(
        "authz.verify_ms",
        median_ms(gate, reps(15), |i| {
            server.admit(caps[i % caps.len()]).is_ok()
        }),
    );
    let ibs_key = IbsAuthority::new(params.clone(), &mut rng).extract(LTA_ID);
    let msg = SignedCapability::signed_bytes(&params, &caps[0].capability, LTA_ID);
    v.insert(
        "authz.sign_ms",
        median_ms(gate, reps(15), |_| ibs_key.sign(&params, &msg, &mut rng)),
    );
    let base = system.gen_cap(
        &dep.pk,
        &dep.msk,
        &dep.base,
        &QueryPolicy::permissive(),
        &mut rng,
    )?;
    v.insert(
        "core.delegate_ms",
        median_ms(gate, reps(5), |i| {
            let (_, query) = inputs.caps[i % inputs.caps.len()];
            system.delegate_cap(&dep.pk, &base, query, &mut rng)
        }),
    );

    // owner side
    let rows = inputs.rows;
    v.insert(
        "core.gen_index_ms",
        median_ms(gate, reps(9), |i| {
            system.gen_index(&dep.pk, &rows[i % rows.len()], &mut rng)
        }),
    );
    let stage = &dep.chain.proxies()[0];
    v.insert(
        "proxy.transform_ms",
        median_ms(gate, reps(15), |i| {
            stage.transform(system, "ladder", 0, doc(i))
        }),
    );

    // scan path, top to bottom
    let prepared: Vec<PreparedCapability> = caps[..4]
        .iter()
        .map(|c| system.prepare_capability(&c.capability))
        .collect::<Result<_, _>>()?;
    v.insert(
        "core.prepare_ms",
        median_ms(gate, reps(7), |i| {
            system.prepare_capability(&caps[i % caps.len()].capability)
        }),
    );
    v.insert(
        "core.eval_us",
        median_ms(gate, reps(31), |i| {
            system.search_prepared(&dep.pk, &prepared[0], doc(i))
        }) * 1e3,
    );
    let wave: Vec<&PreparedCapability> = prepared.iter().collect();
    v.insert(
        "core.wave_eval_us",
        median_ms(gate, reps(15), |i| {
            system.search_prepared_wave(&dep.pk, &wave, doc(i))
        }) * 1e3
            / wave.len() as f64,
    );
    v.insert(
        "hpe.test_prepared_us",
        median_ms(gate, reps(31), |i| {
            system
                .hpe()
                .test_prepared(&dep.pk.hpe, &prepared[0].key, &doc(i).ct)
        }) * 1e3,
    );
    v.insert(
        "dpvs.pair_us",
        median_ms(gate, reps(31), |i| {
            prepared[0].key.dec.pair(&params, &doc(i).ct.c1)
        }) * 1e3,
    );
    let key_points: Vec<PreparedG1> = caps[0]
        .capability
        .key
        .dec
        .0
        .iter()
        .map(|p| PreparedG1::new(&params, p))
        .collect();
    let pairs = |d: &EncryptedIndex| -> Vec<(&PreparedG1, G1Affine)> {
        key_points.iter().zip(d.ct.c1.0.iter().copied()).collect()
    };
    let multi_us = median_ms(gate, reps(31), |i| {
        multi_pairing_prepared(&params, &pairs(doc(i)))
    }) * 1e3;
    let miller = pairing_prepared_unreduced(&params, &key_points[0], &doc(0).ct.c1.0[0]);
    let final_exp_us = median_ms(gate, reps(31), |_| final_exponentiation(&params, miller)) * 1e3;
    v.insert("curve.final_exp_us", final_exp_us);
    v.insert("curve.miller_us", multi_us - final_exp_us);

    // field arithmetic on the run's own coordinates
    let fp = params.fp();
    let x = doc(0).ct.c1.0[0].x;
    let y = doc(1).ct.c1.0[1].x;
    v.insert(
        "math.fp_mul_ns",
        median_ms(gate, reps(31), |_| {
            (0..FP_BATCH).fold(x, |acc, _| fp.mul(black_box(acc), y))
        }) * 1e6
            / FP_BATCH as f64,
    );
    v.insert(
        "math.fp_sqr_ns",
        median_ms(gate, reps(31), |_| {
            (0..FP_BATCH).fold(x, |acc, _| fp.sqr(black_box(acc)))
        }) * 1e6
            / FP_BATCH as f64,
    );
    v.insert(
        "math.fp_inv_us",
        median_ms(gate, reps(15), |_| {
            (0..INV_BATCH).fold(x, |acc, _| fp.inv(black_box(acc)).unwrap_or(y))
        }) * 1e3
            / INV_BATCH as f64,
    );

    // framing and codecs
    let ctx = WireCtx::new(params.clone());
    let search = Request::Search(SearchRequest {
        id: 1,
        deadline_expires_at: u64::MAX,
        pairing_budget: u64::MAX,
        doc_cost_ticks: 0,
        capability: caps[0].clone(),
    });
    let hits: Vec<u64> = (0..docs.len() as u64).step_by(7).collect();
    let answer = Response::Result(SearchResponse::from_scan(
        1,
        &DegradedScan {
            stats: SearchStats {
                scanned: docs.len(),
                matched: hits.len(),
                ..SearchStats::default()
            },
            matches: hits,
            faulted: Vec::new(),
            unscanned: Vec::new(),
        },
    ));
    let bytes = round_trip(&ctx, &search)? + round_trip(&ctx, &answer)?;
    v.insert("wire.bytes_per_search", bytes as f64);
    v.insert(
        "wire.codec_us",
        median_ms(gate, reps(31), |_| {
            round_trip(&ctx, &search).is_ok() && round_trip(&ctx, &answer).is_ok()
        }) * 1e3,
    );
    let upload = Request::Upload(IngestBatch {
        owner: "owner-0".to_string(),
        seq: 1,
        records: vec![doc(0).clone()],
    });
    let uploaded = Response::Uploaded { ids: vec![1] };
    let bytes = round_trip(&ctx, &upload)? + round_trip(&ctx, &uploaded)?;
    v.insert("wire.bytes_per_upload", bytes as f64);
    v.insert(
        "wire.upload_codec_us",
        median_ms(gate, reps(31), |_| {
            round_trip(&ctx, &upload).is_ok() && round_trip(&ctx, &uploaded).is_ok()
        }) * 1e3,
    );

    // admission
    let admission =
        AdmissionController::new(AdmissionConfig::default(), Arc::new(MetricsRegistry::new()));
    v.insert(
        "cloud.admission.offer_ns",
        median_ms(gate, reps(31), |_| {
            for id in 0..OFFER_BATCH {
                black_box(admission.offer(id, RequestClass::Normal(QueryShape::Equality)));
                admission.complete(id);
            }
        }) * 1e6
            / OFFER_BATCH as f64,
    );

    // store: uploads, then decoded-index lookups that always miss (no
    // cache) and that always hit (warm default cache)
    let stored: Vec<&EncryptedIndex> = (0..SCRATCH_DOCS).map(doc).collect();
    let paged = |name: &str, cache_bytes: usize| -> BenchResult<CloudServer> {
        let s = dep.paged_server(
            Arc::new(MetricsRegistry::new()),
            Arc::new(VirtualClock::new()),
            &dir.join(name),
            cache_bytes,
        )?;
        for d in &stored {
            s.try_upload((*d).clone())?;
        }
        Ok(s)
    };
    let cold = paged("cold", 0)?;
    let warm = paged(
        "warm",
        apks_cloud::HydrateConfig::default().cache_budget_bytes,
    )?;
    let ids = warm.doc_ids();
    for &id in &ids {
        warm.document(id)?;
    }
    v.insert(
        "cloud.hydrate.miss_us",
        median_ms(gate, reps(31), |i| cold.document(ids[i % ids.len()])) * 1e3,
    );
    v.insert(
        "cloud.hydrate.hit_us",
        median_ms(gate, reps(31), |i| warm.document(ids[i % ids.len()])) * 1e3,
    );
    let scratch_store = StoreShape {
        bytes: warm.store_stats()?.map_or(0, |stats| stats.bytes),
        docs: stored.len() as u64,
        encoded: stored.iter().map(|d| d.encoded_size() as u64).sum(),
    };
    // one fresh document per attempt (the warm-up call included)
    let mut fresh = (0..=reps(31) * MAX_ATTEMPTS as usize)
        .map(|i| doc(i).clone())
        .collect::<Vec<_>>()
        .into_iter();
    v.insert(
        "cloud.upload_us",
        median_ms(gate, reps(31), |_| fresh.next().map(|d| cold.try_upload(d))) * 1e3,
    );
    Ok(Ladder {
        values: v,
        scratch_store,
    })
}
