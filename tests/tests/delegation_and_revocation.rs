//! Delegation chains, revocation windows, and failure injection across
//! crate boundaries.

use apks_core::revocation::{time_value, with_period, Date};
use apks_core::{ApksError, FieldValue, Query, QueryPolicy, Record};
use apks_math::encode::{Reader, Writer};
use apks_tests::{phr_system, tiny_record, tiny_system};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn three_level_delegation_chain_restricts_monotonically() {
    let sys = tiny_system();
    let mut rng = StdRng::seed_from_u64(10);
    let (pk, msk) = sys.setup(&mut rng);

    let l1 = sys
        .gen_cap(
            &pk,
            &msk,
            &Query::new().equals("provider", "hospital-a"),
            &QueryPolicy::default(),
            &mut rng,
        )
        .unwrap();
    let l2 = sys
        .delegate_cap(&pk, &l1, &Query::new().equals("illness", "flu"), &mut rng)
        .unwrap();
    let l3 = sys
        .delegate_cap(&pk, &l2, &Query::new().equals("sex", "female"), &mut rng)
        .unwrap();

    let recs = [
        ("hospital-a", "flu", "female"), // matches all three
        ("hospital-a", "flu", "male"),   // l1, l2 only
        ("hospital-a", "cold", "female"),
        ("hospital-b", "flu", "female"),
    ];
    let expected = [
        [true, true, true],
        [true, true, false],
        [true, false, false],
        [false, false, false],
    ];
    for ((p, i, s), exp) in recs.iter().zip(expected) {
        let idx = sys.gen_index(&pk, &tiny_record(p, i, s), &mut rng).unwrap();
        for (cap, want) in [&l1, &l2, &l3].into_iter().zip(exp) {
            assert_eq!(sys.search(&pk, cap, &idx).unwrap(), want, "{p}/{i}/{s}");
        }
    }
}

#[test]
fn delegation_cannot_widen_scope() {
    // Delegating with a *different* value on an already-constrained field
    // yields a capability matching nothing (Q1 AND Q2 unsatisfiable) —
    // delegation can only restrict.
    let sys = tiny_system();
    let mut rng = StdRng::seed_from_u64(11);
    let (pk, msk) = sys.setup(&mut rng);
    let base = sys
        .gen_cap(
            &pk,
            &msk,
            &Query::new().equals("illness", "flu"),
            &QueryPolicy::default(),
            &mut rng,
        )
        .unwrap();
    let widened = sys
        .delegate_cap(
            &pk,
            &base,
            &Query::new().equals("illness", "cancer"),
            &mut rng,
        )
        .unwrap();
    for illness in ["flu", "cancer", "cold"] {
        let idx = sys
            .gen_index(&pk, &tiny_record("p", illness, "f"), &mut rng)
            .unwrap();
        assert!(
            !sys.search(&pk, &widened, &idx).unwrap(),
            "contradictory delegation must match nothing ({illness})"
        );
    }
}

#[test]
fn revocation_window_expires() {
    let (sys, _cfg) = phr_system();
    let mut rng = StdRng::seed_from_u64(12);
    let (pk, msk) = sys.setup(&mut rng);
    let epoch = apks_dataset::phr::PHR_EPOCH;

    let mk_record = |date: Date| {
        Record::new(vec![
            FieldValue::num(30),
            FieldValue::text("female"),
            FieldValue::text("Boston"),
            FieldValue::text("covid"),
            FieldValue::text("Hospital A"),
            time_value(date, epoch),
        ])
    };
    let q = Query::new().equals("illness", "covid");
    let q_windowed = with_period(q, Date::new(2010, 1, 1), Date::new(2010, 6, 28), epoch).unwrap();
    let cap = sys
        .gen_cap(&pk, &msk, &q_windowed, &QueryPolicy::default(), &mut rng)
        .unwrap();

    let in_window = sys
        .gen_index(&pk, &mk_record(Date::new(2010, 4, 2)), &mut rng)
        .unwrap();
    let after_window = sys
        .gen_index(&pk, &mk_record(Date::new(2010, 9, 2)), &mut rng)
        .unwrap();
    let next_year = sys
        .gen_index(&pk, &mk_record(Date::new(2011, 4, 2)), &mut rng)
        .unwrap();
    assert!(sys.search(&pk, &cap, &in_window).unwrap());
    assert!(!sys.search(&pk, &cap, &after_window).unwrap());
    assert!(!sys.search(&pk, &cap, &next_year).unwrap());
}

#[test]
fn tampered_capability_bytes_rejected_or_useless() {
    let sys = tiny_system();
    let mut rng = StdRng::seed_from_u64(13);
    let (pk, msk) = sys.setup(&mut rng);
    let cap = sys
        .gen_cap(
            &pk,
            &msk,
            &Query::new().equals("illness", "flu"),
            &QueryPolicy::default(),
            &mut rng,
        )
        .unwrap();
    let mut w = Writer::new();
    cap.encode(sys.params(), &mut w);
    let mut bytes = w.finish();

    // flip a bit in the middle of a group element
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    let mut r = Reader::new(&bytes);
    match apks_core::Capability::decode(sys.params(), &mut r) {
        Err(_) => {} // rejected outright (off-curve / non-canonical)
        Ok(corrupted) => {
            // decoded to some other valid point: must not match anything
            let idx = sys
                .gen_index(&pk, &tiny_record("p", "flu", "f"), &mut rng)
                .unwrap();
            assert!(!sys.search(&pk, &corrupted, &idx).unwrap());
        }
    }

    // truncated input always rejected
    let mut r = Reader::new(&bytes[..bytes.len() - 3]);
    assert!(apks_core::Capability::decode(sys.params(), &mut r).is_err());
}

#[test]
fn two_torsion_point_in_capability_fails_at_decode() {
    let sys = tiny_system();
    let mut rng = StdRng::seed_from_u64(15);
    let (pk, msk) = sys.setup(&mut rng);
    let cap = sys
        .gen_cap(
            &pk,
            &msk,
            &Query::new().equals("illness", "flu"),
            &QueryPolicy::default(),
            &mut rng,
        )
        .unwrap();
    let mut w = Writer::new();
    cap.encode(sys.params(), &mut w);
    let bytes = w.finish();
    // schema digest (32 B), level (4 B), k*_dec dimension (4 B), then
    // k*_dec's first point
    let first = 32 + 4 + 4;
    let len = apks_curve::G1Affine::ENCODED_LEN;
    for flag in [2u8, 3] {
        // (0, 0) under either sign flag: x = 0, then the flag byte
        let mut tampered = bytes.clone();
        tampered[first..first + len - 1].fill(0);
        tampered[first + len - 1] = flag;
        let mut r = Reader::new(&tampered);
        assert!(
            apks_core::Capability::decode(sys.params(), &mut r).is_err(),
            "flag {flag}: the 2-torsion point must be refused at decode, \
             before prepare_capability can meet it"
        );
    }
}

#[test]
fn query_errors_surface_cleanly() {
    let sys = tiny_system();
    let mut rng = StdRng::seed_from_u64(14);
    let (pk, msk) = sys.setup(&mut rng);
    // unknown field
    let err = sys
        .gen_cap(
            &pk,
            &msk,
            &Query::new().equals("zodiac", "leo"),
            &QueryPolicy::default(),
            &mut rng,
        )
        .unwrap_err();
    assert!(matches!(err, ApksError::UnknownField(_)));
    // OR budget exceeded (illness budget = 2)
    let err = sys
        .gen_cap(
            &pk,
            &msk,
            &Query::new().one_of("illness", ["a", "b", "c"]),
            &QueryPolicy::default(),
            &mut rng,
        )
        .unwrap_err();
    assert!(matches!(err, ApksError::UnsupportedQuery(_)));
}
