//! The paper's full PHR scenario (§II–§IV): multiple owners outsource
//! encrypted health-record indexes; a TA provisions hospital LTAs; a
//! physician and a researcher obtain signed capabilities; the cloud
//! server verifies signatures and searches; a time window implements
//! revocation.
//!
//! ```text
//! cargo run --example phr_search
//! ```

use apks_authz::{AttributeDirectory, Eligibility, EligibilityRules, TrustedAuthority};
use apks_cloud::CloudServer;
use apks_core::revocation::{time_value, with_period, Date};
use apks_core::{FieldValue, Query, QueryPolicy, Record};
use apks_curve::CurveParams;
use apks_dataset::phr::{phr_schema, random_phr_record, PhrConfig, PHR_EPOCH};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = PhrConfig::default();
    let schema = phr_schema(&cfg)?;
    let system = apks_core::ApksSystem::new(CurveParams::fast(), schema);
    let mut rng = StdRng::seed_from_u64(7);

    // --- authorities ---------------------------------------------------
    let mut ta = TrustedAuthority::setup(system, &mut rng);
    let system = ta.system().clone();
    let pk = ta.public_key().clone();

    let mut directory = AttributeDirectory::new();
    directory.register_user("dr-peter", [("provider", FieldValue::text("Hospital A"))]);
    let rules = EligibilityRules::with_default(Eligibility::AnyValue);
    let hospital_a = ta.register_lta(
        "lta:hospital-a",
        &Query::new().equals("provider", "Hospital A"),
        directory,
        rules,
        QueryPolicy::default(),
        &mut rng,
    )?;
    println!("TA online, LTA 'lta:hospital-a' provisioned; TA can now go offline");

    // --- cloud server ----------------------------------------------------
    let server = CloudServer::new(system.clone(), pk.clone(), ta.ibs_params().clone());
    server.register_authority("lta:hospital-a");
    server.register_authority("ta");

    // --- owners contribute -----------------------------------------------
    for _ in 0..8 {
        let record = random_phr_record(&cfg, &mut rng);
        server.upload(system.gen_index(&pk, &record, &mut rng)?);
    }
    // a patient we will look for
    let alice = Record::new(vec![
        FieldValue::num(70),
        FieldValue::text("female"),
        FieldValue::text("Worcester"),
        FieldValue::text("diabetes-2"),
        FieldValue::text("Hospital A"),
        time_value(Date::new(2010, 3, 5), PHR_EPOCH),
    ]);
    server.upload(system.gen_index(&pk, &alice, &mut rng)?);
    println!("{} encrypted indexes uploaded", server.len());

    // --- a physician's capability ---------------------------------------
    // Dr. Peter asks hospital A for: elderly patients (age ≥ 64 — one
    // level-1 simple range of the age hierarchy), chronic illness, H1 2010.
    let q = Query::new()
        .range("age", 64, 127)
        .equals("illness", "chronic");
    let q = with_period(q, Date::new(2010, 1, 1), Date::new(2010, 6, 28), PHR_EPOCH)?;
    let cap = hospital_a.request_capability(&system, &pk, "dr-peter", &q, &mut rng)?;
    println!("capability issued and signed by {}", cap.issuer);

    // --- the server verifies and searches --------------------------------
    let (hits, stats) = server.search(&cap)?;
    println!(
        "server scanned {} indexes, {} matched: {:?}",
        stats.scanned, stats.matched, hits
    );
    // The capability automatically inherits 'provider = Hospital A' from
    // the LTA; records at other providers never match.

    // --- revocation -------------------------------------------------------
    // An index re-stamped after the capability window is unreachable:
    let late = Record::new(vec![
        FieldValue::num(70),
        FieldValue::text("female"),
        FieldValue::text("Worcester"),
        FieldValue::text("diabetes-2"),
        FieldValue::text("Hospital A"),
        time_value(Date::new(2010, 9, 1), PHR_EPOCH),
    ]);
    server.upload(system.gen_index(&pk, &late, &mut rng)?);
    let (hits_after, _) = server.search(&cap)?;
    println!(
        "after a post-window upload the same capability still matches {:?} (expired for new data)",
        hits_after
    );
    Ok(())
}
