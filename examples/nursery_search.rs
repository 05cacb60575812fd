//! The paper's evaluation workload (§VII-A): search over the UCI Nursery
//! dataset. Encrypts a slice of the 12,960-row table and runs a
//! multi-dimensional query over it, reporting per-phase timings — a
//! miniature of Table III.
//!
//! ```text
//! cargo run --release --example nursery_search            # 200 rows, fast curve
//! APKS_ROWS=2000 cargo run --release --example nursery_search
//! APKS_FULL_PARAMS=1 cargo run --release --example nursery_search  # 512-bit curve
//! ```

use apks_cloud::CloudServer;
use apks_core::{ApksSystem, Query, QueryPolicy};
use apks_curve::CurveParams;
use apks_dataset::nursery::{nursery_sample, nursery_schema};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rows: usize = std::env::var("APKS_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let params = if std::env::var("APKS_FULL_PARAMS").is_ok() {
        CurveParams::standard()
    } else {
        CurveParams::fast()
    };
    println!("curve: {}, rows: {rows}", params.label());

    // m = 9, d = 2 → n = 19 (one of the paper's Fig. 8 configurations)
    let schema = nursery_schema(2)?;
    let system = ApksSystem::new(params, schema);
    println!("n = {} (predicate vector length)", system.n());
    let mut rng = StdRng::seed_from_u64(99);

    let t = Instant::now();
    let (pk, msk) = system.setup(&mut rng);
    println!("Setup:           {:?}", t.elapsed());

    // authority not needed for the timing run; search with a bare capability
    let server = CloudServer::new(
        system.clone(),
        pk.clone(),
        apks_authz::IbsAuthority::new(system.params().clone(), &mut rng)
            .public_params()
            .clone(),
    );

    let data = nursery_sample(rows);
    let t = Instant::now();
    for r in &data {
        server.upload(system.gen_index(&pk, r, &mut rng)?);
    }
    let enc = t.elapsed();
    println!(
        "GenIndex:        {:?} total, {:?} per row",
        enc,
        enc / data.len() as u32
    );

    let query = Query::new()
        .equals("health", "recommended")
        .one_of("parents", ["usual", "pretentious"])
        .equals("finance", "convenient");
    let t = Instant::now();
    let cap = system.gen_cap(&pk, &msk, &query, &QueryPolicy::default(), &mut rng)?;
    println!("GenCap:          {:?}", t.elapsed());

    let t = Instant::now();
    let (hits, stats) = server.scan(&cap).map_err(|e| format!("{e}"))?;
    let search = t.elapsed();
    println!(
        "Search:          {:?} total, {:?} per index, {} / {} matched",
        search,
        search / stats.scanned.max(1) as u32,
        stats.matched,
        stats.scanned
    );

    // ground truth check against the plaintext oracle
    let truth = data
        .iter()
        .filter(|r| query.matches_record(system.schema(), r).unwrap())
        .count();
    assert_eq!(
        truth,
        hits.len(),
        "encrypted search equals plaintext search"
    );
    println!("verified against plaintext oracle: {truth} true matches");
    Ok(())
}
