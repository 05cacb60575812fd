//! Host crate for the workspace's integration tests (`tests/tests/*.rs`)
//! and runnable examples (`examples/*.rs`).
//!
//! The library itself only provides small shared fixtures.

use apks_core::{ApksSystem, FieldValue, Record, Schema};
use apks_curve::CurveParams;
use apks_dataset::phr::{phr_schema, PhrConfig};
use std::sync::Arc;

/// A small flat-schema system for fast end-to-end tests.
pub fn tiny_system() -> ApksSystem {
    let schema = Schema::builder()
        .flat_field("provider", 1)
        .flat_field("illness", 2)
        .flat_field("sex", 1)
        .build()
        .expect("valid schema");
    ApksSystem::new(CurveParams::fast(), schema)
}

/// A record for the tiny schema.
pub fn tiny_record(provider: &str, illness: &str, sex: &str) -> Record {
    Record::new(vec![
        FieldValue::text(provider),
        FieldValue::text(illness),
        FieldValue::text(sex),
    ])
}

/// The full PHR system (hierarchical fields + time) on fast parameters.
pub fn phr_system() -> (ApksSystem, PhrConfig) {
    let cfg = PhrConfig::default();
    let schema: Arc<Schema> = phr_schema(&cfg).expect("valid schema");
    (ApksSystem::new(CurveParams::fast(), schema), cfg)
}

/// Hex SHA-256 of a scenario's canonical bytes: the golden-ledger
/// digest the same-seed suites pin, so a refactor that moves any byte
/// of a ledger fails loudly instead of only comparing two fresh runs.
pub fn ledger_digest(bytes: &[u8]) -> String {
    apks_math::sha256::sha256(bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}
