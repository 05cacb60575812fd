//! The `apks` command-line tool.
//!
//! A thin, scriptable front end over the library: define a schema in a
//! small text DSL, create a deployment (keys + schema in one file),
//! encrypt record indexes, issue/delegate capabilities, and search — all
//! from the shell. The heavy lifting lives in library functions here so
//! the whole command surface is unit-testable; `src/bin/apks.rs` only
//! forwards `std::env::args`.
//!
//! ```text
//! apks setup --schema phr.schema --out deploy.apks [--plus] [--curve standard]
//! apks inspect deploy.apks
//! apks gen-index --deploy deploy.apks --record "age=25,sex=female" --out alice.idx
//! apks gen-cap --deploy deploy.apks --query "age in [16,31] and sex = female" --out cap.bin
//! apks search --deploy deploy.apks --cap cap.bin alice.idx bob.idx
//! apks demo
//! ```
//!
//! It is also the one way to run a virtual-tick scenario of `apks-sim`
//! (`apks sim overload|batched|framed|shard|hydrate|chaos-net`). Each
//! command refuses any option it does not take.

pub mod commands;
pub mod record;
pub mod schema_dsl;
mod sim;

pub use commands::{run, CliError};
