//! The cloud server (Fig. 1 of the paper).
//!
//! Stores the encrypted indexes contributed by all owners, verifies that a
//! submitted capability carries a valid identity-based signature from a
//! *registered* authority (§III), and evaluates `Search` over the store
//! with preprocessed capabilities (§VII-B.4). Every scan entry point runs
//! one kernel, [`CloudServer::scan_wave`]: a solo search is a wave of one,
//! and the kernel evaluates a scan's documents on every core.
//!
//! The [`adversary`] module implements the honest-but-curious server's
//! **dictionary attack** (§V) used by the security tests and the
//! `query_privacy` example: it succeeds against plain APKS capabilities
//! and fails against APKS⁺.

pub mod admission;
pub mod adversary;
pub mod backend;
pub mod server;
pub mod shard;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionError, QueryShape,
    RequestClass, RequestId, ShedReason, WaveBatcher, WaveConfig,
};
pub use backend::{
    CorpusBackend, CorpusError, DecodedCache, HydrateConfig, InsertOutcome, MemoryBackend,
    PagedBackend,
};
pub use server::{
    CloudServer, DegradedScan, DocumentId, PreparedCache, SearchOutcome, SearchStats, WaveRequest,
};
pub use shard::{AntiEntropyReport, ShardConfig, ShardOutcome, ShardRouter, ShardedBatch};
