//! Distributed scan orchestration: a lease-based coordinator/worker
//! split over the §4.2.3 measurement scan.
//!
//! The paper's April 2020 scan of ~135k government hosts ran in one
//! process. This crate scales that scan past one process the way ZMap
//! shards a scan: every worker derives its own targets from shared
//! configuration and a shard index. The [`Coordinator`] leases shard
//! indices `0..n` to worker processes as deadline-carrying [`Lease`]s,
//! collects partial [`ScanDataset`]s, and merges them — in shard
//! order — through the dataset's last-write-wins `extend`. What an
//! index means is up to the caller's scan closure; the crate never sees
//! a host list.
//!
//! Fault model (at-least-once, idempotent):
//!
//! * A worker that **dies** drops its connection; the coordinator
//!   abandons its outstanding lease and re-issues it immediately.
//! * A worker that **stalls** past its lease deadline has the lease
//!   expire and re-issued to a live worker. If the stalled worker later
//!   delivers anyway, the first commit has already won and the late
//!   result is dropped (or, if it races ahead of the re-issued holder,
//!   accepted — the scan is deterministic, so either attempt's data is
//!   byte-identical).
//! * The run ends with a coverage check: every shard committed exactly
//!   once, and no partial replacing an earlier shard's records. The
//!   fault-injection suite asserts the merged dataset **byte-identical**
//!   to a single-process scan through `govscan-store` digests.
//!
//! Workers ([`run_worker`]) speak the length-prefixed [`protocol`] over
//! a local TCP socket, with partial datasets carried as `govscan-store`
//! snapshot bytes.
//!
//! [`Lease`]: lease::Lease
//! [`ScanDataset`]: govscan_scanner::ScanDataset

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod lease;
pub mod protocol;
pub mod worker;

pub use coordinator::{Coordinator, OrchestrationReport, OrchestratorConfig};
pub use lease::{Acquire, CommitOutcome, Lease, LeaseTable, OrchestrationStats};
pub use protocol::Message;
pub use worker::{run_worker, run_worker_faulty, WorkerFaults, WorkerSummary};

/// Everything that can go wrong while orchestrating a distributed scan.
#[derive(Debug)]
pub enum OrchestrateError {
    /// Socket / transport failure.
    Io(std::io::Error),
    /// A partial dataset failed to encode or decode as a snapshot.
    Store(govscan_store::StoreError),
    /// A peer violated the wire protocol (bad tag, wrong echo, …).
    Protocol(String),
    /// The run ended with shards still uncommitted.
    Incomplete {
        /// Shards with a committed result.
        committed: usize,
        /// Total shards.
        shards: usize,
    },
    /// Every worker connection was lost before the scan completed.
    WorkersLost {
        /// What the coordinator observed.
        detail: String,
    },
    /// A shard's partial overlapped an earlier shard's records.
    Coverage {
        /// Which shard overlapped, and by how many records.
        detail: String,
    },
}

impl std::fmt::Display for OrchestrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrchestrateError::Io(e) => write!(f, "orchestration i/o error: {e}"),
            OrchestrateError::Store(e) => write!(f, "partial snapshot error: {e}"),
            OrchestrateError::Protocol(what) => write!(f, "protocol violation: {what}"),
            OrchestrateError::Incomplete { committed, shards } => write!(
                f,
                "scan incomplete: {committed} of {shards} shards committed"
            ),
            OrchestrateError::WorkersLost { detail } => {
                write!(f, "all workers lost before completion: {detail}")
            }
            OrchestrateError::Coverage { detail } => {
                write!(f, "merged dataset fails coverage check: {detail}")
            }
        }
    }
}

impl std::error::Error for OrchestrateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OrchestrateError::Io(e) => Some(e),
            OrchestrateError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for OrchestrateError {
    fn from(e: std::io::Error) -> OrchestrateError {
        OrchestrateError::Io(e)
    }
}

impl From<govscan_store::StoreError> for OrchestrateError {
    fn from(e: govscan_store::StoreError) -> OrchestrateError {
        OrchestrateError::Store(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, OrchestrateError>;
