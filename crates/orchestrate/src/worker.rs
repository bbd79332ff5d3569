//! The worker side of the socket protocol: connect, loop
//! Request → Grant → scan → Result until the coordinator says Done.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use govscan_scanner::ScanDataset;
use govscan_store::Snapshot;

use crate::protocol::{read_message, write_message, Message};
use crate::{OrchestrateError, Result};

/// Fault injection for the fault-recovery test suite. Grants are
/// counted from 1; a fault fires when the counter reaches the
/// configured grant.
#[derive(Debug, Default, Clone)]
pub struct WorkerFaults {
    /// Crash (drop the connection without a word) upon receiving the
    /// n-th grant, before scanning it.
    pub die_after_grant: Option<u64>,
    /// Sleep this long upon receiving the n-th grant, before scanning —
    /// long enough and the lease expires under us.
    pub stall: Option<(u64, Duration)>,
}

/// What a worker did before disconnecting.
#[derive(Debug, Default, Clone)]
pub struct WorkerSummary {
    /// Shards scanned and delivered.
    pub shards: u64,
    /// Records delivered across all shards.
    pub hosts: u64,
    /// True if the worker exited via an injected death (the connection
    /// was dropped deliberately, not drained with Done).
    pub died: bool,
}

/// Run a well-behaved worker against the coordinator at `addr`. `scan`
/// maps a granted shard index to its partial dataset — in the repro bin,
/// it realizes that shard of the worker's own `StreamPlan` and scans it.
pub fn run_worker<A, F>(addr: A, worker_id: u64, scan: F) -> Result<WorkerSummary>
where
    A: ToSocketAddrs,
    F: FnMut(usize) -> ScanDataset,
{
    run_worker_faulty(addr, worker_id, scan, &WorkerFaults::default())
}

/// [`run_worker`] with fault injection. An injected death returns
/// `Ok` with [`WorkerSummary::died`] set — the "failure" is the point.
pub fn run_worker_faulty<A, F>(
    addr: A,
    worker_id: u64,
    mut scan: F,
    faults: &WorkerFaults,
) -> Result<WorkerSummary>
where
    A: ToSocketAddrs,
    F: FnMut(usize) -> ScanDataset,
{
    let mut stream = TcpStream::connect(addr)?;
    // Frames are small and strictly request/response: without this,
    // Nagle's algorithm holds each Request behind the delayed ACK of
    // the Result before it.
    stream.set_nodelay(true)?;
    write_message(&mut stream, &Message::Hello { worker: worker_id })?;
    let mut summary = WorkerSummary::default();
    let mut grants = 0u64;
    loop {
        write_message(&mut stream, &Message::Request)?;
        let (shard, attempt) = match read_message(&mut stream)? {
            Message::Grant { shard, attempt } => (shard, attempt),
            Message::Done => return Ok(summary),
            other => {
                return Err(OrchestrateError::Protocol(format!(
                    "expected Grant or Done, got {other:?}"
                )))
            }
        };
        grants += 1;
        if faults.die_after_grant == Some(grants) {
            // Crash: drop the stream on the floor mid-lease. The
            // coordinator sees EOF and abandons the lease.
            summary.died = true;
            return Ok(summary);
        }
        if let Some((at, pause)) = faults.stall {
            if at == grants {
                std::thread::sleep(pause);
            }
        }
        let partial = scan(shard as usize);
        let snapshot = Snapshot::encode(&partial)?;
        summary.shards += 1;
        summary.hosts += partial.len() as u64;
        write_message(
            &mut stream,
            &Message::Result {
                shard,
                attempt,
                snapshot,
            },
        )?;
    }
}
