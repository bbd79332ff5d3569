//! The distributed-scan driver: run the streamed §4.2.3 measurement
//! through the `govscan-orchestrate` coordinator/worker split, end to
//! end, and prove the merged result identical to the streamed archive.
//!
//! The coordinator leases `StreamPlan` shard indices; each socket
//! worker builds its own plan from the config and scans the shards it
//! is leased with the same [`ShardScanner`] the streamed pipeline uses.
//! The merged dataset must have the digest [`stream_scan_archive`]
//! writes for the same config. With `--inject-death`, worker 0 is
//! killed on its first shard to exercise lease recovery in the same
//! run (this is the CI smoke).

use std::path::PathBuf;

use govscan_orchestrate::{
    run_worker_faulty, Coordinator, OrchestrateError, OrchestrationReport, OrchestratorConfig,
    WorkerFaults,
};
use govscan_scanner::ShardScanner;
use govscan_store::Snapshot;
use govscan_worldgen::{stream_shards, WorldConfig};

use crate::pipeline::{pipeline_threads, stream_scan_archive};

/// Command-line options for the `distributed` binary.
pub struct Options {
    /// Socket worker count.
    pub workers: usize,
    /// Kill worker 0 on its first shard (lease recovery smoke).
    pub inject_death: bool,
    /// Archive the merged dataset here.
    pub out: Option<PathBuf>,
}

/// Run a distributed scan and render the comparison report. Errors if
/// orchestration fails or — the whole point — if the merged digest
/// differs from the streamed archive's.
pub fn run(opts: &Options) -> Result<String, Box<dyn std::error::Error>> {
    if opts.workers < 2 && opts.inject_death {
        return Err("--inject-death needs at least 2 workers (the survivor)".into());
    }
    let (seed, scale) = crate::env_params();
    let mut config = WorldConfig::paper_scale(seed);
    config.scale = scale;

    eprintln!("[govscan] streamed reference scan (seed={seed}, scale={scale})...");
    let reference_path =
        std::env::temp_dir().join(format!("govscan-distributed-{}.snap", std::process::id()));
    let reference = stream_scan_archive(&config, &reference_path, 4, pipeline_threads());
    std::fs::remove_file(&reference_path).ok();
    let reference = reference?;

    eprintln!(
        "[govscan] distributed scan: {} socket workers{}...",
        opts.workers,
        if opts.inject_death {
            ", killing worker 0 on its first shard"
        } else {
            ""
        }
    );
    let report = distributed_scan(&config, opts.workers, opts.inject_death)?;
    let digest = Snapshot::digest_of(&report.dataset)?.to_hex();
    if digest != reference.digest {
        return Err(format!(
            "digest mismatch: streamed {} vs distributed {digest}",
            reference.digest
        )
        .into());
    }

    let mut out_line = String::new();
    if let Some(path) = &opts.out {
        let bytes = Snapshot::write_file(path, &report.dataset)?;
        out_line = format!("  archived {} bytes to {}\n", bytes, path.display());
    }

    let s = &report.stats;
    Ok(format!(
        "  hosts={} shards={} workers={}\n\
         \u{20} grants={} expiries={} abandons={} commits={} late={} duplicates={}\n\
         \u{20} digest={digest} (streamed == distributed)\n{out_line}",
        report.dataset.len(),
        report.shards,
        report.workers_seen,
        s.grants,
        s.expiries,
        s.abandons,
        s.commits,
        s.late_commits,
        s.duplicate_commits,
    ))
}

/// Lease the `StreamPlan` shards of `config` to `workers` socket
/// workers on an ephemeral local port. Each worker plans the world
/// itself and scans every shard it is leased through a
/// [`ShardScanner`]; with `inject_death`, worker 0 dies on its first
/// grant.
pub fn distributed_scan(
    config: &WorldConfig,
    workers: usize,
    inject_death: bool,
) -> Result<OrchestrationReport, OrchestrateError> {
    let plan = stream_shards(config);
    let coordinator = Coordinator::bind(
        ("127.0.0.1", 0),
        plan.shard_count(),
        plan.scan_time(),
        OrchestratorConfig::new(workers),
    )?;
    drop(plan);
    let addr = coordinator.local_addr()?;
    std::thread::scope(|s| {
        let run = s.spawn(move || coordinator.run());
        for i in 0..workers {
            let faults = WorkerFaults {
                die_after_grant: (inject_death && i == 0).then_some(1),
                stall: None,
            };
            s.spawn(move || {
                let plan = stream_shards(config);
                let scanner = ShardScanner::new(&plan, plan.scan_time());
                // Worker-side transport errors surface as coordinator
                // lease recovery; the coordinator's verdict is the one
                // that matters.
                let _ = run_worker_faulty(
                    addr,
                    i as u64,
                    |shard| {
                        let shard = plan.realize_shard(shard);
                        scanner.scan(&shard.net, &shard.hostnames)
                    },
                    &faults,
                );
            });
        }
        run.join().expect("coordinator thread")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leased_shards_merge_to_the_pinned_archive_despite_a_worker_death() {
        let mut config = WorldConfig::paper_scale(0xF1F0);
        config.scale = 0.01;
        let report = distributed_scan(&config, 2, true).expect("orchestration completes");
        // The digest `streamed_digest_equals_materialized_at_any_window_and_threads`
        // pins for the same config.
        assert_eq!(
            Snapshot::digest_of(&report.dataset)
                .expect("digest")
                .to_hex(),
            "fe9a288f693d8a76e5d07e7426a814a5d5a2ef30e4d7ead6955c6e53061b2262"
        );
        let s = &report.stats;
        assert!(s.abandons >= 1, "worker 0's lease was abandoned: {s:?}");
        assert_eq!(s.commits, report.shards as u64, "one commit per shard");
        assert_eq!(
            s.grants,
            report.shards as u64 + s.expiries + s.abandons,
            "grant accounting balances: {s:?}"
        );
    }
}
