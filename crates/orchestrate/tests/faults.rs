//! Fault-injection suite: distributed scans under worker death, stall,
//! duplicate commit and dishonest results must merge to a dataset
//! **byte-identical** to a single-process scan of the same host list,
//! or fail with a typed error.
//!
//! "Byte-identical" is checked the strong way: `Snapshot::encode` of
//! the merged dataset equals the serial scan's encoding (and therefore
//! so do the content digests the archive layer keys on).
//!
//! The coordinator leases shard indices; every worker here maps shard
//! `i` to chunk `i` of a small world's discovery list, so the stall
//! tests can run on a handful of shards.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use govscan_orchestrate::protocol::{read_message, write_message, Message};
use govscan_orchestrate::{
    run_worker_faulty, Coordinator, OrchestrateError, OrchestrationReport, OrchestratorConfig,
    WorkerFaults, WorkerSummary,
};
use govscan_scanner::{ScanDataset, StudyPipeline};
use govscan_store::Snapshot;
use govscan_worldgen::{World, WorldConfig};

/// A world, its discovery output, and the serial reference scan.
struct Fixture {
    world: World,
}

struct Prepared<'w> {
    pipeline: StudyPipeline<'w>,
    hosts: Vec<String>,
    serial: ScanDataset,
}

impl Fixture {
    fn new(seed: u64) -> Fixture {
        Fixture {
            world: World::generate(&WorldConfig::small(seed)),
        }
    }

    /// Discovery and the serial scan, over the first `take` hosts of the
    /// discovery list.
    fn prepare(&self, take: usize) -> Prepared<'_> {
        let pipeline = StudyPipeline::new(&self.world);
        let mut hosts = pipeline.discover().final_list;
        hosts.truncate(take);
        let serial = pipeline.scan_list(&hosts);
        Prepared {
            pipeline,
            hosts,
            serial,
        }
    }
}

impl Prepared<'_> {
    fn shard_count(&self, chunk: usize) -> usize {
        self.hosts.len().div_ceil(chunk)
    }

    /// Shard `i`: chunk `i` of the host list.
    fn shard(&self, chunk: usize, i: usize) -> &[String] {
        self.hosts
            .chunks(chunk)
            .nth(i)
            .expect("leased shard in range")
    }

    /// A coordinator for this host list cut into `chunk`-host shards.
    fn coordinator(&self, chunk: usize, cfg: OrchestratorConfig) -> Coordinator {
        let scan_time = self.serial.scan_time.expect("scan time");
        Coordinator::bind(("127.0.0.1", 0), self.shard_count(chunk), scan_time, cfg).expect("bind")
    }

    /// Run a coordinator against one `run_worker_faulty` client per
    /// entry of `faults`, each scanning through its own context.
    fn run_fleet(
        &self,
        chunk: usize,
        cfg: OrchestratorConfig,
        faults: Vec<WorkerFaults>,
    ) -> (
        govscan_orchestrate::Result<OrchestrationReport>,
        Vec<WorkerSummary>,
    ) {
        let coordinator = self.coordinator(chunk, cfg);
        let addr = coordinator.local_addr().expect("addr");
        std::thread::scope(|s| {
            let run = s.spawn(move || coordinator.run());
            let workers: Vec<_> = faults
                .into_iter()
                .enumerate()
                .map(|(i, faults)| {
                    s.spawn(move || {
                        let ctx = self.pipeline.context();
                        run_worker_faulty(
                            addr,
                            i as u64,
                            |shard| self.pipeline.scan_list_with(&ctx, self.shard(chunk, shard)),
                            &faults,
                        )
                    })
                })
                .collect();
            let summaries = workers
                .into_iter()
                .map(|w| w.join().expect("worker thread").expect("worker exits"))
                .collect();
            (run.join().expect("coordinator thread"), summaries)
        })
    }

    /// The snapshot bytes of scanning `hosts`.
    fn snapshot(&self, hosts: &[String]) -> Vec<u8> {
        Snapshot::encode(&self.pipeline.scan_list(hosts)).expect("encode")
    }
}

/// A hand-rolled socket worker, for replies and exits `run_worker`
/// never makes: Hello, then `grants` Request → Grant → `reply` rounds.
/// Returns the still-open stream.
fn hand_rolled_worker(
    addr: SocketAddr,
    grants: usize,
    mut reply: impl FnMut(u64, u32) -> Message,
) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_message(&mut stream, &Message::Hello { worker: 9 }).expect("hello");
    for _ in 0..grants {
        write_message(&mut stream, &Message::Request).expect("request");
        let Message::Grant { shard, attempt } = read_message(&mut stream).expect("grant") else {
            panic!("expected a grant");
        };
        write_message(&mut stream, &reply(shard, attempt)).expect("result");
    }
    stream
}

fn assert_byte_identical(report: &OrchestrationReport, serial: &ScanDataset) {
    let merged_bytes = Snapshot::encode(&report.dataset).expect("merged encodes");
    let serial_bytes = Snapshot::encode(serial).expect("serial encodes");
    assert_eq!(
        merged_bytes, serial_bytes,
        "merged snapshot must be byte-identical to the serial scan"
    );
    assert_eq!(
        Snapshot::digest_of(&report.dataset).expect("digest"),
        Snapshot::digest_of(serial).expect("digest"),
        "content digests must agree"
    );
}

fn config(workers: usize, lease_ms: u64) -> OrchestratorConfig {
    let mut config = OrchestratorConfig::new(workers);
    config.lease_timeout = Duration::from_millis(lease_ms);
    config
}

fn die_on_first_grant() -> WorkerFaults {
    WorkerFaults {
        die_after_grant: Some(1),
        stall: None,
    }
}

fn stall_on_first_grant(pause: Duration) -> WorkerFaults {
    WorkerFaults {
        die_after_grant: None,
        stall: Some((1, pause)),
    }
}

#[test]
fn healthy_distributed_scan_is_byte_identical_to_serial() {
    let fx = Fixture::new(0xD157);
    let p = fx.prepare(usize::MAX);
    let (report, _) = p.run_fleet(17, config(3, 60_000), vec![WorkerFaults::default(); 3]);
    let report = report.expect("orchestration completes");

    assert_byte_identical(&report, &p.serial);
    assert_eq!(report.dataset.len(), p.hosts.len());
    assert!(report.shards >= 3, "host list spans several shards");
    let s = &report.stats;
    assert_eq!(s.grants, report.shards as u64, "no re-issues when healthy");
    assert_eq!(s.commits, report.shards as u64);
    assert_eq!(
        (s.expiries, s.abandons, s.duplicate_commits, s.late_commits),
        (0, 0, 0, 0)
    );
}

#[test]
fn stalled_worker_past_deadline_is_overtaken_and_deduplicated() {
    let fx = Fixture::new(0x57A1);
    // Few shards: the healthy worker must run out of pending work well
    // inside the stall, so reclaiming the expired lease is its only
    // path to completion (pending shards are preferred over expiries).
    let p = fx.prepare(120);
    let mut cfg = config(2, 150);
    // Keep the stalled worker's connection open long enough for its
    // late Result to arrive and be counted.
    cfg.result_grace = Duration::from_secs(10);
    // Sleep far past the 150ms lease on the first grant; the healthy
    // worker re-acquires the shard by expiry and commits it, then the
    // stalled worker wakes and delivers a duplicate.
    let faults = vec![
        stall_on_first_grant(Duration::from_secs(2)),
        WorkerFaults::default(),
    ];
    let (report, _) = p.run_fleet(30, cfg, faults);
    let report = report.expect("survives a stalled worker");

    assert_byte_identical(&report, &p.serial);
    let s = &report.stats;
    assert!(s.expiries >= 1, "the stalled lease expired: {s:?}");
    assert_eq!(
        s.duplicate_commits + s.late_commits,
        s.expiries,
        "every expiry produced exactly one redundant delivery: {s:?}"
    );
    assert_eq!(s.commits, report.shards as u64, "one commit per shard");
}

/// The acceptance-criteria scenario: one worker killed mid-shard,
/// another stalled past its lease deadline, and the merged dataset
/// still digests identically to the single-process scan.
#[test]
fn socket_mode_survives_death_and_stall_with_identical_digest() {
    let fx = Fixture::new(0x50CC);
    // A small host subset in few shards, so the healthy worker drains
    // every pending shard well inside the stall window and is forced
    // onto the expiry path (pending shards are preferred over expired
    // ones — with hundreds of shards the stall would resolve itself
    // before anyone needed the expired lease).
    let p = fx.prepare(120);
    let mut cfg = config(3, 400);
    // Keep the stalled worker's connection open long enough for its
    // late Result to arrive and be counted (as accepted-late or
    // duplicate) instead of EPIPE-ing.
    cfg.result_grace = Duration::from_secs(10);
    let faults = vec![
        die_on_first_grant(),
        stall_on_first_grant(Duration::from_secs(2)),
        WorkerFaults::default(),
    ];
    let (report, summaries) = p.run_fleet(30, cfg, faults);
    let report = report.expect("coordinator completes");

    assert_byte_identical(&report, &p.serial);
    assert_eq!(report.workers_seen, 3);
    assert!(summaries[0].died, "worker 0 executed its injected death");
    assert!(!summaries[2].died);
    let s = &report.stats;
    assert!(
        s.abandons >= 1,
        "the killed worker's lease was abandoned on EOF: {s:?}"
    );
    assert!(s.expiries >= 1, "the stalled worker's lease expired: {s:?}");
    assert_eq!(s.commits, report.shards as u64, "one commit per shard");
    assert_eq!(
        s.grants,
        report.shards as u64 + s.expiries + s.abandons,
        "grant accounting balances: {s:?}"
    );
}

/// The *last* worker dies right after committing its final shard
/// (instead of draining with Request → Done). All shards are
/// committed, so the coordinator must complete, not report the fleet
/// lost.
#[test]
fn coordinator_completes_when_last_worker_dies_after_committing() {
    let fx = Fixture::new(0x1A57);
    let p = fx.prepare(usize::MAX);
    let shard_total = p.shard_count(50);
    let coordinator = p.coordinator(50, config(1, 60_000));
    let addr = coordinator.local_addr().expect("addr");

    let report = std::thread::scope(|s| {
        let run = s.spawn(move || coordinator.run());
        s.spawn(|| {
            let stream = hand_rolled_worker(addr, shard_total, |shard, attempt| Message::Result {
                shard,
                attempt,
                snapshot: p.snapshot(p.shard(50, shard as usize)),
            });
            drop(stream); // dies here, with everything committed
        });
        run.join()
            .expect("coordinator thread")
            .expect("coordinator completes despite the abrupt exit")
    });

    assert_byte_identical(&report, &p.serial);
    assert_eq!(report.shards, shard_total);
    assert_eq!(report.stats.commits, shard_total as u64);
    assert_eq!(report.stats.abandons, 0, "no lease was outstanding");
}

/// A Result that echoes the wrong attempt or the wrong shard ends its
/// connection with the lease abandoned; an honest worker still
/// completes the run.
#[test]
fn mismatched_result_echo_abandons_the_lease() {
    let fx = Fixture::new(0xEC40);
    let p = fx.prepare(120);
    let coordinator = p.coordinator(30, config(3, 60_000));
    let addr = coordinator.local_addr().expect("addr");

    let report = std::thread::scope(|s| {
        let run = s.spawn(move || coordinator.run());
        // Echo the right shard with the wrong attempt, then the wrong
        // shard with the right attempt.
        for (shard_skew, attempt_skew) in [(0, 1), (1, 0)] {
            let mut stream = hand_rolled_worker(addr, 1, |shard, attempt| Message::Result {
                shard: shard + shard_skew,
                attempt: attempt + attempt_skew,
                snapshot: p.snapshot(p.shard(30, 0)),
            });
            assert!(
                read_message(&mut stream).is_err(),
                "the coordinator hangs up on a mismatched echo"
            );
        }
        let ctx = p.pipeline.context();
        run_worker_faulty(
            addr,
            2,
            |shard| p.pipeline.scan_list_with(&ctx, p.shard(30, shard)),
            &WorkerFaults::default(),
        )
        .expect("honest worker exits");
        run.join()
            .expect("coordinator thread")
            .expect("the honest worker completes the run")
    });

    assert_byte_identical(&report, &p.serial);
    let s = &report.stats;
    assert_eq!(s.abandons, 2, "both lying leases were abandoned: {s:?}");
    assert_eq!(s.commits, report.shards as u64, "one commit per shard");
    assert_eq!(s.grants, report.shards as u64 + s.abandons, "{s:?}");
}

/// A partial that repeats a host of an earlier shard fails coverage:
/// shards must partition the population.
#[test]
fn partial_overlapping_an_earlier_shard_fails_coverage() {
    let fx = Fixture::new(0x0E1A);
    let p = fx.prepare(120);
    let shard_total = p.shard_count(30);
    let coordinator = p.coordinator(30, config(1, 60_000));
    let addr = coordinator.local_addr().expect("addr");

    let err = std::thread::scope(|s| {
        let run = s.spawn(move || coordinator.run());
        s.spawn(|| {
            let stream = hand_rolled_worker(addr, shard_total, |shard, attempt| {
                let mut hosts = p.shard(30, shard as usize).to_vec();
                if shard == 1 {
                    hosts.push(p.hosts[0].clone());
                }
                Message::Result {
                    shard,
                    attempt,
                    snapshot: p.snapshot(&hosts),
                }
            });
            drop(stream);
        });
        run.join()
            .expect("coordinator thread")
            .expect_err("shard 1 repeats a host of shard 0")
    });
    assert!(
        matches!(err, OrchestrateError::Coverage { .. }),
        "got {err}"
    );
}

/// If every worker is gone with shards uncommitted, the coordinator
/// fails loudly instead of waiting forever.
#[test]
fn coordinator_reports_workers_lost_when_the_fleet_dies() {
    let fx = Fixture::new(0x0157);
    let p = fx.prepare(usize::MAX);
    let (report, summaries) = p.run_fleet(13, config(1, 60_000), vec![die_on_first_grant()]);
    assert!(summaries[0].died);
    let err = report.expect_err("the lone worker died mid-shard");
    assert!(
        matches!(err, OrchestrateError::WorkersLost { .. }),
        "got {err}"
    );
}
