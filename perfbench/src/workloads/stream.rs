//! `stream`: the streamed generate→scan→archive pipeline at paper
//! scale, through `realize_shard`, the executor's window and reorder
//! buffer, and the snapshot writer's append path.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use govscan_net::TlsClientConfig;
use govscan_pki::trust::TrustStoreProfile;
use govscan_repro::pipeline::stream_scan_archive;
use govscan_scanner::{ListScanner, ScanContext};
use govscan_store::{Snapshot, SnapshotWriter};
use govscan_worldgen::hosting::provider_table;
use govscan_worldgen::{stream_shards, WorldConfig};

use super::{Ctx, Stopwatch, Timed};
use crate::report::Report;
use crate::trace::Tracer;

/// 183k hosts in 203 country shards: paper scale, so that several
/// passes fit one run.
pub const SCALE: f64 = 1.0;

/// Timed passes per untraced run; the median pass is reported.
pub const PASSES: usize = 5;

/// Scanned-but-unarchived shards allowed in flight.
pub const WINDOW: usize = 4;

fn config(seed: u64) -> WorldConfig {
    let mut c = WorldConfig::paper_scale(seed);
    c.scale = SCALE;
    c
}

/// The archive a pass wrote, and what it cost.
struct Pass {
    timed: Timed,
    program_s: f64,
    hosts: u64,
    bytes: u64,
    digest: String,
    planned_hosts: u64,
}

/// What `stream_scan_archive` does, one public call at a time, each in
/// its own span. Producer work runs on pool threads under the pipeline
/// span; the consumer appends in shard order on this thread.
pub fn composed(
    config: &WorldConfig,
    out: &Path,
    threads: usize,
    t: &Tracer,
    report: &mut Report,
) -> Result<String, String> {
    let plan = t.span("worldgen.plan", || stream_shards(config));
    let scanner = ListScanner::new(plan.tranco(), plan.scan_time());
    let providers = provider_table();
    let trust = plan.cadb().trust_store(TrustStoreProfile::Apple);
    let ev = plan.cadb().ev_registry();
    let file = File::create(out).map_err(|e| e.to_string())?;
    let mut writer = SnapshotWriter::new(BufWriter::new(file), Some(plan.scan_time()))
        .map_err(|e| e.to_string())?;

    // (hosts, realize seconds) per shard, and busy time per side.
    let realized: Mutex<Vec<(usize, f64)>> = Mutex::new(Vec::new());
    let produce_busy = Mutex::new(0.0f64);
    let mut consume_busy = 0.0f64;
    let mut peak_pooled = 0usize;
    let start = Instant::now();
    t.span("exec.pipeline", || {
        let parent = t.current();
        govscan_exec::pipeline::run(
            threads,
            plan.shard_count(),
            WINDOW,
            |i| {
                t.span_under(parent, "exec.produce", || {
                    let busy = Instant::now();
                    let shard = t.span("worldgen.realize_shard", || plan.realize_shard(i));
                    let realize_s = busy.elapsed().as_secs_f64();
                    let ctx = ScanContext::new(
                        &shard.net,
                        trust,
                        ev,
                        &providers,
                        plan.scan_time(),
                        TlsClientConfig::default(),
                    );
                    let dataset = t.span("scanner.scan", || {
                        scanner.scan_list_with(&ctx, &shard.hostnames)
                    });
                    realized
                        .lock()
                        .expect("a producer panicked while recording")
                        .push((shard.hostnames.len(), realize_s));
                    *produce_busy
                        .lock()
                        .expect("a producer panicked while recording") +=
                        busy.elapsed().as_secs_f64();
                    dataset
                })
            },
            |_, dataset| {
                let busy = Instant::now();
                let appended = t.span("exec.consume", || {
                    t.span("store.append", || writer.append_records(dataset.records()))
                });
                consume_busy += busy.elapsed().as_secs_f64();
                peak_pooled = peak_pooled.max(writer.pooled_bytes());
                appended
            },
        )
    })
    .map_err(|e| format!("pipeline: {e}"))?;
    let pipeline_s = start.elapsed().as_secs_f64();
    t.span("store.finish", || writer.finish())
        .map_err(|e| format!("finish: {e}"))?
        .flush()
        .map_err(|e| format!("flush: {e}"))?;
    let digest = t
        .span("store.open", || Snapshot::open(out))
        .map_err(|e| format!("reopen: {e}"))?
        .digest()
        .to_hex();

    let realized = realized.into_inner().expect("producers finished");
    let total: usize = realized.iter().map(|(n, _)| n).sum();
    let largest = realized.iter().map(|(n, _)| *n).max().unwrap_or(0);
    let slowest = realized.iter().map(|(_, s)| *s).fold(0.0, f64::max);
    let n = realized.len() as u64;
    report.metric("worldgen.realize_shard_max_s", slowest, "s", n);
    report.metric(
        "worldgen.max_shard_share",
        largest as f64 / total.max(1) as f64,
        "share",
        n,
    );
    report.metric(
        "exec.producer_busy_s",
        produce_busy.into_inner().expect("producers finished"),
        "s",
        n,
    );
    report.metric(
        "exec.consumer_busy_share",
        consume_busy / pipeline_s.max(1e-9),
        "share",
        n,
    );
    report.metric("store.peak_pooled_bytes", peak_pooled as f64, "bytes", n);
    report.metric("scanner.hosts_scanned", total as f64, "count", n);
    Ok(digest)
}

/// The program's own entry point, then the check that the archive holds
/// every planned host.
fn pass(ctx: &Ctx) -> Result<Pass, String> {
    let out = ctx.work.join("stream.snap");
    let config = config(ctx.seed);
    let watch = Stopwatch::start();
    let receipt = stream_scan_archive(&config, &out, WINDOW, ctx.threads)
        .map_err(|e| format!("stream_scan_archive: {e}"))?;
    let program_s = watch.read().wall_s;
    let reopened = Snapshot::open(&out).map_err(|e| format!("reopen: {e}"))?;
    let planned_hosts = stream_shards(&config).host_count();
    let timed = watch.read();
    std::fs::remove_file(&out).ok();
    Ok(Pass {
        timed,
        program_s,
        hosts: reopened.host_count(),
        bytes: receipt.bytes,
        digest: reopened.digest().to_hex(),
        planned_hosts,
    })
}

/// Run the workload: [`PASSES`] passes untraced, one traced. Traced runs add the composed pass under the tracer
/// and report its wall against the `stream_scan_archive` call's as tracing overhead
/// (both end with the archive reopened for its digest).
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    report.config("scale", SCALE);
    report.config("shard_window", WINDOW);
    report.config("pipeline_threads", ctx.threads);
    let n = if ctx.tracer.enabled() { 1 } else { PASSES };
    let passes = super::repeat(ctx, n, &mut report, || pass(ctx))?;
    let base = &passes[0];
    let holds = |p: &Pass| p.hosts == p.planned_hosts;
    let failed = passes
        .iter()
        .filter(|p| !holds(p) || p.digest != base.digest)
        .count() as u64;
    report.check(
        "reopened archive holds every planned host",
        passes.iter().all(holds),
    );
    report.check(
        "every pass archives what the first did",
        passes.iter().all(|p| p.digest == base.digest),
    );
    if ctx.tracer.enabled() {
        let out = ctx.work.join("stream-traced.snap");
        let start = Instant::now();
        let digest = composed(
            &config(ctx.seed),
            &out,
            ctx.threads,
            &ctx.tracer,
            &mut report,
        )?;
        let traced_s = start.elapsed().as_secs_f64();
        std::fs::remove_file(&out).ok();
        // The untraced reference runs again after the traced pass: a
        // process's first pass pays for growing its heap, which would
        // otherwise read as a negative tracing overhead.
        let again = pass(ctx)?;
        report.metric(
            "trace.overhead_share",
            traced_s / again.program_s - 1.0,
            "share",
            1,
        );
        report.check("traced pass archives the same bytes", digest == base.digest);
    }
    report.attempted = n as u64;
    report.failed = failed.max(u64::from(!report.all_checks_hold()));
    report.digest("archive", base.digest.clone());
    let timed: Vec<Timed> = passes.iter().map(|p| p.timed).collect();
    super::batch_metrics(&mut report, &timed, base.hosts, base.bytes);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_pass_archives_what_stream_scan_archive_archives() {
        let root = std::env::temp_dir().join(format!("perfbench-stream-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let mut config = WorldConfig::paper_scale(0x5eed);
        config.scale = 0.01;
        let receipt = stream_scan_archive(&config, &root.join("program.snap"), WINDOW, 2)
            .expect("stream_scan_archive");
        let mut report = Report::default();
        let t = Tracer::new(true);
        let digest =
            composed(&config, &root.join("composed.snap"), 2, &t, &mut report).expect("composed");
        assert_eq!(digest, receipt.digest);
        let spans = t.spans();
        assert!(spans.iter().any(|s| s.name == "store.append"));
        assert!(spans.iter().all(|s| !s.name.starts_with("repro.exp.")));
        std::fs::remove_dir_all(&root).ok();
    }
}
