//! `monitor`: a baseline plus twelve weekly epochs of the evolving
//! world, rescanned incrementally and archived as a delta chain that is
//! resolved from disk at the end.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

use govscan_analysis::trend::{epoch_point, TrendSeries};
use govscan_monitor::{
    full_epoch_scan, incremental_epoch_scan, Monitor, MonitorConfig, MonitorReport,
};
use govscan_scanner::{plan_rescan, Decision, IncrementalPolicy, ScanDataset};
use govscan_store::{Delta, Snapshot};
use govscan_worldgen::{EvolveConfig, MonitorPlan, WorldConfig};

use super::{Ctx, Stopwatch, Timed};
use crate::report::Report;
use crate::trace::Tracer;

/// 18.3k hosts, so that several passes fit one run.
pub const SCALE: f64 = 0.1;

/// Timed passes per untraced run; the median pass is reported.
pub const PASSES: usize = 4;

/// Weekly epochs after the baseline.
pub const EPOCHS: u32 = 12;

fn world(seed: u64) -> WorldConfig {
    let mut c = WorldConfig::paper_scale(seed);
    c.scale = SCALE;
    c
}

fn epoch_file(dir: &Path, epoch: u32) -> std::path::PathBuf {
    if epoch == 0 {
        dir.join("epoch-0.snap")
    } else {
        dir.join(format!("epoch-{epoch}.dlt"))
    }
}

/// Bytes of the on-disk chain: base archive plus every delta.
fn chain_bytes(dir: &Path) -> u64 {
    (0..=EPOCHS)
        .filter_map(|e| std::fs::metadata(epoch_file(dir, e)).ok())
        .map(|m| m.len())
        .sum()
}

/// Hosts a disclosure notice goes to: reachable but not serving valid
/// https (the monitor's own rule).
fn disclosure_set(scan: &ScanDataset) -> HashSet<String> {
    scan.records()
        .iter()
        .filter(|r| r.available && !r.https.is_valid())
        .map(|r| r.hostname.clone())
        .collect()
}

/// What `Monitor::run` does (without its self-check), one public call at
/// a time, each in its own span. Returns the resolved chain's digest,
/// the last two epochs' datasets and the disclosure set in force for
/// the last epoch.
fn composed(
    world: &WorldConfig,
    threads: usize,
    dir: &Path,
    t: &Tracer,
    report: &mut Report,
) -> Result<(String, MonitorPlan, ScanDataset, HashSet<String>), String> {
    let err = |e: govscan_store::StoreError| e.to_string();
    let plan = t.span("worldgen.plan", || {
        MonitorPlan::new(world, EvolveConfig::weekly())
    });
    let evolve = plan.evolve().clone();
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut trends = TrendSeries::new();
    let (base, mut prev_snap) = t.span("monitor.epoch.e0", || {
        let base = t.span("scanner.scan", || full_epoch_scan(&plan, 0, threads));
        let bytes = t
            .span("store.encode", || Snapshot::encode(&base))
            .map_err(err)?;
        std::fs::write(epoch_file(dir, 0), &bytes).map_err(|e| e.to_string())?;
        let snap = t
            .span("store.from_bytes", || Snapshot::from_bytes(bytes))
            .map_err(err)?;
        trends.push(t.span("analysis.trend", || epoch_point("epoch 0", &base)));
        Ok::<_, String>((base, snap))
    })?;
    let hosts_base = base.len();
    let mut disclosed = HashSet::new();
    if evolve.disclosure_epoch == 0 {
        disclosed = disclosure_set(&base);
    }
    let mut prev = base;
    let mut before_last = ScanDataset::new(Vec::new(), plan.epoch_time(0));
    let mut last_window = HashSet::new();
    let mut delta_bytes = 0u64;
    let mut probe_total = (0usize, 0usize);
    for epoch in 1..=EPOCHS {
        let in_window = epoch > evolve.disclosure_epoch
            && epoch <= evolve.disclosure_epoch + evolve.response_window;
        let window = if in_window {
            disclosed.clone()
        } else {
            HashSet::new()
        };
        let (scan, snap) = t.span(format!("monitor.epoch.e{epoch}"), || {
            let (scan, stats) = t.span("scanner.incremental", || {
                incremental_epoch_scan(&plan, epoch, &prev, &window, threads)
            });
            probe_total.0 += stats.probed;
            probe_total.1 += stats.total;
            for (rule, n) in [
                ("scanner.inc_probed", stats.probed),
                ("scanner.inc_spliced", stats.spliced),
                ("scanner.inc_new", stats.new),
                ("scanner.inc_prior_broken", stats.prior_broken),
                ("scanner.inc_expiring", stats.expiring),
                ("scanner.inc_disclosed", stats.disclosed),
                ("scanner.inc_ancestor_changed", stats.ancestor_changed),
            ] {
                report.add(rule, n as f64, "count");
            }
            let full = t
                .span("store.encode", || Snapshot::encode(&scan))
                .map_err(err)?;
            let delta = t
                .span("store.delta_encode", || Delta::encode(&prev_snap, &scan))
                .map_err(err)?;
            delta_bytes += delta.len() as u64;
            std::fs::write(epoch_file(dir, epoch), &delta).map_err(|e| e.to_string())?;
            let snap = t
                .span("store.from_bytes", || Snapshot::from_bytes(full))
                .map_err(err)?;
            trends.push(t.span("analysis.trend", || {
                epoch_point(format!("epoch {epoch}"), &scan)
            }));
            Ok::<_, String>((scan, snap))
        })?;
        if epoch == evolve.disclosure_epoch {
            disclosed = disclosure_set(&scan);
        }
        if epoch == EPOCHS {
            last_window = window;
        }
        before_last = std::mem::replace(&mut prev, scan);
        prev_snap = snap;
    }
    let deltas: Vec<_> = (1..=EPOCHS).map(|e| epoch_file(dir, e)).collect();
    let resolved = t
        .span("store.open_chain", || {
            Snapshot::open_chain(epoch_file(dir, 0), &deltas)
        })
        .map_err(err)?;
    report.check(
        "traced chain resolves to its final epoch",
        resolved.digest() == prev_snap.digest(),
    );
    report.metric(
        "store.delta_bytes",
        delta_bytes as f64,
        "bytes",
        u64::from(EPOCHS),
    );
    report.metric(
        "scanner.hosts_scanned",
        (hosts_base + probe_total.0) as f64,
        "count",
        u64::from(EPOCHS) + 1,
    );
    report.metric(
        "scanner.probe_fraction",
        probe_total.0 as f64 / probe_total.1.max(1) as f64,
        "share",
        u64::from(EPOCHS),
    );
    Ok((resolved.digest().to_hex(), plan, before_last, last_window))
}

/// `shard_state` replays evolution from epoch 0, so its cost at the
/// first and the last epoch shows the replay's growth; `realize_subset`
/// is timed on the last epoch's real probe set (with the ancestors the
/// CAA climb needs, as the incremental scan realizes it).
fn evolution_pass(plan: &MonitorPlan, t: &Tracer, prev: &ScanDataset, disclosed: &HashSet<String>) {
    let shards = plan.plan().shard_count();
    for i in 0..shards {
        t.span("worldgen.shard_state.e1", || plan.shard_state(1, i));
    }
    let policy = IncrementalPolicy {
        horizon_days: plan.evolve().renewal_horizon_days,
        recently_disclosed: disclosed.clone(),
    };
    let time = plan.epoch_time(EPOCHS);
    for i in 0..shards {
        let state = t.span("worldgen.shard_state.e12", || plan.shard_state(EPOCHS, i));
        let iplan = plan_rescan(
            &policy,
            time,
            state.iter().map(|h| h.record.hostname.as_str()),
            |name| prev.get(name).cloned(),
        );
        let by_name: HashMap<&str, usize> = state
            .iter()
            .enumerate()
            .map(|(i, h)| (h.record.hostname.as_str(), i))
            .collect();
        let mut picked: Vec<usize> = iplan
            .decisions
            .iter()
            .enumerate()
            .filter(|(_, (_, d))| matches!(d, Decision::Probe(_)))
            .map(|(i, _)| i)
            .collect();
        let mut included: HashSet<usize> = picked.iter().copied().collect();
        for k in 0..picked.len() {
            let mut current = state[picked[k]].record.hostname.as_str();
            while let Some((_, parent)) = current.split_once('.') {
                if let Some(&pi) = by_name.get(parent) {
                    if included.insert(pi) {
                        picked.push(pi);
                    }
                }
                current = parent;
            }
        }
        picked.sort_unstable();
        t.span("worldgen.realize_subset", || {
            plan.realize_subset(&state, &picked)
        });
    }
}

/// The program's own entry point: `Monitor::run` with the chain written to
/// `dir`.
fn monitor_run(world: WorldConfig, threads: usize, dir: &Path) -> Result<MonitorReport, String> {
    Monitor::new(MonitorConfig {
        world,
        evolve: EvolveConfig::weekly(),
        epochs: EPOCHS,
        threads,
        out_dir: Some(dir.to_path_buf()),
        self_check: false,
    })
    .run()
    .map_err(|e| format!("monitor: {e}"))
}

/// One chain `Monitor::run` wrote and resolved, and what it cost.
struct Pass {
    timed: Timed,
    final_digest: String,
    resolved: bool,
    bytes: u64,
    hosts: u64,
}

/// `Monitor::run` with the chain on disk, then the on-disk chain
/// resolved, which the check compares to the final epoch's digest.
fn pass(ctx: &Ctx) -> Result<Pass, String> {
    let dir = ctx.work.join("chain");
    let watch = Stopwatch::start();
    let receipts = monitor_run(world(ctx.seed), ctx.threads, &dir)?;
    let deltas: Vec<_> = (1..=EPOCHS).map(|e| epoch_file(&dir, e)).collect();
    let resolved = Snapshot::open_chain(epoch_file(&dir, 0), &deltas)
        .map_err(|e| format!("resolve chain: {e}"))?;
    let timed = watch.read();
    let final_digest = receipts
        .epochs
        .last()
        .map(|r| r.digest.clone())
        .unwrap_or_default();
    let pass = Pass {
        timed,
        resolved: resolved.digest().to_hex() == final_digest,
        final_digest,
        bytes: chain_bytes(&dir),
        hosts: receipts.epochs.iter().map(|r| r.hosts).sum(),
    };
    std::fs::remove_dir_all(&dir).ok();
    Ok(pass)
}

/// Run the workload: [`PASSES`] passes untraced, one traced. Traced runs
/// add the composed pass and the evolution pass.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    report.config("scale", SCALE);
    report.config("epochs", EPOCHS);
    report.config("monitor_threads", ctx.threads);
    let n = if ctx.tracer.enabled() { 1 } else { PASSES };
    let passes = super::repeat(ctx, n, &mut report, || pass(ctx))?;
    let base = &passes[0];
    let final_digest = base.final_digest.clone();
    let failed = passes
        .iter()
        .filter(|p| !p.resolved || p.final_digest != final_digest)
        .count() as u64;
    report.check(
        "on-disk chain resolves to the final epoch's digest",
        passes.iter().all(|p| p.resolved),
    );
    report.check(
        "every pass ends on the first pass's final digest",
        passes.iter().all(|p| p.final_digest == final_digest),
    );

    if ctx.tracer.enabled() {
        let dir = ctx.work.join("chain-traced");
        let t0 = Instant::now();
        let (digest, plan, before_last, window) = composed(
            &world(ctx.seed),
            ctx.threads,
            &dir,
            &ctx.tracer,
            &mut report,
        )?;
        let traced_s = t0.elapsed().as_secs_f64();
        std::fs::remove_dir_all(&dir).ok();
        // The untraced reference runs again after the traced pass: a
        // process's first pass pays for growing its heap, which would
        // otherwise read as a negative tracing overhead.
        let again = Stopwatch::start();
        monitor_run(world(ctx.seed), ctx.threads, &dir)?;
        let untraced_s = again.read().wall_s;
        std::fs::remove_dir_all(&dir).ok();
        report.metric(
            "trace.overhead_share",
            traced_s / untraced_s - 1.0,
            "share",
            1,
        );
        report.check("traced chain equals the monitor's", digest == final_digest);
        evolution_pass(&plan, &ctx.tracer, &before_last, &window);
    }
    report.attempted = n as u64;
    report.failed = failed.max(u64::from(!report.all_checks_hold()));
    report.digest("final_epoch", final_digest);
    let timed: Vec<Timed> = passes.iter().map(|p| p.timed).collect();
    super::batch_metrics(&mut report, &timed, base.hosts, base.bytes);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_pass_archives_what_monitor_run_archives() {
        let root = std::env::temp_dir().join(format!("perfbench-monitor-{}", std::process::id()));
        let world = WorldConfig::small(0x5eed);
        let receipts = monitor_run(world.clone(), 2, &root.join("program")).expect("Monitor::run");
        let mut report = Report::default();
        let t = Tracer::new(true);
        let (digest, ..) =
            composed(&world, 2, &root.join("composed"), &t, &mut report).expect("composed");
        assert_eq!(Some(&digest), receipts.epochs.last().map(|r| &r.digest));
        assert_eq!(
            chain_bytes(&root.join("program")),
            chain_bytes(&root.join("composed")),
            "same chain on disk"
        );
        assert!(report.all_checks_hold());
        std::fs::remove_dir_all(&root).ok();
    }
}
