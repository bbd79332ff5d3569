//! # perfbench — govscan's benchmark
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <study|stream|monitor|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `perfbench spread <files>` reads saved outputs of several runs and
//! prints each metric's median, quartiles and interquartile spread.
//!
//! Run from the repository root. Each workload runs in a child process
//! of its own with `GOVSCAN_THREADS` and every per-layer thread variable
//! pinned to the machine's core count. Every input is generated from
//! `--seed`; the program under test receives only those inputs. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones below; with `--trace 1` they are the
//! per-layer ones. Lines before it give the machine-and-config stamp,
//! the output digests (equal seeds give equal digests), every output
//! check, and each metric with its unit and sample count. The `study`
//! report's `phishing_twins` section enters its digest in a canonical
//! form, checked against `phishing::detect`: the program lists twins in
//! `HashMap` order, which differs from run to run of one seed.
//!
//! ## Workloads, and why each
//!
//! Each batch workload repeats its pass in one process (`study` three
//! times, `monitor` four, `stream` five) and reports the median pass, so
//! a few seconds of outside load on a shared machine move one pass, not
//! the run. The sizes below are chosen so the passes fit the time budget
//! of the full set of runs a comparison needs.
//!
//! - `study` — the materialized paper study at scale 0.1 (18.3k
//!   government hosts, half the reproduction default): `Env::with`
//!   (`World::generate` → `StudyPipeline::discover` → `scan_list_with`
//!   → `annotate_whitelist` → `AggregateIndex::build`), every entry of
//!   `repro::experiments::all()`, then `Snapshot::write_file`. It is the
//!   only workload through the materialized generator (including the
//!   quadratic `build_whitelist`), discovery and the report layer.
//!   `ct_coverage` dominates it because `CtLog::prove_inclusion`
//!   rebuilds the tree for every proof, which is also why it is not at
//!   paper scale.
//! - `stream` — `stream_scan_archive` at paper scale 1 (183k hosts, 203
//!   country shards), shard window 4. The only workload through
//!   `realize_shard`, `exec::pipeline`'s window and reorder buffer, and
//!   `SnapshotWriter::append_records`/`finish`. It bypasses
//!   `World::generate` and analysis. Its purpose is bounded memory, so
//!   `peak_rss_mb` matters most here.
//! - `monitor` — `Monitor::run` at scale 0.1 (18.3k hosts): a baseline
//!   plus 12 weekly epochs with `EvolveConfig::weekly()`, the chain
//!   written to disk and resolved at the end. The only workload through
//!   evolution, the incremental planner and the store's write side
//!   (`Snapshot::encode`, `Delta::encode`). Epochs 2–9 probe most hosts
//!   and epochs 10–12 few, so heavy and light incremental epochs are both
//!   covered.
//! - `serve` — the query daemon (`ServeState` behind `Server`) with one
//!   server thread per core over a chain fixture: a base plus 3 epochs
//!   at scale 0.5 (91.5k hosts per epoch), built through the public
//!   monitor API in its own process and not timed; scale 0.5 rather
//!   than 1 for the same time budget. Set-up is
//!   `ServeState::load_chains` plus one hit on every report the mix can
//!   ask for. Two arms: a closed loop (one client thread per core, one
//!   request outstanding each) and an open loop (one thread at a fixed
//!   1000 requests/s, each request timed from when it was due). The mix
//!   is 80% `/hosts/{name}?snapshot=<epoch>`, 10% `/countries/{cc}`, 5%
//!   `/table2` or `/choropleth`, 3% `/diff`, 2% `/trends`; each arm runs
//!   in rounds and reports the median round. The only read-side
//!   workload: lazy decode, point lookup, route, render and HTTP. It
//!   bypasses worldgen and the scanner.
//!
//! Each mechanism has a workload that exercises it and one that bypasses
//! it, the "must not move" control for a later claim:
//! `World::generate` and the CT proofs (`study` / `stream`);
//! `realize_shard` and `append_records` (`stream` / `serve`);
//! `Delta::encode` (`monitor` / `stream`); HTTP handling (`serve` / every
//! batch workload); store writes (`stream`, `monitor`) against store
//! reads (`serve`).
//!
//! ## End-to-end metrics (every workload reports each)
//!
//! - `setup_s` — `serve`: daemon start to warm, median of several
//!   set-ups. Batch workloads: process start to ready, median of about
//!   30 starts taken in equal groups before each pass, so work moved out
//!   of the timed phase shows here.
//! - `wall_s` — batch: config to verified output, median pass. `serve`:
//!   one closed-loop round (a fixed request count), median over rounds.
//! - `cpu_s` — CPU seconds (user + system, every thread) the workload's
//!   process spent on the same stretch as `wall_s`. Time the hypervisor
//!   steals is accounted as steal, not to the process.
//! - `peak_rss_mb` — `VmHWM` of the workload's own process; for batch
//!   workloads the median over passes of each pass's peak, the mark
//!   reset before each.
//! - `output_bytes` — archive bytes, or base plus deltas for the chain;
//!   for `serve`, response bytes of the closed loop.
//! - `qps` — `serve`: closed-loop requests per second, median over
//!   rounds. Batch: hosts per second through the median pass.
//! - `p50_ms`, `p90_ms` — `serve`: closed-loop request latency, median
//!   over rounds of each round's p50 and p90. A batch workload's
//!   operation is a pass, and a handful of passes resolves no tail, so both are
//!   the median pass's wall time. Each round also
//!   reports its p99 (at least ten requests lie beyond it), printed as
//!   `p99_ms` with every `serve` run, but the bound sits on p90: in ten
//!   runs on a shared 2-vCPU virtual machine the closed-loop p99 ranged
//!   0.40–1.09 ms with the hypervisor's scheduling stalls, while p50
//!   held within 6%.
//!
//! The open loop's `open_p50_ms`, `open_p90_ms`, `open_p99_ms` and the
//! generator's lateness are printed with every `serve` run but carry no
//! bound: on a shared 2-vCPU virtual machine the hypervisor steals 1–5%
//! of CPU time in bursts of several milliseconds, and an open loop
//! charges each burst to every request queued behind it, so its tail
//! measures the host more than the daemon. Every result stamps the steal
//! share seen during its run (`cpu_steal_share`).
//!
//! A failed output check is a failed operation (a request for `serve`, a
//! pass otherwise); `failed ÷ attempted` is the fail share, carried by
//! the result line's `attempted` and `failed` and printed as
//! `fail_share`. It is not a bounded metric because it is 0 on a correct
//! run.
//!
//! ## Per-layer metrics, and the end-to-end metric each should move
//!
//! - `worldgen.generate_s` → `wall_s` on `study` only.
//! - `worldgen.plan_s` (`stream_shards`, `MonitorPlan::new`) → `wall_s`
//!   on `stream`/`monitor`.
//! - `worldgen.realize_shard_s` (busy sum), `worldgen.realize_shard_max_s`
//!   and `worldgen.max_shard_share` → `wall_s` on `stream`; the slowest
//!   shard sets the tail.
//! - `worldgen.shard_state_s.e1`, `.e12` and `worldgen.realize_subset_s`
//!   → `wall_s` on `monitor`; `shard_state` replays from epoch 0, so the
//!   growth from e1 to e12 shows.
//! - `net.*_us` / `net.*_n` (resolve, fetch_http, tcp_connect,
//!   tls_connect, fetch_https, caa_lookup, cidr_lookup), `pki.validate_us`
//!   / `_n`, `net.dns_fail_share`, `net.tls_fail_share` and
//!   `pki.vcache_hit_ratio`, from a traced pass over the `study` list
//!   making the calls `scan_host` makes, in order → `wall_s` on
//!   `study`/`stream`/`monitor` through scanner time, never `serve`.
//! - `scanner.discover_s`, `scanner.annotate_s` → `wall_s` on `study`.
//! - `scanner.scan_s`, `scanner.hosts_scanned` → `wall_s` on the three
//!   batch workloads.
//! - `scanner.incremental_s`, `scanner.probe_fraction` and the
//!   `IncrementalStats` rule counts (`scanner.inc_*`) → `wall_s` on
//!   `monitor`.
//! - `analysis.index_build_s` → `wall_s` on `study`, `setup_s` on
//!   `serve`.
//! - `repro.exp.<name>_s`, one per experiment (`ct_coverage` dominates)
//!   → `wall_s` on `study` only.
//! - `analysis.trend_s` → `wall_s` on `monitor`.
//! - `store.write_s` → `study`.
//! - `store.append_s`, `store.finish_s`, `store.peak_pooled_bytes` →
//!   `wall_s`/`peak_rss_mb` on `stream`.
//! - `store.encode_s`, `store.delta_encode_s`, `store.delta_bytes`,
//!   `store.open_chain_s` → `wall_s`/`output_bytes` on `monitor`.
//! - `store.open_s`, `store.host_by_name_us`, `store.decoded_sections` →
//!   `setup_s`/`p50_ms` on `serve`.
//! - `exec.producer_busy_s`, `exec.consumer_busy_share` (time in the
//!   produce and consume closures ÷ wall) → `wall_s` on `stream`; a
//!   faster append helps only if the consumer is on the critical path.
//! - `serve.respond_us.<route>` (`ServeState::respond`, no socket) and
//!   `serve.rtt_us` (one sequential `/hosts` round trip) → `qps`/`p50_ms`
//!   on `serve`. `rtt − respond` is connect + accept + parse + write
//!   under `Connection: close`, what keep-alive would target; a faster
//!   `respond` moves `qps` only for cache-missing routes.
//! - `serve.cache_hit_ratio`, `serve.cold_report_s` (first `/table2` on
//!   a fresh archive) → `setup_s` on `serve`.
//! - `monitor.epoch_s.e<k>` → `wall_s` on `monitor`.
//! - `<layer>.self_s` and `<layer>.spans` for each layer — span duration
//!   minus the part its child spans cover — plus `trace.overhead_share`
//!   (traced wall ÷ untraced wall of the same work, minus one; it also
//!   carries run-to-run noise), `trace.span_cost_share` (spans recorded
//!   × the measured cost of one span ÷ traced wall), `trace.spans` and
//!   `trace.wall_s` (first span start to last top-level span end).
//!
//! The layers are the workspace crates a workload calls into: worldgen,
//! net, pki, scanner, store, analysis, exec, monitor, serve and repro.
//! Spans wrap the benchmark's own calls into their public functions; a
//! layer a workload never calls reports zero from zero spans (`serve`
//! records no worldgen or scanner spans, `stream` no `repro.exp.*`).
//! End-to-end numbers come only from untraced runs. Traced batch runs do
//! one untraced pass, the same work with spans (for `stream` and
//! `monitor` composed from the calls `stream_scan_archive` and
//! `Monitor::run` make, with digests checked equal to theirs), the
//! untraced pass again as the overhead reference (the first pass in a process also pays for growing
//! the heap), then any per-layer passes. Traced `serve` runs alternate
//! traced and untraced closed-loop rounds.

mod report;
mod stamp;
mod stats;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::Instant;

use govscan_serve::json::Json;

use report::Report;
use trace::Tracer;
use workloads::{Ctx, END_TO_END, WORKLOADS};

/// Where runs keep their archives and fixtures, under the checkout.
const WORK_ROOT: &str = ".perfbench-work";

/// Parsed command line.
#[derive(Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in workload processes: `run`, `setup` or `fixture`.
    role: Option<String>,
    work: Option<PathBuf>,
}

const USAGE: &str =
    "usage: perfbench --workload <study|stream|monitor|serve> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        role: None,
        work: None,
    };
    let mut seen_seed = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?;
                seen_seed = true;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?}\n{USAGE}")),
                }
            }
            "--role" => args.role = Some(value()?),
            "--work" => args.work = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{USAGE}", args.workload));
    }
    if !seen_seed || args.seconds == 0 {
        return Err(USAGE.to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("spread") {
        return match spread(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench spread: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = parse_args().and_then(|args| match args.role.clone() {
        Some(role) => child(&args, &role),
        None => drive(&args),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `perfbench spread <result files...>`: for each metric over the
/// files' result lines, the median, the quartiles and the interquartile
/// distance as a share of the median — the steadiness check a set of
/// runs on different seeds must pass.
fn spread(files: &[String]) -> Result<(), String> {
    let mut values: Vec<(String, Vec<f64>)> = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let last = text
            .lines()
            .last()
            .ok_or_else(|| format!("{file}: empty"))?;
        let doc = govscan_serve::json::parse(last).map_err(|e| format!("{file}: {e}"))?;
        if doc.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("{file}: run not correct"));
        }
        let Some(Json::Object(metrics)) = doc.get("metrics") else {
            return Err(format!("{file}: no metrics"));
        };
        for (name, m) in metrics {
            let v = match m.get("value") {
                Some(Json::Float(v)) => *v,
                Some(Json::Int(v)) => *v as f64,
                _ => return Err(format!("{file}: {name} has no value")),
            };
            match values.iter_mut().find(|(n, _)| n == name) {
                Some((_, vs)) => vs.push(v),
                None => values.push((name.clone(), vec![v])),
            }
        }
    }
    for (name, vs) in &values {
        let median = stats::median(vs).unwrap_or(0.0);
        match stats::quartiles(vs) {
            Some([q1, _, q3]) => println!(
                "{name} n={} median={median} q1={q1} q3={q3} spread={:.4}",
                vs.len(),
                (q3 - q1) / median.abs().max(f64::MIN_POSITIVE)
            ),
            None => println!("{name} n={} median={median}", vs.len()),
        }
    }
    Ok(())
}

/// A workload process: announce readiness (the end of set-up for batch
/// workloads), then do the role's work and print the report line.
fn child(args: &Args, role: &str) -> Result<(), String> {
    let work = args.work.clone().ok_or("--role needs --work")?;
    let setup_args = args.clone();
    let setup_work = work.clone();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads: stamp::cores(),
        work,
        tracer: Tracer::new(args.trace),
        setup: Box::new(move || Ok(run_role(&setup_args, "setup", &setup_work)?.0)),
    };
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("work dir: {e}"))?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    match role {
        "setup" => Ok(()),
        "fixture" => workloads::serve::fixture(&ctx),
        "run" => {
            let report = workloads::run(&args.workload, &ctx)?;
            writeln!(out, "{}", report.to_json()).map_err(|e| e.to_string())
        }
        other => Err(format!("unknown role {other:?}")),
    }
}

/// Start this binary as a workload process with thread counts pinned.
fn spawn(args: &Args, role: &str, work: &Path) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let cores = stamp::cores().to_string();
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--role", role])
        .arg("--work")
        .arg(work)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        // Only the pinned thread counts reach the workload: nothing from
        // the caller's environment (such as the library path `cargo run`
        // sets) changes how it starts or runs.
        .env_clear();
    for var in stamp::THREAD_VARS {
        cmd.env(var, &cores);
    }
    cmd.spawn().map_err(|e| format!("spawn {role}: {e}"))
}

/// Wait for a workload process: seconds from `start` to its `ready`
/// line, and the last line it printed.
fn finish(mut child: Child, start: Instant, role: &str) -> Result<(f64, String), String> {
    let stdout = child.stdout.take().ok_or("no stdout")?;
    let mut lines = BufReader::new(stdout).lines();
    let first = lines.next().transpose().map_err(|e| e.to_string())?;
    let ready_s = start.elapsed().as_secs_f64();
    let mut last = first.clone().unwrap_or_default();
    for line in lines {
        last = line.map_err(|e| e.to_string())?;
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() || first.as_deref() != Some("ready") {
        return Err(format!("{role} process failed ({status})"));
    }
    Ok((ready_s, last))
}

fn run_role(args: &Args, role: &str, work: &Path) -> Result<(f64, String), String> {
    let start = Instant::now();
    let child = spawn(args, role, work)?;
    finish(child, start, role)
}

/// The parent process: set-up samples, the measured process, the
/// stamp, and the result line.
fn drive(args: &Args) -> Result<(), String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let work = root.join(WORK_ROOT).join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("work dir: {e}"))?;
    let outcome = measure(args, &work);
    std::fs::remove_dir_all(&work).ok();
    std::fs::remove_dir(root.join(WORK_ROOT)).ok();
    let report = outcome?;
    print_result(args, &root, &report);
    Ok(())
}

/// The `serve` fixture if the workload needs one, then the measured
/// process, which takes its own set-up samples.
fn measure(args: &Args, work: &Path) -> Result<Report, String> {
    if args.workload == "serve" {
        run_role(args, "fixture", work)?;
    }
    let before = stamp::cpu_jiffies();
    let (_, line) = run_role(args, "run", work)?;
    let steal = stamp::steal_share(before, stamp::cpu_jiffies());
    let mut report = Report::from_json(&line).map_err(|e| format!("workload report: {e}"))?;
    report.config("cpu_steal_share", steal);
    Ok(report)
}

/// Print the stamp, digests, checks and metrics, then the result line.
fn print_result(args: &Args, root: &Path, report: &Report) {
    let names: Vec<(String, &str)> = if args.trace {
        workloads::per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let stamp = Json::object([
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("cores", Json::from(stamp::cores())),
        ("threads", stamp::resolved_threads()),
        ("git_rev", Json::from(stamp::git_rev(root))),
        ("source_digest", Json::from(stamp::source_digest(root))),
        ("config", Json::Object(report.config.clone())),
    ]);
    println!("stamp {}", stamp.encode());
    for (name, hex) in &report.digests {
        println!("digest {name} {hex}");
    }
    for (name, ok) in &report.checks {
        println!("check {} {name}", if *ok { "ok" } else { "FAILED" });
    }
    for m in &report.metrics {
        if !names.iter().any(|(n, _)| *n == m.name) {
            println!("info {} {} {} n={}", m.name, m.value, m.unit, m.n);
        }
    }
    let mut metrics = Vec::new();
    let mut complete = true;
    for (name, unit) in &names {
        match report.get(name) {
            Some(m) => {
                println!("metric {name} {} {unit} n={}", m.value, m.n);
                metrics.push((
                    name.clone(),
                    Json::object([("value", Json::Float(m.value)), ("unit", Json::from(*unit))]),
                ));
            }
            None => complete = false,
        }
    }
    println!(
        "fail_share {} ({} of {})",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    let correct = complete && report.failed == 0 && report.all_checks_hold();
    let line = Json::object([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(report.attempted.max(1))),
        ("failed", Json::from(report.failed)),
        ("metrics", Json::Object(metrics)),
    ]);
    println!("{}", line.encode());
}
