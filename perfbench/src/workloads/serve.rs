//! `serve`: the query daemon over a monitored delta chain, under a
//! closed-loop and an open-loop request mix.
//!
//! The chain fixture (a base archive plus three weekly epochs at half
//! paper scale) is built by [`fixture`] in its own process through the
//! public monitor API and is not timed. Set-up is `ServeState::load_chains`
//! plus one hit on every report the mix will ask for, so caches are warm
//! before timing; it is repeated and the median reported.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use govscan_analysis::aggregate::AggregateIndex;
use govscan_crypto::{hex, Digest, Sha256};
use govscan_monitor::{Monitor, MonitorConfig};
use govscan_serve::http::{self, Request};
use govscan_serve::json::{self, Json};
use govscan_serve::server::ChainSpec;
use govscan_serve::{ServeState, Server};
use govscan_store::Snapshot;
use govscan_worldgen::{EvolveConfig, WorldConfig};

use super::{Ctx, Rng, Stopwatch};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{self, OpenSample};
use crate::trace::Tracer;

/// Fixture world scale (91.5k hosts per epoch).
pub const FIXTURE_SCALE: f64 = 0.5;

/// Fixture epochs after the base archive.
pub const FIXTURE_EPOCHS: u32 = 3;

/// Open-loop arrival rate, requests per second: well below what one
/// sequential client saturates at on a 2-core machine, so the open loop
/// measures latency rather than a growing backlog. Stated in
/// `BENCHMARK.json`.
pub const OPEN_RATE: f64 = 1000.0;

/// Closed-loop requests per second of `--seconds`: the arm sends a
/// fixed count, so its wall time is a measurement, not a setting.
pub const CLOSED_PER_SECOND: usize = 6000;

/// The closed arm runs in this many equal rounds and reports the median
/// round, so one burst of outside load moves one round, not the run.
pub const CLOSED_ROUNDS: usize = 20;

/// Open-loop rounds; each keeps enough samples for a p99.
pub const OPEN_ROUNDS: usize = 5;

/// Timed set-ups per run; the median is reported.
pub const SETUPS: usize = 3;

/// Hostnames sampled per archive for `/hosts` requests.
const HOST_SAMPLE: usize = 400;

/// Country codes per archive the `/countries` requests draw from.
const COUNTRY_SAMPLE: usize = 8;

fn chain_spec(dir: &Path) -> ChainSpec {
    ChainSpec {
        base: dir.join("epoch-0.snap"),
        deltas: (1..=FIXTURE_EPOCHS)
            .map(|e| dir.join(format!("epoch-{e}.dlt")))
            .collect(),
    }
}

/// Where the fixture lives inside a run's work directory.
pub fn fixture_dir(work: &Path) -> PathBuf {
    work.join("fixture")
}

/// Build the chain fixture with the public monitor API.
pub fn fixture(ctx: &Ctx) -> Result<(), String> {
    let mut world = WorldConfig::paper_scale(ctx.seed);
    world.scale = FIXTURE_SCALE;
    Monitor::new(MonitorConfig {
        world,
        evolve: EvolveConfig::weekly(),
        epochs: FIXTURE_EPOCHS,
        threads: ctx.threads,
        out_dir: Some(fixture_dir(&ctx.work)),
        self_check: false,
    })
    .run()
    .map(|_| ())
    .map_err(|e| format!("fixture: {e}"))
}

/// One request of the mix and what its answer must show.
#[derive(Debug, Clone)]
struct Req {
    path: String,
    route: &'static str,
    /// For `/hosts`: the hostname the body must carry.
    host: Option<String>,
}

/// The seeded inputs drawn from the loaded chain.
struct Inputs {
    labels: Vec<String>,
    codes: Vec<Vec<String>>,
    hosts: Vec<Vec<String>>,
    diffs: Vec<(String, String)>,
}

impl Inputs {
    /// `n` requests: 80% `/hosts`, 10% `/countries`, 5% `/table2` or
    /// `/choropleth`, 3% `/diff`, 2% `/trends`.
    fn mix(&self, rng: &mut Rng, n: usize) -> Vec<Req> {
        (0..n)
            .map(|_| {
                let a = rng.below(self.labels.len());
                let label = &self.labels[a];
                match rng.below(100) {
                    0..=79 => {
                        let name = &self.hosts[a][rng.below(self.hosts[a].len())];
                        req(
                            format!("/hosts/{name}?snapshot={label}"),
                            "hosts",
                            Some(name.clone()),
                        )
                    }
                    80..=89 => {
                        let cc = &self.codes[a][rng.below(self.codes[a].len())];
                        req(
                            format!("/countries/{cc}?snapshot={label}"),
                            "countries",
                            None,
                        )
                    }
                    90..=94 if rng.below(2) == 0 => {
                        req(format!("/table2?snapshot={label}"), "table2", None)
                    }
                    90..=94 => req(format!("/choropleth?snapshot={label}"), "choropleth", None),
                    95..=97 => {
                        let (from, to) = &self.diffs[rng.below(self.diffs.len())];
                        req(format!("/diff?from={from}&to={to}"), "diff", None)
                    }
                    _ => req(format!("/trends?chain={}", self.labels[0]), "trends", None),
                }
            })
            .collect()
    }
}

fn req(path: String, route: &'static str, host: Option<String>) -> Req {
    Req { path, route, host }
}

fn respond(state: &ServeState, path: &str) -> (u16, String) {
    match Request::parse_request_line(&format!("GET {path} HTTP/1.1")) {
        Some(r) => {
            let resp = state.respond(&r);
            (resp.status, resp.body)
        }
        None => (0, String::new()),
    }
}

/// Country codes listed in a `/choropleth` body.
fn country_codes(body: &str) -> Vec<String> {
    json::parse(body)
        .ok()
        .and_then(|j| {
            j.get("countries")?.as_array().map(|rows| {
                rows.iter()
                    .filter_map(|r| r.get("country")?.as_str().map(str::to_owned))
                    .collect()
            })
        })
        .unwrap_or_default()
}

/// Daemon start to warm: load the chain, then answer once every report
/// the mix can ask for (`/countries` for a seeded pick of the codes
/// `/choropleth` lists) and one `/hosts` lookup per archive, which
/// builds its name index. Returns the state and the report requests
/// with the labels and codes they used.
fn setup(
    t: &Tracer,
    spec: &ChainSpec,
    seed: u64,
) -> Result<(ServeState, Inputs, Vec<Req>), String> {
    let state = t
        .span("serve.load_chains", || {
            ServeState::load_chains(std::slice::from_ref(spec))
        })
        .map_err(|e| format!("load_chains: {e}"))?;
    let mut rng = Rng::new(seed);
    let labels: Vec<String> = state
        .archives()
        .iter()
        .map(|a| a.label().to_owned())
        .collect();
    let warm = |r: Req, warmed: &mut Vec<Req>| -> Result<String, String> {
        let (status, body) = t.span(format!("serve.warm.{}", r.route), || {
            respond(&state, &r.path)
        });
        if status != 200 {
            return Err(format!("warm-up {} answered {status}", r.path));
        }
        warmed.push(r);
        Ok(body)
    };
    let mut warmed = Vec::new();
    let mut codes = Vec::new();
    for (a, label) in labels.iter().enumerate() {
        warm(
            req(format!("/table2?snapshot={label}"), "table2", None),
            &mut warmed,
        )?;
        let body = warm(
            req(format!("/choropleth?snapshot={label}"), "choropleth", None),
            &mut warmed,
        )?;
        let all = country_codes(&body);
        if all.is_empty() {
            return Err(format!("no countries listed for {label}"));
        }
        let picked: Vec<String> = (0..COUNTRY_SAMPLE)
            .map(|_| all[rng.below(all.len())].clone())
            .collect();
        for cc in &picked {
            warm(
                req(
                    format!("/countries/{cc}?snapshot={label}"),
                    "countries",
                    None,
                ),
                &mut warmed,
            )?;
        }
        codes.push(picked);
        let first = state.archives()[a]
            .snapshot()
            .host(0)
            .ok()
            .flatten()
            .ok_or_else(|| format!("no hosts in {label}"))?;
        let name = first.hostname;
        warm(
            req(
                format!("/hosts/{name}?snapshot={label}"),
                "hosts",
                Some(name.clone()),
            ),
            &mut warmed,
        )?;
    }
    let last = labels.len() - 1;
    let diffs = vec![
        (labels[0].clone(), labels[last].clone()),
        (labels[last - 1].clone(), labels[last].clone()),
    ];
    for (from, to) in &diffs {
        warm(
            req(format!("/diff?from={from}&to={to}"), "diff", None),
            &mut warmed,
        )?;
    }
    warm(
        req(format!("/trends?chain={}", labels[0]), "trends", None),
        &mut warmed,
    )?;
    let inputs = Inputs {
        labels,
        codes,
        hosts: Vec::new(),
        diffs,
    };
    Ok((state, inputs, warmed))
}

/// Seeded hostnames per archive for the `/hosts` requests, read through
/// the snapshots' record access (not timed).
fn sample_hosts(state: &ServeState, rng: &mut Rng) -> Result<Vec<Vec<String>>, String> {
    let mut hosts = Vec::new();
    for a in state.archives() {
        let snap = a.snapshot();
        let mut names = Vec::new();
        for _ in 0..HOST_SAMPLE {
            let i = rng.below(snap.host_count() as usize) as u64;
            let record = snap
                .host(i)
                .map_err(|e| format!("host {i}: {e}"))?
                .ok_or_else(|| format!("host {i} missing from {}", a.label()))?;
            names.push(record.hostname);
        }
        hosts.push(names);
    }
    Ok(hosts)
}

/// FNV-1a over a response body: cheap enough to compare every answer
/// against the first answer to the same path.
fn fnv(body: &str) -> u64 {
    body.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Checks every answer: expected status, a JSON body, the named host
/// for `/hosts`, and the same body for the same path every time.
#[derive(Default)]
struct Checker {
    seen: HashMap<String, (u16, u64)>,
    failed: u64,
    bytes: u64,
}

impl Checker {
    fn check(&mut self, r: &Req, answer: &std::io::Result<(u16, String)>) {
        let Ok((status, body)) = answer else {
            self.failed += 1;
            return;
        };
        self.bytes += body.len() as u64;
        let key = (*status, fnv(body));
        if let Some(prev) = self.seen.get(&r.path) {
            self.failed += u64::from(*prev != key);
            return;
        }
        let ok = *status == 200
            && match json::parse(body) {
                Err(_) => false,
                Ok(doc) => match &r.host {
                    None => true,
                    Some(name) => doc.get("hostname").and_then(Json::as_str) == Some(name.as_str()),
                },
            };
        self.failed += u64::from(!ok);
        self.seen.insert(r.path.clone(), key);
    }

    fn merge(&mut self, other: Checker) {
        self.bytes += other.bytes;
        self.failed += other.failed;
        for (path, key) in other.seen {
            if let Some(prev) = self.seen.insert(path, key) {
                self.failed += u64::from(prev != key);
            }
        }
    }
}

/// One round of an arm: its wall time and the latency summary of its
/// requests.
struct Round {
    wall_s: f64,
    /// CPU seconds of this process (daemon and clients) in the round.
    cpu_s: f64,
    requests: usize,
    latency: stats::Summary,
    /// 90th percentile latency.
    p90: f64,
    /// Open loop only: how late the generator sent.
    lateness: Option<stats::Summary>,
}

/// The median over rounds of `f`.
fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    stats::median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Closed loop over `mix` in `CLOSED_ROUNDS` equal rounds: `clients`
/// threads, one request outstanding each, requests dealt round-robin.
/// Each round runs once under every tracer given, in alternating order,
/// so traced and untraced rounds see the same machine; the rounds come
/// back grouped by tracer.
fn closed_loop(
    tracers: &[&Tracer],
    addr: SocketAddr,
    mix: &[Req],
    clients: usize,
) -> (Vec<Vec<Round>>, Checker) {
    let mut rounds: Vec<Vec<Round>> = tracers.iter().map(|_| Vec::new()).collect();
    let mut checker = Checker::default();
    for (i, part) in mix
        .chunks(mix.len().div_ceil(CLOSED_ROUNDS).max(1))
        .enumerate()
    {
        for k in 0..tracers.len() {
            let j = if i % 2 == 0 { k } else { tracers.len() - 1 - k };
            let (round, c) = closed_round(tracers[j], addr, part, clients);
            checker.merge(c);
            rounds[j].extend(round);
        }
    }
    (rounds, checker)
}

/// One closed-loop round over `part`.
fn closed_round(
    t: &Tracer,
    addr: SocketAddr,
    part: &[Req],
    clients: usize,
) -> (Option<Round>, Checker) {
    let watch = Stopwatch::start();
    let results: Vec<(Vec<f64>, Checker)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut lat = Vec::new();
                    let mut checker = Checker::default();
                    for r in part.iter().skip(c).step_by(clients) {
                        let t0 = Instant::now();
                        let answer = t.span("serve.request", || http::get(addr, &r.path));
                        lat.push(t0.elapsed().as_secs_f64() * 1e3);
                        checker.check(r, &answer);
                    }
                    (lat, checker)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let timed = watch.read();
    let mut lat = Vec::new();
    let mut checker = Checker::default();
    for (l, c) in results {
        lat.extend(l);
        checker.merge(c);
    }
    let round = match (stats::summarize(&lat, 99.0), stats::summarize(&lat, 90.0)) {
        (Some(latency), Some(p90)) => Some(Round {
            wall_s: timed.wall_s,
            cpu_s: timed.cpu_s,
            requests: lat.len(),
            latency,
            p90: p90.tail,
            lateness: None,
        }),
        _ => None,
    };
    (round, checker)
}

/// Open loop over `mix` in `OPEN_ROUNDS` equal rounds: one thread sends
/// request `i` of a round at `i / rate` seconds from the round's start,
/// late if the previous answer took longer; latency runs from the due
/// time.
fn open_loop(addr: SocketAddr, mix: &[Req], rate: f64) -> (Vec<Round>, Checker) {
    let mut rounds = Vec::new();
    let mut checker = Checker::default();
    for part in mix.chunks(mix.len().div_ceil(OPEN_ROUNDS).max(1)) {
        let watch = Stopwatch::start();
        let origin = Instant::now();
        let mut samples = Vec::with_capacity(part.len());
        for (i, r) in part.iter().enumerate() {
            let due = stats::due_time(i, rate);
            // Wait by yielding, not sleeping: a sleeping generator pays
            // the scheduler's wake-up delay, which would be charged to
            // the server as lateness.
            while origin.elapsed().as_secs_f64() < due {
                std::thread::yield_now();
            }
            let sent = origin.elapsed().as_secs_f64();
            let answer = http::get(addr, &r.path);
            let done = origin.elapsed().as_secs_f64();
            samples.push(OpenSample { due, sent, done });
            checker.check(r, &answer);
        }
        let latency: Vec<f64> = samples.iter().map(|s| s.latency() * 1e3).collect();
        let late: Vec<f64> = samples.iter().map(|s| s.lateness() * 1e3).collect();
        if let (Some(p90), Some(latency)) = (
            stats::summarize(&latency, 90.0),
            stats::summarize(&latency, 99.0),
        ) {
            let timed = watch.read();
            rounds.push(Round {
                wall_s: timed.wall_s,
                cpu_s: timed.cpu_s,
                requests: samples.len(),
                latency,
                p90: p90.tail,
                lateness: stats::summarize(&late, 99.0),
            });
        }
    }
    (rounds, checker)
}

/// SHA-256 over path, status and body of a fixed probe set: every
/// report of the mix plus the first 32 host lookups.
fn probe_digest(addr: SocketAddr, probes: &[Req]) -> Result<String, String> {
    let mut h = Sha256::new();
    for r in probes {
        let (status, body) = http::get(addr, &r.path).map_err(|e| format!("{}: {e}", r.path))?;
        h.update(r.path.as_bytes());
        h.update(&status.to_le_bytes());
        h.update(body.as_bytes());
    }
    Ok(hex::encode(&h.finalize()))
}

/// Per-layer passes over the warm state, no sockets: `respond` per
/// route, point lookups in the store, one sequential round trip per
/// `/hosts` request, and a cold `/table2` on a freshly loaded chain.
fn layer_pass(
    t: &Tracer,
    spec: &ChainSpec,
    state: &ServeState,
    addr: SocketAddr,
    inputs: &Inputs,
    mix: &[Req],
    report: &mut Report,
) -> Result<(), String> {
    for r in mix.iter().take(4000) {
        t.span(format!("serve.respond.{}", r.route), || {
            respond(state, &r.path)
        });
    }
    for r in mix.iter().filter(|r| r.route == "hosts").take(1000) {
        t.span("serve.rtt", || http::get(addr, &r.path))
            .map_err(|e| format!("rtt: {e}"))?;
    }
    for (a, names) in inputs.hosts.iter().enumerate() {
        let snap = state.archives()[a].snapshot();
        for name in names {
            t.span("store.host_by_name", || snap.host_by_name(name))
                .map_err(|e| format!("host_by_name: {e}"))?;
        }
    }
    let base = t
        .span("store.open", || Snapshot::open(&spec.base))
        .map_err(|e| format!("open: {e}"))?;
    let dataset = base.dataset().map_err(|e| format!("decode: {e}"))?;
    t.span("analysis.index_build", || AggregateIndex::build(&dataset));
    let fresh = t
        .span("serve.load_chains", || {
            ServeState::load_chains(std::slice::from_ref(spec))
        })
        .map_err(|e| format!("load_chains: {e}"))?;
    let (status, _) = t.span("serve.cold_report", || {
        respond(&fresh, &format!("/table2?snapshot={}", inputs.labels[0]))
    });
    report.check("cold /table2 answers 200", status == 200);
    let decoded: usize = state
        .archives()
        .iter()
        .map(|a| a.snapshot().decoded_sections().len())
        .sum();
    report.metric(
        "store.decoded_sections",
        decoded as f64,
        "count",
        state.archives().len() as u64,
    );
    Ok(())
}

/// Run the workload against a fixture built beforehand in
/// [`fixture_dir`].
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    report.config("fixture_scale", FIXTURE_SCALE);
    report.config("fixture_epochs", FIXTURE_EPOCHS);
    report.config("server_threads", ctx.threads);
    report.config("client_threads", ctx.threads);
    report.config("open_rate_per_s", OPEN_RATE);
    let spec = chain_spec(&fixture_dir(&ctx.work));
    let t = &ctx.tracer;

    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUPS {
        drop(loaded.take());
        let t0 = Instant::now();
        loaded = Some(setup(t, &spec, ctx.seed)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (state, mut inputs, reports) = loaded.expect("at least one set-up");
    let mut rng = Rng::new(ctx.seed ^ 0x5e_4e);
    inputs.hosts = sample_hosts(&state, &mut rng)?;
    let state = Arc::new(state);
    let closed_n = CLOSED_PER_SECOND * ctx.seconds as usize;
    let open_n = (OPEN_RATE * ctx.seconds as f64 / 2.0) as usize;
    let closed_mix = inputs.mix(&mut rng, closed_n);
    let open_mix = inputs.mix(&mut rng, open_n);

    let server = Server::bind("127.0.0.1:0", Arc::clone(&state), ctx.threads)
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let daemon = std::thread::spawn(move || server.run());

    let untraced = Tracer::new(false);
    let tracers: Vec<&Tracer> = if t.enabled() {
        vec![&untraced, t]
    } else {
        vec![&untraced]
    };
    let (mut arms, mut checker) = closed_loop(&tracers, addr, &closed_mix, ctx.threads);
    let mut attempted = (closed_mix.len() * tracers.len()) as u64;
    let output_bytes = checker.bytes / tracers.len() as u64;
    let traced = arms.split_off(1);
    let closed = arms.pop().expect("the untraced arm");
    if let Some(traced) = traced.first() {
        let wall = |rounds: &[Round]| rounds.iter().map(|r| r.wall_s).sum::<f64>();
        report.metric(
            "trace.overhead_share",
            wall(traced) / wall(&closed) - 1.0,
            "share",
            traced.len() as u64,
        );
        layer_pass(t, &spec, &state, addr, &inputs, &closed_mix, &mut report)?;
        let (hits, misses) = state.cache_stats();
        report.metric(
            "serve.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "share",
            hits + misses,
        );
    } else {
        let (open, open_checker) = open_loop(addr, &open_mix, OPEN_RATE);
        attempted += open_mix.len() as u64;
        checker.merge(open_checker);
        let n = open.len() as u64;
        let late = |f: fn(&stats::Summary) -> f64| {
            median_of(&open, |r| r.lateness.as_ref().map_or(0.0, f))
        };
        report.metric("open_p50_ms", median_of(&open, |r| r.latency.p50), "ms", n);
        report.metric("open_p90_ms", median_of(&open, |r| r.p90), "ms", n);
        report.metric("open_p99_ms", median_of(&open, |r| r.latency.tail), "ms", n);
        report.metric("open_late_p50_ms", late(|s| s.p50), "ms", n);
        report.metric("open_late_p99_ms", late(|s| s.tail), "ms", n);
        report.config(
            "open_round_requests",
            open.first().map_or(0, |r| r.requests),
        );
        report.config(
            "open_round_p99_ms",
            Json::array(open.iter().map(|r| Json::Float(r.latency.tail))),
        );
        report.config(
            "open_tail_percentile",
            open.first().map_or(0.0, |r| r.latency.tail_pct),
        );
    }
    let mut probes = reports.clone();
    probes.extend(
        closed_mix
            .iter()
            .filter(|r| r.route == "hosts")
            .take(32)
            .cloned(),
    );
    let digest = probe_digest(addr, &probes);
    attempted += probes.len() as u64;
    let stopped = http::get(addr, "/shutdown")
        .map(|(s, _)| s == 200)
        .unwrap_or(false);
    let joined = daemon.join().map(|r| r.is_ok()).unwrap_or(false);
    report.check("daemon shuts down cleanly", stopped && joined);
    match digest {
        Ok(d) => report.digest("probe_responses", d),
        Err(e) => {
            report.check(format!("probe set answers: {e}"), false);
            checker.failed += 1;
        }
    }
    report.check("every response checked out", checker.failed == 0);

    if closed.is_empty() {
        return Err("no closed-loop samples".to_owned());
    }
    let n = closed.len() as u64;
    report.config("closed_round_requests", closed[0].requests);
    let each = |rounds: &[Round], f: fn(&Round) -> f64| {
        Json::array(rounds.iter().map(|r| Json::Float(f(r))))
    };
    report.config(
        "closed_round_qps",
        each(&closed, |r| r.requests as f64 / r.wall_s),
    );
    report.config("closed_round_p99_ms", each(&closed, |r| r.latency.tail));
    report.config("closed_tail_percentile", closed[0].latency.tail_pct);
    report.metric(
        "setup_s",
        stats::median(&setups).unwrap_or(0.0),
        "s",
        setups.len() as u64,
    );
    report.config(
        "setup_samples_s",
        Json::array(setups.iter().map(|s| Json::Float(*s))),
    );
    report.metric("wall_s", median_of(&closed, |r| r.wall_s), "s", n);
    report.metric("cpu_s", median_of(&closed, |r| r.cpu_s), "s", n);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.metric("output_bytes", output_bytes as f64, "bytes", 1);
    report.metric(
        "qps",
        median_of(&closed, |r| r.requests as f64 / r.wall_s),
        "1/s",
        n,
    );
    report.metric("p50_ms", median_of(&closed, |r| r.latency.p50), "ms", n);
    report.metric("p90_ms", median_of(&closed, |r| r.p90), "ms", n);
    report.metric("p99_ms", median_of(&closed, |r| r.latency.tail), "ms", n);
    report.attempted = attempted;
    report.failed = checker.failed.max(u64::from(!report.all_checks_hold()));
    Ok(report)
}
