//! The four workloads, the context they run in, and the mapping from
//! recorded spans to per-layer metrics.

pub mod monitor;
pub mod probe;
pub mod serve;
pub mod stream;
pub mod study;

use std::path::PathBuf;

use govscan_serve::json::Json;

use crate::report::{cpu_seconds, peak_rss_mb, Report};
use crate::trace::{self, Span, Tracer};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = ["study", "stream", "monitor", "serve"];

/// Everything a workload process knows about its run.
pub struct Ctx {
    /// Seed every input is generated from.
    pub seed: u64,
    /// `--seconds`: sizes the `serve` arms.
    pub seconds: u64,
    /// Worker threads (and `serve` client threads): the machine's cores.
    pub threads: usize,
    /// Scratch directory for archives and fixtures, inside the checkout.
    pub work: PathBuf,
    /// Records spans in traced runs; disabled otherwise.
    pub tracer: Tracer,
    /// Seconds from starting this binary as a fresh workload process
    /// (`--role setup`) to its `ready` line: one set-up sample.
    pub setup: Box<dyn Fn() -> Result<f64, String>>,
}

/// Run workload `name` in this process.
pub fn run(name: &str, ctx: &Ctx) -> Result<Report, String> {
    let mut report = match name {
        "study" => study::run(ctx),
        "stream" => stream::run(ctx),
        "monitor" => monitor::run(ctx),
        "serve" => serve::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    if ctx.tracer.enabled() {
        let spans = ctx.tracer.spans();
        let mut metrics = per_layer(&spans, &report);
        let traced_ns = metrics
            .iter()
            .find(|m| m.name == "trace.wall_s")
            .map_or(0.0, |m| m.value * 1e9);
        if let Some(m) = metrics
            .iter_mut()
            .find(|m| m.name == "trace.span_cost_share")
        {
            m.value = spans.len() as f64 * span_cost_ns() / traced_ns.max(1.0);
            m.n = spans.len() as u64;
        }
        report.metrics = metrics;
    }
    Ok(report)
}

/// Nanoseconds one recorded span costs, timed on a scratch tracer: the
/// direct estimate of tracing overhead, next to the measured wall
/// difference that also carries run-to-run noise.
fn span_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let t = Tracer::new(true);
    let start = std::time::Instant::now();
    for _ in 0..N {
        t.span("trace.calibrate", || ());
    }
    start.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Process starts sampled per untraced batch run for `setup_s`.
pub const BATCH_SETUPS: usize = 30;

/// Run a batch workload's timed `pass` `n` times. Untraced runs take
/// `BATCH_SETUPS / n` set-up samples before each pass, so the samples
/// see the machine when the passes do, and report their median as
/// `setup_s`. Batch runs report the median pass: outside load that
/// slows the machine for a few seconds moves one pass, not the run.
/// `peak_rss_mb` is the peak after the first pass, what a one-shot run
/// of the program holds: later passes start on a heap that earlier ones
/// fragmented, and their peaks wander with it.
pub fn repeat<P>(
    ctx: &Ctx,
    n: usize,
    report: &mut Report,
    mut pass: impl FnMut() -> Result<P, String>,
) -> Result<Vec<P>, String> {
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut peak = None;
    for _ in 0..n {
        if !ctx.tracer.enabled() {
            for _ in 0..BATCH_SETUPS / n {
                setups.push((ctx.setup)()?);
            }
        }
        passes.push(pass()?);
        peak.get_or_insert_with(peak_rss_mb);
    }
    report.metric("peak_rss_mb", peak.unwrap_or(0.0), "MB", 1);
    if let Some(median) = crate::stats::median(&setups) {
        report.metric("setup_s", median, "s", setups.len() as u64);
        report.config(
            "setup_samples_s",
            Json::array(setups.iter().map(|s| Json::Float(*s))),
        );
    }
    report.config("passes", n);
    Ok(passes)
}

/// The median wall and the median CPU seconds over `passes`.
pub fn median_timed(passes: &[Timed]) -> Timed {
    let median = |f: fn(&Timed) -> f64| {
        let values: Vec<f64> = passes.iter().map(f).collect();
        crate::stats::median(&values).unwrap_or(0.0)
    };
    Timed {
        wall_s: median(|t| t.wall_s),
        cpu_s: median(|t| t.cpu_s),
    }
}

/// A batch workload's operation is a pass whose output is checked. Its
/// latency is the median pass's wall time (a handful of passes resolves
/// no tail beyond the median); its throughput is hosts through a pass
/// per second of the median pass.
pub fn batch_metrics(report: &mut Report, passes: &[Timed], hosts: u64, output_bytes: u64) {
    let pass = median_timed(passes);
    let n = passes.len() as u64;
    let wall_s = pass.wall_s;
    report.metric("wall_s", wall_s, "s", n);
    report.metric("cpu_s", pass.cpu_s, "s", n);
    report.metric("output_bytes", output_bytes as f64, "bytes", 1);
    report.metric("qps", hosts as f64 / wall_s, "1/s", n);
    for name in ["p50_ms", "p90_ms"] {
        report.metric(name, wall_s * 1e3, "ms", n);
    }
    report.config(
        "pass_wall_s",
        Json::array(passes.iter().map(|p| Json::Float(p.wall_s))),
    );
}

/// Wall and CPU seconds of one timed stretch of work.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds of this process (all threads) over the same stretch.
    pub cpu_s: f64,
}

/// Measures wall time and this process's CPU time from its start.
pub struct Stopwatch {
    start: std::time::Instant,
    cpu0: f64,
}

impl Stopwatch {
    /// Start measuring.
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu0: cpu_seconds(),
            start: std::time::Instant::now(),
        }
    }

    /// Wall and CPU seconds so far.
    pub fn read(&self) -> Timed {
        Timed {
            wall_s: self.start.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - self.cpu0,
        }
    }
}

/// End-to-end metrics every workload reports, with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_bytes", "bytes"),
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
];

/// The layers: the workspace crates a workload calls into.
pub const LAYERS: [&str; 10] = [
    "worldgen", "net", "pki", "scanner", "store", "analysis", "exec", "monitor", "serve", "repro",
];

/// Per-layer metrics other than the per-experiment ones, with units.
const PER_LAYER: [(&str, &str); 82] = [
    ("worldgen.generate_s", "s"),
    ("worldgen.plan_s", "s"),
    ("worldgen.realize_shard_s", "s"),
    ("worldgen.realize_shard_max_s", "s"),
    ("worldgen.max_shard_share", "share"),
    ("worldgen.shard_state_s.e1", "s"),
    ("worldgen.shard_state_s.e12", "s"),
    ("worldgen.realize_subset_s", "s"),
    ("net.resolve_us", "us"),
    ("net.fetch_http_us", "us"),
    ("net.tcp_connect_us", "us"),
    ("net.tls_connect_us", "us"),
    ("net.fetch_https_us", "us"),
    ("net.caa_lookup_us", "us"),
    ("net.cidr_lookup_us", "us"),
    ("pki.validate_us", "us"),
    ("net.resolve_n", "count"),
    ("net.fetch_http_n", "count"),
    ("net.tcp_connect_n", "count"),
    ("net.tls_connect_n", "count"),
    ("net.fetch_https_n", "count"),
    ("net.caa_lookup_n", "count"),
    ("net.cidr_lookup_n", "count"),
    ("pki.validate_n", "count"),
    ("net.dns_fail_share", "share"),
    ("net.tls_fail_share", "share"),
    ("pki.vcache_hit_ratio", "share"),
    ("scanner.discover_s", "s"),
    ("scanner.annotate_s", "s"),
    ("scanner.scan_s", "s"),
    ("scanner.hosts_scanned", "count"),
    ("scanner.incremental_s", "s"),
    ("scanner.probe_fraction", "share"),
    ("scanner.inc_probed", "count"),
    ("scanner.inc_spliced", "count"),
    ("scanner.inc_new", "count"),
    ("scanner.inc_prior_broken", "count"),
    ("scanner.inc_expiring", "count"),
    ("scanner.inc_disclosed", "count"),
    ("scanner.inc_ancestor_changed", "count"),
    ("analysis.index_build_s", "s"),
    ("analysis.trend_s", "s"),
    ("repro.env_s", "s"),
    ("store.write_s", "s"),
    ("store.append_s", "s"),
    ("store.finish_s", "s"),
    ("store.peak_pooled_bytes", "bytes"),
    ("store.encode_s", "s"),
    ("store.delta_encode_s", "s"),
    ("store.delta_bytes", "bytes"),
    ("store.open_chain_s", "s"),
    ("store.open_s", "s"),
    ("store.host_by_name_us", "us"),
    ("store.decoded_sections", "count"),
    ("exec.producer_busy_s", "s"),
    ("exec.consumer_busy_share", "share"),
    ("serve.respond_us.hosts", "us"),
    ("serve.respond_us.countries", "us"),
    ("serve.respond_us.table2", "us"),
    ("serve.respond_us.choropleth", "us"),
    ("serve.respond_us.diff", "us"),
    ("serve.respond_us.trends", "us"),
    ("serve.rtt_us", "us"),
    ("serve.cache_hit_ratio", "share"),
    ("serve.cold_report_s", "s"),
    ("monitor.epoch_s.e0", "s"),
    ("monitor.epoch_s.e1", "s"),
    ("monitor.epoch_s.e2", "s"),
    ("monitor.epoch_s.e3", "s"),
    ("monitor.epoch_s.e4", "s"),
    ("monitor.epoch_s.e5", "s"),
    ("monitor.epoch_s.e6", "s"),
    ("monitor.epoch_s.e7", "s"),
    ("monitor.epoch_s.e8", "s"),
    ("monitor.epoch_s.e9", "s"),
    ("monitor.epoch_s.e10", "s"),
    ("monitor.epoch_s.e11", "s"),
    ("monitor.epoch_s.e12", "s"),
    ("trace.overhead_share", "share"),
    ("trace.span_cost_share", "share"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
];

/// Every per-layer metric name with its unit, in report order: the
/// fixed list, one `repro.exp.<name>_s` per registered experiment, and
/// each layer's self time and span count.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for (display, _) in govscan_repro::experiments::all() {
        out.push((
            format!("repro.exp.{}_s", study::experiment_name(display)),
            "s",
        ));
    }
    for layer in LAYERS {
        out.push((format!("{layer}.self_s"), "s"));
        out.push((format!("{layer}.spans"), "count"));
    }
    out
}

/// How a metric reads the spans named after it.
#[derive(Debug, PartialEq)]
enum FromSpans {
    /// `…_s`: total seconds.
    Total(String),
    /// `…_us`: mean microseconds per span.
    Mean(String),
    /// `…_n`: number of spans.
    Count(String),
}

/// `store.append_s` → total of `store.append`; `serve.respond_us.hosts`
/// → mean of `serve.respond.hosts`; `net.resolve_n` → count of
/// `net.resolve`. The suffix sits on the last segment that carries one.
fn span_rule(metric: &str) -> Option<FromSpans> {
    let segs: Vec<&str> = metric.split('.').collect();
    for k in (0..segs.len()).rev() {
        for (suffix, make) in [
            ("_us", FromSpans::Mean as fn(String) -> FromSpans),
            ("_s", FromSpans::Total),
            ("_n", FromSpans::Count),
        ] {
            if let Some(stem) = segs[k].strip_suffix(suffix) {
                let mut name: Vec<&str> = segs.clone();
                name[k] = stem;
                return Some(make(name.join(".")));
            }
        }
    }
    None
}

/// Per-layer metrics from the spans, with values the workload measured
/// itself (shares, counts, busy times) taking precedence. A layer the
/// workload never called reports 0 with 0 samples.
pub fn per_layer(spans: &[Span], measured: &Report) -> Vec<crate::report::Metric> {
    let names = trace::by_name(spans);
    let layers = trace::by_layer(spans);
    let wall = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end)
        .max()
        .unwrap_or(0)
        .saturating_sub(spans.iter().map(|s| s.start).min().unwrap_or(0));
    let mut out = Report::default();
    for (name, unit) in per_layer_names() {
        let layer = name.split('.').next().unwrap_or("");
        let (value, n) = if let Some(m) = measured.get(&name) {
            (m.value, m.n)
        } else if name == "trace.spans" {
            (spans.len() as f64, spans.len() as u64)
        } else if name == "trace.wall_s" {
            (wall as f64 / 1e9, 1)
        } else if let Some(stat) = name.strip_prefix(layer).filter(|_| LAYERS.contains(&layer)) {
            let (count, self_ns) = layers.get(layer).copied().unwrap_or((0, 0));
            match stat {
                ".self_s" => (self_ns as f64 / 1e9, count),
                ".spans" => (count as f64, count),
                _ => from_spans(&names, &name),
            }
        } else {
            from_spans(&names, &name)
        };
        out.metric(name, value, unit, n);
    }
    out.metrics
}

fn from_spans(
    names: &std::collections::BTreeMap<String, (u64, u64, u64)>,
    metric: &str,
) -> (f64, u64) {
    let lookup = |span: &str| names.get(span).copied().unwrap_or((0, 0, 0));
    match span_rule(metric) {
        Some(FromSpans::Total(s)) => {
            let (n, total, _) = lookup(&s);
            (total as f64 / 1e9, n)
        }
        Some(FromSpans::Mean(s)) => {
            let (n, total, _) = lookup(&s);
            (total as f64 / 1e3 / n.max(1) as f64, n)
        }
        Some(FromSpans::Count(s)) => {
            let (n, _, _) = lookup(&s);
            (n as f64, n)
        }
        None => (0.0, 0),
    }
}

/// SplitMix64: the benchmark's own seeded generator for request mixes
/// and samples, independent of the program's RNG.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    #[test]
    fn metric_names_map_to_span_names() {
        assert_eq!(
            span_rule("store.append_s"),
            Some(FromSpans::Total("store.append".into()))
        );
        assert_eq!(
            span_rule("serve.respond_us.hosts"),
            Some(FromSpans::Mean("serve.respond.hosts".into()))
        );
        assert_eq!(
            span_rule("worldgen.shard_state_s.e12"),
            Some(FromSpans::Total("worldgen.shard_state.e12".into()))
        );
        assert_eq!(
            span_rule("net.resolve_n"),
            Some(FromSpans::Count("net.resolve".into()))
        );
        assert_eq!(span_rule("pki.vcache_hit_ratio"), None);
    }

    #[test]
    fn per_layer_fills_every_name_and_prefers_measured_values() {
        let span = |id, parent, name: &'static str, start, end| Span {
            id,
            parent,
            name: Cow::Borrowed(name),
            start,
            end,
        };
        let spans = [
            span(1, None, "serve.closed_loop", 0, 4_000_000_000),
            span(2, Some(1), "serve.respond.hosts", 0, 2_000),
            span(3, Some(1), "serve.respond.hosts", 10_000, 14_000),
        ];
        let mut measured = Report::default();
        measured.metric("serve.cache_hit_ratio", 0.75, "share", 8);
        let metrics = per_layer(&spans, &measured);
        let names = per_layer_names();
        assert_eq!(metrics.len(), names.len(), "one value per declared name");
        let get = |n: &str| metrics.iter().find(|m| m.name == n).expect(n);
        assert_eq!(get("serve.respond_us.hosts").value, 3.0);
        assert_eq!(get("serve.respond_us.hosts").n, 2);
        assert_eq!(get("serve.cache_hit_ratio").value, 0.75);
        assert_eq!(get("serve.spans").value, 3.0);
        assert_eq!(get("trace.wall_s").value, 4.0);
        // Layers this workload never called report zero, from zero spans.
        assert_eq!(get("worldgen.spans").value, 0.0);
        assert_eq!(get("worldgen.generate_s").n, 0);
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let names = per_layer_names();
        let mut seen = std::collections::HashSet::new();
        for (n, _) in &names {
            assert!(seen.insert(n.clone()), "duplicate {n}");
            assert!(n.len() <= 64, "{n} too long");
        }
        assert!(names.len() <= 128, "{} per-layer metrics", names.len());
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = govscan_serve::json::parse(&text).expect("valid JSON");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
            list.into_iter().map(|(n, u)| (n, u.to_owned())).collect()
        };
        assert_eq!(
            declared("end_to_end"),
            owned(
                END_TO_END
                    .iter()
                    .map(|(n, u)| (n.to_string(), *u))
                    .collect()
            )
        );
        assert_eq!(declared("per_layer"), owned(per_layer_names()));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|n| n.as_str())
                    .expect("name")
                    .to_owned()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
