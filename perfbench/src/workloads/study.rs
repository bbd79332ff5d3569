//! `study`: the materialized paper study at half the reproduction
//! default scale, from world generation to the full report and the
//! archive.

use std::collections::{BTreeSet, HashSet};

use govscan_analysis::aggregate::AggregateIndex;
use govscan_analysis::phishing::{self, Twin};
use govscan_crypto::{hex, Digest, Sha256};
use govscan_repro::{experiments, Env};
use govscan_scanner::{GovFilter, StudyPipeline};
use govscan_store::Snapshot;
use govscan_worldgen::{World, WorldConfig};

use super::{probe, Ctx, Stopwatch, Timed};
use crate::report::Report;
use crate::trace::Tracer;

/// Half the reproduction binaries' default scale (18.3k government
/// hosts), so that several passes fit one run.
pub const SCALE: f64 = 0.1;

/// Timed passes per untraced run; the median pass is reported.
pub const PASSES: usize = 3;

/// Registry name of an experiment: its display name up to the first
/// space (`"ct_coverage (extension, §2.2)"` → `"ct_coverage"`).
pub fn experiment_name(display: &str) -> &str {
    display.split(' ').next().unwrap_or(display)
}

/// The experiment whose section lists rows in hash order.
const PHISHING: &str = "phishing_twins";

/// Twins `PhishingReport::render` lists at most.
const LISTED: usize = 30;

fn sha256_hex(text: &str) -> String {
    let mut h = Sha256::new();
    h.update(text.as_bytes());
    hex::encode(&h.finalize())
}

/// The twins `phishing::detect` finds on the inputs the `phishing_twins`
/// experiment gives it, sorted by hostname.
fn detected_twins(env: &Env) -> Vec<Twin> {
    let pipeline = StudyPipeline::new(&env.world);
    let ctx = pipeline.context();
    let collapsed: HashSet<String> = env
        .index()
        .hosts
        .iter()
        .map(|h| h.hostname.replace('.', ""))
        .collect();
    let filter = GovFilter::standard();
    let mut twins = phishing::detect(&ctx, &filter, env.world.net.hostnames(), &collapsed).twins;
    twins.sort_by(|a, b| a.hostname.cmp(&b.hostname));
    twins
}

/// Check the `phishing_twins` section against the detected `twins` and
/// return it in a form that is the same on every run of one seed.
///
/// The experiment lists at most [`LISTED`] twins in the order
/// `SimNet::hostnames()` yields them, which is a `HashMap`'s: it differs
/// between processes and between maps in one process, so the rows, and
/// above [`LISTED`] twins which ones are listed, change from run to run.
/// The check: the summary counts equal the detected ones, every row is
/// a detected twin with its pattern and validity, no row repeats, and
/// as many rows are listed as the cap allows. The returned text keeps
/// the summary and comparison lines and lists every detected twin in
/// hostname order in place of the table.
fn canonical_phishing(text: &str, twins: &[Twin]) -> Result<String, String> {
    let valid = twins.iter().filter(|t| t.valid_https).count();
    let want = format!(
        "lookalike domains: {} total, {valid} with valid https",
        twins.len()
    );
    let mut lines = text.lines();
    let summary = lines.next().unwrap_or_default();
    if summary != want {
        return Err(format!("summary {summary:?}, detected {want:?}"));
    }
    // The table's header and rule: their widths follow the listed rows.
    lines.next();
    lines.next();
    let mut listed = BTreeSet::new();
    let mut rest = String::new();
    for line in lines {
        if line.is_empty() || line.starts_with(' ') {
            rest.push_str(line);
            rest.push('\n');
            continue;
        }
        let row: Vec<&str> = line.split_whitespace().collect();
        let found = twins.iter().any(|t| {
            row == [
                t.hostname.as_str(),
                &format!("{:?}", t.pattern),
                &t.valid_https.to_string(),
            ]
        });
        if !found {
            return Err(format!("row {line:?} is not a detected twin"));
        }
        if !listed.insert(row[0]) {
            return Err(format!("{} listed twice", row[0]));
        }
    }
    if listed.len() != twins.len().min(LISTED) {
        return Err(format!(
            "{} rows listed of {} twins",
            listed.len(),
            twins.len()
        ));
    }
    let mut out = format!("{summary}\n");
    for t in twins {
        out.push_str(&format!(
            "{} {:?} {}\n",
            t.hostname, t.pattern, t.valid_https
        ));
    }
    out.push_str(&rest);
    Ok(out)
}

/// What one pass produced.
struct Pass {
    timed: Timed,
    hosts: usize,
    archive_bytes: u64,
    archive_digest: String,
    report_digest: String,
    /// SHA-256 of each experiment's text, in registry order.
    section_digests: Vec<(String, String)>,
    checks: Vec<(String, bool)>,
}

/// Generate → discover → scan → annotate → index (inside `Env::with`),
/// every experiment in registry order, then archive the scan and check
/// the archive against the dataset it was written from.
fn pass(ctx: &Ctx, t: &Tracer) -> Result<Pass, String> {
    let path = ctx.work.join("study.snap");
    let watch = Stopwatch::start();
    let mut env = t.span("repro.env", || Env::with(ctx.seed, SCALE));
    let mut report = String::new();
    let mut rendered = 0;
    let mut section_digests = Vec::new();
    let mut checks = Vec::new();
    for (display, run) in experiments::all() {
        let name = experiment_name(display);
        let mut text = t.span(format!("repro.exp.{name}"), || run(&mut env));
        rendered += usize::from(!text.trim().is_empty());
        if name == PHISHING {
            // Before `disclosure`, the last experiment, remediates hosts.
            let twins = t.span("analysis.phishing_detect", || detected_twins(&env));
            let canonical = canonical_phishing(&text, &twins);
            if let Err(e) = &canonical {
                eprintln!("perfbench: {PHISHING}: {e}");
            }
            checks.push((
                format!("{PHISHING} lists detected twins, as many as it may"),
                canonical.is_ok(),
            ));
            text = canonical.unwrap_or(text);
        }
        section_digests.push((format!("report.{name}"), sha256_hex(&text)));
        report.push_str("== ");
        report.push_str(display);
        report.push_str(" ==\n");
        report.push_str(&text);
    }
    let archive_bytes = t
        .span("store.write", || {
            Snapshot::write_file(&path, &env.study.scan)
        })
        .map_err(|e| format!("write archive: {e}"))?;
    let (reopened, want) = t.span("store.verify", || {
        (Snapshot::open(&path), Snapshot::digest_of(&env.study.scan))
    });
    let reopened = reopened.map_err(|e| format!("reopen archive: {e}"))?;
    let want = want.map_err(|e| format!("digest dataset: {e}"))?;
    let timed = watch.read();

    let hosts = env.study.scan.len();
    checks.extend([
        (
            "archive host count equals the scan".to_owned(),
            reopened.host_count() == hosts as u64,
        ),
        (
            "archive digest equals the scanned dataset's".to_owned(),
            reopened.digest() == want,
        ),
        (
            "every experiment rendered a report".to_owned(),
            rendered == experiments::all().len(),
        ),
    ]);
    std::fs::remove_file(&path).ok();
    Ok(Pass {
        timed,
        hosts,
        archive_bytes,
        archive_digest: reopened.digest().to_hex(),
        report_digest: sha256_hex(&report),
        section_digests,
        checks,
    })
}

/// The steps `Env::with` performs, called one by one so each layer gets
/// its own span, then the probe-stage pass over the same host list.
/// Returns the digest of the scan it produced.
fn layer_pass(ctx: &Ctx, t: &Tracer, report: &mut Report) -> Result<String, String> {
    let mut config = WorldConfig::paper_scale(ctx.seed);
    config.scale = SCALE;
    let world = t.span("worldgen.generate", || World::generate(&config));
    let pipeline = StudyPipeline::new(&world);
    let discovery = t.span("scanner.discover", || pipeline.discover());
    let scan_ctx = pipeline.context();
    let mut scan = t.span("scanner.scan", || {
        pipeline.scan_list_with(&scan_ctx, &discovery.final_list)
    });
    t.span("scanner.annotate", || {
        pipeline.annotate_whitelist(&mut scan)
    });
    let index = t.span("analysis.index_build", || AggregateIndex::build(&scan));
    report.metric("scanner.hosts_scanned", scan.len() as f64, "count", 1);
    drop(index);
    let digest = Snapshot::digest_of(&scan).map_err(|e| format!("digest: {e}"))?;
    t.span("scanner.probe_pass", || {
        probe::probe_stages(t, &pipeline.context(), &discovery.final_list, report)
    });
    Ok(digest.to_hex())
}

/// Run the workload. Untraced: [`PASSES`] passes. Traced: one pass
/// untraced, the same pass traced and untraced again (the last two give
/// the tracing overhead), then the per-layer pass.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    report.config("scale", SCALE);
    let n = if ctx.tracer.enabled() { 1 } else { PASSES };
    let passes = super::repeat(ctx, n, &mut report, || pass(ctx, &Tracer::new(false)))?;
    let base = &passes[0];
    let same =
        |p: &Pass| p.archive_digest == base.archive_digest && p.report_digest == base.report_digest;
    let failed = passes
        .iter()
        .filter(|p| !same(p) || p.checks.iter().any(|(_, ok)| !ok))
        .count() as u64;
    for (i, (name, _)) in base.checks.iter().enumerate() {
        report.check(name.clone(), passes.iter().all(|p| p.checks[i].1));
    }
    report.check(
        "every pass archives and renders what the first did",
        passes.iter().all(same),
    );
    if ctx.tracer.enabled() {
        let traced = pass(ctx, &ctx.tracer)?;
        // The untraced reference runs again after the traced pass: a
        // process's first pass pays for growing its heap, which would
        // otherwise read as a negative tracing overhead.
        let again = pass(ctx, &Tracer::new(false))?;
        report.metric(
            "trace.overhead_share",
            traced.timed.wall_s / again.timed.wall_s - 1.0,
            "share",
            1,
        );
        report.check(
            "traced pass archives the same bytes",
            traced.archive_digest == base.archive_digest,
        );
        report.check(
            "traced pass renders the same report",
            traced.report_digest == base.report_digest,
        );
        for ((name, want), (_, got)) in base.section_digests.iter().zip(&traced.section_digests) {
            if want != got {
                eprintln!("perfbench: traced pass renders another {name}");
            }
        }
        let layered = layer_pass(ctx, &ctx.tracer, &mut report)?;
        report.check(
            "step-by-step scan equals the study's",
            layered == base.archive_digest,
        );
    }
    report.attempted = n as u64;
    report.failed = failed.max(u64::from(!report.all_checks_hold()));
    report.digest("archive", base.archive_digest.clone());
    report.digest("report_text", base.report_digest.clone());
    for (name, hex) in &base.section_digests {
        report.digest(name, hex.clone());
    }
    let timed: Vec<Timed> = passes.iter().map(|p| p.timed).collect();
    super::batch_metrics(&mut report, &timed, base.hosts as u64, base.archive_bytes);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use govscan_analysis::phishing::{PhishingReport, TwinPattern};

    fn twin(hostname: &str, valid_https: bool) -> Twin {
        Twin {
            hostname: hostname.to_owned(),
            pattern: TwinPattern::EmbeddedGov,
            valid_https,
        }
    }

    fn section(twins: &[Twin]) -> String {
        let mut text = PhishingReport {
            twins: twins.to_vec(),
        }
        .render();
        text.push_str("  twins with valid https   paper=yes measured=1\n");
        text
    }

    #[test]
    fn phishing_section_is_canonical_in_any_listing_order() {
        let mut twins: Vec<Twin> = (0..LISTED + 5)
            .map(|i| twin(&format!("tax{i}gov.us"), i % 3 > 0))
            .collect();
        twins.sort_by(|a, b| a.hostname.cmp(&b.hostname));
        let mut shuffled = twins.clone();
        shuffled.reverse();
        shuffled.swap(0, LISTED + 2);
        let want = canonical_phishing(&section(&twins), &twins).unwrap();
        assert_eq!(
            canonical_phishing(&section(&shuffled), &twins),
            Ok(want.clone())
        );
        assert!(want.contains(&format!("tax{}gov.us EmbeddedGov", LISTED + 4)));
        assert!(want.ends_with("measured=1\n"));
    }

    #[test]
    fn phishing_section_must_list_detected_twins() {
        let twins = vec![twin("dmv1gov.us", true), twin("id2gov.us", false)];
        // A row with another validity than detected.
        let wrong = vec![twin("dmv1gov.us", true), twin("id2gov.us", true)];
        assert!(canonical_phishing(&section(&wrong), &twins).is_err());
        // A row missing.
        let short = section(&twins[..1]).replace("1 total, 1", "2 total, 1");
        assert!(canonical_phishing(&short, &twins).is_err());
        // A twin never detected.
        let extra = vec![twin("dmv1gov.us", true), twin("irs3gov.us", false)];
        assert!(canonical_phishing(&section(&extra), &twins).is_err());
        assert!(canonical_phishing(&section(&twins), &twins).is_ok());
    }
}
