//! §7.3.2: lookalike ("phishing twin") government domains with valid
//! certificates — `etagov.sl` posing as `eta.gov.lk`, and the 85
//! `<word>gov.us` registrations.

use govscan_scanner::{GovFilter, ScanContext};

use crate::table::TextTable;

/// A detected lookalike.
#[derive(Debug, Clone)]
pub struct Twin {
    /// The suspicious hostname.
    pub hostname: String,
    /// Why it is suspicious.
    pub pattern: TwinPattern,
    /// Does it serve valid https (making the spoof convincing)?
    pub valid_https: bool,
}

/// The lookalike patterns the paper describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwinPattern {
    /// Last label before the TLD *ends in* "gov" without a label
    /// boundary (`abcgov.us`, `etagov.sl`).
    EmbeddedGov,
    /// A government-looking name whose collapsed form equals a real
    /// government hostname under a different TLD.
    CollapsedName,
}

/// The report.
#[derive(Debug, Clone, Default)]
pub struct PhishingReport {
    /// Detected twins.
    pub twins: Vec<Twin>,
}

/// Scan a candidate hostname universe (ranking rows, crawl by-catch,
/// CT-log-style dumps) for lookalikes. Genuine government hostnames — as
/// judged by the conservative filter — are excluded by construction.
/// Twins come back sorted by hostname, whatever order the candidates
/// arrive in, so the report renders the same on every run.
pub fn detect<'a>(
    ctx: &ScanContext<'_>,
    filter: &GovFilter,
    candidates: impl Iterator<Item = &'a str>,
    gov_hosts_collapsed: &std::collections::HashSet<String>,
) -> PhishingReport {
    let mut report = PhishingReport::default();
    for host in candidates {
        let host = host.to_ascii_lowercase();
        if filter.is_gov(&host) {
            continue; // real government site
        }
        let Some((stem, _tld)) = host.rsplit_once('.') else {
            continue;
        };
        let last_label = stem.rsplit('.').next().unwrap_or(stem);
        let pattern = if last_label.len() > 3 && last_label.ends_with("gov") {
            Some(TwinPattern::EmbeddedGov)
        } else if gov_hosts_collapsed.contains(&stem.replace('.', "")) {
            Some(TwinPattern::CollapsedName)
        } else {
            None
        };
        let Some(pattern) = pattern else { continue };
        let record = govscan_scanner::scan_host(ctx, &host);
        if !record.available {
            continue;
        }
        report.twins.push(Twin {
            hostname: host,
            pattern,
            valid_https: record.https.is_valid(),
        });
    }
    report.twins.sort_by(|a, b| a.hostname.cmp(&b.hostname));
    report
}

impl PhishingReport {
    /// Twins serving valid https — the paper's headline threat.
    pub fn valid_twins(&self) -> usize {
        self.twins.iter().filter(|t| t.valid_https).count()
    }

    /// Render.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["Hostname", "Pattern", "Valid HTTPS"]);
        for twin in self.twins.iter().take(30) {
            t.row(vec![
                twin.hostname.clone(),
                format!("{:?}", twin.pattern),
                twin.valid_https.to_string(),
            ]);
        }
        let mut out = format!(
            "lookalike domains: {} total, {} with valid https\n",
            self.twins.len(),
            self.valid_twins()
        );
        out.push_str(&t.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::study;
    use govscan_scanner::StudyPipeline;

    fn report() -> PhishingReport {
        let (world, out) = study();
        let pipeline = StudyPipeline::new(world);
        let ctx = pipeline.context();
        let filter = GovFilter::standard();
        // Candidate universe: every registered hostname (a CT-log-style
        // dump of the simulated Internet).
        let candidates: Vec<String> = world.net.hostnames().map(str::to_string).collect();
        let collapsed: std::collections::HashSet<String> = out
            .scan
            .records()
            .iter()
            .map(|r| r.hostname.replace('.', ""))
            .collect();
        detect(
            &ctx,
            &filter,
            candidates.iter().map(|s| s.as_str()),
            &collapsed,
        )
    }

    #[test]
    fn render_is_independent_of_candidate_order() {
        let (world, _) = study();
        let pipeline = StudyPipeline::new(world);
        let ctx = pipeline.context();
        let filter = GovFilter::standard();
        // Make a slice of non-government hosts lookalikes of themselves,
        // so there are more twins than the render lists.
        let mut candidates: Vec<&str> = world
            .net
            .hostnames()
            .filter(|h| !filter.is_gov(h))
            .collect();
        candidates.sort_unstable();
        candidates.truncate(100);
        let collapsed: std::collections::HashSet<String> = candidates
            .iter()
            .filter_map(|h| h.rsplit_once('.'))
            .map(|(stem, _)| stem.replace('.', ""))
            .collect();
        let forward = detect(&ctx, &filter, candidates.iter().copied(), &collapsed);
        let backward = detect(&ctx, &filter, candidates.iter().rev().copied(), &collapsed);
        assert!(
            forward.twins.len() > 30,
            "more twins than the render lists: {}",
            forward.twins.len()
        );
        assert_eq!(forward.render(), backward.render());
    }

    #[test]
    fn gov_us_twins_detected() {
        let r = report();
        assert!(
            r.twins
                .iter()
                .any(|t| t.hostname.ends_with("gov.us") && t.pattern == TwinPattern::EmbeddedGov),
            "abcgov.us-style twins found"
        );
    }

    #[test]
    fn twins_have_valid_https() {
        // §7.3.2: attackers get perfectly valid free certificates.
        let r = report();
        assert!(r.valid_twins() > 0, "valid twins exist");
        let share = r.valid_twins() as f64 / r.twins.len().max(1) as f64;
        assert!(share > 0.5, "most twins valid: {share}");
    }

    #[test]
    fn real_gov_hosts_are_not_flagged() {
        let r = report();
        let filter = GovFilter::standard();
        for t in &r.twins {
            assert!(
                !filter.is_gov(&t.hostname),
                "{} flagged wrongly",
                t.hostname
            );
        }
    }

    #[test]
    fn renders() {
        assert!(report().render().contains("lookalike domains"));
    }
}
