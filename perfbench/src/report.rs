//! What a workload process hands back to the parent process: named
//! metrics with units and sample counts, output digests, output checks
//! and the config it ran with. Carried as one JSON line on stdout.

use govscan_serve::json::{self, Json};

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value, with all its digits.
    pub value: f64,
    /// Unit (`s`, `ms`, `us`, `MB`, `bytes`, `1/s`, `count`, `share`).
    pub unit: String,
    /// Samples behind the value (1 for a single measurement).
    pub n: u64,
}

/// A workload's result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Metrics, in the order measured.
    pub metrics: Vec<Metric>,
    /// Named output digests; equal seeds must give equal digests.
    pub digests: Vec<(String, String)>,
    /// Named output checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted (requests for `serve`, runs otherwise).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Config the workload resolved (scale, window, threads, ...).
    pub config: Vec<(String, Json)>,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &str, n: u64) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.to_owned(),
            n,
        });
    }

    /// Add `value` to metric `name`, creating it; each call is one
    /// sample.
    pub fn add(&mut self, name: &str, value: f64, unit: &str) {
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value += value;
                m.n += 1;
            }
            None => self.metric(name, value, unit, 1),
        }
    }

    /// Record an output digest.
    pub fn digest(&mut self, name: &str, hex: impl Into<String>) {
        self.digests.push((name.to_owned(), hex.into()));
    }

    /// Record an output check; a failed check is a failed operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Record one config value for the stamp.
    pub fn config(&mut self, key: &str, value: impl Into<Json>) {
        self.config.push((key.to_owned(), value.into()));
    }

    /// The metric called `name`, if measured.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Whether every check held.
    pub fn all_checks_hold(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Encode as one JSON line.
    pub fn to_json(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            Json::object([
                ("name", Json::from(m.name.as_str())),
                ("value", Json::Float(m.value)),
                ("unit", Json::from(m.unit.as_str())),
                ("n", Json::from(m.n)),
            ])
        });
        let pairs = |items: &[(String, String)]| {
            Json::Object(
                items
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                    .collect(),
            )
        };
        Json::object([
            ("metrics", Json::array(metrics)),
            ("digests", pairs(&self.digests)),
            (
                "checks",
                Json::Object(
                    self.checks
                        .iter()
                        .map(|(k, ok)| (k.clone(), Json::Bool(*ok)))
                        .collect(),
                ),
            ),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("config", Json::Object(self.config.clone())),
        ])
        .encode()
    }

    /// Decode a line written by [`Report::to_json`].
    pub fn from_json(line: &str) -> Result<Report, String> {
        let root = json::parse(line)?;
        let field = |key: &str| root.get(key).ok_or_else(|| format!("missing {key:?}"));
        let object = |key: &str| match field(key)? {
            Json::Object(pairs) => Ok(pairs.clone()),
            _ => Err(format!("{key:?} is not an object")),
        };
        let count = |key: &str| {
            field(key)?
                .as_i64()
                .map(|v| v as u64)
                .ok_or_else(|| format!("{key:?} is not an integer"))
        };
        let mut report = Report {
            attempted: count("attempted")?,
            failed: count("failed")?,
            config: object("config")?,
            ..Report::default()
        };
        for m in field("metrics")?
            .as_array()
            .ok_or("metrics is not an array")?
        {
            let text = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_owned);
            let value = match m.get("value") {
                Some(Json::Float(v)) => *v,
                Some(Json::Int(v)) => *v as f64,
                _ => return Err("metric without a numeric value".to_owned()),
            };
            report.metrics.push(Metric {
                name: text("name").ok_or("metric without a name")?,
                value,
                unit: text("unit").ok_or("metric without a unit")?,
                n: m.get("n").and_then(Json::as_i64).unwrap_or(1) as u64,
            });
        }
        for (k, v) in object("digests")? {
            report
                .digests
                .push((k, v.as_str().ok_or("digest is not a string")?.to_owned()));
        }
        for (k, v) in object("checks")? {
            report.checks.push((k, v == Json::Bool(true)));
        }
        Ok(report)
    }
}

/// CPU seconds (user + system, all threads) this process has used,
/// from `/proc/self/stat`. Time the hypervisor steals is accounted as
/// steal, not to the process. 0 off Linux.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime and stime are fields 14 and 15 of the full line: 11 and 12
    // after the state field that follows the name.
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S
}

/// `USER_HZ`: the unit of `/proc` CPU times on every Linux ABI.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Peak resident set (`VmHWM`) of this process in MB, from
/// `/proc/self/status`. 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_grow_with_work() {
        let before = cpu_seconds();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        assert!(x != 1);
        let used = cpu_seconds() - before;
        assert!(used > 0.1 && used < 1.0, "{used}");
    }

    #[test]
    fn report_round_trips_through_its_json_line() {
        let mut r = Report {
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        r.metric("wall_s", 12.345678901, "s", 1);
        r.metric("p99_ms", 0.5, "ms", 40_000);
        r.digest("archive", "ab12");
        r.check("reopened host count", true);
        r.check("chain resolves", false);
        r.config("scale", 0.2);
        r.config("window", 4u64);
        let back = Report::from_json(&r.to_json()).expect("parses");
        assert_eq!(back, r);
        assert!(!back.all_checks_hold());
    }
}
