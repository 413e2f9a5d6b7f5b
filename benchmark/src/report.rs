//! Metrics, provenance and the result formats.
//!
//! Every run prints, as the last line of standard output, one JSON
//! object with exactly the keys `correct`, `attempted`, `failed` and
//! `metrics`. The line before it carries the provenance and the sample
//! count behind each metric, and the same record is written to
//! `benchmark/out/` as `key = value` lines, which `compare` reads back.

use std::fmt::Write as _;
use std::path::Path;

use trimcaching_sim::sweep::fnv1a;

/// The end-to-end metrics every timed run reports, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [&str; 4] = ["setup_s", "throughput_per_s", "hit_ratio", "peak_rss_mb"];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from `BENCHMARK.json` (grammar: [`valid_metric_name`]).
    pub name: String,
    /// Unit, e.g. `s`, `1/s`, `count`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// How many samples the value summarises (1 for a count).
    pub samples: usize,
    /// The samples themselves, when the value is a summary of several.
    pub raw: Vec<f64>,
}

impl Metric {
    /// A metric summarising `samples` measurements.
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name: name.to_string(),
            unit,
            value,
            samples,
            raw: Vec::new(),
        }
    }

    /// The median of `raw`, keeping the samples.
    pub fn median_of(name: &str, unit: &'static str, raw: Vec<f64>) -> Self {
        Self {
            value: crate::stats::median(&raw).unwrap_or(f64::NAN),
            samples: raw.len(),
            raw,
            ..Self::new(name, unit, 0.0, 0)
        }
    }

    /// The largest of `raw`, keeping the samples.
    pub fn max_of(name: &str, unit: &'static str, raw: Vec<f64>) -> Self {
        Self {
            value: raw.iter().copied().fold(f64::NAN, f64::max),
            samples: raw.len(),
            raw,
            ..Self::new(name, unit, 0.0, 0)
        }
    }

    /// An exact count or a ratio of counts.
    pub fn count(name: &str, unit: &'static str, value: f64) -> Self {
        Self::new(name, unit, value, 1)
    }
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let starts_well = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_well
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Where and on what a result was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `git rev-parse HEAD` of the checkout, or `unknown` outside git.
    pub git_rev: String,
    /// Worker threads the workload ran on.
    pub threads: usize,
    /// FNV-1a fingerprint of the workload's config text plus the seed.
    pub fingerprint: u64,
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Provenance {
    /// Collects the host facts for a workload whose inputs are described
    /// by `config_text` and generated from `seed`.
    pub fn collect(config_text: &str, seed: u64, threads: usize) -> Self {
        Self {
            nproc: nproc(),
            cpu_model: cpu_model(),
            git_rev: git_rev(),
            threads,
            fingerprint: fingerprint(config_text, seed),
        }
    }
}

/// The config fingerprint: FNV-1a over the canonical config text followed
/// by the seed, the idiom the sweep harness anchors its cell seeds on.
pub fn fingerprint(config_text: &str, seed: u64) -> u64 {
    fnv1a(format!("{config_text}\nseed = {seed}\n").as_bytes())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the working directory. Git may not search above the
/// working directory, so a checkout without `.git` reads `unknown`
/// instead of some enclosing repository's commit.
fn git_rev() -> String {
    let Ok(cwd) = std::env::current_dir() else {
        return "unknown".into();
    };
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Resets the peak-RSS mark to the current RSS, so the next
/// [`peak_rss_mb`] covers only what runs in between. Returns whether the
/// kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Everything one invocation reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Host and config facts.
    pub provenance: Provenance,
    /// Operations (runs and solves) attempted.
    pub attempted: u64,
    /// Operations that returned an error, panicked or failed a check.
    pub failed: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Free-form facts worth keeping next to the numbers (input sizes,
    /// absent per-layer metrics and why).
    pub notes: Vec<(String, String)>,
}

impl RunResult {
    /// Correct when nothing failed and every metric is finite and
    /// legally named.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && valid_metric_name(&m.name))
    }

    /// The last line of standard output.
    pub fn summary_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The provenance line printed before the summary.
    pub fn provenance_json(&self) -> String {
        let p = &self.provenance;
        let samples: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, m.samples))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
             \"cpu_model\": \"{}\", \"git_rev\": \"{}\", \"threads\": {}, \
             \"fingerprint\": \"{:016x}\", \"samples\": {{{}}}}}",
            self.workload,
            self.seed,
            self.trace,
            p.nproc,
            p.cpu_model.replace('"', "'"),
            p.git_rev,
            p.threads,
            p.fingerprint,
            samples.join(", ")
        )
    }

    /// The `key = value` record `compare` reads.
    pub fn record(&self) -> String {
        let p = &self.provenance;
        let mut out = String::new();
        let _ = writeln!(out, "workload = {}", self.workload);
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "trace = {}", u8::from(self.trace));
        let _ = writeln!(out, "host.nproc = {}", p.nproc);
        let _ = writeln!(out, "host.cpu_model = {}", p.cpu_model);
        let _ = writeln!(out, "git_rev = {}", p.git_rev);
        let _ = writeln!(out, "threads = {}", p.threads);
        let _ = writeln!(out, "fingerprint = {:016x}", p.fingerprint);
        let _ = writeln!(out, "correct = {}", self.correct());
        let _ = writeln!(out, "attempted = {}", self.attempted);
        let _ = writeln!(out, "failed = {}", self.failed);
        for f in &self.failures {
            let _ = writeln!(out, "failure = {}", f.replace('\n', " "));
        }
        for (k, v) in &self.notes {
            let _ = writeln!(out, "note.{k} = {}", v.replace('\n', " "));
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "metric.{} = {} {} n={}",
                m.name, m.value, m.unit, m.samples
            );
            if !m.raw.is_empty() {
                let raw: Vec<String> = m.raw.iter().map(f64::to_string).collect();
                let _ = writeln!(out, "samples.{} = {}", m.name, raw.join(" "));
            }
        }
        out
    }

    /// A human-readable table for standard error.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} (seed {}, {} thread(s), fingerprint {:016x}, {}):\n",
            self.workload,
            self.seed,
            self.provenance.threads,
            self.provenance.fingerprint,
            if self.trace { "traced" } else { "timed" }
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<44} {:>16.6} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for (k, v) in &self.notes {
            let _ = writeln!(out, "  note {k}: {v}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        out
    }
}

/// A parsed `key = value` record.
struct Record {
    fields: Vec<(String, String)>,
}

impl Record {
    fn parse(text: &str) -> Self {
        let fields = text
            .lines()
            .filter_map(|l| l.split_once(" = "))
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .collect();
        Self { fields }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn metrics(&self) -> Vec<(&str, f64, &str)> {
        self.fields
            .iter()
            .filter_map(|(k, v)| {
                let name = k.strip_prefix("metric.")?;
                let mut parts = v.split_whitespace();
                let value = parts.next()?.parse().ok()?;
                Some((name, value, parts.next().unwrap_or("")))
            })
            .collect()
    }
}

/// Compares two result records. Refuses (returns `Err`) when they come
/// from different hosts or different workload fingerprints, since their
/// numbers would then measure different things.
pub fn compare(a: &Path, b: &Path) -> Result<String, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map(|t| Record::parse(&t))
            .map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let (ra, rb) = (read(a)?, read(b)?);
    for key in ["host.nproc", "host.cpu_model", "fingerprint", "trace"] {
        let (va, vb) = (ra.get(key), rb.get(key));
        if va.is_none() || va != vb {
            return Err(format!(
                "refusing to compare: {key} differs ({} vs {})",
                va.unwrap_or("missing"),
                vb.unwrap_or("missing")
            ));
        }
    }
    let mut out = format!(
        "{} seed {}: {} -> {}\n",
        ra.get("workload").unwrap_or("?"),
        ra.get("seed").unwrap_or("?"),
        ra.get("git_rev").unwrap_or("?"),
        rb.get("git_rev").unwrap_or("?")
    );
    let theirs = rb.metrics();
    for (name, va, unit) in ra.metrics() {
        match theirs.iter().find(|(n, _, _)| *n == name) {
            Some(&(_, vb, _)) => {
                let change = if va == 0.0 {
                    0.0
                } else {
                    (vb - va) / va * 100.0
                };
                let _ = writeln!(
                    out,
                    "  {name:<44} {va:>14.6} {vb:>14.6} {unit:<6} {change:+.2}%"
                );
            }
            None => {
                let _ = writeln!(out, "  {name:<44} {va:>14.6} {:>14} {unit}", "absent");
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in [
            "setup_s",
            "runtime.cache.op_ns",
            "scenario.mobility.slot_ms.p90",
            "9-lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "-x",
            "has space",
            "slash/name",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn fingerprint_is_stable_and_seed_sensitive() {
        // Pinned: a change here silently breaks comparisons with every
        // earlier result record.
        assert_eq!(fingerprint("users = 10\n", 1), 0x6757_7597_b163_fa66);
        assert_eq!(
            fingerprint("users = 10\n", 1),
            fingerprint("users = 10\n", 1)
        );
        assert_ne!(
            fingerprint("users = 10\n", 1),
            fingerprint("users = 10\n", 2)
        );
        assert_ne!(
            fingerprint("users = 10\n", 1),
            fingerprint("users = 11\n", 1)
        );
    }

    fn result(fingerprint: u64, value: f64) -> RunResult {
        RunResult {
            workload: "w".into(),
            seed: 1,
            trace: false,
            provenance: Provenance {
                nproc: 2,
                cpu_model: "cpu".into(),
                git_rev: "abc".into(),
                threads: 1,
                fingerprint,
            },
            attempted: 3,
            failed: 0,
            failures: Vec::new(),
            metrics: vec![Metric::new("latency_ms", "ms", value, 3)],
            notes: Vec::new(),
        }
    }

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let line = result(7, 1.25).summary_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        let mut broken = result(7, f64::NAN);
        assert!(!broken.correct());
        broken.metrics[0].value = 1.0;
        broken.failed = 1;
        assert!(!broken.correct());
    }

    #[test]
    fn compare_refuses_other_fingerprints() {
        let dir = std::env::temp_dir().join(format!("tc-bench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b, c) = (dir.join("a"), dir.join("b"), dir.join("c"));
        std::fs::write(&a, result(7, 1.0).record()).unwrap();
        std::fs::write(&b, result(7, 1.5).record()).unwrap();
        std::fs::write(&c, result(8, 1.5).record()).unwrap();
        let table = compare(&a, &b).unwrap();
        assert!(table.contains("+50.00%"), "{table}");
        assert!(compare(&a, &c).unwrap_err().contains("fingerprint"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
