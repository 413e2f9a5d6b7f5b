//! The three workloads and what they share: the operation ledger, the
//! timing loop and the output checks on serving reports.

pub mod city_mobile;
pub mod lora_churn;
pub mod paper_placement;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use trimcaching_runtime::ServeReport;

use crate::report::{self, Metric};

/// Counts operations (runs, solves, set-ups) and the ones that failed:
/// returned `Err`, panicked, or failed an output check. A failure is
/// recorded and the workload goes on with its next operation.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Runs one operation, catching panics. `None` when it failed.
    pub fn run<T>(&mut self, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let error = match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(value)) => return Some(value),
            Ok(Err(e)) => e,
            Err(panic) => {
                let message = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".into());
                format!("panicked: {message}")
            }
        };
        self.failed += 1;
        self.failures.push(format!("{what}: {error}"));
        None
    }
}

/// Turns any displayable error into the ledger's error string.
pub fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Fails with `detail` unless `ok`.
pub fn ensure(ok: bool, detail: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(detail())
    }
}

/// Times `op` `reps` times; each call returns its own measured seconds
/// (set-up that must not be timed stays outside that figure). Failed
/// repetitions are dropped from the samples.
pub fn repeat<T>(
    ledger: &mut Ledger,
    what: &str,
    reps: usize,
    mut op: impl FnMut() -> Result<(f64, T), String>,
) -> (Vec<f64>, Option<T>) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Only the last value is kept: drop the previous one first so
        // two generations of inputs are never alive at once.
        last = None;
        if let Some((seconds, value)) = ledger.run(what, &mut op) {
            samples.push(seconds);
            last = Some(value);
        }
    }
    (samples, last)
}

/// Repeats `op` until `seconds` of wall time have passed and at least
/// `min_reps` repetitions ran, capped at `max_reps`. Returns the value
/// of every successful repetition and the peak RSS (MiB) each
/// repetition reached.
pub fn repeat_for<T>(
    ledger: &mut Ledger,
    what: &str,
    seconds: f64,
    min_reps: usize,
    max_reps: usize,
    mut op: impl FnMut() -> Result<T, String>,
) -> (Vec<T>, Vec<f64>) {
    let started = Instant::now();
    let mut out = Vec::new();
    let mut peaks = Vec::new();
    for rep in 0..max_reps {
        if rep >= min_reps && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let (value, peak) = with_peak_rss(|| ledger.run(what, &mut op));
        if let Some(value) = value {
            out.push(value);
            peaks.extend(peak);
        }
    }
    (out, peaks)
}

/// Runs `f` and returns the peak RSS (MiB) reached while it ran — or,
/// where the kernel cannot reset the mark, the process's peak so far.
pub fn with_peak_rss<T>(f: impl FnOnce() -> T) -> (T, Option<f64>) {
    report::reset_peak_rss();
    let out = f();
    (out, report::peak_rss_mb())
}

/// Wall-clock seconds of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// The request-accounting checks every serving report must pass.
pub fn check_serve_report(report: &ServeReport) -> Result<(), String> {
    let m = &report.metrics;
    ensure(m.requests > 0, || "the run served no requests".into())?;
    ensure(m.hits + m.misses_served + m.rejected == m.requests, || {
        format!(
            "hits {} + misses {} + rejected {} != requests {}",
            m.hits, m.misses_served, m.rejected, m.requests
        )
    })?;
    ensure(m.block_hits <= m.block_requests, || {
        format!(
            "block hits {} exceed block requests {}",
            m.block_hits, m.block_requests
        )
    })
}

/// Fails unless a repeated run reproduced the first run's report.
pub fn check_repeatable(first: &ServeReport, again: &ServeReport) -> Result<(), String> {
    ensure(first == again, || {
        format!(
            "same inputs gave a different report: {} vs {} requests, {} vs {} hits",
            first.metrics.requests, again.metrics.requests, first.metrics.hits, again.metrics.hits
        )
    })
}

/// The end-to-end metrics the serving workloads share. The throughput
/// is requests per second of the fastest `run()`: interference from
/// other tenants only ever slows a run down, and much of it comes in
/// bursts of milliseconds to seconds, which move the median run but not
/// the fastest.
pub fn serving_metrics(
    setup: &[f64],
    run_samples: &[(f64, u64)],
    peaks: Vec<f64>,
    hit_ratio: f64,
) -> Vec<Metric> {
    let rates: Vec<f64> = run_samples
        .iter()
        .map(|&(seconds, requests)| requests as f64 / seconds)
        .collect();
    vec![
        Metric::median_of("setup_s", "s", setup.to_vec()),
        Metric::max_of("throughput_per_s", "1/s", rates),
        Metric::count("hit_ratio", "ratio", hit_ratio),
        Metric::median_of("peak_rss_mb", "MB", peaks),
    ]
}

/// A scratch directory inside the checkout for files a run writes
/// (journals, checkpoints), unique to this process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    PathBuf::from("benchmark")
        .join("out")
        .join(format!("scratch-{tag}-{}", std::process::id()))
}

/// Removes a scratch directory, ignoring a missing one.
pub fn clear_dir(dir: &std::path::Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot clear {}: {e}", dir.display())),
    }
}

/// What a workload's run produced, before provenance is attached.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The operation ledger.
    pub ledger: Ledger,
    /// Metrics measured.
    pub metrics: Vec<Metric>,
    /// Facts to keep next to the numbers.
    pub notes: Vec<(String, String)>,
    /// Worker threads the workload ran on.
    pub threads: usize,
}

impl Outcome {
    /// Records a note.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}
