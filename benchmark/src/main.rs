//! The benchmark of record for the TrimCaching reproduction.
//!
//! ```text
//! trimcaching-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! trimcaching-benchmark compare <result-a.rec> <result-b.rec>
//! ```
//!
//! Workloads: `lora-churn`, `city-mobile`, `paper-placement` (`all` runs
//! the three in turn). Inputs are generated from `--seed` (default
//! 2024; 7 is the held-out seed a claimed gain must also pass). With
//! `--trace 0` the run is timed and prints the end-to-end metrics; with
//! `--trace 1` it is the separate traced run that prints the per-layer
//! metrics and writes its spans to `benchmark/out/`. The last line of
//! standard output is the JSON result.

mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Metric, Provenance, RunResult};
use trace::Tracer;
use workloads::{city_mobile, lora_churn, paper_placement, Outcome};

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 2024;
/// Where result records and traces go, relative to the checkout root.
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str =
    "usage: trimcaching-benchmark --workload <lora-churn|city-mobile|paper-placement|all> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       \
                     trimcaching-benchmark compare <result-a.rec> <result-b.rec>";

const WORKLOADS: [&str; 3] = [lora_churn::NAME, city_mobile::NAME, paper_placement::NAME];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn config_text(workload: &str) -> String {
    match workload {
        lora_churn::NAME => lora_churn::config_text(),
        city_mobile::NAME => city_mobile::config_text(),
        _ => paper_placement::config_text(),
    }
}

/// Runs one workload, timed or traced, and attaches provenance. `run`
/// numbers the workloads of one invocation; traced spans carry it.
fn run_one(workload: &str, run: u32, args: &Args) -> RunResult {
    let seed = args.seed;
    let mut tracer = Tracer::new(run);
    let mut outcome: Outcome = match (workload, args.trace) {
        (lora_churn::NAME, false) => lora_churn::timed_run(seed, args.seconds),
        (lora_churn::NAME, true) => lora_churn::traced_run(seed, &mut tracer),
        (city_mobile::NAME, false) => city_mobile::timed_run(seed, args.seconds),
        (city_mobile::NAME, true) => city_mobile::traced_run(seed, &mut tracer),
        (_, false) => paper_placement::timed_run(seed, args.seconds),
        (_, true) => paper_placement::traced_run(seed, &mut tracer),
    };
    if args.trace {
        complete_per_layer(&mut outcome);
        let path = out_path(&format!("trace-{workload}-seed{seed}.json"));
        if let Err(e) = write_file(&path, &tracer.to_json()) {
            outcome.ledger.failed += 1;
            outcome.ledger.failures.push(e);
        }
        outcome.note("trace_file", path.display());
    } else {
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
        if names != report::END_TO_END {
            outcome.ledger.failed += 1;
            outcome.ledger.failures.push(format!(
                "timed metrics {names:?} are not the declared end-to-end metrics"
            ));
        }
    }
    RunResult {
        workload: workload.to_string(),
        seed,
        trace: args.trace,
        provenance: Provenance::collect(&config_text(workload), seed, outcome.threads),
        attempted: outcome.ledger.attempted,
        failed: outcome.ledger.failed,
        failures: outcome.ledger.failures,
        metrics: outcome.metrics,
        notes: outcome.notes,
    }
}

/// Puts the traced metrics in `BENCHMARK.json` order and adds every
/// per-layer metric the workload does not exercise as 0, with a note.
fn complete_per_layer(outcome: &mut Outcome) {
    let mut ordered = Vec::with_capacity(layers::PER_LAYER.len());
    let mut absent = Vec::new();
    for (name, unit) in layers::PER_LAYER {
        match outcome.metrics.iter().find(|m| m.name == name) {
            Some(m) => ordered.push(m.clone()),
            None => {
                absent.push(name);
                ordered.push(Metric::count(name, unit, 0.0));
            }
        }
    }
    for m in &outcome.metrics {
        if !layers::PER_LAYER.iter().any(|(n, _)| *n == m.name) {
            outcome.ledger.failed += 1;
            outcome.ledger.failures.push(format!(
                "traced metric {} is not a declared per-layer metric",
                m.name
            ));
        }
    }
    outcome.metrics = ordered;
    if !absent.is_empty() {
        outcome.note(
            "not_exercised",
            format!(
                "reported as 0 because this workload does not run the layer: {}",
                absent.join(", ")
            ),
        );
    }
}

fn out_path(file: &str) -> PathBuf {
    Path::new(OUT_DIR).join(file)
}

fn write_file(path: &Path, body: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Prints one workload's result and keeps its record.
fn publish(result: &mut RunResult) {
    let kind = if result.trace { "traced" } else { "timed" };
    let path = out_path(&format!(
        "{}-seed{}-{kind}.rec",
        result.workload, result.seed
    ));
    if let Err(e) = write_file(&path, &result.record()) {
        result.failed += 1;
        result.failures.push(e);
    }
    eprint!("{}", result.table());
    println!("{}", result.provenance_json());
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => match report::compare(Path::new(a), Path::new(b)) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut results: Vec<RunResult> = Vec::new();
    for (run, name) in (1..).zip(names) {
        let mut result = run_one(name, run, &args);
        publish(&mut result);
        results.push(result);
    }
    let last = if results.len() == 1 {
        results.remove(0)
    } else {
        combine(results)
    };
    println!("{}", last.summary_json());
    if last.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Folds the results of `--workload all` into one, naming each metric
/// `<workload>.<metric>`.
fn combine(results: Vec<RunResult>) -> RunResult {
    let mut all = RunResult {
        workload: "all".into(),
        seed: results[0].seed,
        trace: results[0].trace,
        provenance: results[0].provenance.clone(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    for r in results {
        all.attempted += r.attempted;
        all.failed += r.failed;
        all.failures.extend(r.failures);
        all.metrics.extend(r.metrics.into_iter().map(|m| Metric {
            name: format!("{}.{}", r.workload, m.name),
            ..m
        }));
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_texts_are_key_value_lines_of_plain_values() {
        // Debug output of a library type (braces, parentheses) would tie
        // the fingerprint to that type's fields instead of the workload.
        for workload in WORKLOADS {
            let text = config_text(workload);
            assert!(
                text.starts_with(&format!("workload = {workload}\n")),
                "{text}"
            );
            for line in text.lines() {
                let (key, value) = line.split_once(" = ").unwrap_or_else(|| panic!("{line}"));
                assert!(report::valid_metric_name(key), "{line}");
                assert!(!value.is_empty(), "{line}");
                assert!(!value.contains(['{', '}', '(', ')']), "{line}");
            }
        }
    }
}
