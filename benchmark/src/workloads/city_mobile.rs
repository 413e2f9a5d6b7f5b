//! `city-mobile`: the region-sharded engine on a mobile district with
//! every subsystem on.
//!
//! `CityScaleConfig::district()` (175 Poisson servers at fixed sites,
//! sparse eligibility) with 2 500 seeded users, 64 clustered demand
//! classes, 0.4 GB caches and p_A = 0.005, served for 600 simulated
//! seconds at 0.05 Hz per user (about 80 000 requests) by
//! `ShardedServeEngine` with R = 2 on `min(2, nproc)` threads under
//! cost-aware LFU. Lazy-greedy warm start; mobility every 5 s; control
//! ticks every 30 s with a 120 s epoch re-plan and a half-library
//! popularity flip at 300 s; a 10% outage storm at 360 s; journal plus
//! 60 s checkpoints.

use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;

use trimcaching_modellib::builders::SpecialCaseBuilder;
use trimcaching_placement::{PlacementAlgorithm, TrimCachingGenLazy};
use trimcaching_runtime::{
    rotate_popularity, ControlConfig, CostAwareLfu, DriftConfig, FaultConfig, PersistConfig,
    ServeConfig, ServeReport, ShardedServeEngine, Workload,
};
use trimcaching_scenario::{Placement, Scenario};
use trimcaching_sim::CityScaleConfig;
use trimcaching_wireless::geometry::DeploymentArea;

use super::{
    check_repeatable, check_serve_report, clear_dir, err, repeat, repeat_for, scratch_dir,
    serving_metrics, timed, Outcome,
};
use crate::layers;
use crate::report::{nproc, Metric};
use crate::stats::{percentile, reportable_tail};
use crate::trace::Tracer;

/// Workload name.
pub const NAME: &str = "city-mobile";
const MODELS_PER_BACKBONE: usize = 10;
/// The library and the district's server sites are part of the system
/// under test, not of the random input: they are drawn once from these
/// seeds. The run's seed draws where the users start, their requests,
/// their movement and the outage storm. With the sites drawn per seed,
/// the Poisson server count alone moved the throughput by 19% over ten
/// seeds.
const LIBRARY_SEED: u64 = 2024;
const SITES_SEED: u64 = 2024;
const USERS: usize = 2_500;
const DEMAND_CLASSES: usize = 64;
const CAPACITY_GB: f64 = 0.4;
const ACTIVITY: f64 = 0.005;
const SHARDS: usize = 2;
const DURATION_S: f64 = 600.0;
const RATE_HZ: f64 = 0.05;
const MOBILITY_SLOT_S: f64 = 5.0;
const FLIP_AT_S: f64 = 300.0;
const STORM_AT_S: f64 = 360.0;
const STORM_FRACTION: f64 = 0.1;
const OUTAGE_S: f64 = 120.0;
const TICK_S: f64 = 30.0;
const REPLAN_EVERY_S: f64 = 120.0;
const CHECKPOINT_EVERY_S: f64 = 60.0;
const SETUP_REPS: usize = 5;
const MIN_RUNS: usize = 3;
const MAX_RUNS: usize = 50;

fn city() -> CityScaleConfig {
    let mut city = CityScaleConfig::district()
        .with_users(USERS)
        .with_demand_classes(DEMAND_CLASSES);
    city.capacity_gb = CAPACITY_GB;
    city.radio.activity_probability = ACTIVITY;
    city
}

fn control() -> ControlConfig {
    ControlConfig::paper_defaults()
        .with_tick_s(TICK_S)
        .with_drift(DriftConfig {
            replan_every_s: REPLAN_EVERY_S,
            ..DriftConfig::paper_defaults()
        })
}

/// Everything but the seed-dependent storm and the persistence
/// directory.
fn base_config(seed: u64) -> ServeConfig {
    let mut config = ServeConfig::paper_defaults()
        .with_duration_s(DURATION_S)
        .with_request_rate_hz(RATE_HZ)
        .with_mobility_slot_s(MOBILITY_SLOT_S)
        .with_control(control())
        .with_seed(seed);
    config.area_side_m = city().area_side_m;
    config
}

/// The canonical config text the fingerprint is taken over: the
/// workload's own constants as `key = value` lines, so it changes when
/// the workload does and not when a library type gains a field.
pub fn config_text() -> String {
    format!(
        "workload = {NAME}\n\
         library = special\n\
         library.models_per_backbone = {MODELS_PER_BACKBONE}\n\
         library.seed = {LIBRARY_SEED}\n\
         city = district\n\
         city.sites_seed = {SITES_SEED}\n\
         city.users = {USERS}\n\
         city.demand_classes = {DEMAND_CLASSES}\n\
         city.capacity_gb = {CAPACITY_GB}\n\
         radio.activity_probability = {ACTIVITY}\n\
         serve = paper_defaults\n\
         serve.duration_s = {DURATION_S}\n\
         serve.request_rate_hz = {RATE_HZ}\n\
         serve.mobility_slot_s = {MOBILITY_SLOT_S}\n\
         engine = sharded\n\
         engine.shards = {SHARDS}\n\
         policy = cost-aware-lfu\n\
         warm_start = trimcaching-gen-lazy\n\
         control = paper_defaults\n\
         control.tick_s = {TICK_S}\n\
         control.replan_every_s = {REPLAN_EVERY_S}\n\
         flip.at_s = {FLIP_AT_S}\n\
         flip.rotate = half-library\n\
         storm.at_s = {STORM_AT_S}\n\
         storm.fraction = {STORM_FRACTION}\n\
         storm.outage_s = {OUTAGE_S}\n\
         persist = journal + checkpoints\n\
         persist.checkpoint_every_s = {CHECKPOINT_EVERY_S}\n"
    )
}

/// The generated inputs of one seed.
struct Inputs {
    scenario: Scenario,
    warm: Placement,
    workload: Workload,
    config: ServeConfig,
    evaluations: u64,
}

/// The district at its fixed sites, with the users moved to where the
/// run's seed puts them.
fn generate(seed: u64) -> Result<Scenario, String> {
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(MODELS_PER_BACKBONE)
        .build(LIBRARY_SEED);
    let city = city();
    let district = city.generate(&library, SITES_SEED, 0).map_err(err)?;
    let area = DeploymentArea::new(city.area_side_m).map_err(err)?;
    let users = area.sample_uniform_n(USERS, &mut StdRng::seed_from_u64(seed));
    district.with_user_positions(&users).map_err(err)
}

/// The rest of set-up once the scenario exists: warm-start solve, the
/// flipped workload and the storm.
fn prepare(scenario: Scenario, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let outcome = TrimCachingGenLazy::new().place(&scenario).map_err(err)?;
    let base = scenario.demand();
    let flipped = rotate_popularity(base, scenario.num_models() / 2).map_err(err)?;
    let workload =
        Workload::piecewise(&[(0.0, base), (FLIP_AT_S, &flipped)], RATE_HZ).map_err(err)?;
    let storm = FaultConfig::outage_storm(
        scenario.num_servers(),
        STORM_FRACTION,
        STORM_AT_S,
        OUTAGE_S,
        seed,
    )
    .map_err(err)?;
    let config = base_config(seed)
        .with_faults(storm)
        .with_persist(PersistConfig::new(dir).with_checkpoint_every_s(CHECKPOINT_EVERY_S));
    Ok(Inputs {
        scenario,
        warm: outcome.placement,
        workload,
        config,
        evaluations: outcome.evaluations,
    })
}

fn threads() -> usize {
    nproc().min(2)
}

/// A ready-to-run engine over `inputs` with `config`.
fn engine<'a>(
    inputs: &'a Inputs,
    config: ServeConfig,
    shards: usize,
    threads: usize,
) -> Result<ShardedServeEngine<'a>, String> {
    if let Some(p) = &config.persist {
        clear_dir(&p.dir)?;
    }
    let mut engine = ShardedServeEngine::new(&inputs.scenario, &CostAwareLfu, config, shards)
        .map_err(err)?
        .with_threads(threads);
    engine.warm_start(&inputs.warm).map_err(err)?;
    engine.set_workload(inputs.workload.clone()).map_err(err)?;
    Ok(engine)
}

/// Serves once; returns the wall time of `run()` and the checked report.
fn serve(
    inputs: &Inputs,
    config: ServeConfig,
    shards: usize,
    threads: usize,
) -> Result<(f64, ServeReport), String> {
    let engine = engine(inputs, config, shards, threads)?;
    let (run_s, report) = timed(|| engine.run());
    let report = report.map_err(err)?;
    check_serve_report(&report)?;
    Ok((run_s, report))
}

/// Fails unless the journals of the run in `config`'s directory
/// recompute its live request-level metrics.
fn check_journal(config: &ServeConfig, report: &ServeReport, shards: usize) -> Result<(), String> {
    let persist = config.persist.as_ref().ok_or("persistence is off")?;
    let (_, offline) = layers::read_journals(persist, Some(shards))?;
    layers::check_journal_matches(&offline, report)
}

/// The timed run: end-to-end metrics.
pub fn timed_run(seed: u64, seconds: f64) -> Outcome {
    let threads = threads();
    let mut out = Outcome {
        threads,
        ..Outcome::default()
    };
    let dir = scratch_dir(NAME);
    let (setup_samples, inputs) = repeat(&mut out.ledger, "setup", SETUP_REPS, || {
        let (setup_s, inputs) = timed(|| -> Result<_, String> {
            let inputs = prepare(generate(seed)?, seed, &dir)?;
            engine(&inputs, inputs.config.clone(), SHARDS, threads)?;
            Ok(inputs)
        });
        Ok((setup_s, inputs?))
    });
    let Some(inputs) = inputs else {
        let _ = clear_dir(&dir);
        return out;
    };
    let mut first: Option<ServeReport> = None;
    let (runs, peaks) = repeat_for(
        &mut out.ledger,
        "serve run",
        seconds,
        MIN_RUNS,
        MAX_RUNS,
        || {
            let (run_s, report) = serve(&inputs, inputs.config.clone(), SHARDS, threads)?;
            check_journal(&inputs.config, &report, SHARDS)?;
            match &first {
                None => first = Some(report.clone()),
                Some(f) => check_repeatable(f, &report)?,
            }
            Ok((run_s, report.metrics.requests))
        },
    );
    let _ = clear_dir(&dir);
    let Some(report) = first else {
        return out;
    };
    out.metrics = serving_metrics(&setup_samples, &runs, peaks, report.metrics.hit_ratio());
    out.note("requests_per_run", report.metrics.requests);
    out.note("threads", threads);
    out.note("servers", inputs.scenario.num_servers());
    out
}

/// The traced run: per-layer metrics, the off/on ablation pairs, the
/// shard comparison and the mobility-off storm.
pub fn traced_run(seed: u64, tracer: &mut Tracer) -> Outcome {
    let threads = threads();
    let mut out = Outcome {
        threads,
        ..Outcome::default()
    };
    let dir = scratch_dir(NAME);
    let mut m = Vec::new();
    let Some(scenario) = out.ledger.run("generate", || {
        let (scenario, generate_s) = tracer.span("sim.topology.generate", |_| generate(seed));
        m.push(Metric::count("sim.topology.generate_s", "s", generate_s));
        scenario
    }) else {
        return out;
    };
    if let Some((build_s, density)) = out.ledger.run("snapshot build", || {
        tracer
            .span("scenario.snapshot.build", |_| {
                layers::snapshot_build(&scenario)
            })
            .0
    }) {
        m.push(Metric::count("scenario.snapshot.build_s", "s", build_s));
        m.push(Metric::count(
            "scenario.eligibility.density",
            "ratio",
            density,
        ));
    }
    let Some(inputs) = out.ledger.run("warm-start solve", || {
        let (inputs, solve_s) =
            tracer.span("placement.lazy.solve", |_| prepare(scenario, seed, &dir));
        let inputs = inputs?;
        m.push(Metric::count("placement.lazy.solve_s", "s", solve_s));
        m.push(Metric::count(
            "placement.lazy.evaluations",
            "count",
            inputs.evaluations as f64,
        ));
        m.push(Metric::count(
            "placement.ns_per_evaluation",
            "ns",
            solve_s * 1e9 / inputs.evaluations.max(1) as f64,
        ));
        Ok(inputs)
    }) else {
        let _ = clear_dir(&dir);
        return out;
    };
    let config = inputs.config.clone();

    // The run as timed: R = 2 on the pool, everything on.
    let main = out.ledger.run("serve run", || {
        let (run, _) = tracer.span("runtime.engine.run", |_| {
            serve(&inputs, config.clone(), SHARDS, threads)
        });
        let (run_s, report) = run?;
        let persist = config.persist.as_ref().ok_or("persistence is off")?;
        let ((stream, offline), replay_s) = {
            let (read, s) = tracer.span("runtime.persist.journal_replay", |_| {
                layers::read_journals(persist, Some(SHARDS))
            });
            (read?, s)
        };
        layers::check_journal_matches(&offline, &report)?;
        let journal_mb = (0..SHARDS)
            .map(|s| layers::file_mb(&persist.journal_shard_path(s)))
            .sum::<Result<f64, String>>()?;
        let checkpoint = persist.checkpoint_path();
        let checkpoint_mb = layers::file_mb(&checkpoint)?;
        let (codec_ms, _) = tracer.span("runtime.persist.checkpoint_codec", |_| {
            layers::checkpoint_codec(&checkpoint)
        });
        m.push(Metric::count(
            "runtime.persist.journal_mb",
            "MB",
            journal_mb,
        ));
        m.push(Metric::count(
            "runtime.persist.checkpoint_mb",
            "MB",
            checkpoint_mb,
        ));
        m.push(Metric::count(
            "runtime.persist.journal_replay_s",
            "s",
            replay_s,
        ));
        m.push(Metric::count(
            "runtime.persist.checkpoint_codec_ms",
            "ms",
            codec_ms?,
        ));
        Ok((run_s, report, stream))
    });
    let Some((run_s, report, stream)) = main else {
        let _ = clear_dir(&dir);
        return out;
    };
    let r = &report.metrics;
    m.extend(layers::report_metrics(&report, run_s));
    out.note("requests_per_run", r.requests);
    out.note("servers", inputs.scenario.num_servers());

    // Thread-count determinism: R = 2 on one thread must give the same
    // report as on the pool.
    if let Some(serial_s) = out.ledger.run("serial R=2 run", || {
        let (run, _) = tracer.span("runtime.shard.serial_run", |_| {
            serve(&inputs, config.clone(), SHARDS, 1)
        });
        let (s, serial) = run?;
        check_repeatable(&report, &serial)?;
        Ok(s)
    }) {
        m.push(Metric::count("runtime.shard.serial_run_s", "s", serial_s));
    }
    if let Some((r1_s, r1)) = out.ledger.run("R=1 run", || {
        let (run, _) = tracer.span("runtime.shard.r1_run", |_| {
            serve(&inputs, config.clone(), 1, 1)
        });
        let (s, r1) = run?;
        check_journal(&config, &r1, 1)?;
        Ok((s, r1))
    }) {
        m.push(Metric::count("runtime.shard.r1_run_s", "s", r1_s));
        let per_request = |s: f64, rep: &ServeReport| s / rep.metrics.requests as f64;
        m.push(Metric::count(
            "runtime.shard.speedup",
            "ratio",
            per_request(r1_s, &r1) / per_request(run_s, &report),
        ));
        // Every shard applies every slot, so the sharded report counts
        // each slot once per shard; the unsharded run counts the slots.
        m.push(Metric::count(
            "runtime.shard.replication",
            "ratio",
            r.snapshot_rebuilds as f64 / r1.metrics.snapshot_rebuilds.max(1) as f64,
        ));
        m.push(Metric::count(
            "scenario.mobility.slots",
            "count",
            r1.metrics.snapshot_rebuilds as f64,
        ));
    }

    // Off/on ablation pairs against the main run.
    if let Some(off_s) = out.ledger.run("control-off run", || {
        let mut off = config.clone();
        off.control = None;
        Ok(tracer
            .span("runtime.control.off_run", |_| {
                serve(&inputs, off, SHARDS, threads)
            })
            .0?
            .0)
    }) {
        m.push(Metric::count("runtime.control.cost_s", "s", run_s - off_s));
    }
    if let Some(off_s) = out.ledger.run("persist-off run", || {
        let mut off = config.clone();
        off.persist = None;
        let (run, _) = tracer.span("runtime.persist.off_run", |_| {
            serve(&inputs, off, SHARDS, threads)
        });
        let (s, off_report) = run?;
        check_repeatable(&report, &off_report)?;
        Ok(s)
    }) {
        m.push(Metric::count("runtime.persist.cost_s", "s", run_s - off_s));
    }
    // The same storm with users static: the other side of the failover
    // comparison the README describes.
    if let Some(still) = out.ledger.run("mobility-off storm run", || {
        let mut still = config.clone();
        still.mobility_slot_s = 0.0;
        still.persist = None;
        Ok(tracer
            .span("runtime.faults.mobility_off_run", |_| {
                serve(&inputs, still, SHARDS, threads)
            })
            .0?
            .1)
    }) {
        let s = &still.metrics;
        m.push(Metric::count(
            "runtime.faults.mobility_off.failed_over",
            "count",
            s.requests_failed_over as f64,
        ));
        m.push(Metric::count(
            "runtime.faults.mobility_off.failed",
            "count",
            s.requests_failed as f64,
        ));
    }
    let _ = clear_dir(&dir);

    // Replays of single layers on this workload's inputs.
    let scenario = &inputs.scenario;
    m.extend(layers::stream_replays(
        tracer,
        &mut out.ledger,
        scenario,
        &CostAwareLfu,
        &stream,
        &report,
        &config,
    ));
    let slots = (DURATION_S / MOBILITY_SLOT_S) as usize;
    if let Some(replay) = out.ledger.run("mobility replay", || {
        tracer
            .span("scenario.mobility.replay", |_| {
                layers::mobility_slots(scenario, config.area_side_m, slots, seed)
            })
            .0
    }) {
        let ms = &replay.slot_ms;
        if reportable_tail(ms.len()).is_some_and(|p| p >= 90.0) {
            m.push(Metric::new(
                "scenario.mobility.slot_ms.p90",
                "ms",
                percentile(ms, 90.0).unwrap_or(0.0),
                ms.len(),
            ));
        } else {
            out.note(
                "scenario.mobility.slot_ms.p90",
                "fewer than 10 slots beyond p90",
            );
        }
        m.push(Metric::new(
            "scenario.mobility.slot_ms.p50",
            "ms",
            percentile(ms, 50.0).unwrap_or(0.0),
            ms.len(),
        ));
        m.push(Metric::count(
            "scenario.mobility.users_refreshed_per_slot",
            "count",
            replay.users_refreshed as f64 / ms.len().max(1) as f64,
        ));
    }
    out.metrics = m;
    out
}
