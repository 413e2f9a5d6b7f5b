//! `lora-churn`: the classic engine on a static LoRA market whose
//! caches are too small, so the request hot path keeps inserting and
//! evicting.
//!
//! 10 servers, 10 000 users, 3 foundations x 32 adapters (96 models),
//! 0.04 GB caches, 0.05 Hz per user for 400 simulated seconds (about
//! 200 000 requests), LRU eviction and block-granular fills. No warm
//! start, mobility, control, faults or persistence.

use rand::rngs::StdRng;
use rand::SeedableRng;
use trimcaching_modellib::builders::{FoundationSpec, LoraLibraryBuilder};
use trimcaching_modellib::ModelLibrary;
use trimcaching_runtime::{
    FillGranularity, Lru, PersistConfig, ServeConfig, ServeEngine, ServeReport,
};
use trimcaching_scenario::{gigabytes, EdgeServer, Scenario, ServerId};
use trimcaching_sim::TopologyConfig;
use trimcaching_wireless::geometry::DeploymentArea;
use trimcaching_wireless::RadioParams;

use super::{
    check_repeatable, check_serve_report, clear_dir, err, repeat, repeat_for, scratch_dir,
    serving_metrics, timed, Outcome,
};
use crate::layers;
use crate::report::Metric;
use crate::trace::Tracer;

/// Workload name.
pub const NAME: &str = "lora-churn";
const FOUNDATIONS: usize = 3;
const FOUNDATION_BLOCKS: usize = 4;
const FOUNDATION_BYTES: u64 = 8_000_000;
const ADAPTERS: usize = 32;
const ADAPTER_BYTES: u64 = 1_500_000;
const HEAD_BYTES: u64 = 500_000;
/// The library and the ten server sites are part of the system under
/// test, not of the random input: they are drawn once from these seeds,
/// and the run's seed draws where the users are, what they want and
/// when they ask. With the sites drawn per seed, the hit ratio and the
/// peak memory spread by 12% over ten seeds: that measured how well ten
/// random servers covered the square, not the code.
const LIBRARY_SEED: u64 = 2024;
const SITES_SEED: u64 = 2024;
const SERVERS: usize = 10;
const USERS: usize = 10_000;
const CAPACITY_GB: f64 = 0.04;
/// Dense users on light models: the activity probability is the live
/// workload's concurrency (~1%), not the offline p_A = 0.5.
const ACTIVITY: f64 = 0.01;
const RATE_HZ: f64 = 0.05;
const DURATION_S: f64 = 400.0;
const SETUP_REPS: usize = 11;
const MIN_RUNS: usize = 5;
const MAX_RUNS: usize = 200;

fn library() -> ModelLibrary {
    let foundations = (0..FOUNDATIONS)
        .map(|f| FoundationSpec::new(format!("edge-fm{f}"), FOUNDATION_BLOCKS, FOUNDATION_BYTES))
        .collect();
    LoraLibraryBuilder::with_foundations(foundations)
        .adapters_per_foundation(ADAPTERS)
        .adapter_size_bytes(ADAPTER_BYTES)
        .head_size_bytes(HEAD_BYTES)
        .build(LIBRARY_SEED)
}

fn topology() -> Result<TopologyConfig, String> {
    let radio = RadioParams::builder()
        .activity_probability(ACTIVITY)
        .build()
        .map_err(err)?;
    let mut topology = TopologyConfig::paper_defaults()
        .with_servers(SERVERS)
        .with_users(USERS)
        .with_capacity_gb(CAPACITY_GB);
    topology.radio = radio;
    Ok(topology)
}

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig::paper_defaults()
        .with_duration_s(DURATION_S)
        .with_request_rate_hz(RATE_HZ)
        .with_granularity(FillGranularity::Block)
        .with_seed(seed)
}

/// The canonical config text the fingerprint is taken over: the
/// workload's own constants as `key = value` lines, so it changes when
/// the workload does and not when a library type gains a field.
pub fn config_text() -> String {
    format!(
        "workload = {NAME}\n\
         library = lora\n\
         library.foundations = {FOUNDATIONS}\n\
         library.foundation_blocks = {FOUNDATION_BLOCKS}\n\
         library.foundation_bytes = {FOUNDATION_BYTES}\n\
         library.adapters_per_foundation = {ADAPTERS}\n\
         library.adapter_bytes = {ADAPTER_BYTES}\n\
         library.head_bytes = {HEAD_BYTES}\n\
         library.seed = {LIBRARY_SEED}\n\
         topology = paper_defaults\n\
         topology.servers = {SERVERS}\n\
         topology.sites_seed = {SITES_SEED}\n\
         topology.users = {USERS}\n\
         topology.capacity_gb = {CAPACITY_GB}\n\
         radio.activity_probability = {ACTIVITY}\n\
         serve = paper_defaults\n\
         serve.duration_s = {DURATION_S}\n\
         serve.request_rate_hz = {RATE_HZ}\n\
         serve.granularity = block\n\
         engine = classic\n\
         policy = lru\n"
    )
}

/// Seed to first servable scenario: the library, the fixed server
/// sites, and the seeded users and demand assembled into a scenario.
fn setup(seed: u64) -> Result<Scenario, String> {
    let topology = topology()?;
    let library = library();
    let area = DeploymentArea::new(topology.area_side_m).map_err(err)?;
    let mut sites = StdRng::seed_from_u64(SITES_SEED);
    let servers = (0..topology.num_servers)
        .map(|m| {
            EdgeServer::new(
                ServerId(m),
                area.sample_uniform(&mut sites),
                gigabytes(topology.capacity_gb),
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let users = area.sample_uniform_n(topology.num_users, &mut rng);
    let demand = topology
        .demand
        .generate(topology.num_users, library.num_models(), &mut rng)
        .map_err(err)?;
    Scenario::builder()
        .library(library)
        .servers(servers)
        .users_at(&users)
        .demand(demand)
        .radio(topology.radio)
        .backhaul_rate_bps(topology.backhaul_rate_bps)
        .build()
        .map_err(err)
}

/// The timed run: end-to-end metrics.
pub fn timed_run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome {
        threads: 1,
        ..Outcome::default()
    };
    let (setup_samples, scenario) = repeat(&mut out.ledger, "setup", SETUP_REPS, || {
        let (setup_s, scenario) = timed(|| setup(seed));
        Ok((setup_s, scenario?))
    });
    let Some(scenario) = scenario else {
        return out;
    };
    let config = serve_config(seed);
    let mut first: Option<ServeReport> = None;
    let (runs, peaks) = repeat_for(
        &mut out.ledger,
        "serve run",
        seconds,
        MIN_RUNS,
        MAX_RUNS,
        || {
            let engine = ServeEngine::new(&scenario, &Lru, config.clone()).map_err(err)?;
            let (run_s, report) = timed(|| engine.run());
            let report = report.map_err(err)?;
            check_serve_report(&report)?;
            match &first {
                None => first = Some(report.clone()),
                Some(f) => check_repeatable(f, &report)?,
            }
            Ok((run_s, report.metrics.requests))
        },
    );
    let Some(report) = first else {
        return out;
    };
    out.metrics = serving_metrics(&setup_samples, &runs, peaks, report.metrics.hit_ratio());
    out.note("requests_per_run", report.metrics.requests);
    out.note("threads", 1);
    out
}

/// The traced run: per-layer metrics.
pub fn traced_run(seed: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome {
        threads: 1,
        ..Outcome::default()
    };
    let Some((scenario, generate_s)) = out.ledger.run("setup", || {
        let (scenario, s) = tracer.span("sim.topology.generate", |_| setup(seed));
        Ok((scenario?, s))
    }) else {
        return out;
    };
    let mut m = Vec::new();
    m.push(Metric::count("sim.topology.generate_s", "s", generate_s));
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

    // The engine as timed, then once more with the journal on so the
    // replays below get the request stream. Persistence must not change
    // a simulated result.
    let config = serve_config(seed);
    let plain = out.ledger.run("serve run", || {
        let engine = ServeEngine::new(&scenario, &Lru, config.clone()).map_err(err)?;
        let (report, run_s) = tracer.span("runtime.engine.run", |_| engine.run());
        let report = report.map_err(err)?;
        check_serve_report(&report)?;
        Ok((report, run_s))
    });
    let dir = scratch_dir(NAME);
    let persist = PersistConfig::new(&dir).with_checkpoint_every_s(1e9);
    let journaled = out.ledger.run("journaled serve run", || {
        clear_dir(&dir)?;
        let engine = ServeEngine::new(
            &scenario,
            &Lru,
            config.clone().with_persist(persist.clone()),
        )
        .map_err(err)?;
        let (report, run_s) = tracer.span("runtime.engine.run_journaled", |_| engine.run());
        let report = report.map_err(err)?;
        check_serve_report(&report)?;
        if let Some((plain, _)) = &plain {
            check_repeatable(plain, &report)?;
        }
        let (read, replay_s) = tracer.span("runtime.persist.journal_replay", |_| {
            layers::read_journals(&persist, None)
        });
        let (stream, offline) = read?;
        layers::check_journal_matches(&offline, &report)?;
        let journal_mb = layers::file_mb(&persist.journal_path())?;
        Ok((run_s, stream, replay_s, journal_mb))
    });
    let _ = clear_dir(&dir);

    if let Some((report, run_s)) = &plain {
        m.extend(layers::report_metrics(report, *run_s));
        out.note("requests_per_run", report.metrics.requests);
    }
    if let Some((journaled_s, stream, replay_s, journal_mb)) = journaled {
        if let Some((report, plain_s)) = &plain {
            m.push(Metric::count(
                "runtime.persist.cost_s",
                "s",
                journaled_s - plain_s,
            ));
            m.extend(layers::stream_replays(
                tracer,
                &mut out.ledger,
                &scenario,
                &Lru,
                &stream,
                report,
                &config,
            ));
        }
        m.push(Metric::count(
            "runtime.persist.journal_mb",
            "MB",
            journal_mb,
        ));
        m.push(Metric::count(
            "runtime.persist.journal_replay_s",
            "s",
            replay_s,
        ));
        out.note(
            "runtime.persist",
            "the journal is on only in this traced run; the timed runs do not persist",
        );
    }
    out.metrics = m;
    out
}
