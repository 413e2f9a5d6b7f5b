//! Golden byte pins of durable serving runs.
//!
//! One city run with mobility, the control loop, an outage storm and
//! 40 s checkpoints is executed four ways — the classic `ServeEngine`,
//! `ShardedServeEngine` at R = 1, and R = 2 on one and on two worker
//! threads. Each way runs once uninterrupted and once killed at t = 100
//! and resumed. The FNV-1a digests of the journal files and of the
//! checkpoint file are pinned here, so any refactor of the engine
//! drivers must reproduce every byte, and the classic checkpoint must
//! equal the R = 1 checkpoint byte for byte.

use std::path::{Path, PathBuf};

use trimcaching::runtime::{
    ControlConfig, CostAwareLfu, FaultConfig, PersistConfig, ServeConfig, ServeEngine, ServeReport,
    ShardedServeEngine,
};
use trimcaching::scenario::Scenario;
use trimcaching::sim::experiments::{LibraryKind, RunConfig};
use trimcaching::sim::sweep::fnv1a;
use trimcaching::sim::CityScaleConfig;

const DURATION_S: f64 = 160.0;
const KILL_AT_S: f64 = 100.0;
const CHECKPOINT_EVERY_S: f64 = 40.0;

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Classic,
    Sharded { shards: usize, threads: usize },
}

/// The digests one mode pins: its journal files in shard order, the
/// checkpoint left by the kill at t = 100 and the checkpoint at the
/// horizon.
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    journals: Vec<u64>,
    killed_checkpoint: u64,
    final_checkpoint: u64,
}

/// A fresh scratch directory under the system temp dir, unique per
/// test and process so parallel test runs never collide.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tc-golden-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A compact city with clustered demand and sparse eligibility.
fn city_scenario() -> Scenario {
    let library = RunConfig::smoke().build_library(LibraryKind::Special);
    let mut city = CityScaleConfig::district()
        .with_users(1_000)
        .with_demand_classes(16);
    city.area_side_m = 2_000.0;
    city.capacity_gb = 0.4;
    city.generate(&library, 13, 0).expect("city generates")
}

/// Mobility, control, a 25% outage storm and checkpoints every 40 s.
fn config(scenario: &Scenario, dir: &Path) -> ServeConfig {
    ServeConfig::smoke()
        .with_duration_s(DURATION_S)
        .with_request_rate_hz(0.05)
        .with_seed(31)
        .with_mobility_slot_s(10.0)
        .with_control(ControlConfig::paper_defaults().with_tick_s(30.0))
        .with_faults(
            FaultConfig::outage_storm(scenario.num_servers(), 0.25, 50.0, 70.0, 5)
                .expect("storm builds"),
        )
        .with_persist(persist(dir))
}

fn persist(dir: &Path) -> PersistConfig {
    PersistConfig::new(dir.to_path_buf()).with_checkpoint_every_s(CHECKPOINT_EVERY_S)
}

fn journal_paths(mode: Mode, dir: &Path) -> Vec<PathBuf> {
    match mode {
        Mode::Classic => vec![persist(dir).journal_path()],
        Mode::Sharded { shards, .. } => (0..shards)
            .map(|s| persist(dir).journal_shard_path(s))
            .collect(),
    }
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn run(scenario: &Scenario, mode: Mode, dir: &Path) -> ServeReport {
    let config = config(scenario, dir);
    match mode {
        Mode::Classic => ServeEngine::new(scenario, &CostAwareLfu, config)
            .and_then(ServeEngine::run)
            .expect("classic run"),
        Mode::Sharded { shards, threads } => {
            ShardedServeEngine::new(scenario, &CostAwareLfu, config, shards)
                .expect("engine builds")
                .with_threads(threads)
                .run()
                .expect("sharded run")
        }
    }
}

fn kill(scenario: &Scenario, mode: Mode, dir: &Path) {
    let config = config(scenario, dir);
    match mode {
        Mode::Classic => ServeEngine::new(scenario, &CostAwareLfu, config)
            .and_then(|e| e.run_until(KILL_AT_S))
            .expect("classic partial run"),
        Mode::Sharded { shards, threads } => {
            ShardedServeEngine::new(scenario, &CostAwareLfu, config, shards)
                .expect("engine builds")
                .with_threads(threads)
                .run_until(KILL_AT_S)
                .expect("sharded partial run")
        }
    }
}

fn resume(scenario: &Scenario, mode: Mode, dir: &Path) -> ServeReport {
    match mode {
        Mode::Classic => ServeEngine::resume(scenario, &CostAwareLfu, persist(dir))
            .and_then(ServeEngine::run)
            .expect("classic resume"),
        Mode::Sharded { threads, .. } => {
            ShardedServeEngine::resume(scenario, &CostAwareLfu, persist(dir))
                .expect("sharded resume")
                .with_threads(threads)
                .run()
                .expect("sharded resumed run")
        }
    }
}

/// Runs `mode` uninterrupted and killed-then-resumed, checks that both
/// leave the same bytes, and returns the checkpoint left by the kill,
/// the final checkpoint and the digests to pin.
fn exercise(scenario: &Scenario, mode: Mode, name: &str) -> (Vec<u8>, Vec<u8>, Pins) {
    let full_dir = scratch_dir(&format!("{name}-full"));
    let killed_dir = scratch_dir(&format!("{name}-killed"));
    let reference = run(scenario, mode, &full_dir);
    assert!(reference.metrics.requests > 0, "{name}: the run serves");
    assert!(
        reference.metrics.handovers > 0,
        "{name}: mobility hands over"
    );
    assert!(
        reference.metrics.faults_injected > 0,
        "{name}: the storm hits"
    );
    assert!(reference.metrics.control_ticks > 0, "{name}: control ticks");

    kill(scenario, mode, &killed_dir);
    let killed_checkpoint = read(&persist(&killed_dir).checkpoint_path());
    let resumed = resume(scenario, mode, &killed_dir);
    assert_eq!(reference, resumed, "{name}: resume reproduces the report");

    let mut journals = Vec::new();
    for (full, killed) in journal_paths(mode, &full_dir)
        .iter()
        .zip(journal_paths(mode, &killed_dir).iter())
    {
        let bytes = read(full);
        assert_eq!(bytes, read(killed), "{name}: resumed journal bytes");
        journals.push(fnv1a(&bytes));
    }
    let final_checkpoint = read(&persist(&full_dir).checkpoint_path());
    assert_eq!(
        final_checkpoint,
        read(&persist(&killed_dir).checkpoint_path()),
        "{name}: resumed final checkpoint bytes"
    );
    let pins = Pins {
        journals,
        killed_checkpoint: fnv1a(&killed_checkpoint),
        final_checkpoint: fnv1a(&final_checkpoint),
    };
    (killed_checkpoint, final_checkpoint, pins)
}

#[test]
fn durable_run_bytes_match_the_golden_digests() {
    let scenario = city_scenario();
    let (classic_killed, classic_final, classic) = exercise(&scenario, Mode::Classic, "classic");
    let (r1_killed, r1_final, r1) = exercise(
        &scenario,
        Mode::Sharded {
            shards: 1,
            threads: 1,
        },
        "r1",
    );
    let (_, _, r2_serial) = exercise(
        &scenario,
        Mode::Sharded {
            shards: 2,
            threads: 1,
        },
        "r2t1",
    );
    let (_, _, r2_pooled) = exercise(
        &scenario,
        Mode::Sharded {
            shards: 2,
            threads: 2,
        },
        "r2t2",
    );

    assert_eq!(
        classic_killed, r1_killed,
        "the classic checkpoint at the kill must equal the R=1 checkpoint"
    );
    assert_eq!(
        classic_final, r1_final,
        "the classic final checkpoint must equal the R=1 checkpoint"
    );
    assert_eq!(
        classic.journals, r1.journals,
        "R=1 journal = classic journal"
    );
    assert_eq!(r2_serial, r2_pooled, "R=2 bytes do not depend on threads");

    assert_eq!(
        classic,
        Pins {
            journals: vec![0xe41195285dd8118a],
            killed_checkpoint: 0x822dc79ff89baa2f,
            final_checkpoint: 0x5aef1ee4a09c0af5,
        },
        "classic digests drifted"
    );
    assert_eq!(
        r2_serial,
        Pins {
            journals: vec![0x7942fba74259a23e, 0x9f2b79aa1296c767],
            killed_checkpoint: 0x286cf32b79aa8e40,
            final_checkpoint: 0xcb6cfa88f7c27438,
        },
        "R=2 digests drifted"
    );
}
