//! Per-layer measurements for the traced run.
//!
//! Each function here calls one layer's public API on the workload's own
//! inputs and returns what it measured. "Replay" means the (user, model)
//! stream a serving run journaled is fed to the layer again, alone, so
//! its cost can be read without the rest of the engine around it.

use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trimcaching_modellib::ModelId;
use trimcaching_runtime::{
    read_journal, recompute_metrics, BackhaulLink, Checkpoint, EventKind, EventQueue,
    EvictionPolicy, PersistConfig, RequestOutcome, ServeConfig, ServeMetrics, ServeReport,
    ServedRecord, ServerCache,
};
use trimcaching_scenario::mobility::MobilityModel;
use trimcaching_scenario::{Scenario, UserId};
use trimcaching_wireless::geometry::DeploymentArea;
use trimcaching_wireless::Point;

use crate::report::Metric;
use crate::trace::Tracer;
use crate::workloads::{err, Ledger};

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order. A
/// traced run reports each of them; one its workload does not exercise
/// reads 0 and carries a note saying why.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("sim.topology.generate_s", "s"),
    ("scenario.snapshot.build_s", "s"),
    ("scenario.eligibility.density", "ratio"),
    ("scenario.eligibility.lookup_ns", "ns"),
    ("scenario.eligibility.candidates_per_lookup", "count"),
    ("scenario.mobility.slot_ms.p50", "ms"),
    ("scenario.mobility.slot_ms.p90", "ms"),
    ("scenario.mobility.users_refreshed_per_slot", "count"),
    ("scenario.mobility.slots", "count"),
    ("placement.lazy.solve_s", "s"),
    ("placement.lazy.evaluations", "count"),
    ("placement.spec.solve_ms.p50", "ms"),
    ("placement.spec.solve_ms.p90", "ms"),
    ("placement.spec.evaluations", "count"),
    ("placement.ns_per_evaluation", "ns"),
    ("runtime.engine.run_s", "s"),
    ("runtime.engine.ns_per_request", "ns"),
    ("runtime.event.events", "count"),
    ("runtime.event.push_pop_ns", "ns"),
    ("runtime.cache.insertions", "count"),
    ("runtime.cache.evictions", "count"),
    ("runtime.cache.churn_ratio", "ratio"),
    ("runtime.cache.block_hit_ratio", "ratio"),
    ("runtime.cache.op_ns", "ns"),
    ("runtime.transfer.transfers", "count"),
    ("runtime.transfer.backhaul_mb", "MB"),
    ("runtime.transfer.mean_queue_depth", "count"),
    ("runtime.transfer.begin_ns", "ns"),
    ("runtime.control.ticks", "count"),
    ("runtime.control.replans", "count"),
    ("runtime.control.cost_s", "s"),
    ("runtime.faults.injected", "count"),
    ("runtime.faults.failed_over", "count"),
    ("runtime.faults.failed", "count"),
    ("runtime.faults.fills_aborted", "count"),
    ("runtime.faults.mobility_off.failed_over", "count"),
    ("runtime.faults.mobility_off.failed", "count"),
    ("runtime.persist.cost_s", "s"),
    ("runtime.persist.journal_mb", "MB"),
    ("runtime.persist.checkpoint_mb", "MB"),
    ("runtime.persist.journal_replay_s", "s"),
    ("runtime.persist.checkpoint_codec_ms", "ms"),
    ("runtime.shard.r1_run_s", "s"),
    ("runtime.shard.serial_run_s", "s"),
    ("runtime.shard.speedup", "ratio"),
    ("runtime.shard.replication", "ratio"),
];

/// Events the engine processed, derived from the report's counters: one
/// per request, completed fill, mobility slot, control tick, fault
/// transition and fill retry.
fn events_processed(m: &ServeMetrics) -> u64 {
    m.requests
        + m.fills_completed
        + m.snapshot_rebuilds
        + m.control_ticks
        + m.faults_injected
        + m.faults_recovered
        + m.fill_retries
}

/// The per-layer metrics read off one serving report whose `run()`
/// took `run_s` seconds.
pub fn report_metrics(report: &ServeReport, run_s: f64) -> Vec<Metric> {
    let r = &report.metrics;
    let requests = r.requests as f64;
    let count = |name: &str, value: u64| Metric::count(name, "count", value as f64);
    vec![
        Metric::count("runtime.engine.run_s", "s", run_s),
        Metric::count(
            "runtime.engine.ns_per_request",
            "ns",
            run_s * 1e9 / requests,
        ),
        count("runtime.event.events", events_processed(r)),
        count("runtime.cache.insertions", r.insertions),
        count("runtime.cache.evictions", r.evictions),
        Metric::count(
            "runtime.cache.churn_ratio",
            "ratio",
            r.insertions as f64 / requests,
        ),
        Metric::count(
            "runtime.cache.block_hit_ratio",
            "ratio",
            r.block_hit_ratio(),
        ),
        count("runtime.transfer.transfers", r.transfers_started),
        Metric::count(
            "runtime.transfer.backhaul_mb",
            "MB",
            r.backhaul_bytes_moved as f64 / 1e6,
        ),
        Metric::count(
            "runtime.transfer.mean_queue_depth",
            "count",
            r.mean_transfer_queue_depth(),
        ),
        count("runtime.control.ticks", r.control_ticks),
        count("runtime.control.replans", r.replans_triggered),
        count("runtime.faults.injected", r.faults_injected),
        count("runtime.faults.failed_over", r.requests_failed_over),
        count("runtime.faults.failed", r.requests_failed),
        count("runtime.faults.fills_aborted", r.fills_aborted),
    ]
}

/// Replays the journaled `stream` of a run served under `config`
/// through the eligibility lookup, the caches under `policy`, the
/// backhaul links and the event queue, each inside its own span.
pub fn stream_replays(
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    scenario: &Scenario,
    policy: &dyn EvictionPolicy,
    stream: &[ServedRecord],
    report: &ServeReport,
    config: &ServeConfig,
) -> Vec<Metric> {
    let (lookup_ns, candidates) = tracer
        .span("scenario.eligibility.lookup", |_| {
            eligibility_lookups(scenario, stream)
        })
        .0;
    let mut m = vec![
        Metric::count("scenario.eligibility.lookup_ns", "ns", lookup_ns),
        Metric::count(
            "scenario.eligibility.candidates_per_lookup",
            "count",
            candidates,
        ),
    ];
    if let Some(op_ns) = ledger.run("cache replay", || {
        tracer
            .span("runtime.cache.replay", |_| {
                cache_ops(scenario, policy, stream)
            })
            .0
    }) {
        m.push(Metric::count("runtime.cache.op_ns", "ns", op_ns));
    }
    if let Some(begin_ns) = ledger.run("transfer replay", || {
        tracer
            .span("runtime.transfer.replay", |_| {
                transfer_begins(scenario, stream, config.cloud_ingest_bps)
            })
            .0
    }) {
        m.push(Metric::count("runtime.transfer.begin_ns", "ns", begin_ns));
    }
    // Every user keeps one request pending, plus the fills in flight.
    let r = &report.metrics;
    let depth = scenario.num_users() + r.peak_transfer_queue_depth as usize;
    let push_pop = tracer
        .span("runtime.event.push_pop", |_| {
            event_push_pop(depth, r.requests as usize, config.seed)
        })
        .0;
    m.push(Metric::count("runtime.event.push_pop_ns", "ns", push_pop));
    m
}

/// Wall time of one full snapshot build at the scenario's own user
/// positions, and the eligibility density of the result.
pub fn snapshot_build(scenario: &Scenario) -> Result<(f64, f64), String> {
    let positions: Vec<Point> = scenario.users().iter().map(|u| u.position()).collect();
    let started = Instant::now();
    let rebuilt = scenario.with_user_positions(&positions).map_err(err)?;
    let seconds = started.elapsed().as_secs_f64();
    Ok((seconds, rebuilt.eligibility().density()))
}

/// Replays `servers_for` over the stream: mean nanoseconds per lookup
/// and mean candidates returned.
pub fn eligibility_lookups(scenario: &Scenario, stream: &[ServedRecord]) -> (f64, f64) {
    let eligibility = scenario.eligibility();
    let started = Instant::now();
    let mut candidates = 0usize;
    for r in stream {
        candidates += eligibility
            .servers_for(UserId(r.user as usize), ModelId(r.model as usize))
            .count();
    }
    let ns = started.elapsed().as_nanos() as f64;
    let n = stream.len().max(1) as f64;
    (ns / n, candidates as f64 / n)
}

/// Replays the stream through one `ServerCache` per server under
/// `policy`, serving each request at the first candidate of
/// `servers_for`: admit, evict until the model fits, insert. Returns
/// mean nanoseconds per cache operation (one per routed request).
pub fn cache_ops(
    scenario: &Scenario,
    policy: &dyn EvictionPolicy,
    stream: &[ServedRecord],
) -> Result<f64, String> {
    let library = scenario.library();
    let mut caches: Vec<ServerCache<'_>> = scenario
        .servers()
        .iter()
        .map(|s| ServerCache::new(library, s.capacity_bytes()))
        .collect();
    let eligibility = scenario.eligibility();
    let mut ops = 0usize;
    let started = Instant::now();
    for r in stream {
        let model = ModelId(r.model as usize);
        let Some(m) = eligibility
            .servers_for(UserId(r.user as usize), model)
            .next()
        else {
            continue;
        };
        ops += 1;
        let cache = &mut caches[m];
        cache.record_access(model, r.time_s);
        if cache.contains(model) || !policy.admits(cache.view(), model) {
            continue;
        }
        while !cache.fits(model).map_err(err)? {
            let Some(victim) = policy.victim(cache.view(), model) else {
                break;
            };
            cache.evict(victim).map_err(err)?;
        }
        if cache.fits(model).map_err(err)? {
            cache.insert(model).map_err(err)?;
        }
    }
    Ok(started.elapsed().as_nanos() as f64 / ops.max(1) as f64)
}

/// Replays `BackhaulLink::begin_transfer` for every journaled miss, on
/// the link of the first candidate server, with the model's full size.
/// Returns mean nanoseconds per call.
pub fn transfer_begins(
    scenario: &Scenario,
    stream: &[ServedRecord],
    nominal_bps: f64,
) -> Result<f64, String> {
    let library = scenario.library();
    let eligibility = scenario.eligibility();
    let mut misses = Vec::new();
    for r in stream {
        if r.outcome != RequestOutcome::MissServed {
            continue;
        }
        let model = ModelId(r.model as usize);
        if let Some(m) = eligibility
            .servers_for(UserId(r.user as usize), model)
            .next()
        {
            misses.push((m, r.time_s, library.model_size_bytes(model).map_err(err)?));
        }
    }
    let mut links = (0..scenario.num_servers())
        .map(|_| BackhaulLink::new(nominal_bps, true))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let started = Instant::now();
    for &(m, time_s, bytes) in &misses {
        std::hint::black_box(links[m].begin_transfer(time_s, bytes));
    }
    Ok(started.elapsed().as_nanos() as f64 / misses.len().max(1) as f64)
}

/// Holds an `EventQueue` at `depth` pending events and times `ops`
/// pop-then-push pairs. Returns mean nanoseconds per pair.
pub fn event_push_pop(depth: usize, ops: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queue = EventQueue::new();
    for k in 0..depth.max(1) {
        queue.push(
            rng.gen_range(0.0..20.0),
            EventKind::Request { user: UserId(k) },
        );
    }
    let gaps: Vec<f64> = (0..ops).map(|_| rng.gen_range(0.0..40.0)).collect();
    let started = Instant::now();
    for gap in &gaps {
        if let Some(event) = queue.pop() {
            queue.push(event.time_s + gap, event.kind);
        }
    }
    std::hint::black_box(queue.len());
    started.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// The mobility replay: `slots` paper-mix kinematic steps applied to a
/// copy of the scenario through `update_user_positions`.
pub struct MobilityReplay {
    /// Wall time of each slot's snapshot update, in milliseconds.
    pub slot_ms: Vec<f64>,
    /// Users whose rows were re-derived, summed over slots.
    pub users_refreshed: usize,
}

/// Replays `slots` mobility slots the way the engine does: paper-mix
/// kinematics over `area_side_m`, one snapshot delta per slot.
pub fn mobility_slots(
    scenario: &Scenario,
    area_side_m: f64,
    slots: usize,
    seed: u64,
) -> Result<MobilityReplay, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let area = DeploymentArea::new(area_side_m).map_err(err)?;
    let positions: Vec<Point> = scenario.users().iter().map(|u| u.position()).collect();
    let mut model = MobilityModel::paper_mix(&positions, area, &mut rng);
    let mut current = scenario.clone();
    let mut replay = MobilityReplay {
        slot_ms: Vec::with_capacity(slots),
        users_refreshed: 0,
    };
    for _ in 0..slots {
        model.step(&mut rng);
        let next = model.positions();
        let started = Instant::now();
        let delta = current.update_user_positions(&next).map_err(err)?;
        replay.slot_ms.push(started.elapsed().as_secs_f64() * 1e3);
        replay.users_refreshed += delta.refreshed_users().len();
    }
    Ok(replay)
}

/// Reads back the journals a run left in `persist.dir` and recomputes
/// the request-level metrics, merged in shard order like the live
/// report. A classic engine writes `journal.tcj`; a sharded one writes
/// one journal per shard (`shards = Some(R)`).
pub fn read_journals(
    persist: &PersistConfig,
    shards: Option<usize>,
) -> Result<(Vec<ServedRecord>, ServeMetrics), String> {
    let paths: Vec<_> = match shards {
        None => vec![persist.journal_path()],
        Some(r) => (0..r).map(|s| persist.journal_shard_path(s)).collect(),
    };
    let mut stream = Vec::new();
    let mut merged: Option<ServeMetrics> = None;
    for path in paths {
        let (header, records) = read_journal(&path).map_err(err)?;
        let metrics = recompute_metrics(&header, &records);
        match merged.as_mut() {
            Some(m) => m.merge_from(&metrics),
            None => merged = Some(metrics),
        }
        stream.extend(records);
    }
    let metrics = merged.ok_or("no journal to read")?;
    Ok((stream, metrics))
}

/// Fails unless the journal-recomputed metrics equal the live report's
/// request-level metrics.
pub fn check_journal_matches(offline: &ServeMetrics, live: &ServeReport) -> Result<(), String> {
    let live = &live.metrics;
    let same = offline.requests == live.requests
        && offline.hits == live.hits
        && offline.misses_served == live.misses_served
        && offline.rejected == live.rejected
        && offline.block_hits == live.block_hits
        && offline.block_requests == live.block_requests
        && offline.windows() == live.windows()
        && offline.latency == live.latency;
    crate::workloads::ensure(same, || {
        format!(
            "journal recomputes {} requests / {} hits, the live run reported {} / {}",
            offline.requests, offline.hits, live.requests, live.hits
        )
    })
}

/// Size of a file in megabytes (10^6 bytes).
pub fn file_mb(path: &Path) -> Result<f64, String> {
    std::fs::metadata(path)
        .map(|m| m.len() as f64 / 1e6)
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))
}

/// Loads a checkpoint and encodes it again: milliseconds for the pair.
pub fn checkpoint_codec(path: &Path) -> Result<f64, String> {
    let started = Instant::now();
    let checkpoint = Checkpoint::load(path).map_err(err)?;
    std::hint::black_box(checkpoint.to_bytes());
    Ok(started.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The `name`s listed under `key` in `BENCHMARK.json`, in order.
    fn declared(key: &str) -> Vec<&'static str> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{key}\""))
            .expect("key is present");
        let section = &BENCHMARK_JSON[start..];
        let end = section.find(']').expect("list is closed");
        section[..end]
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect()
    }

    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(declared("per_layer"), names);
    }

    #[test]
    fn end_to_end_list_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), crate::report::END_TO_END);
    }

    #[test]
    fn every_declared_name_is_legal() {
        for (name, _) in PER_LAYER {
            assert!(crate::report::valid_metric_name(name), "{name}");
        }
    }
}
