//! Region-sharded serving: one scenario, one radio snapshot, R
//! deterministic regions, run by the one coordinator every serving run
//! goes through.
//!
//! Every serving run, classic or sharded, is driven by the coordinator
//! defined here ([`ShardedServeEngine`]; [`ServeEngine`] is the
//! coordinator at `R = 1`). The coordinator owns the run loop, the
//! checkpoint windows, the resume/fork restore path, the run's **single
//! mutable radio snapshot** and the per-user primary servers.
//!
//! City-scale scenarios are spatially local: a request only ever
//! considers the handful of servers covering its user, so servers far
//! apart almost never interact. The coordinator exploits that locality
//! by partitioning the deployment into `R` vertical strips over the
//! server x-coordinates. Each strip becomes a *region*: it simulates
//! the strip's servers (caches, backhaul links, fault transitions,
//! regional controller) and the users currently inside the strip
//! (request streams, kinematics, handover accounting), with its own
//! event queue and its own RNG stream seeded `run seed + region id`.
//!
//! Between mobility boundaries the regions share nothing mutable: they
//! borrow the snapshot read-only and run freely on a pool of worker
//! threads. At every mobility boundary the coordinator merges
//! deterministically, in region-id order: it assembles the global
//! position vector from the owner regions' kinematics, applies the slot
//! to the snapshot once, hands every region the refreshed users so each
//! counts the handovers of the users it owns, and migrates ownership of
//! users that crossed a strip border (ascending user id; the old
//! owner's pending request becomes a tombstone, the new owner copies
//! the kinematics and schedules a fresh arrival). Because every merge
//! is single-threaded and ordered, **the trace is a pure function of
//! `(scenario, policy, config, R)` — byte-identical across any worker
//! thread count** — and `R = 1` is the classic engine bit for bit.
//!
//! Sharding *is* a model change for `R > 1`: a request is served only
//! by eligible servers of its owner's strip, and each strip plans its
//! own re-placements. That is the regional-autonomy semantics real edge
//! deployments have (a Shenzhen cell does not fail over to Guangzhou),
//! and it is what makes the strips independent enough to parallelise.
//!
//! Durable runs journal per region — `journal.tcj` for a run built by
//! [`ServeEngine`], `journal_<id>.tcj` for one built by
//! [`ShardedServeEngine`] — and write one checkpoint file whose payload
//! carries one state per region (`CHECKPOINT_VERSION` 3). Restore
//! rebuilds the snapshot once from region 0's state, after checking
//! that every region agrees on the boundary, the positions and the
//! primary servers, and re-derives strip membership and user ownership
//! from the static topology and the checkpointed positions.
//!
//! [`ServeEngine`]: crate::ServeEngine

use std::path::PathBuf;

use trimcaching_scenario::mobility::MobilityModel;
use trimcaching_scenario::{Placement, Scenario, UserId};
use trimcaching_wireless::geometry::Point;

use crate::engine::{
    primary_server_for, primary_servers, DriveStop, Region, RunState, ServeConfig, ServeReport,
    ShardSpec,
};
use crate::error::RuntimeError;
use crate::persist::checkpoint::CheckpointSaver;
use crate::persist::{Checkpoint, PersistConfig, PersistError};
use crate::policy::EvictionPolicy;
use crate::workload::Workload;

/// The static strip partition of a scenario: which servers belong to
/// which shard, and the geometry deciding which strip a coordinate (and
/// therefore a user) falls into.
#[derive(Debug, Clone)]
struct Partition {
    min_x: f64,
    strip_w: f64,
    num_shards: usize,
    /// `member_servers[s][m]` — server `m` belongs to shard `s`.
    member_servers: Vec<Vec<bool>>,
}

impl Partition {
    /// Splits the server x-coordinate bounding box into `num_shards`
    /// equal strips. Degenerate spans (one server, or all servers on
    /// one vertical line) collapse into strip 0.
    fn over(scenario: &Scenario, num_shards: usize) -> Self {
        let xs: Vec<f64> = scenario.servers().iter().map(|s| s.position().x).collect();
        let min_x = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max_x = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = max_x - min_x;
        let strip_w = if span.is_finite() && span > 0.0 {
            span / num_shards as f64
        } else {
            0.0
        };
        let mut partition = Self {
            min_x,
            strip_w,
            num_shards,
            member_servers: Vec::new(),
        };
        let mut member_servers = vec![vec![false; xs.len()]; num_shards];
        for (m, &x) in xs.iter().enumerate() {
            member_servers[partition.strip_of(x)][m] = true;
        }
        partition.member_servers = member_servers;
        partition
    }

    /// The shard whose strip contains x-coordinate `x` (positions
    /// outside the server bounding box clamp to the border strips).
    fn strip_of(&self, x: f64) -> usize {
        if self.strip_w <= 0.0 {
            return 0;
        }
        let strip = ((x - self.min_x) / self.strip_w).floor();
        if strip.is_nan() {
            return 0;
        }
        (strip as i64).clamp(0, self.num_shards as i64 - 1) as usize
    }

    /// The owner shard of every user, from their current positions.
    fn owners_of(&self, positions: &[Point]) -> Vec<usize> {
        positions.iter().map(|p| self.strip_of(p.x)).collect()
    }

    /// The membership of region `s` under the ownership map `owner`.
    fn spec(&self, s: usize, owner: &[usize]) -> ShardSpec {
        ShardSpec {
            owned_users: owner.iter().map(|&o| o == s).collect(),
            member_servers: self.member_servers[s].clone(),
        }
    }
}

/// A serving run partitioned into deterministic regions — see the
/// module docs for the model and the determinism contract.
pub struct ShardedServeEngine<'a> {
    config: ServeConfig,
    /// Worker threads one drive round uses, resolved once at build time.
    workers: usize,
    partition: Partition,
    /// Authoritative user-ownership map (`owner[k]` = region id),
    /// mirrored into every region's spec masks.
    owner: Vec<usize>,
    /// The run's only mutable radio snapshot, updated once per mobility
    /// slot and once per restore; regions borrow it read-only.
    current: Scenario,
    /// Per-user primary (highest-rate covering) server under `current`;
    /// handovers are counted against it across mobility slots.
    primary: Vec<Option<usize>>,
    regions: Vec<Region<'a>>,
    /// One run state per region once the run has begun (empty before).
    states: Vec<RunState>,
    /// Whether region `s` journals to `journal_<s>.tcj` (built as a
    /// sharded run) or, at `R = 1`, to `journal.tcj` (built as a
    /// [`ServeEngine`](crate::ServeEngine)).
    per_shard_journals: bool,
    /// Simulated time of the next checkpoint boundary
    /// (`f64::INFINITY` for in-memory runs).
    next_checkpoint_s: f64,
    saver: CheckpointSaver,
}

impl<'a> ShardedServeEngine<'a> {
    /// Prepares a sharded engine over `scenario` with `num_shards`
    /// strips. `num_shards == 1` is the classic engine behind a thread
    /// pool of one — its trace is bit-identical to
    /// [`ServeEngine::run`](crate::ServeEngine::run).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for zero shards or an
    /// invalid configuration, and propagates scenario errors.
    pub fn new(
        scenario: &'a Scenario,
        policy: &'a dyn EvictionPolicy,
        config: ServeConfig,
        num_shards: usize,
    ) -> Result<Self, RuntimeError> {
        Self::build(scenario, policy, config, num_shards, true)
    }

    /// [`ShardedServeEngine::new`] with the journal naming chosen by
    /// the public constructor that called it.
    pub(crate) fn build(
        scenario: &'a Scenario,
        policy: &'a dyn EvictionPolicy,
        config: ServeConfig,
        num_shards: usize,
        per_shard_journals: bool,
    ) -> Result<Self, RuntimeError> {
        if num_shards == 0 {
            return Err(RuntimeError::InvalidConfig {
                reason: "a sharded run needs at least one shard".into(),
            });
        }
        config.validate()?;
        let partition = Partition::over(scenario, num_shards);
        let positions: Vec<Point> = scenario.users().iter().map(|u| u.position()).collect();
        let owner = partition.owners_of(&positions);
        let regions = (0..num_shards)
            .map(|s| {
                let region_config = config.clone().with_seed(config.seed.wrapping_add(s as u64));
                Region::new(scenario, policy, region_config, partition.spec(s, &owner))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let next_checkpoint_s = if config.persist.is_some() {
            0.0
        } else {
            f64::INFINITY
        };
        Ok(Self {
            config,
            workers: worker_count(0, num_shards),
            partition,
            owner,
            current: scenario.clone(),
            primary: primary_servers(scenario)?,
            regions,
            states: Vec::new(),
            per_shard_journals,
            next_checkpoint_s,
            saver: CheckpointSaver::default(),
        })
    }

    /// Sets the worker-thread pool size (`0`, the default, uses one
    /// worker per available CPU). The pool size changes wall-clock
    /// time only — the merged trace is byte-identical for any value.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.workers = worker_count(threads, self.regions.len());
        self
    }

    /// Warm-starts every shard's member caches from an offline
    /// placement, exactly like [`ServeEngine::warm_start`]
    /// (non-member servers are other shards' rows of the placement).
    ///
    /// [`ServeEngine::warm_start`]: crate::ServeEngine::warm_start
    ///
    /// # Errors
    ///
    /// Propagates scenario errors for mismatched placements.
    pub fn warm_start(&mut self, placement: &Placement) -> Result<(), RuntimeError> {
        for region in &mut self.regions {
            region.warm_start(placement)?;
        }
        Ok(())
    }

    /// Replaces every shard's request-generation workload, exactly like
    /// [`ServeEngine::set_workload`]: each shard samples its *own*
    /// users from the shared workload, so piecewise shifts, flash
    /// crowds and tides apply city-wide.
    ///
    /// [`ServeEngine::set_workload`]: crate::ServeEngine::set_workload
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError::InvalidConfig`] for a workload whose
    /// user count differs from the scenario's.
    pub fn set_workload(&mut self, workload: Workload) -> Result<(), RuntimeError> {
        for region in &mut self.regions {
            region.set_workload(workload.clone())?;
        }
        Ok(())
    }

    /// Schedules an oracle reconciliation in every region (each stages
    /// the rows of its member servers); see
    /// [`ServeEngine::schedule_reconcile`](crate::ServeEngine::schedule_reconcile).
    pub(crate) fn schedule_reconcile(
        &mut self,
        at_s: f64,
        target: Placement,
    ) -> Result<(), RuntimeError> {
        for region in &mut self.regions {
            region.schedule_reconcile(at_s, target.clone())?;
        }
        Ok(())
    }

    /// Resumes an interrupted durable sharded run from the shared
    /// checkpoint and the per-shard journals in `persist.dir`. The
    /// shard count is read from the checkpoint; strip membership is
    /// re-derived from the (static) topology and user ownership from
    /// the checkpointed positions — ownership at a boundary is always
    /// exactly "the strip the user stands in".
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, corrupt files, shard states that disagree
    /// on the boundary, positions or primary servers, or a policy/seed
    /// mismatch between `policy`, the checkpoint and any shard journal.
    pub fn resume(
        scenario: &'a Scenario,
        policy: &'a dyn EvictionPolicy,
        persist: PersistConfig,
    ) -> Result<Self, RuntimeError> {
        persist.validate()?;
        let cp = Checkpoint::load(&persist.checkpoint_path())?;
        Self::restore(scenario, policy, &cp, Some(persist), true)
    }

    /// Rebuilds a run from a decoded checkpoint: the snapshot and the
    /// primary servers once from region 0's state, then every region.
    /// With `persist`, each region's journal is reopened for
    /// verification and checkpoints continue; without it the run is an
    /// in-memory fork.
    pub(crate) fn restore(
        scenario: &'a Scenario,
        policy: &'a dyn EvictionPolicy,
        cp: &Checkpoint,
        persist: Option<PersistConfig>,
        per_shard_journals: bool,
    ) -> Result<Self, RuntimeError> {
        let Some(first) = cp.shards.first() else {
            return Err(PersistError::Mismatch {
                reason: "checkpoint captures no shards".into(),
            }
            .into());
        };
        if let Some(s) = cp.shards.iter().position(|state| {
            state.time_s != first.time_s
                || state.positions != first.positions
                || state.primary != first.primary
        }) {
            return Err(PersistError::Mismatch {
                reason: format!(
                    "checkpoint shard {s} disagrees with shard 0 on the boundary time, \
                     the user positions or the primary servers"
                ),
            }
            .into());
        }
        if first.positions.len() != scenario.num_users()
            || first.primary.len() != scenario.num_users()
        {
            return Err(PersistError::Mismatch {
                reason: format!(
                    "checkpoint captured {} users but the scenario has {}",
                    first.positions.len(),
                    scenario.num_users()
                ),
            }
            .into());
        }
        let num_shards = cp.num_shards();
        let partition = Partition::over(scenario, num_shards);
        let owner = partition.owners_of(&first.positions);
        let mut regions = Vec::with_capacity(num_shards);
        let mut states = Vec::with_capacity(num_shards);
        for (s, state) in cp.shards.iter().enumerate() {
            let (region, run_state) =
                Region::restore(scenario, policy, state, partition.spec(s, &owner))?;
            regions.push(region);
            states.push(run_state);
        }
        // One-shot position update — bit-identical to the incremental
        // slot-by-slot evolution that produced the checkpoint (pinned by
        // `incremental_slots_match_full_rebuild_serving`).
        let mut current = scenario.clone();
        current.update_user_positions(&first.positions)?;
        // Region 0's stream is seeded with the run seed itself, so its
        // captured config is the run config.
        let mut config = first.config.clone();
        config.persist = persist;
        let next_checkpoint_s = match &config.persist {
            Some(pc) => first.time_s + pc.checkpoint_every_s,
            None => f64::INFINITY,
        };
        let mut engine = Self {
            config,
            workers: worker_count(0, num_shards),
            partition,
            owner,
            current,
            primary: first
                .primary
                .iter()
                .map(|p| p.map(|m| m as usize))
                .collect(),
            regions,
            states,
            per_shard_journals,
            next_checkpoint_s,
            saver: CheckpointSaver::default(),
        };
        for (s, state) in cp.shards.iter().enumerate() {
            if let Some(path) = engine.journal_path(s) {
                engine.regions[s].reopen_journal(&path, state)?;
            }
        }
        Ok(engine)
    }

    /// The journal file of region `s`, for durable runs.
    fn journal_path(&self, s: usize) -> Option<PathBuf> {
        let pc = self.config.persist.as_ref()?;
        Some(if self.per_shard_journals {
            pc.journal_shard_path(s)
        } else {
            pc.journal_path()
        })
    }

    /// Runs all shards to the configured horizon and merges the
    /// per-shard reports: counters sum, histograms add, window traces
    /// merge point-wise, and each server's final cache comes from its
    /// member shard. For one shard the merged report *is* the classic
    /// report.
    ///
    /// # Errors
    ///
    /// Propagates the first error any shard produced.
    pub fn run(mut self) -> Result<ServeReport, RuntimeError> {
        let horizon = self.config.duration_s;
        self.run_to(horizon)?;
        self.saver.wait()?;
        let mut reports = self
            .regions
            .into_iter()
            .map(|region| region.finish(horizon))
            .collect::<Result<Vec<_>, _>>()?;
        let mut merged = reports.remove(0);
        merged.seed = self.config.seed;
        for report in &reports {
            merged.metrics.merge_from(&report.metrics);
        }
        // Each server belongs to exactly one shard; its final cache is
        // that shard's (non-member caches stay empty for the whole run).
        for (s, report) in reports.iter().enumerate() {
            for (m, &member) in self.partition.member_servers[s + 1].iter().enumerate() {
                if member {
                    merged.final_caches[m] = report.final_caches[m].clone();
                }
            }
        }
        Ok(merged)
    }

    /// Runs the shards up to simulated time `stop_s` and drops the
    /// engine — the durable-run analogue of the process being killed at
    /// `stop_s`, like [`ServeEngine::run_until`]. Every due shared
    /// checkpoint is on disk and every shard journal is flushed;
    /// continue with [`ShardedServeEngine::resume`].
    ///
    /// [`ServeEngine::run_until`]: crate::ServeEngine::run_until
    ///
    /// # Errors
    ///
    /// Rejects a non-finite or negative stop time and propagates the
    /// same errors as [`ShardedServeEngine::run`].
    pub fn run_until(mut self, stop_s: f64) -> Result<(), RuntimeError> {
        if !(stop_s.is_finite() && stop_s >= 0.0) {
            return Err(RuntimeError::InvalidConfig {
                reason: format!("stop time must be non-negative and finite, got {stop_s}"),
            });
        }
        self.run_to(stop_s.min(self.config.duration_s))?;
        for region in &mut self.regions {
            region.flush_journal()?;
        }
        Ok(self.saver.wait()?)
    }

    /// Drives every region to `horizon` through checkpoint-bounded
    /// windows: within a window the regions run in parallel and merge
    /// at every mobility boundary; at each due checkpoint boundary all
    /// regions are captured into one checkpoint file. A boundary `T` is
    /// written once every event at or before `T` has fired (events *at*
    /// the boundary are simulated state of the boundary) and `T` is
    /// within the horizon; boundary `0.0` is included.
    fn run_to(&mut self, horizon: f64) -> Result<(), RuntimeError> {
        if self.states.is_empty() {
            self.begin()?;
        }
        loop {
            self.drive_window(horizon.min(self.next_checkpoint_s))?;
            let due = self.next_checkpoint_s;
            let Some(pc) = self.config.persist.as_ref().filter(|_| due <= horizon) else {
                return Ok(());
            };
            let (path, every_s, fsync) = (pc.checkpoint_path(), pc.checkpoint_every_s, pc.fsync);
            let mut shards = Vec::with_capacity(self.regions.len());
            for (region, state) in self.regions.iter_mut().zip(&self.states) {
                shards.push(region.capture(due, state, &self.current, &self.primary)?);
            }
            self.saver.save(path, Checkpoint { shards }, fsync)?;
            self.next_checkpoint_s = due + every_s;
        }
    }

    /// Starts every region's run state and, for durable runs, creates
    /// the persistence directory and the region journals.
    fn begin(&mut self) -> Result<(), RuntimeError> {
        if let Some(pc) = &self.config.persist {
            std::fs::create_dir_all(&pc.dir).map_err(|e| PersistError::io(&pc.dir, e))?;
        }
        let paths: Vec<Option<PathBuf>> = (0..self.regions.len())
            .map(|s| self.journal_path(s))
            .collect();
        self.states = self
            .regions
            .iter_mut()
            .zip(&paths)
            .map(|(region, path)| region.begin(path.as_deref()))
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    /// Drives every region to `window_end`, running the deterministic
    /// cross-region merge at each mobility boundary on the way. Every
    /// region shares the slot grid, so all of them stop at the same
    /// boundary or none does.
    fn drive_window(&mut self, window_end: f64) -> Result<(), RuntimeError> {
        loop {
            let outcomes = self.drive_all(window_end)?;
            let first = outcomes.first().copied().unwrap_or(DriveStop::Horizon);
            if outcomes.iter().any(|&outcome| outcome != first) {
                return Err(RuntimeError::Internal {
                    reason: format!("regions disagree on the mobility boundary: {outcomes:?}"),
                });
            }
            match first {
                DriveStop::Horizon => return Ok(()),
                DriveStop::MobilityBoundary(tb) => self.merge_at(tb)?,
            }
        }
    }

    /// One round of region driving: contiguous runs of regions on the
    /// worker threads, or inline for one worker. The outcomes come back
    /// in region-id order whatever the thread scheduling, so everything
    /// downstream is deterministic.
    fn drive_all(&mut self, stop_s: f64) -> Result<Vec<DriveStop>, RuntimeError> {
        let snapshot = &self.current;
        let drive = |part: &mut [(&mut Region<'a>, &mut RunState)]| {
            part.iter_mut()
                .map(|(region, state)| region.drive(state, snapshot, stop_s))
                .collect::<Result<Vec<_>, _>>()
        };
        let mut pairs: Vec<_> = self.regions.iter_mut().zip(&mut self.states).collect();
        if self.workers == 1 {
            return drive(&mut pairs);
        }
        let chunk = pairs.len().div_ceil(self.workers);
        let parts: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = pairs
                .chunks_mut(chunk)
                .map(|part| scope.spawn(move || drive(part)))
                .collect();
            handles.into_iter().map(|handle| handle.join()).collect()
        });
        let mut outcomes = Vec::with_capacity(self.regions.len());
        for part in parts {
            outcomes.extend(part.map_err(|_| RuntimeError::Internal {
                reason: "a region worker panicked".into(),
            })??);
        }
        Ok(outcomes)
    }

    /// The deterministic cross-region merge at mobility boundary `tb`,
    /// entirely single-threaded and ordered by region id then user id:
    ///
    /// 1. assemble the global position vector from the owner regions'
    ///    kinematics (each region steps *all* users for RNG parity, but
    ///    only owned rows are authoritative);
    /// 2. apply the slot to the snapshot once — incremental evolution,
    ///    re-deriving only the moved users' rows (and those of users
    ///    sharing a reallocated server), bit-identical to a full
    ///    rebuild — and re-derive the refreshed users' primary servers;
    /// 3. hand every region the refreshed users, so each counts one
    ///    snapshot update and the refreshes and handovers it owns;
    /// 4. migrate ownership of users that crossed a strip border: copy
    ///    the kinematic row to the new owner, flip both masks, and let
    ///    the new owner schedule a fresh arrival (the old owner's
    ///    pending request dies as a tombstone).
    fn merge_at(&mut self, tb: f64) -> Result<(), RuntimeError> {
        let num_users = self.owner.len();
        let mut global = vec![Point::new(0.0, 0.0); num_users];
        for (s, state) in self.states.iter().enumerate() {
            let users = kinematics(state)?.users();
            for (k, &owner) in self.owner.iter().enumerate() {
                if owner == s {
                    global[k] = users[k].position;
                }
            }
        }
        let delta = self.current.update_user_positions(&global)?;
        // Primary servers are a pure function of a user's covering set
        // and rates, both unchanged outside the refreshed set — recount
        // handovers from the delta instead of re-deriving all K
        // assignments.
        let mut refreshed = Vec::with_capacity(delta.refreshed_users().len());
        for &k in delta.refreshed_users() {
            let fresh = primary_server_for(&self.current, k)?;
            refreshed.push((k, self.primary[k] != fresh));
            self.primary[k] = fresh;
        }
        for region in &mut self.regions {
            region.note_slot(&refreshed);
        }
        // Migration order is part of the determinism contract: strictly
        // ascending user id, so the index loop is deliberate.
        #[allow(clippy::needless_range_loop)]
        for k in 0..num_users {
            let from = self.owner[k];
            let to = self.partition.strip_of(global[k].x);
            if to == from {
                continue;
            }
            let row = kinematics(&self.states[from])?.users()[k];
            let state = &mut self.states[to];
            state
                .mobility
                .as_mut()
                .ok_or_else(no_kinematics)?
                .set_user(k, row)?;
            self.regions[from].set_owned(k, false);
            self.regions[to].set_owned(k, true);
            self.owner[k] = to;
            self.regions[to].schedule_user_request(state, UserId(k), tb);
        }
        Ok(())
    }
}

/// The worker count of one drive round: `threads` (`0` = one per
/// available CPU), capped by the region count. A single region never
/// asks the OS.
fn worker_count(threads: usize, regions: usize) -> usize {
    if regions <= 1 {
        return 1;
    }
    let threads = if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    threads.clamp(1, regions)
}

/// A region's mobility model at a mobility boundary.
fn kinematics(state: &RunState) -> Result<&MobilityModel, RuntimeError> {
    state.mobility.as_ref().ok_or_else(no_kinematics)
}

/// The internal error for a mobility boundary in a region without
/// kinematics — only reachable through a coordinator bug.
fn no_kinematics() -> RuntimeError {
    RuntimeError::Internal {
        reason: "a mobility boundary fired but a region has no mobility model".into(),
    }
}

/// Runs one sharded serving replay: build the sharded engine, optional
/// warm start, run — the sharded analogue of [`serve`](crate::serve).
///
/// # Errors
///
/// Propagates configuration and scenario errors.
pub fn serve_sharded(
    scenario: &Scenario,
    policy: &dyn EvictionPolicy,
    initial: Option<&Placement>,
    config: &ServeConfig,
    num_shards: usize,
    threads: usize,
) -> Result<ServeReport, RuntimeError> {
    let mut engine = ShardedServeEngine::new(scenario, policy, config.clone(), num_shards)?
        .with_threads(threads);
    if let Some(placement) = initial {
        engine.warm_start(placement)?;
    }
    engine.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::serve;
    use crate::policy::Lru;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::path::{Path, PathBuf};
    use trimcaching_modellib::builders::SpecialCaseBuilder;
    use trimcaching_scenario::prelude::*;
    use trimcaching_wireless::geometry::DeploymentArea;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tc-shard-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Four servers spread along x so 2- and 4-way strip partitions put
    /// at least one server in every shard.
    fn scenario(num_users: usize) -> Scenario {
        let library = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(3)
            .build(5);
        let mut rng = StdRng::seed_from_u64(77);
        let area = DeploymentArea::paper_default();
        let positions: Vec<Point> = (0..num_users)
            .map(|_| area.sample_uniform(&mut rng))
            .collect();
        let demand = DemandConfig::paper_defaults()
            .generate(num_users, library.num_models(), &mut rng)
            .unwrap();
        let servers = [120.0, 380.0, 620.0, 880.0]
            .iter()
            .enumerate()
            .map(|(m, &x)| {
                EdgeServer::new(ServerId(m), Point::new(x, 500.0), gigabytes(0.5)).unwrap()
            })
            .collect();
        Scenario::builder()
            .library(library)
            .servers(servers)
            .users_at(&positions)
            .demand(demand)
            .build()
            .unwrap()
    }

    /// Mobility on (so merges and migrations fire) and durable (so the
    /// byte-identity claims are checkable on the journal files).
    fn config(dir: &Path) -> ServeConfig {
        ServeConfig::smoke()
            .with_seed(11)
            .with_mobility_slot_s(5.0)
            .with_persist(PersistConfig::new(dir).with_checkpoint_every_s(20.0))
    }

    fn journal_bytes(path: PathBuf) -> Vec<u8> {
        std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    }

    #[test]
    fn one_shard_reproduces_the_classic_trace() {
        let s = scenario(14);
        let classic_dir = temp_dir("classic");
        let sharded_dir = temp_dir("r1");
        let classic = serve(&s, &Lru, None, &config(&classic_dir)).unwrap();
        let sharded = serve_sharded(&s, &Lru, None, &config(&sharded_dir), 1, 1).unwrap();
        assert_eq!(
            classic, sharded,
            "R=1 must be bit-equal to the classic engine"
        );
        assert!(classic.metrics.requests > 0);
        assert!(classic.metrics.users_refreshed > 0, "mobility must fire");
        assert_eq!(
            journal_bytes(PersistConfig::new(&classic_dir).journal_path()),
            journal_bytes(PersistConfig::new(&sharded_dir).journal_shard_path(0)),
            "the single shard's journal must be byte-identical to the classic journal"
        );
    }

    #[test]
    fn worker_thread_count_never_changes_the_trace() {
        let s = scenario(16);
        let serial_dir = temp_dir("t1");
        let pooled_dir = temp_dir("t4");
        let serial = serve_sharded(&s, &Lru, None, &config(&serial_dir), 4, 1).unwrap();
        let pooled = serve_sharded(&s, &Lru, None, &config(&pooled_dir), 4, 4).unwrap();
        assert_eq!(
            serial, pooled,
            "thread count must not perturb the merged trace"
        );
        assert!(serial.metrics.requests > 0);
        for shard in 0..4 {
            assert_eq!(
                journal_bytes(PersistConfig::new(&serial_dir).journal_shard_path(shard)),
                journal_bytes(PersistConfig::new(&pooled_dir).journal_shard_path(shard)),
                "shard {shard} journal must be byte-identical at 1 and 4 workers"
            );
        }
    }

    #[test]
    fn sharded_runs_are_deterministic_and_conserve_requests() {
        let s = scenario(16);
        let a_dir = temp_dir("det-a");
        let b_dir = temp_dir("det-b");
        let a = serve_sharded(&s, &Lru, None, &config(&a_dir), 2, 2).unwrap();
        let b = serve_sharded(&s, &Lru, None, &config(&b_dir), 2, 2).unwrap();
        assert_eq!(a, b, "same-seed sharded runs must be byte-identical");
        let m = &a.metrics;
        assert_eq!(m.requests, m.hits + m.misses_served + m.rejected);
        assert!((0.0..=1.0).contains(&m.hit_ratio()));
        assert_eq!(
            a.seed, 11,
            "the merged report carries the run seed, not a shard seed"
        );
        // Every cached set respects the shared-storage capacity.
        for (srv, cached) in a.final_caches.iter().enumerate() {
            let used = s.library().union_size_bytes(cached.iter().copied());
            assert!(used <= s.capacity_bytes(ServerId(srv)).unwrap());
        }
    }

    #[test]
    fn killed_sharded_run_resumes_byte_identically() {
        let s = scenario(14);
        let reference_dir = temp_dir("ref");
        let killed_dir = temp_dir("killed");
        let reference = serve_sharded(&s, &Lru, None, &config(&reference_dir), 2, 2).unwrap();

        // Kill mid-run (past the t=20 checkpoint, mid-window), then
        // resume from disk and run to the horizon.
        let engine = ShardedServeEngine::new(&s, &Lru, config(&killed_dir), 2)
            .unwrap()
            .with_threads(2);
        engine.run_until(37.0).unwrap();
        let persist = PersistConfig::new(&killed_dir).with_checkpoint_every_s(20.0);
        let resumed = ShardedServeEngine::resume(&s, &Lru, persist.clone())
            .unwrap()
            .with_threads(2)
            .run()
            .unwrap();
        assert_eq!(
            reference, resumed,
            "resume must reproduce the uninterrupted run"
        );
        for shard in 0..2 {
            assert_eq!(
                journal_bytes(PersistConfig::new(&reference_dir).journal_shard_path(shard)),
                journal_bytes(persist.journal_shard_path(shard)),
                "shard {shard} journal must be byte-identical after kill/resume"
            );
        }
    }

    #[test]
    fn zero_shards_are_rejected_and_degenerate_partitions_collapse() {
        let s = scenario(6);
        let err = ShardedServeEngine::new(&s, &Lru, ServeConfig::smoke(), 0);
        assert!(err.is_err(), "zero shards must be rejected");
        // More shards than distinct strips still runs (empty shards are
        // legal: strips with no servers reject their users' requests).
        let report = serve_sharded(&s, &Lru, None, &ServeConfig::smoke().with_seed(3), 8, 2);
        let report = report.unwrap();
        assert_eq!(
            report.metrics.requests,
            report.metrics.hits + report.metrics.misses_served + report.metrics.rejected
        );
    }

    #[test]
    fn resume_rejects_shard_states_that_disagree() {
        let s = scenario(14);
        let dir = temp_dir("disagree");
        ShardedServeEngine::new(&s, &Lru, config(&dir), 2)
            .unwrap()
            .run_until(37.0)
            .unwrap();
        let persist = PersistConfig::new(&dir).with_checkpoint_every_s(20.0);
        let path = persist.checkpoint_path();
        let original = Checkpoint::load(&path).unwrap();
        assert_eq!(original.num_shards(), 2);
        for field in ["time_s", "positions", "primary"] {
            let mut cp = original.clone();
            let state = &mut cp.shards[1];
            match field {
                "time_s" => state.time_s += 5.0,
                "positions" => state.positions[3].x += 1.0,
                _ => state.primary[0] = Some(state.primary[0].map_or(0, |m| m + 1)),
            }
            cp.save(&path).unwrap();
            let err = ShardedServeEngine::resume(&s, &Lru, persist.clone())
                .map(|_| ())
                .unwrap_err();
            assert!(
                matches!(err, RuntimeError::Persist(PersistError::Mismatch { .. })),
                "disagreeing {field} must be a typed mismatch, got {err:?}"
            );
        }
        // The untampered checkpoint still resumes.
        original.save(&path).unwrap();
        assert!(ShardedServeEngine::resume(&s, &Lru, persist).is_ok());
    }
}
