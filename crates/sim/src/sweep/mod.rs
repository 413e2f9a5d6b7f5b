//! Declarative scenario & parameter sweeps.
//!
//! A [`SweepSpec`] names typed axes over four layers of the stack —
//! topology ([`CityScaleConfig`] knobs and heterogeneous storage
//! tiers), workload (the [`WorkloadFamily`] library), policy (eviction
//! × fill granularity × control loop) and runtime (shard count, fault
//! injection) — and expands into the full cartesian grid of [`Cell`]s.
//! Expansion is *canonical*: axes always nest in the same order
//! (topology → workload → policy → runtime) no matter how the spec was
//! written down, every cell derives its seed from the FNV-1a
//! fingerprint of the canonical spec text plus its own index, and the
//! [`runner`] executes cells on the runtime's worker pool, whose size
//! changes wall-clock time only. The resulting [`SweepReport`] renders
//! to CSV, JSON and Markdown byte-identically for any worker count —
//! the same determinism contract the sharded engine honours, one level
//! up.
//!
//! Spec files are a line-oriented `key = value` dialect (a strict
//! TOML subset — the environment is offline, so no external parser);
//! see [`spec`] for the grammar and the canonical writer that defines
//! the fingerprint.
//!
//! [`CityScaleConfig`]: crate::topology::CityScaleConfig

pub mod report;
pub mod runner;
pub mod spec;

pub use report::{parse_csv, to_csv, to_json, to_markdown};
pub use runner::{run_sweep, CellOutcome, SweepReport};
pub use spec::{parse_spec, write_spec};

use trimcaching_runtime::{CostAwareLfu, EvictionPolicy, FillGranularity, Lfu, Lru};

use crate::SimError;

/// The workload families a sweep can schedule. `Stationary` and
/// `Shift` existed before the sweep harness; the other four are the
/// generators this subsystem introduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadFamily {
    /// Stationary Zipf demand — the paper's baseline arrivals.
    Stationary,
    /// Seeded piecewise popularity permutations
    /// ([`trimcaching_runtime::PopularityShift`]).
    Shift,
    /// Transient hot-model spike
    /// ([`trimcaching_runtime::Workload::flash_crowd`]).
    FlashCrowd,
    /// Periodic popularity rotation
    /// ([`trimcaching_runtime::Workload::diurnal_tide`]).
    Diurnal,
    /// Correlated regional popularity: one clustered demand class per
    /// grid region of the city, stationary arrivals.
    Regional,
    /// Commuter population: users dropped at home anchors in the
    /// residential band, stationary arrivals.
    Commuter,
}

impl WorkloadFamily {
    /// Stable spec-file name of the family.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadFamily::Stationary => "stationary",
            WorkloadFamily::Shift => "shift",
            WorkloadFamily::FlashCrowd => "flash-crowd",
            WorkloadFamily::Diurnal => "diurnal",
            WorkloadFamily::Regional => "regional",
            WorkloadFamily::Commuter => "commuter",
        }
    }

    /// Parses a spec-file name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an unknown family.
    pub fn parse(s: &str) -> Result<Self, SimError> {
        match s {
            "stationary" => Ok(WorkloadFamily::Stationary),
            "shift" => Ok(WorkloadFamily::Shift),
            "flash-crowd" => Ok(WorkloadFamily::FlashCrowd),
            "diurnal" => Ok(WorkloadFamily::Diurnal),
            "regional" => Ok(WorkloadFamily::Regional),
            "commuter" => Ok(WorkloadFamily::Commuter),
            other => Err(SimError::InvalidConfig {
                reason: format!("unknown workload family '{other}'"),
            }),
        }
    }

    /// Every family, in canonical (markdown-section) order.
    pub fn all() -> [WorkloadFamily; 6] {
        [
            WorkloadFamily::Stationary,
            WorkloadFamily::Shift,
            WorkloadFamily::FlashCrowd,
            WorkloadFamily::Diurnal,
            WorkloadFamily::Regional,
            WorkloadFamily::Commuter,
        ]
    }
}

/// The eviction policies a sweep can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least-recently-used.
    Lru,
    /// Least-frequently-used.
    Lfu,
    /// Cost-aware LFU (the serving default).
    CostLfu,
}

impl PolicyKind {
    /// Stable spec-file name of the policy.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Lfu => "lfu",
            PolicyKind::CostLfu => "cost-lfu",
        }
    }

    /// Parses a spec-file name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an unknown policy.
    pub fn parse(s: &str) -> Result<Self, SimError> {
        match s {
            "lru" => Ok(PolicyKind::Lru),
            "lfu" => Ok(PolicyKind::Lfu),
            "cost-lfu" => Ok(PolicyKind::CostLfu),
            other => Err(SimError::InvalidConfig {
                reason: format!("unknown eviction policy '{other}'"),
            }),
        }
    }

    /// The policy object behind the name.
    pub fn policy(self) -> &'static (dyn EvictionPolicy + Sync) {
        match self {
            PolicyKind::Lru => &Lru,
            PolicyKind::Lfu => &Lfu,
            PolicyKind::CostLfu => &CostAwareLfu,
        }
    }
}

/// A declarative sweep: scalar base parameters plus one value list per
/// axis. Expansion nests the axes canonically — topology (`users`,
/// `capacity_gb`, `storage_tiers`), workload (`workloads`), policy
/// (`policies`, `granularities`, `control`), runtime (`shards`,
/// `faults`) — with the last axis fastest, so cell indices (and hence
/// cell seeds) never depend on the order the spec file declared its
/// lines in.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (artefact prefix, report heading).
    pub name: String,
    /// Base seed folded into the fingerprint.
    pub seed: u64,
    /// Serving horizon per cell, in simulated seconds.
    pub duration_s: f64,
    /// Per-user request rate in Hz.
    pub request_rate_hz: f64,
    /// City side length in metres.
    pub area_side_m: f64,
    /// Poisson server intensity per km².
    pub servers_per_km2: f64,
    /// Clustered demand classes for non-regional families.
    pub demand_classes: usize,
    /// Grid side for the `regional` family (`grid²` demand classes).
    pub regional_grid: usize,
    /// Models per backbone family in the library.
    pub models_per_backbone: usize,
    /// Library construction seed.
    pub library_seed: u64,
    /// Mobility slot length in seconds (`0` disables mobility).
    pub mobility_slot_s: f64,
    /// Topology axis: number of users.
    pub users: Vec<usize>,
    /// Topology axis: per-server capacity in GB.
    pub capacity_gb: Vec<f64>,
    /// Topology axis: storage-tier multiplier sets (an empty set is the
    /// homogeneous paper capacity).
    pub storage_tiers: Vec<Vec<f64>>,
    /// Workload axis.
    pub workloads: Vec<WorkloadFamily>,
    /// Policy axis: eviction policies.
    pub policies: Vec<PolicyKind>,
    /// Policy axis: fill granularities.
    pub granularities: Vec<FillGranularity>,
    /// Policy axis: control loop on/off.
    pub control: Vec<bool>,
    /// Runtime axis: shard counts.
    pub shards: Vec<usize>,
    /// Runtime axis: fault injection on/off.
    pub faults: Vec<bool>,
}

impl SweepSpec {
    /// A small single-valued spec — the base every parsed spec file
    /// starts from, and a quick smoke grid on its own.
    pub fn smoke() -> Self {
        Self {
            name: "sweep".into(),
            seed: 2024,
            duration_s: 120.0,
            request_rate_hz: 0.05,
            area_side_m: 1_500.0,
            servers_per_km2: 8.0,
            demand_classes: 16,
            regional_grid: 2,
            models_per_backbone: 2,
            library_seed: 7,
            mobility_slot_s: 0.0,
            users: vec![300],
            capacity_gb: vec![0.5],
            storage_tiers: vec![vec![]],
            workloads: vec![WorkloadFamily::Stationary],
            policies: vec![PolicyKind::CostLfu],
            granularities: vec![FillGranularity::Block],
            control: vec![false],
            shards: vec![1],
            faults: vec![false],
        }
    }

    /// Validates every scalar and axis.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the first bad field.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |reason: String| Err(SimError::InvalidConfig { reason });
        if self.name.is_empty() || !self.name.chars().all(is_name_char) {
            return bad(format!(
                "sweep name must be non-empty [A-Za-z0-9_-], got '{}'",
                self.name
            ));
        }
        for (field, value) in [
            ("duration_s", self.duration_s),
            ("request_rate_hz", self.request_rate_hz),
            ("area_side_m", self.area_side_m),
            ("servers_per_km2", self.servers_per_km2),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return bad(format!("{field} must be positive and finite, got {value}"));
            }
        }
        if !(self.mobility_slot_s.is_finite() && self.mobility_slot_s >= 0.0) {
            return bad(format!(
                "mobility_slot_s must be non-negative, got {}",
                self.mobility_slot_s
            ));
        }
        for (field, value) in [
            ("demand_classes", self.demand_classes),
            ("regional_grid", self.regional_grid),
            ("models_per_backbone", self.models_per_backbone),
        ] {
            if value == 0 {
                return bad(format!("{field} must be at least 1"));
            }
        }
        for (axis, len) in [
            ("users", self.users.len()),
            ("capacity_gb", self.capacity_gb.len()),
            ("storage_tiers", self.storage_tiers.len()),
            ("workloads", self.workloads.len()),
            ("policies", self.policies.len()),
            ("granularities", self.granularities.len()),
            ("control", self.control.len()),
            ("shards", self.shards.len()),
            ("faults", self.faults.len()),
        ] {
            if len == 0 {
                return bad(format!("axis '{axis}' needs at least one value"));
            }
        }
        if self.users.contains(&0) {
            return bad("axis 'users' values must be at least 1".into());
        }
        if self.shards.contains(&0) {
            return bad("axis 'shards' values must be at least 1".into());
        }
        if self
            .capacity_gb
            .iter()
            .any(|&q| !(q.is_finite() && q > 0.0))
        {
            return bad(format!(
                "axis 'capacity_gb' values must be positive and finite: {:?}",
                self.capacity_gb
            ));
        }
        for tiers in &self.storage_tiers {
            if tiers.iter().any(|&t| !(t.is_finite() && t > 0.0)) {
                return bad(format!(
                    "storage tier multipliers must be positive and finite: {tiers:?}"
                ));
            }
        }
        Ok(())
    }

    /// The FNV-1a fingerprint of the canonical spec text — the anchor
    /// every cell seed derives from.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(spec::write_spec(self).as_bytes())
    }

    /// Expands the spec into its full cell grid in canonical order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when [`SweepSpec::validate`]
    /// rejects the spec.
    pub fn cells(&self) -> Result<Vec<Cell>, SimError> {
        self.validate()?;
        let fingerprint = self.fingerprint();
        let mut cells = Vec::with_capacity(self.num_cells());
        for &users in &self.users {
            for &capacity_gb in &self.capacity_gb {
                for tiers in &self.storage_tiers {
                    for &workload in &self.workloads {
                        for &policy in &self.policies {
                            for &granularity in &self.granularities {
                                for &control in &self.control {
                                    for &shards in &self.shards {
                                        for &faults in &self.faults {
                                            let index = cells.len();
                                            cells.push(Cell {
                                                index,
                                                seed: cell_seed(fingerprint, index),
                                                users,
                                                capacity_gb,
                                                tiers: tiers.clone(),
                                                workload,
                                                policy,
                                                granularity,
                                                control,
                                                shards,
                                                faults,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(cells)
    }

    /// The size of the full grid.
    pub fn num_cells(&self) -> usize {
        self.users.len()
            * self.capacity_gb.len()
            * self.storage_tiers.len()
            * self.workloads.len()
            * self.policies.len()
            * self.granularities.len()
            * self.control.len()
            * self.shards.len()
            * self.faults.len()
    }
}

/// Characters allowed in a sweep name (it prefixes artefact files).
fn is_name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '-' || c == '_'
}

/// One point of the grid: every axis pinned to a value, plus the
/// derived seed that makes the cell reproducible from the spec alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Position in canonical expansion order.
    pub index: usize,
    /// Derived seed: `fnv1a(fingerprint_le ‖ index_le)`.
    pub seed: u64,
    /// Number of users.
    pub users: usize,
    /// Per-server base capacity in GB.
    pub capacity_gb: f64,
    /// Storage-tier multipliers (empty = homogeneous).
    pub tiers: Vec<f64>,
    /// Workload family.
    pub workload: WorkloadFamily,
    /// Eviction policy.
    pub policy: PolicyKind,
    /// Fill granularity.
    pub granularity: FillGranularity,
    /// Control loop on/off.
    pub control: bool,
    /// Shard count.
    pub shards: usize,
    /// Fault injection on/off.
    pub faults: bool,
}

impl Cell {
    /// The spec-file rendering of the tier set (`flat` when empty).
    pub fn tiers_label(&self) -> String {
        spec::tiers_to_string(&self.tiers)
    }
}

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The seed of cell `index` under a spec fingerprint: FNV-1a over the
/// little-endian fingerprint followed by the little-endian index.
pub fn cell_seed(fingerprint: u64, index: usize) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&fingerprint.to_le_bytes());
    bytes[8..].copy_from_slice(&(index as u64).to_le_bytes());
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors_match_the_reference() {
        // Classic FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn cell_seeds_depend_on_fingerprint_and_index() {
        let a = cell_seed(1, 0);
        assert_ne!(a, cell_seed(1, 1));
        assert_ne!(a, cell_seed(2, 0));
        assert_eq!(a, cell_seed(1, 0));
    }

    #[test]
    fn expansion_is_canonical_and_sized() {
        let mut spec = SweepSpec::smoke();
        spec.users = vec![100, 200];
        spec.policies = vec![PolicyKind::Lru, PolicyKind::CostLfu];
        spec.shards = vec![1, 2];
        let cells = spec.cells().unwrap();
        assert_eq!(cells.len(), 8);
        assert_eq!(spec.num_cells(), 8);
        // Last axis fastest: shards toggles first, then policies, then users.
        assert_eq!(cells[0].shards, 1);
        assert_eq!(cells[1].shards, 2);
        assert_eq!(cells[0].policy, PolicyKind::Lru);
        assert_eq!(cells[2].policy, PolicyKind::CostLfu);
        assert_eq!(cells[0].users, 100);
        assert_eq!(cells[4].users, 200);
        // Indices are dense and seeds all distinct.
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.seed, cell_seed(spec.fingerprint(), i));
        }
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8);
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let ok = SweepSpec::smoke();
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.users = vec![];
        assert!(bad.cells().is_err());
        let mut bad = ok.clone();
        bad.users = vec![0];
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.duration_s = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.capacity_gb = vec![-1.0];
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.storage_tiers = vec![vec![1.0, 0.0]];
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.shards = vec![0];
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.name = "bad name!".into();
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.regional_grid = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn names_parse_and_round_trip() {
        for family in WorkloadFamily::all() {
            assert_eq!(WorkloadFamily::parse(family.name()).unwrap(), family);
        }
        assert!(WorkloadFamily::parse("tide").is_err());
        for policy in [PolicyKind::Lru, PolicyKind::Lfu, PolicyKind::CostLfu] {
            assert_eq!(PolicyKind::parse(policy.name()).unwrap(), policy);
        }
        assert!(PolicyKind::parse("mru").is_err());
        // Policy objects resolve to the advertised implementations.
        assert_eq!(PolicyKind::CostLfu.policy().name(), CostAwareLfu.name());
    }
}
