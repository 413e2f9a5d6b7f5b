//! Simulation harness reproducing the TrimCaching evaluation.
//!
//! This crate turns the substrates (`trimcaching-wireless`,
//! `trimcaching-modellib`, `trimcaching-scenario`) and the algorithms
//! (`trimcaching-placement`) into the experiments of Section VII of the
//! paper:
//!
//! * [`topology`] — random network topologies per Section VII-A, and
//!   city-scale Poisson deployments;
//! * [`montecarlo`] — averaging over topologies and Rayleigh fading
//!   realisations, in parallel on the runtime's worker pool;
//! * [`experiments`] — one driver per figure (Figs. 1, 4, 5, 6, 7),
//!   ablation studies, and the serving studies that drive
//!   `trimcaching-runtime` (eviction policies, online re-placement,
//!   durable runs, fault injection, region sharding);
//! * [`sweep`] — declarative parameter grids served cell by cell, with
//!   artefacts byte-identical for any worker count;
//! * [`report`] — tables with Markdown/CSV rendering, as printed by the
//!   `trimcaching-sim` binary and recorded in `EXPERIMENTS.md`;
//! * [`error`] — the crate's error type.
//!
//! # Example
//!
//! ```no_run
//! use trimcaching_sim::experiments::{fig4, RunConfig};
//!
//! let config = RunConfig::reduced();
//! let table = fig4::capacity_sweep(&config).expect("experiment runs");
//! println!("{}", table.to_markdown());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod experiments;
pub mod montecarlo;
pub mod report;
pub mod sweep;
pub mod topology;

pub use error::SimError;
pub use montecarlo::{evaluate_algorithms, AlgorithmSamples, MonteCarloConfig};
pub use report::{ComparisonTable, ExperimentTable, Measurement};
pub use sweep::{run_sweep, Cell, PolicyKind, SweepReport, SweepSpec, WorkloadFamily};
pub use topology::{CityScaleConfig, TopologyConfig};
