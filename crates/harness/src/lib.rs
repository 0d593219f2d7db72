#![warn(missing_docs)]
//! # ft2-harness
//!
//! The reproduction harness: one campaign runner with a sweep spec per
//! campaign figure, a small body per figure that is not a campaign, and
//! plain-text/CSV report writers. The `ft2-repro` binary (in `src/bin`)
//! exposes each experiment of [`experiments::ALL`] as a subcommand;
//! `ft2-repro all` regenerates everything and writes CSV artifacts under
//! `results/`. The `serve`, `shards` and `replicas`
//! subcommands are correctness gates ([`GATES`]); they measure nothing —
//! that is `benchmark/`'s job.
//!
//! Experiment sizes default to a few minutes of CPU time and scale up via
//! `FT2_INPUTS` / `FT2_TRIALS` (see [`Settings`]). All campaigns are
//! deterministic in `FT2_SEED`.

pub mod experiments;
pub mod lint;
pub mod replicas;
pub mod report;
pub mod serve;
pub mod settings;
pub mod shards;
pub mod webserve;

pub use report::{format_pct, gate_passes, gate_table, Check, Csv, Table};

/// A correctness gate: runs its drills on the pool (CI-sized when the flag
/// is set) and returns one [`Check`] per guarantee.
pub type Gate = fn(&ft2_parallel::WorkStealingPool, bool) -> Vec<Check>;

/// The gates behind `ft2-repro serve|shards|replicas`, by subcommand name.
pub const GATES: [(&str, Gate); 3] = [
    ("serve", serve::run),
    ("shards", shards::run),
    ("replicas", replicas::run),
];
pub use settings::{knob_names, KnobKind, KnobSpec, Resilience, Settings, KNOB_REGISTRY};
