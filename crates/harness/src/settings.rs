//! Experiment sizing, the central `FT2_*` env-knob registry, and the
//! model × dataset evaluation grid.

use ft2_fault::{
    CampaignConfig, FaultDuration, FaultModel, FaultTarget, StepFilter, StepWeighting,
};
use ft2_model::{ModelSpec, ZooModel};
use ft2_tasks::{DatasetId, TaskSpec, TaskType};

/// Value shape of an env knob (drives the malformed-value warning and the
/// README documentation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KnobKind {
    /// Non-negative integer (`usize`/`u32`/`u64`).
    Integer,
    /// Floating-point number.
    Float,
    /// `=1` switch; any other value leaves the knob off.
    Flag,
    /// Filesystem path.
    Path,
    /// Free-form string (e.g. a socket address), taken verbatim.
    Text,
}

/// One row of the central env-knob registry: the single source of truth
/// for every `FT2_*` environment variable the workspace reads.
///
/// The `env-knob` lint (`ft2-repro lint`) enforces the contract from both
/// directions: every `FT2_*` string literal in the tree must resolve to a
/// row of this table, and every row must be read somewhere and documented
/// in README's knob table with the same default. Knobs consumed below the harness (`ft2-parallel`,
/// `ft2-tensor`, `ft2-model` cannot depend on this crate) keep their local
/// reads but are registered here with their reading crate in [`site`].
///
/// [`site`]: KnobSpec::site
#[derive(Clone, Copy, Debug)]
pub struct KnobSpec {
    /// The environment variable name.
    pub name: &'static str,
    /// Value shape.
    pub kind: KnobKind,
    /// Human-readable default (what happens when unset). README's knob
    /// table row must start with its first word.
    pub default: &'static str,
    /// One-line description (the README table row).
    pub doc: &'static str,
    /// The crate whose code reads the variable.
    pub site: &'static str,
}

/// The registry, sorted by name. Adding a knob anywhere in the workspace
/// without a row here fails `ft2-repro lint` (and `cargo test`).
pub const KNOB_REGISTRY: &[KnobSpec] = &[
    KnobSpec {
        name: "FT2_CHECKPOINT_DIR",
        kind: KnobKind::Path,
        default: "results/checkpoints",
        doc: "campaign checkpoint directory",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_CHECKPOINT_EVERY",
        kind: KnobKind::Integer,
        default: "off",
        doc: "checkpoint the campaign aggregate every N tasks (enables checkpointing)",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_INPUTS",
        kind: KnobKind::Integer,
        default: "12 (6 quick)",
        doc: "inputs per (model, dataset) pair",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_NO_SIMD",
        kind: KnobKind::Flag,
        default: "off",
        doc: "disable the AVX2+FMA matmul micro-kernel (portable fallback)",
        site: "ft2-tensor",
    },
    KnobSpec {
        name: "FT2_PROFILE_INPUTS",
        kind: KnobKind::Integer,
        default: "72",
        doc: "inputs for the baselines' offline bound profiling (their \"20% of training data\")",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_QUICK",
        kind: KnobKind::Flag,
        default: "off",
        doc: "smoke-test sizing: 6 inputs x 10 trials; bench smoke sizing",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_RECOVERY_REPAIR",
        kind: KnobKind::Flag,
        default: "off",
        doc: "after rollback exhaustion, take one repair-and-retry rung (state-repair sweep + re-decode)",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_RECOVERY_RETRIES",
        kind: KnobKind::Integer,
        default: "0 (recovery off)",
        doc: "token-rollback retry budget per decode step",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_REPLICAS",
        kind: KnobKind::Integer,
        default: "2",
        doc: "replicas in the `ft2-repro replicas` failover gate (min 2)",
        site: "ft2-serve",
    },
    KnobSpec {
        name: "FT2_REPLICA_BACKOFF_MS",
        kind: KnobKind::Integer,
        default: "1",
        doc: "base failover backoff in ms (exponential, deterministically jittered per request)",
        site: "ft2-serve",
    },
    KnobSpec {
        name: "FT2_REPLICA_QUARANTINE_ERRS",
        kind: KnobKind::Integer,
        default: "3",
        doc: "consecutive replica errors before the breaker quarantines it for rebuild",
        site: "ft2-serve",
    },
    KnobSpec {
        name: "FT2_REPLICA_RETRY_BUDGET",
        kind: KnobKind::Integer,
        default: "3",
        doc: "failovers per request before a typed FailoverBudgetExhausted rejection",
        site: "ft2-serve",
    },
    KnobSpec {
        name: "FT2_RESUME",
        kind: KnobKind::Flag,
        default: "off",
        doc: "resume compatible campaign checkpoints (same as `--resume`)",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_SCRUB_TILES_PER_STEP",
        kind: KnobKind::Integer,
        default: "0 (scrubbing off)",
        doc: "weight tiles the background integrity scrubber re-verifies per generation step",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_SEED",
        kind: KnobKind::Integer,
        default: "0xF72025",
        doc: "campaign master seed (all campaigns are bit-reproducible in it)",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_SERVE_MAX_BATCH",
        kind: KnobKind::Integer,
        default: "8",
        doc: "concurrent requests the serving scheduler batches per decode step",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_SERVE_QUEUE_DEPTH",
        kind: KnobKind::Integer,
        default: "64",
        doc: "bounded admission-queue depth; a full queue backpressures submitters",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_SHARDS",
        kind: KnobKind::Integer,
        default: "1 (unsharded)",
        doc: "fault-isolation shards the `shards` sweep partitions each model across",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_SHARD_HEARTBEAT_MS",
        kind: KnobKind::Integer,
        default: "50",
        doc: "per-shard heartbeat timeout in ms before a hung shard is cancelled (0 or negative disables the watchdog)",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_STORM_THRESHOLD",
        kind: KnobKind::Integer,
        default: "16",
        doc: "corrections per decode step that escalate an anomaly verdict to a storm",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_THREADS",
        kind: KnobKind::Integer,
        default: "hardware parallelism",
        doc: "worker threads of the work-stealing pool",
        site: "ft2-parallel",
    },
    KnobSpec {
        name: "FT2_TIE_ALPHA",
        kind: KnobKind::Float,
        default: "0.5",
        doc: "LM-head weight-tying mix of the synthetic checkpoints (1.0 = fully tied)",
        site: "ft2-model",
    },
    KnobSpec {
        name: "FT2_TRIALS",
        kind: KnobKind::Integer,
        default: "30 (10 quick)",
        doc: "fault-injection trials per input",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_TRIAL_DEADLINE_MS",
        kind: KnobKind::Integer,
        default: "off",
        doc: "per-trial wall-clock watchdog in ms (Hang/DUE; not bit-reproducible)",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_TRIAL_TOKEN_BUDGET",
        kind: KnobKind::Integer,
        default: "off",
        doc: "per-trial generation-step watchdog (deterministic abort)",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_WEB_ADDR",
        kind: KnobKind::Text,
        default: "127.0.0.1:8472",
        doc: "bind address of the `serve --web` HTTP/SSE endpoint (port 0 = ephemeral)",
        site: "ft2-harness",
    },
    KnobSpec {
        name: "FT2_WEB_MAX_CLIENTS",
        kind: KnobKind::Integer,
        default: "16",
        doc: "concurrent SSE clients of the `serve --web` event stream (extras get 503)",
        site: "ft2-harness",
    },
];

/// Look up a knob's registry row; panics on an unregistered name so that a
/// harness read bypassing the registry cannot survive `cargo test`.
pub fn knob_spec(name: &str) -> &'static KnobSpec {
    KNOB_REGISTRY
        .iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| {
            panic!("env knob {name} is not in the registry (crates/harness/src/settings.rs)")
        })
}

/// Global experiment sizing, overridable from the environment:
///
/// * `FT2_INPUTS`  — inputs per (model, dataset) pair (default 12);
/// * `FT2_TRIALS`  — fault-injection trials per input (default 30);
/// * `FT2_SEED`    — campaign master seed;
/// * `FT2_QUICK=1` — smoke-test sizing (6 inputs × 10 trials);
/// * `FT2_TRIAL_DEADLINE_MS`   — per-trial wall-clock watchdog (DUE/Hang);
/// * `FT2_TRIAL_TOKEN_BUDGET`  — per-trial generation-step watchdog;
/// * `FT2_RECOVERY_RETRIES`    — token-rollback retry budget per decode
///   step (default 0 = recovery disabled);
/// * `FT2_STORM_THRESHOLD`    — corrections per decode step that escalate
///   an anomaly verdict to a storm (default: library default);
/// * `FT2_SCRUB_TILES_PER_STEP` — weight tiles the integrity scrubber
///   re-verifies per decode step (default 0 = scrubbing off);
/// * `FT2_RECOVERY_REPAIR=1`   — take a repair-and-retry rung after the
///   rollback retry budget is exhausted;
/// * `FT2_SHARDS`              — fault-isolation shards for the sharded
///   sweep (default 1 = unsharded);
/// * `FT2_SHARD_HEARTBEAT_MS`  — per-shard heartbeat timeout (default 50;
///   0 or negative disables the watchdog with a warning).
///
/// A knob that is set but malformed (empty, negative, non-numeric) is
/// ignored with a warning on stderr — it never panics and never silently
/// enables a watchdog.
///
/// The defaults regenerate every figure in minutes on a laptop core. The
/// paper's campaign (50 inputs × 500 trials, 11M injections) is
/// `FT2_INPUTS=50 FT2_TRIALS=500` — identical methodology, wider CIs at
/// the defaults.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// Inputs sampled per (model, dataset) pair.
    pub inputs: usize,
    /// Trials per input.
    pub trials: usize,
    /// Generated tokens for QA tasks (the paper's 60, scaled to the
    /// simulator models).
    pub gen_qa: usize,
    /// Generated tokens for math tasks (the paper's 180, scaled).
    pub gen_math: usize,
    /// Inputs used for offline bound profiling (the baselines' "20% of the
    /// training set", scaled). Must be large enough to cover the rare
    /// "spike" tokens of the vocabulary, else the baselines suffer the
    /// Fig. 3 bound-transfer degradation on their own dataset.
    pub profile_inputs: usize,
    /// Campaign master seed.
    pub seed: u64,
    /// Per-trial wall-clock watchdog deadline in milliseconds (None = off).
    /// Trials over budget are classified as Hang (DUE); wall-clock aborts
    /// are not bit-reproducible across machines.
    pub trial_deadline_ms: Option<u64>,
    /// Per-trial generation-step watchdog budget (None = off). Unlike the
    /// deadline, this abort is deterministic.
    pub trial_token_budget: Option<usize>,
    /// Token-rollback retry budget per decode step (0 = recovery off).
    pub recovery_retries: u32,
    /// Override for the anomaly-storm clamp threshold (None = the
    /// `ft2-core` default).
    pub storm_threshold: Option<u64>,
    /// Weight tiles the integrity scrubber re-verifies per decode step
    /// (0 = scrubbing off).
    pub scrub_tiles_per_step: usize,
    /// Take a repair-and-retry rung after rollback exhaustion.
    pub recovery_repair: bool,
    /// Fault-isolation shards for the sharded-execution sweep (1 =
    /// unsharded).
    pub shards: usize,
    /// Per-shard heartbeat timeout in milliseconds.
    pub shard_heartbeat_ms: u64,
}

/// Human-readable "expected …" description for a knob's target type. The
/// warning below used to claim "a non-negative integer" for *every* knob,
/// which was wrong the moment a float- or string-valued knob reused
/// `parse_knob`.
fn expected_kind<T>() -> &'static str {
    let ty = std::any::type_name::<T>();
    match ty {
        "u8" | "u16" | "u32" | "u64" | "u128" | "usize" => "a non-negative integer",
        "i8" | "i16" | "i32" | "i64" | "i128" | "isize" => "an integer",
        "f32" | "f64" => "a number",
        "bool" => "true or false",
        _ => ty,
    }
}

/// Parse one knob value. A malformed value (empty, out-of-range,
/// non-numeric) warns on stderr and returns `None` — the knob falls back to
/// its default instead of panicking or being silently misread.
fn parse_knob<T: std::str::FromStr>(name: &str, raw: &str) -> Option<T> {
    match raw.trim().parse::<T>() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!(
                "warning: ignoring malformed {name}={raw:?} (expected {}); using the default",
                expected_kind::<T>()
            );
            None
        }
    }
}

pub(crate) fn env_knob<T: std::str::FromStr>(name: &str) -> Option<T> {
    let _ = knob_spec(name); // every harness read goes through the registry
    std::env::var(name).ok().and_then(|v| parse_knob(name, &v))
}

pub(crate) fn env_usize(name: &str) -> Option<usize> {
    env_knob(name)
}

/// A registered `=1` flag knob: `1` turns it on, anything else is off.
pub(crate) fn env_flag(name: &str) -> bool {
    let _ = knob_spec(name);
    std::env::var(name).is_ok_and(|v| v == "1")
}

/// A registered path-valued knob.
pub(crate) fn env_path(name: &str) -> Option<std::path::PathBuf> {
    let _ = knob_spec(name);
    std::env::var(name).ok().map(std::path::PathBuf::from)
}

/// A registered string-valued knob, taken verbatim (no parsing to fail).
pub(crate) fn env_string(name: &str) -> Option<String> {
    let _ = knob_spec(name);
    std::env::var(name).ok()
}

/// Whether `FT2_QUICK=1` smoke-test sizing is in effect.
pub(crate) fn quick_mode() -> bool {
    env_flag("FT2_QUICK")
}

impl Default for Settings {
    fn default() -> Self {
        Settings::from_env()
    }
}

impl Settings {
    /// Defaults with environment overrides applied.
    pub fn from_env() -> Settings {
        let (inputs, trials) = if quick_mode() { (6, 10) } else { (12, 30) };
        Settings {
            inputs: env_usize("FT2_INPUTS").unwrap_or(inputs),
            trials: env_usize("FT2_TRIALS").unwrap_or(trials),
            gen_qa: 16,
            gen_math: 36,
            profile_inputs: env_usize("FT2_PROFILE_INPUTS").unwrap_or(72),
            seed: env_knob("FT2_SEED").unwrap_or(0xF7_2025),
            trial_deadline_ms: env_knob("FT2_TRIAL_DEADLINE_MS"),
            trial_token_budget: env_usize("FT2_TRIAL_TOKEN_BUDGET"),
            recovery_retries: env_knob("FT2_RECOVERY_RETRIES").unwrap_or(0),
            storm_threshold: env_knob("FT2_STORM_THRESHOLD"),
            scrub_tiles_per_step: env_usize("FT2_SCRUB_TILES_PER_STEP").unwrap_or(0),
            recovery_repair: env_flag("FT2_RECOVERY_REPAIR"),
            shards: env_usize("FT2_SHARDS").unwrap_or(1).max(1),
            // Parsed as i64 so that an explicit negative value reads as
            // "disable the watchdog" (0) rather than tripping the malformed
            // warning and silently re-enabling the 50 ms default.
            shard_heartbeat_ms: match env_knob::<i64>("FT2_SHARD_HEARTBEAT_MS") {
                Some(ms) if ms <= 0 => {
                    eprintln!(
                        "warning: FT2_SHARD_HEARTBEAT_MS={ms} disables the shard hang watchdog"
                    );
                    0
                }
                Some(ms) => ms as u64,
                None => 50,
            },
        }
    }

    /// Generation length for a task type.
    pub fn gen_tokens(&self, task: TaskType) -> usize {
        match task {
            TaskType::Qa => self.gen_qa,
            TaskType::Math => self.gen_math,
        }
    }

    /// The [`TaskSpec`] (answer span + judge) for a dataset.
    pub fn task_spec(&self, dataset: DatasetId) -> TaskSpec {
        let t = dataset.task_type();
        TaskSpec::new(t, self.gen_tokens(t))
    }

    /// Campaign configuration for a dataset and fault model.
    pub fn campaign(&self, dataset: DatasetId, fault_model: FaultModel) -> CampaignConfig {
        CampaignConfig {
            seed: self.seed,
            trials_per_input: self.trials,
            gen_tokens: self.gen_tokens(dataset.task_type()),
            fault_model,
            fault_duration: FaultDuration::Transient,
            fault_target: FaultTarget::Activation,
            step_filter: StepFilter::AllSteps,
            step_weighting: StepWeighting::default(),
            layer_filter: None,
            trial_deadline_ms: self.trial_deadline_ms,
            trial_token_budget: self.trial_token_budget,
            recovery_retries: self.recovery_retries,
            recovery_repair: self.recovery_repair,
        }
    }
}

/// Campaign checkpoint/resume behaviour, overridable from the environment:
///
/// * `FT2_CHECKPOINT_EVERY` — persist the campaign aggregate every N tasks
///   (enables checkpointing; unset = off unless resuming);
/// * `FT2_CHECKPOINT_DIR`   — checkpoint directory (default
///   `results/checkpoints`);
/// * `FT2_RESUME=1`         — resume compatible checkpoints (the
///   `ft2-repro --resume` flag sets this too).
///
/// Checkpoint files are keyed by a fingerprint of the campaign config and
/// reference generations, so a resumed run is bit-identical to an
/// uninterrupted one and incompatible checkpoints are never merged.
#[derive(Clone, Debug)]
pub struct Resilience {
    /// Checkpoint cadence in tasks (None = checkpointing off unless
    /// `resume` is set).
    pub checkpoint_every: Option<usize>,
    /// Directory for checkpoint files.
    pub checkpoint_dir: std::path::PathBuf,
    /// Resume compatible checkpoints found in `checkpoint_dir`.
    pub resume: bool,
}

impl Default for Resilience {
    fn default() -> Self {
        Resilience::from_env()
    }
}

impl Resilience {
    /// Defaults with environment overrides applied.
    pub fn from_env() -> Resilience {
        Resilience {
            checkpoint_every: env_usize("FT2_CHECKPOINT_EVERY"),
            checkpoint_dir: env_path("FT2_CHECKPOINT_DIR")
                .unwrap_or_else(|| std::path::PathBuf::from("results/checkpoints")),
            resume: env_flag("FT2_RESUME"),
        }
    }

    /// Whether campaigns should run through the checkpointing path.
    pub fn enabled(&self) -> bool {
        self.checkpoint_every.is_some() || self.resume
    }

    /// Checkpoint cadence (defaults to 256 tasks when only `resume` is on).
    pub fn cadence(&self) -> usize {
        self.checkpoint_every.unwrap_or(256).max(1)
    }
}

/// The paper's evaluation grid (Fig. 13): every model on both QA datasets,
/// plus GSM8K for the two math-capable models (16 pairs).
pub fn evaluation_grid() -> Vec<(ModelSpec, DatasetId)> {
    let mut pairs = Vec::new();
    for m in ZooModel::ALL {
        let spec = m.spec();
        let math = spec.supports_math.then_some(DatasetId::Gsm8k);
        for ds in [Some(DatasetId::Squad), Some(DatasetId::Xtreme), math]
            .into_iter()
            .flatten()
        {
            pairs.push((spec.clone(), ds));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_sixteen_pairs() {
        let grid = evaluation_grid();
        assert_eq!(grid.len(), 16);
        let math: Vec<String> = grid
            .iter()
            .filter(|(_, dataset)| *dataset == DatasetId::Gsm8k)
            .map(|(model, _)| model.name().to_string())
            .collect();
        assert_eq!(math, vec!["Llama2-7B", "Qwen2-7B"]);
    }

    #[test]
    fn settings_tokens_per_task() {
        let s = Settings {
            inputs: 1,
            trials: 1,
            gen_qa: 16,
            gen_math: 36,
            profile_inputs: 4,
            seed: 1,
            trial_deadline_ms: None,
            trial_token_budget: None,
            recovery_retries: 0,
            storm_threshold: None,
            scrub_tiles_per_step: 0,
            recovery_repair: false,
            shards: 1,
            shard_heartbeat_ms: 50,
        };
        assert_eq!(s.gen_tokens(TaskType::Qa), 16);
        assert_eq!(s.gen_tokens(TaskType::Math), 36);
        assert_eq!(
            s.campaign(DatasetId::Gsm8k, FaultModel::SingleBit)
                .gen_tokens,
            36
        );
        assert_eq!(
            s.campaign(DatasetId::Squad, FaultModel::SingleBit)
                .gen_tokens,
            16
        );
    }

    #[test]
    fn settings_wire_recovery_into_campaigns() {
        let s = Settings {
            inputs: 1,
            trials: 1,
            gen_qa: 16,
            gen_math: 36,
            profile_inputs: 4,
            seed: 1,
            trial_deadline_ms: None,
            trial_token_budget: None,
            recovery_retries: 3,
            storm_threshold: Some(8),
            scrub_tiles_per_step: 8,
            recovery_repair: true,
            shards: 2,
            shard_heartbeat_ms: 25,
        };
        let cfg = s.campaign(DatasetId::Squad, FaultModel::ExponentBit);
        assert_eq!(cfg.recovery_retries, 3);
        assert!(cfg.recovery_repair);
        assert_eq!(cfg.fault_duration, FaultDuration::Transient);
        assert_eq!(cfg.fault_target, FaultTarget::Activation);
    }

    #[test]
    fn malformed_watchdog_knobs_fall_back_to_disabled() {
        // Empty, negative, and non-numeric values must all be rejected
        // (with a stderr warning, exercised here only for no-panic) and
        // leave the watchdogs disabled.
        for raw in ["", "-5", "twelve", "1e3", "0x10", " "] {
            assert_eq!(
                parse_knob::<u64>("FT2_TRIAL_DEADLINE_MS", raw),
                None,
                "value {raw:?} should be rejected"
            );
            assert_eq!(parse_knob::<usize>("FT2_TRIAL_TOKEN_BUDGET", raw), None);
            assert_eq!(parse_knob::<u32>("FT2_RECOVERY_RETRIES", raw), None);
        }
    }

    #[test]
    fn knob_warnings_name_the_expected_type() {
        // The warning text must match the knob's type, not hardcode
        // "non-negative integer" for everything.
        assert_eq!(expected_kind::<u64>(), "a non-negative integer");
        assert_eq!(expected_kind::<usize>(), "a non-negative integer");
        assert_eq!(expected_kind::<i32>(), "an integer");
        assert_eq!(expected_kind::<f64>(), "a number");
        assert_eq!(expected_kind::<f32>(), "a number");
        assert_eq!(expected_kind::<bool>(), "true or false");
        // Unknown types fall back to the type name rather than lying.
        assert!(expected_kind::<String>().contains("String"));
    }

    #[test]
    fn registry_is_sorted_and_unique() {
        let names: Vec<&str> = KNOB_REGISTRY.iter().map(|k| k.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            names, sorted,
            "KNOB_REGISTRY must be sorted by name, no duplicates"
        );
        assert!(names.iter().all(|n| n.starts_with("FT2_")));
    }

    #[test]
    fn registry_docs_and_defaults_are_filled_in() {
        for k in KNOB_REGISTRY {
            assert!(!k.doc.is_empty(), "{} has no doc line", k.name);
            assert!(!k.default.is_empty(), "{} has no default", k.name);
            assert!(!k.site.is_empty(), "{} has no reading site", k.name);
        }
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unregistered_reads_panic() {
        // Assembled at runtime so the env-knob lint (which checks FT2_*
        // string literals against the registry) does not see a knob here.
        let name = format!("FT2_{}", "NOT_A_REAL_KNOB");
        let _ = env_usize(&name);
    }

    #[test]
    fn negative_heartbeat_parses_as_disable_not_malformed() {
        // The heartbeat knob is parsed as i64 precisely so that an explicit
        // negative "disable" value is accepted (and mapped to 0) instead of
        // failing the u64 parse and re-enabling the 50 ms default.
        assert_eq!(parse_knob::<i64>("FT2_SHARD_HEARTBEAT_MS", "-5"), Some(-5));
        assert_eq!(parse_knob::<i64>("FT2_SHARD_HEARTBEAT_MS", "0"), Some(0));
        assert_eq!(parse_knob::<i64>("FT2_SHARD_HEARTBEAT_MS", "50"), Some(50));
        assert_eq!(parse_knob::<i64>("FT2_SHARD_HEARTBEAT_MS", "ten"), None);
    }

    #[test]
    fn wellformed_knobs_parse_with_surrounding_whitespace() {
        assert_eq!(parse_knob::<u64>("FT2_TRIAL_DEADLINE_MS", "250"), Some(250));
        assert_eq!(
            parse_knob::<usize>("FT2_TRIAL_TOKEN_BUDGET", " 64 "),
            Some(64)
        );
        assert_eq!(parse_knob::<u32>("FT2_RECOVERY_RETRIES", "2"), Some(2));
        assert_eq!(parse_knob::<u64>("FT2_STORM_THRESHOLD", "8"), Some(8));
        assert_eq!(parse_knob::<usize>("FT2_TRIAL_TOKEN_BUDGET", "0"), Some(0));
    }
}
