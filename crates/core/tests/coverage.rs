//! The protection-coverage proof: static cross-checks over the seven zoo
//! models, the outcome taxonomy, and the checkpoint format — none of which
//! execute a model forward pass.
//!
//! **Critical-layer coverage.** For each zoo config the Fig. 1a/1b
//! classifier ([`CriticalityReport`]) derives the critical set from the
//! architecture graph; the check then instantiates the FT2
//! [`SchemeFactory`] tap set for that config and *probes* it: benign
//! outputs at step 0 (bound profiling), then a huge out-of-range value at
//! step 1 through every `(block, layer)` linear hook point. A critical
//! layer whose probe value survives unclamped has no registered clamp tap
//! (an unprotected gap); a non-critical layer whose probe is clamped marks
//! over-protection (selective protection is FT2's overhead claim). The
//! probe drives the real tap objects through the real `LayerTap`
//! interface, so a wiring regression anywhere between `Scheme::coverage`
//! and `Protector::on_output` is caught — without generating a single
//! token.
//!
//! **Outcome pricing.** Every [`Outcome`] variant must map to a finite,
//! positive cost expression in the [`CostModel`]. The mapping below is an
//! exhaustive `match` with no wildcard arm: adding an outcome variant
//! breaks this test's build until a pricing rule is chosen.
//!
//! **Checkpoint versions.** Exactly one version parses: a real
//! checkpoint document with its header version swapped for each of
//! `0..=CHECKPOINT_VERSION + 1` must be accepted at `CHECKPOINT_VERSION`
//! only, so older and future files are rejected rather than misread.
//!
//! The rendered report is fully deterministic (static model configs, the
//! analytic cost model, no wall-clock anywhere), so it is compared with
//! `tests/snapshots/coverage.txt` byte for byte.

use ft2_core::{CriticalityReport, Scheme, SchemeFactory, TILE_ELEMS};
use ft2_fault::{
    CampaignCheckpoint, CampaignResult, Outcome, ProtectionFactory, CHECKPOINT_VERSION,
};
use ft2_hw::{CostModel, WorkloadShape, A100};
use ft2_model::{model_zoo, HookKind, ModelSpec, TapCtx, TapPoint};
use ft2_tensor::Matrix;
use std::fmt::Write as _;

const SNAPSHOT: &str = include_str!("snapshots/coverage.txt");

/// Prompt length used for representative pricing.
const PRICE_PROMPT: usize = 64;
/// Generated tokens used for representative pricing (the paper's QA 60).
const PRICE_GEN: usize = 60;
/// The out-of-range probe value (far beyond any 2×-scaled step-0 bound).
const PROBE_VALUE: f32 = 1.0e9;
/// Shard count assumed when pricing a degrade re-partition.
const DEGRADE_PRICE_SHARDS: usize = 4;
/// Corrupt weight-tile fraction assumed when pricing a replica rebuild.
const REBUILD_PRICE_CORRUPT: f64 = 0.01;

/// Coverage result for one zoo model.
#[derive(Debug)]
struct ModelCoverage {
    model: String,
    style: String,
    blocks: usize,
    /// Critical layer kinds per the structural classifier.
    critical: Vec<&'static str>,
    /// Does the classifier agree with the paper's Table 1?
    matches_table1: bool,
    /// `(block, layer)` hook points probed.
    probes: usize,
    /// Critical hook points whose probe value was NOT clamped.
    unprotected: Vec<String>,
    /// Non-critical hook points whose probe value WAS clamped.
    over_protected: Vec<String>,
}

impl ModelCoverage {
    /// Exact coverage: Table 1 agreement, no gaps, no over-protection.
    fn ok(&self) -> bool {
        self.matches_table1
            && !self.critical.is_empty()
            && self.unprotected.is_empty()
            && self.over_protected.is_empty()
    }
}

/// One outcome variant's pricing rule and representative cost.
#[derive(Debug)]
struct OutcomePricing {
    variant: &'static str,
    /// Pricing-rule name (stable, documented in DESIGN.md §3f).
    rule: &'static str,
    /// Representative seconds on the A100 model at OPT-6.7B paper scale.
    seconds: f64,
    /// Finite and positive on every zoo shape?
    priced: bool,
}

/// Checkpoint-format version probes.
#[derive(Debug)]
struct CheckpointReport {
    /// The version this tree writes.
    current: u64,
    /// Versions accepted by the parser (probed `0..=current+1`).
    accepted: Vec<u64>,
    /// Documents newer than this binary are rejected, not misread.
    rejects_future: bool,
}

/// Probe one model's FT2 tap set through every `(block, layer)` hook point.
fn probe_model(spec: &ModelSpec) -> ModelCoverage {
    let config = &spec.config;
    let report = CriticalityReport::analyse(config);
    let critical = report.critical();
    let factory = SchemeFactory::new(Scheme::Ft2, config, None);
    let mut taps = factory.make();

    let ctx_at = |block: usize, layer, step: usize| TapCtx {
        point: TapPoint { block, layer },
        hook: HookKind::LinearOutput,
        step,
        first_pos: if step == 0 { 0 } else { PRICE_PROMPT },
        dtype: config.dtype,
    };

    // Step 0 (first-token profiling): benign outputs at every hook point.
    for block in 0..config.blocks {
        for &kind in config.block_layers() {
            let ctx = ctx_at(block, kind, 0);
            let mut out = Matrix::from_vec(1, 2, vec![-1.0, 1.0]);
            for tap in taps.iter_mut() {
                tap.on_output(&ctx, &mut out);
            }
        }
    }
    for tap in taps.iter_mut() {
        tap.end_step(0);
    }

    // Step 1: inject an out-of-range probe at every hook point; exactly
    // the critical set must clamp it.
    let mut probes = 0usize;
    let mut unprotected = Vec::new();
    let mut over_protected = Vec::new();
    for block in 0..config.blocks {
        for &kind in config.block_layers() {
            probes += 1;
            let ctx = ctx_at(block, kind, 1);
            let mut out = Matrix::from_vec(1, 2, vec![PROBE_VALUE, 0.5]);
            for tap in taps.iter_mut() {
                tap.on_output(&ctx, &mut out);
            }
            let clamped = out.get(0, 0).abs() < PROBE_VALUE;
            let is_critical = critical.contains(&kind);
            let label = format!("block{}/{}", block, kind.name());
            if is_critical && !clamped {
                unprotected.push(label);
            } else if !is_critical && clamped {
                over_protected.push(label);
            }
        }
    }

    ModelCoverage {
        model: spec.name().to_string(),
        style: format!("{:?}", config.style),
        blocks: config.blocks,
        critical: critical.iter().map(|k| k.name()).collect(),
        matches_table1: report.matches_table1(),
        probes,
        unprotected,
        over_protected,
    }
}

/// One sample of every outcome variant, in taxonomy order.
fn sample_outcomes() -> Vec<Outcome> {
    vec![
        Outcome::MaskedIdentical,
        Outcome::MaskedSemantic,
        Outcome::Sdc,
        Outcome::Crash {
            site: "probe".to_string(),
            message: "probe".to_string(),
        },
        Outcome::Hang,
        Outcome::Recovered { retries: 1 },
        Outcome::Repaired { repairs: 1 },
        Outcome::RecoveryFailed { retries: 1 },
        Outcome::Degraded { shards_lost: 1 },
        Outcome::FailedOver { failovers: 1 },
    ]
}

/// Price one outcome on one workload shape.
///
/// The `match` is deliberately exhaustive (no `_` arm): a new [`Outcome`]
/// variant fails to compile here until it is given a pricing rule.
fn price(
    outcome: &Outcome,
    cost: &CostModel,
    shape: &WorkloadShape,
) -> (&'static str, &'static str, f64) {
    let gen = cost.generation_time(shape, PRICE_PROMPT, PRICE_GEN);
    let base = gen.total_s();
    let protected = base * (1.0 + cost.protection_overhead(shape, PRICE_PROMPT, PRICE_GEN));
    let rollback = cost.rollback_time(shape, PRICE_PROMPT + PRICE_GEN);
    match outcome {
        Outcome::MaskedIdentical => ("MaskedIdentical", "protected-generation", protected),
        Outcome::MaskedSemantic => ("MaskedSemantic", "protected-generation", protected),
        Outcome::Sdc => ("Sdc", "protected-generation", protected),
        Outcome::Crash { .. } => (
            "Crash",
            "truncated-generation",
            gen.prefill_s + 0.5 * gen.decode_s,
        ),
        Outcome::Hang => ("Hang", "watchdog-bounded-generation", protected),
        Outcome::Recovered { retries } => (
            "Recovered",
            "generation-plus-rollbacks",
            protected + f64::from(*retries) * rollback,
        ),
        Outcome::Repaired { repairs } => (
            "Repaired",
            "generation-plus-repair-scrub",
            protected + *repairs as f64 * cost.scrub_time(shape, 1, TILE_ELEMS),
        ),
        Outcome::RecoveryFailed { retries } => (
            "RecoveryFailed",
            "rollback-budget-exhausted",
            protected + f64::from(*retries) * rollback,
        ),
        Outcome::Degraded { shards_lost } => (
            "Degraded",
            "generation-plus-repartitions",
            protected
                + f64::from(*shards_lost) * cost.repartition_time(shape, DEGRADE_PRICE_SHARDS - 1),
        ),
        Outcome::FailedOver { failovers } => (
            "FailedOver",
            "generation-plus-handoff-and-rebuild",
            protected
                + f64::from(*failovers)
                    * (cost.failover_time(shape, PRICE_PROMPT, PRICE_GEN / 2)
                        + cost.rebuild_time(shape, REBUILD_PRICE_CORRUPT)),
        ),
    }
}

/// Price every variant on every zoo shape; report representative seconds
/// for the first shape and validity across all of them.
fn price_outcomes(zoo: &[ModelSpec]) -> Vec<OutcomePricing> {
    let cost = CostModel::new(A100);
    let shapes: Vec<WorkloadShape> = zoo.iter().map(WorkloadShape::from_spec).collect();
    sample_outcomes()
        .iter()
        .map(|outcome| {
            let (variant, rule, seconds) = price(outcome, &cost, &shapes[0]);
            let priced = shapes.iter().all(|shape| {
                let (_, _, s) = price(outcome, &cost, shape);
                s.is_finite() && s > 0.0
            });
            OutcomePricing {
                variant,
                rule,
                seconds,
                priced,
            }
        })
        .collect()
}

/// Probe checkpoint-version acceptance through the real serializer: swap
/// the version at the end of the header line and parse.
fn probe_checkpoints() -> CheckpointReport {
    let doc = CampaignCheckpoint {
        fingerprint: "analyze-probe".to_string(),
        completed_tasks: 7,
        result: CampaignResult::default(),
    }
    .to_text();
    let (head, body) = doc.split_once('\n').expect("a header line");
    let stem = head
        .strip_suffix(&CHECKPOINT_VERSION.to_string())
        .expect("the header ends with the version");
    let accepted: Vec<u64> = (0..=CHECKPOINT_VERSION + 1)
        .filter(|v| CampaignCheckpoint::parse(&format!("{stem}{v}\n{body}")).is_ok())
        .collect();
    CheckpointReport {
        current: CHECKPOINT_VERSION,
        rejects_future: !accepted.contains(&(CHECKPOINT_VERSION + 1)),
        accepted,
    }
}

/// The report the snapshot holds.
fn render(models: &[ModelCoverage], outcomes: &[OutcomePricing], ck: &CheckpointReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "protection coverage ({} models, {} probes):",
        models.len(),
        models.iter().map(|m| m.probes).sum::<usize>()
    );
    for m in models {
        let _ = writeln!(
            s,
            "  {:<12} {:<10} {} blocks  critical [{}]  table1 {}  gaps {}  over {}",
            m.model,
            m.style,
            m.blocks,
            m.critical.join(" "),
            if m.matches_table1 { "ok" } else { "MISMATCH" },
            m.unprotected.len(),
            m.over_protected.len()
        );
        for gap in &m.unprotected {
            let _ = writeln!(s, "    UNPROTECTED critical layer: {gap}");
        }
        for over in &m.over_protected {
            let _ = writeln!(s, "    over-protected layer: {over}");
        }
    }
    let _ = writeln!(s, "outcome pricing ({} variants):", outcomes.len());
    for o in outcomes {
        let _ = writeln!(
            s,
            "  {:<16} {:<28} {:>12.6}s {}",
            o.variant,
            o.rule,
            o.seconds,
            if o.priced { "" } else { "UNPRICED" }
        );
    }
    let _ = writeln!(
        s,
        "checkpoint versions: current {} accepted {:?} rejects-future {}",
        ck.current, ck.accepted, ck.rejects_future
    );
    s
}

fn models() -> Vec<ModelCoverage> {
    model_zoo().iter().map(probe_model).collect()
}

#[test]
fn all_seven_models_prove_exact_coverage() {
    let models = models();
    assert_eq!(models.len(), 7);
    assert_eq!(models.iter().map(|m| m.probes).sum::<usize>(), 177);
    for m in &models {
        assert!(m.ok(), "coverage gap in {}: {m:?}", m.model);
        assert!(m.probes >= m.blocks * 6);
    }
}

#[test]
fn every_outcome_variant_is_priced() {
    let outcomes = price_outcomes(&model_zoo());
    assert_eq!(outcomes.len(), 10);
    for o in &outcomes {
        assert!(o.priced, "{o:?}");
        assert!(o.seconds.is_finite() && o.seconds > 0.0, "{o:?}");
    }
    // Recovery costs strictly more than the plain protected run.
    let by_name = |n: &str| outcomes.iter().find(|o| o.variant == n).unwrap();
    assert!(by_name("Recovered").seconds > by_name("MaskedIdentical").seconds);
    assert!(by_name("Repaired").seconds > by_name("MaskedIdentical").seconds);
    assert!(by_name("Degraded").seconds > by_name("MaskedIdentical").seconds);
    assert!(by_name("FailedOver").seconds > by_name("MaskedIdentical").seconds);
}

#[test]
fn checkpoint_versions_probe_as_specified() {
    let ck = probe_checkpoints();
    assert!(ck.rejects_future, "{ck:?}");
    // Only the line format reads; the JSON versions 2..=5 and the future
    // version 7 are rejected.
    assert_eq!(ck.accepted, vec![ck.current]);
    assert_eq!(ck.accepted, vec![6]);
}

#[test]
fn coverage_report_matches_snapshot() {
    let actual = render(
        &models(),
        &price_outcomes(&model_zoo()),
        &probe_checkpoints(),
    );
    assert_eq!(
        actual, SNAPSHOT,
        "coverage report drifted from tests/snapshots/coverage.txt; if the \
         change is intentional, regenerate the snapshot from the `actual` \
         side of this assertion"
    );
}

#[test]
fn snapshot_covers_all_seven_models_and_proves_coverage() {
    // Guard the snapshot itself: it must describe the full zoo and a
    // gap-free proof, so a blessed-but-broken snapshot cannot pass.
    assert!(SNAPSHOT.contains("7 models, 177 probes"));
    for model in [
        "OPT-6.7B",
        "OPT-2.7B",
        "GPTJ-6B",
        "Llama2-7B",
        "Vicuna-7B",
        "Qwen2-7B",
        "Qwen2-1.5B",
    ] {
        assert!(SNAPSHOT.contains(model), "snapshot missing {model}");
    }
    assert_eq!(SNAPSHOT.matches("table1 ok  gaps 0  over 0").count(), 7);
    assert!(!SNAPSHOT.contains("UNPRICED"));
    assert!(SNAPSHOT.contains("checkpoint versions: current 6 accepted [6] rejects-future true"));
}
