//! The campaign figures of the paper, and the sweeps beyond it, as
//! [`Sweep`] specs: which cells to run and which columns to show. The
//! runner in [`super::sweep`] does the rest.

use super::sweep::{Cell, Col, Protect, Sweep, CI95, SDC};
use super::ExperimentCtx;
use crate::report::{format_pct, Table};
use crate::settings::{evaluation_grid, Settings};
use ft2_core::critical::CriticalityReport;
use ft2_core::{Scheme, TILE_ELEMS};
use ft2_fault::{
    CampaignResult, FaultDuration, FaultModel, FaultTarget, StepFilter, StepWeighting,
};
use ft2_hw::{CostModel, WorkloadShape, A100, GH200_H100};
use ft2_model::ZooModel;
use ft2_tasks::DatasetId;
use ft2_tensor::DType;

/// The five schemes Fig. 2 and Fig. 15 compare.
const BASELINES_AND_FT2: [Scheme; 5] = [
    Scheme::NoProtection,
    Scheme::Ranger,
    Scheme::MaxiMals,
    Scheme::GlobalClipper,
    Scheme::Ft2,
];

/// Figure 2 — motivational comparison: SDC rate of existing protections vs
/// FT2 on Llama2-7B + GSM8K under the EXP fault model. A single-pair figure
/// affords tighter intervals: four times the trials.
pub fn fig2(s: &Settings) -> Sweep {
    let base = Cell::new(
        s,
        &ZooModel::Llama2_7B.spec(),
        DatasetId::Gsm8k,
        FaultModel::ExponentBit,
    )
    .edit(|c| c.trials_per_input = s.trials * 4);
    Sweep {
        csv: "fig02_motivation",
        title: "Fig. 2 — SDC under protections (Llama2-7B, GSM8K, EXP faults)",
        cols: vec![Col::Label("scheme"), SDC, CI95],
        cells: BASELINES_AND_FT2
            .map(|x| base.with(&[x.name()], Protect::Scheme(x)))
            .into(),
    }
}

/// Figure 6 — layer criticality probe: protect *all* linear layers except
/// one kind and measure the SDC its faults leave behind (GPT-J-6B, SQuAD).
/// A tall bar means the excluded layer is critical.
///
/// Statistical note: the paper injects into all layers and reports the
/// total SDC; most of those trials hit *protected* layers and carry no
/// signal about the excluded one. We instead inject only into the excluded
/// layer (`layer_filter`) and report the conditional SDC, plus the
/// absolute contribution (`conditional × fault share of the layer`), which
/// is the paper's bar height. Same experiment, far tighter error bars per
/// trial — and conditional trials are cheap signal, so twice the trials.
pub fn fig6(s: &Settings) -> Sweep {
    let spec = ZooModel::GptJ6B.spec();
    let base = Cell::new(s, &spec, DatasetId::Squad, FaultModel::ExponentBit)
        .edit(|c| c.trials_per_input = s.trials * 2);
    let cells = spec.config.block_layers().iter().map(|&excluded| {
        let mut cell = base
            .with(&[excluded.name()], Protect::AllBut(excluded))
            .edit(|c| c.layer_filter = Some(vec![excluded]));
        let critical = if CriticalityReport::table1_expectation(excluded) {
            "Y"
        } else {
            "N"
        };
        cell.labels
            .extend([format_pct(fault_share(&cell)), critical.into()]);
        cell
    });
    Sweep {
        csv: "fig06_layer_criticality",
        title: "Fig. 6 — SDC when one layer kind is left unprotected (GPTJ-6B, SQuAD, EXP faults)",
        cols: vec![
            Col::Label("unprotected_layer"),
            Col::Metric("conditional_sdc", |r| format_pct(r.result.sdc_rate())),
            CI95,
            Col::Label("fault_share"),
            Col::Metric("absolute_sdc_contrib", |r| {
                format_pct(r.result.sdc_rate() * fault_share(r.cell))
            }),
            Col::Label("heuristic_says_critical"),
        ],
        cells: cells.collect(),
    }
}

/// The fault share of the layers a cell injects into: their fraction of the
/// block's output features (the sampler weights layers by them).
fn fault_share(cell: &Cell) -> f64 {
    let config = &cell.model.config;
    let features = |kinds: &[ft2_model::LayerKind]| -> usize {
        kinds.iter().map(|&k| config.out_features(k)).sum()
    };
    let struck = cell
        .config
        .layer_filter
        .as_deref()
        .unwrap_or(config.block_layers());
    features(struck) as f64 / features(config.block_layers()) as f64
}

/// Figure 9 — bound-scaling sweep: SDC of FT2 with different scale factors
/// (Qwen2-7B, GSM8K). Unscaled first-token bounds are too tight (they clip
/// benign decode values); any scale ≥ 1.25 recovers, and the exact choice
/// barely matters.
pub fn fig9(s: &Settings) -> Sweep {
    let base = Cell::new(
        s,
        &ZooModel::Qwen2_7B.spec(),
        DatasetId::Gsm8k,
        FaultModel::ExponentBit,
    );
    let mut cells = vec![base.with(&["no protection"], Protect::Scheme(Scheme::NoProtection))];
    for scale in [1.0f32, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0] {
        cells.push(base.with(&[&format!("FT2, scale {scale}")], Protect::Ft2Scale(scale)));
    }
    Sweep {
        csv: "fig09_bound_scaling",
        title: "Fig. 9 — SDC vs FT2 bound scale factor (Qwen2-7B, GSM8K, EXP faults)",
        cols: vec![Col::Label("configuration"), SDC, CI95],
        cells,
    }
}

/// Figure 11 — resilience of the first-token generation (OPT-6.7B, SQuAD).
///
/// Three bars per fault model: unprotected faults anywhere; full FT2
/// protection; and faults restricted to the first-token step with FT2
/// active (during step 0 FT2 can only correct NaNs — bounds do not exist
/// yet), which is the configuration §4.2.2 argues is acceptable.
pub fn fig11(s: &Settings) -> Sweep {
    let mut cells = Vec::new();
    for fm in FaultModel::ALL {
        let base = Cell::new(s, &ZooModel::Opt6_7B.spec(), DatasetId::Squad, fm);
        let (none, ft2) = (
            Protect::Scheme(Scheme::NoProtection),
            Protect::Scheme(Scheme::Ft2),
        );
        cells.push(base.with(&[fm.name(), "no protection (all steps)"], none));
        cells.push(base.with(&[fm.name(), "FT2 (all steps)"], ft2));
        cells.push(
            base.with(
                &[fm.name(), "faults in first token only (NaN corrected)"],
                ft2,
            )
            .edit(|c| c.step_filter = StepFilter::FirstTokenOnly),
        );
    }
    Sweep {
        csv: "fig11_first_token_resilience",
        title: "Fig. 11 — first-token resilience (OPT-6.7B, SQuAD)",
        cols: vec![
            Col::Label("fault_model"),
            Col::Label("configuration"),
            SDC,
            CI95,
        ],
        cells,
    }
}

/// Figure 13 — THE MAIN RESULT: SDC rate of every protection scheme across
/// the full evaluation grid (7 models × 3 datasets × 3 fault models).
/// [`fig13_aggregates`] adds the headline: FT2's average SDC-rate
/// reduction.
pub fn fig13(s: &Settings) -> Sweep {
    let mut cells = Vec::new();
    for (model, dataset) in evaluation_grid() {
        for fm in FaultModel::ALL {
            let base = Cell::new(s, &model, dataset, fm);
            let labels = [fm.name(), model.name(), dataset.name()];
            cells.extend(Scheme::PAPER_SET.map(|x| base.with(&labels, Protect::Scheme(x))));
        }
    }
    Sweep {
        csv: "fig13_main_grid",
        title: "Fig. 13 — SDC rate per scheme (main evaluation)",
        cols: vec![
            Col::Label("fault_model"),
            Col::Label("model"),
            Col::Label("dataset"),
            Col::SdcPerScheme,
        ],
        cells,
    }
}

/// Fig. 13's aggregate table and headline, from the grid's results in
/// [`fig13`]'s cell order.
pub fn fig13_aggregates(ctx: &ExperimentCtx, results: &[CampaignResult]) -> Table {
    let schemes = Scheme::PAPER_SET;
    let mut header: Vec<&str> = vec!["aggregate"];
    header.extend(schemes.iter().map(|s| s.name()));
    header.push("FT2 SDC reduction");
    let mut table = Table::new("Fig. 13 — aggregates", &header);

    // Per scheme: the rates over the grid, per fault model and overall.
    let mut all: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut by_fm: Vec<Vec<Vec<f64>>> = vec![all.clone(); FaultModel::ALL.len()];
    for (i, r) in results.iter().enumerate() {
        let (si, fmi) = (i % schemes.len(), i / schemes.len() % FaultModel::ALL.len());
        all[si].push(r.sdc_rate());
        by_fm[fmi][si].push(r.sdc_rate());
    }
    let mean = |xs: &Vec<f64>| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    // Scheme::NoProtection is first in PAPER_SET, Scheme::Ft2 last.
    let reduction =
        |rates: &[Vec<f64>]| 1.0 - mean(&rates[schemes.len() - 1]) / mean(&rates[0]).max(1e-12);
    let mut row = |label: String, rates: &[Vec<f64>]| {
        let mut cells = vec![label];
        cells.extend(rates.iter().map(|r| format_pct(mean(r))));
        cells.push(format_pct(reduction(rates)));
        table.row(cells);
    };
    for (fm, rates) in FaultModel::ALL.iter().zip(&by_fm) {
        row(format!("avg over grid, {}", fm.name()), rates);
    }
    row("avg over everything".into(), &all);
    ctx.emit("fig13_aggregates", &table);
    let headline = format_pct(reduction(&all));
    println!("HEADLINE: FT2 reduces the average SDC rate by {headline} (paper: 92.92%)");
    table
}

/// Figure 15 — data-type sensitivity: FP16 vs FP32 (OPT-6.7B and GPT-J-6B
/// on SQuAD). Faults corrupt the respective storage format; FT2 protects
/// both. We additionally include bf16 as an extension.
pub fn fig15(s: &Settings) -> Sweep {
    let mut cells = Vec::new();
    for m in [ZooModel::Opt6_7B, ZooModel::GptJ6B] {
        for dtype in [DType::F16, DType::F32, DType::Bf16] {
            let mut spec = m.spec();
            spec.config.dtype = dtype;
            let base = Cell::new(s, &spec, DatasetId::Squad, FaultModel::ExponentBit);
            let labels = [spec.name(), dtype.name()];
            cells.extend(BASELINES_AND_FT2.map(|x| base.with(&labels, Protect::Scheme(x))));
        }
    }
    Sweep {
        csv: "fig15_dtype_sensitivity",
        title: "Fig. 15 — SDC by data type (SQuAD, EXP faults)",
        cols: vec![Col::Label("model"), Col::Label("dtype"), Col::SdcPerScheme],
        cells,
    }
}

/// Figure 16 — hardware sensitivity: A100 vs H100 (OPT-6.7B + SQuAD and
/// Qwen2-7B + XTREME).
///
/// FT2 is a software-level technique, so SDC rates are
/// hardware-independent; the paper confirms this empirically and so do we:
/// the campaign is bit-identical under either profile (the simulator's
/// arithmetic does not depend on the timing model), so both SDC columns
/// read the one campaign. The roofline latencies give the per-platform
/// context.
pub fn fig16(s: &Settings) -> Sweep {
    let mut cells = Vec::new();
    let pairs = [
        (ZooModel::Opt6_7B, DatasetId::Squad),
        (ZooModel::Qwen2_7B, DatasetId::Xtreme),
    ];
    for (m, dataset) in pairs {
        let spec = m.spec();
        let shape = WorkloadShape::from_spec(&spec);
        let latency = |hw| {
            format!(
                "{:.2}",
                CostModel::new(hw)
                    .generation_time(&shape, 150, 60)
                    .total_s()
            )
        };
        let (a100, h100) = (latency(A100), latency(GH200_H100));
        let base = Cell::new(s, &spec, dataset, FaultModel::ExponentBit);
        for x in [Scheme::NoProtection, Scheme::Ft2] {
            let labels = [spec.name(), dataset.name(), x.name(), &a100, &h100];
            cells.push(base.with(&labels, Protect::Scheme(x)));
        }
    }
    Sweep {
        csv: "fig16_hardware_sensitivity",
        title: "Fig. 16 — hardware sensitivity (EXP faults)",
        cols: vec![
            Col::Label("model"),
            Col::Label("dataset"),
            Col::Label("scheme"),
            Col::Metric("A100_sdc", |r| format_pct(r.result.sdc_rate())),
            Col::Metric("H100_sdc", |r| format_pct(r.result.sdc_rate())),
            Col::Label("A100_latency_s"),
            Col::Label("H100_latency_s"),
        ],
        cells,
    }
}

/// Ablation — correction policy (Take-away #8: clamp-to-bound vs
/// clip-to-zero under FT2's coverage and bounds, on an outlier-bearing
/// Llama-family model) and coverage (FT2's critical-layer set vs protecting
/// every linear layer, the "nearly 2× overhead" naive option).
pub fn correction_coverage(s: &Settings) -> Sweep {
    let base = Cell::new(
        s,
        &ZooModel::Vicuna7B.spec(),
        DatasetId::Squad,
        FaultModel::ExponentBit,
    );
    let schemes = [
        Scheme::NoProtection,
        Scheme::Ft2,
        Scheme::Ft2ClipToZero,
        Scheme::FullProtection,
    ];
    Sweep {
        csv: "ablation_correction_coverage",
        title: "Ablation — correction policy & coverage (Vicuna-7B, SQuAD, EXP)",
        cols: vec![Col::Label("scheme"), SDC, CI95],
        cells: schemes
            .map(|x| base.with(&[x.name()], Protect::Scheme(x)))
            .into(),
    }
}

/// Ablation — step weighting: the time-uniform fault model vs a
/// computation-uniform one, which over-weights the prefill and thus
/// stresses FT2's unprotected first-token window.
pub fn step_weighting(s: &Settings) -> Sweep {
    let spec = ZooModel::Vicuna7B.spec();
    let vicuna = Cell::new(s, &spec, DatasetId::Squad, FaultModel::ExponentBit);
    let mut cells = Vec::new();
    for (name, weighting) in [
        ("time-uniform (paper)", StepWeighting::default()),
        ("computation-uniform", StepWeighting::ByComputation),
    ] {
        let base = vicuna.clone().edit(|c| c.step_weighting = weighting);
        for x in [Scheme::NoProtection, Scheme::Ft2] {
            cells.push(base.with(&[name, x.name()], Protect::Scheme(x)));
        }
    }
    Sweep {
        csv: "ablation_step_weighting",
        title: "Ablation — fault-step weighting (Vicuna-7B, SQuAD, EXP)",
        cols: vec![
            Col::Label("weighting"),
            Col::Label("scheme"),
            SDC,
            Col::Metric("first_token_fault_share", |r| {
                let faults = r.result.first_token_faults.total() as f64;
                format_pct(faults / r.result.counts.total().max(1) as f64)
            }),
        ],
        cells,
    }
}

/// The swept rollback retry budgets of [`recovery`] (0 = recovery disabled
/// baseline).
pub const RETRY_BUDGETS: [u32; 4] = [0, 1, 2, 4];

/// `ft2-repro recovery` — the detect–escalate–recover ladder: SDC rate vs
/// token-rollback retry budget, swept over the three fault models.
///
/// Faults are restricted to decode steps (`FollowingTokensOnly`) because
/// that is where rollback applies: the prefill is the profiling pass and is
/// guarded by the bound-integrity check instead. Each cell reruns the same
/// seeded campaign with a different retry budget, so the SDC column is
/// directly comparable down a fault-model group; the rightmost column
/// prices the observed rollbacks with the A100 roofline model
/// ([`ft2_hw::CostModel::recovery_overhead`]) — recovery is only worth its
/// SDC reduction if that stays in the low percent range.
///
/// `FT2_RECOVERY_RETRIES` does not apply here (the budget is the swept
/// variable); `FT2_STORM_THRESHOLD` does.
pub fn recovery(s: &Settings) -> Sweep {
    let mut cells = Vec::new();
    for fm in FaultModel::ALL {
        let base = Cell::new(s, &ZooModel::Qwen2_1_5B.spec(), DatasetId::Squad, fm)
            .edit(|c| c.step_filter = StepFilter::FollowingTokensOnly);
        for retries in RETRY_BUDGETS {
            let cell = base.with(
                &[fm.name(), &retries.to_string()],
                Protect::Scheme(Scheme::Ft2),
            );
            cells.push(cell.edit(|c| c.recovery_retries = retries));
        }
    }
    Sweep {
        csv: "recovery_ladder",
        title: "Recovery — SDC vs rollback retry budget (FT2, decode-step faults)",
        cols: vec![
            Col::Label("fault"),
            Col::Label("retries"),
            SDC,
            Col::Metric("recovered", |r| r.result.counts.recovered.to_string()),
            Col::Metric("rec_failed", |r| {
                r.result.counts.recovery_failed.to_string()
            }),
            Col::Metric("rollbacks", |r| r.result.rollbacks.to_string()),
            Col::Metric("storms", |r| r.result.storms.to_string()),
            // Paper-scale pricing: SQuAD prompt (~150 tokens), 60 generated.
            Col::Metric("A100_overhead", |r| {
                let per_gen = r.result.rollbacks as f64 / r.result.counts.total().max(1) as f64;
                let shape = WorkloadShape::from_spec(&r.cell.model);
                format_pct(CostModel::new(A100).recovery_overhead(&shape, 150, 60, per_gen))
            }),
        ],
        cells,
    }
}

/// Defence mode of one [`persistent`] cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// No protection: no clamping, no rollback, no integrity layer.
    None,
    /// FT2 + token rollback (2 retries), no integrity layer.
    Rollback,
    /// FT2 + rollback + weight scrubbing + KV guard + repair-and-retry.
    Repair,
}

/// The swept (duration, target, mode) cells of [`persistent`]. The
/// transient activation rows are the paper's regime and the baseline the
/// persistent rows are judged against.
pub const SWEEP: &[(FaultDuration, FaultTarget, Mode)] = &[
    (
        FaultDuration::Transient,
        FaultTarget::Activation,
        Mode::None,
    ),
    (
        FaultDuration::Transient,
        FaultTarget::Activation,
        Mode::Rollback,
    ),
    (FaultDuration::Transient, FaultTarget::Weight, Mode::None),
    (FaultDuration::Transient, FaultTarget::KvCache, Mode::None),
    (
        FaultDuration::Intermittent { period: 4 },
        FaultTarget::Weight,
        Mode::None,
    ),
    (FaultDuration::Persistent, FaultTarget::Weight, Mode::None),
    (
        FaultDuration::Persistent,
        FaultTarget::Weight,
        Mode::Rollback,
    ),
    (FaultDuration::Persistent, FaultTarget::Weight, Mode::Repair),
    (
        FaultDuration::Intermittent { period: 4 },
        FaultTarget::Weight,
        Mode::Repair,
    ),
    (FaultDuration::Persistent, FaultTarget::KvCache, Mode::None),
    (
        FaultDuration::Persistent,
        FaultTarget::KvCache,
        Mode::Rollback,
    ),
    (
        FaultDuration::Persistent,
        FaultTarget::KvCache,
        Mode::Repair,
    ),
];

/// `ft2-repro persistent` — persistent-fault resilience: SDC/DUE under the
/// fault-duration × fault-target sweep, across three defence modes:
///
/// * `none` — no protection and no recovery: persistent stored-state
///   corruption propagates silently, so SDC is high.
/// * `rollback` — FT2 with token rollback armed (2 retries): the storm
///   detector catches the corruption, but every re-decode re-reads the same
///   flipped bits, so trials end *detected-unrecoverable* (DUE) instead of
///   silently corrupted — rollback alone converts SDC into DUE, it cannot
///   mask persistent faults.
/// * `repair` — the integrity layer on top: weight scrubbing against the
///   golden checksums, the KV-cache CRC guard, and the repair-and-retry
///   recovery rung. SDC *and* DUE return to near-transient levels.
///
/// Rollback applies to decode steps (the prefill is the profiling pass and
/// is guarded by the bound-integrity check instead), so faults strike those
/// only. The scrub rate defaults to one full sweep of the weight tiles per
/// generation (`FT2_SCRUB_TILES_PER_STEP` overrides it); the rightmost
/// column prices that rate with the A100 roofline model
/// ([`ft2_hw::CostModel::scrub_overhead`]).
pub fn persistent(s: &Settings) -> Sweep {
    let base = Cell::new(
        s,
        &ZooModel::Qwen2_1_5B.spec(),
        DatasetId::Gsm8k,
        FaultModel::ExponentBit,
    )
    .edit(|c| c.step_filter = StepFilter::FollowingTokensOnly);
    let cells = SWEEP.iter().map(|&(duration, target, mode)| {
        let (name, protect) = match mode {
            Mode::None => ("none", Protect::Scheme(Scheme::NoProtection)),
            Mode::Rollback => ("rollback", Protect::Scheme(Scheme::Ft2)),
            Mode::Repair => ("repair", Protect::Ft2Repair),
        };
        base.with(&[&format!("{duration:?}"), target.name(), name], protect)
            .edit(|c| {
                c.fault_duration = duration;
                c.fault_target = target;
                c.recovery_retries = if mode == Mode::None {
                    0
                } else {
                    c.recovery_retries.max(2)
                };
                c.recovery_repair = mode == Mode::Repair;
            })
    });
    Sweep {
        csv: "persistent_faults",
        title: "Persistent faults — SDC/DUE vs duration/target/defence (FT2, EXP faults)",
        cols: vec![
            Col::Label("duration"),
            Col::Label("target"),
            Col::Label("defence"),
            SDC,
            Col::Metric("corrupted", |r| {
                (r.result.counts.masked_semantic + r.result.counts.sdc).to_string()
            }),
            Col::Metric("due", |r| r.result.counts.due().to_string()),
            Col::Metric("recovered", |r| r.result.counts.recovered.to_string()),
            Col::Metric("repaired", |r| r.result.counts.repaired.to_string()),
            Col::Metric("rec_failed", |r| {
                r.result.counts.recovery_failed.to_string()
            }),
            Col::Metric("rollbacks", |r| r.result.rollbacks.to_string()),
            Col::Metric("w_repairs", |r| r.result.weight_repairs.to_string()),
            Col::Metric("kv_repairs", |r| r.result.kv_repairs.to_string()),
            Col::Metric("A100_scrub_ovh", |r| {
                if r.cell.protect != Protect::Ft2Repair {
                    return format_pct(0.0);
                }
                let rate = r.pair.integrity.scrub_tiles_per_step;
                let shape = WorkloadShape::from_spec(&r.cell.model);
                format_pct(CostModel::new(A100).scrub_overhead(&shape, 150, 60, rate, TILE_ELEMS))
            }),
        ],
        cells: cells.collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_sweep_reduces_sdc_within_a_fault_group() {
        let ctx = crate::experiments::tests::tiny_ctx();
        let (table, _) = recovery(&ctx.settings).run(&ctx);
        assert_eq!(table.len(), FaultModel::ALL.len() * RETRY_BUDGETS.len());
        // Within the EXP group the recovery-enabled rows must roll back at
        // least once; tiny sizing keeps this cheap but non-trivial.
        let exp_rows: Vec<_> = table
            .rows()
            .iter()
            .filter(|r| r[0] == "EXP" && r[1] != "0")
            .collect();
        assert!(
            exp_rows.iter().any(|r| r[5] != "0"),
            "no rollbacks in {exp_rows:?}"
        );
        // The disabled baseline never reports recovery counters.
        for r in table.rows().iter().filter(|r| r[1] == "0") {
            assert_eq!((r[3].as_str(), r[5].as_str()), ("0", "0"));
        }
    }

    // Column accessors for the 13-column table.
    fn num(row: &[String], col: usize) -> u64 {
        row[col].parse().unwrap()
    }
    fn due(row: &[String]) -> u64 {
        num(row, 5)
    }
    fn repaired(row: &[String]) -> u64 {
        num(row, 7)
    }
    fn rec_failed(row: &[String]) -> u64 {
        num(row, 8)
    }
    fn rollbacks(row: &[String]) -> u64 {
        num(row, 9)
    }
    fn w_repairs(row: &[String]) -> u64 {
        num(row, 10)
    }
    fn kv_repairs(row: &[String]) -> u64 {
        num(row, 11)
    }

    /// At the tiny test sizing the SDC columns are all zero (too few
    /// trials), so the structural invariants of the defence ladder are
    /// asserted on the recovery/repair counters, which fire reliably.
    /// The SDC-level acceptance claims (persistent-none above transient,
    /// repair within 2x transient) hold at the default `ft2-repro
    /// persistent` sizing and are documented in DESIGN.md.
    #[test]
    fn persistent_sweep_shows_repair_closing_the_gap() {
        let ctx = crate::experiments::tests::tiny_ctx();
        let (table, _) = persistent(&ctx.settings).run(&ctx);
        assert_eq!(table.len(), SWEEP.len());
        let rows = table.rows();
        let t_roll = &rows[1]; // transient / activation / rollback
        let pw_none = &rows[5]; // persistent / weight / none
        let pw_roll = &rows[6]; // persistent / weight / rollback
        let pw_rep = &rows[7]; // persistent / weight / repair
        let kv_none = &rows[9]; // persistent / kv / none
        let kv_rep = &rows[11]; // persistent / kv / repair

        // Unprotected rows have no recovery machinery at all: no
        // rollbacks, no repairs, and any corruption lands silently.
        for row in [pw_none, kv_none] {
            assert_eq!(rollbacks(row), 0, "none row rolled back: {row:?}");
            assert_eq!(
                w_repairs(row) + kv_repairs(row),
                0,
                "none row repaired: {row:?}"
            );
        }

        // Rollback alone detects persistent faults but cannot mask them:
        // re-decoding re-reads the same flipped bits, so retries are
        // burned (far more rollbacks than the transient baseline) and the
        // trial ends detected-unrecoverable rather than silently wrong.
        assert!(
            due(pw_roll) + rec_failed(pw_roll) >= 1,
            "rollback-only persistent-weight row never exhausted retries: {pw_roll:?}"
        );
        assert!(
            rollbacks(pw_roll) > rollbacks(t_roll),
            "persistent faults must burn more rollbacks ({}) than transient ({})",
            rollbacks(pw_roll),
            rollbacks(t_roll)
        );

        // The integrity layer actually repairs the corruption: weight
        // scrubbing restores flipped tiles, the KV guard rebuilds poisoned
        // rows, and trials classify as Repaired instead of DUE.
        assert!(
            w_repairs(pw_rep) > 0,
            "no weight repairs in repair row {pw_rep:?}"
        );
        assert!(
            repaired(pw_rep) > 0,
            "no trials classified Repaired in {pw_rep:?}"
        );
        assert!(
            kv_repairs(kv_rep) > 0,
            "no kv repairs in repair row {kv_rep:?}"
        );
        assert!(
            repaired(kv_rep) > 0,
            "no trials classified Repaired in {kv_rep:?}"
        );
        // Repair closes the DUE gap rollback-alone leaves open.
        assert!(
            due(pw_rep) <= due(pw_roll),
            "repair row DUE {} exceeds rollback-only DUE {}",
            due(pw_rep),
            due(pw_roll)
        );
    }
}
