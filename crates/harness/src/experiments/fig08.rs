//! Figure 8 — per-layer neuron value distributions and the fraction of
//! NaN-vulnerable values (OPT-6.7B, SQuAD, one inference, block 1).
//!
//! The split this figure establishes: non-critical layers (K/Q/FC1) are
//! wide, with a large NaN-vulnerable share; critical layers (V/OUT/FC2)
//! concentrate near zero.

use super::ExperimentCtx;
use crate::report::Table;
use ft2_model::hooks::RecordingTap;
use ft2_model::{TapList, ZooModel};
use ft2_numeric::{nan_vulnerable_fraction, DType};
use ft2_numeric::{Histogram, OnlineStats};
use ft2_tasks::datasets::generate_prompts;
use ft2_tasks::DatasetId;

/// Run the experiment and emit its table (plus ASCII histograms).
pub fn run(ctx: &ExperimentCtx) -> Table {
    let spec = ZooModel::Opt6_7B.spec();
    let model = spec.build();
    // "input ID 686": deterministically pick one input from a large sample.
    let prompts = generate_prompts(DatasetId::Squad, 687, ctx.settings.seed ^ 0x686);
    let prompt = &prompts[686];

    let mut rec = RecordingTap::for_block(1);
    {
        let mut taps = TapList::new();
        taps.push(&mut rec);
        let _ = model.generate(prompt, ctx.settings.gen_qa, &mut taps);
    }

    let mut table = Table::new(
        "Fig. 8 — neuron value distributions, OPT-6.7B block 1 (SQuAD input 686)",
        &["layer", "mean", "std", "min", "max", "nan_vulnerable_pct", "critical"],
    );
    let layers = model.config().block_layers();
    for &kind in layers {
        let mut values: Vec<f32> = Vec::new();
        for (c, data) in &rec.captures {
            if c.point.layer == kind {
                values.extend_from_slice(data);
            }
        }
        let mut stats = OnlineStats::new();
        for &v in &values {
            stats.push(v as f64);
        }
        let frac = nan_vulnerable_fraction(&values, DType::F16);
        let crit = ft2_core::critical::CriticalityReport::table1_expectation(kind);
        table.row(vec![
            kind.name().to_string(),
            format!("{:.3}", stats.mean()),
            format!("{:.3}", stats.std_dev()),
            format!("{:.3}", stats.min()),
            format!("{:.3}", stats.max()),
            format!("{:.2}%", frac * 100.0),
            if crit { "Y" } else { "N" }.into(),
        ]);

        // Companion ASCII histogram for the figure's density panels.
        let mut h = Histogram::new(-4.0, 4.0, 16);
        h.extend(values.iter().map(|&v| v as f64));
        println!("-- {} --", kind.name());
        print!("{}", h.ascii(40));
    }
    ctx.emit("fig08_value_distributions", &table);
    table
}
