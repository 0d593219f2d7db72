//! The related-work alternative the paper positions FT2 against: dual
//! modular redundancy (DMR).
//!
//! ```sh
//! cargo run --release --example alternative_protections
//! ```
//!
//! Shows a DMR campaign reaching 0% SDC at ~2x execution cost beside FT2
//! reaching a comparable rate at a few percent overhead — the trade-off
//! that motivates the paper.

use ft2::core::{Scheme, SchemeFactory};
use ft2::fault::{run_dmr_campaign, Campaign, CampaignConfig, FaultModel};
use ft2::model::ZooModel;
use ft2::parallel::WorkStealingPool;
use ft2::tasks::datasets::generate_prompts;
use ft2::tasks::{DatasetId, TaskSpec, TaskType};

fn main() {
    let model = ZooModel::Vicuna7B.spec().build();
    let pool = WorkStealingPool::with_default_threads();
    let prompts = generate_prompts(DatasetId::Squad, 8, 4711);
    let task = TaskSpec::new(TaskType::Qa, 14);
    let judge = task.judge();
    let cfg = CampaignConfig {
        trials_per_input: 40,
        gen_tokens: 14,
        ..CampaignConfig::quick(FaultModel::ExponentBit)
    };

    let campaign = Campaign::new(&model, &prompts, &judge, cfg.clone(), &pool);
    let unprotected = campaign.run(&ft2::fault::Unprotected, &pool);
    let ft2 = campaign.run(
        &SchemeFactory::new(Scheme::Ft2, model.config(), None),
        &pool,
    );
    let dmr = run_dmr_campaign(&model, &prompts, &judge, &cfg, &pool);

    println!("{:<28} {:>8} {:>22}", "technique", "SDC", "execution overhead");
    println!(
        "{:<28} {:>7.2}% {:>22}",
        "no protection",
        unprotected.sdc_rate() * 100.0,
        "1.00x"
    );
    println!(
        "{:<28} {:>7.2}% {:>22}",
        "FT2 (online bounds)",
        ft2.sdc_rate() * 100.0,
        "~1.03x (Fig. 14)"
    );
    println!(
        "{:<28} {:>7.2}% {:>19.2}x",
        "DMR (duplicate + recover)",
        dmr.sdc_after_recovery as f64 / dmr.trials as f64 * 100.0,
        dmr.overhead_factor()
    );
    println!(
        "\nDMR reaches 0% SDC — at {}x the compute. FT2 gets within noise of\n\
         it for ~3% overhead, which is the paper's core trade-off.",
        dmr.overhead_factor().round()
    );
}
