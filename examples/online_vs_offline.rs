//! Online (first-token) vs offline bound profiling.
//!
//! ```sh
//! cargo run --release --example online_vs_offline
//! ```
//!
//! The paper's key enabler is that bounds recorded during the first-token
//! generation, widened by 2x, cover the activations of all later tokens.
//! This example makes that concrete: it profiles both ways on the same
//! inputs, prints the per-layer bounds side by side, and then compares the
//! two protection modes under an EXP fault campaign.

use ft2::core::profile::offline_profile;
use ft2::core::protect::{Coverage, Protector};
use ft2::core::{critical_layers, Scheme, SchemeFactory};
use ft2::fault::{Campaign, CampaignConfig, FaultModel};
use ft2::model::{TapList, TapPoint, ZooModel};
use ft2::parallel::WorkStealingPool;
use ft2::tasks::datasets::generate_prompts;
use ft2::tasks::{DatasetId, TaskSpec, TaskType};
use std::sync::Arc;

fn main() {
    let spec = ZooModel::Llama2_7B.spec();
    let model = spec.build();
    let pool = WorkStealingPool::with_default_threads();
    let gen_tokens = 16;
    let prompts = generate_prompts(DatasetId::Squad, 8, 4242);

    // Offline: min/max over full generations of a profiling split.
    let profile_prompts = generate_prompts(DatasetId::Squad, 16, 31337);
    let offline = offline_profile(&model, &profile_prompts, gen_tokens, &pool);

    // Online: run ONE prompt and freeze the first-token (prefill) bounds,
    // exactly as FT2's protector does internally.
    let coverage = Coverage::linears(critical_layers(model.config().style));
    let mut online_protector = Protector::ft2_online(coverage, 2.0);
    {
        let mut taps = TapList::new();
        taps.push(&mut online_protector);
        let _ = model.generate(&prompts[0], gen_tokens, &mut taps);
    }

    println!("per-layer bounds, block 0 (online = first-token min/max x2):\n");
    println!(
        "{:<10} {:>24} {:>24}",
        "layer", "online [lo, hi]", "offline [lo, hi]"
    );
    for &kind in critical_layers(model.config().style).iter() {
        let point = TapPoint {
            block: 0,
            layer: kind,
        };
        let on = online_protector.current_bounds(&point).unwrap();
        let off = offline.linear.get(&point).unwrap();
        println!(
            "{:<10} {:>24} {:>24}",
            kind.name(),
            format!("[{:+.2}, {:+.2}]", on.lo, on.hi),
            format!("[{:+.2}, {:+.2}]", off.lo, off.hi)
        );
    }

    // Campaign comparison.
    let task = TaskSpec::new(TaskType::Qa, gen_tokens);
    let judge = task.judge();
    let cfg = CampaignConfig {
        trials_per_input: 40,
        gen_tokens,
        ..CampaignConfig::quick(FaultModel::ExponentBit)
    };
    let campaign = Campaign::new(&model, &prompts, &judge, cfg, &pool);
    let offline = Arc::new(offline);

    println!("\nEXP fault campaign ({} trials):", 8 * 40);
    for scheme in [Scheme::NoProtection, Scheme::Ft2Offline, Scheme::Ft2] {
        let factory = SchemeFactory::new(
            scheme,
            model.config(),
            scheme.needs_offline_bounds().then(|| offline.clone()),
        );
        let r = campaign.run(&factory, &pool);
        println!("  {:<14} SDC {:.2}%", scheme.name(), r.sdc_rate() * 100.0);
    }
    println!(
        "\nFT2's online bounds achieve protection comparable to offline \
         profiling — without the profiling pass (Fig. 4's 2.4-188 GPU-hours)."
    );
}
