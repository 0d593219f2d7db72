//! Development calibration tool: prints emergent SDC rates for one model
//! so the weight shaping in `ft2-model` can be tuned against the paper's
//! reported ranges. Not part of the reproduction harness proper.

use ft2::core::{offline_profile, Scheme, SchemeFactory};
use ft2::fault::{Campaign, CampaignConfig, FaultModel, Unprotected};
use ft2::model::ZooModel;
use ft2::parallel::WorkStealingPool;
use ft2::tasks::{datasets::generate_prompts, DatasetId, TaskSpec};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trials: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(100);
    let model_name = args.get(2).map(|s| s.as_str()).unwrap_or("opt-6.7b");
    let gen_tokens: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(20);

    let mut spec = ZooModel::parse(model_name).expect("unknown model").spec();
    if let Ok(h) = std::env::var("CAL_HIDDEN") {
        let h: usize = h.parse().unwrap();
        spec.config.hidden = h;
        spec.config.heads = h / 8;
        spec.config.ffn = match spec.config.style {
            ft2::model::ArchStyle::OptStyle => h * 4,
            ft2::model::ArchStyle::LlamaStyle => h * 8 / 3,
        };
    }
    if let Ok(b) = std::env::var("CAL_BLOCKS") {
        spec.config.blocks = b.parse().unwrap();
    }
    let model = spec.build();
    let pool = WorkStealingPool::with_default_threads();
    let dataset = DatasetId::Squad;
    let prompts = generate_prompts(dataset, 20, 99);
    let task = TaskSpec::new(dataset.task_type(), gen_tokens);
    let judge = task.judge();

    let profile_prompts = generate_prompts(dataset, 30, 12345);
    let offline = Arc::new(offline_profile(&model, &profile_prompts, gen_tokens, &pool));

    println!(
        "model={} hidden={} trials/input={trials} gen={gen_tokens}",
        spec.name(),
        model.config().hidden
    );
    let only: Option<FaultModel> = std::env::var("CAL_FM")
        .ok()
        .and_then(|s| FaultModel::parse(&s));
    for fm in FaultModel::ALL {
        if let Some(f) = only {
            if f != fm {
                continue;
            }
        }
        let cfg = CampaignConfig {
            seed: 0xC0FFEE,
            trials_per_input: trials,
            gen_tokens,
            fault_model: fm,
            ..CampaignConfig::quick(fm)
        };
        let campaign = Campaign::new(&model, &prompts, &judge, cfg, &pool);
        print!("{:>6}:", fm.name());
        let t0 = std::time::Instant::now();
        let r = campaign.run(&Unprotected, &pool);
        print!(
            "  none={:.2}% (sem {:.2}%)",
            r.sdc_rate() * 100.0,
            r.counts.masked_semantic as f64 / r.counts.total() as f64 * 100.0
        );
        for scheme in [
            Scheme::Ranger,
            Scheme::MaxiMals,
            Scheme::GlobalClipper,
            Scheme::Ft2Offline,
            Scheme::Ft2,
        ] {
            let f = SchemeFactory::new(scheme, model.config(), Some(offline.clone()));
            let r = campaign.run(&f, &pool);
            print!("  {}={:.2}%", scheme.name(), r.sdc_rate() * 100.0);
        }
        println!("  [{:?}]", t0.elapsed());
        // Per-layer breakdown for the unprotected run.
        let r = campaign.run(&Unprotected, &pool);
        for (k, c) in &r.per_layer {
            println!(
                "        unprot {:<10} n={:<5} sdc={:.2}%",
                k.name(),
                c.total(),
                c.sdc_rate() * 100.0
            );
        }
        // FT2 diagnostics: fault-free corruption, step-0 vs later faults,
        // per-layer leaks.
        let f = SchemeFactory::new(Scheme::Ft2, model.config(), None);
        let ff = campaign.run_fault_free(&f, &pool);
        let corrupted = ff
            .iter()
            .filter(|o| **o == ft2::fault::Outcome::Sdc)
            .count();
        let changed = ff
            .iter()
            .filter(|o| **o != ft2::fault::Outcome::MaskedIdentical)
            .count();
        println!(
            "        FT2 fault-free: {}/{} changed, {}/{} SDC",
            changed,
            ff.len(),
            corrupted,
            ff.len()
        );
        let r = campaign.run(&f, &pool);
        let step0 = r.first_token_faults;
        let later_sdc = r.counts.sdc - step0.sdc;
        let later_n = r.counts.total() - step0.total();
        println!(
            "        FT2 faults: step0 sdc={:.2}% (n={}), later sdc={:.2}% (n={})",
            step0.sdc_rate() * 100.0,
            step0.total(),
            later_sdc as f64 / later_n as f64 * 100.0,
            later_n
        );
        for (k, c) in &r.per_layer {
            println!(
                "        FT2    {:<10} n={:<5} sdc={:.2}%",
                k.name(),
                c.total(),
                c.sdc_rate() * 100.0
            );
        }
    }
}
