//! `campaign`: rounds of a fixed-seed FT2-protected fault-injection
//! campaign on the pool — the paper's own workload.

use crate::common::{ns_since, Base, Fixture, Latency, OpTimes, RunOutput, Timing, Window};
use crate::stats::median;
use crate::taps::{ClockedFactory, TrialStamps};
use crate::trace::{Tracer, NO_REQ};
use crate::workload::{campaign_inputs, CAMPAIGN_GEN, CAMPAIGN_TRIALS};
use ft2_core::{Scheme, SchemeFactory};
use ft2_fault::{Campaign, CampaignConfig, ExactJudge, FaultModel, OutcomeCounts, Unprotected};
use ft2_model::ZooModel;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub struct CampaignFx {
    base: Base,
    inputs: Vec<Vec<u32>>,
    config: CampaignConfig,
    /// Tally of the unprotected reference round (run once, before timing).
    unprotected: Option<OutcomeCounts>,
}

pub fn setup(seed: u64) -> CampaignFx {
    let base = Base::build(&[ZooModel::Opt6_7B]);
    let inputs = campaign_inputs(seed, base.models[0].config().vocab);
    let config = CampaignConfig {
        seed,
        trials_per_input: CAMPAIGN_TRIALS,
        gen_tokens: CAMPAIGN_GEN,
        ..CampaignConfig::quick(FaultModel::ExponentBit)
    };
    // `Campaign` borrows the model and the inputs, so `run` binds it again;
    // binding it here puts the reference generations into the set-up time.
    std::hint::black_box(
        Campaign::new(
            &base.models[0],
            &inputs,
            &ExactJudge,
            config.clone(),
            &base.pool,
        )
        .references(),
    );
    CampaignFx {
        base,
        inputs,
        config,
        unprotected: None,
    }
}

/// Everything that is neither an SDC nor a detected unrecoverable error.
fn masked(c: &OutcomeCounts) -> u64 {
    c.total() - c.sdc - c.due()
}

/// Unpack `[start, n, stamp × n]` records.
fn trial_ops(flat: &[u64]) -> Vec<OpTimes> {
    let mut ops = Vec::new();
    let mut i = 0;
    while i + 1 < flat.len() {
        let n = flat[i + 1] as usize;
        ops.push(OpTimes {
            start_ns: flat[i],
            tokens_ns: flat[i + 2..i + 2 + n].to_vec(),
            clean: true,
        });
        i += 2 + n;
    }
    ops
}

impl Fixture for CampaignFx {
    fn base(&self) -> &Base {
        &self.base
    }

    fn run(&mut self, timing: Timing, tracer: &mut Tracer) -> RunOutput {
        let origin = Instant::now();
        let mut out = RunOutput::default();
        let model = &self.base.models[0];
        let pool = &self.base.pool;
        let campaign = Campaign::new(model, &self.inputs, &ExactJudge, self.config.clone(), pool);
        let ft2 = SchemeFactory::new(Scheme::Ft2, model.config(), None);
        let trials = (self.inputs.len() * self.config.trials_per_input) as u64;

        // The SDC reference: one unprotected round, which also warms caches.
        let unprotected = *self
            .unprotected
            .get_or_insert_with(|| campaign.run(&Unprotected, pool).counts);
        while origin.elapsed().as_secs_f64() < timing.warm_s {
            std::hint::black_box(campaign.run(&ft2, pool));
        }

        let sink: TrialStamps = Arc::new(Mutex::new(Vec::with_capacity(1 << 20)));
        let clocked = ClockedFactory {
            inner: &ft2,
            origin,
            sink: Arc::clone(&sink),
            gen_tokens: self.config.gen_tokens,
        };
        let root = tracer.begin("campaign.run", NO_REQ);
        let t0 = ns_since(origin);
        let window_ns = (timing.window_s * 1e9) as u64;
        let mut first: Option<OutcomeCounts> = None;
        let mut trials_s: Vec<f64> = Vec::new();
        let mut round = 0u64;
        while ns_since(origin) < t0 + window_ns {
            let span = tracer.begin("fault.campaign.run", round);
            let start = ns_since(origin);
            let counts = campaign.run(&clocked, pool).counts;
            let end = ns_since(origin);
            tracer.end(span);
            trials_s.push(trials as f64 / ((end - start) as f64 / 1e9));
            out.attempted += trials;
            match &first {
                None => first = Some(counts),
                Some(f) if *f != counts => out.fail(format!(
                    "campaign: round {round} tally {counts:?} differs from round 0 {f:?}"
                )),
                Some(_) => {}
            }
            round += 1;
        }
        tracer.end(root);
        let w = Window {
            t0,
            t1: ns_since(origin),
        };

        let tally = first.unwrap_or_default();
        if tally.total() != trials {
            out.fail(format!(
                "campaign: tally covers {} of {trials} trials",
                tally.total()
            ));
        }
        if tally.sdc_rate() >= unprotected.sdc_rate() {
            out.fail(format!(
                "campaign: FT2 SDC rate {} is not below the unprotected {}",
                tally.sdc_rate(),
                unprotected.sdc_rate()
            ));
        }

        let ops = trial_ops(&sink.lock().expect("no trial panics while holding the sink"));
        let mut lat = Latency::collect(&ops, w);
        out.e2e.set("tok_s", lat.tok_s(w));
        lat.report(&mut out.e2e, &mut out.layer);
        out.layer.set("trials_s", median(&mut trials_s));
        out.layer.set("fault.tally.masked", masked(&tally) as f64);
        out.layer.set("fault.tally.sdc", tally.sdc as f64);
        out.layer.set("fault.tally.due", tally.due() as f64);
        out.layer.set("fault.sdc_rate_ft2", tally.sdc_rate());
        out.layer
            .set("fault.sdc_rate_unprotected", unprotected.sdc_rate());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_records_unpack() {
        let ops = trial_ops(&[10, 2, 11, 12, 20, 0, 30, 1, 31]);
        assert_eq!(ops.len(), 3);
        assert_eq!(
            (ops[0].start_ns, ops[0].tokens_ns.as_slice()),
            (10, &[11, 12][..])
        );
        assert!(ops[1].tokens_ns.is_empty());
        assert_eq!(ops[2].tokens_ns, vec![31]);
    }
}
