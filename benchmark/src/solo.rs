//! `solo_decode`: one sequence at a time through `Model::generate`, each
//! FT2-protected generation paired with an interleaved bare twin.

use crate::common::{
    ft2_tap, ns_since, Base, Fixture, Latency, OpTimes, Phases, RunOutput, Timing, MODELS, SEGMENTS,
};
use crate::stats::{quartiles, segment_ratio_median};
use crate::taps::TokenClock;
use crate::trace::Tracer;
use crate::workload::{solo_specs, GenSpec, SOLO_GEN};
use ft2_model::{Model, TapList};
use std::time::Instant;

pub struct Solo {
    base: Base,
    specs: Vec<GenSpec>,
    /// `[bare, protected]` generation of each spec, made in set-up. The two
    /// may differ: bounds profiled on a short prompt can clamp a long clean
    /// generation (`core.protect.false_clamps` counts it).
    refs: Vec<[Vec<u32>; 2]>,
}

pub fn setup(seed: u64) -> Solo {
    let base = Base::build(&MODELS);
    let specs = solo_specs(seed, SOLO_GEN, base.models[0].config().vocab);
    let origin = Instant::now();
    let refs = specs
        .iter()
        .map(|s| {
            [false, true].map(|protect| generate(&base.models[s.model], s, protect, origin).tokens)
        })
        .collect();
    Solo { base, specs, refs }
}

/// One generation on the run's clock.
struct Generation {
    times: OpTimes,
    end_ns: u64,
    tokens: Vec<u32>,
    /// Corrections the protector applied (0 for a bare twin).
    corrections: u64,
}

fn generate(model: &Model, spec: &GenSpec, protect: bool, origin: Instant) -> Generation {
    let mut clock = TokenClock::new(origin, spec.gen_tokens);
    let mut protector = protect.then(|| ft2_tap(model.config()));
    let start_ns = ns_since(origin);
    let out = {
        let mut taps = TapList::new();
        if let Some(p) = protector.as_mut() {
            taps.push(p);
        }
        taps.push(&mut clock);
        model.generate(&spec.prompt, spec.gen_tokens, &mut taps)
    };
    let end_ns = ns_since(origin);
    Generation {
        times: OpTimes {
            start_ns,
            tokens_ns: clock.stamps,
            clean: true,
        },
        end_ns,
        tokens: out.tokens,
        corrections: protector.map_or(0, |p| p.stats.clipped + p.stats.nans_corrected),
    }
}

impl Fixture for Solo {
    fn base(&self) -> &Base {
        &self.base
    }

    fn run(&mut self, timing: Timing, tracer: &mut Tracer) -> RunOutput {
        let origin = Instant::now();
        let mut out = RunOutput::default();
        let mut phases = Phases::start(origin, timing);

        let mut protected: Vec<Generation> = Vec::new();
        let mut overheads: Vec<f64> = Vec::new();
        let mut false_clamps = 0u64;
        let root = tracer.begin("solo.run", crate::trace::NO_REQ);
        let mut i = 0usize;
        while let Some(timed) = phases.next_is_timed() {
            let k = i % self.specs.len();
            let spec = &self.specs[k];
            let model = &self.base.models[spec.model];
            // Alternate which twin runs first, so drift inside a pair cancels.
            let mut twins: [Option<Generation>; 2] = [None, None];
            for protect in if i.is_multiple_of(2) {
                [true, false]
            } else {
                [false, true]
            } {
                let name = if protect {
                    "model.generate.protected"
                } else {
                    "model.generate.bare"
                };
                let span = tracer.begin(name, i as u64);
                twins[protect as usize] = Some(generate(model, spec, protect, origin));
                tracer.end(span);
            }
            let [Some(bare), Some(prot)] = twins else {
                unreachable!("both twins ran")
            };
            i += 1;
            if !timed {
                continue; // warm-up pairs are checked by the timed ones that follow
            }
            out.attempted += 2;
            for (who, g) in [&bare, &prot].into_iter().enumerate() {
                if g.tokens != self.refs[k][who] {
                    let who = ["bare", "protected"][who];
                    out.fail(format!(
                        "solo_decode: {who} generation {k} differs from its reference"
                    ));
                }
            }
            false_clamps += prot.corrections;
            let dur = |g: &Generation| (g.end_ns - g.times.start_ns) as f64;
            overheads.push((dur(&prot) / dur(&bare) - 1.0) * 100.0);
            protected.push(prot);
        }
        tracer.end(root);
        let w = phases.window();

        let mut lat = Latency::collect(protected.iter().map(|g| &g.times), w);
        let samples: Vec<(u64, f64, u64)> = protected
            .iter()
            .map(|g| (g.end_ns, g.tokens.len() as f64, g.end_ns - g.times.start_ns))
            .collect();
        out.e2e.set(
            "tok_s",
            segment_ratio_median(&samples, w.t0, w.t1, SEGMENTS),
        );
        lat.report(&mut out.e2e, &mut out.layer);
        let (q1, med, q3) = quartiles(&mut overheads);
        out.layer.set("core.protect.overhead_pct", med);
        out.layer.set("core.protect.overhead_pct_q1", q1);
        out.layer.set("core.protect.overhead_pct_q3", q3);
        out.layer
            .set("core.protect.false_clamps", false_clamps as f64);
        out
    }
}
