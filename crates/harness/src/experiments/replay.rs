//! `ft2-repro replay` — deterministic single-trial replay.
//!
//! Every campaign trial derives its RNG stream from `(seed, input, trial)`,
//! so any trial — in particular a crashed one reported in a campaign's
//! crash list — can be re-run in isolation, bit-identically, with verbose
//! tracing: the sampled fault site, the corrupted value, numeric anomalies
//! per layer, and (for protected schemes) the protection verdict. This is
//! the debugging loop for "trial 12345 crashed at protect.rs:88": replay
//! it, watch the corruption propagate, fix the bug, replay again.

use super::sweep::{Cell, Pair, Protect};
use crate::experiments::ExperimentCtx;
use crate::settings::Settings;
use ft2_core::Scheme;
use ft2_fault::{
    CampaignConfig, FaultDuration, FaultModel, FaultTarget, Outcome, ProtectionFactory,
};
use ft2_model::ZooModel;
use ft2_tasks::DatasetId;

/// A parsed `replay` invocation.
#[derive(Clone, Debug)]
pub struct ReplaySpec {
    /// Campaign master seed.
    pub seed: u64,
    /// Input index within the campaign.
    pub input: usize,
    /// Trial index within the input.
    pub trial: usize,
    /// Model to replay on.
    pub model: ZooModel,
    /// Dataset providing prompts and judging.
    pub dataset: DatasetId,
    /// Protection scheme active during the trial.
    pub scheme: Scheme,
    /// Fault model of the campaign.
    pub fault: FaultModel,
    /// Fault duration of the campaign (transient / intermittent / persistent).
    pub duration: FaultDuration,
    /// Fault target of the campaign (activation / weight / kv-cache).
    pub target: FaultTarget,
}

impl ReplaySpec {
    /// Parse the positional `<seed>/<input>/<trial>` triple (seed accepts
    /// decimal or `0x` hex) with defaults for the remaining fields.
    pub fn parse(triple: &str) -> Result<ReplaySpec, String> {
        let parts: Vec<&str> = triple.split('/').collect();
        if parts.len() != 3 {
            return Err(format!("expected <seed>/<input>/<trial>, got {triple:?}"));
        }
        let seed = parse_u64(parts[0])
            .ok_or_else(|| format!("bad seed {:?} (decimal or 0x hex)", parts[0]))?;
        let input = parts[1]
            .parse()
            .map_err(|_| format!("bad input index {:?}", parts[1]))?;
        let trial = parts[2]
            .parse()
            .map_err(|_| format!("bad trial index {:?}", parts[2]))?;
        Ok(ReplaySpec {
            seed,
            input,
            trial,
            model: ZooModel::Qwen2_1_5B,
            dataset: DatasetId::Squad,
            scheme: Scheme::NoProtection,
            fault: FaultModel::SingleBit,
            duration: FaultDuration::Transient,
            target: FaultTarget::Activation,
        })
    }

    /// Apply a `--model/--dataset/--scheme/--fault/--duration/--target`
    /// override.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "--model" => {
                self.model =
                    ZooModel::parse(value).ok_or_else(|| format!("unknown model {value:?}"))?;
            }
            "--dataset" => {
                self.dataset =
                    DatasetId::parse(value).ok_or_else(|| format!("unknown dataset {value:?}"))?;
            }
            "--scheme" => {
                let name = value.to_ascii_lowercase();
                self.scheme = SCHEMES
                    .iter()
                    .find(|(cli, _)| *cli == name)
                    .ok_or_else(|| format!("unknown scheme {name:?}"))?
                    .1;
            }
            "--fault" => {
                self.fault = FaultModel::parse(value)
                    .ok_or_else(|| format!("unknown fault model {value:?}"))?;
            }
            "--duration" => {
                self.duration = FaultDuration::parse(value)
                    .ok_or_else(|| format!("unknown fault duration {value:?}"))?;
            }
            "--target" => {
                self.target = FaultTarget::parse(value)
                    .ok_or_else(|| format!("unknown fault target {value:?}"))?;
            }
            other => return Err(format!("unknown replay option {other:?}")),
        }
        Ok(())
    }

    /// The spec of trial `(input, trial)` of a sweep cell whose campaign is
    /// sized by `s`, or what about the cell the replay options cannot
    /// express.
    pub fn for_cell(
        cell: &Cell,
        s: &Settings,
        input: usize,
        trial: usize,
    ) -> Result<ReplaySpec, String> {
        let c = &cell.config;
        let scheme = match cell.protect {
            Protect::Scheme(scheme) => scheme,
            Protect::Ft2Repair => return Err("integrity layer".into()),
            Protect::Ft2Scale(_) | Protect::AllBut(_) => return Err("custom protection".into()),
        };
        let model = ZooModel::parse(cell.model.name())
            .filter(|m| format!("{:?}", m.spec().config) == format!("{:?}", cell.model.config))
            .ok_or("model config outside the zoo")?;
        let unexpressed = [
            (c.layer_filter.is_some(), "layer filter"),
            (
                c.step_filter != ft2_fault::StepFilter::AllSteps,
                "step filter",
            ),
            (
                c.step_weighting != ft2_fault::StepWeighting::default(),
                "step weighting",
            ),
        ];
        if let Some((_, what)) = unexpressed.iter().find(|(differs, _)| *differs) {
            return Err(what.to_string());
        }
        let spec = ReplaySpec {
            seed: c.seed,
            input,
            trial,
            model,
            dataset: cell.dataset,
            scheme,
            fault: c.fault_model,
            duration: c.fault_duration,
            target: c.fault_target,
        };
        // Anything else a cell edits (a recovery budget, say) replay cannot set.
        if format!("{:?}", spec.config(s)) != format!("{c:?}") {
            return Err("campaign config".into());
        }
        Ok(spec)
    }

    /// The `ft2-repro replay` command line of this spec; [`ReplaySpec::parse`]
    /// and [`ReplaySpec::set`] read it back.
    pub fn command(&self) -> String {
        let duration = match self.duration {
            FaultDuration::Intermittent { period } => format!("intermittent:{period}"),
            d => d.name().to_string(),
        };
        let scheme = SCHEMES
            .iter()
            .find(|(_, s)| *s == self.scheme)
            .expect("a name per scheme");
        format!(
            "ft2-repro replay {:#x}/{}/{} --model {} --dataset {} --scheme {} --fault {} \
             --duration {duration} --target {}",
            self.seed,
            self.input,
            self.trial,
            self.model.spec().name(),
            self.dataset.name().replace(' ', "-"),
            scheme.0,
            self.fault.name(),
            self.target.name(),
        )
    }

    /// The campaign configuration of this spec under sizing `s`.
    fn config(&self, s: &Settings) -> CampaignConfig {
        let mut cfg = s.campaign(self.dataset, self.fault);
        cfg.seed = self.seed;
        cfg.fault_duration = self.duration;
        cfg.fault_target = self.target;
        cfg
    }

    /// The pair, campaign configuration and protection this spec replays
    /// under `ctx`'s sizing: built by the sweep runner's pair builder, with
    /// the spec's seed in place of `FT2_SEED`.
    pub(crate) fn parts(
        &self,
        ctx: &ExperimentCtx,
    ) -> (Pair, CampaignConfig, Box<dyn ProtectionFactory>) {
        let s = Settings {
            seed: self.seed,
            ..ctx.settings
        };
        let offline = self.scheme.needs_offline_bounds();
        let pair = Pair::new(&s, &ctx.pool, &self.model.spec(), self.dataset, offline);
        let factory = Protect::Scheme(self.scheme).factory(&pair, &s);
        (pair, self.config(&s), factory)
    }
}

/// `--scheme` names; the first of each scheme is the one commands print.
const SCHEMES: [(&str, Scheme); 12] = [
    ("none", Scheme::NoProtection),
    ("no-protection", Scheme::NoProtection),
    ("unprotected", Scheme::NoProtection),
    ("ranger", Scheme::Ranger),
    ("maximals", Scheme::MaxiMals),
    ("clipper", Scheme::GlobalClipper),
    ("global-clipper", Scheme::GlobalClipper),
    ("ft2", Scheme::Ft2),
    ("ft2-offline", Scheme::Ft2Offline),
    ("ft2-clip-zero", Scheme::Ft2ClipToZero),
    ("full", Scheme::FullProtection),
    ("full-protection", Scheme::FullProtection),
];

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Replay one trial with verbose tracing, printing the report to stdout.
///
/// The campaign (prompts, references, site derivation) is built by the
/// same pair builder every sweep uses, so the replayed trial is the trial
/// the campaign ran.
pub fn run(ctx: &ExperimentCtx, spec: &ReplaySpec) -> Result<(), String> {
    let s = &ctx.settings;
    if spec.input >= s.inputs || spec.trial >= s.trials {
        return Err(format!(
            "trial {}/{} outside the campaign grid of {} inputs x {} trials \
             (set FT2_INPUTS/FT2_TRIALS to the original campaign sizing)",
            spec.input, spec.trial, s.inputs, s.trials
        ));
    }

    let (pair, config, factory) = spec.parts(ctx);
    let campaign = pair.campaign(&ctx.pool, config);
    let (record, trace) = campaign.trial_record_traced(factory.as_ref(), spec.input, spec.trial);

    println!("{}", spec.command());
    let site = &record.site;
    println!(
        "fault site: step {} | block {} {} | element {} | bits {:?} ({}) | {} {}",
        site.step,
        site.point.block,
        site.point.layer.name(),
        site.element,
        site.bits,
        record.bit_class,
        site.duration.name(),
        site.target.name(),
    );
    match trace.injected {
        Some((original, corrupted)) => {
            println!("injected:   {original:e} -> {corrupted:e}");
        }
        None => println!("injected:   (site not reached before the trial ended)"),
    }
    match &record.outcome {
        Outcome::Crash { site, message } => {
            println!("outcome:    CRASH at {site}");
            println!("            {message}");
        }
        Outcome::Hang => println!("outcome:    HANG (watchdog abort)"),
        other => println!("outcome:    {other:?}"),
    }

    println!("reference:  {:?}", trace.reference);
    if record.outcome.is_due() {
        println!("faulty:     (no generation — trial aborted)");
    } else {
        println!("faulty:     {:?}", trace.tokens);
        match trace
            .reference
            .iter()
            .zip(&trace.tokens)
            .position(|(a, b)| a != b)
        {
            Some(k) => println!("            first divergence at token {k}"),
            None if trace.tokens.len() != trace.reference.len() => {
                println!("            diverges in length only")
            }
            None => println!("            streams identical"),
        }
    }

    println!(
        "anomalies:  {} event(s) over {} hook firings, peak |value| {:e}",
        trace.events.len(),
        trace.firings,
        trace.peak_abs
    );
    for e in &trace.events {
        println!(
            "  step {:>3} | block {} {:<9} {:?}: {} NaN, {} Inf, max|x| {:e}",
            e.step,
            e.point.block,
            e.point.layer.name(),
            e.hook,
            e.nan,
            e.inf,
            e.max_abs
        );
    }

    // Per-step detection budget of the accepted execution: this is the
    // evidence trail for why the engine rolled a token back (Storm) or let
    // it stand (Clean/Corrected). Steps are only recorded by the recovery-
    // aware engine path, so the table shows the prefill at step 0 and every
    // decode step exactly once.
    if !trace.steps.is_empty() {
        println!(
            "verdicts:   {} rollback(s), {} storm(s), {} weight repair(s), \
             {} kv repair(s), {} repair retry(ies) across the trial",
            record.rollbacks,
            record.storms,
            record.weight_repairs,
            record.kv_repairs,
            record.repair_retries
        );
        println!("  step | clamps | NaNs | verdict   | re-decodes");
        for s in &trace.steps {
            println!(
                "  {:>4} | {:>6} | {:>4} | {:<9} | {}",
                s.step,
                s.report.clamps,
                s.report.nans,
                format!("{:?}", s.report.verdict),
                s.redecodes
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::campaigns;
    use crate::experiments::sweep::replay_pointer;
    use crate::experiments::tests::tiny_ctx;
    use proptest::prelude::*;

    #[test]
    fn spec_parses_triple_and_overrides() {
        let mut spec = ReplaySpec::parse("0xF7/2/13").unwrap();
        assert_eq!((spec.seed, spec.input, spec.trial), (0xF7, 2, 13));
        spec.set("--dataset", "gsm8k").unwrap();
        assert_eq!(spec.dataset, DatasetId::Gsm8k);
        spec.set("--scheme", "ft2").unwrap();
        assert_eq!(spec.scheme, Scheme::Ft2);
        spec.set("--duration", "intermittent:3").unwrap();
        assert_eq!(spec.duration, FaultDuration::Intermittent { period: 3 });
        spec.set("--target", "weight").unwrap();
        assert_eq!(spec.target, FaultTarget::Weight);
        assert!(spec.set("--scheme", "nonsense").is_err());
        assert!(spec.set("--duration", "forever").is_err());
        assert!(spec.set("--target", "dram").is_err());
        assert!(ReplaySpec::parse("1/2").is_err());
        assert!(ReplaySpec::parse("x/2/3").is_err());
    }

    #[test]
    fn replay_runs_a_trial_end_to_end() {
        let ctx = tiny_ctx();
        let mut spec = ReplaySpec::parse("7/1/2").unwrap();
        spec.set("--fault", "exp").unwrap();
        run(&ctx, &spec).unwrap();
        // Out-of-grid indices are rejected, not panicked on.
        let bad = ReplaySpec::parse("7/999/0").unwrap();
        assert!(run(&ctx, &bad)
            .unwrap_err()
            .contains("outside the campaign"));
    }

    #[test]
    fn crash_pointers_replay_the_cell_they_name() {
        let mut ctx = tiny_ctx();
        let s = ctx.settings;
        let (fig13, fig2) = (campaigns::fig13(&s), campaigns::fig2(&s));
        let grid_cell = fig13.cells.iter().find(|c| {
            c.dataset == DatasetId::Xtreme
                && c.config.fault_model == FaultModel::DoubleBit
                && c.protect == Protect::Scheme(Scheme::Ft2Offline)
        });
        // A Fig. 13 cell (offline bounds), and Fig. 2's FT2 at four times
        // the trials: the pointer carries the sizing.
        for cell in [grid_cell.unwrap(), fig2.cells.last().unwrap()] {
            let pair = Pair::new(&s, &ctx.pool, &cell.model, cell.dataset, true);
            let factory = cell.protect.factory(&pair, &s);
            let want = pair
                .campaign(&ctx.pool, cell.config.clone())
                .fingerprint(factory.scheme_name());

            let pointer = replay_pointer(cell, &s, 2, 3);
            let mut words = pointer
                .strip_prefix("replay: ")
                .expect(&pointer)
                .split_whitespace();
            ctx.settings = s;
            for word in words.by_ref() {
                match word.split_once('=') {
                    Some(("FT2_TRIALS", n)) => ctx.settings.trials = n.parse().unwrap(),
                    _ => break,
                }
            }
            assert_eq!(
                ctx.settings.trials, cell.config.trials_per_input,
                "{pointer}"
            );
            assert_eq!(words.next(), Some("replay"));
            let mut spec = ReplaySpec::parse(words.next().unwrap()).unwrap();
            let options: Vec<&str> = words.collect();
            for option in options.chunks(2) {
                spec.set(option[0], option[1]).unwrap();
            }
            assert_eq!((spec.input, spec.trial), (2, 3));
            let (pair, config, factory) = spec.parts(&ctx);
            let got = pair
                .campaign(&ctx.pool, config)
                .fingerprint(factory.scheme_name());
            assert_eq!(got, want, "{pointer}");
        }

        // Cells the replay options cannot express say what instead.
        let unexpressed = [
            (&campaigns::fig9(&s).cells[1], "custom protection"),
            (&campaigns::fig6(&s).cells[0], "custom protection"),
            (&campaigns::fig11(&s).cells[2], "step filter"),
            (&campaigns::step_weighting(&s).cells[3], "step weighting"),
            (
                &campaigns::fig15(&s).cells[5],
                "model config outside the zoo",
            ),
            (&campaigns::persistent(&s).cells[7], "integrity layer"),
        ];
        for (cell, what) in unexpressed {
            assert_eq!(
                replay_pointer(cell, &s, 0, 0),
                format!("not replayable: {what}")
            );
        }
    }

    #[test]
    fn hostile_triples_return_a_typed_error() {
        let digits = "9".repeat(100_000);
        let huge = [
            format!("{digits}/1/2"),
            format!("1/{digits}/2"),
            format!("0x{digits}/1/2"),
        ];
        let fixed = [
            "18446744073709551616/0/0",
            "0x/1/2",
            "///",
            "1\0/2/3",
            "1/2/3\0",
            "é/1/2",
            "1é/2/3",
            "1/é2/3",
            "1/2/é",
            "0xé/1/2",
        ];
        for triple in huge.iter().map(String::as_str).chain(fixed) {
            let result = ReplaySpec::parse(triple);
            assert!(result.as_ref().is_err_and(|e| !e.is_empty()), "{result:?}");
        }
    }

    proptest! {
        /// Arbitrary bytes, bare or in each slot of the triple, parse to
        /// `Ok` or an error — never a panic.
        #[test]
        fn arbitrary_triples_parse_without_panicking(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
            let raw = String::from_utf8_lossy(&bytes);
            for triple in [raw.to_string(), format!("{raw}/1/2"), format!("0x{raw}/{raw}/{raw}")] {
                if let Err(err) = ReplaySpec::parse(&triple) {
                    prop_assert!(!err.is_empty());
                }
            }
        }
    }
}
