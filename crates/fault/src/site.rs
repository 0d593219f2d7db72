//! Fault-site sampling.
//!
//! §2.3: "For each fault injection trial, the location of the model to
//! inject a fault is identified by the layer ID, neuron ID, and bit
//! locations", restricted to the linear layers of the decoder blocks
//! (they account for the overwhelming majority of the computation). We
//! additionally sample the *generation step* the fault strikes at, weighted
//! by how many neuron computations each step performs — the prefill step
//! computes `prompt_len` positions per layer while decode steps compute one,
//! so a uniformly random computation is proportionally more likely to fall
//! in the prefill.

use crate::model::{FaultDuration, FaultModel, FaultTarget};
use ft2_model::{LayerKind, ModelConfig, TapPoint};
use ft2_numeric::Rng;

/// A fully resolved fault site: where and what to corrupt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSite {
    /// Generation step the fault strikes at (0 = prefill / first-token
    /// step). For durable faults this is the *first* corrupted step.
    pub step: usize,
    /// Block and layer to corrupt.
    pub point: TapPoint,
    /// Flattened element index into the targeted tensor. For
    /// [`FaultTarget::Activation`] this indexes that step's output matrix
    /// (`rows_at_step × out_features` elements); for [`FaultTarget::Weight`]
    /// the layer's weight matrix (`out × in` elements); for
    /// [`FaultTarget::KvCache`] the cached K or V matrix of the block
    /// (`cached_positions × width` elements, wrapped at injection time).
    pub element: usize,
    /// Bit positions to flip (1 for single/EXP, 2 for double).
    pub bits: Vec<u32>,
    /// How long the corruption endures.
    pub duration: FaultDuration,
    /// Which stored tensor class is struck.
    pub target: FaultTarget,
}

/// Restricts which generation steps a sampler may target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepFilter {
    /// Any step of the generation (the default campaign behaviour).
    AllSteps,
    /// Only the prefill / first-token step (the Fig. 11 study).
    FirstTokenOnly,
    /// Only decode steps (protection-effectiveness isolation).
    FollowingTokensOnly,
}

/// How generation steps are weighted when sampling the step a fault
/// strikes at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StepWeighting {
    /// Soft errors are uniform in *time* (cosmic rays strike at a constant
    /// rate, §4.2.2): each step's weight is its execution-time share. On a
    /// GPU the prefill is compute-parallel, so the first-token step costs
    /// only a few decode-step equivalents — the paper measures 0.6–8.3% of
    /// total inference time (Fig. 10). `prefill_factor` is the prefill's
    /// cost in decode-step units (default 2.0, the middle of the paper's
    /// A100 measurements).
    ByTime {
        /// Prefill cost in decode-step equivalents.
        prefill_factor: f64,
    },
    /// Uniform over neuron *computations*: the prefill is weighted by the
    /// prompt length (what a per-FLOP fault model would do on a serial
    /// machine). Kept for ablations.
    ByComputation,
}

impl Default for StepWeighting {
    fn default() -> Self {
        // One decode-step equivalent: with the scaled-down generation
        // lengths used here (16-48 tokens vs the paper's 60-180) this puts
        // the first-token step at 2-6% of inference time, matching the
        // measured shares of Fig. 10.
        StepWeighting::ByTime {
            prefill_factor: 1.0,
        }
    }
}

/// Samples fault sites uniformly over neuron computations.
#[derive(Clone, Debug)]
pub struct SiteSampler {
    layers: Vec<(TapPoint, usize, usize)>, // (point, out_features, in_features)
    prompt_len: usize,
    gen_tokens: usize,
    filter: StepFilter,
    weighting: StepWeighting,
    /// Optional restriction of targetable layer kinds (e.g. inject only
    /// into critical layers for an ablation).
    layer_filter: Option<Vec<LayerKind>>,
    duration: FaultDuration,
    target: FaultTarget,
}

impl SiteSampler {
    /// Sampler over every linear layer of every block.
    pub fn new(config: &ModelConfig, prompt_len: usize, gen_tokens: usize) -> SiteSampler {
        let mut layers = Vec::new();
        for b in 0..config.blocks {
            for &k in config.block_layers() {
                layers.push((
                    TapPoint { block: b, layer: k },
                    config.out_features(k),
                    config.in_features(k),
                ));
            }
        }
        SiteSampler {
            layers,
            prompt_len,
            gen_tokens,
            filter: StepFilter::AllSteps,
            weighting: StepWeighting::default(),
            layer_filter: None,
            duration: FaultDuration::Transient,
            target: FaultTarget::Activation,
        }
    }

    /// Choose how long sampled faults endure (default transient).
    pub fn with_duration(mut self, duration: FaultDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Choose which tensor class sampled faults strike (default
    /// activations, the paper's model).
    pub fn with_target(mut self, target: FaultTarget) -> Self {
        self.target = target;
        self
    }

    /// Choose how generation steps are weighted.
    pub fn with_step_weighting(mut self, weighting: StepWeighting) -> Self {
        self.weighting = weighting;
        self
    }

    /// Restrict the generation steps faults may strike.
    pub fn with_step_filter(mut self, filter: StepFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Restrict the layer kinds faults may strike.
    pub fn with_layer_filter(mut self, kinds: Vec<LayerKind>) -> Self {
        self.layer_filter = Some(kinds);
        self
    }

    fn eligible_layers(&self) -> Vec<(TapPoint, usize, usize)> {
        let mut layers: Vec<(TapPoint, usize, usize)> = match &self.layer_filter {
            None => self.layers.clone(),
            Some(kinds) => self
                .layers
                .iter()
                .filter(|(p, _, _)| kinds.contains(&p.layer))
                .cloned()
                .collect(),
        };
        // KV-cache faults can only strike cached K/V rows, which only the
        // K/V projections produce.
        if self.target == FaultTarget::KvCache {
            layers.retain(|(p, _, _)| matches!(p.layer, LayerKind::KProj | LayerKind::VProj));
        }
        layers
    }

    /// Number of rows a layer output has at a given step.
    fn rows_at_step(&self, step: usize) -> usize {
        if step == 0 {
            self.prompt_len
        } else {
            1
        }
    }

    /// Sample a site. Uniform over `(step, layer, element)` computations
    /// within the allowed steps/layers.
    pub fn sample(
        &self,
        rng: &mut impl Rng,
        fault_model: FaultModel,
        format: ft2_numeric::DType,
    ) -> FaultSite {
        let layers = self.eligible_layers();
        assert!(!layers.is_empty(), "no eligible layers to sample");
        // Per-layer sampling weight: activation and KV faults land
        // proportionally to the layer's output width, weight faults
        // proportionally to the layer's parameter count.
        let layer_weight = |l: &(TapPoint, usize, usize)| -> u64 {
            match self.target {
                FaultTarget::Activation | FaultTarget::KvCache => l.1 as u64,
                FaultTarget::Weight => (l.1 * l.2) as u64,
            }
        };
        let per_layer_features: u64 = layers.iter().map(layer_weight).sum();

        // Total computations per step = rows(step) * sum(features).
        let mut steps: Vec<usize> = match self.filter {
            StepFilter::AllSteps => (0..self.gen_tokens).collect(),
            StepFilter::FirstTokenOnly => vec![0],
            StepFilter::FollowingTokensOnly => (1..self.gen_tokens).collect(),
        };
        // The KV cache is empty before the prefill completes, so cache
        // faults can only strike decode steps.
        if self.target == FaultTarget::KvCache {
            steps.retain(|&s| s >= 1);
            assert!(!steps.is_empty(), "KV-cache faults need a decode step");
        }
        // Weight steps by execution-time share (default) or computation
        // count; scale to integers for exact sampling.
        let weights: Vec<u64> = steps
            .iter()
            .map(|&s| {
                let step_units = match self.weighting {
                    StepWeighting::ByComputation => self.rows_at_step(s) as f64,
                    StepWeighting::ByTime { prefill_factor } => {
                        if s == 0 {
                            prefill_factor
                        } else {
                            1.0
                        }
                    }
                };
                (step_units * 1024.0).round() as u64 * per_layer_features
            })
            .collect();
        let total: u64 = weights.iter().sum();
        let mut pick = rng.below(total);
        let mut step = steps[0];
        for (s, w) in steps.iter().zip(&weights) {
            if pick < *w {
                step = *s;
                break;
            }
            pick -= w;
        }

        // Within the step, pick a layer weighted by its sampling weight,
        // then an element uniformly within the targeted tensor.
        let rows = self.rows_at_step(step);
        let mut fpick = rng.below(per_layer_features);
        let mut chosen = layers[0];
        for l in &layers {
            let w = layer_weight(l);
            if fpick < w {
                chosen = *l;
                break;
            }
            fpick -= w;
        }
        let elements = match self.target {
            FaultTarget::Activation => rows * chosen.1,
            FaultTarget::Weight => chosen.1 * chosen.2,
            // Cached positions before the forward pass of `step` runs:
            // prompt plus the step-1 decode appends (step >= 1 here).
            FaultTarget::KvCache => (self.prompt_len + step - 1) * chosen.1,
        };
        let element = rng.index(elements);
        let bits = fault_model.sample_bits(rng, format);

        FaultSite {
            step,
            point: chosen.0,
            element,
            bits,
            duration: self.duration,
            target: self.target,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft2_numeric::{DType, Xoshiro256StarStar};

    fn sampler() -> SiteSampler {
        let config = ft2_model::ModelConfig::tiny_opt();
        SiteSampler::new(&config, 8, 10)
    }

    #[test]
    fn samples_are_in_bounds() {
        let config = ft2_model::ModelConfig::tiny_opt();
        let s = sampler();
        let mut rng = Xoshiro256StarStar::new(7);
        for _ in 0..5000 {
            let site = s.sample(&mut rng, FaultModel::SingleBit, DType::F16);
            assert!(site.step < 10);
            assert!(site.point.block < config.blocks);
            assert!(config.block_layers().contains(&site.point.layer));
            let rows = if site.step == 0 { 8 } else { 1 };
            assert!(site.element < rows * config.out_features(site.point.layer));
            assert_eq!(site.bits.len(), 1);
        }
    }

    #[test]
    fn time_weighting_gives_prefill_a_small_share() {
        // Default ByTime with prefill_factor 1: step 0 has 1 of 10 units.
        let s = sampler();
        let mut rng = Xoshiro256StarStar::new(8);
        let n = 20_000;
        let step0 = (0..n)
            .filter(|_| s.sample(&mut rng, FaultModel::SingleBit, DType::F16).step == 0)
            .count();
        let frac = step0 as f64 / n as f64;
        let expect = 1.0 / 10.0;
        assert!((frac - expect).abs() < 0.02, "frac {frac} expect {expect}");
    }

    #[test]
    fn computation_weighting_weights_prefill_by_prompt_len() {
        // prompt_len 8, 10 steps: step 0 has 8 of 17 row-units.
        let s = sampler().with_step_weighting(StepWeighting::ByComputation);
        let mut rng = Xoshiro256StarStar::new(8);
        let n = 20_000;
        let step0 = (0..n)
            .filter(|_| s.sample(&mut rng, FaultModel::SingleBit, DType::F16).step == 0)
            .count();
        let frac = step0 as f64 / n as f64;
        let expect = 8.0 / 17.0;
        assert!((frac - expect).abs() < 0.02, "frac {frac} expect {expect}");
    }

    #[test]
    fn layer_weighting_follows_feature_count() {
        // FC1 has ffn=128 features vs 32 for K: FC1 must be sampled ~4x more.
        let s = sampler();
        let mut rng = Xoshiro256StarStar::new(9);
        let n = 30_000;
        let mut fc1 = 0;
        let mut k = 0;
        for _ in 0..n {
            let site = s.sample(&mut rng, FaultModel::SingleBit, DType::F16);
            match site.point.layer {
                LayerKind::Fc1 => fc1 += 1,
                LayerKind::KProj => k += 1,
                _ => {}
            }
        }
        let ratio = fc1 as f64 / k as f64;
        assert!((ratio - 4.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn step_filters() {
        let mut rng = Xoshiro256StarStar::new(10);
        let first = sampler().with_step_filter(StepFilter::FirstTokenOnly);
        for _ in 0..100 {
            assert_eq!(
                first
                    .sample(&mut rng, FaultModel::SingleBit, DType::F16)
                    .step,
                0
            );
        }
        let rest = sampler().with_step_filter(StepFilter::FollowingTokensOnly);
        for _ in 0..100 {
            assert!(
                rest.sample(&mut rng, FaultModel::SingleBit, DType::F16)
                    .step
                    >= 1
            );
        }
    }

    #[test]
    fn layer_filter_restricts_targets() {
        let mut rng = Xoshiro256StarStar::new(11);
        let s = sampler().with_layer_filter(vec![LayerKind::VProj, LayerKind::Fc2]);
        for _ in 0..500 {
            let site = s.sample(&mut rng, FaultModel::ExponentBit, DType::F16);
            assert!(matches!(
                site.point.layer,
                LayerKind::VProj | LayerKind::Fc2
            ));
            assert!((10..=14).contains(&site.bits[0]));
        }
    }

    #[test]
    fn sampling_is_deterministic_per_stream() {
        let s = sampler();
        let mut a = Xoshiro256StarStar::for_stream(42, &[3, 17]);
        let mut b = Xoshiro256StarStar::for_stream(42, &[3, 17]);
        let sa = s.sample(&mut a, FaultModel::DoubleBit, DType::F16);
        let sb = s.sample(&mut b, FaultModel::DoubleBit, DType::F16);
        assert_eq!(sa, sb);
    }

    #[test]
    fn weight_sites_index_the_parameter_matrix() {
        use crate::model::{FaultDuration, FaultTarget};
        let config = ft2_model::ModelConfig::tiny_opt();
        let s = sampler()
            .with_target(FaultTarget::Weight)
            .with_duration(FaultDuration::Persistent);
        let mut rng = Xoshiro256StarStar::new(21);
        for _ in 0..2000 {
            let site = s.sample(&mut rng, FaultModel::SingleBit, DType::F16);
            assert_eq!(site.target, FaultTarget::Weight);
            assert_eq!(site.duration, FaultDuration::Persistent);
            let out = config.out_features(site.point.layer);
            let inf = config.in_features(site.point.layer);
            assert!(
                site.element < out * inf,
                "element {} out of bounds",
                site.element
            );
        }
    }

    #[test]
    fn kv_sites_strike_decode_steps_on_kv_projections() {
        use crate::model::FaultTarget;
        let config = ft2_model::ModelConfig::tiny_opt();
        let s = sampler().with_target(FaultTarget::KvCache);
        let mut rng = Xoshiro256StarStar::new(22);
        for _ in 0..2000 {
            let site = s.sample(&mut rng, FaultModel::SingleBit, DType::F16);
            assert!(site.step >= 1, "cache is empty before the prefill");
            assert!(matches!(
                site.point.layer,
                LayerKind::KProj | LayerKind::VProj
            ));
            // prompt_len 8, so at step s the cache holds 8 + s - 1 rows.
            let cached = 8 + site.step - 1;
            assert!(site.element < cached * config.out_features(site.point.layer));
        }
    }

    #[test]
    fn kv_target_respects_layer_filter_intersection() {
        use crate::model::FaultTarget;
        let s = sampler()
            .with_target(FaultTarget::KvCache)
            .with_layer_filter(vec![LayerKind::KProj, LayerKind::Fc1]);
        let mut rng = Xoshiro256StarStar::new(23);
        for _ in 0..200 {
            let site = s.sample(&mut rng, FaultModel::SingleBit, DType::F16);
            assert_eq!(site.point.layer, LayerKind::KProj);
        }
    }
}
