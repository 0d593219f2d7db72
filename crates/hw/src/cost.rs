//! FLOP/byte accounting and the roofline time model.

use crate::profiles::HwProfile;
use ft2_model::zoo::ModelSpec;

/// The dimensions of a (paper-scale) transformer workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadShape {
    /// Hidden dimension.
    pub hidden: usize,
    /// Decoder blocks.
    pub blocks: usize,
    /// MLP intermediate dimension.
    pub ffn: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Gated MLP (3 FFN matrices) vs classic (2).
    pub gated_mlp: bool,
    /// Bytes per stored element (2 = FP16, 4 = FP32).
    pub bytes_per_element: usize,
    /// Number of range-restricted (protected) layers per block under FT2.
    pub protected_per_block: usize,
}

impl WorkloadShape {
    /// Build from a zoo entry's paper-scale dimensions.
    pub fn from_spec(spec: &ModelSpec) -> WorkloadShape {
        let gated = matches!(spec.config.style, ft2_model::ArchStyle::LlamaStyle);
        WorkloadShape {
            hidden: spec.paper.hidden,
            blocks: spec.paper.blocks,
            ffn: spec.paper.ffn,
            vocab: spec.paper.vocab,
            gated_mlp: gated,
            bytes_per_element: 2,
            // FT2 critical layers: V/OUT/FC2 (3) or V/OUT/UP/DOWN (4).
            protected_per_block: if gated { 4 } else { 3 },
        }
    }

    /// Weight parameters inside the decoder blocks.
    pub fn block_params(&self) -> f64 {
        let h = self.hidden as f64;
        let f = self.ffn as f64;
        let mats = 4.0 * h * h
            + if self.gated_mlp {
                3.0 * h * f
            } else {
                2.0 * h * f
            };
        mats * self.blocks as f64
    }

    /// All streamed parameters (blocks + LM head + embedding read).
    pub fn total_params(&self) -> f64 {
        self.block_params() + (self.vocab * self.hidden) as f64
    }

    /// FLOPs to process one token at context length `ctx` (GEMMs count
    /// 2 FLOPs per MAC; attention adds the score/value products).
    pub fn flops_per_token(&self, ctx: usize) -> f64 {
        let h = self.hidden as f64;
        let gemm = 2.0 * self.block_params() + 2.0 * (self.vocab as f64) * h;
        let attn = self.blocks as f64 * 4.0 * h * ctx as f64;
        gemm + attn
    }

    /// FLOPs for a prefill over `prompt` tokens.
    pub fn prefill_flops(&self, prompt: usize) -> f64 {
        // Token t attends to t positions; sum over prompt.
        let h = self.hidden as f64;
        let gemm = (2.0 * self.block_params() + 2.0 * (self.vocab as f64) * h) * prompt as f64;
        let attn: f64 =
            self.blocks as f64 * 4.0 * h * (prompt as f64 * (prompt as f64 + 1.0) / 2.0);
        gemm + attn
    }

    /// Bytes of weights streamed per decode step.
    pub fn bytes_per_token(&self) -> f64 {
        self.total_params() * self.bytes_per_element as f64
    }

    /// Approximate kernel launches per decode step (linears + norms +
    /// attention ops per block, unfused eager-mode framework).
    pub fn kernels_per_token(&self) -> f64 {
        let per_block = if self.gated_mlp { 7.0 } else { 6.0 } + 8.0;
        per_block * self.blocks as f64 + 4.0
    }
}

/// Time split of one inference.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InferenceBreakdown {
    /// First-token (prefill) time, seconds.
    pub prefill_s: f64,
    /// All decode steps, seconds.
    pub decode_s: f64,
}

impl InferenceBreakdown {
    /// Total inference time.
    pub fn total_s(&self) -> f64 {
        self.prefill_s + self.decode_s
    }

    /// The Fig. 10 quantity: first-token share of total time.
    pub fn first_token_share(&self) -> f64 {
        self.prefill_s / self.total_s()
    }
}

/// The roofline cost model.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    profile: HwProfile,
    /// Eager-mode framework inefficiency on top of the roofline (the
    /// paper's stack is unfused HuggingFace PyTorch; ~3x off roofline is
    /// typical and reproduces the §5.2.2 per-inference latencies).
    pub framework_factor: f64,
    /// Per-protected-layer cost of the fused clamp+nan_to_num kernel,
    /// seconds (launch dominated).
    pub protection_kernel_s: f64,
    /// Host-to-device link bandwidth, bytes/s (PCIe 4.0 x16 effective).
    /// A full restart re-stages every weight over this link; shard-level
    /// repair restores from an on-device golden copy at `mem_bw` instead —
    /// the gap is why the repair rung beats a restart.
    pub host_link_bw: f64,
}

impl CostModel {
    /// Model for a hardware profile with default calibration.
    pub fn new(profile: HwProfile) -> CostModel {
        CostModel {
            profile,
            framework_factor: 3.0,
            protection_kernel_s: 8e-6,
            host_link_bw: 25e9,
        }
    }

    /// The underlying hardware profile.
    pub fn profile(&self) -> &HwProfile {
        &self.profile
    }

    /// Prefill (first-token) time for a prompt.
    pub fn prefill_time(&self, shape: &WorkloadShape, prompt: usize) -> f64 {
        let flops = shape.prefill_flops(prompt);
        let compute = flops / self.profile.flops_for_width(shape.bytes_per_element);
        let bytes = shape.bytes_per_token(); // weights streamed once
        let memory = bytes / self.profile.mem_bw;
        let kernels = shape.kernels_per_token() * self.profile.kernel_overhead;
        (compute.max(memory) + kernels) * self.framework_factor
    }

    /// One decode step at context length `ctx`.
    pub fn decode_step_time(&self, shape: &WorkloadShape, ctx: usize) -> f64 {
        let flops = shape.flops_per_token(ctx);
        let compute = flops / self.profile.flops_for_width(shape.bytes_per_element);
        let memory = shape.bytes_per_token() / self.profile.mem_bw;
        let kernels = shape.kernels_per_token() * self.profile.kernel_overhead;
        (compute.max(memory) + kernels) * self.framework_factor
    }

    /// Full generation: prefill + `gen_tokens - 1` decode steps.
    pub fn generation_time(
        &self,
        shape: &WorkloadShape,
        prompt: usize,
        gen_tokens: usize,
    ) -> InferenceBreakdown {
        let prefill_s = self.prefill_time(shape, prompt);
        let mut decode_s = 0.0;
        for t in 1..gen_tokens {
            decode_s += self.decode_step_time(shape, prompt + t);
        }
        InferenceBreakdown {
            prefill_s,
            decode_s,
        }
    }

    /// Extra time per generation step from FT2's protection taps: one fused
    /// clamp+nan kernel per protected layer plus the activation re-read.
    pub fn protection_time_per_step(&self, shape: &WorkloadShape) -> f64 {
        let layers = (shape.protected_per_block * shape.blocks) as f64;
        let avg_features = (2 * shape.hidden + 2 * shape.ffn) as f64 / 4.0;
        let bytes = avg_features * shape.bytes_per_element as f64 * 2.0;
        layers * (self.protection_kernel_s + bytes / self.profile.mem_bw)
    }

    /// FT2 runtime overhead as a fraction of unprotected generation time
    /// (the Fig. 14 quantity).
    pub fn protection_overhead(
        &self,
        shape: &WorkloadShape,
        prompt: usize,
        gen_tokens: usize,
    ) -> f64 {
        let base = self.generation_time(shape, prompt, gen_tokens).total_s();
        let extra = self.protection_time_per_step(shape) * gen_tokens as f64;
        extra / base
    }

    /// Cost of one token rollback at context length `ctx`: the KV truncate
    /// is free (a length reset), so a rollback re-pays the decode step plus
    /// the protection taps of the re-decode — which runs with escalated
    /// coverage (activations on), hence the extra activation-point kernels.
    pub fn rollback_time(&self, shape: &WorkloadShape, ctx: usize) -> f64 {
        let activation_points = if shape.gated_mlp { 2.0 } else { 1.0 };
        let escalation_extra = activation_points * shape.blocks as f64 * self.protection_kernel_s;
        self.decode_step_time(shape, ctx) + self.protection_time_per_step(shape) + escalation_extra
    }

    /// Recovery (rollback re-decode) overhead as a fraction of unprotected
    /// generation time, given the campaign-observed rollbacks per
    /// generation. Rollbacks are charged at the worst-case context (end of
    /// the generation), so this slightly over-states the true cost.
    pub fn recovery_overhead(
        &self,
        shape: &WorkloadShape,
        prompt: usize,
        gen_tokens: usize,
        rollbacks_per_generation: f64,
    ) -> f64 {
        let base = self.generation_time(shape, prompt, gen_tokens).total_s();
        let extra = self.rollback_time(shape, prompt + gen_tokens) * rollbacks_per_generation;
        extra / base
    }

    /// Time per decode step spent by the background integrity scrubber
    /// re-reading and checksumming `tiles` weight tiles of `tile_elems`
    /// elements each. The scrub is a streaming read (CRC table lookups are
    /// negligible next to the memory traffic) plus one kernel launch per
    /// step to drive it.
    pub fn scrub_time(&self, shape: &WorkloadShape, tiles: usize, tile_elems: usize) -> f64 {
        if tiles == 0 {
            return 0.0;
        }
        let bytes = (tiles * tile_elems * shape.bytes_per_element) as f64;
        self.profile.kernel_overhead + bytes / self.profile.mem_bw
    }

    /// Integrity-scrub overhead as a fraction of unprotected generation
    /// time, at `tiles` tiles verified per decode step.
    pub fn scrub_overhead(
        &self,
        shape: &WorkloadShape,
        prompt: usize,
        gen_tokens: usize,
        tiles: usize,
        tile_elems: usize,
    ) -> f64 {
        let base = self.generation_time(shape, prompt, gen_tokens).total_s();
        let extra = self.scrub_time(shape, tiles, tile_elems) * gen_tokens as f64;
        extra / base
    }

    /// Shard-level repair time: re-read and checksum one shard's weight
    /// slice (`1/shards` of the block weights) and restore corrupt tiles
    /// from the on-device golden copy — a verify read plus a restore write,
    /// both at device memory bandwidth.
    pub fn shard_repair_time(&self, shape: &WorkloadShape, shards: usize) -> f64 {
        let slice_bytes =
            shape.block_params() * shape.bytes_per_element as f64 / shards.max(1) as f64;
        self.profile.kernel_overhead + 2.0 * slice_bytes / self.profile.mem_bw
    }

    /// Degrade re-partition time: after evicting a dead shard, the block
    /// weights are re-sliced across the survivors — every surviving device
    /// re-reads its fresh slice from the replicated host copy, in parallel,
    /// each pulling `1/survivors` of the block weights over the host link.
    pub fn repartition_time(&self, shape: &WorkloadShape, survivors: usize) -> f64 {
        let slice_bytes =
            shape.block_params() * shape.bytes_per_element as f64 / survivors.max(1) as f64;
        self.profile.kernel_overhead + slice_bytes / self.host_link_bw
    }

    /// Full-restart time: the recovery baseline shard repair is measured
    /// against. Every weight is re-staged over the host link and the whole
    /// prompt is re-prefilled; all generated tokens so far are lost.
    pub fn full_restart_time(&self, shape: &WorkloadShape, prompt: usize) -> f64 {
        let weight_bytes = shape.total_params() * shape.bytes_per_element as f64;
        weight_bytes / self.host_link_bw + self.prefill_time(shape, prompt)
    }

    /// Cross-replica failover time for one in-flight request: the
    /// surviving replica re-prefills the prompt and replays the
    /// `tokens_done` already-accepted tokens as single-token steps (the
    /// bit-identity handoff shape — a joint replay would perturb the
    /// continuation). No weights move: the survivor is warm, which is why
    /// failing over beats restarting the dead replica and waiting.
    pub fn failover_time(&self, shape: &WorkloadShape, prompt: usize, tokens_done: usize) -> f64 {
        let mut t = self.prefill_time(shape, prompt);
        for j in 0..tokens_done {
            t += self.decode_step_time(shape, prompt + j);
        }
        t
    }

    /// Replica-rebuild time: CRC-verify every weight tile of the
    /// quarantined replica against the golden checksums (one streaming
    /// read at device bandwidth) and restore the corrupt fraction from
    /// the on-device golden copy (a read plus a write). Measured against
    /// [`CostModel::full_restart_time`], which re-stages every weight
    /// over the far slower host link — the gap is why
    /// quarantine→rebuild→rejoin beats a full restart.
    pub fn rebuild_time(&self, shape: &WorkloadShape, corrupt_fraction: f64) -> f64 {
        let weight_bytes = shape.total_params() * shape.bytes_per_element as f64;
        let verify = weight_bytes / self.profile.mem_bw;
        let restore = 2.0 * corrupt_fraction.clamp(0.0, 1.0) * weight_bytes / self.profile.mem_bw;
        self.profile.kernel_overhead + verify + restore
    }

    /// Offline bound-profiling time for `n_inputs` full generations
    /// (the Fig. 4 quantity), in seconds.
    pub fn profiling_time(
        &self,
        shape: &WorkloadShape,
        n_inputs: usize,
        prompt: usize,
        gen_tokens: usize,
    ) -> f64 {
        self.generation_time(shape, prompt, gen_tokens).total_s() * n_inputs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{A100, GH200_H100};
    use ft2_model::ZooModel;

    fn llama_shape() -> WorkloadShape {
        WorkloadShape::from_spec(&ZooModel::Llama2_7B.spec())
    }

    fn opt_shape() -> WorkloadShape {
        WorkloadShape::from_spec(&ZooModel::Opt6_7B.spec())
    }

    #[test]
    fn param_accounting_matches_published_sizes() {
        // Llama2-7B block params + head should be ~6.5B (embedding table
        // excluded from streaming count once).
        let s = llama_shape();
        let total = s.total_params();
        assert!(total > 6.0e9 && total < 7.2e9, "total {total:e}");
        let o = opt_shape();
        let t = o.total_params();
        assert!(t > 6.0e9 && t < 7.4e9, "opt {t:e}");
    }

    #[test]
    fn decode_is_memory_bound_prefill_compute_bound() {
        let model = CostModel::new(A100);
        let s = llama_shape();
        // Decode: memory term dominates compute term.
        let flops = s.flops_per_token(512);
        let compute = flops / A100.fp16_flops;
        let memory = s.bytes_per_token() / A100.mem_bw;
        assert!(memory > compute, "decode should be memory-bound");
        // Prefill with a long prompt: compute dominates.
        let pf_flops = s.prefill_flops(512);
        let pf_compute = pf_flops / A100.fp16_flops;
        assert!(pf_compute > memory, "prefill should be compute-bound");
        let _ = model;
    }

    #[test]
    fn per_inference_latency_matches_paper_range() {
        // §5.2.2: inference takes 1.35–6.4 s on A100 (60 QA tokens or 180
        // math tokens across the seven models).
        let model = CostModel::new(A100);
        let qa = model.generation_time(&opt_shape(), 150, 60).total_s();
        assert!(qa > 1.0 && qa < 7.0, "QA inference {qa}s");
        let math = model.generation_time(&llama_shape(), 80, 180).total_s();
        assert!(math > 2.0 && math < 10.0, "math inference {math}s");
    }

    #[test]
    fn first_token_share_matches_fig10() {
        // Fig. 10: first token is 1.89–8.33% of QA time on A100 and
        // 0.6–2.66% for math.
        let model = CostModel::new(A100);
        let qa = model.generation_time(&opt_shape(), 150, 60);
        let share = qa.first_token_share();
        assert!(share > 0.01 && share < 0.10, "QA share {share}");
        let math = model.generation_time(&llama_shape(), 80, 180);
        let mshare = math.first_token_share();
        assert!(mshare < share, "math share must be smaller");
        assert!(mshare > 0.003 && mshare < 0.03, "math share {mshare}");
    }

    #[test]
    fn h100_is_faster_and_has_smaller_first_token_share() {
        let a = CostModel::new(A100);
        let h = CostModel::new(GH200_H100);
        let s = llama_shape();
        let ta = a.generation_time(&s, 150, 60);
        let th = h.generation_time(&s, 150, 60);
        assert!(th.total_s() < ta.total_s());
        assert!(th.first_token_share() <= ta.first_token_share() + 1e-9);
    }

    #[test]
    fn protection_overhead_matches_fig14_range() {
        // Fig. 14: 3.42% average, worst case 8.91% (OPT-2.7B).
        let model = CostModel::new(A100);
        let shapes: Vec<WorkloadShape> = ft2_model::model_zoo()
            .iter()
            .map(WorkloadShape::from_spec)
            .collect();
        let mut overheads = Vec::new();
        for s in &shapes {
            let o = model.protection_overhead(s, 150, 60);
            assert!(o > 0.005 && o < 0.12, "overhead {o}");
            overheads.push(o);
        }
        let avg = overheads.iter().sum::<f64>() / overheads.len() as f64;
        assert!(avg > 0.01 && avg < 0.08, "avg overhead {avg}");
    }

    #[test]
    fn shard_repair_beats_full_restart_on_every_zoo_shape() {
        let model = CostModel::new(A100);
        for spec in ft2_model::model_zoo() {
            let s = WorkloadShape::from_spec(&spec);
            for shards in [2usize, 4, 8] {
                let repair = model.shard_repair_time(&s, shards);
                let repart = model.repartition_time(&s, shards - 1);
                let restart = model.full_restart_time(&s, 150);
                assert!(repair > 0.0 && repair.is_finite());
                assert!(repart > 0.0 && repart.is_finite());
                assert!(
                    repair < restart,
                    "{}: repair {repair}s !< restart {restart}s at {shards} shards",
                    spec.name()
                );
                assert!(
                    repart < restart,
                    "{}: repartition {repart}s !< restart {restart}s",
                    spec.name()
                );
            }
            // More shards -> smaller slices -> cheaper repair.
            assert!(model.shard_repair_time(&s, 8) < model.shard_repair_time(&s, 2));
        }
    }

    #[test]
    fn replica_rebuild_and_failover_beat_full_restart_on_every_zoo_shape() {
        let model = CostModel::new(A100);
        for spec in ft2_model::model_zoo() {
            let s = WorkloadShape::from_spec(&spec);
            let restart = model.full_restart_time(&s, 150);
            for corrupt in [0.0, 0.01, 0.1] {
                let rebuild = model.rebuild_time(&s, corrupt);
                assert!(rebuild > 0.0 && rebuild.is_finite());
                assert!(
                    rebuild < restart,
                    "{}: rebuild {rebuild}s !< restart {restart}s at {corrupt} corrupt",
                    spec.name()
                );
            }
            // More corruption -> more restore writes -> slower rebuild.
            assert!(model.rebuild_time(&s, 0.1) > model.rebuild_time(&s, 0.0));
            for tokens_done in [0usize, 10, 30] {
                let failover = model.failover_time(&s, 150, tokens_done);
                assert!(failover > 0.0 && failover.is_finite());
                // A restart doesn't just restage weights and re-prefill:
                // it also lost the accepted tokens, which must be
                // re-decoded before the request is back where it was.
                // Failover replays them on a warm survivor instead.
                let restart_to_parity = restart
                    + (0..tokens_done)
                        .map(|j| model.decode_step_time(&s, 150 + j))
                        .sum::<f64>();
                assert!(
                    failover < restart_to_parity,
                    "{}: failover {failover}s !< restart-to-parity {restart_to_parity}s \
                     at {tokens_done} tokens",
                    spec.name()
                );
            }
            // Replaying more accepted tokens costs more.
            assert!(model.failover_time(&s, 150, 30) > model.failover_time(&s, 150, 0));
        }
    }

    #[test]
    fn rollback_costs_about_one_decode_step() {
        let model = CostModel::new(A100);
        let s = llama_shape();
        let step = model.decode_step_time(&s, 210);
        let rb = model.rollback_time(&s, 210);
        // Strictly more than a plain step (protection re-runs, escalated
        // coverage adds activation kernels), but within a small factor.
        assert!(rb > step);
        assert!(rb < 1.5 * step, "rollback {rb} vs step {step}");
    }

    #[test]
    fn recovery_overhead_scales_with_rollbacks_and_stays_small() {
        let model = CostModel::new(A100);
        let s = opt_shape();
        let none = model.recovery_overhead(&s, 150, 60, 0.0);
        assert_eq!(none, 0.0);
        let one = model.recovery_overhead(&s, 150, 60, 1.0);
        let three = model.recovery_overhead(&s, 150, 60, 3.0);
        assert!(one > 0.0);
        assert!((three / one - 3.0).abs() < 1e-9, "linear in rollbacks");
        // One rollback in a 60-token generation costs roughly one extra
        // step: ~2% of the inference.
        assert!(one > 0.005 && one < 0.05, "overhead {one}");
    }

    #[test]
    fn scrub_time_scales_with_tiles_and_stays_cheap() {
        let model = CostModel::new(A100);
        let s = opt_shape();
        assert_eq!(model.scrub_time(&s, 0, 256), 0.0);
        let one = model.scrub_time(&s, 8, 256);
        let four = model.scrub_time(&s, 32, 256);
        assert!(one > 0.0);
        assert!(four > one);
        // A modest scrub rate must be a sub-percent tax on generation.
        let o = model.scrub_overhead(&s, 150, 60, 8, 256);
        assert!(o > 0.0 && o < 0.01, "scrub overhead {o}");
        // Scrub stays far below one decode step: it reads KBs, not GBs.
        assert!(four < 0.1 * model.decode_step_time(&s, 210));
    }

    #[test]
    fn profiling_time_matches_fig4_scale() {
        // Fig. 4: 4.7–217.5 hours on A100 with 20% of training data.
        let model = CostModel::new(A100);
        // SQuAD: 26,000 profiling inputs, 60 tokens.
        let squad_h = model.profiling_time(&opt_shape(), 26_000, 150, 60) / 3600.0;
        assert!(squad_h > 5.0 && squad_h < 120.0, "squad {squad_h}h");
        // GSM8K: ~1,495 inputs, 180 tokens.
        let gsm_h = model.profiling_time(&llama_shape(), 1_495, 80, 180) / 3600.0;
        assert!(gsm_h > 1.0 && gsm_h < 20.0, "gsm {gsm_h}h");
        // H100 is faster.
        let h = CostModel::new(GH200_H100);
        let squad_h100 = h.profiling_time(&opt_shape(), 26_000, 150, 60) / 3600.0;
        assert!(squad_h100 < squad_h);
    }
}
