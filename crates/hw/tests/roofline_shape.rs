//! Shape tests for the roofline model against every published timing claim.

use ft2_hw::{CostModel, WorkloadShape, A100, GH200_H100};
use ft2_model::{model_zoo, ZooModel};
use proptest::prelude::*;

#[test]
fn per_model_latency_ordering_follows_parameter_count() {
    // Bigger models must take longer per inference on the same platform.
    let model = CostModel::new(A100);
    let t = |m: ZooModel| {
        model
            .generation_time(&WorkloadShape::from_spec(&m.spec()), 150, 60)
            .total_s()
    };
    assert!(t(ZooModel::Qwen2_7B) > t(ZooModel::Qwen2_1_5B));
    assert!(t(ZooModel::Opt6_7B) > t(ZooModel::Opt2_7B));
}

#[test]
fn overhead_is_worst_on_the_smallest_model() {
    // Fig. 14: OPT-2.7B has the worst relative protection overhead because
    // its per-step base time is smallest while the per-layer kernel cost is
    // roughly constant.
    let model = CostModel::new(A100);
    let overhead =
        |m: ZooModel| model.protection_overhead(&WorkloadShape::from_spec(&m.spec()), 150, 60);
    let worst = model_zoo()
        .iter()
        .map(|s| {
            (
                s.name().to_string(),
                model.protection_overhead(&WorkloadShape::from_spec(s), 150, 60),
            )
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    assert!(
        worst.0.contains("1.5B") || worst.0.contains("2.7B"),
        "worst overhead should be a small model, got {}",
        worst.0
    );
    assert!(overhead(ZooModel::Opt2_7B) > overhead(ZooModel::Opt6_7B));
}

proptest! {
    /// First-token share decreases as the number of generated tokens grows
    /// (more decode steps amortise one prefill).
    #[test]
    fn first_token_share_monotone_in_gen(extra in 1usize..200) {
        let model = CostModel::new(A100);
        let shape = WorkloadShape::from_spec(&ZooModel::Llama2_7B.spec());
        let short = model.generation_time(&shape, 150, 30).first_token_share();
        let long = model.generation_time(&shape, 150, 30 + extra).first_token_share();
        prop_assert!(long < short);
    }

    /// Prefill time grows with prompt length; decode-step time grows with
    /// context length.
    #[test]
    fn times_monotone_in_lengths(p1 in 16usize..256, dp in 1usize..256) {
        let model = CostModel::new(GH200_H100);
        let shape = WorkloadShape::from_spec(&ZooModel::Opt6_7B.spec());
        // At small prompts the prefill is bound by the constant weight
        // stream, so growth is only weak (>=); it becomes strict once
        // compute-bound.
        prop_assert!(model.prefill_time(&shape, p1 + dp) >= model.prefill_time(&shape, p1));
        prop_assert!(model.prefill_time(&shape, 2048) > model.prefill_time(&shape, 1024));
        prop_assert!(
            model.decode_step_time(&shape, p1 + dp) >= model.decode_step_time(&shape, p1)
        );
    }

    /// Profiling time is linear in the number of profiled inputs.
    #[test]
    fn profiling_is_linear(n in 1usize..10_000) {
        let model = CostModel::new(A100);
        let shape = WorkloadShape::from_spec(&ZooModel::GptJ6B.spec());
        let one = model.profiling_time(&shape, 1, 150, 60);
        let many = model.profiling_time(&shape, n, 150, 60);
        prop_assert!((many - one * n as f64).abs() < 1e-6 * many.max(1.0));
    }

    /// FP32 inference is never faster than FP16 on either platform.
    #[test]
    fn fp32_is_slower(prompt in 32usize..256) {
        for profile in [A100, GH200_H100] {
            let model = CostModel::new(profile);
            let mut shape = WorkloadShape::from_spec(&ZooModel::Llama2_7B.spec());
            let t16 = model.generation_time(&shape, prompt, 60).total_s();
            shape.bytes_per_element = 4;
            let t32 = model.generation_time(&shape, prompt, 60).total_s();
            prop_assert!(t32 >= t16);
        }
    }
}
