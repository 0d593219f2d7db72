//! Golden fault-free generations for every zoo model.
//!
//! These sequences were captured before the decode hot path was rebuilt on
//! the scratch-reuse/SIMD kernels and must never drift: any kernel or engine
//! change that alters a fault-free token stream silently invalidates every
//! campaign's reference outputs (and with them all SDC/DUE rates). The
//! prompts are the `ft2-repro bench` fixtures — `generate_prompts(Squad, 2,
//! 0xBE7C4)` — with 16 generated tokens, so the pinned shapes are exactly
//! the benchmarked ones.

use ft2::model::{TapList, ZooModel};
use ft2::tasks::datasets::generate_prompts;
use ft2::tasks::DatasetId;

/// `(model, per-prompt token sequences)` captured at the pre-rewrite seed.
fn goldens() -> Vec<(ZooModel, [Vec<u32>; 2])> {
    fn run(head: &[u32], tail: u32) -> Vec<u32> {
        let mut v = head.to_vec();
        v.resize(16, tail);
        v
    }
    vec![
        (ZooModel::Opt6_7B, [run(&[357; 11], 243), run(&[], 11)]),
        (ZooModel::Opt2_7B, [run(&[15], 305), run(&[], 305)]),
        (ZooModel::GptJ6B, [run(&[], 166), run(&[], 34)]),
        (ZooModel::Llama2_7B, [run(&[], 1), run(&[], 14)]),
        (ZooModel::Vicuna7B, [run(&[], 248), run(&[], 192)]),
        (ZooModel::Qwen2_7B, [run(&[], 9), run(&[], 50)]),
        (ZooModel::Qwen2_1_5B, [run(&[], 77), run(&[], 5)]),
    ]
}

#[test]
fn fault_free_generations_match_goldens() {
    let prompts = generate_prompts(DatasetId::Squad, 2, 0xBE7C4);
    for (zoo, expected) in goldens() {
        let spec = zoo.spec();
        let model = spec.build();
        for (pi, want) in expected.iter().enumerate() {
            let mut taps = TapList::new();
            let got = model.generate(&prompts[pi], 16, &mut taps);
            assert_eq!(
                &got.tokens,
                want,
                "{} prompt {pi}: fault-free generation drifted",
                spec.name()
            );
        }
    }
}
