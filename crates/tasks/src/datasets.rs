//! Synthetic dataset generators.
//!
//! Each generator mimics one of the paper's corpora at the level that
//! matters for the experiments: the token-region mix and the prompt-length
//! distribution. Evaluation datasets (SQuAD / XTREME / GSM8K) also fix the
//! *task type*, which sets the generation length and answer-span location.

use crate::vocab::Region;
use ft2_numeric::{Rng, Xoshiro256StarStar};

/// The seven datasets of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// SQuAD 2.0 — question answering (evaluation set).
    Squad,
    /// Google XTREME — multilingual QA (evaluation set).
    Xtreme,
    /// GSM8K — grade-school math (evaluation set).
    Gsm8k,
    /// Awesome ChatGPT Prompts (Fig. 3 alternative profiling set).
    ChatGptPrompts,
    /// TweetEval (Fig. 3 alternative).
    TweetEval,
    /// MBPP — Python programming problems (Fig. 3 alternative).
    Mbpp,
    /// OPUS-100 — translation pairs (Fig. 3 alternative).
    Opus100,
}

/// Task family, which fixes generation length and answer-span placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TaskType {
    /// Question answering: short answers early in the generation
    /// (60 generated tokens in the paper).
    Qa,
    /// Mathematical reasoning: long derivations with the answer at the end
    /// (180 generated tokens in the paper).
    Math,
}

impl DatasetId {
    /// The three evaluation datasets, in the paper's order.
    pub const EVALUATION: [DatasetId; 3] = [DatasetId::Squad, DatasetId::Xtreme, DatasetId::Gsm8k];

    /// The four alternative profiling datasets of Fig. 3.
    pub const ALTERNATIVES: [DatasetId; 4] = [
        DatasetId::ChatGptPrompts,
        DatasetId::TweetEval,
        DatasetId::Mbpp,
        DatasetId::Opus100,
    ];

    /// Display name matching the paper.
    pub const fn name(self) -> &'static str {
        match self {
            DatasetId::Squad => "SQuAD 2.0",
            DatasetId::Xtreme => "XTREME",
            DatasetId::Gsm8k => "GSM8K",
            DatasetId::ChatGptPrompts => "ChatGPT Prompts",
            DatasetId::TweetEval => "TweetEval",
            DatasetId::Mbpp => "MBPP",
            DatasetId::Opus100 => "OPUS-100",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<DatasetId> {
        match s.to_ascii_lowercase().replace([' ', '_'], "-").as_str() {
            "squad" | "squad-2.0" | "squad2" => Some(DatasetId::Squad),
            "xtreme" => Some(DatasetId::Xtreme),
            "gsm8k" => Some(DatasetId::Gsm8k),
            "chatgpt-prompts" | "chatgpt" => Some(DatasetId::ChatGptPrompts),
            "tweeteval" => Some(DatasetId::TweetEval),
            "mbpp" => Some(DatasetId::Mbpp),
            "opus-100" | "opus100" => Some(DatasetId::Opus100),
            _ => None,
        }
    }

    /// The task type this dataset drives when used for evaluation.
    pub const fn task_type(self) -> TaskType {
        match self {
            DatasetId::Gsm8k => TaskType::Math,
            _ => TaskType::Qa,
        }
    }

    /// Region mix: sampling weight per region
    /// (Special, Number, Common, Domain, Rare).
    fn region_weights(self) -> [f64; 5] {
        match self {
            // QA over encyclopedic text: entities + common words.
            DatasetId::Squad => [0.06, 0.04, 0.52, 0.34, 0.04],
            // Multilingual QA: heavy use of the rare/multilingual region.
            DatasetId::Xtreme => [0.06, 0.04, 0.28, 0.22, 0.40],
            // Math problems: digit-dominated.
            DatasetId::Gsm8k => [0.10, 0.52, 0.28, 0.06, 0.04],
            // Prompt collection: long common-word instructions.
            DatasetId::ChatGptPrompts => [0.08, 0.02, 0.74, 0.12, 0.04],
            // Tweets: short, informal, some rare tokens.
            DatasetId::TweetEval => [0.14, 0.06, 0.48, 0.10, 0.22],
            // Code: symbols + rare identifiers + numbers.
            DatasetId::Mbpp => [0.22, 0.16, 0.18, 0.08, 0.36],
            // Translation pairs: balanced common/rare.
            DatasetId::Opus100 => [0.06, 0.03, 0.41, 0.12, 0.38],
        }
    }

    /// Typical generation length when this dataset is used as a *profiling*
    /// corpus (scaled to the simulator). Short-output datasets (tweets,
    /// translations) exercise far fewer sequence positions than the QA/math
    /// evaluation tasks — the root cause of the Fig. 3 bound-transfer gap.
    pub fn typical_gen_tokens(self) -> usize {
        match self {
            DatasetId::Squad => 16,
            DatasetId::Xtreme => 14,
            DatasetId::Gsm8k => 36,
            DatasetId::ChatGptPrompts => 12,
            DatasetId::TweetEval => 6,
            DatasetId::Mbpp => 18,
            DatasetId::Opus100 => 8,
        }
    }

    /// Prompt length range (inclusive), scaled to the simulator models.
    fn length_range(self) -> (usize, usize) {
        match self {
            DatasetId::Squad => (12, 20),
            DatasetId::Xtreme => (10, 18),
            DatasetId::Gsm8k => (16, 28),
            DatasetId::ChatGptPrompts => (18, 30),
            DatasetId::TweetEval => (6, 12),
            DatasetId::Mbpp => (14, 24),
            DatasetId::Opus100 => (8, 16),
        }
    }
}

/// One generated task input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskInput {
    /// Input index within its dataset sample.
    pub id: usize,
    /// Prompt token ids.
    pub prompt: Vec<u32>,
}

fn sample_region(rng: &mut impl Rng, weights: &[f64; 5]) -> Region {
    let regions = [
        Region::Special,
        Region::Number,
        Region::Common,
        Region::Domain,
        Region::Rare,
    ];
    let total: f64 = weights.iter().sum();
    let mut pick = rng.f64() * total;
    for (r, w) in regions.iter().zip(weights) {
        if pick < *w {
            return *r;
        }
        pick -= w;
    }
    Region::Common
}

/// Generate `n` inputs for a dataset, deterministically from `seed`.
pub fn generate_inputs(dataset: DatasetId, n: usize, seed: u64) -> Vec<TaskInput> {
    let weights = dataset.region_weights();
    let (lo, hi) = dataset.length_range();
    (0..n)
        .map(|id| {
            let mut rng = Xoshiro256StarStar::for_stream(seed, &[dataset as u64 + 1, id as u64]);
            let len = lo + rng.index(hi - lo + 1);
            let mut prompt = Vec::with_capacity(len);
            // Start with a BOS-ish special token for stability.
            prompt.push(0u32);
            for _ in 1..len {
                let region = sample_region(&mut rng, &weights);
                let (rlo, rhi) = region.range();
                prompt.push(rng.range_u64(rlo as u64, rhi as u64) as u32);
            }
            TaskInput { id, prompt }
        })
        .collect()
}

/// Convenience: just the prompts.
pub fn generate_prompts(dataset: DatasetId, n: usize, seed: u64) -> Vec<Vec<u32>> {
    generate_inputs(dataset, n, seed)
        .into_iter()
        .map(|t| t.prompt)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::VOCAB_SIZE;

    #[test]
    fn generation_is_deterministic_and_in_vocab() {
        let a = generate_inputs(DatasetId::Squad, 10, 42);
        let b = generate_inputs(DatasetId::Squad, 10, 42);
        assert_eq!(a, b);
        for t in &a {
            assert!(t.prompt.len() >= 12 && t.prompt.len() <= 20);
            assert!(t.prompt.iter().all(|&x| (x as usize) < VOCAB_SIZE));
            assert_eq!(t.prompt[0], 0);
        }
        let c = generate_inputs(DatasetId::Squad, 10, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn datasets_have_distinct_token_statistics() {
        // GSM8K must be number-heavy; SQuAD entity-heavy; XTREME rare-heavy.
        let count_region = |ds: DatasetId, region: Region| -> f64 {
            let inputs = generate_inputs(ds, 50, 7);
            let total: usize = inputs.iter().map(|t| t.prompt.len()).sum();
            let hits: usize = inputs
                .iter()
                .flat_map(|t| &t.prompt)
                .filter(|&&tok| Region::of(tok) == region)
                .count();
            hits as f64 / total as f64
        };
        assert!(count_region(DatasetId::Gsm8k, Region::Number) > 0.35);
        assert!(count_region(DatasetId::Squad, Region::Number) < 0.10);
        assert!(count_region(DatasetId::Squad, Region::Domain) > 0.20);
        assert!(count_region(DatasetId::Xtreme, Region::Rare) > 0.25);
        assert!(count_region(DatasetId::ChatGptPrompts, Region::Rare) < 0.10);
    }

    #[test]
    fn task_types() {
        assert_eq!(DatasetId::Squad.task_type(), TaskType::Qa);
        assert_eq!(DatasetId::Xtreme.task_type(), TaskType::Qa);
        assert_eq!(DatasetId::Gsm8k.task_type(), TaskType::Math);
    }

    #[test]
    fn parse_roundtrip() {
        for ds in DatasetId::EVALUATION
            .iter()
            .chain(DatasetId::ALTERNATIVES.iter())
        {
            assert_eq!(DatasetId::parse(ds.name()), Some(*ds), "{}", ds.name());
        }
        assert_eq!(DatasetId::parse("imagenet"), None);
    }

    #[test]
    fn lengths_respect_ranges() {
        for ds in [DatasetId::TweetEval, DatasetId::ChatGptPrompts] {
            let (lo, hi) = ds.length_range();
            for t in generate_inputs(ds, 30, 1) {
                assert!(t.prompt.len() >= lo && t.prompt.len() <= hi);
            }
        }
    }
}
