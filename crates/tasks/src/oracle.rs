//! Outcome classification on answer spans (§2.3).
//!
//! The paper restricts evaluation to inputs every model answers correctly,
//! so the fault-free generation *is* the correct answer; the reference
//! answer span is extracted from it. A faulty output is:
//!
//! * **Masked (identical)** if it equals the reference token-for-token;
//! * **Masked (semantic)** if it differs but still *contains* the reference
//!   answer span — the automated version of "The number of people is 5"
//!   being equivalent to "There are 5 people";
//! * **SDC** otherwise (the answer is absent or mangled).

use crate::datasets::TaskType;
use ft2_fault::{Outcome, OutcomeJudge};

/// Where the answer span sits inside the generated tokens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskSpec {
    /// Task family.
    pub task: TaskType,
    /// Number of generated tokens per inference.
    pub gen_tokens: usize,
    /// Answer span `[start, end)` within the generation.
    pub answer_start: usize,
    /// Exclusive end of the answer span.
    pub answer_end: usize,
}

impl TaskSpec {
    /// The span conventions: QA answers appear early (the model answers,
    /// then elaborates); math answers appear at the end of the derivation.
    /// Mirrors the paper's output-length choices (answers land by token 50
    /// of 60 for QA, 150 of 180 for math).
    pub fn new(task: TaskType, gen_tokens: usize) -> TaskSpec {
        assert!(gen_tokens >= 8, "generation too short for an answer span");
        let (answer_start, answer_end) = match task {
            TaskType::Qa => {
                let start = 1;
                let len = (gen_tokens / 4).clamp(3, 8);
                (start, start + len)
            }
            TaskType::Math => {
                let len = (gen_tokens / 6).clamp(3, 10);
                let end = gen_tokens * 5 / 6;
                (end - len, end)
            }
        };
        TaskSpec {
            task,
            gen_tokens,
            answer_start,
            answer_end,
        }
    }

    /// Extract the reference answer span from a generation.
    pub fn answer<'a>(&self, tokens: &'a [u32]) -> &'a [u32] {
        let end = self.answer_end.min(tokens.len());
        let start = self.answer_start.min(end);
        &tokens[start..end]
    }

    /// The judge for this spec.
    pub fn judge(&self) -> AnswerJudge {
        AnswerJudge { spec: *self }
    }
}

/// Is `needle` a contiguous subsequence of `haystack`?
pub fn contains_subsequence(haystack: &[u32], needle: &[u32]) -> bool {
    if needle.is_empty() {
        return true;
    }
    if needle.len() > haystack.len() {
        return false;
    }
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// The §2.3 answer-span judge.
#[derive(Clone, Copy, Debug)]
pub struct AnswerJudge {
    spec: TaskSpec,
}

impl OutcomeJudge for AnswerJudge {
    fn classify(&self, reference: &[u32], faulty: &[u32]) -> Outcome {
        if reference == faulty {
            return Outcome::MaskedIdentical;
        }
        let answer = self.spec.answer(reference);
        if contains_subsequence(faulty, answer) {
            Outcome::MaskedSemantic
        } else {
            Outcome::Sdc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qa_span_is_early_math_span_is_late() {
        let qa = TaskSpec::new(TaskType::Qa, 20);
        assert_eq!(qa.answer_start, 1);
        assert!(qa.answer_end <= 9);
        let math = TaskSpec::new(TaskType::Math, 60);
        assert!(math.answer_start > 30);
        assert!(math.answer_end <= 50);
        assert!(math.answer_end > math.answer_start);
    }

    #[test]
    fn subsequence_matcher() {
        assert!(contains_subsequence(&[1, 2, 3, 4], &[2, 3]));
        assert!(contains_subsequence(&[1, 2, 3, 4], &[1, 2, 3, 4]));
        assert!(contains_subsequence(&[1, 2, 3], &[]));
        assert!(!contains_subsequence(&[1, 2, 3], &[3, 2]));
        assert!(!contains_subsequence(&[1, 2], &[1, 2, 3]));
        assert!(!contains_subsequence(&[], &[1]));
    }

    #[test]
    fn judge_classifies_three_ways() {
        let spec = TaskSpec::new(TaskType::Qa, 12);
        let judge = spec.judge();
        let reference: Vec<u32> = (100..112).collect();
        // Identical.
        assert_eq!(
            judge.classify(&reference, &reference.clone()),
            Outcome::MaskedIdentical
        );
        // Different but answer span (tokens 1..4) shifted later: semantic.
        let answer = spec.answer(&reference).to_vec();
        let mut shifted = vec![7u32, 8, 9];
        shifted.extend_from_slice(&answer);
        shifted.extend_from_slice(&[200, 201]);
        assert_eq!(
            judge.classify(&reference, &shifted),
            Outcome::MaskedSemantic
        );
        // Answer destroyed: SDC.
        let garbage: Vec<u32> = (300..312).collect();
        assert_eq!(judge.classify(&reference, &garbage), Outcome::Sdc);
    }

    #[test]
    fn judge_handles_truncated_outputs() {
        let spec = TaskSpec::new(TaskType::Math, 24);
        let judge = spec.judge();
        let reference: Vec<u32> = (0..24).collect();
        // Short faulty output missing the (late) answer span: SDC.
        let short: Vec<u32> = (0..5).collect();
        assert_eq!(judge.classify(&reference, &short), Outcome::Sdc);
    }

    #[test]
    fn answer_extraction_clamps() {
        let spec = TaskSpec::new(TaskType::Math, 24);
        let short = [1u32, 2, 3];
        // Span lies past the slice: empty answer, no panic.
        assert!(spec.answer(&short).is_empty());
    }
}
