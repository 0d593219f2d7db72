//! The serving runtime's two passes of the layer walk: the batched decode
//! step (N one-row lanes, one per request) and prefill (one multi-row lane
//! written straight into a request's arena pages).
//!
//! Neither contains any model math. Both are [`ft2_model::walk`] over the
//! arena's paged [`crate::arena::KvSlab`] stores, so a clean request served
//! in a batch of N emits exactly the tokens its solo [`Model::generate`]
//! would — the identity that makes per-request fault isolation checkable —
//! because it runs the same code, not a copy of it. What this module adds
//! is the serving [`Exec`]:
//!
//! * every linear, the batch step's LM head included, is split by rows
//!   into one contiguous block per pool thread plus one for the caller
//!   ([`walk::linear_in_row_blocks`]); each block runs the panel-major GEMM
//!   ([`ft2_tensor::matmul_transb_rows_into`], the exact `dot4`/`dot`
//!   reductions of the row-major kernel, one weight-panel pass amortised
//!   over the block's rows), the bias and the quantisation straight into
//!   its own rows of the output;
//! * the rows' attention runs in parallel on the [`WorkStealingPool`].
//!
//! Blocks and rows write disjoint rows, so neither the block count nor the
//! schedule can change a result. Prefill runs on the same executor, so
//! admission and KV rebuild use the whole pool too.
//!
//! Per-request taps ride in their lanes: the walk shows each tap its own
//! row with its own `step` and position, in the engine's layer order, so
//! per-request injectors and detectors observe exactly what they would
//! single-sequence.

use crate::arena::{KvArena, KvSeq};
use ft2_model::hooks::{LayerTap, TapPoint};
use ft2_model::walk::{self, Exec, Lane, Pass};
use ft2_model::weights::Linear;
use ft2_model::{DecodeScratch, Model};
use ft2_parallel::WorkStealingPool;
use ft2_tensor::{argmax, DType, Matrix};
use std::convert::Infallible;

/// One request's view of a batch step: the token to decode, its absolute
/// position, the generation step number (for tap contexts), the request's
/// paged KV sequence, and an optional per-request tap.
pub struct BatchLane<'a> {
    /// Input token for this step (the previously accepted token).
    pub token: u32,
    /// Absolute sequence position of `token`.
    pub pos: usize,
    /// Generation step number (engine numbering: step `s >= 1` decodes
    /// token `s` given token `s - 1`).
    pub step: usize,
    /// The request's KV pages; `seq.len()` must equal `pos` on entry.
    pub seq: &'a mut KvSeq,
    /// Per-request tap (fault injector, detector); `None` for tap-less
    /// requests, which skip the staging copies entirely.
    pub tap: Option<&'a mut (dyn LayerTap + Send + 'static)>,
}

/// Reusable buffers of the serving passes: allocated once per scheduler
/// and `reset` in place every pass.
#[derive(Default)]
pub struct BatchScratch {
    /// The walk's own buffers; the hidden states land in `walk.hidden`.
    pub(crate) walk: DecodeScratch,
    /// The one-lane view a tap sees its rows through in a multi-lane pass.
    stage: Matrix,
}

impl BatchScratch {
    /// Fresh scratch; buffers grow to steady-state sizes on first use.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }
}

/// The serving [`Exec`]: every linear split by rows over the pool, rows
/// attending in parallel.
struct Batched<'p>(&'p WorkStealingPool);

impl Batched<'_> {
    /// `golden` over `x` in one row block per pool thread plus one for the
    /// caller (fewer when there are fewer rows).
    fn split(&self, golden: &Linear, dtype: DType, x: &Matrix, out: &mut Matrix) {
        walk::linear_in_row_blocks(self, self.0.threads() + 1, golden, dtype, x, out);
    }
}

impl Exec for Batched<'_> {
    type Error = Infallible;

    fn linear(
        &mut self,
        golden: &Linear,
        _point: TapPoint,
        dtype: DType,
        x: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), Infallible> {
        self.split(golden, dtype, x, out);
        Ok(())
    }

    fn each_row(&self, rows: usize, f: impl Fn(usize) + Send + Sync) {
        if rows > 1 {
            let panics = self.0.try_run(rows, 1, f);
            assert!(panics.is_empty(), "batch task panicked: {}", panics[0]);
        } else {
            f(0);
        }
    }
}

/// Advance every lane by one decode step. Reserves each lane's KV slot,
/// runs the batched forward pass, and returns the next token per lane.
/// Lanes that subsequently roll back truncate their [`KvSeq`] and discard
/// the returned token; accepted lanes keep both.
pub fn batch_step(
    model: &Model,
    arena: &mut KvArena,
    lanes: &mut [BatchLane<'_>],
    pool: &WorkStealingPool,
    scratch: &mut BatchScratch,
) -> Vec<u32> {
    assert!(!lanes.is_empty(), "batch_step on an empty batch");
    let config = model.config();
    let tokens: Vec<u32> = lanes.iter().map(|lane| lane.token).collect();
    let mut rows: Vec<Lane<'_, KvSeq>> = lanes
        .iter_mut()
        .map(|lane| {
            debug_assert_eq!(lane.seq.len(), lane.pos, "KV sequence out of sync");
            lane.seq.push(arena);
            Lane {
                rows: 1,
                start_pos: lane.pos,
                step: lane.step,
                seq: &*lane.seq,
                tap: lane.tap.as_deref_mut().map(|tap| tap as &mut dyn LayerTap),
            }
        })
        .collect();
    let mut exec = Batched(pool);
    let mut pass = Pass::new(
        config,
        model.rope_table(),
        &mut exec,
        &mut rows,
        &mut scratch.stage,
    );
    let weights = model.weights();
    let Ok(()) = walk::walk(
        &mut pass,
        weights,
        &tokens,
        arena.slabs_mut(),
        &mut scratch.walk,
    );

    // The batched LM head over the final-norm rows, split like the rest.
    let (hidden, logits) = (&scratch.walk.hidden, &mut scratch.walk.logits);
    exec.split(&weights.lm_head, config.dtype, hidden, logits);
    (0..tokens.len())
        .map(|r| argmax(logits.row(r)) as u32)
        .collect()
}

/// Prefill `tokens` as positions `start_pos..` of `seq`, straight into its
/// arena pages: one multi-row lane on the serving executor — linears split
/// by rows over `pool`, attention rows on it too — attending to the rows
/// `seq` already holds below `start_pos`. Pages are reserved as needed;
/// positions `seq` already has are overwritten in place (KV rebuild). The
/// hidden states land in `scratch.walk.hidden`.
#[allow(clippy::too_many_arguments)]
pub fn prefill<'a>(
    model: &Model,
    arena: &mut KvArena,
    seq: &'a mut KvSeq,
    tokens: &[u32],
    start_pos: usize,
    tap: Option<&'a mut dyn LayerTap>,
    pool: &WorkStealingPool,
    scratch: &mut BatchScratch,
) {
    while seq.len() < start_pos + tokens.len() {
        seq.push(arena);
    }
    let lane = Lane {
        rows: tokens.len(),
        start_pos,
        step: 0,
        seq: &*seq,
        tap,
    };
    let (config, rope) = (model.config(), model.rope_table());
    let Ok(()) = walk::lane_pass(config, rope, &mut Batched(pool), lane, |pass| {
        let slabs = arena.slabs_mut();
        walk::walk(pass, model.weights(), tokens, slabs, &mut scratch.walk)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft2_model::engine::KvCache;
    use ft2_model::{ModelConfig, TapList};

    /// Decode a prompt token-by-token with the single-sequence engine path
    /// (forward_step per position), returning the cache and tokens.
    fn reference_decode(model: &Model, prompt: &[u32], gen: usize) -> (KvCache, Vec<u32>) {
        let mut cache = KvCache::new(model.config());
        let mut taps = TapList::new();
        let hidden = model.forward_step(prompt, 0, 0, &mut cache, &mut taps);
        let last = hidden.slice_rows(hidden.rows() - 1, hidden.rows());
        let mut tokens = vec![argmax(&model.logits(&last)) as u32];
        for step in 1..gen {
            let pos = prompt.len() + step - 1;
            let h = model.forward_step(&[tokens[step - 1]], pos, step, &mut cache, &mut taps);
            tokens.push(argmax(&model.logits(&h)) as u32);
        }
        (cache, tokens)
    }

    /// Prefill a lane's prompt into the arena on a two-thread pool,
    /// returning its first token.
    fn arena_prefill(model: &Model, arena: &mut KvArena, seq: &mut KvSeq, prompt: &[u32]) -> u32 {
        let (pool, mut scratch) = (WorkStealingPool::new(2), BatchScratch::new());
        prefill(model, arena, seq, prompt, 0, None, &pool, &mut scratch);
        let hidden = &scratch.walk.hidden;
        let last = hidden.slice_rows(hidden.rows() - 1, hidden.rows());
        argmax(&model.logits(&last)) as u32
    }

    /// Identity (ii) of the layer walk: a prefill written straight into
    /// arena pages — jointly, or as a joint head plus a second pass over
    /// the rest, with its linears split over a pool of 1, 2 or 4 threads —
    /// holds the rows the engine's `KvCache` holds, bit for bit, across
    /// page boundaries, and ends in the same hidden row. The arena is
    /// pre-fragmented so the sequence's pages are neither contiguous nor in
    /// order. `scripts/verify.sh` runs this once more with `FT2_NO_SIMD=1`.
    #[test]
    fn prefill_into_arena_pages_equals_the_engine_cache() {
        use crate::arena::KV_PAGE;
        let len = 2 * KV_PAGE + 5;
        let pools = [1, 2, 4].map(WorkStealingPool::new);
        for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
            let model = Model::new(config);
            let tokens: Vec<u32> = (0..len as u32).map(|i| (i * 7 + 3) % 90).collect();
            let mut cache = KvCache::new(model.config());
            let hidden = model.forward_step(&tokens, 0, 0, &mut cache, &mut TapList::new());

            for (head, pool) in [len, KV_PAGE - 3]
                .into_iter()
                .flat_map(|h| pools.iter().map(move |p| (h, p)))
            {
                let mut arena = KvArena::new(model.config().blocks, model.config().hidden);
                let mut hole = KvSeq::new();
                for _ in 0..3 * KV_PAGE {
                    hole.push(&mut arena);
                }
                hole.release(&mut arena);
                let mut seq = KvSeq::new();
                let mut scratch = BatchScratch::new();
                prefill(
                    &model,
                    &mut arena,
                    &mut seq,
                    &tokens[..head],
                    0,
                    None,
                    pool,
                    &mut scratch,
                );
                if head < len {
                    prefill(
                        &model,
                        &mut arena,
                        &mut seq,
                        &tokens[head..],
                        head,
                        None,
                        pool,
                        &mut scratch,
                    );
                }
                assert_eq!(seq.len(), len);
                assert_ne!(seq.pages(), [0, 1, 2], "pages should be out of order");
                for j in 0..len {
                    let row = seq.row_of(j);
                    for b in 0..cache.num_blocks() {
                        assert_eq!(
                            arena.k_row(b, row),
                            cache.block(b).k.row(j),
                            "K row {j} block {b}"
                        );
                        assert_eq!(
                            arena.v_row(b, row),
                            cache.block(b).v.row(j),
                            "V row {j} block {b}"
                        );
                    }
                }
                let rows = scratch.walk.hidden.rows();
                assert_eq!(
                    scratch.walk.hidden.row(rows - 1),
                    hidden.row(len - 1),
                    "last hidden row"
                );
            }
        }
    }

    /// The split linear is the row-by-row linear: for 1..=17 rows on
    /// pools of 1..=4 threads, every row of [`Batched`]'s output for every
    /// linear of a block and the LM head equals, bit for bit,
    /// [`Linear::forward_into`] of that row alone — with block biases
    /// (`tiny_opt`) and without (`tiny_llama`; the LM head always has one). `scripts/verify.sh` runs
    /// this once more with `FT2_NO_SIMD=1`.
    #[test]
    fn split_linear_rows_equal_forward_into_row_by_row() {
        let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
            let model = Model::new(config);
            let (weights, dtype) = (model.weights(), model.config().dtype);
            let block = &weights.blocks[0];
            let linears: Vec<&Linear> = ft2_model::LayerKind::ALL
                .iter()
                .filter_map(|&kind| block.layer(kind))
                .chain([&weights.lm_head])
                .collect();
            assert_eq!(block.k_proj.bias.is_some(), model.config().bias);
            for threads in 1..=4 {
                let pool = WorkStealingPool::new(threads);
                let (mut out, mut one) = (Matrix::default(), Matrix::default());
                for rows in 1..=17 {
                    for lin in &linears {
                        let k = lin.weight.cols();
                        let x = Matrix::from_fn(rows, k, |r, c| {
                            ((r * 31 + c * 17 + threads) % 23) as f32 * 0.25 - 2.5
                        });
                        Batched(&pool).split(lin, dtype, &x, &mut out);
                        assert_eq!((out.rows(), out.cols()), (rows, lin.out_features()));
                        for r in 0..rows {
                            lin.forward_into(&x.slice_rows(r, r + 1), dtype, &mut one);
                            assert_eq!(
                                bits(out.row(r)),
                                bits(one.row(0)),
                                "row {r} of {rows}, {threads} threads"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batched_decode_is_bit_identical_to_the_engine() {
        let pool = WorkStealingPool::new(2);
        for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
            let model = Model::new(config);
            let prompts: [&[u32]; 3] = [&[3, 14, 15, 92, 6], &[1, 2, 3], &[9, 8, 7, 6, 5, 4]];
            let gen = 6;
            let refs: Vec<(KvCache, Vec<u32>)> = prompts
                .iter()
                .map(|p| reference_decode(&model, p, gen))
                .collect();

            let mut arena = KvArena::new(model.config().blocks, model.config().hidden);
            let mut seqs: Vec<KvSeq> = prompts.iter().map(|_| KvSeq::new()).collect();
            let mut tokens: Vec<Vec<u32>> = Vec::new();
            for (p, seq) in prompts.iter().zip(seqs.iter_mut()) {
                tokens.push(vec![arena_prefill(&model, &mut arena, seq, p)]);
            }
            let mut scratch = BatchScratch::new();
            for step in 1..gen {
                let mut lanes: Vec<BatchLane<'_>> = seqs
                    .iter_mut()
                    .enumerate()
                    .map(|(i, seq)| BatchLane {
                        token: tokens[i][step - 1],
                        pos: prompts[i].len() + step - 1,
                        step,
                        seq,
                        tap: None,
                    })
                    .collect();
                let next = batch_step(&model, &mut arena, &mut lanes, &pool, &mut scratch);
                drop(lanes);
                for (i, t) in next.into_iter().enumerate() {
                    tokens[i].push(t);
                }
            }
            for (i, (cache, ref_tokens)) in refs.iter().enumerate() {
                assert_eq!(&tokens[i], ref_tokens, "lane {i} tokens diverged");
                // The arena rows must be bit-identical to the engine cache.
                for j in 0..seqs[i].len() {
                    let row = seqs[i].row_of(j);
                    for b in 0..cache.num_blocks() {
                        assert_eq!(
                            arena.k_row(b, row),
                            cache.block(b).k.row(j),
                            "K row {j} block {b}"
                        );
                        assert_eq!(
                            arena.v_row(b, row),
                            cache.block(b).v.row(j),
                            "V row {j} block {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_results_do_not_depend_on_thread_count() {
        let model = Model::new(ModelConfig::tiny_llama());
        let prompts: [&[u32]; 4] = [&[1, 2, 3], &[4, 5, 6, 7], &[8, 9], &[10, 11, 12]];
        let mut outputs = Vec::new();
        for threads in [1usize, 4] {
            let pool = WorkStealingPool::new(threads);
            let mut arena = KvArena::new(model.config().blocks, model.config().hidden);
            let mut seqs: Vec<KvSeq> = prompts.iter().map(|_| KvSeq::new()).collect();
            let mut tokens: Vec<Vec<u32>> = prompts
                .iter()
                .zip(seqs.iter_mut())
                .map(|(p, seq)| vec![arena_prefill(&model, &mut arena, seq, p)])
                .collect();
            let mut scratch = BatchScratch::new();
            for step in 1..5 {
                let mut lanes: Vec<BatchLane<'_>> = seqs
                    .iter_mut()
                    .enumerate()
                    .map(|(i, seq)| BatchLane {
                        token: tokens[i][step - 1],
                        pos: prompts[i].len() + step - 1,
                        step,
                        seq,
                        tap: None,
                    })
                    .collect();
                let next = batch_step(&model, &mut arena, &mut lanes, &pool, &mut scratch);
                drop(lanes);
                for (i, t) in next.into_iter().enumerate() {
                    tokens[i].push(t);
                }
            }
            outputs.push(tokens);
        }
        assert_eq!(outputs[0], outputs[1]);
    }
}
