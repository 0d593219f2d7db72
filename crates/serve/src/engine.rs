//! The serving runtime's two passes of the layer walk: the batched decode
//! step (N one-row lanes, one per request) and prefill (one multi-row lane
//! written straight into a request's arena pages).
//!
//! Neither contains any model math. Both are [`ft2_model::walk`] over the
//! arena's paged K/V slabs, so a clean request served in a batch of N emits
//! exactly the tokens its solo [`Model::generate`] would — the identity
//! that makes per-request fault isolation checkable — because it runs the
//! same code, not a copy of it. What this module adds is how the work is
//! spread over the [`WorkStealingPool`]:
//!
//! * **Decode runs by lane groups.** [`batch_step`] splits the lanes into
//!   at most one contiguous group per pool thread plus one for the caller
//!   and issues **one** pool batch per step: each task walks its group's
//!   lanes end to end on its own thread — every linear as one panel-major
//!   GEMM over the group's rows ([`Linear::forward_rows_into`], the exact
//!   `dot4`/`dot` reductions of the row-major kernel), attention, the
//!   lanes' taps, the LM head and `argmax` — with its own walk buffers and
//!   tap stage. Groups write K/V rows concurrently into the disjoint pages
//!   their lanes hold, each through its own set of
//!   [`crate::arena::KvSlabView`]s.
//! * **Prefill runs by row blocks.** One lane's rows attend to each other,
//!   so [`prefill`] (admission and KV rebuild) keeps the row-split
//!   executor: every linear split by rows into one contiguous block per
//!   pool thread plus one for the caller ([`walk::linear_in_row_blocks`]),
//!   the rows' attention in parallel on the pool.
//!
//! Groups, blocks and rows write disjoint rows, so neither the group or
//! block count nor the schedule can change a result.
//!
//! Per-request taps ride in their lanes: the walk shows each tap its own
//! row with its own `step` and position, in the engine's layer order, so
//! per-request injectors and detectors observe exactly what they would
//! single-sequence.

use crate::arena::{self, KvArena, KvSeq, KvSlabView};
use ft2_model::hooks::{LayerTap, TapPoint};
use ft2_model::walk::{self, Exec, Lane, Pass};
use ft2_model::weights::Linear;
use ft2_model::{DecodeScratch, Model};
use ft2_parallel::{lock_clean, WorkStealingPool};
use ft2_tensor::{argmax, DType, Matrix};
use std::convert::Infallible;
use std::sync::Mutex;

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
    /// Prefill's walk buffers; its hidden states land in `walk.hidden`.
    pub(crate) walk: DecodeScratch,
    /// One set of buffers per lane group of a decode step.
    groups: Vec<GroupScratch>,
}

impl BatchScratch {
    /// Fresh scratch; buffers grow to steady-state sizes on first use.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }
}

/// One lane group's buffers.
#[derive(Default)]
struct GroupScratch {
    /// The group's walk buffers.
    walk: DecodeScratch,
    /// The one-lane view a tap sees its rows through in a multi-lane pass.
    stage: Matrix,
}

/// The row-split [`Exec`] of prefill: every linear split by rows over the
/// pool, rows attending in parallel.
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

/// The [`Exec`] of one lane group: every linear as one panel-major GEMM
/// over the group's rows, and the rows' attention, on the calling thread.
struct Panel;

impl Exec for Panel {
    type Error = Infallible;

    fn linear(
        &mut self,
        golden: &Linear,
        _point: TapPoint,
        dtype: DType,
        x: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), Infallible> {
        walk::linear_in_row_blocks(self, 1, golden, dtype, x, out);
        Ok(())
    }
}

/// What one task of the decode batch owns: a contiguous run of the lanes,
/// the group's buffers and the group's view of every block's slab.
struct Group<'g, 'l> {
    lanes: &'g mut [BatchLane<'l>],
    scratch: &'g mut GroupScratch,
    kv: Vec<KvSlabView<'g>>,
}

impl Group<'_, '_> {
    /// Walk the group's lanes end to end — the decoder stack, the LM head
    /// and `argmax` — and return each lane's next token.
    fn decode(&mut self, model: &Model) -> Vec<u32> {
        let (config, weights) = (model.config(), model.weights());
        let tokens: Vec<u32> = self.lanes.iter().map(|lane| lane.token).collect();
        let mut rows: Vec<Lane<'_, KvSeq>> = self
            .lanes
            .iter_mut()
            .map(|lane| Lane {
                rows: 1,
                start_pos: lane.pos,
                step: lane.step,
                seq: &*lane.seq,
                tap: lane.tap.as_deref_mut().map(|tap| tap as &mut dyn LayerTap),
            })
            .collect();
        let GroupScratch { walk: s, stage } = &mut *self.scratch;
        let (rope, mut exec) = (model.rope_table(), Panel);
        let mut pass = Pass::new(config, rope, &mut exec, &mut rows, stage);
        let Ok(()) = walk::walk(&mut pass, weights, &tokens, &mut self.kv, s);
        let (head, dtype) = (&weights.lm_head, config.dtype);
        walk::linear_in_row_blocks(&Panel, 1, head, dtype, &s.hidden, &mut s.logits);
        (0..tokens.len())
            .map(|r| argmax(s.logits.row(r)) as u32)
            .collect()
    }
}

/// Advance every lane by one decode step. Reserves each lane's KV slot,
/// walks the lane groups in one pool batch, and returns the next token per
/// lane. Lanes that subsequently roll back truncate their [`KvSeq`] and
/// discard the returned token; accepted lanes keep both.
pub fn batch_step(
    model: &Model,
    arena: &mut KvArena,
    lanes: &mut [BatchLane<'_>],
    pool: &WorkStealingPool,
    scratch: &mut BatchScratch,
) -> Vec<u32> {
    assert!(!lanes.is_empty(), "batch_step on an empty batch");
    for lane in lanes.iter_mut() {
        debug_assert_eq!(lane.seq.len(), lane.pos, "KV sequence out of sync");
        lane.seq.push(arena);
    }
    // What the concurrent K/V writes below rest on. The arena keeps it, but
    // a sequence released into another arena could break it from safe
    // code, so it is checked in every build.
    assert!(
        arena::pages_disjoint(lanes.iter().map(|lane| &*lane.seq)),
        "two lanes hold one KV page"
    );
    let n = lanes.len();
    let groups = n.min(pool.threads() + 1);
    if scratch.groups.len() < groups {
        scratch.groups.resize_with(groups, GroupScratch::default);
    }
    // SAFETY: set `g` goes to group `g` alone, whose task is the only one
    // to use it; every lane, so every sequence, is in one group, and no
    // two lanes' sequences share a page (asserted above).
    let views = unsafe { arena.slab_views(groups) };
    let mut rest = lanes;
    let cells: Vec<Mutex<Group<'_, '_>>> = views
        .into_iter()
        .zip(&mut scratch.groups)
        .enumerate()
        .map(|(g, (kv, scratch))| {
            let size = (g + 1) * n / groups - g * n / groups;
            let (own, tail) = std::mem::take(&mut rest).split_at_mut(size);
            rest = tail;
            Mutex::new(Group {
                lanes: own,
                scratch,
                kv,
            })
        })
        .collect();
    if let [cell] = &cells[..] {
        return lock_clean(cell).decode(model);
    }
    pool.map(&cells, 1, |_, cell| lock_clean(cell).decode(model))
        .concat()
}

/// Prefill `tokens` as positions `start_pos..` of `seq`, straight into its
/// arena pages: one multi-row lane on the row-split executor — linears
/// split by rows over `pool`, attention rows on it too — attending to the
/// rows `seq` already holds below `start_pos`. Pages are reserved as
/// needed; positions `seq` already has are overwritten in place (KV
/// rebuild). The hidden states land in `scratch.walk.hidden`.
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
    use ft2_model::hooks::StepReport;
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

    /// A lane's prompt: lengths just under a page, so decode steps cross
    /// page boundaries, varied so lanes cross them at different steps.
    fn lane_prompt(i: usize) -> Vec<u32> {
        use crate::arena::KV_PAGE;
        let len = KV_PAGE - 4 + (i * 5) % 7;
        (0..len)
            .map(|j| ((i * 31 + j * 7 + 3) % 90) as u32)
            .collect()
    }

    /// An FT2 protector with no headroom over its first-token profile, so
    /// that clamps certainly edit the streams being compared.
    fn ft2(model: &Model) -> ft2_core::Protector {
        let coverage = ft2_core::Scheme::Ft2.coverage(model.config().style);
        ft2_core::Protector::ft2_online(coverage, 1.0)
    }

    /// What one served lane ended with.
    struct Served {
        tokens: Vec<u32>,
        stats: ft2_core::protect::ProtectionStats,
        reports: Vec<StepReport>,
        /// Every stored K/V row, per position, per block.
        kv: Vec<Vec<(Vec<f32>, Vec<f32>)>>,
        pages: Vec<usize>,
    }

    /// Serve `prompts` as one batch the way the scheduler does — prefill
    /// each lane (with its tap) on `pool`, then `gen - 1` batch steps, each
    /// lane's tap closing every step — over an arena pre-fragmented so that
    /// pages come off the free list out of order.
    fn serve(
        model: &Model,
        prompts: &[Vec<u32>],
        gen: usize,
        pool: &WorkStealingPool,
        protect: bool,
    ) -> Vec<Served> {
        let (blocks, hidden) = (model.config().blocks, model.config().hidden);
        let mut arena = KvArena::new(blocks, hidden);
        let mut hole = KvSeq::new();
        for _ in 0..(3 * prompts.len()) * crate::arena::KV_PAGE {
            hole.push(&mut arena);
        }
        hole.release(&mut arena);
        let mut seqs: Vec<KvSeq> = prompts.iter().map(|_| KvSeq::new()).collect();
        let mut taps: Vec<Option<ft2_core::Protector>> = prompts
            .iter()
            .map(|_| protect.then(|| ft2(model)))
            .collect();
        let mut scratch = BatchScratch::new();
        let mut served: Vec<Served> = Vec::new();
        for ((prompt, seq), tap) in prompts.iter().zip(&mut seqs).zip(&mut taps) {
            let lane_tap = tap.as_mut().map(|t| t as &mut dyn LayerTap);
            prefill(
                model,
                &mut arena,
                seq,
                prompt,
                0,
                lane_tap,
                pool,
                &mut scratch,
            );
            let hidden = &scratch.walk.hidden;
            let last = hidden.slice_rows(hidden.rows() - 1, hidden.rows());
            served.push(Served {
                tokens: vec![argmax(&model.logits(&last)) as u32],
                stats: Default::default(),
                reports: tap.iter_mut().map(|t| t.end_step(0)).collect(),
                kv: Vec::new(),
                pages: Vec::new(),
            });
        }
        for step in 1..gen {
            let mut lanes: Vec<BatchLane<'_>> = seqs
                .iter_mut()
                .zip(&mut taps)
                .zip(&served)
                .zip(prompts)
                .map(|(((seq, tap), lane), prompt)| BatchLane {
                    token: lane.tokens[step - 1],
                    pos: prompt.len() + step - 1,
                    step,
                    seq,
                    tap: tap.as_mut().map(|t| t as &mut (dyn LayerTap + Send)),
                })
                .collect();
            let next = batch_step(model, &mut arena, &mut lanes, pool, &mut scratch);
            drop(lanes);
            for ((lane, tap), t) in served.iter_mut().zip(&mut taps).zip(next) {
                lane.tokens.push(t);
                lane.reports
                    .extend(tap.iter_mut().map(|t| t.end_step(step)));
            }
        }
        for ((lane, tap), seq) in served.iter_mut().zip(&taps).zip(&seqs) {
            lane.stats = tap.as_ref().map(|t| t.stats).unwrap_or_default();
            lane.pages = seq.pages().to_vec();
            lane.kv = (0..seq.len())
                .map(|j| {
                    let row = seq.row_of(j);
                    (0..blocks)
                        .map(|b| (arena.k_row(b, row).to_vec(), arena.v_row(b, row).to_vec()))
                        .collect()
                })
                .collect();
        }
        served
    }

    /// Batch ≡ solo, by lane groups: for 1..=8 lanes (groups of uneven
    /// sizes) on pools of 1, 2 and 4 threads, over a pre-fragmented arena
    /// whose groups' pages interleave, every lane emits the tokens of its
    /// solo run and stores the engine cache's K/V rows bit for bit
    /// (tap-less), and with an FT2 protector on every lane its tokens,
    /// `ProtectionStats` and `StepReport`s equal solo [`Model::generate`]'s.
    /// `scripts/verify.sh` runs this once more with `FT2_NO_SIMD=1`.
    #[test]
    fn batched_decode_is_bit_identical_to_the_engine() {
        let gen = 8;
        let pools = [1, 2, 4].map(WorkStealingPool::new);
        for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
            let model = Model::new(config);
            let prompts: Vec<Vec<u32>> = (0..8).map(lane_prompt).collect();
            let bare: Vec<(KvCache, Vec<u32>)> = prompts
                .iter()
                .map(|p| reference_decode(&model, p, gen))
                .collect();
            let solo: Vec<_> = prompts
                .iter()
                .map(|p| {
                    let mut protector = ft2(&model);
                    let mut taps = TapList::new();
                    taps.push(&mut protector);
                    let out = model.generate(p, gen, &mut taps);
                    drop(taps);
                    let reports: Vec<StepReport> = out.steps.iter().map(|s| s.report).collect();
                    (out.tokens, protector.stats, reports)
                })
                .collect();
            let clamps: u64 = solo.iter().map(|(_, stats, _)| stats.clipped).sum();
            assert!(clamps > 0, "no clamp edited any solo stream");
            for (pool, n) in pools.iter().flat_map(|p| (1..=8).map(move |n| (p, n))) {
                let case = format!("{n} lanes, {} threads", pool.threads());
                let lanes = &prompts[..n];
                for (i, (lane, (cache, tokens))) in serve(&model, lanes, gen, pool, false)
                    .iter()
                    .zip(&bare)
                    .enumerate()
                {
                    assert_eq!(&lane.tokens, tokens, "{case}: lane {i} tokens diverged");
                    for (j, blocks) in lane.kv.iter().enumerate() {
                        for (b, (k, v)) in blocks.iter().enumerate() {
                            assert_eq!(k, cache.block(b).k.row(j), "{case}: K {i}/{j}/{b}");
                            assert_eq!(v, cache.block(b).v.row(j), "{case}: V {i}/{j}/{b}");
                        }
                    }
                }
                let served = serve(&model, lanes, gen, pool, true);
                if let [first, .., last] = &served[..] {
                    let (a, b) = (&first.pages, &last.pages);
                    let span = |q: &[usize]| (*q.iter().min().unwrap(), *q.iter().max().unwrap());
                    let ((a0, a1), (b0, b1)) = (span(a), span(b));
                    assert!(
                        a0 < b1 && b0 < a1,
                        "{case}: pages {a:?} and {b:?} do not interleave"
                    );
                }
                for (i, (lane, (tokens, stats, reports))) in served.iter().zip(&solo).enumerate() {
                    assert_eq!(&lane.tokens, tokens, "{case}: lane {i} protected tokens");
                    assert_eq!(&lane.stats, stats, "{case}: lane {i} ProtectionStats");
                    assert_eq!(&lane.reports, reports, "{case}: lane {i} StepReports");
                }
            }
        }
    }

    /// The lane groups' split cannot change a result: for 1..=8 FT2-protected
    /// lanes, pools of 1, 2 and 4 threads end with the same tokens, stats,
    /// step reports and stored K/V rows.
    #[test]
    fn batch_results_do_not_depend_on_thread_count() {
        let model = Model::new(ModelConfig::tiny_llama());
        let prompts: Vec<Vec<u32>> = (0..8).map(lane_prompt).collect();
        let pools = [1, 2, 4].map(WorkStealingPool::new);
        for n in 1..=8 {
            let runs = pools
                .each_ref()
                .map(|pool| serve(&model, &prompts[..n], 6, pool, true));
            for (threads, run) in [2, 4].into_iter().zip(&runs[1..]) {
                for (i, (lane, one)) in run.iter().zip(&runs[0]).enumerate() {
                    let case = format!("{n} lanes, lane {i}, {threads} threads vs 1");
                    assert_eq!(lane.tokens, one.tokens, "{case}: tokens");
                    assert_eq!(lane.stats, one.stats, "{case}: ProtectionStats");
                    assert_eq!(lane.reports, one.reports, "{case}: StepReports");
                    assert!(lane.kv == one.kv, "{case}: K/V rows");
                }
            }
        }
    }
}
