//! The layer walk: the one forward pass through the decoder stack.
//!
//! Every caller — the dense engine, the sharded executor, the serving
//! batch step, serving prefill and KV rebuild — runs this code: embed rows
//! at per-row positions, then per block norm + position gain, K/Q/V, RoPE,
//! KV append, per-row causal attention, OUT_PROJ, residual, norm, MLP,
//! residual, and the final norm. The rows of a pass belong to [`Lane`]s
//! (contiguous rows of one sequence); the walk varies only through two
//! statically dispatched strategies:
//!
//! * [`Exec`] — how a linear layer runs: [`Dense`] on this thread, the
//!   sharded executor's fan-out behind the f64 seam (fallible), or the
//!   serving runtime's GEMMs split by rows ([`linear_in_row_blocks`]) with
//!   the rows' attention on a pool.
//! * [`KvStore`] — where a block's K/V rows live: a contiguous
//!   [`crate::attention::KvCacheBlock`], or a slab of the serving arena's
//!   pages addressed through a request's page list.
//!
//! Outside the linears there is one copy of every operation, and it works
//! row by row: a row's result depends on its token, its position and the
//! K/V rows below it, never on how many rows share the pass, how they are
//! split into lanes, or where the K/V rows are stored. With the in-process
//! GEMMs producing every output element by the same `dot4`/`dot` reduction
//! whatever the row count, batch-vs-solo and joint-vs-incremental prefill
//! agree bit for bit by construction; the sharded executor differs from
//! dense only inside a linear, where its seam makes the result independent
//! of the shard count.

use crate::attention::apply_rope_with;
use crate::block::{normed_into, POSITION_GAIN};
use crate::config::{Activation, ArchStyle, LayerKind, ModelConfig, RopeTable};
use crate::hooks::{HookKind, LayerTap, TapCtx, TapPoint};
use crate::scratch::{AttnScratch, BlockScratch, DecodeScratch, MlpScratch};
use crate::weights::{BlockWeights, Linear, ModelWeights, NormParams};
use ft2_tensor::ops::mul_inplace;
use ft2_tensor::{
    add_inplace, dot, gelu_inplace, relu_inplace, silu_inplace, softmax_inplace, DType, Matrix,
};
use std::convert::Infallible;
use std::ops::Range;

/// Contiguous rows of one sequence inside a pass's row batch. Lanes own
/// the batch's rows in order: lane 0 the first `rows`, lane 1 the next, …
pub struct Lane<'a, Q> {
    /// Rows this lane owns: positions `start_pos..start_pos + rows`.
    pub rows: usize,
    /// Absolute sequence position of the lane's first row.
    pub start_pos: usize,
    /// Generation step reported to the lane's tap (0 = prefill).
    pub step: usize,
    /// The sequence's handle into the [`KvStore`].
    pub seq: &'a Q,
    /// Observer/mutator of the lane's linear-layer outputs.
    pub tap: Option<&'a mut dyn LayerTap>,
}

/// How a linear layer runs (and on which threads a pass's rows attend).
pub trait Exec {
    /// What a failed linear reports; [`Infallible`] for in-process GEMMs.
    type Error;

    /// `out = x · Wᵀ + b` for the layer at `point`, quantised to `dtype`.
    /// `golden` is that layer in the walk's own weight set.
    fn linear(
        &mut self,
        golden: &Linear,
        point: TapPoint,
        dtype: DType,
        x: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), Self::Error>;

    /// Run `f(row)` for every row index. Each call touches its own row
    /// only, so the schedule cannot change a result.
    fn each_row(&self, rows: usize, f: impl Fn(usize) + Send + Sync) {
        (0..rows).for_each(f);
    }
}

/// [`Exec`] of the single-sequence engine: the block's own
/// [`crate::weights::Linear::forward_into`], on the calling thread.
pub struct Dense;

impl Exec for Dense {
    type Error = Infallible;

    fn linear(
        &mut self,
        golden: &Linear,
        _point: TapPoint,
        dtype: DType,
        x: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), Infallible> {
        golden.forward_into(x, dtype, out);
        Ok(())
    }
}

/// Hand `run` a pass of the one `lane` on `exec` — the generation loop's
/// pass, whatever runs its linears.
pub fn lane_pass<E: Exec, Q>(
    config: &ModelConfig,
    rope: Option<&RopeTable>,
    exec: &mut E,
    lane: Lane<'_, Q>,
    run: impl FnOnce(&mut Pass<'_, '_, E, Q>) -> Result<(), E::Error>,
) -> Result<(), E::Error> {
    // The stage is never used: the one lane covers every row.
    let (mut lanes, mut stage) = ([lane], Matrix::default());
    run(&mut Pass::new(config, rope, exec, &mut lanes, &mut stage))
}

/// [`lane_pass`] on the [`Dense`] executor, which cannot fail — the pass
/// of the single-block entry points.
pub fn dense_pass<Q>(
    config: &ModelConfig,
    rope: Option<&RopeTable>,
    lane: Lane<'_, Q>,
    run: impl FnOnce(&mut Pass<'_, '_, Dense, Q>) -> Result<(), Infallible>,
) {
    let Ok(()) = lane_pass(config, rope, &mut Dense, lane, run);
}

/// Where one block's K/V rows live. Rows are handed out as slices, so the
/// attention inner loops are the same `dot`/accumulate over `&[f32]`
/// whatever the store.
pub trait KvStore: Sync {
    /// A sequence's handle: what maps its positions onto the store's rows.
    type Seq: Sync;

    /// The key row of `seq`'s position `pos`.
    fn k_row(&self, seq: &Self::Seq, pos: usize) -> &[f32];

    /// The value row of `seq`'s position `pos`.
    fn v_row(&self, seq: &Self::Seq, pos: usize) -> &[f32];

    /// Store the K/V rows of `seq`'s position `pos`.
    fn put(&mut self, seq: &Self::Seq, pos: usize, k: &[f32], v: &[f32]);
}

/// Everything one forward pass holds constant across blocks.
pub struct Pass<'a, 'l, E, Q> {
    config: &'a ModelConfig,
    rope: Option<&'a RopeTable>,
    exec: &'a mut E,
    lanes: &'a mut [Lane<'l, Q>],
    /// Every row's absolute position and sequence, in row order — all the
    /// row-local stages (and the attention tasks, which cannot share the
    /// lanes' taps) need of the lanes.
    rows: Vec<(usize, &'l Q)>,
    stage: &'a mut Matrix,
}

impl<'a, 'l, E: Exec, Q> Pass<'a, 'l, E, Q> {
    /// A pass over `lanes`. `rope` must be the model's table for
    /// Llama-style configurations; `stage` is the buffer lane taps see
    /// their rows through when the pass has more than one lane.
    pub fn new(
        config: &'a ModelConfig,
        rope: Option<&'a RopeTable>,
        exec: &'a mut E,
        lanes: &'a mut [Lane<'l, Q>],
        stage: &'a mut Matrix,
    ) -> Self {
        let rows = lanes
            .iter()
            .flat_map(|lane| (0..lane.rows).map(|i| (lane.start_pos + i, lane.seq)))
            .collect();
        Pass {
            config,
            rope,
            exec,
            lanes,
            rows,
            stage,
        }
    }

    /// Let every lane's tap see (and mutate) its rows of `data`.
    fn observe(&mut self, point: TapPoint, hook: HookKind, data: &mut Matrix) {
        let dtype = self.config.dtype;
        let ctx = |step, first_pos| TapCtx {
            point,
            hook,
            step,
            first_pos,
            dtype,
        };
        if let [lane] = &mut *self.lanes {
            // One lane covers every row: its tap gets the matrix itself.
            if let Some(tap) = lane.tap.as_deref_mut() {
                tap.on_output(&ctx(lane.step, lane.start_pos), data);
            }
            return;
        }
        let (cols, mut row0) = (data.cols(), 0);
        for lane in self.lanes.iter_mut() {
            let range = row0 * cols..(row0 + lane.rows) * cols;
            row0 += lane.rows;
            let Some(tap) = lane.tap.as_deref_mut() else {
                continue;
            };
            self.stage.reset(lane.rows, cols);
            self.stage
                .as_mut_slice()
                .copy_from_slice(&data.as_slice()[range.clone()]);
            tap.on_output(&ctx(lane.step, lane.start_pos), self.stage);
            data.as_mut_slice()[range].copy_from_slice(self.stage.as_slice());
        }
    }

    /// One linear layer: run it, then let the lanes' taps at it.
    fn linear(
        &mut self,
        bw: &BlockWeights,
        block: usize,
        layer: LayerKind,
        x: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), E::Error> {
        let point = TapPoint { block, layer };
        let golden = bw.layer(layer).expect("layer kind of this architecture");
        self.exec.linear(golden, point, self.config.dtype, x, out)?;
        self.observe(point, HookKind::LinearOutput, out);
        Ok(())
    }

    /// The MLP activation on `h` in place, then offered to the taps as the
    /// [`HookKind::ActivationOutput`] of the linear `layer` it follows.
    fn activate(&mut self, block: usize, layer: LayerKind, h: &mut Matrix) {
        match self.config.activation {
            Activation::Relu => relu_inplace(h),
            Activation::Gelu => gelu_inplace(h),
            Activation::Silu => silu_inplace(h),
        }
        self.observe(TapPoint { block, layer }, HookKind::ActivationOutput, h);
    }

    /// Pre-norm plus the position-dependent activation gain
    /// ([`POSITION_GAIN`]) at each row's own absolute position.
    fn pre_norm(&self, params: &NormParams, x: &Matrix, y: &mut Matrix) {
        normed_into(self.config, params, x, y);
        for (r, &(pos, _)) in self.rows.iter().enumerate() {
            let gain = 1.0 + POSITION_GAIN * pos as f32;
            for v in y.row_mut(r) {
                *v *= gain;
            }
        }
    }
}

/// Raw pointer handed to row-parallel tasks (attention rows, linear row
/// blocks). Each task touches only its own rows of the matrix behind the
/// pointer, so concurrent tasks never alias.
struct RowSlab(*mut f32, usize);

impl RowSlab {
    fn of(m: &mut Matrix) -> RowSlab {
        RowSlab(m.as_mut_slice().as_mut_ptr(), m.cols())
    }

    /// Rows `rows` of the slab as one mutable row-major slice.
    ///
    /// # Safety
    /// The rows must lie inside the backing matrix, which must outlive the
    /// slice, and the caller must be the only task touching them while it
    /// lives.
    // Takes `&self` deliberately: the closure must capture the whole slab
    // (not the raw-pointer field) so the manual Send/Sync impls apply, and
    // exclusivity is per-row (caller-guaranteed), not per-slab.
    #[allow(clippy::mut_from_ref)]
    unsafe fn rows_mut(&self, rows: Range<usize>) -> &mut [f32] {
        // SAFETY: rows are disjoint `stride`-strided ranges of one live
        // allocation; the caller guarantees bounds and exclusive access.
        unsafe {
            std::slice::from_raw_parts_mut(self.0.add(rows.start * self.1), rows.len() * self.1)
        }
    }
}

// SAFETY: tasks index disjoint rows (each task touches its own rows only),
// and `Exec::each_row` ends every task before the borrow of the underlying
// matrix resumes.
unsafe impl Send for RowSlab {}
// SAFETY: same disjoint-rows argument — no two tasks read or write the
// same element.
unsafe impl Sync for RowSlab {}

/// `out = x · Wᵀ + b` for `golden`, quantised to `dtype`, in up to `blocks`
/// contiguous row blocks, one [`Exec::each_row`] task each: a task runs
/// [`Linear::forward_rows_into`] straight into its own rows of `out`.
/// Every row is the same per-row computation whatever the blocking, so the
/// block count (and the schedule) cannot change a result.
pub fn linear_in_row_blocks<E: Exec>(
    exec: &E,
    blocks: usize,
    golden: &Linear,
    dtype: DType,
    x: &Matrix,
    out: &mut Matrix,
) {
    let rows = x.rows();
    out.reset(rows, golden.out_features());
    let blocks = blocks.clamp(1, rows.max(1));
    let slab = RowSlab::of(out);
    exec.each_row(blocks, |b| {
        let block = b * rows / blocks..(b + 1) * rows / blocks;
        // SAFETY: the blocks partition `0..rows` and block `b` belongs to
        // this task alone (see RowSlab); `out` was sized just above and
        // outlives `each_row`.
        let own = unsafe { slab.rows_mut(block.clone()) };
        golden.forward_rows_into(x, block, dtype, own);
    });
}

/// The attention half of a block: K/Q/V projections of `x`, RoPE, KV
/// append, causal attention per row, `OUT_PROJ`. The result lands in
/// `s.out`.
///
/// A row at position `pos` scores positions `0..=pos` only — like a
/// fused attention kernel, which never reads K/V rows of causally-masked
/// future positions — softmaxes that slice, and sums values over the same
/// range. Every term accumulates, so a NaN in a cached V row poisons the
/// output even when its softmax weight underflowed to exactly `0.0` (IEEE:
/// `0 × NaN = NaN`) — a zero-weight skip would mask it.
pub fn attend<E: Exec, S: KvStore>(
    pass: &mut Pass<'_, '_, E, S::Seq>,
    bw: &BlockWeights,
    block: usize,
    x: &Matrix,
    kv: &mut S,
    s: &mut AttnScratch,
) -> Result<(), E::Error> {
    let config = pass.config;
    let (heads, head_dim, hidden) = (config.heads, config.head_dim(), config.hidden);
    pass.linear(bw, block, LayerKind::KProj, x, &mut s.k)?;
    pass.linear(bw, block, LayerKind::QProj, x, &mut s.q)?;
    pass.linear(bw, block, LayerKind::VProj, x, &mut s.v)?;

    if config.style == ArchStyle::LlamaStyle {
        let table = pass.rope.expect("Llama-style pass without a RoPE table");
        for (r, &(pos, _)) in pass.rows.iter().enumerate() {
            apply_rope_with(s.q.row_mut(r), pos, heads, table);
            apply_rope_with(s.k.row_mut(r), pos, heads, table);
        }
    }
    for (r, &(pos, seq)) in pass.rows.iter().enumerate() {
        kv.put(seq, pos, s.k.row(r), s.v.row(r));
    }

    let longest = pass.rows.iter().map(|&(pos, _)| pos + 1).max();
    s.scores.reset(x.rows(), longest.unwrap_or(0));
    s.ctx.reset(x.rows(), hidden);
    let scale = 1.0 / (head_dim as f32).sqrt();
    {
        let scores = RowSlab::of(&mut s.scores);
        let ctx = RowSlab::of(&mut s.ctx);
        let (q, kv, rows) = (&s.q, &*kv, &pass.rows);
        pass.exec.each_row(rows.len(), |r| {
            let (pos, seq) = rows[r];
            // SAFETY: row `r` of each slab belongs to this task alone (see
            // RowSlab); both matrices were sized just above with a row per
            // task and outlive `each_row`.
            let (weights, out) = unsafe {
                (
                    &mut scores.rows_mut(r..r + 1)[..=pos],
                    ctx.rows_mut(r..r + 1),
                )
            };
            for h in 0..heads {
                let head = h * head_dim..(h + 1) * head_dim;
                let qh = &q.row(r)[head.clone()];
                for (j, w) in weights.iter_mut().enumerate() {
                    *w = dot(qh, &kv.k_row(seq, j)[head.clone()]) * scale;
                }
                softmax_inplace(weights);
                let oh = &mut out[head.clone()];
                for (j, &w) in weights.iter().enumerate() {
                    let vh = &kv.v_row(seq, j)[head.clone()];
                    for (o, &vv) in oh.iter_mut().zip(vh) {
                        *o += w * vv;
                    }
                }
            }
        });
    }
    pass.linear(bw, block, LayerKind::OutProj, &s.ctx, &mut s.out)
}

/// The MLP half of a block (both variants of Fig. 1); the result lands in
/// `s.out`.
pub fn mlp<E: Exec, Q>(
    pass: &mut Pass<'_, '_, E, Q>,
    bw: &BlockWeights,
    block: usize,
    x: &Matrix,
    s: &mut MlpScratch,
) -> Result<(), E::Error> {
    match pass.config.style {
        ArchStyle::OptStyle => {
            pass.linear(bw, block, LayerKind::Fc1, x, &mut s.h)?;
            pass.activate(block, LayerKind::Fc1, &mut s.h);
            pass.linear(bw, block, LayerKind::Fc2, &s.h, &mut s.out)
        }
        ArchStyle::LlamaStyle => {
            pass.linear(bw, block, LayerKind::GateProj, x, &mut s.h)?;
            pass.linear(bw, block, LayerKind::UpProj, x, &mut s.up)?;
            pass.activate(block, LayerKind::GateProj, &mut s.h);
            mul_inplace(&mut s.h, &s.up);
            pass.linear(bw, block, LayerKind::DownProj, &s.h, &mut s.out)
        }
    }
}

/// One pre-norm decoder block, updating the residual stream `x` in place:
/// `x += Attn(Norm(x))`, then `x += MLP(Norm(x))`.
pub fn block<E: Exec, S: KvStore>(
    pass: &mut Pass<'_, '_, E, S::Seq>,
    bw: &BlockWeights,
    idx: usize,
    x: &mut Matrix,
    kv: &mut S,
    s: &mut BlockScratch,
) -> Result<(), E::Error> {
    pass.pre_norm(&bw.attn_norm, x, &mut s.normed);
    attend(pass, bw, idx, &s.normed, kv, &mut s.attn)?;
    add_inplace(x, &s.attn.out);
    pass.pre_norm(&bw.mlp_norm, x, &mut s.normed);
    mlp(pass, bw, idx, &s.normed, &mut s.mlp)?;
    add_inplace(x, &s.mlp.out);
    Ok(())
}

/// The whole decoder stack for `tokens` (one per row, in lane order):
/// embedding at each row's position, every block over its `kv` store, and
/// the final norm. `weights` supplies embeddings and norms (and, for
/// [`Dense`], the linears). The hidden states land in `s.hidden`; an `Err`
/// leaves the stores with whatever rows the blocks before it appended.
pub fn walk<E: Exec, S: KvStore>(
    pass: &mut Pass<'_, '_, E, S::Seq>,
    weights: &ModelWeights,
    tokens: &[u32],
    kv: &mut [S],
    s: &mut DecodeScratch,
) -> Result<(), E::Error> {
    let config = pass.config;
    assert_eq!(tokens.len(), pass.rows.len(), "one token per lane row");
    s.x.reset(tokens.len(), config.hidden);
    for (r, &(pos, _)) in pass.rows.iter().enumerate() {
        let row = s.x.row_mut(r);
        row.copy_from_slice(weights.embed.row(tokens[r] as usize % config.vocab));
        if let Some(pos_embed) = &weights.pos_embed {
            let p = pos.min(pos_embed.rows() - 1);
            for (v, &pe) in row.iter_mut().zip(pos_embed.row(p)) {
                *v += pe;
            }
        }
    }
    s.x.quantize(config.dtype);
    for (idx, (bw, kvb)) in weights.blocks.iter().zip(kv).enumerate() {
        block(pass, bw, idx, &mut s.x, kvb, &mut s.block)?;
    }
    normed_into(config, &weights.final_norm, &s.x, &mut s.hidden);
    Ok(())
}
