//! Multi-head causal self-attention with a KV cache.

use crate::config::{ArchStyle, ModelConfig, RopeTable};
use crate::hooks::TapList;
use crate::scratch::AttnScratch;
use crate::walk::{self, KvStore, Lane};
use crate::weights::BlockWeights;
use ft2_tensor::{KernelPolicy, Matrix};

/// Cached keys and values of one block (one row per past position).
#[derive(Clone, Debug)]
pub struct KvCacheBlock {
    /// Cached keys `[positions, hidden]` (post-RoPE for Llama-style).
    pub k: Matrix,
    /// Cached values `[positions, hidden]`.
    pub v: Matrix,
}

impl KvCacheBlock {
    /// Empty cache for a given hidden size.
    pub fn new(hidden: usize) -> Self {
        KvCacheBlock {
            k: Matrix::zeros(0, hidden),
            v: Matrix::zeros(0, hidden),
        }
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.k.rows()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.k.rows() == 0
    }

    /// Drop cached positions past `len` — token rollback. Attention only
    /// ever *appends* rows for new positions (prior rows are immutable), so
    /// truncating to a pre-step length restores the exact pre-step cache.
    pub fn truncate(&mut self, len: usize) {
        self.k.truncate_rows(len);
        self.v.truncate_rows(len);
    }
}

/// Apply rotary position embeddings in place to `[n, hidden]` data laid out
/// as `heads × head_dim`, for absolute positions `start_pos..start_pos + n`.
/// RoPE is a per-pair rotation: it preserves magnitudes exactly, which is
/// why it plays no role in the criticality analysis.
///
/// Rotation pairs are `(2i, 2i+1)`, so an odd `head_dim` has no valid
/// pairing for its last lane — that is a configuration error
/// (`ModelConfig::validate` rejects it), and this asserts rather than
/// silently leaving the lane unrotated as it used to.
pub fn apply_rope(x: &mut Matrix, start_pos: usize, heads: usize, head_dim: usize) {
    debug_assert_eq!(x.cols(), heads * head_dim);
    assert!(
        head_dim.is_multiple_of(2),
        "rotary embeddings need an even head_dim, got {head_dim}"
    );
    let half = head_dim / 2;
    for r in 0..x.rows() {
        let pos = (start_pos + r) as f32;
        let row = x.row_mut(r);
        for h in 0..heads {
            let base = h * head_dim;
            for i in 0..half {
                let theta = pos * 10_000f32.powf(-2.0 * i as f32 / head_dim as f32);
                let (sin, cos) = theta.sin_cos();
                let a = row[base + 2 * i];
                let b = row[base + 2 * i + 1];
                row[base + 2 * i] = a * cos - b * sin;
                row[base + 2 * i + 1] = a * sin + b * cos;
            }
        }
    }
}

/// Table-driven [`apply_rope`] of one row at absolute position `pos`:
/// identical rotation (the table stores the bit-exact same sin/cos values)
/// without the per-element `powf`/`sin_cos`.
pub fn apply_rope_with(row: &mut [f32], pos: usize, heads: usize, table: &RopeTable) {
    let half = table.half();
    let head_dim = 2 * half;
    debug_assert_eq!(row.len(), heads * head_dim);
    let (sin, cos) = table.at(pos);
    for h in 0..heads {
        let base = h * head_dim;
        for i in 0..half {
            let a = row[base + 2 * i];
            let b = row[base + 2 * i + 1];
            row[base + 2 * i] = a * cos[i] - b * sin[i];
            row[base + 2 * i + 1] = a * sin[i] + b * cos[i];
        }
    }
}

/// The contiguous store: position `pos` is row `pos`, and a sequence
/// needs no handle. Rows are only ever appended (see
/// [`KvCacheBlock::truncate`]).
impl KvStore for KvCacheBlock {
    type Seq = ();

    fn k_row(&self, _seq: &(), pos: usize) -> &[f32] {
        self.k.row(pos)
    }

    fn v_row(&self, _seq: &(), pos: usize) -> &[f32] {
        self.v.row(pos)
    }

    fn put(&mut self, _seq: &(), pos: usize, k: &[f32], v: &[f32]) {
        debug_assert_eq!(self.len(), pos, "cache out of sync with position");
        self.k.push_row(k);
        self.v.push_row(v);
    }
}

/// Run causal multi-head attention for the rows of `x` (absolute positions
/// `start_pos..start_pos + n`), appending this step's K/V to the cache; the
/// attention output `[n, hidden]` (after `OUT_PROJ`) lands in `scratch.out`.
///
/// This is [`walk::attend`] — the layer walk's attention half, which
/// documents the one kernel semantics (every term accumulates) — for one
/// lane on the dense executor over a contiguous cache. `rope: None` on a
/// Llama-style configuration builds the table for the call.
///
/// `policy` is ignored: [`KernelPolicy`] has one variant left. The
/// argument (and the enum) stay only because `benchmark/src/probes.rs`
/// names both and a crate PR may not edit the benchmark; a
/// `benchmark`-archetype PR can drop them together.
#[allow(clippy::too_many_arguments)]
pub fn attention_forward_into(
    config: &ModelConfig,
    weights: &BlockWeights,
    block_idx: usize,
    x: &Matrix,
    start_pos: usize,
    step: usize,
    cache: &mut KvCacheBlock,
    taps: &mut TapList<'_>,
    _policy: KernelPolicy,
    rope: Option<&RopeTable>,
    scratch: &mut AttnScratch,
) {
    let built;
    let rope = match rope {
        None if config.style == ArchStyle::LlamaStyle => {
            built = RopeTable::build(config);
            Some(&built)
        }
        given => given,
    };
    let lane = Lane {
        rows: x.rows(),
        start_pos,
        step,
        seq: &(),
        tap: Some(taps),
    };
    walk::dense_pass(config, rope, lane, |pass| {
        walk::attend(pass, weights, block_idx, x, cache, scratch)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::weights::ModelWeights;

    /// [`attention_forward_into`] with fresh scratch, returning the
    /// attention output.
    fn attention(
        config: &ModelConfig,
        weights: &BlockWeights,
        x: &Matrix,
        start_pos: usize,
        step: usize,
        cache: &mut KvCacheBlock,
        taps: &mut TapList<'_>,
    ) -> Matrix {
        let mut scratch = AttnScratch::default();
        attention_forward_into(
            config,
            weights,
            0,
            x,
            start_pos,
            step,
            cache,
            taps,
            KernelPolicy::Strict,
            None,
            &mut scratch,
        );
        scratch.out
    }

    #[test]
    fn rope_preserves_norm() {
        let mut x = Matrix::from_fn(3, 16, |r, c| (r * 16 + c) as f32 * 0.1 - 1.0);
        let norms_before: Vec<f32> = (0..3)
            .map(|r| x.row(r).iter().map(|v| v * v).sum::<f32>())
            .collect();
        apply_rope(&mut x, 5, 2, 8);
        for (r, &before) in norms_before.iter().enumerate() {
            let after: f32 = x.row(r).iter().map(|v| v * v).sum();
            assert!((after - before).abs() < 1e-3);
        }
    }

    #[test]
    fn rope_at_position_zero_is_identity() {
        let orig = Matrix::from_fn(1, 8, |_, c| c as f32 + 1.0);
        let mut x = orig.clone();
        apply_rope(&mut x, 0, 1, 8);
        assert!(x.max_abs_diff(&orig) < 1e-6);
    }

    #[test]
    fn prefill_then_decode_equals_full_prefill() {
        // Processing [t0 t1 t2] in one prefill must give the same last-row
        // output as prefilling [t0 t1] then decoding t2 — the KV-cache
        // correctness invariant.
        let config = ModelConfig::tiny_llama();
        let weights = ModelWeights::build(&config);
        let block = &weights.blocks[0];
        let x_full = Matrix::from_fn(3, config.hidden, |r, c| {
            ((r * 31 + c * 7) % 13) as f32 * 0.1 - 0.6
        });

        let mut taps = TapList::new();
        let mut cache_a = KvCacheBlock::new(config.hidden);
        let out_full = attention(&config, block, &x_full, 0, 0, &mut cache_a, &mut taps);

        let mut cache_b = KvCacheBlock::new(config.hidden);
        let x01 = x_full.slice_rows(0, 2);
        let _ = attention(&config, block, &x01, 0, 0, &mut cache_b, &mut taps);
        let x2 = x_full.slice_rows(2, 3);
        let out_step = attention(&config, block, &x2, 2, 1, &mut cache_b, &mut taps);

        // One walk, one reduction order per element: the match is exact.
        assert_eq!(out_full.slice_rows(2, 3), out_step);
    }

    #[test]
    fn causality_first_row_ignores_future() {
        // Row 0's output must not depend on later rows.
        let config = ModelConfig::tiny_opt();
        let weights = ModelWeights::build(&config);
        let block = &weights.blocks[0];
        let mut taps = TapList::new();

        let x_a = Matrix::from_fn(2, config.hidden, |r, c| {
            if r == 0 {
                (c % 5) as f32 * 0.2
            } else {
                1.0
            }
        });
        let x_b = Matrix::from_fn(2, config.hidden, |r, c| {
            if r == 0 {
                (c % 5) as f32 * 0.2
            } else {
                -1.0
            }
        });

        let mut ca = KvCacheBlock::new(config.hidden);
        let out_a = attention(&config, block, &x_a, 0, 0, &mut ca, &mut taps);
        let mut cb = KvCacheBlock::new(config.hidden);
        let out_b = attention(&config, block, &x_b, 0, 0, &mut cb, &mut taps);

        let row0_a = out_a.slice_rows(0, 1);
        let row0_b = out_b.slice_rows(0, 1);
        assert!(row0_a.max_abs_diff(&row0_b) < 1e-6);
        // But row 1 must differ.
        let row1_a = out_a.slice_rows(1, 2);
        let row1_b = out_b.slice_rows(1, 2);
        assert!(row1_a.max_abs_diff(&row1_b) > 1e-4);
    }

    #[test]
    fn truncate_restores_pre_step_cache_exactly() {
        // Decode a position, roll it back, re-decode: the cache contents and
        // the attention output must be bit-identical — the invariant the
        // engine's token rollback relies on.
        let config = ModelConfig::tiny_llama();
        let weights = ModelWeights::build(&config);
        let block = &weights.blocks[0];
        let mut taps = TapList::new();
        let prefill = Matrix::from_fn(3, config.hidden, |r, c| ((r * 13 + c) % 11) as f32 * 0.07);
        let mut cache = KvCacheBlock::new(config.hidden);
        let _ = attention(&config, block, &prefill, 0, 0, &mut cache, &mut taps);
        let snapshot_len = cache.len();
        let k_before = cache.k.clone();

        let x = Matrix::from_fn(1, config.hidden, |_, c| (c % 5) as f32 * 0.11 - 0.2);
        let out_a = attention(&config, block, &x, 3, 1, &mut cache, &mut taps);
        cache.truncate(snapshot_len);
        assert_eq!(cache.len(), snapshot_len);
        assert_eq!(cache.k, k_before);
        let out_b = attention(&config, block, &x, 3, 1, &mut cache, &mut taps);
        assert_eq!(out_a, out_b);
    }

    #[test]
    #[should_panic(expected = "even head_dim")]
    fn rope_rejects_odd_head_dim() {
        let mut x = Matrix::zeros(1, 9);
        apply_rope(&mut x, 0, 1, 9);
    }

    #[test]
    fn table_rope_is_bit_identical_to_on_the_fly() {
        let config = ModelConfig::tiny_llama();
        let table = RopeTable::build(&config);
        let heads = config.heads;
        let head_dim = config.head_dim();
        let orig = Matrix::from_fn(4, config.hidden, |r, c| {
            ((r * 17 + c * 3) % 23) as f32 * 0.13 - 1.1
        });
        for start_pos in [0usize, 1, 9, config.max_seq - 4] {
            let mut a = orig.clone();
            let mut b = orig.clone();
            apply_rope(&mut a, start_pos, heads, head_dim);
            for r in 0..4 {
                apply_rope_with(b.row_mut(r), start_pos + r, heads, &table);
            }
            assert_eq!(a, b, "bitwise divergence at start_pos={start_pos}");
        }
    }

    /// A NaN planted in a cached V row must poison the attention output
    /// even when that position's softmax weight underflowed to exactly 0.0
    /// (`0 × NaN = NaN`) — a `w == 0.0` skip would mask it.
    #[test]
    fn strict_attention_propagates_nan_from_cached_v() {
        let config = ModelConfig::tiny_opt();
        let weights = ModelWeights::build(&config);
        let block = &weights.blocks[0];
        let mut taps = TapList::new();

        // Prefill 3 positions, corrupt position 0's V row, and make its
        // softmax weight underflow deterministically: a tap forces the
        // decode step's Q to all-ones while position 2's cached K is set to
        // all-100s, so every head scores ≈283 there and ≈0 elsewhere — the
        // other positions' weights are exp(≈−283) = exactly 0.0 in f32.
        struct ForceQ;
        impl crate::hooks::LayerTap for ForceQ {
            fn on_output(&mut self, ctx: &crate::hooks::TapCtx, data: &mut Matrix) {
                if ctx.point.layer == crate::config::LayerKind::QProj && ctx.step == 1 {
                    for v in data.as_mut_slice() {
                        *v = 1.0;
                    }
                }
            }
        }
        let mut run = |corrupt: bool| -> Matrix {
            let mut cache = KvCacheBlock::new(config.hidden);
            let prefill = Matrix::from_fn(3, config.hidden, |r, c| ((r * 7 + c) % 5) as f32 * 0.1);
            let _ = attention(&config, block, &prefill, 0, 0, &mut cache, &mut taps);
            for ccol in 0..config.hidden {
                cache.k.set(2, ccol, 100.0);
            }
            if corrupt {
                cache.v.set(0, 1, f32::NAN);
            }
            let x = Matrix::from_fn(1, config.hidden, |_, c| (c % 3) as f32 * 0.2 + 0.5);
            let mut force = ForceQ;
            let mut step_taps = TapList::new();
            step_taps.push(&mut force);
            let mut s2 = AttnScratch::default();
            attention_forward_into(
                &config,
                block,
                0,
                &x,
                3,
                1,
                &mut cache,
                &mut step_taps,
                KernelPolicy::Strict,
                None,
                &mut s2,
            );
            // Sanity: the weight for position 0 really is exactly zero
            // (the scratch keeps the last head's softmax row; every head
            // sees the same forced scores).
            assert_eq!(
                s2.scores.row(0)[0],
                0.0,
                "setup broken: position 0's weight did not underflow to 0.0"
            );
            s2.out
        };

        assert!(
            !run(false).has_nan(),
            "a clean cache must give a clean output"
        );
        assert!(
            run(true).has_nan(),
            "attention masked a NaN in a zero-weight cached V row"
        );
    }

    #[test]
    fn cache_grows_by_step_rows() {
        let config = ModelConfig::tiny_opt();
        let weights = ModelWeights::build(&config);
        let mut taps = TapList::new();
        let mut cache = KvCacheBlock::new(config.hidden);
        let x = Matrix::zeros(4, config.hidden);
        let _ = attention(&config, &weights.blocks[0], &x, 0, 0, &mut cache, &mut taps);
        assert_eq!(cache.len(), 4);
        let x1 = Matrix::zeros(1, config.hidden);
        let _ = attention(
            &config,
            &weights.blocks[0],
            &x1,
            4,
            1,
            &mut cache,
            &mut taps,
        );
        assert_eq!(cache.len(), 5);
    }
}
