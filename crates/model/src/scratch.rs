//! Reusable per-generation scratch buffers for the decode hot path.
//!
//! A decode step is one token through every block: each linear layer,
//! attention score buffer, and norm output used to be a fresh heap
//! allocation — dozens of short-lived matrices per token. [`DecodeScratch`]
//! owns one buffer per intermediate instead; the engine allocates it once
//! per generation and every step [`ft2_tensor::Matrix::reset`]s buffers in
//! place. The structs are split by pipeline stage so disjoint field borrows
//! (`&scratch.normed` feeding `&mut scratch.attn`) satisfy the borrow
//! checker without clones.

use ft2_tensor::Matrix;

/// Attention intermediates of one block call.
#[derive(Debug, Default)]
pub struct AttnScratch {
    /// Query projections `[n, hidden]`.
    pub q: Matrix,
    /// Key projections `[n, hidden]`.
    pub k: Matrix,
    /// Value projections `[n, hidden]`.
    pub v: Matrix,
    /// One score row per pass row `[n, longest context]`, reused across
    /// heads.
    pub scores: Matrix,
    /// Weighted value context `[n, hidden]` (pre `OUT_PROJ`).
    pub ctx: Matrix,
    /// Attention output `[n, hidden]` (post `OUT_PROJ`).
    pub out: Matrix,
}

/// MLP intermediates of one block call (both architecture styles; the
/// OPT-style path leaves `up` untouched).
#[derive(Debug, Default)]
pub struct MlpScratch {
    /// `FC1` / `GATE_PROJ` output `[n, ffn]`.
    pub h: Matrix,
    /// `UP_PROJ` output `[n, ffn]` (Llama-style only).
    pub up: Matrix,
    /// MLP output `[n, hidden]`.
    pub out: Matrix,
}

/// Intermediates of one decoder-block call.
#[derive(Debug, Default)]
pub struct BlockScratch {
    /// Pre-norm output feeding the attention or MLP sub-block.
    pub normed: Matrix,
    /// Attention-stage buffers.
    pub attn: AttnScratch,
    /// MLP-stage buffers.
    pub mlp: MlpScratch,
}

/// All scratch state of one generation (shared across blocks and steps —
/// every buffer is fully overwritten before it is read each call).
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// The residual stream `[n, hidden]`.
    pub x: Matrix,
    /// Per-block-call buffers.
    pub block: BlockScratch,
    /// Final-norm output `[n, hidden]`.
    pub hidden: Matrix,
    /// LM-head logits `[1, vocab]`.
    pub logits: Matrix,
}

impl DecodeScratch {
    /// Fresh scratch with empty buffers; they grow to steady-state sizes on
    /// the first forward pass and are reused from then on.
    pub fn new() -> DecodeScratch {
        DecodeScratch::default()
    }
}
