#![warn(missing_docs)]
//! # ft2-model
//!
//! A from-scratch decoder-only transformer inference engine — the substrate
//! the paper's fault-injection and protection experiments run on.
//!
//! Two architecture families are implemented, matching Fig. 1 of the paper:
//!
//! * **OPT-style** (Fig. 1a — OPT-6.7B/2.7B, GPT-J-6B): pre-LayerNorm,
//!   learned positional embeddings, attention (`K/Q/V/OUT_PROJ`) and a
//!   two-layer MLP (`FC1 → activation → FC2`).
//! * **Llama-style** (Fig. 1b — Llama2, Vicuna, Qwen2): pre-RMSNorm, rotary
//!   position embeddings, attention, and a gated MLP
//!   (`GATE/UP_PROJ → SiLU(gate) ⊙ up → DOWN_PROJ`).
//!
//! Key features:
//!
//! * **Hook mechanism** ([`hooks`]): every linear-layer output passes
//!   through an ordered tap list, mirroring PyTorch's
//!   `register_forward_hook` — the interception point used both for fault
//!   injection and for FT2's range-restriction protection.
//! * **One layer walk** ([`walk`]): the decoder stack is walked by a single
//!   function over a batch of lanes, parameterised by how a linear runs
//!   (dense, shard fan-out, batched) and where K/V rows live (contiguous,
//!   paged) — the engine, the sharded executor and the serving runtime are
//!   instantiations, not copies.
//! * **KV-cached autoregressive generation** ([`engine`]): faults injected
//!   into `K/V_PROJ` outputs persist in the cache and keep corrupting later
//!   steps, exactly as on real serving stacks.
//! * **Architecture graph** ([`graph`]): a queryable description of the ops
//!   between each linear layer and the next, which `ft2-core` consumes to
//!   run the paper's criticality heuristic without any profiling run.
//! * **Shaped synthetic weights** ([`weights`], [`zoo`]): per-layer-type
//!   weight statistics reproduce the published activation distributions
//!   (Fig. 8, Fig. 12) so that criticality *emerges* from the arithmetic
//!   rather than being hard-coded.

pub mod attention;
pub mod block;
pub mod config;
pub mod engine;
pub mod graph;
pub mod hooks;
pub mod ladder;
pub mod mlp;
pub mod scratch;
pub mod shard;
pub mod state;
pub mod walk;
pub mod weights;
pub mod zoo;

pub use config::{Activation, ArchStyle, LayerKind, ModelConfig, NormKind, RopeTable};
pub use engine::{GenerationOutput, KvCache, Model, RecoveryPolicy, StepRecord};
pub use ft2_tensor::KernelPolicy;
pub use graph::{ArchGraph, OpClass};
pub use hooks::{
    AnomalyVerdict, HookKind, LayerTap, NoTaps, RecordingTap, StepReport, TapCtx, TapList,
    TapPoint, MAX_BLOCK_HITS,
};
pub use ladder::{Ladder, Rung};
pub use scratch::{AttnScratch, BlockScratch, DecodeScratch, MlpScratch};
pub use shard::{
    balanced_spans, DegradeEvent, PartialMut, RepairScope, ShardBlockWeights, ShardFailure,
    ShardIncidentKind, ShardPartialCtx, ShardPlan, ShardTap, ShardTapList, ShardWeights,
    ShardedGeneration, ShardedModel, Span, TaskDirective,
};
pub use state::{StateCtx, StateReport, StateTap, StateTapList};
pub use zoo::{model_zoo, ModelSpec, ZooModel};
