#![warn(missing_docs)]
//! # ft2-tensor
//!
//! A small CPU tensor library purpose-built for the FT2 reproduction's
//! transformer inference engine.
//!
//! Design choices:
//!
//! * Values are carried as `f32` (the accumulator precision of GPU FP16
//!   GEMM pipelines); *storage precision* is modelled by explicitly
//!   quantising through the [`DType`] grid (re-exported from
//!   `ft2-numeric`, one match per slice via [`Matrix::quantize`]) at the
//!   points where a real FP16 model would store tensors (weights at load
//!   time, linear-layer outputs after each kernel). Fault injection then
//!   corrupts the narrow *stored* representation, matching the paper's
//!   fault model.
//! * Matrices are dense row-major [`Matrix`]; weights are stored
//!   `[out_features, in_features]` so GEMM reads both operands
//!   sequentially ([`gemm::matmul_transb_into`]).
//! * Kernels run on the calling thread: the products this workspace forms
//!   are microseconds long, and the parallelism is above this layer (across
//!   trials, shards, batch lanes and row blocks, on the `ft2-parallel`
//!   pool).

pub mod gemm;
pub mod matrix;
pub mod ops;
pub mod seam;

pub use gemm::{
    dot, matmul_naive, matmul_transb_batch_into, matmul_transb_into, matmul_transb_rows_into,
    KernelPolicy,
};
pub use ft2_numeric::DType;
pub use matrix::Matrix;
pub use seam::{matmul_transb_cols_f64, reduce_seam_into};
pub use ops::{
    add_bias_inplace, add_inplace, argmax, gelu_inplace, layer_norm, relu_inplace, rms_norm,
    scale_inplace, silu_inplace, softmax_inplace, softmax_rows,
};
