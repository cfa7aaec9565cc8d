//! # tcevd-tensorcore — software Tensor Core
//!
//! This crate is the hardware-substitution layer of the reproduction (see
//! DESIGN.md §2): an A100 Tensor Core simulated in software, faithful at the
//! level that matters for the paper's claims — *numerics* (operand
//! truncation to fp16/tf32, exact products, fp32 accumulation, optional
//! round-toward-zero) rather than cycle timing (which lives in
//! `tcevd-perfmodel`).
//!
//! Layers, bottom-up:
//! * [`mma`] — one 16×16×16 HMMA instruction on fp16 tiles.
//! * [`gemm`] — full TC-GEMM; a strict tile-walking path validates the fast
//!   truncate-then-SGEMM path used by the numeric experiments.
//! * [`ec`] — error-corrected TC-GEMM (Ootomo–Yokota), recovering ≈FP32
//!   accuracy from three reduced-precision products.
//! * [`engine`] — the [`engine::GemmContext`] every algorithm
//!   crate multiplies through: engine selection (SGEMM / TC / EC-TC) plus
//!   the GEMM shape tracing that feeds the performance model.
//! * [`labels`] — the closed registry of GEMM step labels that tracing,
//!   fault plans, and the sanitizer key on (enforced by `tcevd-lint`).
//! * `sanitize` (feature `sanitize`) — runtime numerical sanitizer: scans
//!   GEMM operands/outputs for NaN/±∞ and f16-overflow magnitudes and
//!   attributes the first violation to the step label that produced it.
//! * [`cancel`] — cooperative [`CancelToken`]s the service layer
//!   (`tcevd-serve`) attaches to a context so a job's compute budget is
//!   honored at the pipeline's stage seams.

#![forbid(unsafe_code)]

pub mod cancel;
pub mod ec;
pub mod engine;
pub mod gemm;
pub mod labels;
pub mod mma;
#[cfg(feature = "sanitize")]
pub mod sanitize;
pub mod syr2k;

pub use cancel::CancelToken;
pub use ec::{ec_gemm, EcMode};
pub use engine::tf32_gemm;
pub use engine::{Engine, FaultMode, GemmContext, GemmFault, GemmRecord};
pub use gemm::{tc_gemm, tc_gemm_strict, truncate_f16};
pub use labels::{is_registered, GEMM_LABELS};
pub use mma::AccumMode;
#[cfg(feature = "sanitize")]
pub use sanitize::{SanitizeKind, SanitizeOperand, SanitizeReport};
pub use syr2k::{syr2k_flops, tc_syr2k};
