#![forbid(unsafe_code)]
//! # tcevd-band — successive band reduction and bulge chasing
//!
//! The two stages of two-stage tridiagonalization (paper Figure 1), plus the
//! machinery around them:
//!
//! * [`sbr_zy()`] — conventional ZY-representation SBR (the MAGMA-style
//!   baseline with tall-skinny GEMMs).
//! * [`sbr_wy()`] — the paper's Algorithm 1: recursive WY-representation SBR
//!   with big-block deferred trailing updates ('squeezed' near-square
//!   GEMMs for Tensor Cores).
//! * [`sbr_dbr()`] — detached band reduction (the follow-up paper): the WY
//!   recursion with `nb` decoupled from `b` and the trailing update folded
//!   into one rank-`nb` symmetric syr2k per block.
//! * [`formw`] — the paper's Algorithm 2: recursive merge of per-block WY
//!   factors for the eigenvector back-transformation.
//! * [`bulge`] — band → tridiagonal bulge chasing (stage 2).
//! * [`trace_model`] — dry-run GEMM/panel shape traces of both SBR variants
//!   at arbitrary n, validated call-for-call against the real
//!   implementations; these drive the performance-model reproduction of the
//!   paper's timing figures.
//!
//! All numeric drivers take a
//! [`GemmContext`](tcevd_tensorcore::GemmContext), so the same code runs on
//! the simulated Tensor Core (fp16), the error-corrected Tensor Core, or
//! plain FP32 — the paper's three configurations.

#![deny(clippy::unwrap_used)]

pub mod bulge;
pub mod common;
pub mod error;
pub mod formw;
pub mod panel;
mod qupdate;
pub mod sbr_dbr;
pub mod sbr_wy;
pub mod sbr_zy;
pub mod trace_model;

pub use bulge::{bulge_chase, bulge_chase_with, BulgeResult};
pub use common::{max_outside_band, SbrOptions, SbrResult};
pub use error::BandError;
pub use formw::{apply_q, form_wy};
pub use panel::{factor_panel, factor_panel_with, FactoredPanel, PanelKind};
pub use sbr_dbr::{sbr_dbr, DbrOptions};
pub use sbr_wy::{sbr_wy, LevelWy, WyOptions, WySbrResult};
pub use sbr_zy::sbr_zy;
pub use trace_model::{
    dbr_trace, dbr_trace_on, formw_trace, formw_trace_on, wy_trace, wy_trace_on, zy_trace,
    zy_trace_on, PanelOp, SbrTrace,
};
