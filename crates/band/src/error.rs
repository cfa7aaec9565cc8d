//! Typed errors for the band-reduction stage.
//!
//! `tcevd-band` sits below `tcevd-core` in the crate graph, so it cannot
//! name the pipeline-wide `EvdError`; instead it reports its own
//! [`BandError`], which core absorbs via `From<BandError> for EvdError`.

/// Error from the SBR entry points ([`crate::sbr_wy()`] / [`crate::sbr_zy()`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BandError {
    /// SBR needs a square symmetric matrix.
    NotSquare {
        /// Rows of the offending input.
        rows: usize,
        /// Columns of the offending input.
        cols: usize,
    },
    /// The target bandwidth must be ≥ 1.
    ZeroBandwidth,
    /// The input contained a NaN or infinity.
    NonFinite,
    /// The attached `CancelToken` requested cancellation; the reduction
    /// stopped cooperatively at a level boundary. Core maps this to its
    /// deadline-exceeded error.
    Cancelled,
}

impl std::fmt::Display for BandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BandError::NotSquare { rows, cols } => {
                write!(f, "SBR needs a square symmetric matrix, got {rows}x{cols}")
            }
            BandError::ZeroBandwidth => write!(f, "bandwidth must be >= 1"),
            BandError::NonFinite => write!(f, "SBR input contains NaN or infinity"),
            BandError::Cancelled => write!(f, "band reduction cancelled at a level boundary"),
        }
    }
}

impl std::error::Error for BandError {}

/// Validate the common SBR preconditions: square, bandwidth ≥ 1, finite.
pub(crate) fn check_sbr_input(
    a: &tcevd_matrix::Mat<f32>,
    bandwidth: usize,
) -> Result<(), BandError> {
    if !a.is_square() {
        return Err(BandError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if bandwidth == 0 {
        return Err(BandError::ZeroBandwidth);
    }
    for j in 0..a.cols() {
        for i in 0..a.rows() {
            if !a[(i, j)].is_finite() {
                return Err(BandError::NonFinite);
            }
        }
    }
    Ok(())
}
