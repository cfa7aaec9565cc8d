//! Allocation high-watermark accounting for matrix buffers.
//!
//! Every [`Mat`](crate::Mat) construction and drop reports its backing
//! buffer's capacity here, so the process-wide live-byte count and its peak
//! are observable at any point — the safe-Rust stand-in for a GPU memory
//! pool's high-watermark query. A traced pipeline run resets the peak at
//! each stage seam ([`reset_peak`]) to attribute `stage.*.peak_bytes`
//! counters (an untraced run leaves it alone), and
//! `tcevd-perfmodel`'s footprint predictions are validated against the same
//! numbers.
//!
//! Counters are global atomics with relaxed ordering: matrix buffers are
//! allocated on the orchestrating thread (the parallel fan-outs hand workers
//! *views* of pre-allocated storage, never fresh `Mat`s), so the recorded
//! peak is deterministic at any worker-pool size — `tests/determinism.rs`
//! holds the pipeline to that.

use std::sync::atomic::{AtomicU64, Ordering};

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// A matrix buffer of `bytes` bytes came alive.
pub(crate) fn on_alloc(bytes: usize) {
    let now = CURRENT.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

/// A matrix buffer of `bytes` bytes was dropped.
pub(crate) fn on_dealloc(bytes: usize) {
    CURRENT.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// Bytes currently held by live matrix buffers.
pub fn current_bytes() -> u64 {
    CURRENT.load(Ordering::Relaxed)
}

/// High watermark of [`current_bytes`] since process start or the last
/// [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restart the watermark from the current live-byte count (stage seams call
/// this so each stage's peak is attributed to that stage alone). Returns the
/// live-byte baseline the new epoch starts from.
pub fn reset_peak() -> u64 {
    let now = CURRENT.load(Ordering::Relaxed);
    PEAK.store(now, Ordering::Relaxed);
    now
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mat;

    // Assertions stay valid under concurrent allocation from sibling tests:
    // while a buffer is alive its contribution is part of CURRENT, and every
    // other test's contributions are non-negative.

    #[test]
    fn live_matrices_are_visible_in_the_counters() {
        const BYTES: u64 = 1024 * 1024 * 4; // 1024×1024 f32
        let m = Mat::<f32>::zeros(1024, 1024);
        assert!(current_bytes() >= BYTES);
        assert!(peak_bytes() >= BYTES);
        assert!(peak_bytes() >= current_bytes() || peak_bytes() >= BYTES);
        drop(m);
    }

    #[test]
    fn clone_and_drop_balance() {
        let m = Mat::<f64>::zeros(256, 256);
        let before = current_bytes();
        let c = m.clone();
        assert!(current_bytes() >= before); // the clone's buffer is counted
        drop(c);
        drop(m);
    }

    #[test]
    fn reset_peak_restarts_from_live_bytes() {
        {
            let _big = Mat::<f32>::zeros(512, 512);
        }
        let live = reset_peak();
        assert!(peak_bytes() >= live);
        // a fresh allocation raises the new epoch's watermark again
        let m = Mat::<f32>::zeros(512, 512);
        assert!(peak_bytes() >= live + 512 * 512 * 4);
        drop(m);
    }
}
