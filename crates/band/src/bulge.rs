//! Bulge chasing: symmetric band → tridiagonal (the second stage of
//! two-stage tridiagonalization; MAGMA's `ssytrd_sb2st` stand-in).
//!
//! Householder-based chase (Schwarz / SBR-toolbox style): for each column
//! `j`, a length-≤b reflector annihilates the below-subdiagonal band
//! entries; the two-sided application pushes a bulge `b` rows down, which
//! the next reflector annihilates, until the bulge falls off the matrix.
//! Each reflector only touches an O(b)-wide window, so the chase costs
//! `O(n²·b)` — the complexity the paper cites when discussing why the
//! bandwidth cannot grow unboundedly.
//!
//! This is the only stage-2 kernel: every request, with or without
//! eigenvectors, runs through it. It works in place on the dense band it
//! is given (the n×n matrix SBR returns), so it allocates no second n×n
//! buffer; only the optional `Q` is new. A caller that still needs the
//! band afterwards passes a clone.
//!
//! Generic over [`Scalar`]: the f32 pipeline and the f64 reference use the
//! same code.

use crate::qupdate::{apply_pending_to_q, batching_pays_off, PendingReflector, Q_FLUSH_REFLECTORS};
use tcevd_factor::householder::{apply_reflector_left, apply_reflector_right, larfg};
use tcevd_matrix::scalar::Scalar;
use tcevd_matrix::Mat;
use tcevd_trace::{span, TraceSink};

/// Result of a band→tridiagonal reduction: `B = Q·T·Qᵀ`.
pub struct BulgeResult<T: Scalar> {
    /// Diagonal of `T` (length n).
    pub diag: Vec<T>,
    /// Sub-diagonal of `T` (length n−1).
    pub offdiag: Vec<T>,
    /// Accumulated orthogonal factor (if requested).
    pub q: Option<Mat<T>>,
}

/// Reduce a symmetric band matrix (dense storage, half-bandwidth `b`) to
/// tridiagonal form by bulge chasing, consuming `band` as the workspace.
pub fn bulge_chase<T: Scalar>(band: Mat<T>, b: usize, accumulate_q: bool) -> BulgeResult<T> {
    bulge_chase_with(band, b, accumulate_q, &TraceSink::disabled())
}

/// [`bulge_chase`] with observability: emits a `bulge_chase` span and
/// tallies `bulge_sweeps` / `bulge_reflectors` into `sink`.
pub fn bulge_chase_with<T: Scalar>(
    mut a: Mat<T>,
    b: usize,
    accumulate_q: bool,
    sink: &TraceSink,
) -> BulgeResult<T> {
    let n = a.rows();
    assert!(a.is_square());
    assert!(b >= 1);
    let _span = span!(sink, "bulge_chase", n, b);
    // Stage-2 leading-term flop count (6n²b), matching the perfmodel.
    sink.add("kernel_flops.bulge", 6 * (n as u64) * (n as u64) * b as u64);
    let mut q = accumulate_q.then(|| Mat::<T>::identity(n, n));

    if b > 1 && n > 2 {
        let mut v = vec![T::ZERO; b + 1];
        // Q accumulation is the chase's O(n³) term (the band work is only
        // O(n²·b)), so each sweep records its reflectors and batch-applies
        // them to disjoint row blocks of Q in parallel — see
        // `crate::qupdate` for the bit-exactness argument. Both paths
        // produce identical bits, so the gate never affects results.
        let par_q = q.is_some() && batching_pays_off(n);
        let mut pending: Vec<PendingReflector<T>> = Vec::new();
        for j in 0..n - 2 {
            sink.add("bulge_sweeps", 1);
            // Chase the fill-in of column j down the band.
            let mut src_col = j;
            let mut s = j + 1;
            loop {
                let e = (s + b).min(n);
                let len = e - s;
                if len <= 1 {
                    break;
                }
                // Householder for x = A[s..e, src_col]: keep A[s, src_col].
                let alpha = a[(s, src_col)];
                for (t, i) in (s + 1..e).enumerate() {
                    v[t + 1] = a[(i, src_col)];
                }
                let (beta, tau) = larfg(alpha, &mut v[1..len]);
                v[0] = T::ONE;
                sink.add("bulge_reflectors", 1);

                if tau != T::ZERO {
                    // Two-sided application over the active window.
                    let wl = src_col;
                    let wh = (e + b).min(n);
                    apply_reflector_left(tau, &v[..len], a.view_mut(s, wl, len, wh - wl));
                    apply_reflector_right(tau, &v[..len], a.view_mut(wl, s, wh - wl, len));
                    if let Some(q) = q.as_mut() {
                        if par_q {
                            pending.push(PendingReflector {
                                s,
                                tau,
                                v: v[..len].to_vec(),
                            });
                        } else {
                            apply_reflector_right(tau, &v[..len], q.view_mut(0, s, n, len));
                        }
                    }
                }

                // Exact zeros in the annihilated entries (+ mirror).
                a[(s, src_col)] = beta;
                a[(src_col, s)] = beta;
                for i in s + 1..e {
                    a[(i, src_col)] = T::ZERO;
                    a[(src_col, i)] = T::ZERO;
                }

                src_col = s;
                s += b;
                if s >= n {
                    break;
                }
            }
            // Reflectors only ever append to Q's product, so batches can
            // span sweeps; flush once enough work has accumulated to
            // amortize the fan-out (order is preserved, bits unchanged).
            if pending.len() >= Q_FLUSH_REFLECTORS {
                if let Some(q) = q.as_mut() {
                    apply_pending_to_q(q, &pending);
                }
                pending.clear();
            }
        }
        if !pending.is_empty() {
            if let Some(q) = q.as_mut() {
                apply_pending_to_q(q, &pending);
            }
        }
    }

    let diag = (0..n).map(|i| a[(i, i)]).collect();
    // With `b == 1` or `n ≤ 2` no reflector ran and `a` is the input.
    let offdiag = (0..n.saturating_sub(1)).map(|i| a[(i + 1, i)]).collect();
    BulgeResult { diag, offdiag, q }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcevd_matrix::blas3::matmul;
    use tcevd_matrix::norms::{frobenius, orthogonality_residual};
    use tcevd_matrix::Op;

    /// Build a random symmetric band matrix.
    fn band_matrix(n: usize, b: usize, seed: u64) -> Mat<f64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = Mat::<f64>::zeros(n, n);
        for j in 0..n {
            for i in j..(j + b + 1).min(n) {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    fn tridiag_to_dense(d: &[f64], e: &[f64]) -> Mat<f64> {
        let n = d.len();
        let mut t = Mat::<f64>::zeros(n, n);
        for i in 0..n {
            t[(i, i)] = d[i];
            if i + 1 < n {
                t[(i + 1, i)] = e[i];
                t[(i, i + 1)] = e[i];
            }
        }
        t
    }

    fn check_chase(n: usize, b: usize, seed: u64) {
        let a = band_matrix(n, b, seed);
        let r = bulge_chase(a.clone(), b, true);
        let q = r.q.as_ref().unwrap();
        assert!(
            orthogonality_residual(q.as_ref()) < 1e-12 * n as f64,
            "Q not orthogonal at n={n} b={b}"
        );
        // B = Q·T·Qᵀ
        let t = tridiag_to_dense(&r.diag, &r.offdiag);
        let qt = matmul(q.as_ref(), Op::NoTrans, t.as_ref(), Op::NoTrans);
        let qtqt = matmul(qt.as_ref(), Op::NoTrans, q.as_ref(), Op::Trans);
        let mut diff = a.clone();
        for j in 0..n {
            for i in 0..n {
                diff[(i, j)] -= qtqt[(i, j)];
            }
        }
        let err = frobenius(diff.as_ref()) / (n as f64 * frobenius(a.as_ref()).max(1e-300));
        assert!(err < 1e-14, "backward error {err} at n={n} b={b}");
    }

    #[test]
    fn small_cases() {
        check_chase(8, 2, 1);
        check_chase(8, 3, 2);
        check_chase(12, 4, 3);
    }

    #[test]
    fn bandwidth_dividing_and_not() {
        check_chase(32, 4, 4);
        check_chase(33, 4, 5);
        check_chase(37, 5, 6);
    }

    #[test]
    fn large_bandwidth() {
        check_chase(24, 10, 7);
        // bandwidth ≥ n-1: the matrix is dense
        check_chase(10, 9, 8);
    }

    #[test]
    fn already_tridiagonal_passthrough() {
        let a = band_matrix(10, 1, 9);
        let r = bulge_chase(a.clone(), 1, true);
        for i in 0..10 {
            assert_eq!(r.diag[i], a[(i, i)]);
            if i + 1 < 10 {
                assert_eq!(r.offdiag[i], a[(i + 1, i)]);
            }
        }
        // Q must be identity
        let q = r.q.unwrap();
        assert_eq!(q.max_abs_diff(&Mat::identity(10, 10)), 0.0);
    }

    #[test]
    fn eigenvalue_preservation_via_trace_moments() {
        // tr(T) = tr(B) and tr(T²) = tr(B²) under similarity.
        let n = 20;
        let a = band_matrix(n, 3, 10);
        let r = bulge_chase(a.clone(), 3, false);
        let tr_a: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let tr_t: f64 = r.diag.iter().sum();
        assert!((tr_a - tr_t).abs() < 1e-12);
        let a2 = matmul(a.as_ref(), Op::NoTrans, a.as_ref(), Op::NoTrans);
        let tr_a2: f64 = (0..n).map(|i| a2[(i, i)]).sum();
        let tr_t2: f64 = r.diag.iter().map(|d| d * d).sum::<f64>()
            + 2.0 * r.offdiag.iter().map(|e| e * e).sum::<f64>();
        assert!((tr_a2 - tr_t2).abs() < 1e-11 * tr_a2.abs().max(1.0));
    }

    #[test]
    fn tiny_matrices() {
        for n in [1usize, 2, 3] {
            let a = band_matrix(n, (n.max(2)) - 1, 11 + n as u64);
            let b = (n.max(2)) - 1;
            let r = bulge_chase(a, b.max(1), true);
            assert_eq!(r.diag.len(), n);
            assert_eq!(r.offdiag.len(), n.saturating_sub(1));
        }
    }

    #[test]
    fn f32_band_chase() {
        let a64 = band_matrix(40, 6, 12);
        let a: Mat<f32> = a64.cast();
        let r = bulge_chase(a, 6, true);
        let q = r.q.as_ref().unwrap();
        assert!(orthogonality_residual(q.as_ref()) < 1e-4);
    }
}
