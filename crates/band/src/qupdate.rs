//! Batched, thread-parallel accumulation of chase reflectors into Q.
//!
//! During a bulge-chasing sweep the Q update dominates the flop count:
//! every reflector right-multiplies all `n` rows of Q, for `O(n³)` total
//! versus the chase's own `O(n²·b)` band work. Forking the pool per
//! reflector would drown in spawn overhead (each application is only
//! `≈4·n·b` flops), so the chase loop instead records one outer
//! iteration's reflectors and batch-apply them here, fanning **disjoint
//! row blocks** of Q across the pool — roughly `4·n²` flops per flush,
//! enough to amortize a handful of scoped spawns.
//!
//! # Bit-exactness
//!
//! Right-multiplication `Q ← Q·H` is row-local: row `i` is updated from
//! its own elements only (`w_i = Σ_j v_j·Q[i, s+j]`, then
//! `Q[i, s+j] −= τ·v_j·w_i`). Each worker applies the batch's reflectors
//! in recorded order with exactly
//! [`apply_reflector_right`](tcevd_factor::householder::apply_reflector_right)'s
//! loop structure and skip tests, so the result is bit-identical to
//! applying each reflector immediately during the chase — for any row
//! partition and any thread count.

use tcevd_matrix::scalar::Scalar;
use tcevd_matrix::{Mat, MatMut};

/// One recorded chase reflector awaiting batched application to Q.
pub(crate) struct PendingReflector<T> {
    /// First column of the reflector's span in Q.
    pub s: usize,
    pub tau: T,
    /// Reflector vector (`v[0] == 1`).
    pub v: Vec<T>,
}

/// Rows per parallel task when batch-applying recorded reflectors to Q.
/// Fixed — never derived from the thread count — so the partition is the
/// same at every pool size; the arithmetic is row-local anyway, so any
/// partition yields identical bits.
pub(crate) const Q_ROWS_PER_TASK: usize = 128;

/// Recorded reflectors accumulate across sweeps until the batch reaches
/// this size, then flush in one parallel pass. Large enough that each
/// flush carries tens of megaflops (amortizing the scoped thread spawns),
/// small enough that the pending buffer stays a few kilobytes.
pub(crate) const Q_FLUSH_REFLECTORS: usize = 192;

/// Whether recording-and-batching pays off for an n×n Q on the current
/// pool. Below the cutoff (or on a single-thread pool) immediate
/// application is faster; both paths produce identical bits, so this
/// gate never affects results.
pub(crate) fn batching_pays_off(n: usize) -> bool {
    rayon::current_num_threads() > 1 && n >= 2 * Q_ROWS_PER_TASK
}

/// Apply a batch of recorded reflectors to `q` in recorded order, fanning
/// disjoint row blocks of Q across the thread pool. The batch may span
/// several chase sweeps, so the touched column range is the union
/// `[min s, max s + v.len())` over the batch.
pub(crate) fn apply_pending_to_q<T: Scalar>(q: &mut Mat<T>, pending: &[PendingReflector<T>]) {
    if pending.is_empty() {
        return;
    }
    let n = q.rows();
    let c0 = pending.iter().map(|r| r.s).min().unwrap_or(0);
    let cend = pending.iter().map(|r| r.s + r.v.len()).max().unwrap_or(0);
    // Decompose Q[:, c0..cend) into per-column row segments of fixed
    // height, gathering segment k of every column into task k. Column-major
    // storage makes a row block a set of per-column subslices, never one
    // contiguous range — `split_at_mut` per column keeps this safe code.
    let ncols = cend - c0;
    let ntasks = n.div_ceil(Q_ROWS_PER_TASK);
    let mut tasks: Vec<Vec<&mut [T]>> = (0..ntasks).map(|_| Vec::with_capacity(ncols)).collect();
    let mut rem: Option<MatMut<'_, T>> = Some(q.view_mut(0, c0, n, ncols));
    while let Some(cur) = rem.take() {
        let (col, rest) = if cur.cols() > 1 {
            let (c, r) = cur.split_cols_at(1);
            (c, Some(r))
        } else {
            (cur, None)
        };
        let rows = col.rows();
        let mut seg = &mut col.into_slice()[..rows];
        let mut t = 0;
        while !seg.is_empty() {
            let take = Q_ROWS_PER_TASK.min(seg.len());
            let (head, tail) = seg.split_at_mut(take);
            tasks[t].push(head);
            seg = tail;
            t += 1;
        }
        rem = rest;
    }
    // Kernel-tier selection happens once, on the calling thread, before
    // the fan-out (same discipline as blas3::gemm_with): both tiers are
    // bit-identical for these row-local loops, but selection must stay a
    // pure function of shape + tuning table, never of which worker runs.
    let rk = tcevd_matrix::tile::row_kernels::<T>(Q_ROWS_PER_TASK.min(n));
    rayon::for_each_chunk(tasks, &|mut cols: Vec<&mut [T]>| {
        let rb = cols.first().map_or(0, |c| c.len());
        let mut w = vec![T::ZERO; rb];
        for refl in pending {
            for x in w.iter_mut() {
                *x = T::ZERO;
            }
            let off = refl.s - c0;
            for (jl, &vj) in refl.v.iter().enumerate() {
                if vj != T::ZERO {
                    (rk.acc)(vj, &cols[off + jl][..rb], &mut w);
                }
            }
            for (jl, &vj) in refl.v.iter().enumerate() {
                let t = refl.tau * vj;
                if t != T::ZERO {
                    (rk.sub)(t, &w, &mut cols[off + jl][..rb]);
                }
            }
        }
    });
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcevd_factor::householder::apply_reflector_right;

    fn rand_mat(m: usize, n: usize, seed: u64) -> Mat<f64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        Mat::from_fn(m, n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    /// Batched application must be bit-identical to immediate sequential
    /// application, at several thread counts and awkward shapes.
    #[test]
    fn batched_matches_immediate_bitwise() {
        let n = 300; // not a multiple of Q_ROWS_PER_TASK
        let b = 5;
        let mut reflectors = Vec::new();
        let mut s = 2;
        let mut seed = 100;
        while s + 2 < n {
            let len = (b + 1).min(n - s);
            let mut v: Vec<f64> = rand_mat(len, 1, seed).as_slice().to_vec();
            v[0] = 1.0;
            if seed % 3 == 0 {
                v[len / 2] = 0.0; // exercise the vj == 0 skip
            }
            reflectors.push(PendingReflector {
                s,
                tau: 0.3 + 0.1 * (seed % 7) as f64,
                v,
            });
            s += b;
            seed += 1;
        }

        let q0 = rand_mat(n, n, 42);
        let mut q_seq = q0.clone();
        for r in &reflectors {
            apply_reflector_right(r.tau, &r.v, q_seq.view_mut(0, r.s, n, r.v.len()));
        }
        let mut q_par = q0.clone();
        apply_pending_to_q(&mut q_par, &reflectors);
        assert_eq!(
            q_seq.max_abs_diff(&q_par),
            0.0,
            "batched Q accumulation must be bit-identical"
        );
    }

    /// A batch spanning two sweeps has non-monotone spans (the second
    /// sweep restarts near the top and may end *shallower* than the
    /// first); the union column range must still cover every reflector.
    #[test]
    fn cross_sweep_batch_matches_immediate_bitwise() {
        let n = 280;
        let b = 7;
        let mut reflectors = Vec::new();
        let mut seed = 500;
        for j in [0usize, 1, 2] {
            let mut s = j + 1;
            while s + 2 < n {
                let len = (b + 1).min(n - s);
                let mut v: Vec<f64> = rand_mat(len, 1, seed).as_slice().to_vec();
                v[0] = 1.0;
                reflectors.push(PendingReflector {
                    s,
                    tau: 0.2 + 0.1 * (seed % 5) as f64,
                    v,
                });
                s += b;
                seed += 1;
            }
        }

        let q0 = rand_mat(n, n, 77);
        let mut q_seq = q0.clone();
        for r in &reflectors {
            apply_reflector_right(r.tau, &r.v, q_seq.view_mut(0, r.s, n, r.v.len()));
        }
        let mut q_par = q0.clone();
        apply_pending_to_q(&mut q_par, &reflectors);
        assert_eq!(
            q_seq.max_abs_diff(&q_par),
            0.0,
            "cross-sweep batched Q accumulation must be bit-identical"
        );
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut q = rand_mat(8, 8, 7);
        let before = q.clone();
        apply_pending_to_q(&mut q, &[]);
        assert_eq!(q.max_abs_diff(&before), 0.0);
    }
}
