//! Recorded chase reflectors and their application to eigenvectors.
//!
//! The bulge chase leaves its orthogonal factor as a product of short
//! Householder reflectors, `Q₂ = H_1·H_2⋯H_R` with
//! `H_i = I − τ_i·v_i·v_iᵀ` spanning the `len_i ≤ b` consecutive indices
//! from `s_i`. Multiplying them into a dense n×n Q₂ costs `O(n³)` — far
//! more than the chase's own `O(n²·b)` band work, and mostly wasted when
//! only k ≪ n eigenvectors are wanted. The chase therefore only records
//! them ([`ChaseReflectors`]), and the back-transform applies them straight
//! to the tridiagonal eigenvector block Z (n×m):
//!
//! ```text
//! X = Q₂·Z   ⇔   Xᵀ = Zᵀ·H_R⋯H_1
//! ```
//!
//! i.e. each reflector right-multiplies Zᵀ, in *reverse* chase order, at
//! `4·len·m` flops. On the column-major Zᵀ that update is row-local and
//! unit-stride (`w = Zᵀ[:, s..s+len)·v`, then `Zᵀ[:, s+j] −= τ·v_j·w`),
//! where the left-application to Z would need one serial length-`len` dot
//! per column.
//!
//! For tall Zᵀ (m rows) the reflectors are applied to disjoint row blocks
//! of Zᵀ in parallel — one fan-out for the whole list, since each block
//! runs every reflector on its own rows.
//!
//! # Bit-exactness
//!
//! Right-multiplication `Zᵀ ← Zᵀ·H` is row-local: row `i` is updated from
//! its own elements only (`w_i = Σ_j v_j·Zᵀ[i, s+j]`, then
//! `Zᵀ[i, s+j] −= τ·v_j·w_i`). Each worker applies the reflectors in the
//! same order with exactly
//! [`apply_reflector_right`](tcevd_factor::householder::apply_reflector_right)'s
//! loop structure and skip tests, so the result is bit-identical to
//! applying each reflector to the whole of Zᵀ in turn — for any row
//! partition and any thread count.

use tcevd_factor::householder::apply_reflector_right;
use tcevd_matrix::scalar::Scalar;
use tcevd_matrix::{Mat, MatMut};
use tcevd_trace::TraceSink;

/// Rows per parallel task when applying the reflectors to Zᵀ. Fixed —
/// never derived from the thread count — so the partition is the same at
/// every pool size; the arithmetic is row-local anyway, so any partition
/// yields identical bits.
const Q_ROWS_PER_TASK: usize = 128;

/// Whether row-parallel application pays off for a Zᵀ of `m` rows on the
/// current pool. Below the cutoff (or on a single-thread pool) immediate
/// application is faster; both paths produce identical bits, so this gate
/// never affects results.
fn batching_pays_off(m: usize) -> bool {
    rayon::current_num_threads() > 1 && m >= 2 * Q_ROWS_PER_TASK
}

/// Span and scale of one recorded reflector; its `v` entries live in
/// [`ChaseReflectors::v`].
struct Head<T> {
    /// First index of the reflector's span.
    s: usize,
    /// Span length (`v.len()`).
    len: usize,
    tau: T,
}

/// The Householder reflectors of one bulge chase, in chase order, so that
/// `Q₂ = H_1·H_2⋯H_R` (`B = Q₂·T·Q₂ᵀ`). The `v` entries of all reflectors
/// are stored back to back in one buffer (`v[0] = 1` kept explicitly) —
/// at most `n²/2` values, half of a dense Q₂ — plus one `(s, len, τ)`
/// head per reflector. Reflectors with `τ = 0` are the identity and are
/// not recorded.
pub struct ChaseReflectors<T: Scalar> {
    n: usize,
    /// Every reflector's `v`, concatenated. A one-column [`Mat`], so the
    /// matrix allocation watermark sees it; sized by [`chase_entries`].
    v: Mat<T>,
    /// Entries of `v` in use.
    used: usize,
    heads: Vec<Head<T>>,
}

/// Upper bound on the `v` entries a chase of an n×n band of half-bandwidth
/// `b` records: the sum of every reflector's span length, whether or not
/// its `τ` turns out zero.
fn chase_entries(n: usize, b: usize) -> usize {
    if b <= 1 || n <= 2 {
        return 0;
    }
    let mut total = 0;
    for j in 0..n - 2 {
        let mut s = j + 1;
        while s < n {
            let len = (s + b).min(n) - s;
            if len <= 1 {
                break;
            }
            total += len;
            s += b;
        }
    }
    total
}

impl<T: Scalar> ChaseReflectors<T> {
    /// Storage for the reflectors of a chase of an n×n band of
    /// half-bandwidth `b`.
    pub(crate) fn for_chase(n: usize, b: usize) -> Self {
        Self::with_capacity(n, chase_entries(n, b))
    }

    /// Storage for reflectors of order `n` with `entries` `v` values in all.
    fn with_capacity(n: usize, entries: usize) -> Self {
        ChaseReflectors {
            n,
            v: Mat::zeros(entries, 1),
            used: 0,
            heads: Vec::new(),
        }
    }

    /// Record `H = I − τ·v·vᵀ` spanning `s..s + v.len()`.
    pub(crate) fn push(&mut self, s: usize, tau: T, v: &[T]) {
        let len = v.len();
        self.v.as_mut_slice()[self.used..self.used + len].copy_from_slice(v);
        self.used += len;
        self.heads.push(Head { s, len, tau });
    }

    /// Order of Q₂ (the band's n).
    #[cfg(test)]
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Whether no reflector was recorded (`Q₂ = I`).
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// The reflectors in chase order, as `(s, τ, v)`.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, T, &[T])> + '_ {
        let data = &self.v.as_slice()[..self.used];
        let mut start = 0;
        self.heads.iter().map(move |h| {
            let v = &data[start..start + h.len];
            start += h.len;
            (h.s, h.tau, v)
        })
    }

    /// The reflectors in reverse chase order, as `(s, τ, v)`.
    fn iter_rev(&self) -> impl Iterator<Item = (usize, T, &[T])> + '_ {
        let data = &self.v.as_slice()[..self.used];
        let mut end = self.used;
        self.heads.iter().rev().map(move |h| {
            end -= h.len;
            (h.s, h.tau, &data[end..end + h.len])
        })
    }

    /// `X = Q₂·Z` for an n×m block `Z` of tridiagonal eigenvectors, without
    /// forming Q₂: transpose Z (dropping it), right-apply the reflectors to
    /// Zᵀ in reverse chase order, transpose back. Adds the `4·len·m`
    /// flops to `kernel_flops.chase_apply` and the `kernel_flops` total in
    /// `sink`.
    pub fn apply(&self, z: Mat<T>, sink: &TraceSink) -> Mat<T> {
        assert_eq!(z.rows(), self.n, "Z must have Q₂'s n rows");
        let flops = 4 * z.cols() as u64 * self.used as u64;
        sink.add("kernel_flops.chase_apply", flops);
        sink.add("kernel_flops", flops);
        let mut zt = z.transpose();
        drop(z);
        self.apply_right_rev(&mut zt);
        zt.transpose()
    }

    /// `Zᵀ ← Zᵀ·H_R⋯H_1`, row-parallel when Zᵀ is tall enough.
    fn apply_right_rev(&self, zt: &mut Mat<T>) {
        if batching_pays_off(zt.rows()) {
            self.apply_batched(zt);
        } else {
            self.apply_immediate(zt);
        }
    }

    /// One reflector at a time over all of Zᵀ's rows.
    fn apply_immediate(&self, zt: &mut Mat<T>) {
        let m = zt.rows();
        for (s, tau, v) in self.iter_rev() {
            apply_reflector_right(tau, v, zt.view_mut(0, s, m, v.len()));
        }
    }

    /// Every reflector on each fixed-height row block of Zᵀ, the blocks
    /// fanned across the thread pool.
    fn apply_batched(&self, zt: &mut Mat<T>) {
        let m = zt.rows();
        if self.is_empty() || m == 0 {
            return;
        }
        // Decompose Zᵀ into per-column row segments of fixed height,
        // gathering segment k of every column into task k. Column-major
        // storage makes a row block a set of per-column subslices, never one
        // contiguous range — `split_at_mut` per column keeps this safe code.
        let ntasks = m.div_ceil(Q_ROWS_PER_TASK);
        let mut tasks: Vec<Vec<&mut [T]>> =
            (0..ntasks).map(|_| Vec::with_capacity(self.n)).collect();
        let mut rem: Option<MatMut<'_, T>> = Some(zt.as_mut());
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
        let rk = tcevd_matrix::tile::row_kernels::<T>(Q_ROWS_PER_TASK.min(m));
        rayon::for_each_chunk(tasks, &|mut cols: Vec<&mut [T]>| {
            let rb = cols.first().map_or(0, |c| c.len());
            let mut w = vec![T::ZERO; rb];
            for (s, tau, v) in self.iter_rev() {
                if tau == T::ZERO {
                    continue;
                }
                for x in w.iter_mut() {
                    *x = T::ZERO;
                }
                for (jl, &vj) in v.iter().enumerate() {
                    if vj != T::ZERO {
                        (rk.acc)(vj, &cols[s + jl][..rb], &mut w);
                    }
                }
                for (jl, &vj) in v.iter().enumerate() {
                    let t = tau * vj;
                    if t != T::ZERO {
                        (rk.sub)(t, &w, &mut cols[s + jl][..rb]);
                    }
                }
            }
        });
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn rand_mat(m: usize, n: usize, seed: u64) -> Mat<f64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        Mat::from_fn(m, n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    /// Chase-shaped random reflectors: `sweeps` sweeps of span-`b+1`
    /// reflectors stepping `b` down an order-`n` index range.
    fn chase_like(n: usize, b: usize, sweeps: usize, seed: u64) -> ChaseReflectors<f64> {
        let mut r = ChaseReflectors::with_capacity(n, sweeps * (n / b + 1) * (b + 1));
        let mut seed = seed;
        for j in 0..sweeps {
            let mut s = j + 1;
            while s + 2 < n {
                let len = (b + 1).min(n - s);
                let mut v: Vec<f64> = rand_mat(len, 1, seed).as_slice().to_vec();
                v[0] = 1.0;
                if seed.is_multiple_of(3) {
                    v[len / 2] = 0.0; // exercise the vj == 0 skip
                }
                r.push(s, 0.2 + 0.1 * (seed % 7) as f64, &v);
                s += b;
                seed += 1;
            }
        }
        r
    }

    fn assert_paths_agree(r: &ChaseReflectors<f64>, m: usize, seed: u64) {
        let zt = rand_mat(m, r.n(), seed);
        let mut zt_imm = zt.clone();
        r.apply_immediate(&mut zt_imm);
        let mut zt_bat = zt.clone();
        r.apply_batched(&mut zt_bat);
        assert_eq!(
            zt_imm.max_abs_diff(&zt_bat),
            0.0,
            "batched application must be bit-identical (m = {m})"
        );
    }

    /// Batched application must be bit-identical to immediate sequential
    /// application, over a batch that spans several sweeps (non-monotone
    /// spans) and on row counts that are not a multiple of the task height.
    #[test]
    fn batched_matches_immediate_bitwise() {
        let r = chase_like(280, 7, 3, 500);
        assert_paths_agree(&r, 300, 42);
    }

    /// A Zᵀ shorter than one task (a top-k block) still takes the same bits.
    #[test]
    fn batched_matches_immediate_on_fewer_rows_than_a_task() {
        let r = chase_like(150, 5, 4, 100);
        for m in [1usize, 8, Q_ROWS_PER_TASK - 1] {
            assert_paths_agree(&r, m, 7 + m as u64);
        }
    }
}
