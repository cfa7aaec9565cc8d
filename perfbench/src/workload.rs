//! The three gated workloads, one driver call each, and the checks every
//! call's output must pass.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

use tcevd_core::{
    eigenpair_residual, orthogonality, sym_eig, sym_eig_selected, sym_eigenvalues,
    sym_eigenvalues_ref, EigRange, EvdError, SymEigOptions,
};
use tcevd_matrix::Mat;
use tcevd_tensorcore::{Engine, GemmContext};
use tcevd_testmat::{generate, spectrum, MatrixType};

/// Which public driver a workload calls.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Driver {
    /// `sym_eigenvalues`.
    Values,
    /// `sym_eig_selected` for the `k` largest eigenpairs.
    Largest(usize),
    /// `sym_eig` with eigenvectors.
    Full,
}

#[derive(Copy, Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub n: usize,
    pub mtype: MatrixType,
    pub engine: Engine,
    pub driver: Driver,
    /// Largest accepted `eig_err`, `residual` and `orthogonality`, at least
    /// ten times what the engine measures: unit roundoff 6e-8 for Sgemm,
    /// the fp16 operand truncation (≈1e-4, the paper's Table 4) for Tc.
    pub tol: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    // The paper's no-vector configuration (§6.4): the packed chase and
    // D&C dominate, D&C barely deflates on the semicircle spectrum, and
    // nothing is back-transformed.
    Workload {
        name: "values",
        n: 1024,
        mtype: MatrixType::Normal,
        engine: Engine::Sgemm,
        driver: Driver::Values,
        tol: 1e-4,
    },
    // Top-k: the dense chase with Q₂ and the FormW + thin Q₂·Z back-transform
    // dominate while the tridiagonal solve is negligible, so a solver
    // change must show no effect here.
    Workload {
        name: "topk",
        n: 1024,
        mtype: MatrixType::Normal,
        engine: Engine::Sgemm,
        driver: Driver::Largest(8),
        tol: 1e-4,
    },
    // The paper's accuracy configuration (Tables 3–4) on its fp16-truncating
    // Tensor Core engine, the only workload on that path; the graded
    // spectrum makes D&C deflate heavily and gives an exact reference.
    Workload {
        name: "full",
        n: 1024,
        mtype: MatrixType::Geo { cond: 1e3 },
        engine: Engine::Tc,
        driver: Driver::Full,
        tol: 1e-3,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One driver call's result.
pub struct Output {
    pub values: Vec<f32>,
    pub vectors: Option<Mat<f32>>,
}

/// Accuracy of one result against the reference spectrum.
#[derive(Copy, Clone, Debug)]
pub struct Accuracy {
    /// max |λᵢ − λᵢ^ref| / max |λ^ref|.
    pub eig_err: f64,
    /// `metrics::eigenpair_residual`, 0 without vectors.
    pub residual: f64,
    /// `metrics::orthogonality`, 0 without vectors.
    pub orthogonality: f64,
}

impl Workload {
    /// Every option but the thread count stays at the library default, so a
    /// change of default shows up in the benchmark.
    pub fn options(&self, trace: bool) -> SymEigOptions {
        SymEigOptions {
            threads: 1,
            trace,
            ..SymEigOptions::default()
        }
    }

    /// The f32 input the driver sees, generated from the seed.
    pub fn input(&self, seed: u64) -> Mat<f32> {
        generate(self.n, self.mtype, seed).cast()
    }

    /// Ascending reference eigenvalues: the prescribed spectrum when the
    /// matrix type has one, else the f64 reference pipeline's.
    pub fn reference(&self, seed: u64) -> Result<Vec<f64>, String> {
        let mut lam = match spectrum(self.n, self.mtype) {
            Some(lam) => lam,
            None => sym_eigenvalues_ref(&generate(self.n, self.mtype, seed))
                .map_err(|e| format!("reference solve failed: {e:?}"))?,
        };
        lam.sort_by(f64::total_cmp);
        Ok(lam)
    }

    pub fn call(&self, a: &Mat<f32>, ctx: &GemmContext, trace: bool) -> Result<Output, EvdError> {
        let opts = self.options(trace);
        match self.driver {
            Driver::Values => Ok(Output {
                values: sym_eigenvalues(a, &opts, ctx)?,
                vectors: None,
            }),
            Driver::Largest(k) => {
                let range = EigRange::Index {
                    lo: self.n - k,
                    hi: self.n,
                };
                let r = sym_eig_selected(a, range, &opts, ctx)?;
                Ok(Output {
                    values: r.values,
                    vectors: r.vectors,
                })
            }
            Driver::Full => {
                let opts = SymEigOptions {
                    vectors: true,
                    ..opts
                };
                let r = sym_eig(a, &opts, ctx)?;
                Ok(Output {
                    values: r.values,
                    vectors: r.vectors,
                })
            }
        }
    }

    /// Measure `out` against the ascending `reference`; `Err` names the
    /// first broken expectation.
    pub fn check(&self, a: &Mat<f32>, out: &Output, reference: &[f64]) -> Result<Accuracy, String> {
        let want = match self.driver {
            Driver::Largest(k) => k,
            Driver::Values | Driver::Full => self.n,
        };
        if out.values.len() != want || reference.len() != self.n {
            return Err(format!(
                "{} eigenvalues returned, {want} expected (reference has {})",
                out.values.len(),
                reference.len()
            ));
        }
        let scale = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let tail = &reference[self.n - want..];
        let eig_err = out
            .values
            .iter()
            .zip(tail)
            .map(|(&v, &r)| (v as f64 - r).abs())
            .fold(0.0f64, f64::max)
            / scale;
        let (residual, orth) = match (&out.vectors, self.driver) {
            (Some(x), Driver::Largest(_) | Driver::Full) if x.cols() == want => (
                eigenpair_residual(a.as_ref(), &out.values, x.as_ref()) as f64,
                orthogonality(x.as_ref()) as f64,
            ),
            (None, Driver::Values) => (0.0, 0.0),
            _ => return Err("eigenvectors missing or mis-shaped".to_string()),
        };
        let acc = Accuracy {
            eig_err,
            residual,
            orthogonality: orth,
        };
        // NaN fails every comparison, so it is caught here too.
        if !(eig_err <= self.tol && residual <= self.tol && orth <= self.tol) {
            return Err(format!("accuracy {acc:?} exceeds tolerance {}", self.tol));
        }
        Ok(acc)
    }
}

/// Hash of every bit of a result (values, then vectors column-major): two
/// results are bitwise identical exactly when their fingerprints agree, up
/// to a 2⁻⁶⁴ collision chance. `DefaultHasher::new` has fixed keys, so the
/// fingerprint is comparable across processes running the same binary.
pub fn fingerprint(out: &Output) -> u64 {
    let mut h = DefaultHasher::new();
    let vecs = out.vectors.as_ref().map_or(&[][..], |x| x.as_slice());
    for v in out.values.iter().chain(vecs) {
        h.write_u32(v.to_bits());
    }
    h.finish()
}
