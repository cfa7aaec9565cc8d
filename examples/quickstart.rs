//! Quickstart: full symmetric eigenvalue decomposition on the simulated
//! Tensor Core.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tcevd::band::PanelKind;
use tcevd::evd::{eigenpair_residual, orthogonality};
use tcevd::evd::{sym_eig, SbrVariant, SymEigOptions, TridiagSolver};
use tcevd::matrix::Mat;
use tcevd::tensorcore::{Engine, GemmContext};
use tcevd::testmat::{generate, MatrixType};
use tcevd::trace::TraceSink;

fn main() {
    let n = 256;

    // A symmetric test matrix with geometrically distributed eigenvalues
    // and condition number 1e3 (one of the paper's families).
    let a64 = generate(n, MatrixType::Geo { cond: 1e3 }, 42);
    let a: Mat<f32> = a64.cast();

    // Configure the paper's pipeline: WY-based SBR on the Tensor Core,
    // bulge chasing, divide & conquer, with eigenvectors.
    let opts = SymEigOptions {
        bandwidth: 16,
        sbr: SbrVariant::Wy { block: 64 },
        panel: PanelKind::Tsqr,
        solver: TridiagSolver::DivideConquer,
        vectors: true,
        trace: false,
        recovery: Default::default(),
        threads: 0,
    };
    // An enabled sink logs every GEMM call's step label and shape.
    let sink = TraceSink::enabled();
    let ctx = GemmContext::new(Engine::Tc).with_sink(sink.clone());

    let t0 = std::time::Instant::now();
    let r = sym_eig(&a, &opts, &ctx).expect("EVD failed");
    let elapsed = t0.elapsed();

    println!("n = {n}, simulated-Tensor-Core 2-stage EVD in {elapsed:?}");
    println!("smallest eigenvalues: {:?}", &r.values[..4]);
    println!("largest eigenvalues:  {:?}", &r.values[n - 4..]);

    let x = r.vectors.as_ref().unwrap();
    println!(
        "eigenvector orthogonality E_o = {:.3e}",
        orthogonality(x.as_ref())
    );
    println!(
        "worst eigenpair residual       = {:.3e}",
        eigenpair_residual(a.as_ref(), &r.values, x.as_ref())
    );

    let gemms = sink.gemms();
    let flops: u64 = gemms.iter().map(|g| g.flops()).sum();
    println!(
        "GEMM calls through the Tensor-Core engine: {} ({:.2} Gflop)",
        gemms.len(),
        flops as f64 / 1e9
    );
}
