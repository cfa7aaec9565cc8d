//! Host-speed probe: a fixed loop of FMAs on a small L1-resident array,
//! timed around every driver call, so the run can report call times at a
//! nominal host speed.
//!
//! The benchmark runs on a few vCPUs of a shared host. There, the compute
//! throughput one core delivers wanders by 20–50% over seconds to minutes
//! as other tenants load the machine. Every pipeline stage slows together,
//! and a run's median moves with the host, not with the program. This loop
//! is the benchmark's own code, not the program's, so a change to the
//! program cannot move it. Timed on the same thread right before and right
//! after a call, it tracks that throughput: on the sizing host its median
//! over 8- to 12-call windows correlated about 0.8 with the call's, and
//! dividing by it cut the spread of 15-call medians from 0.25 to 0.06
//! (quartile distance over median).

use std::hint::black_box;
use std::time::Instant;

/// Iterations of one probe: 250k × 128 FMAs, about 20 ms.
const ITERS: usize = 250_000;

/// The time one probe takes at the nominal host speed: about its median on
/// the host the benchmark was sized on (a 2-vCPU Intel Xeon guest). A
/// call's adjusted time is its wall time × `NOMINAL_S` / the probe time.
pub const NOMINAL_S: f64 = 0.020;

/// Time one probe, in seconds.
pub fn probe() -> f64 {
    let t = Instant::now();
    let mut acc = [[0.0f32; 16]; 8];
    let a = black_box([1.0001f32; 16]);
    let b = black_box([0.9999f32; 16]);
    for _ in 0..ITERS {
        for row in acc.iter_mut() {
            for l in 0..16 {
                row[l] = row[l].mul_add(a[l], b[l]);
            }
        }
        // Keeps the loop from being folded away or hoisted.
        black_box(&mut acc);
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// `wall` seconds measured between two probes of `before` and `after`
/// seconds, scaled to the nominal host speed.
pub fn adjusted(wall: f64, before: f64, after: f64) -> f64 {
    wall * NOMINAL_S / (0.5 * (before + after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjustment_scales_by_host_speed() {
        // A host at nominal speed leaves the time alone; one running at
        // half speed (probes twice as long) halves it.
        assert_eq!(adjusted(1.5, NOMINAL_S, NOMINAL_S), 1.5);
        assert_eq!(adjusted(1.5, 2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.75);
    }

    #[test]
    fn probe_does_work() {
        // Folded away, the loop would take well under a microsecond.
        assert!(probe() > 1e-4);
    }
}
