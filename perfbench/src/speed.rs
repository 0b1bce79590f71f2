//! How fast the core the benchmark runs on is right now.
//!
//! A shared host does not give a core the same speed from one minute to
//! the next: with its neighbours busy, the same fixed work can take 1.7
//! times as long. Every timing the benchmark reports is therefore scaled
//! to a reference speed. Between segments of a pass, a fixed calibration
//! kernel is timed; a timing measured in a segment is multiplied by
//! [`REFERENCE_NS`] over the mean of the kernel's times at its two ends,
//! raised to the power [`SENSITIVITY`].
//! The kernel is the benchmark's own code and does not call the program,
//! so a change to the program moves the scaled timings as it moves the
//! raw ones.
//!
//! The neighbours slow the memory hierarchy, not arithmetic: a chain of
//! dependent multiplies kept its time within 5% while this kernel's
//! pointer chase through L2 varied by 40%. The chase is what the
//! workloads' tree descents do, so the kernel is built around it.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The calibration kernel's time on the reference core, nanoseconds:
/// about what it takes on one core of a 2.0 GHz Xeon virtual machine
/// whose host is otherwise idle.
const REFERENCE_NS: f64 = 30_000.0;

/// How much more than the kernel the workloads slow when the host is
/// busy: the slope of log throughput on log kernel time across the passes
/// of a run, measured over ten runs of each workload, was 1.5
/// (`optimizer_loop`), 1.4 (`rank_batch`) and 1.1 (`fleet_churn`). The
/// kernel repeats its own small loop and keeps its table in cache between
/// runs; the workloads reach further.
const SENSITIVITY: f64 = 1.4;

/// Entries in the kernel's pointer-chasing table (256 KB of `u32`).
const TABLE: usize = 1 << 16;
/// Dependent loads per kernel run.
const CHASE: usize = 6_144;
/// Keys sorted per kernel run.
const SORTED: usize = 1_024;
/// Kernel runs per measurement; the fastest counts, so an interrupt in
/// one of them does not count as a slow core.
const RUNS: usize = 3;

/// One cycle through every table entry (Sattolo's algorithm), from a
/// fixed seed: dependent loads that miss L1, as a tree descent does.
fn table() -> &'static [u32] {
    static CELL: OnceLock<Vec<u32>> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut rng = crate::pass::Rng::new(0x5EED, 0xCA1);
        let mut next: Vec<u32> = (0..TABLE as u32).collect();
        for i in (1..TABLE).rev() {
            next.swap(i, rng.below(i));
        }
        next
    })
}

/// The kernel: a pointer chase mixed with floating-point and hashing
/// work, then a sort of the keys it visited.
fn kernel(next: &[u32], keys: &mut Vec<u64>) -> u64 {
    keys.clear();
    let (mut at, mut acc, mut hash) = (0u32, 0.0f64, 0xCBF2_9CE4_8422_2325u64);
    for k in 0..CHASE {
        at = next[at as usize];
        acc = acc.mul_add(0.999, f64::from(at).sqrt());
        hash = (hash ^ u64::from(at)).wrapping_mul(0x0100_0000_01B3);
        if k % (CHASE / SORTED) == 0 {
            keys.push(hash);
        }
    }
    keys.sort_unstable();
    black_box(keys[keys.len() / 2]) ^ acc.to_bits()
}

/// Times the calibration kernel now, in nanoseconds.
pub fn measure() -> u64 {
    let next = table();
    let mut keys = Vec::with_capacity(SORTED);
    let mut best = u64::MAX;
    for _ in 0..RUNS {
        let start = Instant::now();
        black_box(kernel(black_box(next), &mut keys));
        best = best.min(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    best.max(1)
}

/// The factor that scales a timing taken while the kernel took
/// `kernel_ns` to the reference speed.
pub fn scale(kernel_ns: u64) -> f64 {
    (REFERENCE_NS / kernel_ns as f64).powf(SENSITIVITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle() {
        let next = table();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, TABLE);
    }

    #[test]
    fn the_kernel_does_fixed_work() {
        let mut keys = Vec::new();
        let first = kernel(table(), &mut keys);
        assert_eq!(keys.len(), SORTED);
        assert_eq!(kernel(table(), &mut keys), first);
        assert!(measure() > 0);
    }
}
