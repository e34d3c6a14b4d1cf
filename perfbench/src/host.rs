//! Host-speed probe.
//!
//! The benchmark runs on shared virtual machines whose speed drifts with
//! the neighbours' load, by a quarter or more within minutes, while CPU
//! time keeps equal to wall time. A timed run therefore measures the
//! probe between its units: a fixed, branchy, memory-touching loop on
//! as many threads as the campaign pool has. The probe is the
//! benchmark's own code and runs while the program is idle, so it
//! measures the host and nothing of the program. Times are rescaled to
//! the host speed at which the probe takes [`NOMINAL_S`].

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Probe wall-clock, in seconds, of the nominal host: a typical reading
/// on the 2-vCPU Xeon virtual machine the benchmark was tuned on, where
/// probes read 0.42–1.26 s.
pub const NOMINAL_S: f64 = 0.5;

/// Chunks of one probe, per thread of the pool it stands for.
const CHUNKS_PER_THREAD: u64 = 400;

/// Loop iterations of one chunk.
const CHUNK_ITERS: u64 = 100_000;

/// Words of each thread's probe memory (256 KiB).
const WORDS: usize = 1 << 16;

/// One chunk of the probe: a xorshift stream drives loads, stores and
/// unpredictable branches over a table the size of a mid-level cache,
/// as an interpreter's dispatch loop does.
fn spin(mem: &mut [u32], seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..CHUNK_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (WORDS - 1);
        match x >> 62 {
            0 => mem[i] = mem[i].wrapping_add(acc as u32),
            1 => acc ^= u64::from(mem[i]),
            2 => acc = acc.rotate_left(5).wrapping_add(x),
            _ => mem[(i ^ acc as usize) & (WORDS - 1)] ^= x as u32,
        }
    }
    acc ^ u64::from(mem[black_box(7)])
}

/// Wall-clock seconds of one probe: `threads` threads take fixed chunks
/// of [`spin`] from one counter until all are done, as the campaign
/// pool's workers take runs, so a thread the host slows does less of
/// the work.
pub fn probe(threads: usize) -> f64 {
    let threads = threads.max(1) as u64;
    let chunks = threads * CHUNKS_PER_THREAD;
    let next = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut mem = vec![0u32; WORDS];
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= chunks {
                        break;
                    }
                    black_box(spin(&mut mem, 0x9E37_79B9_7F4A_7C15 ^ k));
                }
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

/// Threads of one probe: the width of the campaign pool.
pub fn width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How much slower than nominal the host ran during a timed run, from
/// the median of its probes: above 1 on a slow host. The run's rates
/// are multiplied by it and its times divided by it. One probe is too
/// noisy to rescale the unit next to it: consecutive probes differ by
/// more than the units between them do.
pub fn slowdown(probes_s: &[f64]) -> f64 {
    crate::stats::median(probes_s) / NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_does_fixed_work() {
        assert_eq!(spin(&mut [0; WORDS], 3), spin(&mut [0; WORDS], 3));
        assert!(probe(2) > 0.0);
    }

    #[test]
    fn slowdown_is_relative_to_the_nominal_probe() {
        assert!((slowdown(&[NOMINAL_S]) - 1.0).abs() < 1e-12);
        assert!((slowdown(&[NOMINAL_S, 2.0 * NOMINAL_S, 9.0 * NOMINAL_S]) - 2.0).abs() < 1e-12);
    }
}
