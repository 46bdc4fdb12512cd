//! Host-speed probe for the CPU-bound end-to-end times.
//!
//! The benchmark runs on virtual CPUs that share physical cores with
//! other machines, and the speed of one core moves by up to 2× from one
//! minute to the next. Two runs of the same code therefore differ far
//! more in wall time than any regression the bounds should catch. The
//! probe measures that speed in place: a sampler thread, pinned to the
//! same CPU as the measuring thread, wakes every [`PERIOD`] and times a
//! fixed kernel owned by the benchmark ([`kernel`]): random read-modify-
//! write over a table that fits the core's L2. Of the kernels tried (the
//! same over 8 MiB, a pointer chase, a small set-associative cache
//! model), its time followed the simulator's most closely. Because both
//! threads share one CPU, the sampler sees the core's speed at the
//! moments the workload runs, and its own time can be taken out of the
//! interval exactly.
//!
//! [`Probe::normalize`] reports an interval in reference seconds: its
//! busy time (wall time minus the sampler's time inside it) scaled by
//! how much slower the kernel ran near it than its reference duration
//! [`REF_S`]. On a host where the kernel takes [`REF_S`], reference
//! seconds are wall seconds. The kernel does not depend on the program,
//! so a change to the program moves the reference time as it moves the
//! wall time.
//!
//! The sampler is only meaningful while the measured work runs on the
//! pinned thread alone; a multi-threaded phase must not be normalized.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between two samples.
const PERIOD: Duration = Duration::from_millis(20);
/// Samples up to this far outside an interval also describe it, so that
/// an interval shorter than [`PERIOD`] still has samples.
const MARGIN: Duration = Duration::from_millis(500);
/// Table of the kernel: 512 KiB of `u64`, inside a 2 MiB L2.
const TABLE: usize = 1 << 16;
/// Kernel iterations per sample.
const ITERS: usize = 200_000;
/// The kernel's duration on a quiet host (2.1 GHz Xeon vCPU, inside the
/// running workload), in seconds.
const REF_S: f64 = 0.8e-3;

/// One sample: when the kernel started and how long it took.
type Sample = (Instant, f64);

/// The fixed kernel: `iters` random read-modify-writes over `table`.
fn kernel(table: &mut [u64], iters: usize) -> u64 {
    let mask = table.len() - 1;
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x as usize & mask;
        table[k] = table[k].wrapping_add(x);
        acc ^= table[k.wrapping_mul(7) & mask];
        if acc & 1 == 0 {
            acc = acc.rotate_left(3);
        }
    }
    acc
}

/// `cpu_set_t` of glibc: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The calling thread's CPU mask.
fn affinity() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

/// Restricts the calling thread to `set`; false if the kernel refused.
fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

/// The mask holding only the CPU the calling thread runs on.
fn current_cpu() -> Option<CpuSet> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut set: CpuSet = [0; 16];
    *set.get_mut(cpu / 64)? = 1 << (cpu % 64);
    Some(set)
}

/// A running sampler. Dropping it stops and joins the thread and gives
/// the calling thread its CPU mask back.
pub struct Probe {
    samples: Arc<Mutex<Vec<Sample>>>,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
    restore: Option<CpuSet>,
}

impl Probe {
    /// Pins the calling thread to the CPU it runs on and starts the
    /// sampler on the same CPU. Without pinning (the kernel refused) the
    /// sampler may run elsewhere; the run still works, but its times are
    /// scaled by another core's speed.
    pub fn start() -> Probe {
        let restore = affinity();
        let pin = current_cpu().filter(set_affinity);
        if pin.is_none() {
            eprintln!("[slbench] cannot pin to one CPU; the probe samples any core");
        }
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::spawn(move || {
                if let Some(set) = pin {
                    set_affinity(&set);
                }
                let mut table = vec![0u64; TABLE];
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(PERIOD);
                    let t0 = Instant::now();
                    std::hint::black_box(kernel(&mut table, ITERS));
                    let d = t0.elapsed().as_secs_f64();
                    samples
                        .lock()
                        .expect("the probe's lock is never held across a panic")
                        .push((t0, d));
                }
            })
        };
        Probe {
            samples,
            stop,
            sampler: Some(sampler),
            restore: pin.and(restore),
        }
    }

    /// The interval `[a, b]` in reference seconds: its wall time minus
    /// the sampler's time inside it, times the mean of `REF_S / d` over
    /// the samples within [`MARGIN`] of it. Unscaled when no sample is
    /// that near.
    pub fn normalize(&self, a: Instant, b: Instant) -> f64 {
        let samples = self
            .samples
            .lock()
            .expect("the probe's lock is never held across a panic");
        let (lo, hi) = (a.checked_sub(MARGIN).unwrap_or(a), b + MARGIN);
        let (mut inside, mut speed, mut n) = (0.0, 0.0, 0usize);
        for &(t, d) in samples.iter() {
            let end = t + Duration::from_secs_f64(d);
            let overlap = end.min(b).saturating_duration_since(t.max(a));
            inside += overlap.as_secs_f64();
            if t >= lo && t <= hi {
                speed += REF_S / d;
                n += 1;
            }
        }
        let busy = (b - a).as_secs_f64() - inside;
        if n == 0 {
            busy
        } else {
            busy * speed / n as f64
        }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.sampler.take() {
            if h.join().is_err() {
                eprintln!("[slbench] the probe's sampler panicked");
            }
        }
        if let Some(set) = &self.restore {
            set_affinity(set);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe holding `samples` and no sampler thread.
    fn with_samples(samples: Vec<Sample>) -> Probe {
        Probe {
            samples: Arc::new(Mutex::new(samples)),
            stop: Arc::new(AtomicBool::new(false)),
            sampler: None,
            restore: None,
        }
    }

    #[test]
    fn normalize_takes_the_samplers_time_out_and_scales_by_speed() {
        let a = Instant::now();
        let b = a + Duration::from_secs(1);
        // One sample inside the interval, one overlapping its end, one
        // within the margin after it, one beyond: the kernel ran at half
        // its reference speed in the three that count.
        let d = 2.0 * REF_S;
        let probe = with_samples(vec![
            (a + Duration::from_millis(100), d),
            (b - Duration::from_secs_f64(d / 2.0), d),
            (b + Duration::from_millis(100), d),
            (b + MARGIN * 2, REF_S / 4.0),
        ]);
        let busy = 1.0 - d - d / 2.0;
        let got = probe.normalize(a, b);
        assert!((got - busy * 0.5).abs() < 1e-9, "{got}");
        // No sample near the interval: busy time, unscaled.
        let late = b + MARGIN * 4;
        assert_eq!(
            probe.normalize(late, late + Duration::from_millis(10)),
            0.01
        );
    }

    #[test]
    fn a_started_probe_samples_and_stops() {
        let probe = Probe::start();
        std::thread::sleep(PERIOD * 5);
        let n = probe.samples.lock().unwrap().len();
        assert!(n >= 2, "{n} samples in {:?}", PERIOD * 5);
        drop(probe);
    }
}
