//! Host-speed calibration. On a shared host the machine's speed drifts in
//! phases lasting seconds to minutes, and every pipeline time moves
//! with it (CSV parsing and discovery alike). A fixed reference kernel,
//! owned by the benchmark and independent of the engine, is timed between
//! every two pipeline runs; each run's time is scaled by how much slower
//! or faster than nominal the reference ran around it. The result reads
//! as seconds on a host at the reference's nominal speed. The reference's
//! work is fixed, so a change to the engine moves the scaled times exactly
//! as it moves the wall times; only the host's drift is divided out.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Elements the reference kernel sorts.
const REFERENCE_LEN: usize = 1 << 17;
/// Distinct keys among them (ties make the sort comparator do real work).
const REFERENCE_KEYS: u64 = 4_096;
/// Nominal reference time, in seconds: scaled times read as seconds on a
/// host that runs the reference in this time (a shared 2-vCPU x86-64 host
/// ran it in 4.5 to 9 ms).
const REFERENCE_NOMINAL_S: f64 = 0.0075;
/// How far pipeline times follow the reference: a run scales by the
/// reference's slowdown to this power. The reference is all cache misses
/// and moves more than the pipelines do. Over six seeds per workload,
/// 0.75 left the run medians of every workload within a spread of 0.1,
/// where 0 (wall time) left up to 0.29 and 1 up to 0.15.
const HOST_ELASTICITY: f64 = 0.75;

/// The reference kernel: an indirect sort of row ids by rank codes and a
/// scan over the sorted order, the shape of the engine's own inner loops.
/// Its input is fixed, so its work never changes between runs or seeds.
fn reference() -> Duration {
    let start = Instant::now();
    let mut state = 0x0cdd_ca11_u64;
    let keys: Vec<u32> = (0..REFERENCE_LEN)
        .map(|_| (crate::workloads::splitmix(&mut state) % REFERENCE_KEYS) as u32)
        .collect();
    let mut ids: Vec<u32> = (0..REFERENCE_LEN as u32).collect();
    ids.sort_by_key(|&i| (keys[i as usize], i));
    let ordered = ids
        .windows(2)
        .filter(|w| keys[w[0] as usize] <= keys[w[1] as usize])
        .count();
    black_box(ordered);
    start.elapsed()
}

/// Reference times taken at each [`HostClock::tick`].
const REFERENCE_PER_TICK: usize = 5;

/// Times the reference between pipeline runs and turns each run's
/// surrounding reference times into a scale factor.
#[derive(Default)]
pub struct HostClock {
    /// Every reference time taken, in seconds.
    pub samples: Vec<f64>,
    /// Index into `samples` where each tick starts.
    ticks: Vec<usize>,
}

impl HostClock {
    /// Time the reference [`REFERENCE_PER_TICK`] times.
    pub fn tick(&mut self) {
        self.ticks.push(self.samples.len());
        for _ in 0..REFERENCE_PER_TICK {
            self.samples.push(reference().as_secs_f64());
        }
    }

    /// The factor that scales a run made between ticks `i` and `i + 1` to
    /// nominal host speed: nominal over the median of both ticks' times,
    /// to the power [`HOST_ELASTICITY`]. The speed drifts within seconds
    /// too, so the ticks right around a run track it better than any wider
    /// window.
    pub fn factor_between(&self, i: usize) -> f64 {
        let lo = self.ticks[i];
        let hi = self.ticks.get(i + 2).copied().unwrap_or(self.samples.len());
        (REFERENCE_NOMINAL_S / crate::median(&self.samples[lo..hi])).powf(HOST_ELASTICITY)
    }
}
