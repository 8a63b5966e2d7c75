//! Order statistics over raw samples. Every percentile is read from the
//! sorted samples themselves (nearest rank), never from histogram bucket
//! bounds, and every summary line states its sample count.

use std::time::Instant;

/// Raw samples of one quantity, in the order they were taken.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, vs: impl IntoIterator<Item = f64>) {
        self.0.extend(vs);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median (mean of the two middle samples for an even count); 0 when
    /// empty.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// Nearest-rank percentile `q` in `(0, 1]`: the smallest sample with
    /// at least `q` of all samples at or below it; 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let rank = (q * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// "n=N" plus the median and upper percentiles in milliseconds, and
    /// how many samples lie above `q`: whether the percentile rests on
    /// enough tail samples.
    pub fn describe(&self, q: f64) -> String {
        let p = self.percentile(q);
        let beyond = self.0.iter().filter(|&&x| x > p).count();
        let ms = |q: f64| self.percentile(q) * 1e3;
        format!(
            "n={} samples, {beyond} above p{}; ms p50 {:.4} p90 {:.4} p99 {:.4} p99.9 {:.4}",
            self.len(),
            q * 100.0,
            ms(0.5),
            ms(0.9),
            ms(0.99),
            ms(0.999)
        )
    }
}

/// One interval, read on the process CPU clock and on the wall clock.
#[derive(Debug, Default, Clone, Copy)]
pub struct Elapsed {
    pub cpu: f64,
    pub wall: f64,
}

impl std::ops::AddAssign for Elapsed {
    fn add_assign(&mut self, o: Elapsed) {
        self.cpu += o.cpu;
        self.wall += o.wall;
    }
}

/// Starts both clocks at once.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    pub fn elapsed(&self) -> Elapsed {
        Elapsed {
            cpu: process_cpu_s() - self.cpu,
            wall: self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// Samples of one quantity on both clocks.
#[derive(Debug, Default, Clone)]
pub struct Dual {
    pub cpu: Samples,
    pub wall: Samples,
}

impl Dual {
    pub fn push(&mut self, e: Elapsed) {
        self.cpu.push(e.cpu);
        self.wall.push(e.wall);
    }

    pub fn extend(&mut self, other: &Dual) {
        self.cpu.extend(other.cpu.0.iter().copied());
        self.wall.extend(other.wall.0.iter().copied());
    }
}

/// 64-bit FNV-1a: a stable fingerprint for output digests.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::new();
        s.extend((1..=100).map(f64::from));
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(0.5), 50.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(s.median(), 50.5);
        assert!(s.describe(0.99).starts_with("n=100 samples, 1 above p99;"));
    }
}

/// CPU time used so far by every thread of this process, in seconds.
/// Unlike wall time it excludes time the host took the CPU away from the
/// process (steal on a shared virtual machine) and time spent waiting.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is the
    // constant Linux defines for the calling process's CPU clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable on Linux");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}
