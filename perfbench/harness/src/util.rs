//! Small helpers: a seeded RNG, order statistics, process memory, and
//! readers for the program's own obs counters and span totals.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux's process CPU clock and /proc");

use std::time::Instant;

/// SplitMix64: the benchmark's input generator. The program never sees
/// this RNG, only the inputs drawn from it.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Times `f`, returning its value and the elapsed host seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system, all threads, living or exited) this
/// process has used, at nanosecond resolution. On a shared host, time the
/// hypervisor steals from the vCPUs stretches wall time; it moves this
/// figure much less.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable struct with the layout of the C
    // `struct timespec` on 64-bit Linux (two 64-bit fields), and
    // clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds the hypervisor has stolen from this machine's vCPUs
/// (all CPUs; the `steal` column of `/proc/stat`, in 1/100 s ticks).
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Sum of every obs counter whose name starts with `prefix`.
pub fn counter_sum(prefix: &str) -> u64 {
    ramp_obs::metrics_snapshot()
        .iter()
        .filter(|m| m.name.starts_with(prefix))
        .map(|m| match m.value {
            ramp_obs::MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// Observation count of the obs histogram `name` (0 if unregistered).
pub fn histogram_count(name: &str) -> u64 {
    ramp_obs::metrics_snapshot()
        .iter()
        .find(|m| m.name == name)
        .map_or(0, |m| match m.value {
            ramp_obs::MetricValue::Histogram { count, .. } => count,
            _ => 0,
        })
}

/// Number of program spans that ended since the span totals were reset.
pub fn span_count() -> u64 {
    ramp_obs::span_stats().iter().map(|s| s.count).sum()
}

/// Summed duration (seconds, across all threads) and count of the
/// program's spans whose leaf name is `leaf`, from the always-on obs
/// span totals.
pub fn span_busy(leaf: &str) -> (f64, u64) {
    let suffix = format!("/{leaf}");
    ramp_obs::span_stats()
        .iter()
        .filter(|s| s.path == leaf || s.path.ends_with(&suffix))
        .fold((0.0, 0), |(t, n), s| {
            (t + s.total_ns as f64 * 1e-9, n + s.count)
        })
}
