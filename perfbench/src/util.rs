//! Small helpers shared by the workloads: the seeded generator, latency
//! samples, percentiles, process memory and scratch directories.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicU8, Ordering};

/// SplitMix64: the workload generator. Every input the program receives is
/// drawn from one of these, seeded from `--seed`, a per-workload salt and
/// the generator thread or session index.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Two distinct values of `0..n` in ascending order (`n >= 2`).
    pub fn two_ascending(&mut self, n: u64) -> (u64, u64) {
        let a = self.below(n);
        let b = (a + 1 + self.below(n - 1)) % n;
        (a.min(b), a.max(b))
    }
}

/// Samples a recorder keeps per window; beyond that it keeps a uniform
/// reservoir, so the benchmark's own memory does not grow with throughput
/// (it would show in `peak_rss_mb`).
const WINDOW_CAP: usize = 4096;

/// One recorder's samples of one window: `kept` is a uniform sample of the
/// `seen` latencies.
#[derive(Clone, Debug, Default)]
struct Part {
    seen: u64,
    kept: Vec<u64>,
}

/// Latencies in nanoseconds, bucketed by the one-second window of the
/// measured interval in which each completed.
///
/// Every figure is the median over the interval's whole windows of that
/// window's figure. A burst of host noise (another guest taking the CPU
/// for a second) then moves a run's figure far less than it moves a
/// whole-run average or tail.
#[derive(Clone, Debug)]
pub struct Lat {
    /// Per window, one part per recorder merged in.
    windows: Vec<Vec<Part>>,
    rng: Rng,
}

impl Default for Lat {
    fn default() -> Lat {
        Lat {
            windows: Vec::new(),
            rng: Rng::new(0, 0x1a7),
        }
    }
}

impl Lat {
    /// Record a latency that completed `since_start` after the measured
    /// interval began.
    pub fn record(&mut self, since_start: Duration, lat: Duration) {
        let w = since_start.as_secs() as usize;
        if self.windows.len() <= w {
            self.windows.resize_with(w + 1, || vec![Part::default()]);
        }
        let part = &mut self.windows[w][0];
        part.seen += 1;
        let ns = lat.as_nanos() as u64;
        if part.kept.len() < WINDOW_CAP {
            part.kept.push(ns);
        } else {
            let j = self.rng.below(part.seen) as usize;
            if j < WINDOW_CAP {
                part.kept[j] = ns;
            }
        }
    }

    /// Fold another recorder's samples into this one.
    pub fn merge(&mut self, other: Lat) {
        if self.windows.len() < other.windows.len() {
            self.windows.resize_with(other.windows.len(), Vec::new);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.extend(theirs);
        }
    }

    /// Latencies seen in window `i`.
    fn seen(&self, i: usize) -> u64 {
        self.windows
            .get(i)
            .map_or(0, |w| w.iter().map(|p| p.seen).sum())
    }

    /// `q`-quantile of window `i` in nanoseconds (nearest rank, each kept
    /// sample standing for `seen / kept` latencies); `None` when empty.
    fn window_quantile(&self, i: usize, q: f64) -> Option<f64> {
        let mut weighted: Vec<(u64, f64)> = self
            .windows
            .get(i)?
            .iter()
            .filter(|p| !p.kept.is_empty())
            .flat_map(|p| {
                let w = p.seen as f64 / p.kept.len() as f64;
                p.kept.iter().map(move |&v| (v, w))
            })
            .collect();
        weighted.sort_unstable_by_key(|&(v, _)| v);
        let total: f64 = weighted.iter().map(|&(_, w)| w).sum();
        let mut cum = 0.0;
        for &(v, w) in &weighted {
            cum += w;
            if cum >= q * total - 1e-9 {
                return Some(v as f64);
            }
        }
        weighted.last().map(|&(v, _)| v as f64)
    }

    /// Median over the first `n` windows of the window's count: the
    /// latencies recorded per second of the measured interval.
    pub fn rate(&self, n: u64) -> f64 {
        let mut per: Vec<f64> = (0..n as usize).map(|i| self.seen(i) as f64).collect();
        median_f64(&mut per)
    }

    /// Like [`Lat::rate`], per second of CPU time the guest got instead: a
    /// diagnostic that divides each window's count by the share of that
    /// second the hypervisor did not steal (`steal[i]`, see [`Steal`]). It
    /// assumes the rate scales with the CPU the guest gets, which holds
    /// only for a closed loop that keeps every CPU busy.
    pub fn rate_per_cpu_second(&self, n: u64, steal: &Steal) -> f64 {
        let mut per: Vec<f64> = (0..n as usize)
            .map(|i| self.seen(i) as f64 / (1.0 - steal.share(i)))
            .collect();
        median_f64(&mut per)
    }

    /// Median over the first `n` windows (those with samples) of each
    /// window's `q`-quantile, in microseconds; 0 with no samples.
    pub fn quantile_us(&self, n: u64, q: f64) -> f64 {
        let mut per: Vec<f64> = (0..n as usize)
            .filter_map(|i| self.window_quantile(i, q))
            .collect();
        median_f64(&mut per) / 1e3
    }

    /// Per-window count and `q`-quantile (µs) of the first `n` windows, for
    /// the run's diagnostic line.
    pub fn windows_summary(&self, n: u64, q: f64) -> String {
        (0..n as usize)
            .map(|i| {
                let v = self.window_quantile(i, q).unwrap_or(0.0);
                format!("{}@{:.1}", self.seen(i), v / 1e3)
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Nearest-rank `q`-quantile of `v` (sorted in place); 0 when empty.
pub fn quantile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Median of `v` (sorted in place); 0 when empty.
pub fn median_f64(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A `field:` value in kB from `/proc/self/status`, in MB (0 if absent).
fn proc_status_mb(field: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// Current resident set size of this process, in MB.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A scratch directory under `.perfbench/` in the working directory,
/// removed (with its contents) when dropped, on success and failure alike.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create a fresh, empty `.perfbench/<name>-<pid>` directory.
    pub fn new(name: &str) -> std::io::Result<ScratchDir> {
        let path = Path::new(".perfbench").join(format!("{name}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still uses it.
        let _ = std::fs::remove_dir(".perfbench");
    }
}

/// Phases of a measured run, shared by the generator threads or sessions.
pub mod phase {
    /// Running, not yet measured (caches and queues fill).
    pub const WARMUP: u8 = 0;
    /// Inside the measured interval.
    pub const MEASURE: u8 = 1;
    /// Finish the current transaction and stop.
    pub const STOP: u8 = 2;
}

/// Warm-up before each measured interval.
pub const WARMUP: Duration = Duration::from_secs(1);

/// What [`run_window`] observed around the measured interval.
pub struct Window<S> {
    /// `snap` right before the interval opened.
    pub before: S,
    /// `snap` right after it closed.
    pub after: S,
    /// Host steal time during the interval.
    pub steal: Steal,
}

/// CPU time the hypervisor gave to other guests while this one wanted to
/// run ("steal", from `/proc/stat`), per second of the measured interval.
#[derive(Clone, Debug, Default)]
pub struct Steal {
    /// Steal ticks summed over all CPUs, per second; zeros where the
    /// kernel does not report steal.
    pub ticks: Vec<u64>,
    /// CPUs `/proc/stat` sums the ticks over.
    pub cpus: u64,
}

/// Clock ticks per second in `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

impl Steal {
    /// The share of second `i`'s CPU time that was stolen, capped at 0.9
    /// (0 for a second not sampled).
    pub fn share(&self, i: usize) -> f64 {
        let ticks = self.ticks.get(i).copied().unwrap_or(0) as f64;
        (ticks / (USER_HZ * self.cpus.max(1) as f64)).min(0.9)
    }

    /// Mean stolen share over the sampled seconds, percent.
    pub fn mean_pct(&self) -> f64 {
        let n = self.ticks.len().max(1) as f64;
        100.0 * (0..self.ticks.len()).map(|i| self.share(i)).sum::<f64>() / n
    }
}

/// Total steal ticks of all CPUs so far and the number of CPUs `/proc/stat`
/// lists; `(0, 0)` when it cannot be read.
fn host_steal_ticks() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let ticks = text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .and_then(|rest| rest.split_whitespace().nth(7))
        .and_then(|t| t.parse().ok())
        .unwrap_or(0);
    let cpus = text
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count() as u64;
    (ticks, cpus)
}

/// Drive the measured interval from the main thread: switch `phase` to
/// [`phase::MEASURE`] at `start`, call `sample` about every 50 ms until
/// `seconds` have passed, then switch to [`phase::STOP`].
pub fn run_window<S>(
    phase_flag: &AtomicU8,
    start: Instant,
    seconds: u64,
    snap: impl Fn() -> S,
    mut sample: impl FnMut(),
) -> Window<S> {
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    let before = snap();
    phase_flag.store(phase::MEASURE, Ordering::SeqCst);
    let (mut last, cpus) = host_steal_ticks();
    let mut steal = Steal {
        ticks: Vec::new(),
        cpus,
    };
    for k in 1..=seconds {
        let edge = start + Duration::from_secs(k);
        loop {
            sample();
            let now = Instant::now();
            if now >= edge {
                break;
            }
            std::thread::sleep((edge - now).min(Duration::from_millis(50)));
        }
        let (now, _) = host_steal_ticks();
        steal.ticks.push(now.saturating_sub(last));
        last = now;
    }
    phase_flag.store(phase::STOP, Ordering::SeqCst);
    Window {
        before,
        after: snap(),
        steal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_in_range() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(8, 1);
        let xs: Vec<u64> = (0..100).map(|_| a.below(10)).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.below(10)).collect();
        let zs: Vec<u64> = (0..100).map(|_| c.below(10)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        assert!(xs.iter().all(|&x| x < 10));
        for _ in 0..1000 {
            let (lo, hi) = a.two_ascending(3);
            assert!(lo < hi && hi < 3);
        }
    }

    #[test]
    fn quantiles() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn reservoir_keeps_memory_fixed_and_quantiles_close() {
        let mut a = Lat::default();
        let mut b = Lat::default();
        for i in 0..100_000u64 {
            a.record(Duration::ZERO, Duration::from_nanos(i % 1000));
        }
        for _ in 0..1000 {
            b.record(Duration::ZERO, Duration::from_nanos(5000));
        }
        assert_eq!(a.windows[0][0].kept.len(), WINDOW_CAP);
        assert_eq!(a.seen(0), 100_000);
        let p50 = a.quantile_us(1, 0.5) * 1e3;
        assert!((p50 - 500.0).abs() < 30.0, "{p50}");
        // Merged by weight: b's 1000 samples are 1 % of the window.
        a.merge(b);
        assert_eq!(a.seen(0), 101_000);
        assert!(a.quantile_us(1, 0.98) * 1e3 < 1000.0);
        assert_eq!(a.quantile_us(1, 0.999) * 1e3, 5000.0);
    }

    #[test]
    fn window_medians_ignore_one_bad_second() {
        let mut lat = Lat::default();
        for w in 0..5u64 {
            let n = if w == 2 { 10 } else { 100 };
            for i in 0..n {
                let us = if w == 2 { 10_000 } else { 100 + i };
                lat.record(
                    Duration::from_secs(w) + Duration::from_millis(1),
                    Duration::from_micros(us),
                );
            }
        }
        // A sample after the interval is outside every whole window.
        lat.record(Duration::from_secs(5), Duration::from_secs(1));
        assert_eq!(lat.rate(5), 100.0);
        // Half of every second stolen: twice the rate per second of CPU.
        let steal = Steal {
            ticks: vec![100; 5],
            cpus: 2,
        };
        assert_eq!(steal.mean_pct(), 50.0);
        assert_eq!(lat.rate_per_cpu_second(5, &steal), 200.0);
        assert_eq!(lat.rate_per_cpu_second(5, &Steal::default()), 100.0);
        assert_eq!(lat.quantile_us(5, 0.5), 149.0);
        assert_eq!(lat.quantile_us(5, 0.99), 198.0);
        assert_eq!(Lat::default().quantile_us(5, 0.5), 0.0);
    }
}
