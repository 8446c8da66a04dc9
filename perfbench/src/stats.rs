//! Sample statistics: medians, the reported tail percentile, samples
//! screened for CPU time the host stole, and the process's peak resident
//! set.

use std::time::Instant;

/// Percentiles a `_tail` metric may report, lowest first. The tail is the
/// highest of these that still has at least [`TAIL_MIN_BEYOND`] samples
/// above it.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a tail percentile must leave above it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0)
}

/// A latency sample: the median, plus the tail percentile that has at
/// least ten samples beyond it at this sample size.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

/// Summarises `xs`. A failed operation is pushed as `f64::INFINITY`, so it
/// misses every latency limit; non-finite results are reported as
/// `f64::MAX` to stay valid JSON.
pub fn summarize(xs: &[f64]) -> Summary {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let tail_pct = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND as f64)
        .unwrap_or(50.0);
    let finite = |x: f64| if x.is_finite() { x } else { f64::MAX };
    Summary {
        n,
        p50: finite(percentile_sorted(&v, 50.0)),
        tail_pct,
        tail: finite(percentile_sorted(&v, tail_pct)),
    }
}

/// CPU time the hypervisor has taken from this machine's CPUs, in clock
/// ticks (the `steal` column of the `cpu` line of `/proc/stat`); 0 where
/// it is not reported.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Measures the rate at which the host steals CPU time over an interval.
pub struct StealClock {
    ticks: u64,
    t0: Instant,
}

impl StealClock {
    pub fn start() -> StealClock {
        StealClock {
            ticks: steal_ticks(),
            t0: Instant::now(),
        }
    }

    /// Stolen clock ticks per second since [`StealClock::start`].
    pub fn rate(&self) -> f64 {
        (steal_ticks() - self.ticks) as f64 / self.t0.elapsed().as_secs_f64()
    }
}

/// Samples of one metric, one or more per unit of work, each with the rate
/// at which the host stole CPU time during its unit. A unit the host stole
/// from is slower for reasons outside the program: a fleet repetition or a
/// serve burst that loses its CPU stalls the threads waiting on it.
#[derive(Default)]
pub struct Screened(Vec<(f64, f64)>);

impl Screened {
    pub fn push(&mut self, value: f64, steal_rate: f64) {
        self.0.push((value, steal_rate));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The values of every unit the host stole nothing from if they are at
    /// least half of all, else of the half with the lowest steal rate.
    pub fn kept(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(|a, b| a.1.total_cmp(&b.1));
        let clean = v.iter().filter(|s| s.1 == 0.0).count();
        v.truncate(clean.max(v.len().div_ceil(2)));
        v.into_iter().map(|s| s.0).collect()
    }

    /// Median of [`Screened::kept`].
    pub fn median(&self) -> f64 {
        median(&self.kept())
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!(s.tail_pct, 95.0);
        assert_eq!(s.tail, 190.0);
        assert_eq!(s.p50, 100.0);
        assert_eq!(summarize(&xs[..20]).tail_pct, 50.0);
    }

    #[test]
    fn screening_keeps_clean_units_or_the_less_stolen_half() {
        let mut s = Screened::default();
        for (v, rate) in [(1.0, 0.0), (2.0, 0.0), (3.0, 5.0), (9.0, 40.0)] {
            s.push(v, rate);
        }
        assert_eq!(s.kept(), vec![1.0, 2.0]);
        s.push(4.0, 0.0);
        assert_eq!(s.kept(), vec![1.0, 2.0, 4.0]);
        let mut heavy = Screened::default();
        for (v, rate) in [
            (5.0, 30.0),
            (1.0, 10.0),
            (2.0, 20.0),
            (7.0, 50.0),
            (3.0, 0.0),
        ] {
            heavy.push(v, rate);
        }
        assert_eq!(heavy.kept(), vec![3.0, 1.0, 2.0]);
    }
}
