//! Latency samples, fixed percentiles and the process's peak resident set.

use std::fs;
use std::time::Duration;

/// The fixed tail percentile every run reports.
pub const TAIL: f64 = 0.99;
/// Samples a run must hold beyond its tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Per-operation latencies of one run, in milliseconds.
#[derive(Default)]
pub struct Samples {
    ms: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ms.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn total_s(&self) -> f64 {
        self.ms.iter().sum::<f64>() / 1e3
    }

    pub fn p50(&self) -> f64 {
        quantile(&self.ms, 0.5)
    }

    /// The fixed p99, checking that the run has enough samples beyond it
    /// for the figure to be more than one outlier.
    pub fn p99(&self) -> f64 {
        let beyond = beyond_tail(self.ms.len());
        assert!(
            beyond >= MIN_BEYOND_TAIL,
            "{} samples leave only {beyond} beyond p99; the workload is sized wrong",
            self.ms.len()
        );
        quantile(&self.ms, TAIL)
    }
}

/// Samples beyond the fixed p99 among `n`.
fn beyond_tail(n: usize) -> usize {
    n - rank(n, TAIL) - 1
}

/// The fewest samples that leave `MIN_BEYOND_TAIL` beyond the fixed p99;
/// workloads size their runs to at least this many reads.
pub fn min_samples() -> usize {
    (1..)
        .find(|&n| beyond_tail(n) >= MIN_BEYOND_TAIL)
        .expect("some sample count leaves enough beyond p99")
}

/// Nearest-rank index of quantile `q` among `n` sorted values.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank quantile of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q)]
}

/// The process's resident-set high-water mark, with the kernel's mark reset
/// around the phases that count, so the comparator's own peaks are left out.
///
/// Memory the comparator freed but the allocator kept mapped still counts
/// when a counted phase starts; it is small next to the graph and indexes.
///
/// A run made of rounds closes each with [`PeakRss::end_round`] and
/// reports the median round's peak: the highest mark of a long run depends
/// on which round's allocations happened to fragment the heap most.
#[derive(Default)]
pub struct PeakRss {
    max_kib: u64,
    rounds: Vec<f64>,
}

impl PeakRss {
    /// Starts a counted phase: the kernel's mark drops to the current RSS.
    pub fn start(&self) {
        // Writing 5 to clear_refs resets VmHWM (Linux 4.0+).  Where the file
        // is not writable the mark keeps the whole-process peak, which can
        // only overstate the figure.
        let _ = fs::write("/proc/self/clear_refs", "5");
    }

    /// Ends a counted phase, folding in the mark reached during it.
    pub fn stop(&mut self) {
        self.max_kib = self.max_kib.max(status_kib("VmHWM:"));
    }

    /// Closes a round: its peak is kept and the next round starts afresh.
    pub fn end_round(&mut self) {
        self.rounds.push(self.max_kib as f64 / 1024.0);
        self.max_kib = 0;
    }

    /// The peak in MiB: the median round's, or the whole run's.
    pub fn mib(&self) -> f64 {
        if self.rounds.is_empty() {
            self.max_kib as f64 / 1024.0
        } else {
            median(&self.rounds)
        }
    }
}

fn status_kib(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// Median of a few values (set-up repeats).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
