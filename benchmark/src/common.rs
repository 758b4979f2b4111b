//! What every workload shares: the child-mode arguments, the fixed
//! planning configuration, frozen query counts, and the end-to-end metric
//! derivation.

use crate::stats::percentile;
use radix_decluster::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Arguments of one single-workload run (the mode the driver invokes).
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Intended length of the timed phase.  Query *counts* are derived from
    /// it through frozen per-workload rates (see [`timed_count`]), so every
    /// counter repeats exactly from run to run.
    pub seconds: f64,
    pub trace: bool,
    /// Divides every relation cardinality and query count — `1` for real
    /// runs, `100` for the smoke test.
    pub shrink: usize,
    /// Where `trace-<workload>.json` goes.
    pub out: PathBuf,
}

/// How many times an untraced run sets up (tearing down in between);
/// `setup_s` is the median, so one slow page-fault storm does not decide it.
pub const SETUP_REPS: usize = 3;

/// The planning configuration every session of the benchmark shares — the
/// knobs the issue fixes for every workload.  Callers override the cache
/// size, the global budget and observability only.
pub fn base_config() -> ServeConfig {
    ServeConfig {
        params: CacheParams::paper_pentium4(),
        global_budget: MemoryBudget::unbounded(),
        max_concurrent: 4,
        // Never auto-detect: the same plan and schedule on any box.
        threads_per_query: 1,
        ..ServeConfig::default()
    }
}

/// Timed-query count for a workload whose frozen rate is `rate_qps`
/// (queries per second measured once on the reference box): the count that
/// fills `seconds`, divided by `shrink`, rounded up to whole `cycle`s and
/// never below `min`.  A fixed count — not a deadline — is what lets
/// count-type per-layer metrics repeat bit for bit.
pub fn timed_count(rate_qps: f64, seconds: f64, shrink: usize, cycle: usize, min: usize) -> usize {
    let raw = (rate_qps * seconds / shrink as f64).round() as usize;
    raw.max(min).div_ceil(cycle) * cycle
}

/// What the timed phase of a run observed from the caller's side.
#[derive(Debug, Default)]
pub struct Timed {
    /// Submit → verified-result-in-hand, one per completed query.
    pub latencies_ns: Vec<u64>,
    /// Wall-clock seconds the timed queries took: first submit to last
    /// result in hand, verification excluded where the caller blocks.
    pub wall_s: f64,
    pub attempted: u64,
    /// Refused, errored or checksum-mismatched.
    pub failed: u64,
}

impl Timed {
    /// Verified-correct queries per timed wall second.
    pub fn throughput_qps(&self) -> f64 {
        ratio(self.latencies_ns.len() as f64, self.wall_s)
    }
}

/// Metric values by `BENCHMARK.json` name.  Per-layer names absent from a
/// workload (no socket in `scan_*`, no `QueryStats` over the wire) print
/// as 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// One workload run's result, ready to print.
#[derive(Debug)]
pub struct Measured {
    pub timed: Timed,
    pub layers: Layers,
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics of an untraced run, by `BENCHMARK.json` name.
pub fn end_to_end(timed: &Timed, setup_s: f64) -> Layers {
    let mut sorted = timed.latencies_ns.clone();
    sorted.sort_unstable();
    Layers::from([
        ("setup_s", setup_s),
        ("throughput_qps", timed.throughput_qps()),
        ("latency_p50_ms", percentile(&sorted, 50.0) as f64 / 1e6),
        ("latency_p90_ms", percentile(&sorted, 90.0) as f64 / 1e6),
        ("peak_rss_mb", peak_rss_mb()),
    ])
}

/// `VmHWM` of this process in MB — each workload runs in its own process,
/// so this is the workload's peak.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    // From the C library `std` already links; declared here because the
    // standard library has no affinity API.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const CPU_WORDS: usize = 16; // a 1024-CPU mask

/// The CPUs this process may run on, read once — before any thread is
/// pinned, because threads spawned later inherit their parent's mask.
fn allowed_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; CPU_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, CPU_WORDS * 8, mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..CPU_WORDS * 64)
            .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
            .collect()
    })
}

/// Pins the calling thread to the `slot`-th CPU this process may run on
/// (the last one if there are fewer).  The wire workloads put generator and
/// server on different cores: left to the scheduler, the two threads land
/// on one core in most runs and on two in some, and the server's 200 µs
/// idle sleep costs nothing in the first placement and a whole round trip
/// in the second — a 4–15× bimodality (see README).  Best effort: on
/// failure the thread stays where the scheduler put it.
pub fn pin_current_thread(slot: usize) {
    let cpus = allowed_cpus();
    let Some(&cpu) = cpus.get(slot).or(cpus.last()) else {
        return;
    };
    let mut mask = [0u64; CPU_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte length passed.
    let _ = unsafe { sched_setaffinity(0, CPU_WORDS * 8, mask.as_ptr()) };
}

/// A tiny deterministic generator (splitmix64) for the benchmark's own
/// shuffles; the relations themselves come from `rdx-workload`'s seeded
/// builders.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_round_to_whole_cycles_and_respect_the_floor() {
        assert_eq!(timed_count(1.8, 10.0, 1, 5, 5), 20);
        assert_eq!(timed_count(1.8, 10.0, 100, 5, 5), 5);
        assert_eq!(timed_count(8600.0, 10.0, 1, 2, 32), 86_000);
        assert_eq!(timed_count(50.0, 1.0, 100, 1, 16), 16);
    }

    #[test]
    fn shuffles_are_seeded() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        SplitMix(7).shuffle(&mut a);
        SplitMix(7).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
    }
}
