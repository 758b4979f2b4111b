//! The radix-cluster hot path, kernel by kernel, against the seed kernel.
//!
//! Compares, at 1M and 4M tuples and B ∈ {6, 10, 14} over **hashed keys**
//! (the join-input case, where the seed kernel hashed every key twice per
//! pass):
//!
//! * `seed` — a faithful replica of the pre-PR `cluster_impl` (two `to_vec`
//!   input copies, two flip-buffer `clone`s, per-segment cursor vectors,
//!   two hashes per key per pass), kept here as the committed baseline so
//!   the improvement is measured inside one build;
//! * `plain` — the scratch engine with a one-shot arena and output;
//! * `scratch_plain` — the same with a reused arena and output (the steady
//!   state of the join's per-partition split);
//! * `planned` — the reused arena and output at the pass count the
//!   hardware-aware planner picks for this host.
//!
//! Every variant is checked byte-identical to `seed` before timing.
//! Radix-Cluster has one scatter, the plain one; a fan-out past the pass
//! rule's runs more passes (§2.1).
//!
//! First, a **fan-out sweep**: one pass of 1M pairs to 16 … 256 clusters,
//! for the join's hashed `(u64, u32)` pairs and the reordering codes'
//! `(u32, u32)` oid pairs, clustered by a reused arena into a reused output
//! so no allocation is timed.  It shows where one plain pass falls off
//! the TLB cliff that sets `rdx_core::cluster::pass_fanout`, the one pass
//! rule: half the TLB entries (two write streams per cluster), or half the
//! last-level lines if fewer.  On the simulated Pentium 4 the rule's two
//! 32-way-bounded passes over 2^20 shuffled oid pairs cost 225 M stall
//! cycles against one 64-way pass's 494 M (234 M against 780 M at 256
//! ways).
//!
//! Writes the grid, env-stamped and with its key-mix seed, to
//! `scatter_kernels.json` in the cargo profile directory
//! (`target/release/` under `cargo bench`): build output, never committed.
//!
//! Run with `cargo bench -p rdx-bench --bench scatter_kernels [samples]
//! [seed]` (default 9 samples per cell, key-mix seed 17; the median is
//! reported).  With `samples >= 30` each cell additionally carries bootstrap
//! 95% CIs for the seed and planned kernels plus a CI-overlap verdict, so
//! the committed improvement claim is statistical, not a single median.
//!
//! It reports and does not gate: a closing line prints the worst hot-path
//! (B ≥ 10) cell's median change against `seed`, and the bench exits 0
//! whatever it reads.  That figure is noisy: the 1 M, B = 10 planned cell
//! has read 12.0, 14.7 and 20.6 ms in three 9-sample runs on one host, so
//! one run can show no improvement where another shows a large one.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rdx_bench::stats::{bootstrap_median_ci, classify, BootstrapCi, MIN_SAMPLES};
use rdx_bench::EnvMeta;
use rdx_cache::{CacheLevel, CacheParams, NoProbe};
use rdx_core::cluster::{pass_fanout, radix_cluster, ClusterScratch, Clustered, RadixClusterSpec};
use rdx_core::hash::hash_key;
use std::time::{Duration, Instant};

/// The host's data-cache geometry from sysfs, falling back to the paper's
/// Pentium 4 when sysfs is unavailable.  The TLB (which sysfs does not
/// describe) and the latency/bandwidth fields keep the Pentium 4's values;
/// the pass rule reads only the TLB entries and the last level's lines.
fn host_params() -> CacheParams {
    let read = |idx: usize, file: &str| -> Option<String> {
        std::fs::read_to_string(format!(
            "/sys/devices/system/cpu/cpu0/cache/index{idx}/{file}"
        ))
        .ok()
        .map(|s| s.trim().to_string())
    };
    let parse_size = |s: &str| -> Option<usize> {
        if let Some(k) = s.strip_suffix('K') {
            k.parse::<usize>().ok().map(|v| v * 1024)
        } else if let Some(m) = s.strip_suffix('M') {
            m.parse::<usize>().ok().map(|v| v * 1024 * 1024)
        } else {
            s.parse().ok()
        }
    };
    let mut levels: Vec<CacheLevel> = Vec::new();
    for idx in 0..8 {
        let Some(ty) = read(idx, "type") else { break };
        if ty == "Instruction" {
            continue;
        }
        let (Some(size), Some(line)) = (
            read(idx, "size").and_then(|s| parse_size(&s)),
            read(idx, "coherency_line_size").and_then(|s| s.parse().ok()),
        ) else {
            continue;
        };
        levels.push(CacheLevel {
            capacity: size,
            line_size: line,
            associativity: read(idx, "ways_of_associativity")
                .and_then(|s| s.parse().ok())
                .unwrap_or(8),
            miss_latency_cycles: 100 + 100 * levels.len() as u64,
        });
    }
    if levels.is_empty() {
        return CacheParams::paper_pentium4();
    }
    levels.sort_by_key(|l| l.capacity);
    CacheParams {
        levels,
        ..CacheParams::paper_pentium4()
    }
}

/// Faithful replica of the seed `cluster_impl` (hashed-key form), preserved
/// as the measurement baseline.
fn seed_radix_cluster(
    keys: &[u64],
    payloads: &[u32],
    spec: RadixClusterSpec,
) -> Clustered<u64, u32> {
    let bucket_of = |k: &u64| hash_key(*k);
    let n = keys.len();
    if spec.bits == 0 || n == 0 {
        let mut bounds = vec![0usize; spec.num_clusters()];
        bounds.push(n);
        return Clustered::from_parts(keys.to_vec(), payloads.to_vec(), bounds, spec);
    }
    let mut cur_keys = keys.to_vec();
    let mut cur_pay = payloads.to_vec();
    let mut out_keys = cur_keys.clone();
    let mut out_pay = cur_pay.clone();
    let mut segments: Vec<usize> = vec![0, n];
    let mut bits_remaining = spec.bits;
    for bp in spec.pass_bits() {
        bits_remaining -= bp;
        let shift = spec.ignore + bits_remaining;
        let hp = 1usize << bp;
        let mask = (hp - 1) as u64;
        let mut new_segments = Vec::with_capacity((segments.len() - 1) * hp + 1);
        let mut counts = vec![0usize; hp];
        for seg in segments.windows(2) {
            let (s, e) = (seg[0], seg[1]);
            counts.iter_mut().for_each(|c| *c = 0);
            for k in &cur_keys[s..e] {
                let b = ((bucket_of(k) >> shift) & mask) as usize;
                counts[b] += 1;
            }
            let mut cursor = s;
            let mut offsets = vec![0usize; hp];
            for b in 0..hp {
                offsets[b] = cursor;
                new_segments.push(cursor);
                cursor += counts[b];
            }
            for i in s..e {
                let b = ((bucket_of(&cur_keys[i]) >> shift) & mask) as usize;
                let dst = offsets[b];
                offsets[b] += 1;
                out_keys[dst] = cur_keys[i];
                out_pay[dst] = cur_pay[i];
            }
        }
        new_segments.push(n);
        segments = new_segments;
        std::mem::swap(&mut cur_keys, &mut out_keys);
        std::mem::swap(&mut cur_pay, &mut out_pay);
    }
    Clustered::from_parts(cur_keys, cur_pay, segments, spec)
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// Times every variant once per round, rounds interleaved, and returns the
/// per-variant sample series — interleaving keeps slow machine-wide drift
/// (this is a shared single-CPU container) from landing on one variant's
/// samples.
fn time_interleaved(
    samples: usize,
    variants: &mut [&mut dyn FnMut() -> usize],
) -> Vec<Vec<Duration>> {
    let mut times: Vec<Vec<Duration>> = variants.iter().map(|_| Vec::new()).collect();
    let mut sink = 0usize;
    for _ in 0..samples {
        for (variant, series) in variants.iter_mut().zip(&mut times) {
            let t = Instant::now();
            sink = sink.wrapping_add(variant());
            series.push(t.elapsed());
        }
    }
    assert!(sink != usize::MAX, "keep the optimizer honest");
    times
}

/// Bootstrap CI over a timing series in milliseconds, only when the series
/// is long enough to mean anything (see [`MIN_SAMPLES`]).
fn series_ci(series: &[Duration]) -> Option<BootstrapCi> {
    if series.len() < MIN_SAMPLES {
        return None;
    }
    let ms: Vec<f64> = series.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    Some(bootstrap_median_ci(&ms, 1_000, 0.95, 23))
}

/// One fan-out of the sweep: the median one-pass time.
struct FanoutCell {
    pairs: &'static str,
    clusters: usize,
    plain: Duration,
}

/// The fan-out sweep: 1M pairs clustered in one pass to `2^4 … 2^8`
/// clusters, each variant in its own warmed arena, rounds interleaved.
fn fanout_sweep(samples: usize, key_seed: u64) -> Vec<FanoutCell> {
    const N: usize = 1_000_000;
    let mut rng = StdRng::seed_from_u64(key_seed);
    let keys: Vec<u64> = (0..N).map(|_| rng.gen_range(0..N as u64)).collect();
    let mut oids: Vec<u32> = (0..N as u32).collect();
    oids.shuffle(&mut rng);
    let payloads: Vec<u32> = (0..N as u32).collect();
    let mut cells = Vec::new();
    for bits in 4u32..=8 {
        let spec = RadixClusterSpec::single_pass(bits);
        let (mut wide, mut wide_out) = (ClusterScratch::new(), Clustered::default());
        let (mut oid, mut oid_out) = (ClusterScratch::new(), Clustered::default());
        let mut wide_f = || {
            let hash = |&k: &u64| hash_key(k);
            wide.cluster_into(&keys, &payloads, spec, hash, &mut wide_out, &mut NoProbe);
            wide_out.len()
        };
        let mut oid_f = || {
            let bucket = |&o: &u32| o as u64;
            oid.cluster_into(&oids, &payloads, spec, bucket, &mut oid_out, &mut NoProbe);
            oid_out.len()
        };
        // One untimed round grows every arena to its steady-state size.
        let medians: Vec<Duration> = time_interleaved(samples + 1, &mut [&mut wide_f, &mut oid_f])
            .into_iter()
            .map(|mut series| median(series.split_off(1)))
            .collect();
        for (pairs, plain) in [("(u64, u32)", medians[0]), ("(u32, u32)", medians[1])] {
            println!("fan-out {:>3} {pairs}  plain {plain:>8.2?}", 1usize << bits);
            cells.push(FanoutCell {
                pairs,
                clusters: 1 << bits,
                plain,
            });
        }
    }
    cells
}

struct Cell {
    n: usize,
    bits: u32,
    seed_passes: u32,
    planned_passes: u32,
    seed: Duration,
    plain: Duration,
    scratch_plain: Duration,
    planned: Duration,
    seed_ci: Option<BootstrapCi>,
    planned_ci: Option<BootstrapCi>,
}

impl Cell {
    /// The reported comparison: what the planner actually ships
    /// (hardware-derived pass count, reused arena) vs. the seed kernel.
    fn improvement_pct(&self) -> f64 {
        (1.0 - self.planned.as_secs_f64() / self.seed.as_secs_f64()) * 100.0
    }
}

fn main() {
    let samples: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(9);
    let key_seed: u64 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(17);
    let params = host_params();
    println!(
        "host hierarchy: {} data-cache levels, last-level {} KiB ({} B lines)",
        params.levels.len(),
        params.cache_capacity() / 1024,
        params.last_level().line_size,
    );
    let fanout = fanout_sweep(samples, key_seed);
    let mut cells: Vec<Cell> = Vec::new();

    for &n in &[1_000_000usize, 4_000_000] {
        // A key mix with realistic duplication (join keys, hashed by the
        // kernel itself — the hot path the worst-cell report reads), drawn
        // from the explicit seed so two runs can be made to agree or differ
        // on purpose.
        let mut rng = StdRng::seed_from_u64(key_seed);
        let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..n as u64)).collect();
        let payloads: Vec<u32> = (0..n as u32).collect();
        for &bits in &[6u32, 10, 14] {
            // The seed pass rule: two passes beyond 2^11 cursors.
            let passes = if bits > 11 { 2 } else { 1 };
            let spec = RadixClusterSpec::partial(bits, passes, 0);
            // What the pass rule plans for this fan-out on this host.
            let planned_spec = RadixClusterSpec::planned(bits, 0, pass_fanout(&params));

            // Correctness gate before timing: every variant byte-identical.
            let reference = seed_radix_cluster(&keys, &payloads, spec);
            assert_eq!(
                radix_cluster(&keys, &payloads, spec),
                reference,
                "n={n} bits={bits}"
            );
            // The planned variant may use a different pass count (same
            // bytes, different spec tag), so compare the arrays.
            let planned_out = radix_cluster(&keys, &payloads, planned_spec);
            assert_eq!(planned_out.keys(), reference.keys());
            assert_eq!(planned_out.payloads(), reference.payloads());
            assert_eq!(planned_out.bounds(), reference.bounds());
            drop(planned_out);

            // One arena and output, warmed here, serve the reused-scratch
            // variants (the one-shot variant allocates both inside the timed
            // region).
            let reused = std::cell::RefCell::new((ClusterScratch::new(), Clustered::default()));
            let cluster_reused = |spec: RadixClusterSpec| {
                let (arena, out) = &mut *reused.borrow_mut();
                let hash = |&k: &u64| hash_key(k);
                arena.cluster_into(&keys, &payloads, spec, hash, out, &mut NoProbe);
                out.len()
            };
            cluster_reused(spec);
            let mut seed_f = || seed_radix_cluster(&keys, &payloads, spec).len();
            let mut plain_f = || radix_cluster(&keys, &payloads, spec).len();
            let mut scratch_plain_f = || cluster_reused(spec);
            let mut planned_f = || cluster_reused(planned_spec);
            let series = time_interleaved(
                samples,
                &mut [
                    &mut seed_f,
                    &mut plain_f,
                    &mut scratch_plain_f,
                    &mut planned_f,
                ],
            );
            let (seed_ci, planned_ci) = (series_ci(&series[0]), series_ci(&series[3]));
            let medians: Vec<Duration> = series.into_iter().map(median).collect();
            let (seed, plain, scratch_plain, planned) =
                (medians[0], medians[1], medians[2], medians[3]);

            let cell = Cell {
                n,
                bits,
                seed_passes: passes,
                planned_passes: planned_spec.passes,
                seed,
                plain,
                scratch_plain,
                planned,
                seed_ci,
                planned_ci,
            };
            println!(
                "n={:>9} B={:>2}  seed(P={}) {:>8.2?}  plain {:>8.2?}  scratch_p {:>8.2?}  planned(P={}) {:>8.2?}  {:+.1}%",
                cell.n,
                cell.bits,
                cell.seed_passes,
                cell.seed,
                cell.plain,
                cell.scratch_plain,
                cell.planned_passes,
                cell.planned,
                -cell.improvement_pct(),
            );
            cells.push(cell);
        }
    }

    // A report, not a gate: the worst median change on the hot path (1M+
    // tuples, hashed keys, B ≥ 10) against the seed kernel.  It varies from
    // run to run (the 1 M, B = 10 cell most), so no threshold is applied.
    let hot: Vec<&Cell> = cells.iter().filter(|c| c.bits >= 10).collect();
    let worst = hot
        .iter()
        .map(|c| c.improvement_pct())
        .fold(f64::INFINITY, f64::min);
    println!(
        "hot-path (B >= 10) worst-cell improvement vs seed: {worst:.1}% (reported, not gated; the 1 M, B = 10 cell is noisy)"
    );

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let ci_json = |ci: &Option<BootstrapCi>| match ci {
        Some(ci) => format!(
            "{{\"point\": {:.3}, \"lo\": {:.3}, \"hi\": {:.3}, \"level\": {:.2}}}",
            ci.point, ci.lo, ci.hi, ci.level
        ),
        None => "null".to_string(),
    };
    let mut json = String::from("{\n  \"bench\": \"scatter_kernels\",\n");
    json.push_str(&EnvMeta::capture(&params, samples).to_json("  "));
    json.push_str(",\n");
    json.push_str(&format!(
        "  \"samples\": {samples},\n  \"seed\": {key_seed},\n  \"fanout\": [\n"
    ));
    for (i, c) in fanout.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tuples\": 1000000, \"pairs\": \"{}\", \"clusters\": {}, \"plain_ms\": {:.3}}}{}\n",
            c.pairs,
            c.clusters,
            ms(c.plain),
            if i + 1 == fanout.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let verdict = match (&c.seed_ci, &c.planned_ci) {
            (Some(s), Some(p)) => format!("\"{}\"", classify(s, p).label()),
            _ => "null".to_string(),
        };
        json.push_str(&format!(
            "    {{\"tuples\": {}, \"bits\": {}, \"seed_passes\": {}, \"planned_passes\": {}, \"seed_ms\": {:.3}, \"plain_ms\": {:.3}, \"scratch_plain_ms\": {:.3}, \"planned_ms\": {:.3}, \"planned_improvement_pct\": {:.1}, \"seed_ci\": {}, \"planned_ci\": {}, \"planned_vs_seed\": {}}}{}\n",
            c.n,
            c.bits,
            c.seed_passes,
            c.planned_passes,
            ms(c.seed),
            ms(c.plain),
            ms(c.scratch_plain),
            ms(c.planned),
            c.improvement_pct(),
            ci_json(&c.seed_ci),
            ci_json(&c.planned_ci),
            verdict,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"hot_path_worst_improvement_pct\": {worst:.1}\n}}\n"
    ));
    // Bench binaries run from `<target>/<profile>/deps/`.
    let path = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("scatter_kernels.json")))
        .expect("bench binary path has a profile directory");
    std::fs::write(&path, &json).expect("write scatter_kernels.json");
    println!("wrote {}", path.display());
}
