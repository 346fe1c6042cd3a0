//! The metric table, the result of one workload run, and its output:
//! the human-readable listing on stderr and the one-line JSON result on
//! stdout.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether a metric is end to end (untraced run, `--trace 0`) or per
/// layer (`--trace 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Layer,
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::Layer,
    }
}

/// Every metric, in output order. `BENCHMARK.json` lists the same names
/// and units. Every workload reports every metric of the requested kind;
/// a layer the workload bypasses reads 0.
pub const METRICS: &[MetricDef] = &[
    // End to end, untraced.
    e2e("ios_per_s", "1/s"),
    e2e("setup_s", "s"),
    e2e("peak_rss_mib", "MiB"),
    // Exact work counts, untraced.
    layer("sim.events_per_io", "events/io"),
    layer("sim.max_queued", "count"),
    layer("net.pkts_per_io", "pkts/io"),
    layer("net.route_cache_misses", "count"),
    layer("net.drops", "count"),
    layer("tcp.segs_per_io", "segs/io"),
    layer("tcp.retransmits", "count"),
    layer("tcp.timeouts", "count"),
    layer("solar.pkts_per_io", "pkts/io"),
    layer("solar.retransmits", "count"),
    layer("solar.timeouts", "count"),
    layer("dpu.cpu_jobs_per_io", "jobs/io"),
    layer("blk.completed", "count"),
    layer("blk.parts_sent", "count"),
    layer("blk.retransmits", "count"),
    layer("blk.data_mib", "MiB"),
    layer("obs.records_per_event", "records/event"),
    layer("stack.windows", "count"),
    layer("stack.exchanged", "count"),
    layer("stack.repl_completed", "count"),
    layer("sa.admitted_ios", "count"),
    layer("storage.reads", "count"),
    layer("storage.writes", "count"),
    // Wall-derived, untraced.
    layer("sim.ns_per_event", "ns/event"),
    layer("stack.barrier_stall_frac", "frac"),
    layer("stack.parallel_eff", "frac"),
    layer("stack.shard_busy_skew", "ratio"),
    layer("stack.thread_speedup", "ratio"),
    // Step latency, reported beside its sample count but not gated: see
    // RATIONALE.md.
    layer("step_p50_us", "us"),
    layer("step_p99_us", "us"),
    layer("bench.step_samples", "count"),
    // Traced run: exclusive simulator shares (the first four sum to 1).
    layer("sim.pop_frac", "frac"),
    layer("net.fabric_frac", "frac"),
    layer("stack.deliver_frac", "frac"),
    layer("stack.host_frac", "frac"),
    layer("stack.pump_frac", "frac"),
    // Traced run: loopback span self times.
    layer("wire.encode_ns", "ns/dgram"),
    layer("wire.decode_ns", "ns/dgram"),
    layer("crc.ns_per_block", "ns/block"),
    layer("crypto.ns_per_block", "ns/block"),
    layer("solar.client_ns_per_pkt", "ns/pkt"),
    layer("solar.responder_ns_per_pkt", "ns/pkt"),
    layer("host.syscall_ns_per_dgram", "ns/dgram"),
    layer("host.other_ns_per_block", "ns/block"),
    layer("bench.trace_overhead_frac", "frac"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: simulator runs, or loopback RPCs.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Why operations failed, or why the run is not correct.
    pub problems: Vec<String>,
    /// Metric values by name; names absent here read 0.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            METRICS.iter().any(|m| m.name == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Count one failed operation and say why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Record `VmHWM` once, after the first iteration. Repeating a
    /// workload in one process lets the allocator keep freed memory, so
    /// the peak would otherwise grow with the repeats, not the program.
    pub fn record_peak_rss(&mut self) {
        if self.values.contains_key("peak_rss_mib") {
            return;
        }
        match peak_rss_mib() {
            Some(mib) => self.set("peak_rss_mib", mib),
            None => self.problems.push("VmHWM unavailable".into()),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Print every metric of `kind` as `name = value unit` on stderr.
    pub fn print_listing(&self, workload: &str, kind: Kind) {
        eprintln!(
            "{workload}: attempted {} failed {} ops_failed_frac {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for m in METRICS.iter().filter(|m| m.kind == kind) {
            eprintln!("  {:<28} {:>16.6} {}", m.name, self.value(m.name), m.unit);
        }
        for p in &self.problems {
            eprintln!("  FAILED: {p}");
        }
    }

    fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The one-line JSON result: every metric of `kind`.
    pub fn json(&self, kind: Kind) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in METRICS.iter().filter(|m| m.kind == kind).enumerate() {
            let v = self.value(m.name);
            // JSON has no NaN or infinity; a non-finite value is a bug
            // upstream, reported as 0 beside `correct: false`.
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// The median of `xs` by nearest rank; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile (0..=1) of `xs` by nearest rank; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The time a sequence of identical runs takes at the best speed the
/// host gave each step: the sum, over the steps every run has, of the
/// step's smallest time across `runs`. Each run is a list of step times
/// in step order; 0 when there is no run.
pub fn sum_of_fastest(runs: &[&[f64]]) -> f64 {
    let steps = runs.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..steps)
        .map(|k| runs.iter().map(|r| r[k]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// The p99 of `xs`, or with fewer than 1,000 samples the highest
/// quantile that still has 10 samples beyond it.
pub fn tail(xs: &[f64]) -> f64 {
    let q = 1.0 - 10.0 / xs.len().max(1) as f64;
    quantile(xs, q.clamp(0.5, 0.99))
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// 64-bit FNV-1a, for short digests of long outcome strings.
pub fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_listed_in_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (i, m) in METRICS.iter().enumerate() {
            assert!(
                METRICS[..i].iter().all(|o| o.name != m.name),
                "{} listed twice",
                m.name
            );
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 9_900.0);
        assert_eq!(quantile(&xs, 1.0), 10_000.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(tail(&xs), 9_900.0);
        let few: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&few), 90.0, "10 samples lie beyond the tail");
        assert_eq!(tail(&[]), 0.0);
    }

    #[test]
    fn sum_of_fastest_takes_each_steps_best_run() {
        let a = [3.0, 1.0, 5.0];
        let b = [2.0, 4.0, 6.0, 9.0];
        assert_eq!(sum_of_fastest(&[&a, &b]), 2.0 + 1.0 + 5.0);
        assert_eq!(sum_of_fastest(&[&b]), 21.0);
        assert_eq!(sum_of_fastest(&[]), 0.0);
    }

    #[test]
    fn json_lists_every_metric_of_the_kind() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("ios_per_s", 12.5);
        let line = o.json(Kind::EndToEnd);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"ios_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert!(!line.contains("sim.pop_frac"));
    }
}
