//! `cargo bench -p ebs-bench --bench experiments` regenerates EVERY
//! figure and table of the paper's evaluation and prints paper-style
//! rows. This is a plain binary (harness = false): the "benchmark" is the
//! experiment suite itself, not a statistical timing loop — Criterion
//! micro-benchmarks live in `micro.rs`.
//!
//! Flags:
//! * `--quick` (or the bench-harness's `--test` flag that `cargo test
//!   --benches` passes) shrinks run lengths;
//! * `--serial` disables the multi-threaded harness (the printed output
//!   is byte-identical either way; only the wall-clock differs).
//!
//! Where a testbed cell's host time goes, layer by layer, is reported by
//! the repository benchmark: `perfbench --workload <name> --trace 1`.
//!
//! Each run writes `BENCH_RESULTS.json` at the repository root with
//! per-experiment wall-clock and headline numbers.

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "--test");
    let serial = args.iter().any(|a| a == "--serial");
    let report = ebs_bench::run_report(quick, !serial);
    for exp in &report.experiments {
        println!("{}", exp.output.render());
    }
    let json = report.to_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_RESULTS.json");
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    eprintln!(
        "all experiments regenerated in {:.1}s ({} harness)",
        report.total_wall_s,
        if report.parallel {
            "parallel"
        } else {
            "serial"
        }
    );
    // Diagnostic artifacts (Perfetto trace + metrics snapshot) from a
    // representative SOLAR run — separate from BENCH_RESULTS.json so the
    // headline metrics stay byte-identical with observability off.
    if ebs_obs::ENABLED {
        let (trace, metrics, slowest) = ebs_bench::obs::export_solar_run(quick);
        let target = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
        for (file, body) in [("obs-trace.json", &trace), ("obs-metrics.json", &metrics)] {
            let path = format!("{target}/{file}");
            match std::fs::write(&path, body) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
        }
        if !slowest.is_empty() {
            eprint!("{slowest}");
        }
    }
}
