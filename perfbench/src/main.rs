//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds N] [--trace 0|1] [--record]
//! ```
//!
//! One workload runs in this process for `--seconds` and prints its
//! metrics by name on stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics of an untraced run; `--trace 1` the
//! per-layer metrics, from untraced and traced runs. `--workload all`
//! runs every workload in a child process of its own, once per trace
//! mode, so no workload inherits another's heap or peak RSS. `--record`
//! prints the exact counts of one untraced iteration in the format of
//! `expected.txt`. RATIONALE.md says why each workload exists.

mod expected;
mod loopback;
mod report;
mod shares;
mod sim;

use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use expected::{Expected, DEFAULT_SEED, HELD_OUT_SEED};
use report::{Kind, Outcome};
use sim::SimWorkload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Sim(SimWorkload),
    Loopback,
}

const WORKLOADS: [Workload; 4] = [
    Workload::Sim(SimWorkload::SolarMixed),
    Workload::Sim(SimWorkload::LunaFaults),
    Workload::Sim(SimWorkload::FleetSharded),
    Workload::Loopback,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Sim(w) => w.name(),
            Workload::Loopback => "solar_loopback",
        }
    }
}

struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        record: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.workload = None,
            "--workload" => {
                args.workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let budget = Duration::from_secs(args.seconds);
    let expected = Expected::recorded();
    if args.record {
        let Workload::Sim(s) = w else {
            eprintln!(
                "{}: nothing to record; reads are verified in place",
                w.name()
            );
            return ExitCode::FAILURE;
        };
        print!(
            "{}",
            expected::lines(s.name(), args.seed, &sim::record(s, args.seed).fields())
        );
        return ExitCode::SUCCESS;
    }
    let out: Outcome = match w {
        Workload::Sim(s) => sim::run(s, args.seed, budget, args.trace, &expected),
        Workload::Loopback => loopback::run(args.seed, budget, args.trace),
    };
    let kind = if args.trace {
        Kind::Layer
    } else {
        Kind::EndToEnd
    };
    out.print_listing(w.name(), kind);
    println!("{}", out.json(kind));
    ExitCode::SUCCESS
}

/// Every workload in its own child process, untraced then traced; the
/// children's listings go to stderr, and a summary line per child to
/// stdout.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_correct = true;
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let child = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stderr(Stdio::inherit())
                .output();
            let line = match child {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .last()
                    .unwrap_or_default()
                    .to_string(),
                Ok(o) => format!("exited with {}", o.status),
                Err(e) => format!("did not start: {e}"),
            };
            let correct = line.starts_with("{\"correct\": true");
            all_correct &= correct;
            println!("{} trace={trace} correct={correct} {line}", w.name());
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seed_kind = match args.seed {
        DEFAULT_SEED => "default",
        HELD_OUT_SEED => "held-out",
        _ => "unrecorded",
    };
    eprintln!(
        "perfbench: {seed_kind} seed {} for {} s on {} hardware threads",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}
