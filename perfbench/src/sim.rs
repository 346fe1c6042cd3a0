//! The three simulator workloads: `solar_mixed`, `luna_faults` and
//! `fleet_sharded`.
//!
//! A run repeats one *iteration* until its time budget is spent. An
//! iteration builds the world from the seed (timed as set-up), advances
//! it to a fixed simulated horizon in fixed simulated slices (each slice
//! timed), then checks the outcome: the
//! digest and exact counts must equal the first iteration's and, for a
//! recorded seed, the recorded ones, and the conservation checks must
//! hold. Each iteration is one attempted operation.
//!
//! Every iteration replays the same work slice by slice, so the run time
//! a run reports is the sum over slices of each slice's fastest time
//! across the run's iterations, and the set-up time its fastest build:
//! on a shared host the fastest repeat of identical work is the one the
//! other tenants slowed least.
//!
//! With tracing on, untraced and traced iterations alternate. A traced
//! iteration turns on the testbed's phase profile; its outcome must be
//! identical to the untraced one. The fleet's untraced iterations run its
//! serial executor; with tracing on, a third kind runs the same plan on
//! [`FLEET_THREADS`] workers, for the thread-scaling metrics, and must
//! match the serial outcome byte for byte.

use std::time::{Duration, Instant};

use ebs_net::{DeviceKind, FailureMode};
use ebs_sa::IoKind;
use ebs_sim::{SimDuration, SimTime};
use ebs_stack::blk::{BlkReq, Predicate, PushdownPlacement, StorageFn};
use ebs_stack::{
    BlkMountConfig, FioConfig, PhaseCycles, ReplicationConfig, ShardedTestbed,
    ShardedTestbedConfig, Testbed, TestbedConfig, Variant,
};

use crate::expected::Expected;
use crate::report::{fnv64, median, quantile, sum_of_fastest, tail, Outcome};
use crate::shares;

/// One of the simulator workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    SolarMixed,
    LunaFaults,
    FleetSharded,
}

/// fio I/O size on the flat testbeds (Table 2's traffic).
const FIO_BYTES: u32 = 16 * 1024;
/// Probe I/O size and read share on the fleet.
const PROBE_BYTES: u32 = 4096;
const PROBE_READS: f64 = 0.7;
/// Fleet size: 4 compute and 2 storage servers per shard. A fleet of
/// 256 + 128 servers took 1.7 times the host time per I/O of one of
/// 128 + 64, bound by cache misses, so its speed followed the other
/// tenants' load on a shared 2-vCPU host: across interleaved runs its
/// `ios_per_s` ranged over 11% of its median, against 4% for this one,
/// which keeps every shard, window and mailbox.
const FLEET_COMPUTE: usize = 64;
const FLEET_STORAGE: usize = 32;
const FLEET_SHARDS: u32 = 16;
/// Blocks per blk pushdown scan.
const SCAN_BLOCKS: u32 = 64;
/// Fleet worker threads in the thread-scaling iterations. The timed,
/// gated iterations run serially: on a 2-vCPU shared host a barrier waits
/// for the slower vCPU, and 2-worker run times spread by up to 85% between
/// runs while serial ones stayed within the bound.
const FLEET_THREADS: usize = 2;
/// World constructions timed per iteration. Set-up takes 10 µs to 1 ms,
/// so `setup_s` is the fastest of many.
const SETUPS: usize = 15;

impl SimWorkload {
    pub fn name(self) -> &'static str {
        match self {
            SimWorkload::SolarMixed => "solar_mixed",
            SimWorkload::LunaFaults => "luna_faults",
            SimWorkload::FleetSharded => "fleet_sharded",
        }
    }

    /// Simulated time one iteration covers.
    fn horizon(self) -> SimTime {
        match self {
            SimWorkload::SolarMixed => SimTime::from_millis(400),
            SimWorkload::LunaFaults => SimTime::from_millis(3_000),
            SimWorkload::FleetSharded => SimTime::from_millis(200),
        }
    }

    /// Share of fio (or probe) I/Os that are reads.
    fn read_fraction(self) -> f64 {
        match self {
            SimWorkload::SolarMixed => 0.2,
            SimWorkload::LunaFaults => 0.8,
            SimWorkload::FleetSharded => PROBE_READS,
        }
    }
}

/// A built world.
enum World {
    Flat(Box<Testbed>),
    Fleet(Box<ShardedTestbed>),
}

fn flat_fio(variant: Variant, seed: u64, read_fraction: f64) -> Testbed {
    let mut cfg = TestbedConfig::small(variant, 4, 3);
    cfg.seed = seed;
    let mut tb = Testbed::new(cfg);
    for c in 0..4 {
        tb.attach_fio(
            SimTime::from_millis(1),
            c,
            FioConfig {
                depth: 2,
                bytes: FIO_BYTES,
                read_fraction,
            },
        );
    }
    tb
}

/// `solar_mixed`'s blk stream: compute 0 pushes its scans down to the
/// storage nodes, compute 1 scans at the client; each issues one
/// 64-block scan per simulated millisecond, strided across segments.
fn schedule_scans(tb: &mut Testbed, seed: u64, horizon: SimTime) {
    for (compute, placement) in [
        (0, PushdownPlacement::StorageNode),
        (1, PushdownPlacement::Client),
    ] {
        tb.blk_mount(compute, BlkMountConfig::with_placement(placement))
            .expect("the default feature set always negotiates");
    }
    let scan = StorageFn::scan(Predicate {
        offset: 0,
        mask: 0x0F,
        value: 0x07,
    });
    let window = 8 * ebs_sa::SEGMENT_BLOCKS;
    let stride = ebs_sa::SEGMENT_BLOCKS / 2 + u64::from(SCAN_BLOCKS);
    let n = horizon.as_nanos() / 1_000_000;
    for i in 1..n {
        let first = ((i + seed) * stride) % window;
        for compute in 0..2 {
            tb.schedule_blk(
                SimTime::from_millis(i),
                compute,
                (i % 2) as usize,
                BlkReq::pushdown(compute as u64, first, SCAN_BLOCKS, scan),
            );
        }
    }
}

/// `luna_faults`' schedule: 1% loss on a ToR, a spine fail-stop with
/// 50 ms convergence, then a 25% blackhole on the same spine; each healed
/// before the next starts, all in the first 700 ms. Which LUNA flows a
/// spine fault stalls, and for how long, depends on the seed; the healthy
/// remainder of the horizon keeps the work done per seed within a few
/// percent, and the blackhole is short for the same reason.
fn schedule_faults(tb: &mut Testbed) {
    let at = SimTime::from_millis;
    let topo = tb.fabric().topology();
    let tor = topo.devices_of_kind(DeviceKind::Tor)[0];
    let spine = topo.devices_of_kind(DeviceKind::Spine)[0];
    tb.schedule_failure(at(100), tor, FailureMode::RandomLoss { rate: 0.01 });
    tb.schedule_heal(at(300), tor);
    tb.schedule_failure_with(
        at(350),
        spine,
        FailureMode::FailStop,
        SimDuration::from_millis(50),
    );
    tb.schedule_heal(at(550), spine);
    tb.schedule_failure(
        at(650),
        spine,
        FailureMode::Blackhole {
            fraction: 0.25,
            salt: 9,
        },
    );
    tb.schedule_heal(at(700), spine);
}

fn fleet(seed: u64, threads: usize) -> ShardedTestbed {
    let mut cfg =
        ShardedTestbedConfig::new(Variant::Solar, FLEET_COMPUTE, FLEET_STORAGE, FLEET_SHARDS);
    cfg.base.seed = seed;
    cfg.base.vds_per_compute = 4;
    cfg.threads = threads;
    cfg.replication = Some(ReplicationConfig {
        start: SimTime::from_millis(1),
        interval: SimDuration::from_micros(200),
        blocks: 4,
    });
    let mut fleet = ShardedTestbed::new(cfg);
    for s in 0..fleet.shards() {
        let tb = fleet.shard_mut(s);
        for c in 0..tb.config().n_compute {
            tb.attach_probe(
                SimTime::from_millis(1),
                c,
                SimDuration::from_micros(500),
                PROBE_BYTES,
                PROBE_READS,
            );
        }
    }
    fleet
}

impl World {
    fn build(w: SimWorkload, seed: u64, mode: Mode) -> World {
        match w {
            SimWorkload::SolarMixed => {
                let mut tb = flat_fio(Variant::Solar, seed, w.read_fraction());
                schedule_scans(&mut tb, seed, w.horizon());
                World::Flat(Box::new(tb))
            }
            SimWorkload::LunaFaults => {
                let mut tb = flat_fio(Variant::Luna, seed, w.read_fraction());
                schedule_faults(&mut tb);
                World::Flat(Box::new(tb))
            }
            SimWorkload::FleetSharded => {
                let threads = if mode == Mode::Parallel {
                    FLEET_THREADS
                } else {
                    1
                };
                World::Fleet(Box::new(fleet(seed, threads)))
            }
        }
    }

    fn testbeds(&self) -> Vec<&Testbed> {
        match self {
            World::Flat(tb) => vec![tb],
            World::Fleet(f) => (0..f.shards()).map(|i| f.shard(i)).collect(),
        }
    }

    fn for_each_testbed_mut(&mut self, mut f: impl FnMut(&mut Testbed)) {
        match self {
            World::Flat(tb) => f(tb),
            World::Fleet(fl) => {
                for i in 0..fl.shards() {
                    f(fl.shard_mut(i));
                }
            }
        }
    }

    /// Slice edges up to the horizon: 1 simulated ms on a flat testbed;
    /// on the fleet, the whole number of exchange windows that first
    /// reaches 500 µs, so slicing adds no window edges.
    fn slice_edges(&self, horizon: SimTime) -> Vec<SimTime> {
        let slice = match self {
            World::Flat(_) => SimDuration::from_millis(1).as_nanos(),
            World::Fleet(f) => {
                let w = f.window().as_nanos();
                w * 500_000u64.div_ceil(w)
            }
        };
        let end = horizon.as_nanos().div_ceil(slice) * slice;
        (1..=end / slice)
            .map(|k| SimTime::from_nanos(k * slice))
            .collect()
    }

    fn run_until(&mut self, t: SimTime) {
        match self {
            World::Flat(tb) => tb.run_until(t),
            World::Fleet(f) => f.run_until(t),
        }
    }

    fn digest(&self, asof: SimTime) -> String {
        match self {
            World::Flat(tb) => tb.metrics_digest(asof),
            World::Fleet(f) => f.metrics_digest(),
        }
    }

    fn counts(&mut self, asof: SimTime) -> Counts {
        self.for_each_testbed_mut(Testbed::sample_obs);
        let mut c = Counts {
            digest: fnv64(&self.digest(asof)),
            ..Counts::default()
        };
        for tb in self.testbeds() {
            let m = tb.metrics();
            let n_compute = tb.config().n_compute;
            c.events += tb.events_processed();
            c.ios += (0..n_compute)
                .map(|i| tb.compute_progress(i).0)
                .sum::<u64>();
            c.max_queued = c
                .max_queued
                .max(m.gauge("sim", "max_queued").unwrap_or(0.0) as u64);
            c.delivered += tb.fabric().delivered();
            c.route_cache_misses += tb.fabric().route_cache_stats().1;
            c.drops += tb.fabric().drops().total();
            c.tcp_segs += m.counter("tcp", "segs_sent");
            c.tcp_retransmits += m.counter("tcp", "retransmits");
            c.tcp_timeouts += m.counter("tcp", "timeouts");
            c.solar_pkts += m.counter("solar", "pkts_sent");
            c.solar_retransmits += m.counter("solar", "retransmits");
            c.solar_timeouts += m.counter("solar", "timeouts");
            c.dpu_jobs += (0..n_compute).map(|i| tb.cpu_stats(i).0).sum::<u64>();
            let blk = tb.blk_counters();
            c.blk_completed += blk.completed;
            c.blk_parts_sent += blk.parts_sent;
            c.blk_retransmits += blk.retransmits;
            c.blk_data_bytes += blk.data_bytes;
            c.obs_records += tb.journal().len() as u64 + tb.journal().dropped();
            c.repl_completed += tb.replication_stats().2;
            c.sa_admitted += (0..n_compute).map(|i| tb.qos_stats(i).0).sum::<u64>();
            c.storage_reads += m.counter("storage", "reads");
            c.storage_writes += m.counter("storage", "writes");
        }
        if let World::Fleet(f) = self {
            c.windows = f.windows();
            c.exchanged = f.exchanged();
        }
        c
    }

    /// The phase profile summed over every testbed.
    fn profile(&self) -> PhaseCycles {
        self.testbeds()
            .iter()
            .filter_map(|tb| tb.phase_cycles())
            .fold(PhaseCycles::default(), |a, p| shares::add(a, &p))
    }

    /// Conservation and mix checks on the finished world.
    fn check(&self, w: SimWorkload) -> Vec<String> {
        let mut bad = Vec::new();
        let (mut reads, mut driven) = (0u64, 0u64);
        for (i, tb) in self.testbeds().into_iter().enumerate() {
            let n_compute = tb.config().n_compute;
            let traces = tb.traces();
            let done = traces.iter().filter(|t| t.completed.is_some()).count();
            let ios: u64 = (0..n_compute).map(|c| tb.compute_progress(c).0).sum();
            let admitted: u64 = (0..n_compute).map(|c| tb.qos_stats(c).0).sum();
            if ios != done as u64 {
                bad.push(format!(
                    "testbed {i}: {ios} I/Os completed but {done} traces"
                ));
            }
            if tb.outstanding_ios() != traces.len() - done {
                bad.push(format!(
                    "testbed {i}: {} outstanding but {} unfinished traces",
                    tb.outstanding_ios(),
                    traces.len() - done
                ));
            }
            if admitted != traces.len() as u64 {
                bad.push(format!(
                    "testbed {i}: SA admitted {admitted} of {} submitted I/Os",
                    traces.len()
                ));
            }
            let blk = tb.blk_counters();
            if blk.rejected + blk.unsupported + blk.crc_failures > 0 || blk.completed > blk.accepted
            {
                bad.push(format!("testbed {i}: blk counters {blk:?}"));
            }
            bad.extend(tb.blk_ring_errors());
            let size = if w == SimWorkload::FleetSharded {
                PROBE_BYTES
            } else {
                FIO_BYTES
            };
            for t in traces.iter().filter(|t| t.bytes == size) {
                driven += 1;
                reads += u64::from(t.kind == IoKind::Read);
            }
        }
        let share = reads as f64 / driven.max(1) as f64;
        if (share - w.read_fraction()).abs() > 0.05 {
            bad.push(format!(
                "read share {share:.3}, configured {}",
                w.read_fraction()
            ));
        }
        if let World::Fleet(f) = self {
            let sent: u64 = f.shard_stats().iter().map(|s| s.sent).sum();
            let received: u64 = f.shard_stats().iter().map(|s| s.received).sum();
            if sent != received || received != f.exchanged() {
                bad.push(format!(
                    "mailboxes: sent {sent}, received {received}, exchanged {}",
                    f.exchanged()
                ));
            }
            let (issued, served, completed, _) = f.replication_totals();
            if completed > served || served > issued {
                bad.push(format!(
                    "replication: issued {issued}, served {served}, completed {completed}"
                ));
            }
        }
        bad
    }
}

/// Exact work counts of one iteration. They repeat exactly for a seed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub digest: u64,
    pub events: u64,
    pub ios: u64,
    pub max_queued: u64,
    pub delivered: u64,
    pub route_cache_misses: u64,
    pub drops: u64,
    pub tcp_segs: u64,
    pub tcp_retransmits: u64,
    pub tcp_timeouts: u64,
    pub solar_pkts: u64,
    pub solar_retransmits: u64,
    pub solar_timeouts: u64,
    pub dpu_jobs: u64,
    pub blk_completed: u64,
    pub blk_parts_sent: u64,
    pub blk_retransmits: u64,
    pub blk_data_bytes: u64,
    pub obs_records: u64,
    pub windows: u64,
    pub exchanged: u64,
    pub repl_completed: u64,
    pub sa_admitted: u64,
    pub storage_reads: u64,
    pub storage_writes: u64,
}

impl Counts {
    /// Every count by name, in recording order.
    pub fn fields(&self) -> [(&'static str, u64); 25] {
        [
            ("digest", self.digest),
            ("events", self.events),
            ("ios", self.ios),
            ("max_queued", self.max_queued),
            ("delivered", self.delivered),
            ("route_cache_misses", self.route_cache_misses),
            ("drops", self.drops),
            ("tcp_segs", self.tcp_segs),
            ("tcp_retransmits", self.tcp_retransmits),
            ("tcp_timeouts", self.tcp_timeouts),
            ("solar_pkts", self.solar_pkts),
            ("solar_retransmits", self.solar_retransmits),
            ("solar_timeouts", self.solar_timeouts),
            ("dpu_jobs", self.dpu_jobs),
            ("blk_completed", self.blk_completed),
            ("blk_parts_sent", self.blk_parts_sent),
            ("blk_retransmits", self.blk_retransmits),
            ("blk_data_bytes", self.blk_data_bytes),
            ("obs_records", self.obs_records),
            ("windows", self.windows),
            ("exchanged", self.exchanged),
            ("repl_completed", self.repl_completed),
            ("sa_admitted", self.sa_admitted),
            ("storage_reads", self.storage_reads),
            ("storage_writes", self.storage_writes),
        ]
    }

    /// Names of the counts that differ from `other`.
    fn diff(&self, other: &Counts) -> Vec<&'static str> {
        self.fields()
            .iter()
            .zip(other.fields())
            .filter(|(a, b)| a.1 != b.1)
            .map(|(a, _)| a.0)
            .collect()
    }
}

/// The fleet's wall-clock execution shares over one iteration, from
/// `WorkerStats` and `ShardStats`.
#[derive(Debug, Clone, Copy)]
struct FleetExec {
    /// Worker time spent at window barriers.
    stall_frac: f64,
    /// Worker busy time ÷ (workers × run time).
    parallel_eff: f64,
    /// Busiest shard ÷ mean shard busy time.
    busy_skew: f64,
}

/// One finished iteration.
struct Iteration {
    mode: Mode,
    /// Set-up times, seconds.
    setups: Vec<f64>,
    run: Duration,
    /// Wall time of each simulated slice, µs.
    steps: Vec<f64>,
    counts: Counts,
    problems: Vec<String>,
    profile: Option<PhaseCycles>,
    fleet: Option<FleetExec>,
}

/// How an iteration runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Untraced, and serial on the fleet: the end-to-end measurement.
    Plain,
    /// With the testbed's phase profile on.
    Traced,
    /// Untraced, the fleet on `FLEET_THREADS` workers.
    Parallel,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Plain => "",
            Mode::Traced => " (traced)",
            Mode::Parallel => " (parallel)",
        }
    }
}

fn iterate(w: SimWorkload, seed: u64, mode: Mode) -> Iteration {
    let horizon = w.horizon();
    // Set-up is short, so it is timed several times: the world built
    // last is the one that runs.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut build = || {
        let t0 = Instant::now();
        let mut world = World::build(w, seed, mode);
        if mode == Mode::Traced {
            world.for_each_testbed_mut(Testbed::enable_profiling);
        }
        setups.push(t0.elapsed().as_secs_f64());
        world
    };
    for _ in 1..SETUPS {
        drop(build());
    }
    let mut world = build();

    let edges = world.slice_edges(horizon);
    let mut steps = Vec::with_capacity(edges.len());
    let (mut busy_ns, mut stall_ns) = (0u64, 0u64);
    let run_start = Instant::now();
    for &edge in &edges {
        let s0 = Instant::now();
        world.run_until(edge);
        steps.push(s0.elapsed().as_secs_f64() * 1e6);
        if let World::Fleet(f) = &world {
            // Worker statistics cover one `run_until` call each.
            for ws in f.worker_stats() {
                busy_ns += ws.busy_ns;
                stall_ns += ws.stall_ns;
            }
        }
    }
    let run = run_start.elapsed();

    let asof = *edges.last().expect("a positive horizon has slices");
    let counts = world.counts(asof);
    let problems = world.check(w);
    let profile = (mode == Mode::Traced).then(|| world.profile());
    let fleet = match &world {
        World::Fleet(f) if mode == Mode::Parallel => {
            let shard_busy: Vec<u64> = f.shard_stats().iter().map(|s| s.busy_ns).collect();
            let max = shard_busy.iter().copied().max().unwrap_or(0) as f64;
            let mean = shard_busy.iter().sum::<u64>() as f64 / shard_busy.len().max(1) as f64;
            let workers = f.worker_stats().len().max(1) as f64;
            Some(FleetExec {
                stall_frac: stall_ns as f64 / (busy_ns + stall_ns).max(1) as f64,
                parallel_eff: busy_ns as f64 / (workers * run.as_nanos().max(1) as f64),
                busy_skew: max / mean.max(1.0),
            })
        }
        _ => None,
    };
    Iteration {
        mode,
        setups,
        run,
        steps,
        counts,
        problems,
        profile,
        fleet,
    }
}

/// The exact counts of one untraced iteration (for recording).
pub fn record(w: SimWorkload, seed: u64) -> Counts {
    iterate(w, seed, Mode::Plain).counts
}

/// Run `w` for `budget`; with `trace`, traced (and on the fleet,
/// parallel) iterations take turns with the untraced ones.
pub fn run(
    w: SimWorkload,
    seed: u64,
    budget: Duration,
    trace: bool,
    expected: &Expected,
) -> Outcome {
    let modes: &[Mode] = match (trace, w) {
        (false, _) => &[Mode::Plain],
        (true, SimWorkload::FleetSharded) => &[Mode::Plain, Mode::Traced, Mode::Parallel],
        (true, _) => &[Mode::Plain, Mode::Traced],
    };
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut done: Vec<Iteration> = Vec::new();
    let mut reference: Option<Counts> = None;
    loop {
        let mode = modes[done.len() % modes.len()];
        let t0 = Instant::now();
        let it = iterate(w, seed, mode);
        let last = t0.elapsed();
        eprintln!(
            "  iteration {}{}: set-up {:.6} s, run {:.3} s",
            out.attempted + 1,
            mode.label(),
            it.setups.iter().copied().fold(f64::INFINITY, f64::min),
            it.run.as_secs_f64()
        );
        out.attempted += 1;
        out.record_peak_rss();
        let mut why = it.problems.clone();
        match &reference {
            None => {
                why.extend(expected.check(w.name(), seed, &it.counts.fields()));
                reference = Some(it.counts);
            }
            Some(r) => {
                let diff = it.counts.diff(r);
                if !diff.is_empty() {
                    why.push(format!("replay differs in {}", diff.join(", ")));
                }
            }
        }
        if !why.is_empty() {
            out.fail(format!("iteration {}: {}", out.attempted, why.join("; ")));
        }
        done.push(it);
        // Stop before an iteration would overrun the budget, once every
        // mode has run.
        if done.len() >= modes.len() && start.elapsed() + last >= budget {
            break;
        }
    }
    let of = |mode: Mode| done.iter().filter(move |i| i.mode == mode);
    // The run time of a mode's iterations, as the module docs define it.
    let fastest_run = |mode: Mode| {
        sum_of_fastest(&of(mode).map(|i| i.steps.as_slice()).collect::<Vec<_>>()) / 1e6
    };
    let plain: Vec<&Iteration> = of(Mode::Plain).collect();

    let c = plain[0].counts;
    let run_s = fastest_run(Mode::Plain);
    let steps: Vec<f64> = plain.iter().flat_map(|i| i.steps.iter().copied()).collect();
    out.set("ios_per_s", c.ios as f64 / run_s);
    out.set("step_p50_us", quantile(&steps, 0.50));
    out.set("step_p99_us", tail(&steps));
    // The fastest build, for the same reason as the fastest slices.
    out.set(
        "setup_s",
        plain
            .iter()
            .flat_map(|i| i.setups.iter().copied())
            .fold(f64::INFINITY, f64::min),
    );
    out.set("bench.step_samples", steps.len() as f64);

    let per_io = |n: u64| n as f64 / c.ios.max(1) as f64;
    out.set("sim.events_per_io", per_io(c.events));
    out.set("sim.max_queued", c.max_queued as f64);
    out.set("net.pkts_per_io", per_io(c.delivered));
    out.set("net.route_cache_misses", c.route_cache_misses as f64);
    out.set("net.drops", c.drops as f64);
    out.set("tcp.segs_per_io", per_io(c.tcp_segs));
    out.set("tcp.retransmits", c.tcp_retransmits as f64);
    out.set("tcp.timeouts", c.tcp_timeouts as f64);
    out.set("solar.pkts_per_io", per_io(c.solar_pkts));
    out.set("solar.retransmits", c.solar_retransmits as f64);
    out.set("solar.timeouts", c.solar_timeouts as f64);
    out.set("dpu.cpu_jobs_per_io", per_io(c.dpu_jobs));
    out.set("blk.completed", c.blk_completed as f64);
    out.set("blk.parts_sent", c.blk_parts_sent as f64);
    out.set("blk.retransmits", c.blk_retransmits as f64);
    out.set("blk.data_mib", c.blk_data_bytes as f64 / (1024.0 * 1024.0));
    out.set(
        "obs.records_per_event",
        c.obs_records as f64 / c.events.max(1) as f64,
    );
    out.set("stack.windows", c.windows as f64);
    out.set("stack.exchanged", c.exchanged as f64);
    out.set("stack.repl_completed", c.repl_completed as f64);
    out.set("sa.admitted_ios", c.sa_admitted as f64);
    out.set("storage.reads", c.storage_reads as f64);
    out.set("storage.writes", c.storage_writes as f64);
    out.set("sim.ns_per_event", run_s * 1e9 / c.events.max(1) as f64);

    let fleet: Vec<FleetExec> = of(Mode::Parallel).filter_map(|i| i.fleet).collect();
    if !fleet.is_empty() {
        let med = |f: fn(&FleetExec) -> f64| median(&fleet.iter().map(f).collect::<Vec<_>>());
        out.set("stack.barrier_stall_frac", med(|e| e.stall_frac));
        out.set("stack.parallel_eff", med(|e| e.parallel_eff));
        out.set("stack.shard_busy_skew", med(|e| e.busy_skew));
        out.set("stack.thread_speedup", run_s / fastest_run(Mode::Parallel));
    }

    if trace {
        let profile = of(Mode::Traced)
            .filter_map(|i| i.profile)
            .fold(PhaseCycles::default(), |a, p| shares::add(a, &p));
        let s = shares::exclusive(&profile);
        out.set("sim.pop_frac", s.pop);
        out.set("net.fabric_frac", s.fabric);
        out.set("stack.deliver_frac", s.deliver);
        out.set("stack.host_frac", s.host);
        out.set("stack.pump_frac", s.pump);
        if (s.partition_sum() - 1.0).abs() > 1e-9 {
            out.problems
                .push(format!("exclusive shares sum to {}", s.partition_sum()));
        }
        out.set(
            "bench.trace_overhead_frac",
            fastest_run(Mode::Traced) / run_s - 1.0,
        );
    }
    out
}
