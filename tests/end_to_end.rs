//! End-to-end integration tests through the public `luna_solar` facade:
//! guest I/O → SA → transport → fabric → storage cluster → completion,
//! across all five data-path variants.

use luna_solar::sa::{IoKind, IoRequest};
use luna_solar::sim::{SimDuration, SimTime};
use luna_solar::stack::{Breakdown, FioConfig, Testbed, TestbedConfig, Variant};

const ALL: [Variant; 5] = [
    Variant::Kernel,
    Variant::Luna,
    Variant::Rdma,
    Variant::SolarStar,
    Variant::Solar,
];

fn light_latency(variant: Variant, kind: IoKind, bytes: u32) -> f64 {
    let mut cfg = TestbedConfig::small(variant, 2, 3);
    cfg.seed = 99;
    let mut tb = Testbed::new(cfg);
    let mut t = SimTime::from_millis(1);
    for i in 0..60u64 {
        tb.schedule_io(
            t,
            (i % 2) as usize,
            IoRequest {
                vd_id: i % 2,
                kind,
                offset: (i % 50) * 65536,
                len: bytes,
            },
        );
        t += SimDuration::from_micros(400);
    }
    tb.run_until(t + SimDuration::from_secs(1));
    let b = Breakdown::collect(tb.traces(), kind, bytes);
    assert_eq!(b.total.count(), 60, "{variant:?}: every I/O completes");
    b.total.median() as f64 / 1000.0
}

#[test]
fn generational_latency_ordering_4k_write() {
    // The paper's headline: each generation is faster.
    let kernel = light_latency(Variant::Kernel, IoKind::Write, 4096);
    let luna = light_latency(Variant::Luna, IoKind::Write, 4096);
    let solar = light_latency(Variant::Solar, IoKind::Write, 4096);
    assert!(
        kernel > 1.5 * luna,
        "kernel {kernel}us should be >1.5x luna {luna}us (paper: kernel FN ~80% higher)"
    );
    assert!(
        luna > 1.2 * solar,
        "luna {luna}us should be well above solar {solar}us (paper: 20-69% cut)"
    );
}

#[test]
fn solar_latency_close_to_rdma() {
    // Fig. 15a: "SOLAR achieves a low I/O latency close to RDMA".
    let rdma = light_latency(Variant::Rdma, IoKind::Write, 4096);
    let solar = light_latency(Variant::Solar, IoKind::Write, 4096);
    let ratio = solar / rdma;
    assert!(
        (0.3..1.3).contains(&ratio),
        "solar {solar}us vs rdma {rdma}us (ratio {ratio})"
    );
}

#[test]
fn reads_slower_than_writes_everywhere() {
    // SSD write cache vs NAND reads (Fig. 6a vs 6c).
    for v in ALL {
        let w = light_latency(v, IoKind::Write, 4096);
        let r = light_latency(v, IoKind::Read, 4096);
        assert!(r > w, "{v:?}: read {r}us must exceed cached write {w}us");
    }
}

#[test]
fn all_variants_sustain_closed_loop_load() {
    for v in ALL {
        let mut tb = Testbed::new(TestbedConfig::small(v, 1, 3));
        tb.attach_fio(
            SimTime::from_millis(1),
            0,
            FioConfig {
                depth: 8,
                bytes: 16384,
                read_fraction: 0.5,
            },
        );
        tb.run_until(SimTime::from_millis(60));
        let (ios, _) = tb.compute_progress(0);
        assert!(ios > 100, "{v:?} completed only {ios} I/Os in 60ms");
        // No I/O stuck.
        assert_eq!(tb.hung_ios(SimDuration::from_millis(500)), 0, "{v:?}");
    }
}

#[test]
fn big_ios_split_across_block_servers() {
    let mut tb = Testbed::new(TestbedConfig::small(Variant::Solar, 1, 4));
    // 2 MiB-aligned 256 KiB I/O spanning a segment boundary.
    let seg_bytes = luna_solar::sa::SEGMENT_BLOCKS * 4096;
    tb.schedule_io(
        SimTime::from_millis(1),
        0,
        IoRequest {
            vd_id: 0,
            kind: IoKind::Write,
            offset: seg_bytes - 128 * 1024,
            len: 256 * 1024,
        },
    );
    tb.run_until(SimTime::from_secs(1));
    let tr = tb.traces()[0];
    assert!(tr.completed.is_some());
    // 64 blocks; the trace's latency covers the max over both sub-RPCs.
    assert!(tr.latency().unwrap() > SimDuration::from_micros(20));
}

#[test]
fn qos_throttles_but_never_breaks() {
    use luna_solar::sa::QosSpec;
    let mut cfg = TestbedConfig::small(Variant::Solar, 1, 3);
    cfg.qos = QosSpec {
        iops: 2000,
        bandwidth: luna_solar::sim::Bandwidth::from_mbps(800),
        burst_secs: 0.01,
    };
    let mut tb = Testbed::new(cfg);
    tb.attach_fio(
        SimTime::from_millis(1),
        0,
        FioConfig {
            depth: 16,
            bytes: 4096,
            read_fraction: 1.0,
        },
    );
    tb.run_until(SimTime::from_millis(500));
    let (ios, _) = tb.compute_progress(0);
    // Closed loop against a 2000 IOPS cap over ~0.5s: ~1000 I/Os.
    let rate = ios as f64 / 0.5;
    assert!(
        (1000.0..3000.0).contains(&rate),
        "QoS-capped rate {rate} IOPS vs 2000 spec"
    );
    // QoS delay shows in traces but not in latency (paper methodology).
    assert!(tb.traces().iter().any(|t| t.qos_delay > SimDuration::ZERO));
}

#[test]
fn deterministic_replay() {
    let run = || {
        let mut tb = Testbed::new(TestbedConfig::small(Variant::Solar, 2, 3));
        tb.attach_fio(
            SimTime::from_millis(1),
            0,
            FioConfig {
                depth: 4,
                bytes: 8192,
                read_fraction: 0.5,
            },
        );
        tb.run_until(SimTime::from_millis(30));
        tb.traces()
            .iter()
            .filter_map(|t| t.latency())
            .map(|l| l.as_nanos())
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed => identical event-for-event replay");
    assert!(!a.is_empty());
}

/// One fio + spine fail-stop run per variant, pinned to the exact
/// `metrics_digest` it produced when recorded. Any change to packet
/// emission order, wire sizes, timers, costs or journal output on any
/// transport shows up here as a digest mismatch.
#[test]
fn golden_digest_per_variant() {
    use luna_solar::net::{DeviceKind, FailureMode};
    const GOLDEN: [(Variant, &str); 5] = [
        (
            Variant::Kernel,
            "events=36363/36626 delivered=2768 drops=17/0/0/0/0 routes=16558/108 ios=453 bytes=7421952 chash=21cee051f4e97095 traces=453/461 lat_ns=123138908 thash=fd6d7e6c64a54b18 hung=0 journal=2726+0 jhash=254823aac64d36a9",
        ),
        (
            Variant::Luna,
            "events=47499/47938 delivered=3575 drops=15/0/0/0/0 routes=21384/108 ios=588 bytes=9633792 chash=588f889b758c794e traces=588/596 lat_ns=138638207 thash=d0aab0c9cc595d3f hung=0 journal=3536+0 jhash=410fdee0062c26d7",
        ),
        (
            Variant::Rdma,
            "events=339993/340142 delivered=27044 drops=190/0/0/0/0 routes=162797/100 ios=2243 bytes=36749312 chash=fecb04a974d18c42 traces=2243/2250 lat_ns=311304716 thash=7d377dd5f4a23695 hung=0 journal=13465+0 jhash=86cff158aaf2e240",
        ),
        (
            Variant::SolarStar,
            "events=298127/298155 delivered=22874 drops=88/0/0/0/0 routes=137426/136 ios=2846 bytes=46628864 chash=24de7925ad876812 traces=2846/2854 lat_ns=311413399 thash=344fb700db7ec2e8 hung=0 journal=19952+0 jhash=99025ca3e7d5f40f",
        ),
        (
            Variant::Solar,
            "events=322422/322454 delivered=24732 drops=85/0/0/0/0 routes=148584/136 ios=3076 bytes=50397184 chash=3ad79f0bf30f6cd8 traces=3076/3084 lat_ns=311369077 thash=49a0cfa4f616055f hung=0 journal=21564+0 jhash=1bfef85bc2ad8f91",
        ),
    ];
    let run = |variant: Variant| {
        let mut cfg = TestbedConfig::small(variant, 2, 3);
        if variant == Variant::Rdma {
            cfg.ecn.enabled = true;
            cfg.rdma.dcqcn = Some(Default::default());
        }
        let mut tb = Testbed::new(cfg);
        for compute in 0..2 {
            tb.attach_fio(
                SimTime::from_millis(1),
                compute,
                FioConfig {
                    depth: 4,
                    bytes: 16 * 1024,
                    read_fraction: 0.5,
                },
            );
        }
        let spine = tb.fabric().topology().devices_of_kind(DeviceKind::Spine)[0];
        tb.schedule_failure_with(
            SimTime::from_millis(10),
            spine,
            FailureMode::FailStop,
            SimDuration::from_millis(5),
        );
        let horizon = SimTime::from_millis(40);
        tb.run_until(horizon);
        tb.metrics_digest(horizon)
    };
    let got: Vec<(Variant, String)> = GOLDEN.iter().map(|&(v, _)| (v, run(v))).collect();
    for (&(v, want), (_, digest)) in GOLDEN.iter().zip(&got) {
        assert_eq!(digest, want, "{v:?} digest drifted; all: {got:#?}");
    }
}
