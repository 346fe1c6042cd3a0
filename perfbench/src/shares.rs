//! Exclusive layer shares from the testbed's nested phase profile.
//!
//! [`PhaseCycles`] buckets overlap: `net_ns` (every fabric event) contains
//! `deliver_ns` (the endpoint delivery a fabric event ends in), and
//! `pump_ns` (transport pumping) runs inside both delivery and host
//! events. Summing the buckets counts delivery twice and pumping three
//! times. The exclusive split is pop, fabric = net − deliver, delivery
//! and host: these four partition the profiled time. Pumping is reported
//! beside them as a share of the same total, never added to it.

use ebs_stack::PhaseCycles;

/// Exclusive shares of profiled simulator time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shares {
    pub pop: f64,
    pub fabric: f64,
    pub deliver: f64,
    pub host: f64,
    /// Nested inside delivery and host; not part of the partition.
    pub pump: f64,
}

impl Shares {
    /// The sum of the four exclusive shares (1 for any non-empty profile).
    pub fn partition_sum(&self) -> f64 {
        self.pop + self.fabric + self.deliver + self.host
    }
}

/// Sum two profiles bucket by bucket (shards, repeated runs).
pub fn add(a: PhaseCycles, b: &PhaseCycles) -> PhaseCycles {
    PhaseCycles {
        pop_ns: a.pop_ns + b.pop_ns,
        net_ns: a.net_ns + b.net_ns,
        deliver_ns: a.deliver_ns + b.deliver_ns,
        pump_ns: a.pump_ns + b.pump_ns,
        host_ns: a.host_ns + b.host_ns,
        events: a.events + b.events,
    }
}

/// The exclusive split of `p`; all zeros for an empty profile.
pub fn exclusive(p: &PhaseCycles) -> Shares {
    // Delivery runs only inside fabric events, so it never exceeds them;
    // saturate rather than go negative on a clock glitch.
    let deliver = p.deliver_ns.min(p.net_ns);
    let fabric = p.net_ns - deliver;
    let total = p.pop_ns + fabric + deliver + p.host_ns;
    if total == 0 {
        return Shares {
            pop: 0.0,
            fabric: 0.0,
            deliver: 0.0,
            host: 0.0,
            pump: 0.0,
        };
    }
    let share = |ns: u64| ns as f64 / total as f64;
    Shares {
        pop: share(p.pop_ns),
        fabric: share(fabric),
        deliver: share(deliver),
        host: share(p.host_ns),
        pump: share(p.pump_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shaped like the `solar_mixed` profile at the time the benchmark was
    /// written: pop 33%, fabric 32%, delivery 23%, host 12% exclusive,
    /// with pumping nested in delivery and host.
    fn solar_like() -> PhaseCycles {
        PhaseCycles {
            pop_ns: 330,
            net_ns: 550,
            deliver_ns: 230,
            pump_ns: 140,
            host_ns: 120,
            events: 10,
        }
    }

    #[test]
    fn four_shares_partition_the_profile() {
        for p in [
            solar_like(),
            PhaseCycles {
                pop_ns: 1,
                net_ns: 0,
                deliver_ns: 0,
                pump_ns: 0,
                host_ns: 0,
                events: 1,
            },
            PhaseCycles {
                pop_ns: 7_919,
                net_ns: 104_729,
                deliver_ns: 104_729,
                pump_ns: 99_991,
                host_ns: 3,
                events: 5,
            },
        ] {
            let s = exclusive(&p);
            assert!((s.partition_sum() - 1.0).abs() < 1e-12, "{s:?}");
        }
    }

    #[test]
    fn pump_stays_out_of_the_sum() {
        let p = solar_like();
        let s = exclusive(&p);
        // The denominator is pop + net + host: delivery is counted once
        // (inside net) and pumping not at all.
        let total = (p.pop_ns + p.net_ns + p.host_ns) as f64;
        assert_eq!(s.pump, p.pump_ns as f64 / total);
        assert_eq!(s.fabric, (p.net_ns - p.deliver_ns) as f64 / total);
        assert!((s.fabric - 0.32).abs() < 1e-12);
        // More pumping moves no exclusive share.
        let more_pump = PhaseCycles {
            pump_ns: p.pump_ns * 3,
            ..p
        };
        let t = exclusive(&more_pump);
        assert_eq!(t.partition_sum(), s.partition_sum());
        assert_eq!(
            (t.pop, t.fabric, t.deliver, t.host),
            (s.pop, s.fabric, s.deliver, s.host)
        );
    }

    #[test]
    fn naive_bucket_sum_double_counts() {
        // Shares over the sum of all five buckets (the old profile
        // output) understate every layer and do not partition the time;
        // fabric read as net over that sum is the double-counted figure.
        let p = solar_like();
        let naive_total = (p.pop_ns + p.net_ns + p.deliver_ns + p.pump_ns + p.host_ns) as f64;
        let naive_net = p.net_ns as f64 / naive_total;
        let s = exclusive(&p);
        assert!(naive_net > s.fabric);
        assert!(naive_total > (p.pop_ns + p.net_ns + p.host_ns) as f64);
    }

    #[test]
    fn empty_profile_has_no_shares() {
        let s = exclusive(&PhaseCycles::default());
        assert_eq!(s.partition_sum(), 0.0);
        assert_eq!(s.pump, 0.0);
    }

    #[test]
    fn add_sums_every_bucket() {
        let p = solar_like();
        let q = add(p, &p);
        assert_eq!(q.pop_ns, 660);
        assert_eq!(q.deliver_ns, 460);
        assert_eq!(q.events, 20);
        assert_eq!(exclusive(&q), exclusive(&p));
    }
}
