//! Fault injection on the DVFS path.
//!
//! On real Android hardware a governor's decision becomes a write to
//! `scaling_setspeed`, and that write can fail or be ignored — the clock
//! framework rejects the OPP, a race loses the update, thermal throttling
//! vetoes it. This module wraps any [`Governor`] so that each requested
//! frequency change is rejected with a configured probability, leaving the
//! previous frequency in force until the next decision point.

use interlag_device::dvfs::{Governor, LoadSample};
use interlag_evdev::rng::SplitMix64;
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_power::opp::{Frequency, OppTable};

use crate::config::{DvfsFaults, WedgeFaults};

/// A [`Governor`] decorator whose frequency writes can be rejected.
///
/// The wrapped policy still runs — its internal state advances as if every
/// write landed, exactly like a userspace governor that never reads back
/// `scaling_cur_freq` — but the frequency the device actually gets keeps
/// its previous value whenever a write is rejected.
pub struct FaultyGovernor<'a> {
    inner: &'a mut dyn Governor,
    faults: DvfsFaults,
    rng: SplitMix64,
    current: Option<Frequency>,
    rejected: usize,
}

impl<'a> FaultyGovernor<'a> {
    /// Wraps `inner`, drawing rejection decisions from `rng`.
    pub fn new(inner: &'a mut dyn Governor, faults: DvfsFaults, rng: SplitMix64) -> Self {
        FaultyGovernor { inner, faults, rng, current: None, rejected: 0 }
    }

    /// How many frequency changes were rejected so far.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    fn apply(&mut self, want: Frequency) -> Frequency {
        if self.faults.reject_rate > 0.0 && self.rng.chance(self.faults.reject_rate) {
            if let Some(cur) = self.current {
                if cur != want {
                    self.rejected += 1;
                }
                return cur;
            }
        }
        self.current = Some(want);
        want
    }
}

impl Governor for FaultyGovernor<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, table: &OppTable) -> Frequency {
        // The initial pinning always lands; only changes can be rejected.
        let f = self.inner.init(table);
        self.current = Some(f);
        f
    }

    fn sample_period(&self) -> SimDuration {
        self.inner.sample_period()
    }

    fn on_sample(&mut self, now: SimTime, load: LoadSample, table: &OppTable) -> Frequency {
        let want = self.inner.on_sample(now, load, table);
        self.apply(want)
    }

    fn on_input(&mut self, now: SimTime, table: &OppTable) -> Option<Frequency> {
        self.inner.on_input(now, table).map(|want| self.apply(want))
    }

    /// Forwarded only while no write can be rejected: otherwise every
    /// sample draws from the fault stream, so none may be skipped.
    fn next_decision(&self, next_sample: SimTime) -> Option<SimTime> {
        if self.faults.reject_rate > 0.0 {
            Some(next_sample)
        } else {
            self.inner.next_decision(next_sample)
        }
    }
}

/// A [`Governor`] decorator that can *wedge*: with the configured
/// probability (drawn once at construction) every governor sample stalls
/// the host thread for `stall_ms` of wall-clock time, the way a
/// livelocked kernel cpufreq path stalls a real sweep.
///
/// A wedged run makes no forward progress in wall time even though the
/// simulated results would be unchanged — which is exactly the failure the
/// rep watchdog exists to cancel. An unwedged instance (including any
/// instance with `hang_rate == 0`) is a strict pass-through.
pub struct WedgedGovernor<'a> {
    inner: &'a mut dyn Governor,
    stall: std::time::Duration,
    wedged: bool,
}

impl<'a> WedgedGovernor<'a> {
    /// Wraps `inner`, drawing the wedge decision from `rng` now so the
    /// outcome is a pure function of the fault stream.
    pub fn new(inner: &'a mut dyn Governor, faults: WedgeFaults, rng: &mut SplitMix64) -> Self {
        let wedged = faults.hang_rate > 0.0 && rng.chance(faults.hang_rate);
        WedgedGovernor { inner, stall: std::time::Duration::from_millis(faults.stall_ms), wedged }
    }

    /// Whether this attempt drew the wedge.
    pub fn wedged(&self) -> bool {
        self.wedged
    }
}

impl Governor for WedgedGovernor<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, table: &OppTable) -> Frequency {
        self.inner.init(table)
    }

    fn sample_period(&self) -> SimDuration {
        self.inner.sample_period()
    }

    fn on_sample(&mut self, now: SimTime, load: LoadSample, table: &OppTable) -> Frequency {
        if self.wedged && !self.stall.is_zero() {
            std::thread::sleep(self.stall);
        }
        self.inner.on_sample(now, load, table)
    }

    fn on_input(&mut self, now: SimTime, table: &OppTable) -> Option<Frequency> {
        self.inner.on_input(now, table)
    }

    /// Forwarded only while unwedged: a wedged run stalls on every sample.
    fn next_decision(&self, next_sample: SimTime) -> Option<SimTime> {
        if self.wedged {
            Some(next_sample)
        } else {
            self.inner.next_decision(next_sample)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interlag_device::dvfs::FixedGovernor;

    /// A governor that wants a different OPP on every sample.
    struct Sweeper {
        idx: usize,
    }

    impl Governor for Sweeper {
        fn name(&self) -> &str {
            "sweeper"
        }
        fn init(&mut self, table: &OppTable) -> Frequency {
            self.idx = 0;
            table.min_freq()
        }
        fn sample_period(&self) -> SimDuration {
            SimDuration::from_millis(20)
        }
        fn on_sample(&mut self, _now: SimTime, _load: LoadSample, table: &OppTable) -> Frequency {
            self.idx = (self.idx + 1) % table.len();
            table.frequencies().nth(self.idx).expect("index in range")
        }
    }

    fn sample() -> LoadSample {
        LoadSample { busy: SimDuration::from_millis(10), window: SimDuration::from_millis(20) }
    }

    #[test]
    fn zero_rate_is_transparent() {
        let table = OppTable::snapdragon_8074();
        let mut plain = Sweeper { idx: 0 };
        let mut inner = Sweeper { idx: 0 };
        let mut g =
            FaultyGovernor::new(&mut inner, DvfsFaults { reject_rate: 0.0 }, SplitMix64::new(1));
        assert_eq!(g.init(&table), plain.init(&table));
        for i in 0..30u64 {
            let now = SimTime::from_millis(i * 20);
            assert_eq!(g.on_sample(now, sample(), &table), plain.on_sample(now, sample(), &table));
        }
        assert_eq!(g.rejected(), 0);
    }

    #[test]
    fn rejected_writes_keep_the_previous_frequency() {
        let table = OppTable::snapdragon_8074();
        let mut inner = Sweeper { idx: 0 };
        let mut g =
            FaultyGovernor::new(&mut inner, DvfsFaults { reject_rate: 1.0 }, SplitMix64::new(2));
        let init = g.init(&table);
        // Every change is rejected, so the device never leaves `init`.
        for i in 0..10u64 {
            assert_eq!(g.on_sample(SimTime::from_millis(i * 20), sample(), &table), init);
        }
        assert_eq!(g.rejected(), 10);
    }

    #[test]
    fn unwedged_governor_is_transparent() {
        let table = OppTable::snapdragon_8074();
        let mut plain = Sweeper { idx: 0 };
        let mut inner = Sweeper { idx: 0 };
        let mut rng = SplitMix64::new(3);
        let mut g = WedgedGovernor::new(&mut inner, WedgeFaults::none(), &mut rng);
        assert!(!g.wedged());
        assert_eq!(g.init(&table), plain.init(&table));
        for i in 0..10u64 {
            let now = SimTime::from_millis(i * 20);
            assert_eq!(g.on_sample(now, sample(), &table), plain.on_sample(now, sample(), &table));
        }
    }

    #[test]
    fn certain_wedge_stalls_wall_clock_without_changing_decisions() {
        let table = OppTable::snapdragon_8074();
        let mut plain = Sweeper { idx: 0 };
        let mut inner = Sweeper { idx: 0 };
        let mut rng = SplitMix64::new(4);
        let faults = WedgeFaults { hang_rate: 1.0, stall_ms: 5 };
        let mut g = WedgedGovernor::new(&mut inner, faults, &mut rng);
        assert!(g.wedged());
        g.init(&table);
        plain.init(&table);
        let t0 = std::time::Instant::now();
        for i in 0..4u64 {
            let now = SimTime::from_millis(i * 20);
            assert_eq!(g.on_sample(now, sample(), &table), plain.on_sample(now, sample(), &table));
        }
        assert!(t0.elapsed() >= std::time::Duration::from_millis(20), "4 samples × 5 ms stall");
    }

    #[test]
    fn faulty_governor_forwards_decisions_only_while_nothing_is_rejected() {
        let next = SimTime::from_millis(100);
        let mut pinned = FixedGovernor::new(Frequency::from_mhz(960));
        let g =
            FaultyGovernor::new(&mut pinned, DvfsFaults { reject_rate: 0.0 }, SplitMix64::new(7));
        assert_eq!(g.next_decision(next), None);
        let mut pinned = FixedGovernor::new(Frequency::from_mhz(960));
        let g =
            FaultyGovernor::new(&mut pinned, DvfsFaults { reject_rate: 0.1 }, SplitMix64::new(7));
        assert_eq!(g.next_decision(next), Some(next));
    }

    #[test]
    fn wedged_governor_forwards_decisions_only_while_unwedged() {
        let next = SimTime::from_millis(100);
        let mut pinned = FixedGovernor::new(Frequency::from_mhz(960));
        let g = WedgedGovernor::new(&mut pinned, WedgeFaults::none(), &mut SplitMix64::new(8));
        assert_eq!(g.next_decision(next), None);
        let mut pinned = FixedGovernor::new(Frequency::from_mhz(960));
        let faults = WedgeFaults { hang_rate: 1.0, stall_ms: 5 };
        let g = WedgedGovernor::new(&mut pinned, faults, &mut SplitMix64::new(8));
        assert!(g.wedged());
        assert_eq!(g.next_decision(next), Some(next), "a wedged run stalls on every sample");
    }

    #[test]
    fn partial_rejection_is_deterministic_per_seed() {
        let table = OppTable::snapdragon_8074();
        let run = |seed: u64| {
            let mut inner = Sweeper { idx: 0 };
            let mut g = FaultyGovernor::new(
                &mut inner,
                DvfsFaults { reject_rate: 0.4 },
                SplitMix64::new(seed),
            );
            g.init(&table);
            (0..50u64)
                .map(|i| g.on_sample(SimTime::from_millis(i * 20), sample(), &table))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
