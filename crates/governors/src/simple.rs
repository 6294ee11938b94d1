//! The trivial kernel policies: Performance and Powersave.
//!
//! Not studied by the paper directly, but Performance is the baseline the
//! 47 %-savings headline compares against ("permanently running the CPU at
//! the highest frequency"), and Powersave bounds the other end.

use interlag_device::dvfs::{Governor, LoadSample};
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_power::opp::{Frequency, OppTable};

/// Pins the clock to the fastest operating point.
#[derive(Debug, Clone, Copy, Default)]
pub struct Performance;

impl Governor for Performance {
    fn name(&self) -> &str {
        "performance"
    }

    fn init(&mut self, table: &OppTable) -> Frequency {
        table.max_freq()
    }

    fn sample_period(&self) -> SimDuration {
        SimDuration::from_millis(100)
    }

    fn on_sample(&mut self, _now: SimTime, _load: LoadSample, table: &OppTable) -> Frequency {
        table.max_freq()
    }

    fn next_decision(&self, _next_sample: SimTime) -> Option<SimTime> {
        None
    }
}

/// Pins the clock to the slowest operating point.
#[derive(Debug, Clone, Copy, Default)]
pub struct Powersave;

impl Governor for Powersave {
    fn name(&self) -> &str {
        "powersave"
    }

    fn init(&mut self, table: &OppTable) -> Frequency {
        table.min_freq()
    }

    fn sample_period(&self) -> SimDuration {
        SimDuration::from_millis(100)
    }

    fn on_sample(&mut self, _now: SimTime, _load: LoadSample, table: &OppTable) -> Frequency {
        table.min_freq()
    }

    fn next_decision(&self, _next_sample: SimTime) -> Option<SimTime> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn performance_always_max() {
        let t = OppTable::snapdragon_8074();
        let mut g = Performance;
        assert_eq!(g.init(&t), t.max_freq());
        let idle = LoadSample { busy: SimDuration::ZERO, window: SimDuration::from_millis(20) };
        assert_eq!(g.on_sample(SimTime::ZERO, idle, &t), t.max_freq());
        assert_eq!(g.next_decision(SimTime::from_millis(100)), None);
        assert_eq!(g.name(), "performance");
    }

    #[test]
    fn powersave_always_min() {
        let t = OppTable::snapdragon_8074();
        let mut g = Powersave;
        assert_eq!(g.init(&t), t.min_freq());
        let w = SimDuration::from_millis(20);
        let full = LoadSample { busy: w, window: w };
        assert_eq!(g.on_sample(SimTime::ZERO, full, &t), t.min_freq());
        assert_eq!(g.next_decision(SimTime::from_millis(100)), None);
    }
}
