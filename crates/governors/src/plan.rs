//! Frequency plans and the trace-following governor.
//!
//! The paper's oracle is not an online policy: it is a frequency *trace*
//! composed offline from the fixed-frequency runs (§III-B), then evaluated
//! as if a governor had produced it. [`FrequencyPlan`] is that trace — a
//! step function from time to frequency — and [`PlanGovernor`] replays it
//! through the standard governor interface so the oracle runs through
//! exactly the same machinery as ondemand and friends.

use serde::{Deserialize, Serialize};

use interlag_device::dvfs::{Governor, LoadSample};
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_power::opp::{Frequency, OppTable};

/// A step function from time to frequency.
///
/// # Examples
///
/// ```
/// use interlag_evdev::time::SimTime;
/// use interlag_governors::plan::FrequencyPlan;
/// use interlag_power::opp::Frequency;
///
/// let mut plan = FrequencyPlan::new(Frequency::from_mhz(960));
/// plan.set_from(SimTime::from_secs(1), Frequency::from_mhz(2_150));
/// plan.set_from(SimTime::from_secs(2), Frequency::from_mhz(960));
/// assert_eq!(plan.freq_at(SimTime::from_millis(500)), Frequency::from_mhz(960));
/// assert_eq!(plan.freq_at(SimTime::from_millis(1_500)), Frequency::from_mhz(2_150));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrequencyPlan {
    initial: Frequency,
    /// Change points, strictly increasing in time.
    steps: Vec<(SimTime, Frequency)>,
}

impl FrequencyPlan {
    /// Creates a plan that runs at `initial` forever.
    pub fn new(initial: Frequency) -> Self {
        FrequencyPlan { initial, steps: Vec::new() }
    }

    /// Sets the frequency from `time` onwards (until the next later step).
    ///
    /// Steps may be added in any order; a second step at the same instant
    /// replaces the first.
    pub fn set_from(&mut self, time: SimTime, freq: Frequency) {
        match self.steps.binary_search_by_key(&time, |(t, _)| *t) {
            Ok(i) => self.steps[i].1 = freq,
            Err(i) => self.steps.insert(i, (time, freq)),
        }
    }

    /// The frequency the plan prescribes at `time`.
    pub fn freq_at(&self, time: SimTime) -> Frequency {
        match self.steps.partition_point(|(t, _)| *t <= time) {
            0 => self.initial,
            i => self.steps[i - 1].1,
        }
    }

    /// The change points.
    pub fn steps(&self) -> &[(SimTime, Frequency)] {
        &self.steps
    }

    /// Removes steps that do not change the frequency.
    pub fn simplify(&mut self) {
        let mut current = self.initial;
        self.steps.retain(|(_, f)| {
            let keep = *f != current;
            if keep {
                current = *f;
            }
            keep
        });
    }

    /// Samples the plan on a regular grid — handy for plotting Figure 3.
    pub fn sample(
        &self,
        from: SimTime,
        to: SimTime,
        step: SimDuration,
    ) -> Vec<(SimTime, Frequency)> {
        assert!(!step.is_zero(), "sampling step must be positive");
        let mut out = Vec::new();
        let mut t = from;
        while t <= to {
            out.push((t, self.freq_at(t)));
            t += step;
        }
        out
    }
}

/// Replays a [`FrequencyPlan`] through the governor interface.
#[derive(Debug, Clone)]
pub struct PlanGovernor {
    plan: FrequencyPlan,
    name: String,
    period: SimDuration,
}

impl PlanGovernor {
    /// Creates a governor following `plan`, reporting as `name` (the
    /// experiments use `"oracle"`).
    pub fn new(name: impl Into<String>, plan: FrequencyPlan) -> Self {
        PlanGovernor { plan, name: name.into(), period: SimDuration::from_millis(1) }
    }

    /// The plan being followed.
    pub fn plan(&self) -> &FrequencyPlan {
        &self.plan
    }
}

impl Governor for PlanGovernor {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, table: &OppTable) -> Frequency {
        table.quantize_up(self.plan.freq_at(SimTime::ZERO))
    }

    fn sample_period(&self) -> SimDuration {
        self.period
    }

    fn on_sample(&mut self, now: SimTime, _load: LoadSample, table: &OppTable) -> Frequency {
        table.quantize_up(self.plan.freq_at(now))
    }

    /// The first plan step after the previous sample, which the device
    /// delivers at the first sample at or after it; `None` once the plan
    /// has no steps left.
    fn next_decision(&self, next_sample: SimTime) -> Option<SimTime> {
        let previous =
            SimTime::from_micros(next_sample.as_micros().saturating_sub(self.period.as_micros()));
        let i = self.plan.steps.partition_point(|(t, _)| *t <= previous);
        self.plan.steps.get(i).map(|(t, _)| (*t).max(next_sample))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_insertion_sorts() {
        let mut plan = FrequencyPlan::new(Frequency::from_mhz(300));
        plan.set_from(SimTime::from_secs(2), Frequency::from_mhz(960));
        plan.set_from(SimTime::from_secs(1), Frequency::from_mhz(2_150));
        assert_eq!(plan.freq_at(SimTime::from_millis(1_500)), Frequency::from_mhz(2_150));
        assert_eq!(plan.freq_at(SimTime::from_secs(3)), Frequency::from_mhz(960));
    }

    #[test]
    fn same_instant_overwrites() {
        let mut plan = FrequencyPlan::new(Frequency::from_mhz(300));
        plan.set_from(SimTime::from_secs(1), Frequency::from_mhz(960));
        plan.set_from(SimTime::from_secs(1), Frequency::from_mhz(2_150));
        assert_eq!(plan.steps().len(), 1);
        assert_eq!(plan.freq_at(SimTime::from_secs(1)), Frequency::from_mhz(2_150));
    }

    #[test]
    fn simplify_drops_redundant_steps() {
        let mut plan = FrequencyPlan::new(Frequency::from_mhz(300));
        plan.set_from(SimTime::from_secs(1), Frequency::from_mhz(300)); // no-op
        plan.set_from(SimTime::from_secs(2), Frequency::from_mhz(960));
        plan.set_from(SimTime::from_secs(3), Frequency::from_mhz(960)); // no-op
        plan.simplify();
        assert_eq!(plan.steps().len(), 1);
    }

    #[test]
    fn sample_grid() {
        let mut plan = FrequencyPlan::new(Frequency::from_mhz(300));
        plan.set_from(SimTime::from_secs(1), Frequency::from_mhz(960));
        let pts = plan.sample(SimTime::ZERO, SimTime::from_secs(2), SimDuration::from_millis(500));
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[1].1, Frequency::from_mhz(300));
        assert_eq!(pts[2].1, Frequency::from_mhz(960));
    }

    #[test]
    fn governor_follows_plan() {
        let table = OppTable::snapdragon_8074();
        let mut plan = FrequencyPlan::new(table.min_freq());
        plan.set_from(SimTime::from_millis(100), table.max_freq());
        let mut g = PlanGovernor::new("oracle", plan);
        assert_eq!(g.init(&table), table.min_freq());
        let idle = LoadSample { busy: SimDuration::ZERO, window: SimDuration::from_millis(5) };
        assert_eq!(g.on_sample(SimTime::from_millis(50), idle, &table), table.min_freq());
        assert_eq!(g.on_sample(SimTime::from_millis(100), idle, &table), table.max_freq());
        assert_eq!(g.name(), "oracle");
    }

    #[test]
    fn governor_declares_its_next_plan_step() {
        let table = OppTable::snapdragon_8074();
        let mut plan = FrequencyPlan::new(table.min_freq());
        plan.set_from(SimTime::from_micros(100_500), table.max_freq());
        plan.set_from(SimTime::from_millis(300), table.min_freq());
        let g = PlanGovernor::new("oracle", plan);
        let ms = SimTime::from_millis;
        // Delivered at the first sample at or after the step.
        assert_eq!(g.next_decision(ms(1)), Some(SimTime::from_micros(100_500)));
        assert_eq!(g.next_decision(ms(101)), Some(ms(101)));
        // The step at 100.5 ms was seen by the sample at 101 ms.
        assert_eq!(g.next_decision(ms(102)), Some(ms(300)));
        assert_eq!(g.next_decision(ms(300)), Some(ms(300)));
        assert_eq!(g.next_decision(ms(301)), None, "no steps left");
    }
}
