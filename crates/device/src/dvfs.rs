//! The DVFS hook: how frequency governors plug into the device.
//!
//! The device owns the cpufreq machinery (load accounting, OPP table,
//! frequency switching); a [`Governor`] is the policy plugged into it.
//! Concrete Linux/Android policies (ondemand, conservative, interactive)
//! live in the `interlag-governors` crate; this module defines the
//! interface plus the [`FixedGovernor`] used for the paper's 14
//! fixed-frequency runs.

use serde::{Deserialize, Serialize};

use interlag_evdev::time::{SimDuration, SimTime};
use interlag_power::opp::{Frequency, OppTable};

/// CPU load observed over one governor sampling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadSample {
    /// Time the core spent executing within the window.
    pub busy: SimDuration,
    /// The window length.
    pub window: SimDuration,
}

impl LoadSample {
    /// Load as a percentage, the unit cpufreq thresholds use, clamped to
    /// 0–100. Under fault-injected timing (delayed sampling, wedge
    /// recovery) `busy` can exceed `window`; an unclamped ratio would feed
    /// loads above 100 % into threshold logic such as ondemand's
    /// `up_threshold` or interactive's `go_hispeed_load`, where arithmetic
    /// like `current × load / target_load` then overshoots the table.
    pub fn load_percent(&self) -> f64 {
        if self.window.is_zero() {
            0.0
        } else {
            (100.0 * self.busy.as_secs_f64() / self.window.as_secs_f64()).clamp(0.0, 100.0)
        }
    }
}

/// A frequency-selection policy.
///
/// The device samples the load every [`Governor::sample_period`] and
/// calls [`Governor::on_sample`] with the load since the previous sample,
/// and [`Governor::on_input`] whenever a user-input packet arrives (the
/// hook the Interactive governor's input boost uses). Both return the
/// frequency to run at next; the device quantises it onto the OPP table.
/// A governor whose decisions do not depend on the load can declare, with
/// [`Governor::next_decision`], which samples it needs to see at all.
///
/// # The clamped load contract
///
/// [`LoadSample::load_percent`] is guaranteed to be in `0.0..=100.0` even
/// when fault injection makes the accounted busy time exceed the sampling
/// window. Governors may therefore use the percentage directly in
/// threshold comparisons and proportional scaling without re-clamping,
/// and must not rely on >100 % values to detect overload.
pub trait Governor {
    /// The governor's cpufreq name (`"ondemand"`, `"interactive"`, …).
    fn name(&self) -> &str;

    /// Resets internal state and returns the initial frequency.
    fn init(&mut self, table: &OppTable) -> Frequency;

    /// How often the governor wants to re-evaluate the load.
    fn sample_period(&self) -> SimDuration;

    /// Reacts to the load of the window that just ended.
    fn on_sample(&mut self, now: SimTime, load: LoadSample, table: &OppTable) -> Frequency;

    /// Reacts to a user-input packet; `None` leaves the frequency alone.
    fn on_input(&mut self, _now: SimTime, _table: &OppTable) -> Option<Frequency> {
        None
    }

    /// The earliest time at which [`Governor::on_sample`] may return
    /// something other than the frequency the governor last chose (by
    /// `init`, `on_sample` or `on_input`); `None` means never.
    /// `next_sample` is when the next sample is due.
    ///
    /// The device still counts every sample, and restarts the load window
    /// at each, but delivers only the first sample at or after the
    /// returned time. A governor may therefore skip samples only if it
    /// ignores their load and needs no per-sample state. The default,
    /// `Some(next_sample)`, delivers every sample.
    fn next_decision(&self, next_sample: SimTime) -> Option<SimTime> {
        Some(next_sample)
    }
}

/// Pins the clock to one frequency for the whole run: the paper's
/// fixed-frequency configurations, and also cpufreq's `userspace` policy.
///
/// # Examples
///
/// ```
/// use interlag_device::dvfs::{FixedGovernor, Governor, LoadSample};
/// use interlag_evdev::time::{SimDuration, SimTime};
/// use interlag_power::opp::OppTable;
///
/// let table = OppTable::snapdragon_8074();
/// let mut g = FixedGovernor::new(table.min_freq());
/// assert_eq!(g.init(&table), table.min_freq());
/// let load = LoadSample { busy: SimDuration::from_millis(20), window: SimDuration::from_millis(20) };
/// assert_eq!(g.on_sample(SimTime::ZERO, load, &table), table.min_freq());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedGovernor {
    freq: Frequency,
    name: String,
}

impl FixedGovernor {
    /// Creates a governor pinned to `freq`.
    pub fn new(freq: Frequency) -> Self {
        FixedGovernor { freq, name: format!("fixed-{freq}") }
    }

    /// The pinned frequency.
    pub fn frequency(&self) -> Frequency {
        self.freq
    }
}

impl Governor for FixedGovernor {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, table: &OppTable) -> Frequency {
        table.quantize_up(self.freq)
    }

    fn sample_period(&self) -> SimDuration {
        // Nothing is ever decided (see `next_decision`), so the period
        // only sets how many samples the run counts.
        SimDuration::from_millis(100)
    }

    fn on_sample(&mut self, _now: SimTime, _load: LoadSample, table: &OppTable) -> Frequency {
        table.quantize_up(self.freq)
    }

    fn next_decision(&self, _next_sample: SimTime) -> Option<SimTime> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_percent_basics() {
        let full =
            LoadSample { busy: SimDuration::from_millis(20), window: SimDuration::from_millis(20) };
        assert!((full.load_percent() - 100.0).abs() < 1e-9);
        let half =
            LoadSample { busy: SimDuration::from_millis(10), window: SimDuration::from_millis(20) };
        assert!((half.load_percent() - 50.0).abs() < 1e-9);
        let empty = LoadSample { busy: SimDuration::ZERO, window: SimDuration::ZERO };
        assert_eq!(empty.load_percent(), 0.0);
    }

    #[test]
    fn load_percent_is_clamped_under_chaos_schedules() {
        // Chaos-schedule repro: a wedged governor misses its sampling
        // deadline, so the next window is short while the busy accounting
        // still carries the full backlog — busy > window. Before the
        // clamp this reported 250 %, which ondemand's proportional path
        // turned into a target far above the table and interactive's
        // `current × load / target_load` overshot the same way.
        let backlog =
            LoadSample { busy: SimDuration::from_millis(50), window: SimDuration::from_millis(20) };
        assert_eq!(backlog.load_percent(), 100.0);
        // The pathological schedule from the fault injector's worst case:
        // a whole second of accrued busy against a 1 ms window.
        let wedged =
            LoadSample { busy: SimDuration::from_secs(1), window: SimDuration::from_millis(1) };
        assert_eq!(wedged.load_percent(), 100.0);
        // In-range samples are untouched by the clamp.
        let half =
            LoadSample { busy: SimDuration::from_millis(10), window: SimDuration::from_millis(20) };
        assert!((half.load_percent() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_governor_quantizes_onto_table() {
        let table = OppTable::snapdragon_8074();
        let mut g = FixedGovernor::new(Frequency::from_mhz(1_000));
        assert_eq!(g.init(&table), Frequency::from_khz(1_036_800));
        assert_eq!(g.name(), "fixed-1.00 GHz");
    }

    #[test]
    fn fixed_governor_ignores_input() {
        let table = OppTable::snapdragon_8074();
        let mut g = FixedGovernor::new(table.min_freq());
        g.init(&table);
        assert_eq!(g.on_input(SimTime::ZERO, &table), None);
        assert_eq!(g.next_decision(SimTime::from_millis(100)), None, "nothing to decide");
    }
}
