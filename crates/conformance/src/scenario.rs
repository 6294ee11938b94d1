//! Synthetic oracle scenarios: scripted workloads with analytic ground truth.
//!
//! A [`ScenarioSpec`] describes one workload shape — interaction category,
//! response model (wait-bound or compute-bound), tap count, masked or
//! double-occurrence endings, capture frame rate, optional fault seed.
//! [`ScenarioSpec::build`] expands it into a runnable [`Scenario`]: a
//! [`Workload`] whose script is generated tap by tap, together with the
//! [`GroundTruth`] manifest derived from the same parameters *before*
//! anything is simulated.
//!
//! # The frame-boundary danger window
//!
//! The reference annotation pass picks, for each interaction, the first
//! suggested frame at or after the true service time `v`. A frame stamped
//! inside the service quantum shows end-of-quantum screen state, so a frame
//! boundary `b` with `floor_ms(v) <= b < v` displays the ending *before*
//! `v` — the picker would skip it and annotate the wrong frame. The builder
//! therefore nudges each interaction's start forward in 1 ms steps until no
//! capture-frame boundary lands inside that window. The window is at most
//! 200 µs for wait-bound responses (the epsilon compute time at the slowest
//! OPP) and is computed exactly for compute-bound responses at the
//! reference (maximum) frequency, which is the only one the picker sees.

use interlag_device::device::DeviceConfig;
use interlag_device::scene::{Scene, SceneUpdate};
use interlag_device::script::{DeviceScript, InteractionCategory, InteractionSpec};
use interlag_device::task::{Phase, TaskSpec};
use interlag_evdev::gesture::Gesture;
use interlag_evdev::mt::Point;
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_faults::FaultConfig;
use interlag_power::opp::Frequency;
use interlag_video::frame::Rect;
use interlag_workloads::gen::Workload;

use crate::truth::{ExpectedRanking, GroundTruth, LagModel, TolerancePolicy, TruthLag};

/// Cycle cost of the token compute slice in a wait-bound response: small
/// enough to finish inside the delivery quantum at every OPP (167 µs at
/// 300 MHz), so the wait duration dominates the lag.
pub const EPS_CYCLES: u64 = 50_000;

/// Conservative bound on the compute epsilon of a wait-bound response, in
/// microseconds, used when checking the frame-boundary danger window. The
/// true epsilon at the reference frequency is ~24 µs; 200 µs covers every
/// OPP in the default table.
const WAIT_WINDOW_US: u64 = 200;

/// How many 1 ms nudges the builder tries before giving up. With a frame
/// period that is not a multiple of 1 ms a safe offset exists within a few
/// steps; 500 is far beyond any real search.
const MAX_NUDGE_MS: u64 = 500;

/// How a scripted response produces its ending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseKind {
    /// Wait-bound: an epsilon compute slice then this I/O wait; the lag is
    /// frequency independent.
    Wait(SimDuration),
    /// Compute-bound: this many cycles of foreground work; the lag is
    /// `cycles / f`.
    Compute(u64),
}

/// A declarative description of one conformance scenario.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpec {
    /// Unique scenario name (also the generated workload name).
    pub name: &'static str,
    /// HCI category of every interaction in the scenario.
    pub category: InteractionCategory,
    /// Response model shared by every interaction.
    pub response: ResponseKind,
    /// Number of scripted taps.
    pub taps: usize,
    /// If set, ending scenes carry a cursor overlay so part of the changed
    /// region falls inside the standard mask.
    pub masked_ending: bool,
    /// If set, the response shows a progress scene then returns to the
    /// scene that was visible at input time, making the true ending the
    /// *second* occurrence of its image.
    pub double_occurrence: bool,
    /// Capture frame period (30 fps by default).
    pub frame_period: SimDuration,
    /// If set, the scenario runs under `FaultConfig::uniform(seed, 0.02)`
    /// (with event loss zeroed so the manifest stays total) and the
    /// fault-injected tolerance policy.
    pub fault_seed: Option<u64>,
}

impl ScenarioSpec {
    /// A wait-bound scenario: the lag is `lag` at any frequency.
    pub const fn wait(name: &'static str, category: InteractionCategory, lag: SimDuration) -> Self {
        ScenarioSpec {
            name,
            category,
            response: ResponseKind::Wait(lag),
            taps: 2,
            masked_ending: false,
            double_occurrence: false,
            frame_period: FRAME_PERIOD_30FPS,
            fault_seed: None,
        }
    }

    /// A compute-bound scenario: the lag is `cycles / f`.
    pub const fn compute(name: &'static str, category: InteractionCategory, cycles: u64) -> Self {
        ScenarioSpec {
            name,
            category,
            response: ResponseKind::Compute(cycles),
            taps: 2,
            masked_ending: false,
            double_occurrence: false,
            frame_period: FRAME_PERIOD_30FPS,
            fault_seed: None,
        }
    }

    /// Overrides the tap count.
    pub const fn taps(mut self, taps: usize) -> Self {
        self.taps = taps;
        self
    }

    /// Gives ending scenes a cursor overlay inside the standard mask.
    pub const fn masked(mut self) -> Self {
        self.masked_ending = true;
        self
    }

    /// Makes the true ending the second occurrence of its image.
    pub const fn double_occurrence(mut self) -> Self {
        self.double_occurrence = true;
        self
    }

    /// Overrides the capture frame period.
    pub const fn frame_period(mut self, period: SimDuration) -> Self {
        self.frame_period = period;
        self
    }

    /// Runs the scenario fault-injected with this seed.
    pub const fn faulty(mut self, seed: u64) -> Self {
        self.fault_seed = Some(seed);
        self
    }

    /// The nominal (frequency-independent part of the) lag at `f`.
    fn nominal_lag(&self, f: Frequency) -> SimDuration {
        match self.response {
            ResponseKind::Wait(d) => d,
            ResponseKind::Compute(c) => f.time_for(c),
        }
    }

    /// Expands the spec into a runnable scenario plus its manifest.
    ///
    /// # Panics
    ///
    /// Panics if no frame-boundary-safe start offset exists within
    /// `MAX_NUDGE_MS` (impossible for the supported frame periods) or if
    /// the spec is internally inconsistent (e.g. zero taps).
    pub fn build(&self) -> Scenario {
        assert!(self.taps > 0, "scenario {} needs at least one tap", self.name);
        let device = DeviceConfig { frame_period: self.frame_period, ..Default::default() };
        let opps = device.opps.clone();
        let n_opps = opps.frequencies().count();
        let probe = opps.frequencies().nth(n_opps / 2).expect("default OPP table is non-empty");
        let khz_ref = opps.max_freq().as_khz() as u64;
        let fp_us = device.frame_period.as_micros();

        let tolerance = if self.fault_seed.is_some() {
            TolerancePolicy::fault_injected(&device)
        } else {
            TolerancePolicy::quiescent(&device)
        };

        // Gap between taps: the slowest OPP's lag, the 80 ms tap gesture,
        // and two quiet seconds so each ending settles well before the
        // next window opens.
        let worst_ms = self.nominal_lag(opps.min_freq()).as_millis() + 2;
        let gap_ms = worst_ms + 80 + 2_000;

        let widget = Rect::new(10, 20, 20, 20);
        let tap_at = Point::new(15, 25);

        let mut current = Scene::default();
        let mut interactions = Vec::with_capacity(self.taps);
        let mut lags = Vec::with_capacity(self.taps);
        let mut start_ms: u64 = 2_000;
        let mut last_end_ms = 0;

        for k in 0..self.taps {
            start_ms = self.safe_start(start_ms, khz_ref, fp_us);

            let ending_seed = 0x5EED_0000_0000_0000_u64 ^ ((k as u64 + 1) * 0x0101_0101);
            let mut ending = Scene::new(ending_seed);
            if self.masked_ending {
                ending = ending.with_cursor();
            }

            let (response, model, occurrence, lag_ms) = match self.response {
                ResponseKind::Wait(lag) if self.double_occurrence => {
                    // Progress scene, then back to the scene visible at
                    // input time: the ending image equals the beginning, so
                    // its true occurrence is 2. The resume after the first
                    // wait rounds up to the next quantum, adding 1 ms.
                    let lag_ms = lag.as_millis();
                    let w1 = SimDuration::from_millis(lag_ms / 2);
                    let w2 = lag - w1;
                    let progress = Scene::new(0x9A06_0000_0000_0000_u64 ^ (k as u64 + 1));
                    let spec = TaskSpec::new(vec![
                        Phase::with_wait(EPS_CYCLES, w1, SceneUpdate::replace(progress)),
                        Phase::with_wait(EPS_CYCLES, w2, SceneUpdate::replace(current.clone())),
                    ]);
                    (spec, LagModel::Wait(lag), 2, lag_ms + 1)
                }
                ResponseKind::Wait(lag) => {
                    let spec = TaskSpec::new(vec![Phase::with_wait(
                        EPS_CYCLES,
                        lag,
                        SceneUpdate::replace(ending.clone()),
                    )]);
                    current = ending;
                    (spec, LagModel::Wait(lag), 1, lag.as_millis())
                }
                ResponseKind::Compute(cycles) => {
                    let spec = TaskSpec::single(cycles, SceneUpdate::replace(ending.clone()));
                    current = ending;
                    (
                        spec,
                        LagModel::Compute(cycles),
                        1,
                        self.nominal_lag(opps.min_freq()).as_millis(),
                    )
                }
            };

            interactions.push(InteractionSpec {
                label: format!("{}-{k}", self.name),
                start: SimTime::ZERO + SimDuration::from_millis(start_ms),
                gesture: Gesture::tap(tap_at),
                widget: Some(widget),
                response: Some(response),
                category: self.category,
            });
            lags.push(TruthLag { interaction_id: k, model, category: self.category, occurrence });

            last_end_ms = start_ms + lag_ms + 2;
            start_ms += gap_ms;
        }

        let penalties = lags.iter().map(|t| t.penalty_at(probe)).collect();
        let expected_ranking = match self.response {
            ResponseKind::Wait(_) => ExpectedRanking::FrequencyIndependent,
            ResponseKind::Compute(_) => ExpectedRanking::FasterIsBetter,
        };

        let script = DeviceScript { interactions, background: Vec::new(), tick: None };
        // Workload::run_until() adds a fixed 15 s tail to the duration;
        // size the duration so the run ends ~2 s after the last ending
        // (but never before the 15 s minimum).
        let duration = SimDuration::from_millis((last_end_ms + 2_000).saturating_sub(15_000));
        let workload = Workload {
            name: self.name.to_string(),
            description: format!("conformance oracle scenario {}", self.name),
            script,
            duration,
        };

        let faults = self.fault_seed.map(|seed| {
            let mut fc = FaultConfig::uniform(seed, 0.02);
            // Every scripted interaction must be delivered or the manifest
            // is no longer total over the script.
            fc.replay.event_loss_rate = 0.0;
            if self.double_occurrence {
                // A corrupted base frame would split the first match run
                // and surface a phantom second occurrence before the true
                // ending — silently wrong, not recoverable by escalation.
                fc.capture.corrupt_rate = 0.0;
            }
            fc
        });

        Scenario {
            name: self.name,
            device,
            workload,
            truth: GroundTruth { lags, penalties, expected_ranking },
            faults,
            tolerance,
            probe,
        }
    }

    /// Returns the first start time at or after `start_ms` (in whole
    /// milliseconds) whose service time has no capture-frame boundary in
    /// its danger window.
    fn safe_start(&self, mut start_ms: u64, khz_ref: u64, fp_us: u64) -> u64 {
        for _ in 0..MAX_NUDGE_MS {
            if !self.frame_in_danger_window(start_ms, khz_ref, fp_us) {
                return start_ms;
            }
            start_ms += 1;
        }
        panic!(
            "scenario {}: no frame-boundary-safe start near {start_ms} ms (frame period {fp_us} µs)",
            self.name
        );
    }

    /// `true` if a capture-frame boundary falls inside the danger window
    /// `[floor_ms(v), v)` of the service time `v` implied by `start_ms`.
    fn frame_in_danger_window(&self, start_ms: u64, khz_ref: u64, fp_us: u64) -> bool {
        let (window_start_us, window_len_us) = match self.response {
            ResponseKind::Wait(lag) if self.double_occurrence => {
                let lag_ms = lag.as_millis();
                // v2 = start + w1 + 1 ms (resume rounding) + w2 + eps.
                ((start_ms + lag_ms + 1) * 1_000, WAIT_WINDOW_US)
            }
            ResponseKind::Wait(lag) => ((start_ms + lag.as_millis()) * 1_000, WAIT_WINDOW_US),
            ResponseKind::Compute(cycles) => {
                // Exact service fraction at the reference frequency, the
                // only one the annotation picker ever sees.
                let full_ms = cycles / khz_ref;
                let rem = cycles % khz_ref;
                let frac_us = if rem == 0 { 0 } else { (rem * 1_000).div_ceil(khz_ref) };
                ((start_ms + full_ms) * 1_000, frac_us)
            }
        };
        frame_boundary_in(window_start_us, window_len_us, fp_us)
    }

    /// Consistency checks that don't require running the pipeline: penalty
    /// margins clear the tolerance slack on both sides of the threshold,
    /// and every interaction's danger window is clean after building.
    pub fn validate(&self) -> Result<(), String> {
        let sc = self.build();
        let threshold = self.category.threshold();
        let slack = sc.tolerance.lag_slack + SimDuration::from_millis(2);
        for truth in &sc.truth.lags {
            let lag = truth.lag_at(sc.probe);
            let margin = if lag >= threshold { lag - threshold } else { threshold - lag };
            if margin < slack {
                return Err(format!(
                    "{}: interaction {} lag {} ms sits within slack ({} ms) of threshold {} ms",
                    self.name,
                    truth.interaction_id,
                    lag.as_millis(),
                    slack.as_millis(),
                    threshold.as_millis(),
                ));
            }
        }
        let khz_ref = sc.device.opps.max_freq().as_khz() as u64;
        let fp_us = sc.device.frame_period.as_micros();
        for spec in &sc.workload.script.interactions {
            let start_ms = (spec.start - SimTime::ZERO).as_millis();
            if self.frame_in_danger_window(start_ms, khz_ref, fp_us) {
                return Err(format!(
                    "{}: interaction at {start_ms} ms still has a frame boundary in its danger window",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

/// `true` if a multiple of `fp_us` lies in `[start_us, start_us + len_us)`.
fn frame_boundary_in(start_us: u64, len_us: u64, fp_us: u64) -> bool {
    if len_us == 0 {
        return false;
    }
    let first = start_us.div_ceil(fp_us) * fp_us;
    first < start_us + len_us
}

/// A fully expanded scenario: device configuration, generated workload,
/// analytic manifest, fault plan, and the tolerance its measurements are
/// held to.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (same as the workload name).
    pub name: &'static str,
    /// Device the scenario runs on (default screen/OPPs, scenario frame
    /// period).
    pub device: DeviceConfig,
    /// The generated workload.
    pub workload: Workload,
    /// The analytic ground-truth manifest.
    pub truth: GroundTruth,
    /// Fault plan, if the scenario is fault-injected.
    pub faults: Option<FaultConfig>,
    /// Agreement bounds for this scenario's measurements.
    pub tolerance: TolerancePolicy,
    /// Mid-table frequency used for quiescent probe runs and expected
    /// penalties.
    pub probe: Frequency,
}

/// Re-exported so scenario constructors can name the default frame period
/// in `const` position.
pub use interlag_video::stream::FRAME_PERIOD_30FPS;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_boundary_detection() {
        // Boundary at 33_333 µs; window [33_000, 33_200) misses it,
        // [33_200, 33_400) contains it.
        assert!(!frame_boundary_in(33_000, 200, 33_333));
        assert!(frame_boundary_in(33_200, 200, 33_333));
        // Boundary exactly at window start counts.
        assert!(frame_boundary_in(66_666, 200, 33_333));
        assert!(!frame_boundary_in(66_667, 0, 33_333));
    }

    #[test]
    fn build_produces_one_truth_per_tap() {
        let sc = ScenarioSpec::wait(
            "unit-wait",
            InteractionCategory::SimpleFrequent,
            SimDuration::from_millis(600),
        )
        .taps(3)
        .build();
        assert_eq!(sc.workload.script.interactions.len(), 3);
        assert_eq!(sc.truth.lags.len(), 3);
        assert_eq!(sc.truth.penalties.len(), 3);
        assert!(sc.truth.penalties.iter().all(|p| p.is_zero()));
        assert!(sc.faults.is_none());
        for (k, t) in sc.truth.lags.iter().enumerate() {
            assert_eq!(t.interaction_id, k);
            assert_eq!(t.occurrence, 1);
        }
    }

    #[test]
    fn double_occurrence_marks_occurrence_two() {
        let sc = ScenarioSpec::wait(
            "unit-occ2",
            InteractionCategory::SimpleFrequent,
            SimDuration::from_millis(600),
        )
        .double_occurrence()
        .build();
        assert!(sc.truth.lags.iter().all(|t| t.occurrence == 2));
    }

    #[test]
    fn faulty_specs_zero_event_loss() {
        let sc = ScenarioSpec::wait(
            "unit-faulty",
            InteractionCategory::Typing,
            SimDuration::from_millis(450),
        )
        .faulty(7)
        .build();
        let fc = sc.faults.expect("faulty scenario carries a fault config");
        assert_eq!(fc.replay.event_loss_rate, 0.0);
        assert!(fc.capture.drop_rate > 0.0);
    }

    #[test]
    fn starts_avoid_danger_windows() {
        for spec in [
            ScenarioSpec::wait(
                "unit-window-a",
                InteractionCategory::SimpleFrequent,
                SimDuration::from_millis(600),
            ),
            ScenarioSpec::compute(
                "unit-window-b",
                InteractionCategory::SimpleFrequent,
                150 * interlag_workloads::gen::MCYCLES,
            ),
        ] {
            spec.validate().expect("generated scenario validates");
        }
    }
}
