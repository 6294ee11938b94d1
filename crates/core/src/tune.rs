//! Governor tuning: scoring a grid of governor tunables against the
//! per-workload oracle (`interlag tune`).
//!
//! §IV of the paper characterises the stock governors at their shipped
//! tunable values and finds all of them far from the oracle. This module
//! asks the follow-up question: *how much of that gap is tuning?* A
//! [`PropGroup`] grid over a governor's
//! exported tunables (the same `key=val:k-min/k-max/k-intvs` grammar the
//! sweep matrix uses) expands into concrete [`GovernorSpec`]s, each grid
//! point replays the workload under its tuned governor, and every
//! repetition is scored by the study's own metrics — user irritation
//! under the §III-B "110 % of fastest" threshold rule and dynamic energy
//! — so a point's quality is its (irritation, energy) distance from the
//! oracle.
//!
//! The grammar mirrors cpufreq's sysfs vocabulary with integer values
//! (loads and steps in percent, times in milliseconds, frequencies in
//! kHz):
//!
//! | governor       | keys                                                         |
//! |----------------|--------------------------------------------------------------|
//! | `interactive`  | `go-hispeed-load` `hispeed-freq` `target-load` `min-sample-ms` `timer-ms` `input-boost` |
//! | `ondemand`     | `up-threshold` `sampling-ms` `down-factor`                   |
//! | `conservative` | `up-threshold` `down-threshold` `freq-step` `sampling-ms`    |
//! | `schedutil`    | `headroom-pct` `decay-pct` `rate-ms` `down-rate-ms`          |
//!
//! plus the fleet knobs `reps` and `jitter-us`, which shape the sweep
//! without entering any grid point. Every rejection is a byte-addressed
//! [`PropError`] like the parser's own: unknown tunables are
//! [`PropErrorKind::UnknownKey`] at the key, out-of-range values are
//! [`PropErrorKind::OutOfDomain`] at the value.
//!
//! Measurements here use the device's *ground-truth* interaction records
//! rather than the video matcher: tuning wants thousands of cheap,
//! perfectly deterministic replays, and the conformance suite already
//! pins ground truth to the matcher's output. Capture is disabled for
//! the same reason, so a tuning replay costs a fraction of a studied one.

use std::collections::BTreeMap;

use interlag_device::device::{CaptureMode, Device, RunArtifacts};
use interlag_device::dvfs::{FixedGovernor, Governor};
use interlag_evdev::time::SimDuration;
use interlag_evdev::trace::EventTrace;
use interlag_governors::conservative::{Conservative, ConservativeTunables};
use interlag_governors::interactive::{Interactive, InteractiveTunables};
use interlag_governors::ondemand::{Ondemand, OndemandTunables};
use interlag_governors::plan::PlanGovernor;
use interlag_governors::schedutil::{Schedutil, SchedutilTunables};
use interlag_power::opp::Frequency;
use interlag_power::opp::OppTable;
use interlag_workloads::gen::Workload;

use crate::error::InterlagError;
use crate::experiment::{jitter_events, Lab};
use crate::irritation::{user_irritation, ThresholdModel};
use crate::oracle::{build_oracle, OracleConfig};
use crate::profile::{LagEntry, LagProfile};
use crate::propgroup::{PropError, PropErrorKind, PropGroup, PropPoint};

/// Keys that shape the sweep rather than a governor: they are stripped
/// from every grid point before governor construction.
pub const FLEET_KEYS: [&str; 2] = ["reps", "jitter-us"];

/// A parsed, validated tuning grid: the canonical group, its expanded
/// governor points (fleet keys stripped) and the fleet shape.
#[derive(Debug, Clone)]
pub struct TuneGrid {
    /// The group as parsed — its canonical printing is the sweep's
    /// identity.
    pub group: PropGroup,
    /// One entry per grid point, in expansion order: the point (without
    /// fleet keys) and the governor it builds.
    pub points: Vec<(PropPoint, GovernorSpec)>,
    /// Repetitions per grid point (`reps`, default 1).
    pub reps: u32,
    /// Input-timing jitter applied per repetition (`jitter-us`,
    /// default 0; repetition 0 always replays untouched).
    pub jitter_us: u64,
}

/// A fully resolved governor configuration for one grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GovernorSpec {
    /// The Android `interactive` governor.
    Interactive(InteractiveTunables),
    /// The `ondemand` governor.
    Ondemand(OndemandTunables),
    /// The `conservative` governor.
    Conservative(ConservativeTunables),
    /// The `schedutil` governor.
    Schedutil(SchedutilTunables),
}

impl GovernorSpec {
    /// The kernel name of the governor this spec builds.
    pub fn governor_name(&self) -> &'static str {
        match self {
            GovernorSpec::Interactive(_) => "interactive",
            GovernorSpec::Ondemand(_) => "ondemand",
            GovernorSpec::Conservative(_) => "conservative",
            GovernorSpec::Schedutil(_) => "schedutil",
        }
    }

    /// Instantiates the governor.
    pub fn build(&self) -> Box<dyn Governor> {
        match self {
            GovernorSpec::Interactive(t) => Box::new(Interactive::new(*t)),
            GovernorSpec::Ondemand(t) => Box::new(Ondemand::new(*t)),
            GovernorSpec::Conservative(t) => Box::new(Conservative::new(*t)),
            GovernorSpec::Schedutil(t) => Box::new(Schedutil::new(*t)),
        }
    }

    /// Parses one grid point against `group` (for byte-addressed
    /// diagnostics) and `table` (for frequency domains).
    ///
    /// # Errors
    ///
    /// [`PropErrorKind::UnknownKey`] for a tunable the selected governor
    /// does not expose, [`PropErrorKind::OutOfDomain`] for a value
    /// outside its range — both at the offending byte of the canonical
    /// group text.
    pub fn parse(
        point: &PropPoint,
        group: &PropGroup,
        table: &OppTable,
    ) -> Result<GovernorSpec, PropError> {
        let Some(governor) = point.get("governor") else {
            return Err(PropError { offset: 0, kind: PropErrorKind::UnknownKey });
        };
        let accepted: &[&str] = match governor {
            "interactive" => &[
                "go-hispeed-load",
                "hispeed-freq",
                "target-load",
                "min-sample-ms",
                "timer-ms",
                "input-boost",
            ],
            "ondemand" => &["up-threshold", "sampling-ms", "down-factor"],
            "conservative" => &["up-threshold", "down-threshold", "freq-step", "sampling-ms"],
            "schedutil" => &["headroom-pct", "decay-pct", "rate-ms", "down-rate-ms"],
            other => {
                return Err(PropError {
                    offset: group.offset_of_value("governor", other),
                    kind: PropErrorKind::OutOfDomain,
                })
            }
        };
        for (key, _) in point.pairs() {
            if key != "governor"
                && !FLEET_KEYS.contains(&key.as_str())
                && !accepted.contains(&key.as_str())
            {
                return Err(PropError {
                    offset: group.offset_of_value(key, ""),
                    kind: PropErrorKind::UnknownKey,
                });
            }
        }
        let knob = |key: &str, lo: u64, hi: u64| tunable_u64(point, group, key, lo, hi);
        Ok(match governor {
            "interactive" => {
                let mut t = InteractiveTunables::for_table(table);
                if let Some(load) = knob("go-hispeed-load", 1, 100)? {
                    t.go_hispeed_load = load as f64;
                }
                if let Some(khz) = knob(
                    "hispeed-freq",
                    u64::from(table.min_freq().as_khz()),
                    u64::from(table.max_freq().as_khz()),
                )? {
                    t.hispeed_freq = table.quantize_up(Frequency::from_khz(khz as u32));
                }
                if let Some(load) = knob("target-load", 1, 100)? {
                    t.target_load = load as f64;
                }
                if let Some(ms) = knob("min-sample-ms", 1, 1_000)? {
                    t.min_sample_time = SimDuration::from_millis(ms);
                }
                if let Some(ms) = knob("timer-ms", 1, 1_000)? {
                    t.timer_rate = SimDuration::from_millis(ms);
                }
                if let Some(boost) = knob("input-boost", 0, 1)? {
                    t.input_boost = boost == 1;
                }
                GovernorSpec::Interactive(t)
            }
            "ondemand" => {
                let mut t = OndemandTunables::default();
                if let Some(load) = knob("up-threshold", 1, 100)? {
                    t.up_threshold = load as f64;
                }
                if let Some(ms) = knob("sampling-ms", 1, 1_000)? {
                    t.sampling_rate = SimDuration::from_millis(ms);
                }
                if let Some(factor) = knob("down-factor", 1, 100)? {
                    t.sampling_down_factor = factor as u32;
                }
                GovernorSpec::Ondemand(t)
            }
            "conservative" => {
                let mut t = ConservativeTunables::default();
                if let Some(load) = knob("up-threshold", 1, 100)? {
                    t.up_threshold = load as f64;
                }
                if let Some(load) = knob("down-threshold", 0, 99)? {
                    t.down_threshold = load as f64;
                }
                if t.down_threshold >= t.up_threshold {
                    // The hysteresis band must be non-empty or the
                    // governor oscillates every sample.
                    let v = point.get("down-threshold").unwrap_or_default();
                    return Err(PropError {
                        offset: group.offset_of_value("down-threshold", v),
                        kind: PropErrorKind::OutOfDomain,
                    });
                }
                if let Some(step) = knob("freq-step", 1, 100)? {
                    t.freq_step_pct = step as f64;
                }
                if let Some(ms) = knob("sampling-ms", 1, 1_000)? {
                    t.sampling_rate = SimDuration::from_millis(ms);
                }
                GovernorSpec::Conservative(t)
            }
            "schedutil" => {
                let mut t = SchedutilTunables::default();
                if let Some(pct) = knob("headroom-pct", 100, 400)? {
                    t.headroom = pct as f64 / 100.0;
                }
                if let Some(pct) = knob("decay-pct", 0, 100)? {
                    t.decay = pct as f64 / 100.0;
                }
                if let Some(ms) = knob("rate-ms", 1, 1_000)? {
                    t.rate_limit = SimDuration::from_millis(ms);
                }
                if let Some(ms) = knob("down-rate-ms", 1, 1_000)? {
                    t.down_rate_limit = SimDuration::from_millis(ms);
                }
                GovernorSpec::Schedutil(t)
            }
            _ => unreachable!("governor validated above"),
        })
    }
}

/// One tunable's integer value from a point, range-checked against
/// `lo..=hi`; rejections point at the value's byte in the group text.
fn tunable_u64(
    point: &PropPoint,
    group: &PropGroup,
    key: &str,
    lo: u64,
    hi: u64,
) -> Result<Option<u64>, PropError> {
    let Some(value) = point.get(key) else { return Ok(None) };
    let out_of_domain = || PropError {
        offset: group.offset_of_value(key, value),
        kind: PropErrorKind::OutOfDomain,
    };
    let n: u64 = value.parse().map_err(|_| out_of_domain())?;
    if n < lo || n > hi {
        return Err(out_of_domain());
    }
    Ok(Some(n))
}

/// A fleet knob: a single-valued group key parsed as an integer in
/// `lo..=hi`. Multi-valued fleet knobs are rejected — the grid varies
/// governors, not sweep shapes.
fn fleet_u64(
    group: &PropGroup,
    key: &str,
    default: u64,
    lo: u64,
    hi: u64,
) -> Result<u64, PropError> {
    let Some(values) = group.get(key) else { return Ok(default) };
    let out_of_domain = |v: &str| PropError {
        offset: group.offset_of_value(key, v),
        kind: PropErrorKind::OutOfDomain,
    };
    let [value] = values else {
        return Err(out_of_domain(&values[1]));
    };
    let n: u64 = value.parse().map_err(|_| out_of_domain(value))?;
    if n < lo || n > hi {
        return Err(out_of_domain(value));
    }
    Ok(n)
}

/// Parses and validates a full tuning group against `table`.
///
/// Every grid point is validated eagerly, so a bad value anywhere in the
/// matrix rejects the whole group before anything runs.
///
/// # Errors
///
/// Any grammar rejection from [`PropGroup`] parsing or expansion, plus
/// the tuning-layer domains: a missing or unknown `governor`, a tunable
/// the governor does not expose, or a value outside its range.
///
/// # Examples
///
/// ```
/// use interlag_core::tune::parse_tune_group;
/// use interlag_power::opp::OppTable;
///
/// let table = OppTable::snapdragon_8074();
/// let grid = parse_tune_group(
///     "governor=interactive:go-hispeed-load-min=60:go-hispeed-load-max=95:\
///      go-hispeed-load-intvs=8:reps=2",
///     &table,
/// )
/// .expect("valid grid");
/// assert_eq!(grid.points.len(), 8);
/// assert_eq!(grid.reps, 2);
/// ```
pub fn parse_tune_group(text: &str, table: &OppTable) -> Result<TuneGrid, PropError> {
    let group: PropGroup = text.parse()?;
    let reps = fleet_u64(&group, "reps", 1, 1, 100)? as u32;
    let jitter_us = fleet_u64(&group, "jitter-us", 0, 0, 1_000_000)?;
    let mut points = Vec::new();
    let mut seen = Vec::new();
    for point in group.expand()? {
        let spec = GovernorSpec::parse(&point, &group, table)?;
        let point = point.without(&FLEET_KEYS);
        if !seen.contains(&point) {
            seen.push(point.clone());
            points.push((point, spec));
        }
    }
    Ok(TuneGrid { group, points, reps, jitter_us })
}

/// The per-workload reference a tuning sweep scores against: the
/// §III-B threshold model and the oracle's own (irritation, energy)
/// point.
#[derive(Debug, Clone)]
pub struct TuneReference {
    /// The recorded input trace every repetition jitters from.
    pub trace: EventTrace,
    /// The "110 % of the fastest frequency" threshold model.
    pub model: ThresholdModel,
    /// The oracle's total irritation, microseconds.
    pub oracle_irritation_us: u64,
    /// The oracle's dynamic energy, microjoules.
    pub oracle_energy_uj: u64,
    /// The oracle's mean ground-truth lag, microseconds.
    pub oracle_lag_us: u64,
}

/// One repetition's scores for one grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneMeasurement {
    /// Mean ground-truth lag, microseconds.
    pub mean_lag_us: u64,
    /// Total user irritation under the reference model, microseconds.
    pub irritation_us: u64,
    /// Dynamic energy, microjoules.
    pub energy_uj: u64,
}

/// The ground-truth lag profile of a run: every serviced, non-spurious
/// interaction's [`true_lag`](interlag_device::device::InteractionRecord::true_lag).
pub fn ground_truth_profile(run: &RunArtifacts, config: &str) -> LagProfile {
    let mut profile = LagProfile::new(config);
    for rec in &run.interactions {
        if rec.spurious || !rec.triggered {
            continue;
        }
        let Some(lag) = rec.true_lag() else { continue };
        profile.push(LagEntry {
            interaction_id: rec.id,
            input_time: rec.input_time,
            lag,
            threshold: rec.category.threshold(),
            confidence: 1.0,
        });
    }
    profile
}

/// The capture-free replica of the lab's device: tuning replays need
/// ground truth and activity, not video.
fn quiet_device(lab: &Lab) -> Device {
    let mut config = lab.device().config().clone();
    config.capture = CaptureMode::None;
    Device::new(config)
}

/// Builds the tuning reference for `workload`: ground-truth profiles at
/// every fixed frequency, the §III-B threshold model over the fastest,
/// the oracle plan from [`build_oracle`], and the oracle's own scores.
///
/// # Errors
///
/// [`InterlagError::Device`] if any reference run fails.
pub fn tune_reference(lab: &Lab, workload: &Workload) -> Result<TuneReference, InterlagError> {
    let device = quiet_device(lab);
    let table = lab.device().config().opps.clone();
    let trace = workload.script.record_trace();
    let until = workload.run_until();
    let mut profiles: BTreeMap<Frequency, LagProfile> = BTreeMap::new();
    for opp in table.opps() {
        let mut gov = FixedGovernor::new(opp.freq);
        let run = device.run(
            &workload.script,
            interlag_evdev::replay::ReplayAgent::new(trace.clone()),
            &mut gov,
            until,
        )?;
        profiles.insert(opp.freq, ground_truth_profile(&run, &format!("fixed-{}", opp.freq)));
    }
    let reference =
        profiles.get(&table.max_freq()).cloned().unwrap_or_else(|| LagProfile::new("reference"));
    let model = ThresholdModel::paper_rule(reference);
    let oracle =
        build_oracle(&profiles, &OracleConfig::paper(lab.power_table().most_efficient_freq()));
    let mut gov = PlanGovernor::new("oracle", oracle.plan.clone());
    let run = device.run(
        &workload.script,
        interlag_evdev::replay::ReplayAgent::new(trace.clone()),
        &mut gov,
        until,
    )?;
    let profile = ground_truth_profile(&run, "oracle");
    Ok(TuneReference {
        trace,
        oracle_irritation_us: user_irritation(&profile, &model).total().as_micros(),
        oracle_energy_uj: energy_uj(lab, &run),
        oracle_lag_us: profile.mean_lag().as_micros(),
        model,
    })
}

/// Measures one `(grid point, repetition)` slot: replay the jittered
/// trace under the tuned governor and score it with the reference model.
///
/// The same `(spec, rep)` always produces the same measurement — the
/// whole path is deterministic — which is what lets sharded tuning
/// sweeps merge byte-identically at any worker or shard count.
///
/// # Errors
///
/// [`InterlagError::Device`] if the run fails.
pub fn measure_tune_point(
    lab: &Lab,
    workload: &Workload,
    reference: &TuneReference,
    spec: &GovernorSpec,
    rep: u32,
    jitter_us: u64,
) -> Result<TuneMeasurement, InterlagError> {
    let device = quiet_device(lab);
    let trace = jitter_events(&reference.trace, jitter_us, rep);
    let mut governor = spec.build();
    let run = device.run(
        &workload.script,
        interlag_evdev::replay::ReplayAgent::new(trace),
        &mut *governor,
        workload.run_until(),
    )?;
    let profile = ground_truth_profile(&run, spec.governor_name());
    Ok(TuneMeasurement {
        mean_lag_us: profile.mean_lag().as_micros(),
        irritation_us: user_irritation(&profile, &reference.model).total().as_micros(),
        energy_uj: energy_uj(lab, &run),
    })
}

/// Dynamic energy of a run in whole microjoules (the integer unit the
/// results database folds).
fn energy_uj(lab: &Lab, run: &RunArtifacts) -> u64 {
    (lab.meter().measure(&run.activity).dynamic_mj * 1_000.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use interlag_device::script::InteractionCategory;
    use interlag_workloads::gen::{WorkloadBuilder, MCYCLES};

    fn table() -> OppTable {
        OppTable::snapdragon_8074()
    }

    fn tiny_workload() -> Workload {
        let mut b = WorkloadBuilder::new(0x70e);
        b.app_launch("launch", 300 * MCYCLES, 4, InteractionCategory::Common);
        b.think_ms(1_500, 2_500);
        b.quick_tap("tap", 120 * MCYCLES, InteractionCategory::SimpleFrequent);
        b.build("tune-tiny", "tuning unit-test workload")
    }

    #[test]
    fn the_issue_grid_expands_to_specs() {
        let grid = parse_tune_group(
            "governor=interactive:go-hispeed-load-min=60:go-hispeed-load-max=95:\
             go-hispeed-load-intvs=8:reps=2:jitter-us=500",
            &table(),
        )
        .expect("valid grid");
        assert_eq!(grid.points.len(), 8);
        assert_eq!(grid.reps, 2);
        assert_eq!(grid.jitter_us, 500);
        let GovernorSpec::Interactive(t) = grid.points[0].1 else {
            panic!("expected interactive specs")
        };
        assert_eq!(t.go_hispeed_load, 60.0);
        let GovernorSpec::Interactive(t) = grid.points[7].1 else {
            panic!("expected interactive specs")
        };
        assert_eq!(t.go_hispeed_load, 95.0);
        // Untouched tunables keep their table defaults.
        assert_eq!(t.target_load, InteractiveTunables::for_table(&table()).target_load);
    }

    #[test]
    fn every_governor_parses_its_vocabulary() {
        let t = table();
        let grid =
            parse_tune_group("governor=ondemand:up-threshold=70:sampling-ms=40:down-factor=3", &t)
                .expect("ondemand grid");
        let GovernorSpec::Ondemand(o) = grid.points[0].1 else { panic!() };
        assert_eq!(o.up_threshold, 70.0);
        assert_eq!(o.sampling_rate, SimDuration::from_millis(40));
        assert_eq!(o.sampling_down_factor, 3);

        let grid = parse_tune_group(
            "governor=conservative:up-threshold=75:down-threshold=30:freq-step=10",
            &t,
        )
        .expect("conservative grid");
        let GovernorSpec::Conservative(c) = grid.points[0].1 else { panic!() };
        assert_eq!((c.up_threshold, c.down_threshold, c.freq_step_pct), (75.0, 30.0, 10.0));

        let grid = parse_tune_group(
            "governor=schedutil:headroom-pct=150:decay-pct=25:rate-ms=5:down-rate-ms=20",
            &t,
        )
        .expect("schedutil grid");
        let GovernorSpec::Schedutil(s) = grid.points[0].1 else { panic!() };
        assert_eq!(s.headroom, 1.5);
        assert_eq!(s.decay, 0.25);

        let grid = parse_tune_group("governor=interactive:hispeed-freq=960000:input-boost=0", &t)
            .expect("interactive grid");
        let GovernorSpec::Interactive(i) = grid.points[0].1 else { panic!() };
        assert_eq!(i.hispeed_freq, Frequency::from_mhz(960));
        assert!(!i.input_boost);
    }

    #[test]
    fn rejections_are_typed_and_byte_addressed() {
        let t = table();
        // Unknown tunable for the selected governor, at the key's byte.
        let e = parse_tune_group("governor=ondemand:go-hispeed-load=80", &t).unwrap_err();
        assert_eq!(e, PropError { offset: 18, kind: PropErrorKind::UnknownKey });
        // Out-of-range value, at the value's byte.
        let e = parse_tune_group("governor=ondemand:up-threshold=0", &t).unwrap_err();
        assert_eq!(e, PropError { offset: 31, kind: PropErrorKind::OutOfDomain });
        // Unknown governor, at its value.
        let e = parse_tune_group("governor=warpspeed", &t).unwrap_err();
        assert_eq!(e, PropError { offset: 9, kind: PropErrorKind::OutOfDomain });
        // Missing governor entirely.
        let e = parse_tune_group("up-threshold=50", &t).unwrap_err();
        assert_eq!(e.kind, PropErrorKind::UnknownKey);
        // Inverted conservative hysteresis band.
        let e = parse_tune_group("governor=conservative:up-threshold=40:down-threshold=60", &t)
            .unwrap_err();
        assert_eq!(e.kind, PropErrorKind::OutOfDomain);
        assert_eq!(e.offset, 53, "points at the down-threshold value");
        // Multi-valued fleet knob.
        let e = parse_tune_group("governor=ondemand:reps=1,2", &t).unwrap_err();
        assert_eq!(e.kind, PropErrorKind::OutOfDomain);
    }

    #[test]
    fn measurements_are_deterministic_and_oracle_scored() {
        let lab = Lab::with_defaults();
        let w = tiny_workload();
        let reference = tune_reference(&lab, &w).expect("reference");
        assert!(reference.oracle_energy_uj > 0, "oracle run consumed energy");

        let grid = parse_tune_group("governor=ondemand:up-threshold=95", &table()).expect("grid");
        let spec = &grid.points[0].1;
        let a = measure_tune_point(&lab, &w, &reference, spec, 1, 1_500).expect("rep 1");
        let b = measure_tune_point(&lab, &w, &reference, spec, 1, 1_500).expect("rep 1 again");
        assert_eq!(a, b, "same slot, same measurement");
        assert!(a.energy_uj > 0);
        assert!(a.mean_lag_us > 0);

        // A governor pinned near the bottom by construction (conservative
        // with a tiny step and huge thresholds) must irritate more than
        // the oracle reference.
        let slow = parse_tune_group(
            "governor=conservative:up-threshold=100:down-threshold=99:freq-step=1:sampling-ms=1000",
            &table(),
        )
        .expect("slow grid");
        let s = measure_tune_point(&lab, &w, &reference, &slow.points[0].1, 0, 0).expect("slow");
        assert!(
            s.irritation_us > reference.oracle_irritation_us,
            "a crippled governor scores worse than the oracle \
             ({} vs {} µs)",
            s.irritation_us,
            reference.oracle_irritation_us,
        );
    }
}
