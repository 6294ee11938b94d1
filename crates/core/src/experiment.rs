//! The experiment laboratory: the paper's §III pipeline end to end.
//!
//! One [`Lab`] owns the simulated bench setup — device, HDMI capture,
//! calibrated power rig, suggester settings — and runs complete studies:
//!
//! 1. **Record** the workload's input trace.
//! 2. **Annotate** it once (Part A of Figure 4): reference execution at
//!    the fastest frequency, suggester + picker → annotation database.
//! 3. **Replay** under every configuration (14 fixed frequencies, the
//!    three governors, the oracle), repeating each run with small input
//!    jitter as the paper repeats runs to bound statistical error.
//! 4. **Mark up** every captured video with the matcher → lag profiles.
//! 5. **Meter** energy from the frequency/load traces, and score user
//!    irritation against 110 % of the fastest frequency's profile.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use interlag_device::device::{CaptureMode, Device, DeviceConfig, RunArtifacts};
use interlag_device::dvfs::{FixedGovernor, Governor};
use interlag_evdev::replay::ReplayAgent;
use interlag_evdev::rng::SplitMix64;
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_evdev::trace::EventTrace;
use interlag_faults::{
    FaultConfig, FaultStreams, FaultyCapture, FaultyGovernor, FaultyReplayer, WedgedGovernor,
};
use interlag_governors::plan::{FrequencyPlan, PlanGovernor};
use interlag_governors::{Conservative, Interactive, Ondemand};
use interlag_journal::CancelToken;
use interlag_obs::{Counter, Hist, Recorder};
use interlag_power::calibrate::{calibrate, CalibrationConfig, MeasuredPowerTable};
use interlag_power::energy::EnergyMeter;
use interlag_power::model::PowerModel;
use interlag_power::opp::Frequency;
use interlag_video::capture::HdmiCapture;
use interlag_video::mask::{Mask, MatchTolerance};
use interlag_workloads::gen::Workload;

use crate::annotation::{annotate, AnnotationDb, AnnotationStats, GroundTruthPicker};
use crate::checkpoint::StudyJournal;
use crate::error::InterlagError;
use crate::irritation::{user_irritation, ThresholdModel};
use crate::matcher::{mark_up_cancellable, MatchFailure, MatchPolicy};
use crate::oracle::{build_oracle, Oracle, OracleConfig};
use crate::profile::LagProfile;
use crate::stats::robust_mean;
use crate::suggester::{Suggester, SuggesterConfig};

/// The per-repetition watchdog: how long (in wall-clock time) one study
/// repetition attempt may run before it is cooperatively cancelled.
///
/// The deadline is checked at the cancellation points threaded through
/// the pipeline — every [`interlag_device::device::CANCEL_STRIDE`] device
/// loop iterations, every [`crate::matcher::MATCH_CANCEL_STRIDE`] matcher frames
/// and between escalation-ladder steps — so a wedged governor, a stalled
/// capture path or a runaway matcher walk cannot hang the sweep. A
/// cancelled attempt is charged against the retry budget; a repetition
/// whose final attempt was cancelled is recorded as
/// [`RepOutcome::TimedOut`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WatchdogConfig {
    /// No deadline: a repetition may run forever.
    Disabled,
    /// Deadline derived from the workload: `multiplier ×` the workload's
    /// simulated duration, read as wall-clock time, floored at one
    /// second. The simulator runs orders of magnitude faster than the
    /// simulated clock, so this default never fires on a healthy run even
    /// on a heavily loaded CI machine — it exists to catch runs making
    /// *no* forward progress.
    Auto {
        /// Wall-clock budget per simulated second.
        multiplier: u32,
    },
    /// A fixed wall-clock deadline per attempt.
    Fixed(std::time::Duration),
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig::Auto { multiplier: 4 }
    }
}

impl WatchdogConfig {
    /// The wall-clock budget for one attempt of a workload that spans
    /// `sim_span` of simulated time, or `None` when disabled.
    pub fn budget_for(&self, sim_span: SimDuration) -> Option<std::time::Duration> {
        match *self {
            WatchdogConfig::Disabled => None,
            WatchdogConfig::Auto { multiplier } => {
                let us = sim_span.as_micros().saturating_mul(u64::from(multiplier));
                Some(std::time::Duration::from_micros(us).max(std::time::Duration::from_secs(1)))
            }
            WatchdogConfig::Fixed(d) => Some(d),
        }
    }
}

/// Laboratory configuration.
#[derive(Debug, Clone)]
pub struct LabConfig {
    /// The simulated device (capture mode is forced to HDMI for studies).
    pub device: DeviceConfig,
    /// Power-rig calibration settings.
    pub calibration: CalibrationConfig,
    /// Minimum still run required by the suggester.
    pub min_still_run: u32,
    /// Match tolerance stored into annotations.
    pub tolerance: MatchTolerance,
    /// Repetitions per configuration (the paper uses 5).
    pub reps: u32,
    /// Input-timing jitter between repetitions, microseconds.
    pub jitter_us: u64,
    /// Worker threads for the configuration×repetition sweep of
    /// [`Lab::study`]. Every run is a pure function of its (trace,
    /// governor) inputs, so any worker count produces bit-identical
    /// results; `1` forces the legacy serial sweep. Defaults to
    /// [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Fault injection for the study runs. `None` (the default) runs the
    /// exact legacy pipeline; `Some` wraps every stage boundary with the
    /// seeded injectors from `interlag-faults`. A quiescent configuration
    /// (all rates zero) produces bit-identical results to `None`. The
    /// annotation reference run is always fault-exempt — annotations must
    /// come from a clean execution, as in the paper's Part A.
    pub faults: Option<FaultConfig>,
    /// How many times a failed repetition is retried before being
    /// abandoned. Each retry re-derives its fault streams with the next
    /// attempt number — deterministic, backoff-free re-seeding — while the
    /// input jitter stays fixed per repetition, so a retry measures the
    /// same nominal run under a fresh fault pattern.
    pub retry_budget: u32,
    /// Matcher recovery ladder for fault-injected runs (ignored when
    /// `faults` is `None`): tolerances escalate within this bound before a
    /// repetition is declared failed.
    pub recovery: MatchPolicy,
    /// The per-repetition deadline. The default ([`WatchdogConfig::Auto`]
    /// with a generous multiplier) only ever fires on a repetition making
    /// no forward progress, so healthy studies are bit-identical with the
    /// watchdog on or off.
    pub watchdog: WatchdogConfig,
    /// Observability recorder threaded through the whole study path — the
    /// device loop, the matcher, the retry loop and the worker pool all
    /// record into it. Disabled by default: a disabled recorder costs one
    /// null check per call and the study output is bit-identical with or
    /// without it. Everything the recorder derives from simulated time is
    /// itself identical for any [`LabConfig::workers`] value.
    pub obs: Recorder,
}

impl Default for LabConfig {
    fn default() -> Self {
        LabConfig {
            device: DeviceConfig::default(),
            calibration: CalibrationConfig::default(),
            min_still_run: 1,
            tolerance: MatchTolerance::EXACT,
            reps: 1,
            jitter_us: 1_500,
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            faults: None,
            retry_budget: 2,
            recovery: MatchPolicy::paper_recovery(),
            watchdog: WatchdogConfig::default(),
            obs: Recorder::disabled(),
        }
    }
}

/// One repetition's measurements for one configuration.
#[derive(Debug, Clone)]
pub struct RepResult {
    /// The measured lag profile.
    pub profile: LagProfile,
    /// Dynamic (above-idle) energy, millijoules.
    pub dynamic_energy_mj: f64,
    /// Total user irritation under the study's threshold model.
    pub irritation: SimDuration,
    /// Lags the matcher could not resolve (should be zero).
    pub match_failures: usize,
    /// Malformed input events the device tolerated during the run.
    pub input_faults: usize,
}

/// How one repetition of a configuration concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum RepOutcome {
    /// The first attempt succeeded.
    Ok,
    /// One or more attempts failed but a retry succeeded.
    Retried {
        /// Total attempts made, including the successful one.
        attempts: u32,
    },
    /// Every attempt failed and the *final* attempt was cancelled by the
    /// rep watchdog. Like an abandoned repetition, the result slot is an
    /// empty placeholder excluded from aggregates; the distinct outcome
    /// keeps hangs visible separately from ordinary failures.
    TimedOut {
        /// Total attempts made.
        attempts: u32,
    },
    /// Every attempt failed; the repetition's result slot is an empty
    /// placeholder and is excluded from the configuration's aggregates.
    Abandoned {
        /// Total attempts made.
        attempts: u32,
        /// The last attempt's failure.
        cause: InterlagError,
    },
    /// The repetition belongs to another shard of a scoped sweep
    /// ([`StudyScope`]) and was neither computed nor journalled here: the
    /// result slot is an empty placeholder that only exists to keep the
    /// study shape rectangular. Skipped slots never reach a journal — the
    /// shard that owns the slot writes the real record.
    Skipped,
}

impl RepOutcome {
    /// `true` if the repetition never produced a measurement.
    pub fn is_abandoned(&self) -> bool {
        matches!(self, RepOutcome::Abandoned { .. })
    }

    /// `true` if the repetition's final attempt hit the watchdog deadline.
    pub fn is_timed_out(&self) -> bool {
        matches!(self, RepOutcome::TimedOut { .. })
    }

    /// `true` if the repetition produced a real measurement (its result
    /// slot is not a placeholder).
    pub fn is_measured(&self) -> bool {
        matches!(self, RepOutcome::Ok | RepOutcome::Retried { .. })
    }

    /// `true` if the repetition was left to another shard of a scoped
    /// sweep.
    pub fn is_skipped(&self) -> bool {
        matches!(self, RepOutcome::Skipped)
    }
}

/// All repetitions of one configuration.
#[derive(Debug, Clone)]
pub struct ConfigSummary {
    /// Configuration name as the paper labels it.
    pub name: String,
    /// The pinned frequency for fixed configurations.
    pub freq: Option<Frequency>,
    /// Per-repetition results (one slot per repetition; abandoned slots
    /// hold an empty placeholder — check `outcomes`).
    pub reps: Vec<RepResult>,
    /// How each repetition concluded, parallel to `reps`.
    pub outcomes: Vec<RepOutcome>,
    /// `true` when the study injected faults: aggregate means then apply
    /// outlier rejection (median/MAD) so a fault-skewed repetition cannot
    /// drag the summary. `false` keeps the plain legacy means.
    pub robust: bool,
}

impl ConfigSummary {
    /// The repetitions that produced a measurement (abandoned and
    /// timed-out slots are skipped; with no recorded outcomes every slot
    /// counts).
    pub fn measured(&self) -> impl Iterator<Item = &RepResult> {
        self.reps.iter().enumerate().filter_map(|(i, r)| match self.outcomes.get(i) {
            Some(o) if !o.is_measured() => None,
            _ => Some(r),
        })
    }

    /// Number of repetitions abandoned after exhausting their retries.
    pub fn abandoned(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_abandoned()).count()
    }

    /// Number of repetitions whose final attempt was cancelled by the rep
    /// watchdog.
    pub fn timed_out(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_timed_out()).count()
    }

    /// Number of repetitions that needed at least one retry to succeed.
    pub fn retried(&self) -> usize {
        self.outcomes.iter().filter(|o| matches!(o, RepOutcome::Retried { .. })).count()
    }

    /// Mean dynamic energy across measured repetitions (outlier-rejected
    /// when the study ran with fault injection).
    pub fn mean_energy_mj(&self) -> f64 {
        let values: Vec<f64> = self.measured().map(|r| r.dynamic_energy_mj).collect();
        if values.is_empty() {
            return 0.0;
        }
        if self.robust {
            robust_mean(&values)
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    /// Mean irritation across measured repetitions (outlier-rejected when
    /// the study ran with fault injection).
    pub fn mean_irritation(&self) -> SimDuration {
        if self.robust {
            let values: Vec<f64> =
                self.measured().map(|r| r.irritation.as_micros() as f64).collect();
            if values.is_empty() {
                return SimDuration::ZERO;
            }
            return SimDuration::from_micros(robust_mean(&values).round() as u64);
        }
        let mut n = 0u64;
        let mut total = SimDuration::ZERO;
        for r in self.measured() {
            total += r.irritation;
            n += 1;
        }
        if n == 0 {
            SimDuration::ZERO
        } else {
            total / n
        }
    }

    /// Every measured lag, pooled across repetitions (Figure 11's violins
    /// pool repetitions the same way).
    pub fn pooled_lags_ms(&self) -> Vec<f64> {
        self.measured().flat_map(|r| r.profile.lags_ms()).collect()
    }
}

/// A complete per-workload study: Figures 11–14 read straight out of it.
#[derive(Debug, Clone)]
pub struct StudyResult {
    /// Which workload was studied.
    pub workload: String,
    /// Annotation-session statistics (Part A).
    pub annotation: AnnotationStats,
    /// The annotation database (reusable for further runs).
    pub db: AnnotationDb,
    /// Fixed-frequency configurations, slowest first.
    pub fixed: Vec<ConfigSummary>,
    /// The governors, in the paper's order: conservative, interactive,
    /// ondemand.
    pub governors: Vec<ConfigSummary>,
    /// The oracle.
    pub oracle: ConfigSummary,
    /// The oracle's plan and per-lag decisions.
    pub oracle_detail: Oracle,
}

impl StudyResult {
    /// All configurations in the paper's plotting order: fixed slowest →
    /// fastest, then conservative, interactive, ondemand, oracle.
    pub fn all_configs(&self) -> impl Iterator<Item = &ConfigSummary> {
        self.fixed.iter().chain(self.governors.iter()).chain(std::iter::once(&self.oracle))
    }

    /// A configuration by name.
    pub fn config(&self, name: &str) -> Option<&ConfigSummary> {
        self.all_configs().find(|c| c.name == name)
    }

    /// Mean energy normalised to the oracle, the y-axis of Figure 12
    /// (right) and Figure 14 (top).
    pub fn energy_normalised(&self, config: &ConfigSummary) -> f64 {
        let oracle = self.oracle.mean_energy_mj();
        if oracle == 0.0 {
            return 0.0;
        }
        config.mean_energy_mj() / oracle
    }
}

/// Everything one study repetition needs besides the attempt number:
/// its position in the sweep and the study's shared inputs. Built per
/// repetition so the retry loop only re-derives the fault streams.
struct RepContext<'a> {
    workload: &'a Workload,
    trace: &'a EventTrace,
    fc: &'a FaultConfig,
    db: &'a AnnotationDb,
    name: &'a str,
    config: usize,
    rep: u32,
}

/// Which half of a sharded sweep a [`StudyScope`] selects from.
///
/// The oracle's plan is derived from the *complete* stage-1 profile set,
/// which no single shard can know locally, so a sharded sweep dispatches
/// in two waves: stage-1 shards first, then oracle shards resuming from
/// the merged stage-1 journal (every stage-1 slot replays from cache, so
/// the plan each oracle shard derives is identical to a single-process
/// run's by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepStage {
    /// Fixed frequencies and the kernel governors (the first
    /// `(n_fixed + 3) × reps` jobs of the sweep grid).
    Stage1,
    /// The oracle configuration's repetitions.
    Oracle,
}

/// Restricts a study to one shard of the `(configuration, repetition)`
/// grid: slots this shard is not assigned come back as
/// [`RepOutcome::Skipped`] placeholders (unless the journal already
/// caches them, in which case they replay as usual).
///
/// Assignment is round-robin so the same `(shard, of, stage)` triple
/// always selects the same slots — the supervisor and the agent compute
/// the assignment independently and must agree. The scope is *not* part
/// of [`study_fingerprint`](crate::checkpoint::study_fingerprint):
/// journalled records are shard-independent, which is what makes shard
/// journals mergeable in the first place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StudyScope {
    /// This shard's index, `0 ≤ shard < of`.
    pub shard: u32,
    /// Total shard count in this wave.
    pub of: u32,
    /// Which wave of the sweep this shard belongs to.
    pub stage: SweepStage,
}

impl StudyScope {
    /// `true` when this scope owns stage-1 slot `(config, rep)` of a
    /// sweep with `reps` repetitions per configuration.
    pub fn owns_stage1(&self, config: usize, rep: u32, reps: u32) -> bool {
        self.stage == SweepStage::Stage1
            && (config * reps as usize + rep as usize) % self.of.max(1) as usize
                == self.shard as usize
    }

    /// `true` when this scope owns oracle repetition `rep`.
    pub fn owns_oracle(&self, rep: u32) -> bool {
        self.stage == SweepStage::Oracle && rep % self.of.max(1) == self.shard
    }
}

/// Optional study machinery: the durable journal to checkpoint into (and
/// replay from), and an externally ingested input trace.
///
/// [`Lab::study`] is `study_with` under default options; the CLI's
/// `--journal`/`--resume`/`--events` flags all funnel through here.
#[derive(Debug, Default)]
pub struct StudyOptions<'a> {
    /// Checkpoint every completed repetition into this journal and replay
    /// any repetition it already holds. The journal's fingerprint is the
    /// caller's problem: open it with [`StudyJournal::resume`] against
    /// [`crate::checkpoint::study_fingerprint`] of the same trace and
    /// config, or stale records will (correctly) be ignored.
    pub journal: Option<&'a StudyJournal>,
    /// Replay this trace instead of recording one from the workload
    /// script — the hardened-ingestion path for traces loaded from disk
    /// (possibly with salvage-dropped lines).
    pub trace: Option<EventTrace>,
    /// Run only this shard of the sweep grid; unowned slots come back as
    /// [`RepOutcome::Skipped`] placeholders instead of being computed.
    /// `None` (the default) runs the whole grid.
    pub scope: Option<StudyScope>,
}

/// The simulated laboratory.
#[derive(Debug)]
pub struct Lab {
    config: LabConfig,
    device: Device,
    meter: EnergyMeter,
    suggester: Suggester,
    mask: Mask,
}

impl Lab {
    /// Sets up the lab: builds the device and calibrates the power rig
    /// with the paper's micro-benchmark procedure.
    pub fn new(mut config: LabConfig) -> Self {
        config.device.capture = CaptureMode::Hdmi;
        // The device loop records into the same sink as the lab, so one
        // recorder sees the whole pipeline.
        config.device.obs = config.obs.clone();
        let measured =
            calibrate(&config.device.opps, &PowerModel::krait_like(), &config.calibration);
        let screen = config.device.screen;
        // The standard mask set: status bar (clock), cursor, spinner.
        let mask = {
            let mut m = screen.status_bar_mask();
            m.exclude(screen.cursor_rect);
            m.exclude(screen.spinner_rect);
            m
        };
        let suggester = Suggester::new(SuggesterConfig {
            mask: mask.clone(),
            tolerance: config.tolerance,
            min_still_run: config.min_still_run,
        });
        let device = Device::new(config.device.clone());
        Lab { config, device, meter: EnergyMeter::new(measured), suggester, mask }
    }

    /// The lab with default settings.
    pub fn with_defaults() -> Self {
        Lab::new(LabConfig::default())
    }

    /// The calibrated power table (the oracle's efficient frequency comes
    /// from here).
    pub fn power_table(&self) -> &MeasuredPowerTable {
        self.meter.table()
    }

    /// The energy meter, for measuring runs outside [`Lab::study`]
    /// (Figure 3 meters a single window of two runs).
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// The device in use.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Executes one run of `workload` under `governor`, replaying `trace`.
    ///
    /// # Errors
    ///
    /// [`InterlagError::Device`] if the device run fails.
    pub fn run(
        &self,
        workload: &Workload,
        trace: EventTrace,
        governor: &mut dyn Governor,
    ) -> Result<RunArtifacts, InterlagError> {
        Ok(self.device.run(
            &workload.script,
            ReplayAgent::new(trace),
            governor,
            workload.run_until(),
        )?)
    }

    /// Part A: annotates the workload from a reference execution at the
    /// fastest fixed frequency, with the ground-truth picker playing the
    /// human. Returns the database, session statistics and the reference
    /// run itself. The reference run is never fault-injected.
    ///
    /// # Errors
    ///
    /// [`InterlagError::Device`] if the reference run fails.
    pub fn annotate_workload(
        &self,
        workload: &Workload,
    ) -> Result<(AnnotationDb, AnnotationStats, RunArtifacts), InterlagError> {
        self.annotate_workload_from(workload, workload.script.record_trace())
    }

    /// [`Lab::annotate_workload`] replaying a caller-supplied trace — the
    /// path a study takes when its input events were ingested from disk
    /// rather than recorded from the script.
    ///
    /// # Errors
    ///
    /// [`InterlagError::Device`] if the reference run fails.
    pub fn annotate_workload_from(
        &self,
        workload: &Workload,
        trace: EventTrace,
    ) -> Result<(AnnotationDb, AnnotationStats, RunArtifacts), InterlagError> {
        let _span = self.config.obs.wall_span("annotate");
        self.config.obs.count(Counter::AnnotateRuns, 1);
        let mut reference_gov = FixedGovernor::new(self.config.device.opps.max_freq());
        let run = self.run(workload, trace, &mut reference_gov)?;
        let picker = GroundTruthPicker::new(&run);
        let (db, stats) = annotate(
            &run,
            &self.suggester,
            &picker,
            &self.mask,
            self.config.tolerance,
            &workload.name,
        );
        Ok((db, stats, run))
    }

    /// Part B for one run: marks up the video and meters the energy.
    /// Irritation is filled in later once the threshold model exists.
    fn measure(&self, run: &RunArtifacts, db: &AnnotationDb, name: &str) -> RepResult {
        self.measure_cancellable(run, db, name, &CancelToken::none())
            .expect("an uncancellable measurement cannot time out")
    }

    /// [`Lab::measure`] under a watchdog: the matcher walk polls `cancel`,
    /// and a cancelled markup surfaces as [`InterlagError::Timeout`]
    /// rather than a partially-matched profile — a half-measured
    /// repetition must never be journalled or aggregated as if complete.
    ///
    /// # Errors
    ///
    /// [`InterlagError::Timeout`] if `cancel` fired during the markup.
    fn measure_cancellable(
        &self,
        run: &RunArtifacts,
        db: &AnnotationDb,
        name: &str,
        cancel: &CancelToken,
    ) -> Result<RepResult, InterlagError> {
        let video = run.video.as_ref().expect("study runs capture video");
        let (profile, failures) = {
            let _span = self.config.obs.wall_span("match");
            mark_up_cancellable(
                video,
                &run.lag_beginnings(),
                db,
                name,
                &MatchPolicy::strict(),
                &self.config.obs,
                cancel,
            )
        };
        if failures.iter().any(|&(_, f)| f == MatchFailure::Cancelled) {
            return Err(InterlagError::Timeout);
        }
        let energy = self.meter.measure(&run.activity);
        Ok(RepResult {
            profile,
            dynamic_energy_mj: energy.dynamic_mj,
            irritation: SimDuration::ZERO,
            match_failures: failures.len(),
            input_faults: run.input_faults,
        })
    }

    /// One fault-injected attempt of a study repetition: every stage
    /// boundary wrapped with the injectors, streams derived from
    /// `(seed, config, rep, attempt)`, markup with tolerance escalation.
    /// Any stage failure — including lags the recovery ladder could not
    /// resolve — comes back as an error for the retry loop. The repetition
    /// coordinates and shared inputs travel in a [`RepContext`]; only the
    /// attempt number varies between retries.
    fn faulted_attempt(
        &self,
        ctx: &RepContext<'_>,
        attempt: u32,
        governor: &mut dyn Governor,
        cancel: &CancelToken,
    ) -> Result<RepResult, InterlagError> {
        let fc = ctx.fc;
        let mut streams =
            FaultStreams::derive(fc.seed, ctx.config as u64, ctx.rep as u64, attempt as u64);
        let replayer = FaultyReplayer::new(
            ReplayAgent::new(self.jittered_trace(ctx.trace, ctx.rep)),
            fc.replay,
            streams.replay,
        );
        let mut governor = FaultyGovernor::new(governor, fc.dvfs, streams.dvfs);
        // The wedge wraps outermost: a wedged attempt stalls wall-clock
        // time without touching simulated decisions, which is exactly what
        // the watchdog token passed below exists to cancel.
        let mut governor = WedgedGovernor::new(&mut governor, fc.wedge, &mut streams.wedge);
        let mut capture = FaultyCapture::new(HdmiCapture::new(), fc.capture, streams.capture);
        let run = {
            let _span = self.config.obs.wall_span("replay");
            self.device.run_with_capture_cancellable(
                &ctx.workload.script,
                replayer,
                &mut governor,
                ctx.workload.run_until(),
                &mut capture,
                cancel,
            )?
        };
        let video = run.video.as_ref().ok_or(InterlagError::MissingVideo)?;
        let (profile, failures) = {
            let _span = self.config.obs.wall_span("match");
            mark_up_cancellable(
                video,
                &run.lag_beginnings(),
                ctx.db,
                ctx.name,
                &self.config.recovery,
                &self.config.obs,
                cancel,
            )
        };
        if let Some(&(interaction_id, failure)) = failures.first() {
            if failures.iter().any(|&(_, f)| f == MatchFailure::Cancelled) {
                return Err(InterlagError::Timeout);
            }
            return Err(InterlagError::Match { interaction_id, failure });
        }
        let mut power_rng = streams.power;
        let (activity, _) = fc.power.perturb(&run.activity, &mut power_rng);
        let energy = self.meter.measure(&activity);
        Ok(RepResult {
            profile,
            dynamic_energy_mj: energy.dynamic_mj,
            irritation: SimDuration::ZERO,
            match_failures: 0,
            input_faults: run.input_faults,
        })
    }

    /// The self-healing repetition loop: run an attempt under a fresh
    /// watchdog token, retry with a re-derived fault stream on failure,
    /// abandon with the last cause once the budget is spent. A
    /// watchdog-cancelled attempt is charged against the same budget; if
    /// the *final* attempt timed out the repetition is recorded as
    /// [`RepOutcome::TimedOut`]. Abandoned and timed-out slots carry an
    /// empty profile so result shapes stay rectangular; aggregates skip
    /// them via the recorded outcome.
    fn rep_with_retries<A>(
        &self,
        name: &str,
        wall_budget: Option<std::time::Duration>,
        mut attempt_fn: A,
    ) -> (RepResult, RepOutcome)
    where
        A: FnMut(u32, &CancelToken) -> Result<RepResult, InterlagError>,
    {
        let budget = self.config.retry_budget;
        let mut last_err = None;
        for attempt in 0..=budget {
            let cancel = match wall_budget {
                Some(d) => CancelToken::with_budget(d),
                None => CancelToken::none(),
            };
            match attempt_fn(attempt, &cancel) {
                Ok(result) => {
                    let outcome = if attempt == 0 {
                        RepOutcome::Ok
                    } else {
                        RepOutcome::Retried { attempts: attempt + 1 }
                    };
                    return (result, outcome);
                }
                Err(e) => {
                    if e == InterlagError::Timeout {
                        self.config.obs.count(Counter::WatchdogFires, 1);
                    }
                    last_err = Some(e);
                }
            }
        }
        let cause = last_err.expect("retry loop made at least one attempt");
        let placeholder = placeholder_result(name);
        let outcome = if cause == InterlagError::Timeout {
            RepOutcome::TimedOut { attempts: budget + 1 }
        } else {
            RepOutcome::Abandoned { attempts: budget + 1, cause }
        };
        (placeholder, outcome)
    }

    /// Jitters input timings by ±`jitter_us` (repetition `rep` > 0), the
    /// run-to-run variation a real rig sees. See [`jitter_events`].
    fn jittered_trace(&self, trace: &EventTrace, rep: u32) -> EventTrace {
        jitter_events(trace, self.config.jitter_us, rep)
    }

    /// Runs `count` independent jobs across the configured worker threads
    /// and returns their results in job order. Every job is a pure
    /// function of its index, so the output is identical for any worker
    /// count; with one worker (or one job) the jobs simply run inline.
    /// `interlag tune` runs its measurement slots on this pool too.
    pub fn run_matrix<T, F>(&self, count: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let obs = &self.config.obs;
        let workers = self.config.workers.max(1).min(count.max(1));
        if workers == 1 {
            return (0..count)
                .map(|i| {
                    obs.count(Counter::WorkerJobs, 1);
                    job(i)
                })
                .collect();
        }
        // A shared-counter work queue: each worker claims the next
        // unclaimed job until none remain. Slots are per-job, so workers
        // never contend on a result lock while another job is running.
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            let (next, slots, job) = (&next, &slots, &job);
            for w in 0..workers {
                s.spawn(move || {
                    // Tag the thread so wall spans land on this worker's
                    // trace track, and account its busy/idle split.
                    interlag_obs::set_worker(w as u32 + 1);
                    let started = std::time::Instant::now();
                    let mut busy = std::time::Duration::ZERO;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let t0 = std::time::Instant::now();
                        let result = job(i);
                        busy += t0.elapsed();
                        obs.count(Counter::WorkerJobs, 1);
                        *slots[i].lock().expect("result slot poisoned") = Some(result);
                    }
                    if obs.is_enabled() {
                        let total = started.elapsed();
                        obs.worker_time(
                            w as u32 + 1,
                            busy.as_nanos() as u64,
                            total.saturating_sub(busy).as_nanos() as u64,
                        );
                    }
                    interlag_obs::set_worker(0);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("work queue covered every job")
            })
            .collect()
    }

    /// Runs the full study for one workload: annotate once, then replay
    /// under every fixed frequency, every governor and the oracle, with
    /// the configured repetitions.
    ///
    /// The configuration×repetition sweep — by far the dominant cost —
    /// runs on [`LabConfig::workers`] threads. Each (configuration,
    /// repetition) run is an independent pure function of the recorded
    /// trace and the governor, so results are reassembled in the paper's
    /// deterministic order and are bit-identical to a serial sweep. The
    /// oracle runs in a second stage because its plan is built from the
    /// fixed-frequency profiles of the first.
    ///
    /// With [`LabConfig::faults`] set, every run (except the annotation
    /// reference) goes through the fault injectors, failed repetitions are
    /// retried up to [`LabConfig::retry_budget`] times with re-derived
    /// fault streams, and each repetition's [`RepOutcome`] is recorded in
    /// its [`ConfigSummary`]. A repetition that exhausts its budget is
    /// abandoned — reported with its cause, excluded from aggregates — and
    /// the study still completes.
    ///
    /// # Errors
    ///
    /// [`InterlagError::Device`] if the fault-exempt annotation reference
    /// run fails; injected faults never abort the study.
    pub fn study(&self, workload: &Workload) -> Result<StudyResult, InterlagError> {
        self.study_with(workload, StudyOptions::default())
    }

    /// [`Lab::study`] with [`StudyOptions`]: optionally checkpointing
    /// every completed repetition into a durable journal (and replaying
    /// the repetitions an interrupted sweep already paid for), and
    /// optionally replaying an externally ingested trace.
    ///
    /// Journalled and resumed studies are *byte-identical* to an
    /// uninterrupted run at any worker count: each repetition is a pure
    /// function of its coordinates, the journal stores results in
    /// bit-exact form, and irritation — the only cross-repetition derived
    /// quantity — is recomputed after reassembly in both paths.
    ///
    /// # Errors
    ///
    /// As for [`Lab::study`].
    pub fn study_with(
        &self,
        workload: &Workload,
        options: StudyOptions<'_>,
    ) -> Result<StudyResult, InterlagError> {
        const GOVERNOR_NAMES: [&str; 3] = ["conservative", "interactive", "ondemand"];
        let obs = &self.config.obs;
        let _study_span = obs.wall_span("study");
        let trace = options.trace.clone().unwrap_or_else(|| workload.script.record_trace());
        let (db, annotation, reference_run) =
            self.annotate_workload_from(workload, trace.clone())?;
        let opps = self.config.device.opps.clone();
        let reps = self.config.reps.max(1);
        let faults = self.config.faults;
        let robust = faults.as_ref().is_some_and(|f| !f.is_quiescent());
        let wall_budget =
            self.config.watchdog.budget_for(workload.run_until().saturating_since(SimTime::ZERO));
        let journal = options.journal;
        let scope = options.scope;
        if let Some(j) = journal {
            obs.count(Counter::JournalTornRecords, j.torn() as u64);
        }
        // Journal interposition for one repetition slot: replay the cached
        // result if the journal holds one, otherwise compute and append.
        // Slots a scoped (sharded) study does not own are skipped with a
        // placeholder — never computed, never journalled — unless the
        // journal already caches them (an oracle-wave agent replays the
        // whole merged stage-1 prefix this way).
        let journalled = |config: usize,
                          rep: u32,
                          owned: bool,
                          name: &str,
                          compute: &mut dyn FnMut() -> (RepResult, RepOutcome)|
         -> (RepResult, RepOutcome) {
            if let Some(j) = journal {
                if let Some(hit) = j.cached(config, rep) {
                    obs.count(Counter::JournalReplayedReps, 1);
                    return hit;
                }
            }
            if !owned {
                return (placeholder_result(name), RepOutcome::Skipped);
            }
            let out = compute();
            if let Some(j) = journal {
                j.record(config, rep, &out.0, &out.1);
                obs.count(Counter::JournalAppends, 1);
            }
            out
        };

        // --- stage 1: fixed frequencies and governors --------------------
        // Job i = configuration (i / reps), repetition (i % reps), with
        // configurations ordered as the paper plots them: fixed slowest →
        // fastest, then conservative, interactive, ondemand.
        let freqs: Vec<Frequency> = opps.frequencies().collect();
        let n_fixed = freqs.len();
        let per_rep = reps as usize;
        // One repetition of one configuration, with the governor built
        // fresh by the caller; retries reuse the governor (its `init`
        // resets state) but re-derive every fault stream.
        let run_rep = |config: usize,
                       rep: u32,
                       gov: &mut dyn Governor,
                       name: &str|
         -> (RepResult, RepOutcome) {
            match &faults {
                None => self.rep_with_retries(name, wall_budget, |_, cancel| {
                    let run = {
                        let _span = obs.wall_span("replay");
                        self.device.run_cancellable(
                            &workload.script,
                            ReplayAgent::new(self.jittered_trace(&trace, rep)),
                            &mut *gov,
                            workload.run_until(),
                            cancel,
                        )?
                    };
                    self.measure_cancellable(&run, &db, name, cancel)
                }),
                Some(fc) => {
                    let ctx =
                        RepContext { workload, trace: &trace, fc, db: &db, name, config, rep };
                    self.rep_with_retries(name, wall_budget, |attempt, cancel| {
                        self.faulted_attempt(&ctx, attempt, &mut *gov, cancel)
                    })
                }
            }
        };
        // Per-repetition telemetry: outcome counters (commutative, so
        // identical at any worker count) plus — when recording — the
        // repetition's simulated-time track with its stage and lag spans.
        // Everything here derives from simulated time or fixed inputs, so
        // the sim-axis exports stay byte-stable across worker counts.
        let trace_end_us = trace.iter().last().map(|e| e.time.as_micros()).unwrap_or(0);
        let record_rep = |name: &str, rep: u32, (result, outcome): &(RepResult, RepOutcome)| {
            // Skipped slots belong to another shard: they did no work here
            // and must not count as repetitions of this (partial) study.
            if outcome.is_skipped() {
                return;
            }
            obs.count(Counter::StudyReps, 1);
            match outcome {
                RepOutcome::Ok => {
                    obs.count(Counter::RepsOk, 1);
                    obs.observe(Hist::RetryAttemptsPerRep, 1);
                }
                RepOutcome::Retried { attempts } => {
                    obs.count(Counter::RepsRetried, 1);
                    obs.count(Counter::RetryAttempts, u64::from(attempts - 1));
                    obs.observe(Hist::RetryAttemptsPerRep, u64::from(*attempts));
                }
                RepOutcome::TimedOut { attempts } => {
                    obs.count(Counter::RepsTimedOut, 1);
                    obs.count(Counter::RetryAttempts, u64::from(attempts - 1));
                    obs.observe(Hist::RetryAttemptsPerRep, u64::from(*attempts));
                }
                RepOutcome::Abandoned { attempts, .. } => {
                    obs.count(Counter::RepsAbandoned, 1);
                    obs.count(Counter::RetryAttempts, u64::from(attempts - 1));
                    obs.observe(Hist::RetryAttemptsPerRep, u64::from(*attempts));
                }
                RepOutcome::Skipped => unreachable!("skipped slots return early above"),
            }
            if obs.is_enabled() {
                let track = obs.track(&format!("{name}/rep{rep}"));
                obs.sim_span("replay", track, 0, trace_end_us);
                obs.sim_span("capture", track, 0, workload.run_until().as_micros());
                for e in result.profile.entries() {
                    obs.sim_span(
                        "lag",
                        track,
                        e.input_time.as_micros(),
                        (e.input_time + e.lag).as_micros(),
                    );
                }
            }
        };
        let results = self.run_matrix((n_fixed + GOVERNOR_NAMES.len()) * per_rep, |i| {
            let _span = obs.wall_span("study-rep");
            let config = i / per_rep;
            let rep = (i % per_rep) as u32;
            let owned = scope.is_none_or(|s| s.owns_stage1(config, rep, reps));
            if config < n_fixed {
                let freq = freqs[config];
                let name = format!("fixed-{freq}");
                let out = journalled(config, rep, owned, &name, &mut || {
                    if freq == opps.max_freq() && rep == 0 {
                        // Reuse the annotation reference run: it doubles as
                        // the fastest configuration's first repetition and
                        // stays fault-exempt even in a fault-injected study.
                        (self.measure(&reference_run, &db, &name), RepOutcome::Ok)
                    } else {
                        let mut gov = FixedGovernor::new(freq);
                        run_rep(config, rep, &mut gov, &name)
                    }
                });
                record_rep(&name, rep, &out);
                out
            } else {
                let which = GOVERNOR_NAMES[config - n_fixed];
                let out = journalled(config, rep, owned, which, &mut || {
                    let mut conservative;
                    let mut interactive;
                    let mut ondemand;
                    let gov: &mut dyn Governor = match which {
                        "conservative" => {
                            conservative = Conservative::default();
                            &mut conservative
                        }
                        "interactive" => {
                            interactive = Interactive::for_table(&opps);
                            &mut interactive
                        }
                        _ => {
                            ondemand = Ondemand::default();
                            &mut ondemand
                        }
                    };
                    run_rep(config, rep, gov, which)
                });
                record_rep(which, rep, &out);
                out
            }
        });

        // Reassemble in paper order: the job layout above is config-major,
        // so each summary takes the next `reps` results.
        let mut results = results.into_iter();
        let mut take_config = |name: String, freq: Option<Frequency>| {
            let (reps, outcomes): (Vec<RepResult>, Vec<RepOutcome>) =
                results.by_ref().take(per_rep).unzip();
            ConfigSummary { name, freq, reps, outcomes, robust }
        };
        let fixed: Vec<ConfigSummary> =
            freqs.iter().map(|&freq| take_config(format!("fixed-{freq}"), Some(freq))).collect();
        let governors: Vec<ConfigSummary> =
            GOVERNOR_NAMES.iter().map(|&which| take_config(which.to_string(), None)).collect();

        // The threshold models: 110 % of the fastest frequency's profile,
        // one per repetition — each repetition jitters the input timings,
        // so a lag must be compared against the reference measured with
        // the *same* inputs (otherwise frame-grid quantisation leaks a
        // few spurious milliseconds of irritation into the baselines). If
        // a fastest-frequency repetition was abandoned, its model falls
        // back to the first surviving repetition (repetition 0 reuses the
        // fault-exempt reference run, so one always survives).
        let fastest = fixed.last().expect("at least one OPP");
        let fallback_model_profile = fastest
            .measured()
            .next()
            .map(|r| r.profile.clone())
            .unwrap_or_else(|| fastest.reps[0].profile.clone());
        let models: Vec<ThresholdModel> = fastest
            .reps
            .iter()
            .zip(&fastest.outcomes)
            .map(|(r, o)| {
                let profile = if o.is_measured() {
                    r.profile.clone()
                } else {
                    fallback_model_profile.clone()
                };
                ThresholdModel::paper_rule(profile)
            })
            .collect();

        // --- stage 2: oracle ---------------------------------------------
        // Needs stage 1: the plan is derived from the fixed-frequency
        // profiles — the first surviving repetition of each (repetition 0
        // unless faults abandoned it).
        let fixed_profiles: BTreeMap<Frequency, LagProfile> = fixed
            .iter()
            .filter_map(|c| {
                let rep = c.measured().next()?;
                Some((c.freq.expect("fixed configs have a frequency"), rep.profile.clone()))
            })
            .collect();
        let oracle_cfg = OracleConfig::paper(self.power_table().most_efficient_freq());
        // A scoped stage-1 shard may own no fixed-frequency slot at all
        // (and never owns an oracle slot), leaving it nothing to build the
        // oracle from; a degenerate constant-frequency plan keeps the
        // partial result well-formed without running anything.
        let oracle_detail = if fixed_profiles.is_empty() {
            Oracle { plan: FrequencyPlan::new(opps.max_freq()), decisions: Vec::new() }
        } else {
            build_oracle(&fixed_profiles, &oracle_cfg)
        };
        let oracle_results: Vec<(RepResult, RepOutcome)> = self.run_matrix(per_rep, |rep| {
            let _span = obs.wall_span("study-rep");
            let config = n_fixed + GOVERNOR_NAMES.len();
            let owned = scope.is_none_or(|s| s.owns_oracle(rep as u32));
            let out = journalled(config, rep as u32, owned, "oracle", &mut || {
                let mut gov = PlanGovernor::new("oracle", oracle_detail.plan.clone());
                run_rep(config, rep as u32, &mut gov, "oracle")
            });
            record_rep("oracle", rep as u32, &out);
            out
        });
        let (oracle_reps, oracle_outcomes): (Vec<RepResult>, Vec<RepOutcome>) =
            oracle_results.into_iter().unzip();
        let oracle_summary = ConfigSummary {
            name: "oracle".to_string(),
            freq: None,
            reps: oracle_reps,
            outcomes: oracle_outcomes,
            robust,
        };

        // --- irritation pass ---------------------------------------------------
        let mut result = StudyResult {
            workload: workload.name.clone(),
            annotation,
            db,
            fixed,
            governors,
            oracle: oracle_summary,
            oracle_detail,
        };
        let _irritate_span = obs.wall_span("irritate");
        for summary in result
            .fixed
            .iter_mut()
            .chain(result.governors.iter_mut())
            .chain(std::iter::once(&mut result.oracle))
        {
            for (rep_idx, rep) in summary.reps.iter_mut().enumerate() {
                if summary.outcomes.get(rep_idx).is_some_and(|o| !o.is_measured()) {
                    continue;
                }
                let model = &models[rep_idx.min(models.len() - 1)];
                rep.irritation = user_irritation(&rep.profile, model).total();
            }
        }
        Ok(result)
    }
}

impl Default for Lab {
    fn default() -> Self {
        Lab::with_defaults()
    }
}

/// The empty result filling a slot that carries no measurement — an
/// abandoned, timed-out or (in a sharded sweep) skipped repetition.
/// Aggregates exclude these slots via their recorded [`RepOutcome`].
pub fn placeholder_result(name: &str) -> RepResult {
    RepResult {
        profile: LagProfile::new(name),
        dynamic_energy_mj: 0.0,
        irritation: SimDuration::ZERO,
        match_failures: 0,
        input_faults: 0,
    }
}

/// Applies per-event timing jitter of ±`jitter_us` to `trace` for
/// repetition `rep`, preserving event order and emitting *strictly
/// increasing* timestamps. Replay and the capture path assume monotone
/// time, and `VideoStream::push` rejects duplicates outright, so a pair of
/// events that the jitter (or the clamp at zero) pushes onto the same
/// microsecond would poison the run; colliding timestamps are bumped
/// forward by 1 µs instead. Repetition 0 — and a zero jitter setting —
/// replays the recording untouched.
///
/// Public because the governor-tuning sweep ([`crate::tune`]) jitters its
/// repetitions with exactly the study's rule, so tuned and studied
/// repetitions of the same `(trace, rep)` see the same input timing.
pub fn jitter_events(trace: &EventTrace, jitter_us: u64, rep: u32) -> EventTrace {
    if rep == 0 || jitter_us == 0 {
        return trace.clone();
    }
    let mut rng = SplitMix64::new(0x0e9_5eed ^ rep as u64);
    let j = jitter_us as i64;
    let mut last: Option<SimTime> = None;
    trace
        .iter()
        .map(|e| {
            let offset = rng.next_range(-j, j);
            let mut t = SimTime::from_micros((e.time.as_micros() as i64 + offset).max(0) as u64);
            if let Some(prev) = last {
                if t <= prev {
                    t = prev + SimDuration::from_micros(1);
                }
            }
            last = Some(t);
            interlag_evdev::event::TimedEvent::new(t, e.device, e.event)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::mark_up;
    use interlag_device::script::InteractionCategory;
    use interlag_workloads::gen::{WorkloadBuilder, MCYCLES};

    /// A ~25-second workload small enough for debug-mode tests.
    fn mini_workload() -> Workload {
        let mut b = WorkloadBuilder::new(0xfee1);
        b.app_launch("launch", 400 * MCYCLES, 5, InteractionCategory::Common);
        b.think_ms(2_000, 3_000);
        b.quick_tap("tap a", 150 * MCYCLES, InteractionCategory::SimpleFrequent);
        b.think_ms(2_000, 3_000);
        b.spurious_tap("miss");
        b.think_ms(1_500, 2_500);
        b.heavy_with_progress("save", 1_200 * MCYCLES, InteractionCategory::Complex);
        b.think_ms(2_000, 3_000);
        b.quick_tap("tap b", 120 * MCYCLES, InteractionCategory::SimpleFrequent);
        b.background_burst("sync", interlag_evdev::time::SimDuration::from_secs(1), 200 * MCYCLES);
        b.build("mini", "miniature study workload")
    }

    fn tiny_lab() -> Lab {
        // Reduce the OPP sweep cost: keep the full table (the study needs
        // it) but a single repetition.
        Lab::new(LabConfig { reps: 1, ..Default::default() })
    }

    proptest::proptest! {
        /// The contract replay depends on: jittered traces keep their
        /// length and stay *strictly* increasing in time, whatever the
        /// input spacing. The old clamp-to-last produced duplicate
        /// timestamps whenever jitter pulled neighbours together.
        #[test]
        fn jitter_keeps_timestamps_strictly_increasing(
            mut times in proptest::collection::vec(0u64..5_000_000, 1..64),
            jitter_us in 1u64..10_000,
            rep in 1u32..8,
        ) {
            use interlag_evdev::event::{EventType, InputEvent, TimedEvent};
            times.sort_unstable();
            let trace: EventTrace = times
                .iter()
                .map(|&t| {
                    TimedEvent::new(
                        SimTime::from_micros(t),
                        0,
                        InputEvent::new(EventType::Syn, 0, 0),
                    )
                })
                .collect();
            let out = jitter_events(&trace, jitter_us, rep);
            proptest::prop_assert_eq!(out.iter().count(), times.len());
            let mut prev: Option<SimTime> = None;
            for e in out.iter() {
                if let Some(p) = prev {
                    proptest::prop_assert!(e.time > p, "{:?} !> {:?}", e.time, p);
                }
                prev = Some(e.time);
            }
            // Repetition 0 replays the recording untouched.
            let identity = jitter_events(&trace, jitter_us, 0);
            for (a, b) in trace.iter().zip(identity.iter()) {
                proptest::prop_assert_eq!(a.time, b.time);
            }
        }
    }

    #[test]
    fn annotation_covers_every_actual_lag() {
        let lab = tiny_lab();
        let w = mini_workload();
        let (db, stats, run) = lab.annotate_workload(&w).expect("annotate");
        assert_eq!(db.len(), run.lag_beginnings().len());
        assert_eq!(stats.unannotated, 0);
        assert!(stats.reduction_factor() > 3.0, "factor {}", stats.reduction_factor());
    }

    #[test]
    fn matcher_agrees_with_ground_truth_within_a_frame() {
        let lab = tiny_lab();
        let w = mini_workload();
        let (db, _, _) = lab.annotate_workload(&w).expect("annotate");
        // Measure a *different* configuration than the annotation
        // reference.
        let mut gov = FixedGovernor::new(Frequency::from_mhz(960));
        let run = lab.run(&w, w.script.record_trace(), &mut gov).expect("clean run");
        let video = run.video.as_ref().unwrap();
        let (profile, failures) = mark_up(video, &run.lag_beginnings(), &db, "fixed-0.96");
        assert!(failures.is_empty(), "failures: {failures:?}");
        let budget = lab.config.device.frame_period + lab.config.device.quantum * 2;
        for rec in run.interactions.iter().filter(|r| !r.spurious && r.triggered) {
            let truth = rec.true_lag().expect("serviced");
            let measured = profile.lag_of(rec.id).expect("matched");
            let err = if measured > truth { measured - truth } else { truth - measured };
            assert!(err <= budget, "lag {}: measured {measured} vs truth {truth}", rec.id);
        }
    }

    #[test]
    fn study_produces_the_full_configuration_matrix() {
        let lab = tiny_lab();
        let w = mini_workload();
        let study = lab.study(&w).expect("study");
        assert_eq!(study.fixed.len(), 14);
        assert_eq!(study.governors.len(), 3);
        assert_eq!(study.all_configs().count(), 18);
        // Every config measured every lag.
        let lags = study.db.len();
        for c in study.all_configs() {
            assert_eq!(c.reps.len(), 1);
            assert_eq!(c.reps[0].profile.len(), lags, "{}", c.name);
            assert_eq!(c.reps[0].match_failures, 0, "{}", c.name);
            assert!(c.reps[0].dynamic_energy_mj > 0.0);
        }
    }

    #[test]
    fn fastest_fixed_and_oracle_do_not_irritate() {
        let lab = tiny_lab();
        let w = mini_workload();
        let study = lab.study(&w).expect("study");
        let fastest = study.fixed.last().unwrap();
        assert_eq!(fastest.mean_irritation(), SimDuration::ZERO);
        assert_eq!(study.oracle.mean_irritation(), SimDuration::ZERO);
        // The slowest fixed frequency irritates.
        assert!(study.fixed[0].mean_irritation() > SimDuration::ZERO);
    }

    #[test]
    fn lag_medians_shrink_with_frequency() {
        let lab = tiny_lab();
        let w = mini_workload();
        let study = lab.study(&w).expect("study");
        let mean_of = |c: &ConfigSummary| c.reps[0].profile.mean_lag();
        let slow = mean_of(&study.fixed[0]);
        let mid = mean_of(&study.fixed[5]);
        let fast = mean_of(study.fixed.last().unwrap());
        assert!(slow > mid && mid > fast, "{slow} > {mid} > {fast}");
    }

    #[test]
    fn oracle_energy_beats_fastest_fixed() {
        let lab = tiny_lab();
        let w = mini_workload();
        let study = lab.study(&w).expect("study");
        let fastest = study.fixed.last().unwrap();
        assert!(
            study.oracle.mean_energy_mj() < fastest.mean_energy_mj(),
            "oracle {} vs fixed-max {}",
            study.oracle.mean_energy_mj(),
            fastest.mean_energy_mj()
        );
    }

    #[test]
    fn parallel_study_is_bit_identical_to_serial() {
        let w = mini_workload();
        let serial = Lab::new(LabConfig { reps: 2, workers: 1, ..Default::default() })
            .study(&w)
            .expect("study");
        let parallel = Lab::new(LabConfig { reps: 2, workers: 4, ..Default::default() })
            .study(&w)
            .expect("study");

        assert_eq!(serial.workload, parallel.workload);
        assert_eq!(serial.annotation, parallel.annotation);
        assert_eq!(serial.db, parallel.db);
        assert_eq!(serial.oracle_detail, parallel.oracle_detail);

        let mut configs = 0;
        for (s, p) in serial.all_configs().zip(parallel.all_configs()) {
            configs += 1;
            assert_eq!(s.name, p.name);
            assert_eq!(s.freq, p.freq);
            assert_eq!(s.reps.len(), p.reps.len(), "{}", s.name);
            for (sr, pr) in s.reps.iter().zip(&p.reps) {
                assert_eq!(sr.profile, pr.profile, "{}", s.name);
                // Bit-identical, not merely approximately equal.
                assert_eq!(
                    sr.dynamic_energy_mj.to_bits(),
                    pr.dynamic_energy_mj.to_bits(),
                    "{}",
                    s.name
                );
                assert_eq!(sr.irritation, pr.irritation, "{}", s.name);
                assert_eq!(sr.match_failures, pr.match_failures, "{}", s.name);
            }
        }
        assert_eq!(configs, 18);
    }

    #[test]
    fn repetitions_vary_but_agree() {
        let lab = Lab::new(LabConfig { reps: 2, ..Default::default() });
        let mut b = WorkloadBuilder::new(0xabc);
        b.app_launch("launch", 300 * MCYCLES, 4, InteractionCategory::Common);
        b.think_ms(1_500, 2_000);
        b.quick_tap("tap", 100 * MCYCLES, InteractionCategory::SimpleFrequent);
        let w = b.build("mini2", "two-interaction workload");
        let study = lab.study(&w).expect("study");
        let ond = study.config("ondemand").unwrap();
        assert_eq!(ond.reps.len(), 2);
        let (a, b_) = (&ond.reps[0], &ond.reps[1]);
        // Jitter introduces some variation, but the same order of
        // magnitude.
        let ratio = a.dynamic_energy_mj / b_.dynamic_energy_mj;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }
}
