//! The simulated mobile device and its execution loop.
//!
//! [`Device::run`] replays a recorded input trace against a
//! [`DeviceScript`] under a chosen [`Governor`], reproducing one "workload
//! execution" of the paper: input events are delivered from the replay
//! agent, the scripted app reacts by spawning compute tasks, the single
//! active core (the paper disables the other three, §III-C) executes them
//! at the governor-selected frequency, the screen repaints as phases
//! complete, and the HDMI tap captures the video — while frequency/load
//! traces accumulate for the energy model.
//!
//! Time is measured in 1 ms quanta: well below the 33 ms frame period and
//! the 20 ms governor sampling period, so every externally visible timing
//! is accurate to a fraction of the measurement resolution. The loop does
//! not visit every quantum, though. Each iteration computes an **event
//! horizon** — the first quantum boundary at which its output can change:
//! an input poll, scripted work, a system tick, a spinner render spawn, an
//! I/O resume, a deferred scene update, the governor's next declared
//! decision ([`Governor::next_decision`]) or a decoration change — and,
//! when the core would run one task without finishing a phase or sit idle
//! until then, covers all those quanta in one step. The result is
//! identical to stepping each quantum: activity samples of equal frequency
//! merge anyway, busy time and cycle counts are exact integer multiples,
//! and every poll, decision and repaint lands in the same quantum as it
//! would have. The governor samples and frame ticks a step covers are
//! folded in closed form: samples are counted and restart the load window
//! without reaching the governor, and the frames before the step's last
//! quantum capture the screen the step started with, which nothing in the
//! step could change.
//!
//! Background work that can only ever show as busy time — no scene update,
//! no I/O wait ([`crate::task::Task::is_silent`]) — is invisible to the
//! horizon: while nothing else is queued, its completions and the system
//! ticks that add to it fall inside a step, which accounts the core's
//! busy time in closed form as the per-quantum FIFO backlog would have
//! it. A session's think time, where only the tick runs, then costs one
//! step per input, decision or decoration change rather than three per
//! tick.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError, Weak};

use serde::{Deserialize, Serialize};

use interlag_evdev::event::TimedEvent;
use interlag_evdev::mt::{ContactEvent, MtDecoder, Point};
use interlag_evdev::replay::{ReplayStats, Replayer};
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_journal::CancelToken;
use interlag_power::energy::{ActivitySample, ActivityTrace};
use interlag_power::opp::{Frequency, OppTable};
use interlag_video::capture::{CameraCapture, CaptureLink};
use interlag_video::frame::FrameBuffer;
use interlag_video::stream::VideoStream;

use crate::dvfs::{Governor, LoadSample};
use crate::error::DeviceError;
use crate::render::{DecorationState, Renderer, ScreenConfig};
use crate::scene::Scene;
use crate::script::{DeviceScript, InteractionCategory};
use crate::task::{Task, TaskKind, TaskSpec};

/// How many loop iterations run between watchdog polls. A [`Device`]
/// iteration may jump over many quanta, so polls count iterations, not
/// quanta: a quantum count advancing in jumps can step over multiples of
/// the stride for long stretches. Each iteration does a bounded amount of
/// work however far it jumps, so a fired token stops the run within 64
/// iterations' wall time. Polling every iteration would cost a clock read
/// per iteration under a deadline token, which the study's default
/// watchdog is.
pub const CANCEL_STRIDE: u64 = 64;

/// How the screen output is captured during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CaptureMode {
    /// No video (fastest; enough for energy/ground-truth studies).
    None,
    /// Clean HDMI capture (the paper's setup).
    Hdmi,
    /// Camera pointed at the screen, with sensor noise (the paper's
    /// abandoned first attempt; kept for the ablation).
    Camera {
        /// Noise seed.
        seed: u64,
    },
}

/// Static configuration of the simulated device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Panel geometry.
    pub screen: ScreenConfig,
    /// The CPU's operating points.
    pub opps: OppTable,
    /// Simulation step.
    pub quantum: SimDuration,
    /// Interval between captured frames.
    pub frame_period: SimDuration,
    /// Video capture path.
    pub capture: CaptureMode,
    /// Kernel + framework cost of handling one input packet, in cycles.
    pub input_cost_cycles: u64,
    /// UI-thread cost of producing one animation frame, in cycles. Render
    /// passes share the foreground queue, so heavy foreground work makes
    /// animations drop frames — jank.
    pub ui_render_cycles: u64,
    /// Observability sink for the execution loop (governor sampling,
    /// input boosts, captured frames). Disabled by default; the lab
    /// injects its own recorder so study telemetry includes device-level
    /// counters. Counts are accumulated locally and flushed once per run,
    /// so the quantum loop never touches shared state.
    pub obs: interlag_obs::Recorder,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            screen: ScreenConfig::default(),
            opps: OppTable::snapdragon_8074(),
            quantum: SimDuration::from_millis(1),
            frame_period: interlag_video::stream::FRAME_PERIOD_30FPS,
            capture: CaptureMode::Hdmi,
            input_cost_cycles: 150_000,
            ui_render_cycles: 8_000_000,
            obs: interlag_obs::Recorder::disabled(),
        }
    }
}

/// Ground truth about one interaction from the simulator's privileged
/// viewpoint. The video pipeline must *recover* these numbers without
/// looking at them; tests compare the two.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InteractionRecord {
    /// Interaction index within the run (and the script).
    pub id: usize,
    /// The script's label.
    pub label: String,
    /// When the triggering input packet was delivered; for untriggered
    /// interactions (trace ended early) the scripted start.
    pub input_time: SimTime,
    /// HCI category from the script.
    pub category: InteractionCategory,
    /// `true` if the input produced no app reaction (missed widget or
    /// swallowed event): a *spurious lag*.
    pub spurious: bool,
    /// `true` if the input was actually delivered during the run.
    pub triggered: bool,
    /// When the final phase of the response completed, if it did.
    pub service_time: Option<SimTime>,
}

impl InteractionRecord {
    /// The ground-truth interaction lag, if the interaction was serviced.
    pub fn true_lag(&self) -> Option<SimDuration> {
        self.service_time.map(|s| s.saturating_since(self.input_time))
    }
}

/// Everything one workload execution produces.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// The governor that ran.
    pub governor_name: String,
    /// Captured video, unless capture was off.
    pub video: Option<VideoStream>,
    /// Frequency/busy trace for the energy model.
    pub activity: ActivityTrace,
    /// Ground-truth interaction log.
    pub interactions: Vec<InteractionRecord>,
    /// Replay-agent timing statistics.
    pub replay: ReplayStats,
    /// Malformed input events the device tolerated (out-of-range slots,
    /// double downs, ups without a contact). Zero on clean traces; fault
    /// injection and corrupted recordings raise it.
    pub input_faults: usize,
    /// When the run ended.
    pub end_time: SimTime,
}

impl RunArtifacts {
    /// Input timestamps of non-spurious, triggered interactions — the lag
    /// beginnings the matcher walks from.
    pub fn lag_beginnings(&self) -> Vec<(usize, SimTime)> {
        self.interactions
            .iter()
            .filter(|r| r.triggered && !r.spurious)
            .map(|r| (r.id, r.input_time))
            .collect()
    }
}

/// The simulated phone.
///
/// A device may run many workloads, one after another or at once from
/// several threads: an equal screen is painted once and shared by every
/// run that shows it while any of them holds it.
///
/// # Examples
///
/// See the crate-level documentation for a complete record→replay→capture
/// round trip.
#[derive(Debug)]
pub struct Device {
    config: DeviceConfig,
    renderer: Renderer,
    screens: Mutex<ScreenMemo>,
}

/// The screens a device has painted, by content key: a screen is a pure
/// function of its scene and decorations. Values are weak, so the memo
/// keeps no screen alive; at most one live buffer exists per key, which
/// makes a run's frame pointers depend on that run alone.
#[derive(Debug, Default)]
struct ScreenMemo {
    /// Keyed by scene first, so a lookup borrows the scene it has.
    screens: HashMap<Scene, HashMap<DecorationState, Weak<FrameBuffer>>>,
    /// Entries, live or dead.
    len: usize,
    /// Entries left by the last prune.
    pruned_len: usize,
}

impl ScreenMemo {
    /// Dead entries are dropped whenever the memo has doubled since the
    /// last prune, and not before it holds this many.
    const PRUNE_FLOOR: usize = 1024;

    fn get(&self, scene: &Scene, deco: &DecorationState) -> Option<Arc<FrameBuffer>> {
        self.screens.get(scene)?.get(deco)?.upgrade()
    }

    /// Remembers `fresh` as the screen for (`scene`, `deco`), unless a
    /// live one was remembered since the caller's miss; returns the one
    /// to show.
    fn insert(
        &mut self,
        scene: &Scene,
        deco: DecorationState,
        fresh: Arc<FrameBuffer>,
    ) -> Arc<FrameBuffer> {
        let decos = match self.screens.get_mut(scene) {
            Some(decos) => decos,
            None => self.screens.entry(scene.clone()).or_default(),
        };
        let slot = decos.entry(deco).or_insert_with(|| {
            self.len += 1;
            Weak::new()
        });
        if let Some(live) = slot.upgrade() {
            return live;
        }
        *slot = Arc::downgrade(&fresh);
        if self.len >= (2 * self.pruned_len).max(Self::PRUNE_FLOOR) {
            self.screens.retain(|_, decos| {
                decos.retain(|_, screen| screen.strong_count() > 0);
                !decos.is_empty()
            });
            self.len = self.screens.values().map(HashMap::len).sum();
            self.pruned_len = self.len;
        }
        fresh
    }
}

impl Device {
    /// Creates a device with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the quantum is zero or larger than the frame period.
    pub fn new(config: DeviceConfig) -> Self {
        assert!(!config.quantum.is_zero(), "quantum must be positive");
        assert!(config.quantum <= config.frame_period, "quantum must not exceed the frame period");
        let renderer = Renderer::new(config.screen);
        Device { config, renderer, screens: Mutex::default() }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Executes one workload run from a freshly-booted state.
    ///
    /// `replayer` feeds the recorded input events; `script` describes how
    /// the apps react; `governor` picks frequencies; the run lasts until
    /// `until` (wall-clock), which should leave slack after the last input
    /// for the final interaction to be serviced.
    ///
    /// # Errors
    ///
    /// [`DeviceError`] if a stage boundary rejects data — today only the
    /// capture path, which refuses non-monotonic frame timestamps.
    pub fn run<R: Replayer>(
        &self,
        script: &DeviceScript,
        replayer: R,
        governor: &mut dyn Governor,
        until: SimTime,
    ) -> Result<RunArtifacts, DeviceError> {
        self.run_cancellable(script, replayer, governor, until, &CancelToken::none())
    }

    /// Like [`Device::run`], with a watchdog token polled cooperatively in
    /// the execution loop (every [`CANCEL_STRIDE`] iterations, so a wedged
    /// governor cannot stall a sweep for longer than its deadline plus one
    /// stride).
    ///
    /// # Errors
    ///
    /// As for [`Device::run`], plus [`DeviceError::Cancelled`] if the
    /// token fires mid-run.
    pub fn run_cancellable<R: Replayer>(
        &self,
        script: &DeviceScript,
        replayer: R,
        governor: &mut dyn Governor,
        until: SimTime,
        cancel: &CancelToken,
    ) -> Result<RunArtifacts, DeviceError> {
        match self.config.capture {
            CaptureMode::Camera { seed } => {
                let mut camera = CameraCapture::new(seed);
                self.run_inner(script, replayer, governor, until, Some(&mut camera), cancel)
            }
            _ => self.run_inner(script, replayer, governor, until, None, cancel),
        }
    }

    /// Like [`Device::run`], but captures the screen through an explicit
    /// [`CaptureLink`] instead of the configured one — the seam where
    /// fault injection wraps the capture path. Ignored when capture is
    /// [`CaptureMode::None`].
    ///
    /// # Errors
    ///
    /// As for [`Device::run`].
    pub fn run_with_capture<R: Replayer>(
        &self,
        script: &DeviceScript,
        replayer: R,
        governor: &mut dyn Governor,
        until: SimTime,
        link: &mut dyn CaptureLink,
    ) -> Result<RunArtifacts, DeviceError> {
        self.run_inner(script, replayer, governor, until, Some(link), &CancelToken::none())
    }

    /// [`Device::run_with_capture`] with a watchdog token, as
    /// [`Device::run_cancellable`] is to [`Device::run`].
    ///
    /// # Errors
    ///
    /// As for [`Device::run_cancellable`].
    pub fn run_with_capture_cancellable<R: Replayer>(
        &self,
        script: &DeviceScript,
        replayer: R,
        governor: &mut dyn Governor,
        until: SimTime,
        link: &mut dyn CaptureLink,
        cancel: &CancelToken,
    ) -> Result<RunArtifacts, DeviceError> {
        self.run_inner(script, replayer, governor, until, Some(link), cancel)
    }

    fn run_inner<R: Replayer>(
        &self,
        script: &DeviceScript,
        mut replayer: R,
        governor: &mut dyn Governor,
        until: SimTime,
        mut link: Option<&mut dyn CaptureLink>,
        cancel: &CancelToken,
    ) -> Result<RunArtifacts, DeviceError> {
        let cfg = &self.config;
        let quantum = cfg.quantum;
        let khz_of = |f: Frequency| f.as_khz() as u64;

        // --- state: CPU -------------------------------------------------
        let mut freq = cfg.opps.quantize_up(governor.init(&cfg.opps));
        let mut fg: VecDeque<Task> = VecDeque::new();
        let mut bg: VecDeque<Task> = VecDeque::new();
        let mut activity = ActivityTrace::new();

        // --- state: governor sampling -----------------------------------
        let mut busy_acc = SimDuration::ZERO;
        let mut last_sample_at = SimTime::ZERO;
        let mut next_sample_at = SimTime::ZERO + governor.sample_period();

        // --- state: UI --------------------------------------------------
        let mut scene = Scene::default();
        let mut spinner_frame = 0u64;
        let mut next_render_spawn = SimTime::ZERO;
        let mut deco = DecorationState::at(SimTime::ZERO, &scene, spinner_frame);
        let mut dirty = false;

        // --- state: capture ----------------------------------------------
        // The video and the screen it captures. The screen is seen only
        // through captured frames, so a run without capture paints none.
        let mut capture = match cfg.capture {
            CaptureMode::None => None,
            _ => Some((VideoStream::new(cfg.frame_period), self.screen(&scene, deco, None))),
        };
        let mut next_frame_at = SimTime::ZERO;

        // --- state: input dispatch ---------------------------------------
        let mut decoder = MtDecoder::new();
        let mut input_faults = 0usize;
        let mut next_interaction = 0usize;
        let mut interactions: Vec<InteractionRecord> = script
            .interactions
            .iter()
            .enumerate()
            .map(|(id, spec)| InteractionRecord {
                id,
                label: spec.label.clone(),
                input_time: spec.start,
                category: spec.category,
                spurious: spec.is_spurious(),
                triggered: false,
                service_time: None,
            })
            .collect();

        // --- state: scripted background work ------------------------------
        let mut next_bg = 0usize;
        let mut next_tick_at = script.tick.map(|_| SimTime::ZERO + quantum);

        // --- state: observability -------------------------------------------
        // Local accumulators, flushed to the recorder once per run: the
        // quantum loop stays free of shared-state traffic even when
        // recording is on.
        let mut obs_input_boosts = 0u64;
        let mut obs_samples = 0u64;
        let mut obs_transitions = 0u64;

        // --- state: I/O waits ----------------------------------------------
        // Tasks blocked on a phase wait, with their resume times, and scene
        // updates whose visibility is deferred behind a wait.
        let mut parked: Vec<(SimTime, Task)> = Vec::new();
        let mut pending_updates: Vec<(SimTime, crate::scene::SceneUpdate, TaskKind, bool)> =
            Vec::new();

        // --- state: the step's busy time ------------------------------------
        // The step's busy intervals, `(start, length)` in time order: one
        // front-loaded burst, unless the step folds in ticks (4e).
        let mut bursts: Vec<(SimTime, SimDuration)> = Vec::new();

        // The first quantum boundary at or after `t`: the iteration in
        // which a check against `t` first passes.
        let q_us = quantum.as_micros();
        let boundary = |t: SimTime| SimTime::from_micros(t.as_micros().div_ceil(q_us) * q_us);

        let mut now = SimTime::ZERO;
        let mut iterations = 0u64;
        while now < until {
            // Watchdog poll, strided by iterations (see CANCEL_STRIDE).
            if iterations.is_multiple_of(CANCEL_STRIDE) && cancel.is_cancelled() {
                return Err(DeviceError::Cancelled);
            }
            iterations += 1;

            // 1. Deliver input events due by `now`.
            for te in replayer.poll(now) {
                if let Some(f) = governor.on_input(te.time, &cfg.opps) {
                    freq = cfg.opps.quantize_up(f);
                    obs_input_boosts += 1;
                }
                if te.event.is_syn_report() && cfg.input_cost_cycles > 0 {
                    bg.push_back(Task::new(
                        TaskSpec::single(cfg.input_cost_cycles, crate::scene::SceneUpdate::Nop),
                        TaskKind::Background,
                    ));
                }
                for trigger in Self::triggers(&mut decoder, &te, &mut input_faults) {
                    Self::dispatch(
                        script,
                        &mut interactions,
                        &mut next_interaction,
                        &mut fg,
                        te.time,
                        trigger,
                    );
                }
            }

            // 2. Spawn scripted background work that has become runnable.
            while next_bg < script.background.len() && script.background[next_bg].start <= now {
                bg.push_back(Task::new(
                    TaskSpec::single(
                        script.background[next_bg].cycles,
                        crate::scene::SceneUpdate::Nop,
                    ),
                    TaskKind::Background,
                ));
                next_bg += 1;
            }

            // 3. Periodic system tick.
            if let (Some(tick), Some(due)) = (script.tick, next_tick_at.as_mut()) {
                while *due <= now {
                    bg.push_back(Task::new(
                        TaskSpec::single(tick.cycles, crate::scene::SceneUpdate::Nop),
                        TaskKind::Background,
                    ));
                    *due += tick.period;
                }
            }

            // 3b. Animation render passes: while a spinner shows, the UI
            // thread must produce a frame every SPINNER_FRAME_PERIOD; the
            // pass costs CPU on the foreground queue, so a busy core
            // misses deadlines and the animation visibly stutters (jank).
            if scene.spinner {
                while next_render_spawn <= now {
                    // The compositor drops frames at the source rather
                    // than queueing unboundedly.
                    let pending = fg.iter().filter(|t| t.kind() == TaskKind::UiRender).count();
                    if pending < 2 {
                        fg.push_back(Task::new(
                            TaskSpec::single(
                                (cfg.ui_render_cycles + scene.animation_load).max(1),
                                crate::scene::SceneUpdate::Nop,
                            ),
                            TaskKind::UiRender,
                        ));
                    }
                    next_render_spawn += crate::render::SPINNER_FRAME_PERIOD;
                }
            } else {
                // No animation: the next one starts on its own grid.
                if next_render_spawn <= now {
                    next_render_spawn = now + crate::render::SPINNER_FRAME_PERIOD;
                }
            }

            // 4a. Resume tasks whose I/O wait has elapsed (earliest first;
            // resumed work jumps the queue, as a woken thread would).
            if !parked.is_empty() {
                parked.sort_by_key(|(at, _)| *at);
                while parked.first().is_some_and(|(at, _)| *at <= now) {
                    let (_, task) = parked.remove(0);
                    match task.kind() {
                        TaskKind::Foreground { .. } | TaskKind::UiRender => fg.push_front(task),
                        TaskKind::Background => bg.push_front(task),
                    }
                }
            }

            // 4b. Apply scene updates whose I/O wait has elapsed by the end
            // of this quantum.
            if !pending_updates.is_empty() {
                pending_updates.sort_by_key(|(at, ..)| *at);
                while pending_updates.first().is_some_and(|(at, ..)| *at <= now + quantum) {
                    let (at, update, kind, task_finished) = pending_updates.remove(0);
                    if scene.apply(&update) {
                        dirty = true;
                    }
                    if task_finished {
                        if let TaskKind::Foreground { id } = kind {
                            if let Some(rec) = interactions.get_mut(id) {
                                rec.service_time = Some(at.max(now));
                            }
                        }
                    }
                }
            }

            // 4c. The event horizon: the first quantum boundary at which a
            // check above could fire again (start-of-quantum checks), the
            // governor's declared decision falls or a decoration changes
            // (end-of-quantum). Every quantum before it runs at the same
            // frequency on the same scene and screen; if the front task
            // also cannot finish a phase by then (or the core is idle), all
            // of them are one step. The samples and frame ticks it covers
            // are folded in at the step's end (6, 7a).
            //
            // On a silent core — no foreground work, and every queued task
            // silent ([`Task::is_silent`]) — completions change nothing but
            // busy time, which the step accounts exactly wherever they
            // fall. Neither the front task's phase end nor the system tick
            // bounds such a step: its work may complete inside it (4d),
            // and the ticks due inside it are folded in as cycles (4e).
            let budget = freq.cycles_in(quantum);
            let decision = governor.next_decision(next_sample_at);
            let silent = fg.is_empty() && bg.iter().all(Task::is_silent);
            let mut steps = 1;
            // A scene change awaiting its repaint, or a decision due by
            // the end of this quantum, leaves nothing to jump.
            if !dirty && budget > 0 && decision.is_none_or(|d| d > now + quantum) {
                let due = [
                    replayer.next_due(),
                    script.background.get(next_bg).map(|b| b.start),
                    next_tick_at.filter(|_| !silent),
                    scene.spinner.then_some(next_render_spawn),
                    parked.iter().map(|(at, _)| *at).min(),
                    // Applied in the quantum that ends at or after `at`.
                    pending_updates.iter().map(|(at, ..)| *at - quantum).min(),
                    decision,
                    // A clock or cursor change ends the step, so the frames
                    // the step covers all show the screen it started with.
                    Some(DecorationState::next_change(now, &scene)),
                ];
                let first = due.into_iter().flatten().fold(until, SimTime::min);
                steps = boundary(first).saturating_since(now).as_micros() / q_us;
                if let Some(task) = fg.front().or(bg.front()).filter(|_| !silent) {
                    steps = steps.min(task.remaining_in_phase().saturating_sub(1) / budget);
                }
            }
            let steps = steps.max(1);
            let qend = now + quantum * steps;

            // 4d. Execute the step's cycle budget. Over several quanta the
            // cap above leaves the front task mid-phase, so the loop makes
            // one `advance` call and sees no completions — except on a
            // silent core, whose tasks may all complete.
            let step_budget = budget * steps;
            let khz = khz_of(freq);
            let mut consumed = 0u64;
            while consumed < step_budget {
                let from_fg = !fg.is_empty();
                let queue = if from_fg { &mut fg } else { &mut bg };
                let Some(task) = queue.front_mut() else { break };
                let before = consumed;
                let (c, completions) = task.advance(step_budget - consumed);
                consumed += c;
                let finished = task.is_finished();
                let blocked = Task::blocked_after(&completions);
                let mut block_at = SimTime::ZERO;
                for comp in completions {
                    let at = before + comp.at_consumed_cycles;
                    let ts = now + SimDuration::from_micros((at * 1_000).div_ceil(khz));
                    if comp.wait.is_zero() {
                        if scene.apply(&comp.update) {
                            dirty = true;
                        }
                        match comp.kind {
                            TaskKind::Foreground { id } if comp.task_finished => {
                                if let Some(rec) = interactions.get_mut(id) {
                                    rec.service_time = Some(ts.min(qend));
                                }
                            }
                            // The new animation frame reaches the
                            // screen through the decoration state.
                            TaskKind::UiRender if comp.task_finished => spinner_frame += 1,
                            _ => {}
                        }
                    } else {
                        // The update (and, for final phases, the service
                        // point) becomes visible only after the wait.
                        let visible_at = ts.min(qend) + comp.wait;
                        block_at = visible_at;
                        pending_updates.push((
                            visible_at,
                            comp.update,
                            comp.kind,
                            comp.task_finished,
                        ));
                    }
                }
                if finished {
                    queue.pop_front();
                } else if blocked.is_some() {
                    if let Some(task) = queue.pop_front() {
                        parked.push((block_at, task));
                    }
                } else if c == 0 {
                    break; // cannot happen, but never spin
                }
            }

            // 4e. Busy time. Work queued at the step's start runs back to
            // back from it, quantum by quantum: whole quanta while it lasts,
            // then the rest of its cycles at the start of one more. Each
            // tick due inside a silent step spawns at its quantum boundary
            // and joins the running burst if that has not drained by then
            // (the per-quantum FIFO backlog), else starts a burst of its
            // own. Work still queued at the step's end stays queued as one
            // silent task; every folded tick is otherwise never spawned. A
            // clock too slow to run a cycle in a quantum runs nothing, and
            // its one-quantum step reads busy.
            let run_time = |cycles: u64| match cycles.checked_div(budget) {
                Some(whole) => {
                    quantum * whole + SimDuration::from_micros(cycles % budget * 1_000 / khz)
                }
                None => quantum,
            };
            let quanta = |from: SimTime, to: SimTime| (to - from).as_micros() / q_us;
            let (mut start, mut cycles) = (now, consumed);
            bursts.clear();
            if let (Some(tick), Some(due)) = (script.tick, next_tick_at.as_mut()) {
                // Outside a silent step the tick bounds the step, so none
                // is due before its last quantum.
                while *due <= qend - quantum {
                    let at = boundary(*due);
                    if cycles < budget * quanta(start, at) {
                        bursts.push((start, run_time(cycles)));
                        (start, cycles) = (at, 0);
                    }
                    cycles += tick.cycles;
                    *due += tick.period;
                }
            }
            let room = budget * quanta(start, qend);
            bursts.push((start, run_time(cycles.min(room))));
            if cycles > room {
                bg.push_back(Task::new(
                    TaskSpec::single(cycles - room, crate::scene::SceneUpdate::Nop),
                    TaskKind::Background,
                ));
            }
            // Busy time from `t` to the step's end.
            let busy_from = |t: SimTime| -> SimDuration {
                bursts
                    .iter()
                    .map(|&(start, len)| (start + len).saturating_since(start.max(t)))
                    .sum()
            };
            let busy = busy_from(now);
            if steps > 1 && !scene.spinner {
                // Each skipped quantum that reached the spinner-off grid
                // point moved it one period past its own start.
                while next_render_spawn <= qend - quantum {
                    next_render_spawn =
                        boundary(next_render_spawn) + crate::render::SPINNER_FRAME_PERIOD;
                }
            }

            // 5. Account the step (one merged sample, as per-quantum
            // samples of one frequency would merge into).
            activity.push(ActivitySample { start: now, duration: qend - now, freq, busy });
            busy_acc += busy;

            // 6. Governor sampling. Samples fire at the first quantum end
            // at or after they are due, so they sit on the quantum grid
            // `stride` apart; the step ends at or before the decision, so
            // only its last sample can be one. The others are counted and
            // restart the load window, which then holds the step's busy
            // time after them.
            if qend >= next_sample_at {
                let stride = governor.sample_period().as_micros().div_ceil(q_us).max(1) * q_us;
                let first = boundary(next_sample_at);
                let skipped = (qend - first).as_micros() / stride;
                let at = first + SimDuration::from_micros(skipped * stride);
                obs_samples += skipped + 1;
                if skipped > 0 {
                    last_sample_at = at - SimDuration::from_micros(stride);
                    busy_acc = busy_from(last_sample_at);
                }
                if decision.is_some_and(|d| d <= at) {
                    let sample = LoadSample { busy: busy_acc, window: at - last_sample_at };
                    let before = freq;
                    freq = cfg.opps.quantize_up(governor.on_sample(at, sample, &cfg.opps));
                    obs_transitions += u64::from(freq != before);
                }
                busy_acc = busy_from(at);
                last_sample_at = at;
                next_sample_at = at + governor.sample_period();
            }

            // 7a. Capture the frames due before the step's last quantum: the
            // step changed neither scene nor decorations in them.
            if let Some((video, screen)) = capture.as_mut() {
                while next_frame_at <= qend - quantum {
                    Self::capture(video, link.as_deref_mut(), next_frame_at, screen)?;
                    next_frame_at += cfg.frame_period;
                }
            }

            // 7b. With capture on, show the new scene and decorations:
            // repaint if the scene changed; if only a decoration did,
            // repaint just the decorations that changed.
            let new_deco = DecorationState::at(qend, &scene, spinner_frame);
            if let Some((_, screen)) = capture.as_mut() {
                if dirty {
                    *screen = self.screen(&scene, new_deco, None);
                } else if new_deco != deco {
                    *screen = self.screen(&scene, new_deco, Some((screen, &deco)));
                }
            }
            dirty = false;
            deco = new_deco;

            // 8. Capture the frames due in the step's last quantum.
            if let Some((video, screen)) = capture.as_mut() {
                while next_frame_at <= qend {
                    Self::capture(video, link.as_deref_mut(), next_frame_at, screen)?;
                    next_frame_at += cfg.frame_period;
                }
            }

            now = qend;
        }

        cfg.obs.count(interlag_obs::Counter::InputBoosts, obs_input_boosts);
        cfg.obs.count(interlag_obs::Counter::GovernorSamples, obs_samples);
        cfg.obs.count(interlag_obs::Counter::FreqTransitions, obs_transitions);
        let video = capture.map(|(video, _)| video);
        let frames = video.as_ref().map_or(0, VideoStream::len);
        cfg.obs.count(interlag_obs::Counter::FramesCaptured, frames as u64);

        Ok(RunArtifacts {
            governor_name: governor.name().to_string(),
            video,
            activity,
            interactions,
            replay: replayer.stats(),
            input_faults,
            end_time: now,
        })
    }

    /// The screen showing `scene` under `deco`: a live screen painted for
    /// the same key, by this run or any other, else a fresh paint —
    /// `prev`, the screen of `scene` under other decorations, with the
    /// changed decorations repainted, or a whole render. The memo's
    /// contents are pure, so a panic elsewhere cannot leave them wrong and
    /// a poisoned lock is taken as is.
    fn screen(
        &self,
        scene: &Scene,
        deco: DecorationState,
        prev: Option<(&FrameBuffer, &DecorationState)>,
    ) -> Arc<FrameBuffer> {
        let memo = || self.screens.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(shared) = memo().get(scene, &deco) {
            return shared;
        }
        let fresh = Arc::new(match prev {
            Some((prev, from)) => self.renderer.redecorate(prev, scene, from, &deco),
            None => self.renderer.render(scene, &deco),
        });
        memo().insert(scene, deco, fresh)
    }

    /// Captures `screen` into `video` as the frame at `at`, through `link`
    /// if there is one, else sharing the screen's buffer.
    fn capture(
        video: &mut VideoStream,
        link: Option<&mut (dyn CaptureLink + '_)>,
        at: SimTime,
        screen: &Arc<FrameBuffer>,
    ) -> Result<(), DeviceError> {
        let frame = match link {
            Some(l) => l.capture(at, screen),
            None => screen.clone(),
        };
        video.push(at, frame)?;
        Ok(())
    }

    /// Extracts interaction triggers (finger-down, hardware-key-down) from
    /// one raw event. Malformed multitouch events are counted into
    /// `faults` and otherwise tolerated.
    fn triggers(
        decoder: &mut MtDecoder,
        te: &TimedEvent,
        faults: &mut usize,
    ) -> Vec<Option<Point>> {
        let mut out = Vec::new();
        if te.device == 1 {
            let contacts = match decoder.try_push(te.time, te.event) {
                Ok(contacts) => contacts,
                Err(_) => {
                    *faults += 1;
                    Vec::new()
                }
            };
            for c in contacts {
                if let ContactEvent::Down { pos, .. } = c {
                    out.push(Some(pos));
                }
            }
        } else if te.event.kind == interlag_evdev::event::EventType::Key
            && te.event.code != interlag_evdev::event::codes::BTN_TOUCH
            && te.event.value == 1
        {
            out.push(None);
        }
        out
    }

    /// Routes one trigger to the next scripted interaction.
    fn dispatch(
        script: &DeviceScript,
        interactions: &mut [InteractionRecord],
        next_interaction: &mut usize,
        fg: &mut VecDeque<Task>,
        time: SimTime,
        pos: Option<Point>,
    ) {
        let id = *next_interaction;
        let Some(spec) = script.interactions.get(id) else {
            return; // inputs beyond the script are ignored
        };
        *next_interaction += 1;

        let Some(rec) = interactions.get_mut(id) else {
            return; // records mirror the script; a shorter slice is benign
        };
        rec.triggered = true;
        rec.input_time = time;

        let hit = match (spec.widget, pos) {
            (Some(w), Some(p)) => p.x >= 0 && p.y >= 0 && w.contains(p.x as u32, p.y as u32),
            (Some(_), None) => true,
            (None, _) => false,
        };
        match (&spec.response, hit) {
            (Some(task), true) => {
                fg.push_back(Task::new(task.clone(), TaskKind::Foreground { id }));
                rec.spurious = false;
            }
            _ => {
                rec.spurious = true;
            }
        }
    }
}

impl Default for Device {
    fn default() -> Self {
        Device::new(DeviceConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::{FixedGovernor, LoadSample};
    use crate::scene::SceneUpdate;
    use crate::script::{BackgroundWork, InteractionSpec, PeriodicTick};
    use interlag_evdev::gesture::Gesture;
    use interlag_evdev::replay::ReplayAgent;
    use interlag_video::frame::Rect;

    fn simple_script() -> DeviceScript {
        let widget = Rect::new(10, 20, 30, 30);
        DeviceScript {
            interactions: vec![
                InteractionSpec {
                    label: "open app".into(),
                    start: SimTime::from_millis(500),
                    gesture: Gesture::tap(Point::new(20, 30)),
                    widget: Some(widget),
                    response: Some(TaskSpec::single(
                        60_000_000, // 200 ms at 300 MHz
                        SceneUpdate::replace(Scene::new(99)),
                    )),
                    category: InteractionCategory::SimpleFrequent,
                },
                InteractionSpec {
                    label: "tap nothing".into(),
                    start: SimTime::from_millis(2_000),
                    gesture: Gesture::tap(Point::new(60, 100)),
                    widget: Some(widget), // tap lands outside it
                    response: Some(TaskSpec::single(1_000, SceneUpdate::Nop)),
                    category: InteractionCategory::SimpleFrequent,
                },
            ],
            background: vec![BackgroundWork {
                label: "sync".into(),
                start: SimTime::from_millis(3_000),
                cycles: 3_000_000,
            }],
            tick: Some(PeriodicTick::default()),
        }
    }

    fn run_fixed(mhz: u32, script: &DeviceScript) -> RunArtifacts {
        let device = Device::default();
        let trace = script.record_trace();
        let mut gov = FixedGovernor::new(Frequency::from_mhz(mhz));
        device
            .run(script, ReplayAgent::new(trace), &mut gov, SimTime::from_secs(5))
            .expect("clean run")
    }

    #[test]
    fn interaction_is_serviced_and_lag_scales_with_frequency() {
        let script = simple_script();
        let slow = run_fixed(300, &script);
        let fast = run_fixed(2_150, &script);

        let lag_slow = slow.interactions[0].true_lag().expect("serviced");
        let lag_fast = fast.interactions[0].true_lag().expect("serviced");
        // 60 M cycles at 300 MHz ≈ 200 ms; at 2.15 GHz ≈ 28 ms (plus
        // queueing behind input-handling costs).
        assert!(lag_slow > lag_fast * 4, "{lag_slow} vs {lag_fast}");
        assert!(lag_slow >= SimDuration::from_millis(190));
        assert!(lag_slow <= SimDuration::from_millis(320));
    }

    #[test]
    fn missed_tap_is_spurious() {
        let script = simple_script();
        let run = run_fixed(960, &script);
        assert!(run.interactions[1].triggered);
        assert!(run.interactions[1].spurious);
        assert_eq!(run.interactions[1].service_time, None);
        assert_eq!(run.lag_beginnings().len(), 1);
    }

    #[test]
    fn video_shows_the_final_scene_after_service() {
        let script = simple_script();
        let run = run_fixed(960, &script);
        let video = run.video.expect("hdmi capture on");
        let service = run.interactions[0].service_time.unwrap();
        // The frame displayed well after service must differ from the
        // boot screen; the frame just before input must not.
        let before = video.frame_at(SimTime::from_millis(400)).unwrap();
        let after = video.frame_at(service + SimDuration::from_millis(100)).unwrap();
        assert!(before.buf.count_diff(&after.buf, 0) > 0);
        let boot = video.frame_at(SimTime::from_millis(100)).unwrap();
        assert_eq!(boot.buf.count_diff(&before.buf, 0), 0);
    }

    #[test]
    fn activity_trace_covers_the_whole_run() {
        let script = simple_script();
        let run = run_fixed(960, &script);
        assert_eq!(run.activity.total_duration(), SimDuration::from_secs(5));
        assert!(run.activity.busy_time() > SimDuration::from_millis(50));
        assert!(run.activity.busy_time() < SimDuration::from_secs(1));
    }

    #[test]
    fn untriggered_interactions_are_reported() {
        let script = simple_script();
        let device = Device::default();
        // Empty trace: nothing is ever delivered.
        let mut gov = FixedGovernor::new(Frequency::from_mhz(960));
        let run = device
            .run(
                &script,
                ReplayAgent::new(interlag_evdev::trace::EventTrace::new()),
                &mut gov,
                SimTime::from_secs(1),
            )
            .expect("clean run");
        assert!(run.interactions.iter().all(|r| !r.triggered));
        assert!(run.lag_beginnings().is_empty());
    }

    #[test]
    fn capture_none_produces_no_video_and_matches_hdmi_ground_truth() {
        let script = simple_script();
        let config = DeviceConfig { capture: CaptureMode::None, ..Default::default() };
        let device = Device::new(config);
        let trace = script.record_trace();
        let mut gov = FixedGovernor::new(Frequency::from_mhz(960));
        let run = device
            .run(&script, ReplayAgent::new(trace), &mut gov, SimTime::from_secs(5))
            .expect("clean run");
        assert!(run.video.is_none());

        let with_video = run_fixed(960, &script);
        assert_eq!(
            run.interactions[0].service_time, with_video.interactions[0].service_time,
            "capture must not perturb execution"
        );
    }

    #[test]
    fn io_wait_extends_service_time_frequency_independently() {
        let widget = Rect::new(10, 20, 30, 30);
        let spec = |wait_ms: u64| DeviceScript {
            interactions: vec![InteractionSpec {
                label: "open".into(),
                start: SimTime::from_millis(500),
                gesture: Gesture::tap(Point::new(20, 30)),
                widget: Some(widget),
                response: Some(TaskSpec::new(vec![crate::task::Phase::with_wait(
                    30_000_000,
                    SimDuration::from_millis(wait_ms),
                    SceneUpdate::replace(Scene::new(77)),
                )])),
                category: InteractionCategory::Common,
            }],
            background: Vec::new(),
            tick: None,
        };
        let run_lag = |mhz: u32, wait_ms: u64| {
            let device = Device::default();
            let script = spec(wait_ms);
            let trace = script.record_trace();
            let mut gov = FixedGovernor::new(Frequency::from_mhz(mhz));
            let run = device
                .run(&script, ReplayAgent::new(trace), &mut gov, SimTime::from_secs(4))
                .expect("clean run");
            run.interactions[0].true_lag().expect("serviced")
        };
        // The wait adds ~300 ms at any frequency.
        let fast_no_wait = run_lag(2_150, 0);
        let fast_wait = run_lag(2_150, 300);
        let slow_wait = run_lag(300, 300);
        let added_fast = fast_wait - fast_no_wait;
        assert!(
            (added_fast.as_millis_f64() - 300.0).abs() < 5.0,
            "wait should add ~300 ms, added {added_fast}"
        );
        // Compute scales with frequency; the wait does not.
        let slow_compute = slow_wait - SimDuration::from_millis(300);
        assert!(slow_compute > fast_no_wait * 5, "{slow_compute} vs {fast_no_wait}");
    }

    #[test]
    fn core_is_free_for_background_work_during_waits() {
        // One interaction whose task blocks 1 s on I/O after tiny compute,
        // plus heavy background work: the background work must execute
        // during the wait (busy time well above the foreground compute).
        let widget = Rect::new(10, 20, 30, 30);
        let script = DeviceScript {
            interactions: vec![InteractionSpec {
                label: "io heavy".into(),
                start: SimTime::from_millis(200),
                gesture: Gesture::tap(Point::new(20, 30)),
                widget: Some(widget),
                response: Some(TaskSpec::new(vec![
                    crate::task::Phase::with_wait(
                        1_000_000,
                        SimDuration::from_secs(1),
                        SceneUpdate::Nop,
                    ),
                    crate::task::Phase::new(1_000_000, SceneUpdate::replace(Scene::new(5))),
                ])),
                category: InteractionCategory::Common,
            }],
            background: vec![BackgroundWork {
                label: "bg".into(),
                start: SimTime::from_millis(300),
                cycles: 300_000_000, // 1 s at 300 MHz
            }],
            tick: None,
        };
        let device = Device::default();
        let trace = script.record_trace();
        let mut gov = FixedGovernor::new(Frequency::from_mhz(300));
        let run = device
            .run(&script, ReplayAgent::new(trace), &mut gov, SimTime::from_secs(3))
            .expect("clean run");
        // Service ends ~200 ms (input) + ~3 ms + 1 s wait + ~3 ms ≈ 1.21 s,
        // even though a full second of background work ran meanwhile.
        let service = run.interactions[0].service_time.expect("serviced");
        assert!(service < SimTime::from_millis(1_300), "service at {service}");
        assert!(run.activity.busy_time() > SimDuration::from_millis(900));
    }

    #[test]
    fn cancelled_token_aborts_the_run() {
        let script = simple_script();
        let device = Device::default();
        let trace = script.record_trace();
        let mut gov = FixedGovernor::new(Frequency::from_mhz(960));
        let cancel = CancelToken::manual();
        cancel.cancel();
        let err = device
            .run_cancellable(
                &script,
                ReplayAgent::new(trace),
                &mut gov,
                SimTime::from_secs(5),
                &cancel,
            )
            .expect_err("pre-fired token must abort the run");
        assert_eq!(err, DeviceError::Cancelled);
    }

    /// Fires a shared token from its first sample at or after `at`, and
    /// counts the samples it still receives afterwards.
    struct CancelAt {
        token: CancelToken,
        at: SimTime,
        samples_after: u32,
    }

    impl Governor for CancelAt {
        fn name(&self) -> &str {
            "cancel-at"
        }

        fn init(&mut self, table: &OppTable) -> Frequency {
            table.min_freq()
        }

        fn sample_period(&self) -> SimDuration {
            SimDuration::from_millis(250)
        }

        fn on_sample(&mut self, now: SimTime, _load: LoadSample, table: &OppTable) -> Frequency {
            if self.token.is_cancelled() {
                self.samples_after += 1;
            } else if now >= self.at {
                self.token.cancel();
            }
            table.min_freq()
        }
    }

    #[test]
    fn token_fired_mid_run_stops_a_run_that_jumps_long_strides() {
        // No input, no ticks, no capture: every iteration jumps up to the
        // next 250 ms sample or clock second, so the quantum count
        // advances in strides that a quantum-keyed poll could step over.
        let script = DeviceScript { interactions: Vec::new(), background: Vec::new(), tick: None };
        let device = Device::new(DeviceConfig { capture: CaptureMode::None, ..Default::default() });
        let token = CancelToken::manual();
        let mut gov =
            CancelAt { token: token.clone(), at: SimTime::from_secs(3), samples_after: 0 };
        let err = device
            .run_cancellable(
                &script,
                ReplayAgent::new(interlag_evdev::trace::EventTrace::new()),
                &mut gov,
                SimTime::from_secs(600),
                &token,
            )
            .expect_err("the token fires at 3 s");
        assert_eq!(err, DeviceError::Cancelled);
        // Every iteration here ends on a sample or a clock second, so the
        // stop comes within one stride of iterations: far short of the
        // 2 388 samples left in the run.
        assert!(gov.samples_after < CANCEL_STRIDE as u32, "{} samples", gov.samples_after);
    }

    #[test]
    fn unfired_token_does_not_perturb_the_run() {
        let script = simple_script();
        let device = Device::default();
        let mut gov = FixedGovernor::new(Frequency::from_mhz(960));
        let run = device
            .run_cancellable(
                &script,
                ReplayAgent::new(script.record_trace()),
                &mut gov,
                SimTime::from_secs(5),
                &CancelToken::manual(),
            )
            .expect("clean run");
        let baseline = run_fixed(960, &script);
        assert_eq!(run.interactions, baseline.interactions);
        assert_eq!(run.activity, baseline.activity);
    }

    /// Load-blind in its output, which steps through the OPP table every
    /// `block` samples, but logs every sample it is handed. Declares a
    /// decision only at block starts when `declare` is set; otherwise
    /// keeps the default hook and sees every sample.
    struct Recording {
        block: u64,
        declare: bool,
        log: Vec<(SimTime, LoadSample)>,
    }

    impl Recording {
        const PERIOD: SimDuration = SimDuration::from_millis(20);

        fn block_us(&self) -> u64 {
            Self::PERIOD.as_micros() * self.block
        }

        fn freq_at(&self, now: SimTime, table: &OppTable) -> Frequency {
            let i = (now.as_micros() / self.block_us()) as usize % table.len();
            table.frequencies().nth(i).expect("index in range")
        }
    }

    impl Governor for Recording {
        fn name(&self) -> &str {
            "recording"
        }

        fn init(&mut self, table: &OppTable) -> Frequency {
            self.freq_at(SimTime::ZERO, table)
        }

        fn sample_period(&self) -> SimDuration {
            Self::PERIOD
        }

        fn on_sample(&mut self, now: SimTime, load: LoadSample, table: &OppTable) -> Frequency {
            self.log.push((now, load));
            self.freq_at(now, table)
        }

        fn next_decision(&self, next_sample: SimTime) -> Option<SimTime> {
            if !self.declare {
                return Some(next_sample);
            }
            let b = self.block_us();
            Some(SimTime::from_micros(next_sample.as_micros().div_ceil(b) * b))
        }
    }

    #[test]
    fn declared_decisions_see_the_samples_every_sample_would_have() {
        // Long busy stretches (a 600 M-cycle job, the tap's 60 M cycles)
        // put many skipped samples inside fully busy steps; ticks off the
        // 20 ms sample grid end some of those steps mid-window.
        let mut script = simple_script();
        script.background.push(BackgroundWork {
            label: "batch".into(),
            start: SimTime::from_millis(1_000),
            cycles: 600_000_000,
        });
        script.tick = Some(PeriodicTick { period: SimDuration::from_millis(30), cycles: 50_000 });
        let run = |declare: bool| {
            let obs = interlag_obs::Recorder::enabled();
            let device = Device::new(DeviceConfig { obs: obs.clone(), ..Default::default() });
            let mut gov = Recording { block: 5, declare, log: Vec::new() };
            let run = device
                .run(
                    &script,
                    ReplayAgent::new(script.record_trace()),
                    &mut gov,
                    SimTime::from_secs(5),
                )
                .expect("clean run");
            (run, gov.log, obs.text_report_deterministic())
        };
        let (every, every_log, every_obs) = run(false);
        let (declared, declared_log, declared_obs) = run(true);

        let block = Recording::PERIOD.as_micros() * 5;
        let expected: Vec<_> =
            every_log.iter().filter(|(t, _)| t.as_micros() % block == 0).copied().collect();
        assert_eq!(every_log.len(), 250, "a 5 s run samples every 20 ms");
        assert_eq!(declared_log, expected, "a decision must see the load every sample saw");
        assert!(declared_log.iter().any(|(_, l)| l.busy == l.window), "some window fully busy");

        assert_eq!(declared.governor_name, every.governor_name);
        assert_eq!(declared.interactions, every.interactions);
        assert_eq!(declared.activity, every.activity);
        assert_eq!(declared.replay, every.replay);
        assert_eq!(declared.input_faults, every.input_faults);
        assert_eq!(declared.end_time, every.end_time);
        let (a, b) = (every.video.expect("hdmi"), declared.video.expect("hdmi"));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!((x.time, x.buf.as_ref()), (y.time, y.buf.as_ref()));
        }
        // Skipped samples still count: the telemetry matches too.
        assert_eq!(declared_obs, every_obs);
    }

    /// A run with nothing to do: no input, no scripted work, no ticks.
    fn idle_run(capture: CaptureMode, until: SimTime) -> RunArtifacts {
        let script = DeviceScript { interactions: Vec::new(), background: Vec::new(), tick: None };
        let device = Device::new(DeviceConfig { capture, ..Default::default() });
        let mut gov = FixedGovernor::new(Frequency::from_mhz(960));
        device
            .run(
                &script,
                ReplayAgent::new(interlag_evdev::trace::EventTrace::new()),
                &mut gov,
                until,
            )
            .expect("clean run")
    }

    #[test]
    fn frames_are_captured_at_frame_rate() {
        let run = idle_run(CaptureMode::Hdmi, SimTime::from_secs(1));
        let video = run.video.expect("hdmi capture on");
        // Frames at 0, 33.3 ms, … up to the end of the run.
        assert_eq!(video.len(), 31);
        // A still screen shares one buffer. Only the clock changes: a frame
        // shows the screen at the end of its quantum, so the last one, at
        // 999.99 ms, already reads 1 s.
        assert_eq!(video.runs().len(), 2);
        assert!(Arc::ptr_eq(&video.frames()[0].buf, &video.frames()[29].buf));
    }

    #[test]
    fn frames_a_long_step_covers_stay_on_the_grid() {
        // Nothing but the clock happens, so each step jumps a whole
        // second: every frame in it is captured after the fact.
        let run = idle_run(CaptureMode::Camera { seed: 5 }, SimTime::from_secs(3));
        let video = run.video.expect("camera capture on");
        let period = DeviceConfig::default().frame_period;
        assert_eq!(video.len() as u64, run.end_time.as_micros() / period.as_micros() + 1);
        for (i, f) in video.iter().enumerate() {
            assert_eq!(f.time, SimTime::ZERO + period * i as u64);
        }
    }

    #[test]
    fn replay_runs_are_deterministic() {
        let script = simple_script();
        let a = run_fixed(960, &script);
        let b = run_fixed(960, &script);
        assert_eq!(a.interactions, b.interactions);
        assert_eq!(a.activity, b.activity);
        let (va, vb) = (a.video.unwrap(), b.video.unwrap());
        assert_eq!(va.len(), vb.len());
        for (x, y) in va.iter().zip(vb.iter()) {
            assert_eq!(x.buf.as_ref(), y.buf.as_ref());
        }
    }

    #[test]
    fn a_clock_too_slow_for_one_cycle_per_quantum_runs_nothing() {
        // 500 kHz runs half a cycle per 1 µs quantum: the cycle budget is
        // zero, so the core never runs its work, and each step reads busy.
        let opps = OppTable::new(vec![interlag_power::opp::Opp::new(500, 900)]);
        let quantum = SimDuration::from_micros(1);
        let config =
            DeviceConfig { opps, quantum, capture: CaptureMode::None, ..Default::default() };
        let mut script = simple_script();
        script.background[0].start = SimTime::ZERO;
        let mut gov = FixedGovernor::new(Frequency::from_khz(500));
        let until = SimTime::from_millis(2);
        let run = Device::new(config)
            .run(&script, ReplayAgent::new(script.record_trace()), &mut gov, until)
            .expect("clean run");
        assert_eq!(run.end_time, until);
        assert_eq!(run.activity.busy_time(), until - SimTime::ZERO);
    }

    #[test]
    fn the_screen_memo_shares_live_screens_and_prunes_dead_ones() {
        let mut memo = ScreenMemo::default();
        let scene = Scene::default();
        let deco =
            |secs| DecorationState { clock_seconds: secs, cursor_on: false, spinner_frame: 0 };
        let live = memo.insert(&scene, deco(0), Arc::new(FrameBuffer::new(4, 4)));
        // A second paint of a live key yields the screen already shown.
        let again = memo.insert(&scene, deco(0), Arc::new(FrameBuffer::new(4, 4)));
        assert!(Arc::ptr_eq(&live, &again));
        assert!(Arc::ptr_eq(&memo.get(&scene, &deco(0)).expect("live"), &live));
        // Screens no run holds are forgotten: the memo stays within twice
        // what is alive (or the floor) however many keys pass through it.
        for secs in 1..10 * ScreenMemo::PRUNE_FLOOR as u64 {
            memo.insert(&scene, deco(secs), Arc::new(FrameBuffer::new(4, 4)));
            assert!(memo.len <= 2 * ScreenMemo::PRUNE_FLOOR);
        }
        assert!(memo.get(&scene, &deco(1)).is_none());
        assert!(Arc::ptr_eq(&memo.get(&scene, &deco(0)).expect("still live"), &live));
    }

    #[test]
    fn a_panic_holding_the_screen_memo_does_not_stop_later_runs() {
        let device = Device::default();
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _memo = device.screens.lock();
                panic!("a job panics mid-repaint");
            })
            .join()
        });
        assert!(poisoner.is_err() && device.screens.is_poisoned());
        let script = simple_script();
        let mut gov = FixedGovernor::new(Frequency::from_mhz(960));
        let run = device
            .run(&script, ReplayAgent::new(script.record_trace()), &mut gov, SimTime::from_secs(5))
            .expect("clean run");
        assert_eq!(run.interactions, run_fixed(960, &script).interactions);
    }
}
