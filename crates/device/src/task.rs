//! Compute work: what an interaction costs the CPU.
//!
//! Every user-visible operation is a [`TaskSpec`]: a sequence of
//! [`Phase`]s, each a number of CPU cycles followed by a scene update when
//! those cycles complete. Cycles are the right demand unit because service
//! time then responds to DVFS exactly the way the paper needs — the same
//! task takes `cycles / f` seconds at frequency `f`, so lag durations
//! shrink as the governor raises the clock.
//!
//! Progressive loading (the Gallery populating its album grid one
//! thumbnail at a time, §II-D) is a spec with one phase per thumbnail;
//! each phase boundary repaints the screen and thereby becomes a suggester
//! candidate.
//!
//! A phase may additionally carry an **I/O wait**: time spent blocked on
//! flash, network or another device after its cycles complete and before
//! its screen update appears. Waits make service time only partially
//! frequency-dependent — the reason the paper's oracle can hold a
//! mid-table frequency for I/O-heavy interactions instead of racing to
//! the top (Figure 3).

use serde::{Deserialize, Serialize};

use interlag_evdev::time::SimDuration;

use crate::scene::SceneUpdate;

/// One unit of work: burn `cycles`, block for `wait`, then apply `update`
/// to the screen.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// CPU cycles this phase costs.
    pub cycles: u64,
    /// I/O time after the cycles complete, during which the task blocks
    /// and the core is free for other work.
    #[serde(default)]
    pub wait: SimDuration,
    /// Scene mutation applied when the phase (cycles + wait) completes.
    pub update: SceneUpdate,
}

impl Phase {
    /// Creates a compute-only phase.
    pub fn new(cycles: u64, update: SceneUpdate) -> Self {
        Phase { cycles, wait: SimDuration::ZERO, update }
    }

    /// Creates a phase that blocks on I/O for `wait` after its cycles.
    pub fn with_wait(cycles: u64, wait: SimDuration, update: SceneUpdate) -> Self {
        Phase { cycles, wait, update }
    }
}

/// The full compute recipe of one operation.
///
/// # Examples
///
/// ```
/// use interlag_device::scene::{Scene, SceneUpdate};
/// use interlag_device::task::TaskSpec;
///
/// // An app launch: 80 M cycles of work, then the new screen appears.
/// let spec = TaskSpec::single(80_000_000, SceneUpdate::replace(Scene::new(42)));
/// assert_eq!(spec.total_cycles(), 80_000_000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    phases: Vec<Phase>,
}

impl TaskSpec {
    /// Creates a spec from explicit phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase costs zero cycles.
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "a task needs at least one phase");
        assert!(phases.iter().all(|p| p.cycles > 0), "phases must cost at least one cycle");
        TaskSpec { phases }
    }

    /// A single-phase task: burn `cycles`, then apply `update`.
    pub fn single(cycles: u64, update: SceneUpdate) -> Self {
        TaskSpec::new(vec![Phase::new(cycles, update)])
    }

    /// The phases in execution order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total cycle demand.
    pub fn total_cycles(&self) -> u64 {
        self.phases.iter().map(|p| p.cycles).sum()
    }
}

/// What spawned a task; decides scheduling priority and bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskKind {
    /// Servicing interaction number `id`: runs ahead of background work;
    /// its last phase completion is the interaction's service point.
    Foreground {
        /// Interaction id within the run.
        id: usize,
    },
    /// Background work (sync, prefetch, input handling): the user is not
    /// waiting on it.
    Background,
    /// One UI-thread render pass for an on-screen animation frame. Runs
    /// on the same queue as foreground work — which is exactly why heavy
    /// foreground tasks cause *jank*: render passes miss their frame
    /// deadlines and animation frames drop (§VI future work).
    UiRender,
}

/// A task in execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    spec: TaskSpec,
    kind: TaskKind,
    phase_idx: usize,
    remaining_in_phase: u64,
}

/// The outcome of advancing a task by some cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCompletion {
    /// Update to apply to the scene (after `wait`, if any).
    pub update: SceneUpdate,
    /// Cycles consumed from the budget up to (and including) this
    /// completion, relative to the start of the `advance` call.
    pub at_consumed_cycles: u64,
    /// I/O wait between the cycle completion and the update becoming
    /// visible; the task blocks for this long.
    pub wait: SimDuration,
    /// `true` if this was the task's last phase.
    pub task_finished: bool,
    /// Who the task belonged to.
    pub kind: TaskKind,
}

impl Task {
    /// Instantiates a spec for execution.
    pub fn new(spec: TaskSpec, kind: TaskKind) -> Self {
        let first = spec.phases()[0].cycles;
        Task { spec, kind, phase_idx: 0, remaining_in_phase: first }
    }

    /// The task's origin.
    pub fn kind(&self) -> TaskKind {
        self.kind
    }

    /// Cycles left until the task finishes.
    pub fn remaining_cycles(&self) -> u64 {
        let rest: u64 = self.spec.phases()[self.phase_idx + 1..].iter().map(|p| p.cycles).sum();
        self.remaining_in_phase + rest
    }

    /// Cycles left until the current phase completes (zero once the task
    /// has finished).
    pub fn remaining_in_phase(&self) -> u64 {
        self.remaining_in_phase
    }

    /// `true` once every phase has completed.
    pub fn is_finished(&self) -> bool {
        self.phase_idx >= self.spec.phases().len()
    }

    /// `true` if nothing but busy time can come of running the rest of
    /// this task: background work whose remaining phases neither update
    /// the scene nor wait. Such work may complete anywhere in a device
    /// step, and in any split, without changing what the run shows.
    pub fn is_silent(&self) -> bool {
        self.kind == TaskKind::Background
            && self.spec.phases()[self.phase_idx..]
                .iter()
                .all(|p| matches!(p.update, SceneUpdate::Nop) && p.wait.is_zero())
    }

    /// Runs the task for at most `budget` cycles. Returns the cycles
    /// actually consumed and every phase completion that occurred, with
    /// cycle-accurate positions for sub-quantum timestamping.
    ///
    /// Advancing stops early when a completed phase carries an I/O wait:
    /// the scheduler must park the task until the wait elapses before
    /// calling `advance` again.
    pub fn advance(&mut self, budget: u64) -> (u64, Vec<PhaseCompletion>) {
        let mut consumed = 0u64;
        let mut completions = Vec::new();
        while consumed < budget && !self.is_finished() {
            let available = budget - consumed;
            if self.remaining_in_phase <= available {
                consumed += self.remaining_in_phase;
                let phase = &self.spec.phases()[self.phase_idx];
                let update = phase.update.clone();
                let wait = phase.wait;
                self.phase_idx += 1;
                let finished = self.is_finished();
                if !finished {
                    self.remaining_in_phase = self.spec.phases()[self.phase_idx].cycles;
                } else {
                    self.remaining_in_phase = 0;
                }
                completions.push(PhaseCompletion {
                    update,
                    at_consumed_cycles: consumed,
                    wait,
                    task_finished: finished,
                    kind: self.kind,
                });
                if !wait.is_zero() {
                    break; // the task blocks; the scheduler parks it
                }
            } else {
                self.remaining_in_phase -= available;
                consumed += available;
            }
        }
        (consumed, completions)
    }

    /// `true` if the most recent `advance` stopped on a waiting phase and
    /// the task has more phases to run.
    pub fn blocked_after(completions: &[PhaseCompletion]) -> Option<SimDuration> {
        match completions.last() {
            Some(c) if !c.wait.is_zero() && !c.task_finished => Some(c.wait),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::Scene;

    fn loading_spec() -> TaskSpec {
        TaskSpec::new(vec![
            Phase::new(100, SceneUpdate::replace(Scene::new(1))),
            Phase::new(200, SceneUpdate::ShowElement(0)),
            Phase::new(300, SceneUpdate::ShowElement(1)),
        ])
    }

    #[test]
    fn advance_in_one_go() {
        let mut t = Task::new(loading_spec(), TaskKind::Foreground { id: 0 });
        assert_eq!(t.remaining_cycles(), 600);
        let (consumed, completions) = t.advance(1_000);
        assert_eq!(consumed, 600);
        assert_eq!(completions.len(), 3);
        assert_eq!(completions[0].at_consumed_cycles, 100);
        assert_eq!(completions[1].at_consumed_cycles, 300);
        assert_eq!(completions[2].at_consumed_cycles, 600);
        assert!(completions[2].task_finished);
        assert!(!completions[1].task_finished);
        assert!(t.is_finished());
    }

    #[test]
    fn advance_in_small_steps() {
        let mut t = Task::new(loading_spec(), TaskKind::Background);
        let mut all = Vec::new();
        let mut total = 0;
        while !t.is_finished() {
            let (c, comps) = t.advance(70);
            total += c;
            all.extend(comps);
        }
        assert_eq!(total, 600);
        assert_eq!(all.len(), 3);
        // Positions are relative to each advance call.
        assert_eq!(all[0].at_consumed_cycles, 30); // 100 = 70 + 30
    }

    #[test]
    fn zero_budget_is_a_noop() {
        let mut t = Task::new(loading_spec(), TaskKind::Background);
        let (c, comps) = t.advance(0);
        assert_eq!(c, 0);
        assert!(comps.is_empty());
        assert_eq!(t.remaining_cycles(), 600);
    }

    #[test]
    fn finished_task_consumes_nothing() {
        let mut t = Task::new(TaskSpec::single(10, SceneUpdate::Nop), TaskKind::Background);
        t.advance(10);
        assert!(t.is_finished());
        let (c, comps) = t.advance(100);
        assert_eq!(c, 0);
        assert!(comps.is_empty());
    }

    #[test]
    fn silent_means_background_work_with_only_quiet_phases_left() {
        let quiet = TaskSpec::single(10, SceneUpdate::Nop);
        assert!(Task::new(quiet.clone(), TaskKind::Background).is_silent());
        assert!(!Task::new(quiet.clone(), TaskKind::Foreground { id: 0 }).is_silent());
        assert!(!Task::new(quiet, TaskKind::UiRender).is_silent());
        // A wait or a visible update ahead makes the task heard; once it
        // has run, only the quiet phases after it count.
        let waits = TaskSpec::new(vec![
            Phase::with_wait(10, SimDuration::from_millis(1), SceneUpdate::Nop),
            Phase::new(10, SceneUpdate::Nop),
        ]);
        let mut t = Task::new(waits, TaskKind::Background);
        assert!(!t.is_silent());
        t.advance(10);
        assert!(t.is_silent());
        let shows = TaskSpec::new(vec![
            Phase::new(10, SceneUpdate::Nop),
            Phase::new(10, SceneUpdate::ShowElement(0)),
        ]);
        assert!(!Task::new(shows, TaskKind::Background).is_silent());
        // A finished task has nothing left to say.
        let mut done = Task::new(TaskSpec::single(10, SceneUpdate::Nop), TaskKind::Background);
        done.advance(10);
        assert!(done.is_finished() && done.is_silent());
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_spec_rejected() {
        TaskSpec::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_cycle_phase_rejected() {
        TaskSpec::new(vec![Phase::new(0, SceneUpdate::Nop)]);
    }
}
