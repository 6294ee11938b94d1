//! How the supervisor runs agents: child processes or threads.
//!
//! A [`Transport`] turns a [`ShardTask`] into a running agent and a
//! stream of tagged [`AgentEvent`]s on a channel the supervisor owns.
//! Two implementations share one receive pipeline (mangle → reframe →
//! parse, in `LinePump`):
//!
//! * [`ProcessTransport`] — the real thing: spawns `interlag agent`
//!   child processes with piped stdout, so agent crashes are real
//!   `abort()`s and kills are real `SIGKILL`s;
//! * [`ThreadTransport`] — the same agent entry point on an in-process
//!   thread writing into a channel, for fast deterministic chaos tests
//!   (death is a caught panic, kill is a [`KillSwitch`]).
//!
//! Both apply [`TransportFaults`] *between* the agent's clean framed
//! output and the supervisor's [`FrameReader`], so dropped, duplicated,
//! truncated and delayed frames exercise the real resynchronisation
//! path, not a simulation of it.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use interlag_core::experiment::{LabConfig, StudyScope, SweepStage};
use interlag_faults::{AgentSabotage, FrameMangler, SabotageKind, TransportFaults};
use interlag_workloads::gen::Workload;

use crate::agent::{run_agent, stage_name, AgentConfig, KillSwitch};
use crate::wire::{FrameReader, WireMsg};

/// Identity of one dispatch attempt, tagged onto every event it emits so
/// stale attempts (killed stragglers, zombies past their watchdog) can
/// never impersonate their replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttemptKey {
    /// The wave.
    pub stage: SweepStage,
    /// The shard within the wave.
    pub shard: u32,
    /// The dispatch attempt (0 = first).
    pub attempt: u32,
}

/// One unit of dispatch: a shard scope, which attempt this is, and the
/// attempt's own journal file (pre-seeded by the supervisor with the
/// valid prefix of its predecessor, so paid-for work replays).
#[derive(Debug, Clone)]
pub struct ShardTask {
    /// The shard of the grid the agent must sweep.
    pub scope: StudyScope,
    /// The dispatch attempt (0 = first).
    pub attempt: u32,
    /// The attempt's private shard journal path.
    pub journal_path: PathBuf,
}

impl ShardTask {
    /// The event tag for this dispatch.
    pub fn key(&self) -> AttemptKey {
        AttemptKey { stage: self.scope.stage, shard: self.scope.shard, attempt: self.attempt }
    }
}

/// What the supervisor hears from one attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentEvent {
    /// A checksum-valid protocol message.
    Msg(WireMsg),
    /// One damaged frame was skipped by the reader (counted as
    /// quarantined wire data).
    Garbage,
    /// The agent is gone and its event stream is complete. `clean` is
    /// `true` only for a voluntary, successful exit.
    Exited {
        /// Did the agent exit of its own accord with success status?
        clean: bool,
    },
}

/// A handle to one running attempt. Dropping it does *not* kill the
/// agent — the supervisor kills explicitly (watchdogs, straggler losers)
/// and otherwise lets agents finish.
pub struct RunningShard {
    kill: Box<dyn FnMut() + Send>,
}

impl RunningShard {
    /// Kills the attempt: `SIGKILL` for a child process, the
    /// [`KillSwitch`] for a thread. Idempotent; the attempt's
    /// [`AgentEvent::Exited`] still arrives afterwards.
    pub fn kill(&mut self) {
        (self.kill)();
    }

    /// Wraps a kill action (for sibling transports like
    /// [`TcpTransport`](crate::tcp::TcpTransport)).
    pub(crate) fn from_fn(kill: impl FnMut() + Send + 'static) -> Self {
        RunningShard { kill: Box::new(kill) }
    }
}

impl std::fmt::Debug for RunningShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunningShard").finish_non_exhaustive()
    }
}

/// A way of running agents.
pub trait Transport {
    /// Starts one attempt; its events arrive on `events` tagged with
    /// [`ShardTask::key`], ending with exactly one [`AgentEvent::Exited`].
    fn dispatch(
        &mut self,
        task: &ShardTask,
        events: Sender<(AttemptKey, AgentEvent)>,
    ) -> std::io::Result<RunningShard>;
}

/// The shared receive pipeline: one *clean* frame (a whole line as the
/// agent wrote it) goes through the fault mangler, the mangled bytes
/// through the resynchronising [`FrameReader`], and every resulting
/// message out to the supervisor.
struct LinePump {
    key: AttemptKey,
    mangler: Option<FrameMangler>,
    reader: FrameReader,
    /// Per-frame ceiling on an injected delay sleep. The pump serves
    /// *all* of an attempt's frames — heartbeats included — from one
    /// thread, so an unbounded mangler delay would stall every later
    /// frame and could spuriously trip the supervisor's heartbeat
    /// watchdog for an agent that is alive and beating. Transports pass
    /// the heartbeat period here: the watchdog budget is always several
    /// periods (the CLI enforces `>= 4x`), so a capped sleep consumes at
    /// most a fraction of the remaining budget and the next (possibly
    /// heartbeat) frame always lands before the deadline.
    delay_cap: Duration,
    garbage_sent: u64,
    checkpoints: u32,
}

impl LinePump {
    fn new(key: AttemptKey, faults: TransportFaults, fault_seed: u64, delay_cap: Duration) -> Self {
        let mangler = if faults.is_quiescent() {
            None
        } else {
            Some(FrameMangler::new(faults, fault_seed, key.shard as u64, key.attempt as u64))
        };
        LinePump {
            key,
            mangler,
            reader: FrameReader::new(),
            delay_cap,
            garbage_sent: 0,
            checkpoints: 0,
        }
    }

    /// Feeds one clean frame; returns checkpoint frames seen so far (the
    /// trigger for [`SabotageKind::KillAfterRecords`]).
    fn feed(&mut self, line: &[u8], events: &Sender<(AttemptKey, AgentEvent)>) -> u32 {
        let (bytes, delay) = match &mut self.mangler {
            Some(m) => m.mangle(line),
            None => (line.to_vec(), Duration::ZERO),
        };
        if !delay.is_zero() {
            std::thread::sleep(delay.min(self.delay_cap));
        }
        for msg in self.reader.push(&bytes) {
            if matches!(msg, WireMsg::Checkpoint { .. }) {
                self.checkpoints += 1;
            }
            let _ = events.send((self.key, AgentEvent::Msg(msg)));
        }
        while self.garbage_sent < self.reader.garbage() {
            self.garbage_sent += 1;
            let _ = events.send((self.key, AgentEvent::Garbage));
        }
        self.checkpoints
    }
}

/// Picks the sabotage scheduled for this exact `(shard, attempt)`, if
/// any. Sabotage is stage-blind: a schedule entry strikes whichever wave
/// dispatches that shard/attempt pair (chaos tests pick checkpoint
/// numbers only the intended wave can reach).
pub(crate) fn scheduled(sabotage: &[AgentSabotage], task: &ShardTask) -> Option<SabotageKind> {
    sabotage
        .iter()
        .find(|s| s.shard == task.scope.shard && s.attempt == task.attempt)
        .map(|s| s.kind)
}

/// The supervisor-side half of a sabotage schedule: at which received
/// checkpoint frame to kill the agent from the outside.
fn kill_after(kind: Option<SabotageKind>) -> Option<u32> {
    match kind {
        Some(SabotageKind::KillAfterRecords(n)) => Some(n),
        _ => None,
    }
}

/// The agent-side half: the `--sabotage` flag value for the child, or
/// the [`AgentConfig::sabotage`] for a thread.
pub(crate) fn agent_side(kind: Option<SabotageKind>) -> Option<SabotageKind> {
    match kind {
        Some(SabotageKind::KillAfterRecords(_)) | None => None,
        other => other,
    }
}

/// Formats an agent-side sabotage as the `interlag agent --sabotage`
/// flag value (`crash@N`, `wedge@N`, `tear@N`).
pub fn sabotage_flag(kind: SabotageKind) -> Option<String> {
    match kind {
        SabotageKind::CrashAtCheckpoint(n) => Some(format!("crash@{n}")),
        SabotageKind::WedgeAtCheckpoint(n) => Some(format!("wedge@{n}")),
        SabotageKind::TearJournal(n) => Some(format!("tear@{n}")),
        SabotageKind::KillAfterRecords(_) => None,
    }
}

/// Runs agents as `interlag agent` child processes over piped stdio.
#[derive(Debug, Clone)]
pub struct ProcessTransport {
    /// The `interlag` binary to spawn.
    pub exe: PathBuf,
    /// The dataset name the agent should sweep (must resolve to the same
    /// workload the supervisor fingerprinted).
    pub dataset: String,
    /// Repetitions per configuration (ditto).
    pub reps: u32,
    /// Heartbeat period to ask agents for.
    pub heartbeat: Duration,
    /// Wire faults injected between child stdout and the supervisor.
    pub faults: TransportFaults,
    /// Seed for the per-attempt fault streams.
    pub fault_seed: u64,
    /// Scheduled agent failures for chaos runs.
    pub sabotage: Vec<AgentSabotage>,
    /// Extra arguments appended to every agent invocation (matrix
    /// bindings like `--jitter-us N` that must reach the agent's lab
    /// configuration for its fingerprint to match the supervisor's).
    pub extra_args: Vec<String>,
}

impl Transport for ProcessTransport {
    fn dispatch(
        &mut self,
        task: &ShardTask,
        events: Sender<(AttemptKey, AgentEvent)>,
    ) -> std::io::Result<RunningShard> {
        let key = task.key();
        let kind = scheduled(&self.sabotage, task);
        let mut cmd = Command::new(&self.exe);
        cmd.arg("agent")
            .arg(&self.dataset)
            .args(["-r", &self.reps.to_string()])
            .args(["--shard", &task.scope.shard.to_string()])
            .args(["--of", &task.scope.of.to_string()])
            .args(["--stage", stage_name(task.scope.stage)])
            .arg("--journal")
            .arg(&task.journal_path)
            .args(["--heartbeat-ms", &self.heartbeat.as_millis().to_string()])
            .args(&self.extra_args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(flag) = agent_side(kind).and_then(sabotage_flag) {
            cmd.args(["--sabotage", &flag]);
        }
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let child = Arc::new(Mutex::new(child));

        let kill_handle = {
            let child = Arc::clone(&child);
            move || {
                if let Ok(mut c) = child.lock() {
                    let _ = c.kill();
                }
            }
        };
        let reader_kill = kill_handle.clone();
        let kill_at = kill_after(kind);
        let faults = self.faults;
        let fault_seed = self.fault_seed;
        let delay_cap = self.heartbeat;
        std::thread::spawn(move || {
            let mut pump = LinePump::new(key, faults, fault_seed, delay_cap);
            let mut reader = BufReader::new(stdout);
            let mut killed = false;
            let mut line = Vec::new();
            loop {
                line.clear();
                match reader.read_until(b'\n', &mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let seen = pump.feed(&line, &events);
                        if let Some(at) = kill_at {
                            if !killed && seen >= at {
                                // A kill aligned to a checkpoint
                                // boundary, from the outside.
                                reader_kill();
                                killed = true;
                            }
                        }
                    }
                }
            }
            // Stdout is closed, so the child is exiting (or already
            // gone): wait() cannot block against a later kill().
            let clean = child
                .lock()
                .ok()
                .and_then(|mut c| c.wait().ok())
                .is_some_and(|status| status.success());
            let _ = events.send((key, AgentEvent::Exited { clean }));
        });

        Ok(RunningShard { kill: Box::new(kill_handle) })
    }
}

/// A `Write` that ships each write (one framed line, the way the agent
/// writes) down a channel. Send failures are swallowed — a gone reader
/// must not kill a healthy agent, mirroring the pipe semantics.
struct ChannelWriter(Sender<Vec<u8>>);

impl Write for ChannelWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let _ = self.0.send(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs agents on in-process threads: the same [`run_agent`] entry
/// point, death by caught panic, kill by [`KillSwitch`]. The lab is
/// forced to `workers = 1` so a crashing repetition unwinds the agent
/// thread directly instead of poisoning a worker pool.
#[derive(Debug, Clone)]
pub struct ThreadTransport {
    /// The workload to sweep.
    pub workload: Workload,
    /// The lab configuration agents run under.
    pub lab: LabConfig,
    /// Heartbeat period.
    pub heartbeat: Duration,
    /// Wire faults injected between agent writes and the supervisor.
    pub faults: TransportFaults,
    /// Seed for the per-attempt fault streams.
    pub fault_seed: u64,
    /// Scheduled agent failures for chaos runs.
    pub sabotage: Vec<AgentSabotage>,
}

impl Transport for ThreadTransport {
    fn dispatch(
        &mut self,
        task: &ShardTask,
        events: Sender<(AttemptKey, AgentEvent)>,
    ) -> std::io::Result<RunningShard> {
        let key = task.key();
        let kind = scheduled(&self.sabotage, task);
        let kill = Arc::new(KillSwitch::new());
        let clean = Arc::new(AtomicBool::new(false));
        let (byte_tx, byte_rx) = std::sync::mpsc::channel::<Vec<u8>>();

        let mut lab = self.lab.clone();
        lab.workers = 1;
        let cfg = AgentConfig {
            workload: self.workload.clone(),
            lab,
            scope: task.scope,
            journal_path: task.journal_path.clone(),
            heartbeat: self.heartbeat,
            sabotage: agent_side(kind),
            abort_on_crash: false,
            kill: Some(Arc::clone(&kill)),
        };
        {
            let kill = Arc::clone(&kill);
            let clean = Arc::clone(&clean);
            std::thread::spawn(move || {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_agent(cfg, Box::new(ChannelWriter(byte_tx)))
                }));
                clean.store(matches!(outcome, Ok(Ok(_))), Ordering::SeqCst);
                // Raise the switch even on clean exits: it stops any
                // still-running heartbeat thread, whose sender clone is
                // what keeps the byte channel open.
                kill.kill();
            });
        }

        let kill_at = kill_after(kind);
        let reader_kill = Arc::clone(&kill);
        let faults = self.faults;
        let fault_seed = self.fault_seed;
        let delay_cap = self.heartbeat;
        std::thread::spawn(move || {
            let mut pump = LinePump::new(key, faults, fault_seed, delay_cap);
            while let Ok(chunk) = byte_rx.recv() {
                let seen = pump.feed(&chunk, &events);
                if let Some(at) = kill_at {
                    if seen >= at && !reader_kill.is_killed() {
                        reader_kill.kill();
                    }
                }
            }
            // Channel disconnected: agent and heartbeat threads are
            // done, and `clean` was stored before the switch was raised.
            let _ = events.send((key, AgentEvent::Exited { clean: clean.load(Ordering::SeqCst) }));
        });

        Ok(RunningShard { kill: Box::new(move || kill.kill()) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_msg;

    fn key() -> AttemptKey {
        AttemptKey { stage: SweepStage::Stage1, shard: 1, attempt: 0 }
    }

    #[test]
    fn quiescent_pump_forwards_every_message() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut pump = LinePump::new(key(), TransportFaults::none(), 0, Duration::from_secs(1));
        let msgs = [
            WireMsg::Heartbeat { seq: 1, completed: 0 },
            WireMsg::Done { completed: 3, write_errors: 0 },
        ];
        for m in &msgs {
            pump.feed(&encode_msg(m), &tx);
        }
        drop(tx);
        let got: Vec<_> = rx.iter().collect();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|(k, _)| *k == key()));
        assert!(matches!(&got[0].1, AgentEvent::Msg(WireMsg::Heartbeat { seq: 1, .. })));
    }

    #[test]
    fn pump_counts_checkpoints_and_reports_garbage() {
        use interlag_core::checkpoint::CheckpointRecord;
        use interlag_core::experiment::{placeholder_result, RepOutcome};
        let (tx, rx) = std::sync::mpsc::channel();
        let mut pump = LinePump::new(key(), TransportFaults::none(), 0, Duration::from_secs(1));
        let rec = CheckpointRecord::new(1, 0, 0, &placeholder_result("t"), &RepOutcome::Ok);
        let n = pump.feed(&encode_msg(&WireMsg::Checkpoint { seq: 1, record: rec }), &tx);
        assert_eq!(n, 1);
        // A damaged line must surface as Garbage, not silence.
        let frame = encode_msg(&WireMsg::Heartbeat { seq: 1, completed: 1 });
        let mut torn = frame[..frame.len() / 2].to_vec();
        torn.push(b'\n');
        let n = pump.feed(&torn, &tx);
        assert_eq!(n, 1, "garbage is not a checkpoint");
        drop(tx);
        let got: Vec<_> = rx.iter().map(|(_, e)| e).collect();
        assert!(matches!(got[0], AgentEvent::Msg(WireMsg::Checkpoint { .. })));
        assert!(matches!(got[1], AgentEvent::Garbage));
    }

    #[test]
    fn injected_delays_are_capped_by_the_watchdog_budget_share() {
        // Every frame delayed, nominally up to 10 s each — but the pump
        // may never sleep past its cap, or a delay schedule could trip
        // the heartbeat watchdog for a perfectly alive agent.
        let faults =
            TransportFaults { delay_rate: 1.0, max_delay_ms: 10_000, ..TransportFaults::none() };
        let (tx, rx) = std::sync::mpsc::channel();
        let mut pump = LinePump::new(key(), faults, 7, Duration::from_millis(5));
        let start = std::time::Instant::now();
        for seq in 1..=10 {
            pump.feed(&encode_msg(&WireMsg::Heartbeat { seq, completed: 0 }), &tx);
        }
        assert!(
            start.elapsed() < Duration::from_millis(2_000),
            "ten capped delays must total well under one uncapped one"
        );
        drop(tx);
        // Delayed frames are late, never lost.
        assert_eq!(rx.iter().count(), 10);
    }

    #[test]
    fn sabotage_schedule_is_split_between_sides() {
        let task = ShardTask {
            scope: StudyScope { shard: 2, of: 4, stage: SweepStage::Stage1 },
            attempt: 1,
            journal_path: PathBuf::from("/dev/null"),
        };
        let schedule = vec![
            AgentSabotage { shard: 2, attempt: 1, kind: SabotageKind::KillAfterRecords(3) },
            AgentSabotage { shard: 0, attempt: 0, kind: SabotageKind::CrashAtCheckpoint(1) },
        ];
        let kind = scheduled(&schedule, &task);
        assert_eq!(kill_after(kind), Some(3));
        assert_eq!(agent_side(kind), None);
        let crash = scheduled(
            &schedule,
            &ShardTask {
                scope: StudyScope { shard: 0, of: 4, stage: SweepStage::Stage1 },
                attempt: 0,
                journal_path: PathBuf::new(),
            },
        );
        assert_eq!(kill_after(crash), None);
        assert_eq!(agent_side(crash), Some(SabotageKind::CrashAtCheckpoint(1)));
        assert_eq!(sabotage_flag(SabotageKind::CrashAtCheckpoint(1)).as_deref(), Some("crash@1"));
        assert_eq!(sabotage_flag(SabotageKind::TearJournal(2)).as_deref(), Some("tear@2"));
        assert_eq!(sabotage_flag(SabotageKind::KillAfterRecords(3)), None);
    }
}
