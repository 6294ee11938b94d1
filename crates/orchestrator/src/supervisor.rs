//! The sweep supervisor: dispatch, watch, retry, merge, replay.
//!
//! [`run_sweep`] partitions the study grid across `shards` agents per
//! wave (stage 1, then — once stage 1 is merged — the oracle wave,
//! whose frequency plan needs every stage-1 profile), dispatches them
//! over a [`Transport`], and supervises each to completion:
//!
//! * **watchdogs** — an attempt that stops heartbeating is presumed
//!   dead; one that heartbeats but stops producing accepted checkpoints
//!   is wedged. Both are killed and classified.
//! * **retry with backoff** — a failed shard is re-dispatched after a
//!   seeded decorrelated-jitter delay ([`retry_backoff`]: exponential
//!   envelope in `[backoff_base, backoff_cap]`, deterministic per
//!   `(seed, shard, attempt)`, spread across shards), at most
//!   [`SweepConfig::retry_budget`] times, each new attempt's journal
//!   pre-seeded with every record merged so far so paid-for work
//!   replays instead of recomputing.
//! * **speculation** — an attempt that outlives
//!   [`SweepConfig::speculate_after`] gets a twin; the first attempt to
//!   complete the shard's coverage wins and the loser is killed.
//! * **graceful degradation** — a shard that exhausts its budget is
//!   abandoned; its missing slots are synthesised as
//!   [`RepOutcome::Abandoned`] with a [`ShardFailure`] cause, so the
//!   merged report carries per-repetition causes instead of holes.
//!
//! The wave's records — streamed checkpoints plus every attempt journal
//! salvaged from disk — pass the merge gauntlet of
//! [`MergeOutcome`], are written as one
//! slot-ordered merged journal, and a final *local* [`Lab::study_with`]
//! replays it. Replayed repetitions are bit-exact and the irritation
//! pass runs identically on the replay path, so the merged report is
//! **byte-identical** to a single-process [`Lab::study`] at any shard
//! count, under any kill schedule the retry budget absorbs.

use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use interlag_core::checkpoint::{
    study_fingerprint, CheckpointFormat, CheckpointRecord, StudyJournal,
};
use interlag_core::error::{InterlagError, ShardFailure};
use interlag_core::experiment::{
    placeholder_result, Lab, LabConfig, RepOutcome, StudyOptions, StudyResult, StudyScope,
    SweepStage,
};
use interlag_db::{device_model, seal_submission, SubmissionManifest, SUBMISSION_SCHEMA};
use interlag_evdev::rng::SplitMix64;
use interlag_journal::atomic_write;
use interlag_obs::{Counter, Recorder};
use interlag_workloads::gen::Workload;

use crate::agent::stage_name;
use crate::grid::SweepGrid;
use crate::merge::{encode_merged, MergeOutcome};
use crate::transport::{AgentEvent, AttemptKey, RunningShard, ShardTask, Transport};
use crate::wire::WireMsg;

/// Supervisor policy knobs.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Agents per wave (each wave is partitioned across all of them).
    pub shards: u32,
    /// Directory for per-attempt shard journals and the merged journal.
    pub journal_dir: PathBuf,
    /// Re-dispatches allowed per shard after its first attempt
    /// (speculative twins also draw from this budget).
    pub retry_budget: u32,
    /// Heartbeat silence after which an attempt is presumed dead.
    pub heartbeat_timeout: Duration,
    /// Checkpoint-progress silence after which an attempt is wedged.
    pub progress_timeout: Duration,
    /// Floor of the retry delay (the first attempt's jitter window
    /// starts here).
    pub backoff_base: Duration,
    /// Ceiling on the retry delay.
    pub backoff_cap: Duration,
    /// Seed for the decorrelated retry jitter. Every `(seed, shard,
    /// attempt)` triple maps to one fixed delay, so sweeps replay
    /// exactly, but simultaneous shard failures draw from disjoint
    /// streams and do not re-dispatch in lockstep.
    pub backoff_seed: u64,
    /// Age at which a sole healthy attempt gets a speculative twin;
    /// `None` disables speculation.
    pub speculate_after: Option<Duration>,
    /// On-disk format for shard and merged journals.
    pub format: CheckpointFormat,
    /// Property-group bindings this sweep runs under, as canonical
    /// `key=value` strings (e.g. `jitter-us=1500`, `reps=5`). Recorded
    /// verbatim in the sealed submission manifest so fleet results land
    /// in the database under the declared matrix point.
    pub props: Vec<String>,
}

impl SweepConfig {
    /// Production-shaped defaults for `shards` agents journalling under
    /// `journal_dir`.
    pub fn new(shards: u32, journal_dir: impl Into<PathBuf>) -> Self {
        SweepConfig {
            shards: shards.max(1),
            journal_dir: journal_dir.into(),
            retry_budget: 2,
            heartbeat_timeout: Duration::from_secs(5),
            progress_timeout: Duration::from_secs(60),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            backoff_seed: 0,
            speculate_after: None,
            format: CheckpointFormat::Binary,
            props: Vec::new(),
        }
    }

    fn ext(&self) -> &'static str {
        match self.format {
            CheckpointFormat::Json => "jsonl",
            CheckpointFormat::Binary => "journal",
        }
    }
}

/// How one shard of one wave ended.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The wave.
    pub stage: SweepStage,
    /// The shard within the wave.
    pub shard: u32,
    /// Dispatch attempts used (including the first and any twin).
    pub attempts: u32,
    /// Per-failed-attempt classifications, in order.
    pub failures: Vec<ShardFailure>,
    /// `Some` if the retry budget ran out before coverage.
    pub abandoned: Option<ShardFailure>,
    /// `true` if a speculative twin, not the original, completed it.
    pub speculative_win: bool,
}

/// The result of a supervised sweep.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The merged study — byte-identical to a single-process
    /// [`Lab::study`] unless `degraded`.
    pub study: StudyResult,
    /// `true` if any shard was abandoned: the report is complete but
    /// some repetitions carry synthesised [`RepOutcome::Abandoned`]
    /// placeholders instead of measurements.
    pub degraded: bool,
    /// Per-shard post-mortems, stage 1 first.
    pub shards: Vec<ShardOutcome>,
    /// Records and frames rejected by the merge gauntlet or damaged on
    /// the wire.
    pub quarantined: u64,
    /// Torn framing fragments dropped from salvaged shard journals.
    pub torn: u64,
    /// Well-formed duplicate records (normal under retries and twins).
    pub duplicates: u64,
    /// The merged, slot-ordered journal the final replay consumed.
    pub merged_journal: PathBuf,
    /// The sealed submission artifact (manifest + merged records) ready
    /// for `interlag db ingest`.
    pub submission: PathBuf,
}

const TICK: Duration = Duration::from_millis(20);

/// Runs the whole sweep: two supervised waves, a byte-stable merge, a
/// final local replay.
///
/// # Errors
///
/// I/O errors dispatching agents or writing journals, and study errors
/// from the final replay. Agent deaths, wire damage and exhausted
/// budgets are *not* errors — they degrade the outcome instead.
pub fn run_sweep(
    workload: &Workload,
    lab: LabConfig,
    transport: &mut dyn Transport,
    cfg: &SweepConfig,
) -> Result<SweepOutcome, Box<dyn std::error::Error + Send + Sync>> {
    std::fs::create_dir_all(&cfg.journal_dir)?;
    let trace = workload.script.record_trace();
    let fingerprint = study_fingerprint(&trace.to_getevent_text(), &lab);
    let grid = SweepGrid::for_lab(&lab);
    let obs = lab.obs.clone();
    let mut merged = MergeOutcome::new();
    let mut shards = Vec::new();

    for stage in [SweepStage::Stage1, SweepStage::Oracle] {
        let mut wave = Wave::new(stage, &grid, fingerprint, cfg, &obs);
        wave.run(transport, &mut merged)?;
        // Fill the holes an abandoned shard left *before* the next wave
        // seeds from the merge: oracle agents and the final replay must
        // see the same stage-1 journal, synthesised placeholders and all.
        synthesize_missing(&grid, &wave.shards, &mut merged, fingerprint);
        shards.extend(wave.into_outcomes());
    }

    let merged_path = cfg.journal_dir.join(format!("merged.{}", cfg.ext()));
    atomic_write(&merged_path, encode_merged(&merged.records, cfg.format))?;

    // Seal the merged records into a submission artifact: the same
    // record bytes as the merged journal, prefixed with a provenance
    // manifest, ready for `interlag db ingest` on any machine.
    let submission_path = cfg.journal_dir.join("submission.sub");
    let manifest = SubmissionManifest {
        schema: SUBMISSION_SCHEMA.to_string(),
        fingerprint,
        device_model: device_model(&lab),
        workload: workload.name.clone(),
        reps: grid.reps,
        configs: (0..=grid.oracle_config()).map(|c| grid.config_name(c)).collect(),
        records: 0, // stamped by seal_submission
        props: cfg.props.clone(),
    };
    atomic_write(&submission_path, seal_submission(&manifest, &merged.records, cfg.format))?;

    let journal = StudyJournal::resume(&merged_path, fingerprint)?;
    let study = Lab::new(lab).study_with(
        workload,
        StudyOptions { journal: Some(&journal), trace: Some(trace), scope: None },
    )?;
    let degraded = shards.iter().any(|s| s.abandoned.is_some());
    Ok(SweepOutcome {
        study,
        degraded,
        shards,
        quarantined: merged.quarantined,
        torn: merged.torn,
        duplicates: merged.duplicates,
        merged_journal: merged_path,
        submission: submission_path,
    })
}

/// One dispatch attempt the supervisor is tracking.
struct LiveAttempt {
    attempt: u32,
    handle: RunningShard,
    dispatched: Instant,
    last_heartbeat: Instant,
    last_progress: Instant,
    speculative: bool,
    /// Set by a watchdog (or a foreign Hello) when the supervisor kills
    /// the attempt, so the eventual `Exited` is classified correctly.
    killed_as: Option<ShardFailure>,
}

/// One shard's supervision state across its attempts.
struct ShardState {
    scope: StudyScope,
    slots: Vec<(usize, u32)>,
    attempts_used: u32,
    live: Vec<LiveAttempt>,
    retry_at: Option<Instant>,
    failures: Vec<ShardFailure>,
    abandoned: Option<ShardFailure>,
    done: bool,
    speculated: bool,
    speculative_win: bool,
}

impl ShardState {
    fn terminal(&self) -> bool {
        self.done || self.abandoned.is_some()
    }

    fn covered(&self, merged: &MergeOutcome) -> bool {
        self.slots.iter().all(|k| merged.records.contains_key(k))
    }
}

struct Wave<'a> {
    stage: SweepStage,
    fingerprint: u64,
    cfg: &'a SweepConfig,
    obs: &'a Recorder,
    shards: Vec<ShardState>,
}

impl<'a> Wave<'a> {
    fn new(
        stage: SweepStage,
        grid: &'a SweepGrid,
        fingerprint: u64,
        cfg: &'a SweepConfig,
        obs: &'a Recorder,
    ) -> Self {
        let shards = (0..cfg.shards)
            .map(|shard| {
                let scope = StudyScope { shard, of: cfg.shards, stage };
                ShardState {
                    scope,
                    slots: grid.slots_for(scope),
                    attempts_used: 0,
                    live: Vec::new(),
                    retry_at: None,
                    failures: Vec::new(),
                    abandoned: None,
                    done: false,
                    speculated: false,
                    speculative_win: false,
                }
            })
            .collect();
        Wave { stage, fingerprint, cfg, obs, shards }
    }

    fn attempt_path(&self, shard: u32, attempt: u32) -> PathBuf {
        self.cfg.journal_dir.join(format!(
            "shard-{}-{shard}-a{attempt}.{}",
            stage_name(self.stage),
            self.cfg.ext()
        ))
    }

    fn run(
        &mut self,
        transport: &mut dyn Transport,
        merged: &mut MergeOutcome,
    ) -> std::io::Result<()> {
        let (tx, rx) = mpsc::channel();
        for i in 0..self.shards.len() {
            if self.shards[i].slots.is_empty() {
                // More shards than slots: this one was born with nothing
                // to do.
                self.shards[i].done = true;
                continue;
            }
            self.dispatch(i, false, transport, merged, &tx)?;
        }
        while !self.shards.iter().all(ShardState::terminal) {
            match rx.recv_timeout(TICK) {
                Ok((key, event)) => self.handle(key, event, merged)?,
                Err(RecvTimeoutError::Timeout) => {}
                // Unreachable while `tx` lives above, but never worth a
                // hang if that changes.
                Err(RecvTimeoutError::Disconnected) => break,
            }
            self.tick(transport, merged, &tx)?;
        }
        Ok(())
    }

    fn dispatch(
        &mut self,
        i: usize,
        speculative: bool,
        transport: &mut dyn Transport,
        merged: &MergeOutcome,
        tx: &Sender<(AttemptKey, AgentEvent)>,
    ) -> std::io::Result<()> {
        let scope = self.shards[i].scope;
        let attempt = self.shards[i].attempts_used;
        let path = self.attempt_path(scope.shard, attempt);
        // Seed with every record merged so far: the agent replays the
        // whole cached prefix — its predecessors' paid-for slots, and in
        // the oracle wave the merged stage 1 its plan derives from.
        atomic_write(&path, encode_merged(&merged.records, self.cfg.format))?;
        let task = ShardTask { scope, attempt, journal_path: path };
        let handle = transport.dispatch(&task, tx.clone())?;
        let now = Instant::now();
        let s = &mut self.shards[i];
        s.attempts_used += 1;
        s.retry_at = None;
        s.live.push(LiveAttempt {
            attempt,
            handle,
            dispatched: now,
            last_heartbeat: now,
            last_progress: now,
            speculative,
            killed_as: None,
        });
        self.obs.count(Counter::ShardsDispatched, 1);
        Ok(())
    }

    fn handle(
        &mut self,
        key: AttemptKey,
        event: AgentEvent,
        merged: &mut MergeOutcome,
    ) -> std::io::Result<()> {
        if key.stage != self.stage || key.shard as usize >= self.shards.len() {
            return Ok(());
        }
        let i = key.shard as usize;
        match event {
            AgentEvent::Msg(WireMsg::Hello { fingerprint, .. }) => {
                let expected = self.fingerprint;
                let s = &mut self.shards[i];
                if let Some(a) = s.live.iter_mut().find(|a| a.attempt == key.attempt) {
                    a.last_heartbeat = Instant::now();
                    if fingerprint != expected && a.killed_as.is_none() {
                        // The agent is sweeping a different study:
                        // everything it would send is foreign.
                        a.killed_as = Some(ShardFailure::Corrupt);
                        a.handle.kill();
                    }
                }
            }
            AgentEvent::Msg(WireMsg::Heartbeat { .. }) | AgentEvent::Msg(WireMsg::Done { .. }) => {
                let s = &mut self.shards[i];
                if let Some(a) = s.live.iter_mut().find(|a| a.attempt == key.attempt) {
                    a.last_heartbeat = Instant::now();
                }
            }
            AgentEvent::Msg(WireMsg::Checkpoint { record, .. }) => {
                let accepted = self.absorb(
                    i,
                    |m| {
                        m.absorb_record(record, self.fingerprint, |c, r| {
                            self.shards[i].slots.contains(&(c, r))
                        })
                    },
                    merged,
                );
                let spec = {
                    let s = &mut self.shards[i];
                    match s.live.iter_mut().find(|a| a.attempt == key.attempt) {
                        Some(a) => {
                            a.last_heartbeat = Instant::now();
                            if accepted {
                                a.last_progress = Instant::now();
                            }
                            a.speculative
                        }
                        None => false,
                    }
                };
                if accepted {
                    self.finish_if_covered(i, merged, spec);
                }
            }
            AgentEvent::Garbage => {
                // A frame damaged beyond the CRC: quarantined wire data.
                merged.quarantined += 1;
                self.obs.count(Counter::ShardRecordsQuarantined, 1);
            }
            AgentEvent::Exited { clean } => self.on_exit(i, key.attempt, clean, merged),
        }
        Ok(())
    }

    /// Runs one merge operation, translating its quarantine delta into
    /// the observability counter.
    fn absorb<T>(
        &self,
        _shard: usize,
        op: impl FnOnce(&mut MergeOutcome) -> T,
        merged: &mut MergeOutcome,
    ) -> T {
        let before = merged.quarantined;
        let out = op(merged);
        if merged.quarantined > before {
            self.obs.count(Counter::ShardRecordsQuarantined, merged.quarantined - before);
        }
        out
    }

    fn finish_if_covered(&mut self, i: usize, merged: &MergeOutcome, winner_speculative: bool) {
        if self.shards[i].terminal() || !self.shards[i].covered(merged) {
            return;
        }
        let s = &mut self.shards[i];
        s.done = true;
        s.retry_at = None;
        if winner_speculative {
            s.speculative_win = true;
            self.obs.count(Counter::SpeculativeWins, 1);
        }
        // Stragglers and speculative losers are no longer needed.
        for a in &mut s.live {
            a.handle.kill();
        }
    }

    fn on_exit(&mut self, i: usize, attempt: u32, clean: bool, merged: &mut MergeOutcome) {
        let gone = {
            let s = &mut self.shards[i];
            s.live.iter().position(|a| a.attempt == attempt).map(|p| s.live.remove(p))
        };
        // Salvage the attempt's journal from disk: durable records
        // survive any wire damage and any death, including records whose
        // frames were dropped or mangled in flight.
        let path = self.attempt_path(self.shards[i].scope.shard, attempt);
        if let Ok(bytes) = std::fs::read(&path) {
            self.absorb(
                i,
                |m| {
                    m.absorb_journal(&bytes, self.fingerprint, |c, r| {
                        self.shards[i].slots.contains(&(c, r))
                    });
                },
                merged,
            );
        }
        let speculative = gone.as_ref().is_some_and(|a| a.speculative);
        self.finish_if_covered(i, merged, speculative);
        let budget = self.cfg.retry_budget;
        let backoff = retry_backoff(
            self.cfg.backoff_base,
            self.cfg.backoff_cap,
            self.cfg.backoff_seed,
            self.shards[i].scope.shard,
            self.shards[i].attempts_used,
        );
        let s = &mut self.shards[i];
        if s.terminal() {
            return;
        }
        let failure = gone.and_then(|a| a.killed_as).unwrap_or(if clean {
            // A voluntary exit that still left slots uncovered: the
            // journal it returned never yielded the records it owed.
            ShardFailure::Corrupt
        } else {
            ShardFailure::Crashed
        });
        s.failures.push(failure);
        if !s.live.is_empty() {
            // A twin is still racing; no retry decision yet.
            return;
        }
        if s.attempts_used <= budget {
            s.retry_at = Some(Instant::now() + backoff);
        } else {
            s.abandoned = Some(failure);
            self.obs.count(Counter::ShardsAbandoned, 1);
        }
    }

    fn tick(
        &mut self,
        transport: &mut dyn Transport,
        merged: &MergeOutcome,
        tx: &Sender<(AttemptKey, AgentEvent)>,
    ) -> std::io::Result<()> {
        let now = Instant::now();
        for i in 0..self.shards.len() {
            if self.shards[i].terminal() {
                continue;
            }
            let hb = self.cfg.heartbeat_timeout;
            let pg = self.cfg.progress_timeout;
            let mut heartbeats_missed = 0;
            for a in &mut self.shards[i].live {
                if a.killed_as.is_some() {
                    continue;
                }
                if now.saturating_duration_since(a.last_heartbeat) > hb {
                    // Presumed dead: the pipe went silent.
                    a.killed_as = Some(ShardFailure::Crashed);
                    heartbeats_missed += 1;
                    a.handle.kill();
                } else if now.saturating_duration_since(a.last_progress) > pg {
                    // Alive but stuck: heartbeats without checkpoints.
                    a.killed_as = Some(ShardFailure::Wedged);
                    a.handle.kill();
                }
            }
            if heartbeats_missed > 0 {
                self.obs.count(Counter::HeartbeatsMissed, heartbeats_missed);
            }
            if let Some(at) = self.shards[i].retry_at {
                if now >= at && self.shards[i].live.is_empty() {
                    self.obs.count(Counter::ShardsRetried, 1);
                    self.dispatch(i, false, transport, merged, tx)?;
                }
            }
            if let Some(after) = self.cfg.speculate_after {
                let s = &self.shards[i];
                if !s.speculated
                    && s.live.len() == 1
                    && s.live[0].killed_as.is_none()
                    && now.saturating_duration_since(s.live[0].dispatched) > after
                    && s.attempts_used <= self.cfg.retry_budget
                {
                    self.shards[i].speculated = true;
                    self.dispatch(i, true, transport, merged, tx)?;
                }
            }
        }
        Ok(())
    }

    fn into_outcomes(self) -> Vec<ShardOutcome> {
        let stage = self.stage;
        self.shards
            .into_iter()
            .map(|s| ShardOutcome {
                stage,
                shard: s.scope.shard,
                attempts: s.attempts_used,
                failures: s.failures,
                abandoned: s.abandoned,
                speculative_win: s.speculative_win,
            })
            .collect()
    }
}

/// The deterministic retry delay before dispatch attempt
/// `attempts_used + 1` (so `failed_attempts` ≥ 1): decorrelated jitter,
/// seeded.
///
/// Pure exponential backoff re-dispatches simultaneous failures in
/// lockstep — after a partition heals or a host OOM-kills every agent at
/// once, all shards hammer the transport at the same instant, every
/// round. This is the standard fix ("exponential backoff and jitter",
/// decorrelated variant): each step draws uniformly from
/// `[base, 3 · previous)` and clamps to `[base, cap]`. The draw chain is
/// a [`SplitMix64`] stream derived from `(seed, shard)` and iterated
/// `failed_attempts` times, so the delay is a pure function of
/// `(seed, shard, attempt)` — sweeps replay exactly — while distinct
/// shards (and distinct attempts) spread out.
pub fn retry_backoff(
    base: Duration,
    cap: Duration,
    seed: u64,
    shard: u32,
    failed_attempts: u32,
) -> Duration {
    let base = base.max(Duration::from_micros(1));
    let cap = cap.max(base);
    let mut rng =
        SplitMix64::new(seed ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xbac_c0ff);
    let lo = base.as_nanos() as u64;
    let mut sleep = base;
    for _ in 0..failed_attempts.clamp(1, 32) {
        let hi = (sleep.as_nanos() as u64).saturating_mul(3).max(lo + 1);
        let pick = lo + rng.next_u64() % (hi - lo);
        sleep = Duration::from_nanos(pick).min(cap);
    }
    sleep
}

/// Synthesises [`RepOutcome::Abandoned`] placeholder records for every
/// slot an abandoned shard failed to deliver, carrying the shard's
/// failure as the per-repetition cause.
fn synthesize_missing(
    grid: &SweepGrid,
    shards: &[ShardState],
    merged: &mut MergeOutcome,
    fingerprint: u64,
) {
    for s in shards {
        let Some(failure) = s.abandoned else { continue };
        for &(config, rep) in &s.slots {
            if merged.records.contains_key(&(config, rep)) {
                continue;
            }
            let name = grid.config_name(config);
            let outcome = RepOutcome::Abandoned {
                attempts: s.attempts_used.max(1),
                cause: InterlagError::Shard { failure },
            };
            let record = CheckpointRecord::new(
                fingerprint,
                config,
                rep,
                &placeholder_result(&name),
                &outcome,
            );
            merged.records.insert((config, rep), record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_seed_shard_attempt() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        for seed in [0u64, 1, 0x5eed] {
            for shard in 0..6u32 {
                for attempt in 1..8u32 {
                    let a = retry_backoff(base, cap, seed, shard, attempt);
                    let b = retry_backoff(base, cap, seed, shard, attempt);
                    assert_eq!(a, b, "seed {seed} shard {shard} attempt {attempt}");
                    assert!(a >= base && a <= cap, "{a:?} outside [{base:?}, {cap:?}]");
                }
            }
        }
        // Huge attempt counts stay finite, in-envelope and deterministic.
        let big = retry_backoff(base, cap, 7, 3, u32::MAX);
        assert_eq!(big, retry_backoff(base, cap, 7, 3, u32::MAX));
        assert!(big >= base && big <= cap);
    }

    #[test]
    fn backoff_decorrelates_simultaneous_shard_failures() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        // The whole point: shards failing at the same instant on the
        // same attempt number must not all pick the same delay.
        let delays: Vec<Duration> =
            (0..8u32).map(|shard| retry_backoff(base, cap, 0x5eed, shard, 2)).collect();
        let mut unique = delays.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(unique.len() > 1, "all shards re-dispatch in lockstep: {delays:?}");
        // And a different seed reshuffles the schedule.
        let other: Vec<Duration> =
            (0..8u32).map(|shard| retry_backoff(base, cap, 0xd1ce, shard, 2)).collect();
        assert_ne!(delays, other);
    }

    #[test]
    fn abandoned_shards_synthesize_causal_placeholders() {
        let grid = SweepGrid::for_lab(&LabConfig { reps: 2, ..Default::default() });
        let scope = StudyScope { shard: 0, of: 2, stage: SweepStage::Stage1 };
        let shard = ShardState {
            scope,
            slots: grid.slots_for(scope),
            attempts_used: 3,
            live: Vec::new(),
            retry_at: None,
            failures: vec![ShardFailure::Crashed; 3],
            abandoned: Some(ShardFailure::Crashed),
            done: false,
            speculated: false,
            speculative_win: false,
        };
        let mut merged = MergeOutcome::new();
        // One slot was salvaged before the budget ran out.
        let salvaged = shard.slots[0];
        merged.records.insert(
            salvaged,
            CheckpointRecord::new(
                9,
                salvaged.0,
                salvaged.1,
                &placeholder_result("x"),
                &interlag_core::experiment::RepOutcome::Ok,
            ),
        );
        synthesize_missing(&grid, &[shard], &mut merged, 9);
        let scope_slots = grid.slots_for(scope);
        assert!(scope_slots.iter().all(|k| merged.records.contains_key(k)));
        // The salvaged slot was not overwritten.
        assert!(matches!(decodeable_outcome(&merged, salvaged), RepOutcome::Ok));
        let synthesized = scope_slots.iter().find(|&&k| k != salvaged).unwrap();
        match decodeable_outcome(&merged, *synthesized) {
            RepOutcome::Abandoned { attempts: 3, cause: InterlagError::Shard { failure } } => {
                assert_eq!(failure, ShardFailure::Crashed);
            }
            other => panic!("expected a shard-cause abandonment, got {other:?}"),
        }
    }

    fn decodeable_outcome(merged: &MergeOutcome, slot: (usize, u32)) -> RepOutcome {
        merged.records[&slot].clone().into_parts().3
    }
}
