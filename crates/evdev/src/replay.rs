//! Replay agents: re-issuing a recorded trace with accurate timings.
//!
//! The paper found Android's stock `sendevent` tool too slow and too coarse
//! to reproduce a recording faithfully, and built a custom replay agent
//! instead. Both live here:
//!
//! * [`ReplayAgent`] — the custom agent. It is driven by the simulation
//!   loop (`poll` with the current time) and releases every event at
//!   exactly its recorded timestamp.
//! * [`SendeventReplayer`] — a model of the stock tool: every event costs a
//!   fixed per-event overhead (fork/exec + write path), so dense packets
//!   smear out in time. Used by the ablation bench to quantify why the
//!   custom agent was necessary.

use crate::event::TimedEvent;
use crate::time::{SimDuration, SimTime};
use crate::trace::EventTrace;

/// Cumulative timing-accuracy statistics of one replay run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReplayStats {
    /// Events released so far.
    pub events_replayed: usize,
    /// Sum of per-event release lateness.
    pub total_drift: SimDuration,
    /// Worst single-event lateness.
    pub max_drift: SimDuration,
}

impl ReplayStats {
    /// Mean lateness per event, zero if nothing replayed.
    pub fn mean_drift(&self) -> SimDuration {
        if self.events_replayed == 0 {
            SimDuration::ZERO
        } else {
            self.total_drift / self.events_replayed as u64
        }
    }

    fn record(&mut self, drift: SimDuration) {
        self.events_replayed += 1;
        self.total_drift += drift;
        self.max_drift = self.max_drift.max(drift);
    }
}

/// Common interface of the replay back-ends, so experiments can swap them.
pub trait Replayer {
    /// Events due at or before `now`, in order. Call with monotonically
    /// non-decreasing times.
    fn poll(&mut self, now: SimTime) -> Vec<TimedEvent>;

    /// `true` once every recorded event has been released.
    fn is_finished(&self) -> bool;

    /// Timing statistics accumulated so far.
    fn stats(&self) -> ReplayStats;

    /// The time the next event wants to be released, if any; lets the
    /// simulation loop skip ahead through idle stretches. It must be no
    /// later than the release time of the next event `poll` would return,
    /// and a `poll` before it must return nothing and change nothing:
    /// the loop does not poll in the quanta it skips.
    fn next_due(&self) -> Option<SimTime>;
}

/// The custom timing-accurate replay agent.
///
/// # Examples
///
/// ```
/// use interlag_evdev::event::{InputEvent, TimedEvent};
/// use interlag_evdev::replay::{Replayer, ReplayAgent};
/// use interlag_evdev::time::SimTime;
/// use interlag_evdev::trace::EventTrace;
///
/// let trace: EventTrace = vec![
///     TimedEvent::new(SimTime::from_millis(5), 1, InputEvent::syn_report()),
///     TimedEvent::new(SimTime::from_millis(9), 1, InputEvent::syn_report()),
/// ].into_iter().collect();
/// let mut agent = ReplayAgent::new(trace);
/// assert!(agent.poll(SimTime::from_millis(4)).is_empty());
/// assert_eq!(agent.poll(SimTime::from_millis(5)).len(), 1);
/// assert_eq!(agent.poll(SimTime::from_millis(20)).len(), 1);
/// assert!(agent.is_finished());
/// assert_eq!(agent.stats().max_drift.as_micros(), 11_000);
/// ```
#[derive(Debug, Clone)]
pub struct ReplayAgent {
    trace: EventTrace,
    cursor: usize,
    stats: ReplayStats,
}

impl ReplayAgent {
    /// Creates an agent that will replay `trace` at its recorded
    /// timestamps.
    pub fn new(trace: EventTrace) -> Self {
        ReplayAgent { trace, cursor: 0, stats: ReplayStats::default() }
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &EventTrace {
        &self.trace
    }
}

impl Replayer for ReplayAgent {
    fn poll(&mut self, now: SimTime) -> Vec<TimedEvent> {
        let events = self.trace.events();
        let mut out = Vec::new();
        while self.cursor < events.len() && events[self.cursor].time <= now {
            let ev = events[self.cursor];
            self.stats.record(now.saturating_since(ev.time));
            // The agent releases the event with its *intended* timestamp;
            // lateness only shows up in the stats. The quality of the
            // simulation loop's step size bounds the drift.
            out.push(ev);
            self.cursor += 1;
        }
        out
    }

    fn is_finished(&self) -> bool {
        self.cursor >= self.trace.len()
    }

    fn stats(&self) -> ReplayStats {
        self.stats
    }

    fn next_due(&self) -> Option<SimTime> {
        self.trace.events().get(self.cursor).map(|e| e.time)
    }
}

/// Default per-event overhead of the stock `sendevent` tool.
///
/// Each `sendevent` invocation is a separate process: fork/exec plus an
/// open/write/close of the device node. ~2 ms per event is what the paper's
/// authors observed made the tool unusable for dense multi-touch packets.
pub const SENDEVENT_PER_EVENT_OVERHEAD: SimDuration = SimDuration::from_millis(2);

/// A model of replaying through the stock `sendevent` tool.
///
/// Events are issued sequentially; each one costs
/// [`SENDEVENT_PER_EVENT_OVERHEAD`], so an event can never be released
/// earlier than the completion of its predecessor. Released events carry
/// their *actual* (late) timestamps, which is exactly how the inaccuracy
/// corrupts a replayed workload.
#[derive(Debug, Clone)]
pub struct SendeventReplayer {
    trace: EventTrace,
    cursor: usize,
    busy_until: SimTime,
    overhead: SimDuration,
    stats: ReplayStats,
}

impl SendeventReplayer {
    /// Creates a replayer with the default overhead.
    pub fn new(trace: EventTrace) -> Self {
        Self::with_overhead(trace, SENDEVENT_PER_EVENT_OVERHEAD)
    }

    /// Creates a replayer with an explicit per-event overhead.
    pub fn with_overhead(trace: EventTrace, overhead: SimDuration) -> Self {
        SendeventReplayer {
            trace,
            cursor: 0,
            busy_until: SimTime::ZERO,
            overhead,
            stats: ReplayStats::default(),
        }
    }
}

impl Replayer for SendeventReplayer {
    fn poll(&mut self, now: SimTime) -> Vec<TimedEvent> {
        let events = self.trace.events();
        let mut out = Vec::new();
        while self.cursor < events.len() {
            let ev = events[self.cursor];
            // The tool cannot start writing an event before its recorded
            // time, nor before it finished writing the previous one.
            let start = ev.time.max(self.busy_until);
            let done = start + self.overhead;
            if done > now {
                break;
            }
            self.busy_until = done;
            self.stats.record(done - ev.time);
            out.push(TimedEvent::new(done, ev.device, ev.event));
            self.cursor += 1;
        }
        out
    }

    fn is_finished(&self) -> bool {
        self.cursor >= self.trace.len()
    }

    fn stats(&self) -> ReplayStats {
        self.stats
    }

    fn next_due(&self) -> Option<SimTime> {
        self.trace.events().get(self.cursor).map(|e| {
            let start = e.time.max(self.busy_until);
            start + self.overhead
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::InputEvent;

    fn dense_trace(n: u64, spacing_us: u64) -> EventTrace {
        (0..n)
            .map(|i| {
                TimedEvent::new(SimTime::from_micros(i * spacing_us), 1, InputEvent::syn_report())
            })
            .collect()
    }

    #[test]
    fn agent_releases_at_recorded_times() {
        let mut agent = ReplayAgent::new(dense_trace(100, 1_000));
        let mut released = Vec::new();
        let mut t = SimTime::ZERO;
        while !agent.is_finished() {
            released.extend(agent.poll(t));
            t += SimDuration::from_micros(500);
        }
        assert_eq!(released.len(), 100);
        for (i, ev) in released.iter().enumerate() {
            assert_eq!(ev.time, SimTime::from_micros(i as u64 * 1_000));
        }
        // Polling every 500 µs bounds drift below 500 µs.
        assert!(agent.stats().max_drift < SimDuration::from_micros(500));
    }

    #[test]
    fn agent_next_due_allows_skipping_idle() {
        let trace: EventTrace =
            vec![TimedEvent::new(SimTime::from_secs(100), 1, InputEvent::syn_report())]
                .into_iter()
                .collect();
        let mut agent = ReplayAgent::new(trace);
        assert_eq!(agent.next_due(), Some(SimTime::from_secs(100)));
        assert!(agent.poll(SimTime::from_secs(99)).is_empty());
        assert_eq!(agent.poll(SimTime::from_secs(100)).len(), 1);
        assert_eq!(agent.next_due(), None);
    }

    #[test]
    fn sendevent_smears_dense_packets() {
        // 10 events recorded in the same millisecond: the real agent
        // replays them ~simultaneously, sendevent spreads them over 20 ms.
        let trace = dense_trace(10, 100);
        let mut tool = SendeventReplayer::new(trace.clone());
        let released = tool.poll(SimTime::from_secs(1));
        assert_eq!(released.len(), 10);
        let spread = released.last().unwrap().time - released[0].time;
        assert_eq!(spread, SimDuration::from_millis(18));
        assert!(tool.stats().max_drift >= SimDuration::from_millis(18));

        let mut agent = ReplayAgent::new(trace);
        let released = agent.poll(SimTime::from_secs(1));
        let spread = released.last().unwrap().time - released[0].time;
        assert_eq!(spread, SimDuration::from_micros(900));
    }

    #[test]
    fn sendevent_respects_recorded_times_when_sparse() {
        let trace = dense_trace(3, 1_000_000); // one per second
        let mut tool = SendeventReplayer::new(trace);
        let released = tool.poll(SimTime::from_secs(10));
        assert_eq!(released[1].time, SimTime::from_micros(1_002_000));
        assert_eq!(tool.stats().mean_drift(), SENDEVENT_PER_EVENT_OVERHEAD);
    }

    #[test]
    fn empty_trace_is_immediately_finished() {
        let mut agent = ReplayAgent::new(EventTrace::new());
        assert!(agent.is_finished());
        assert!(agent.poll(SimTime::from_secs(1)).is_empty());
        assert_eq!(agent.stats().events_replayed, 0);
    }
}
