//! Property test of the device loop's busy-time arithmetic on a silent
//! core: background bursts and a periodic system tick, nothing on screen.
//!
//! The loop folds silent work and the ticks due inside a step into
//! closed-form bursts. This test checks every load sample a governor is
//! handed, and the run's total busy time, against a small per-quantum
//! FIFO backlog model written here from the device's contract: work
//! spawns at the first quantum boundary at or after it is due, each
//! quantum runs up to its cycle budget of the backlog, and a quantum that
//! drains the backlog is busy for the cycles it ran, rounded down to the
//! microsecond. Tick cycles range above what a tick period holds at the
//! slowest OPP, so bursts merge.

use interlag_device::device::{CaptureMode, Device, DeviceConfig, RunArtifacts};
use interlag_device::dvfs::{Governor, LoadSample};
use interlag_device::script::{BackgroundWork, DeviceScript, PeriodicTick};
use interlag_evdev::replay::ReplayAgent;
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_evdev::trace::EventTrace;
use interlag_power::opp::{Frequency, OppTable};
use proptest::prelude::*;

/// Holds one frequency, logs every sample it is handed, and declares a
/// decision only at every `k`-th sample.
struct Logger {
    freq: Frequency,
    period: SimDuration,
    /// Samples fire on the quantum grid this far apart.
    stride_us: u64,
    k: u64,
    log: Vec<(SimTime, LoadSample)>,
}

impl Governor for Logger {
    fn name(&self) -> &str {
        "logger"
    }

    fn init(&mut self, _table: &OppTable) -> Frequency {
        self.freq
    }

    fn sample_period(&self) -> SimDuration {
        self.period
    }

    fn on_sample(&mut self, now: SimTime, load: LoadSample, _table: &OppTable) -> Frequency {
        self.log.push((now, load));
        self.freq
    }

    fn next_decision(&self, next_sample: SimTime) -> Option<SimTime> {
        // Sample `i` (from 1) is due at `(i - 1) × stride + period`.
        let due = |i: u64| SimTime::from_micros((i - 1) * self.stride_us + self.period.as_micros());
        let i = (next_sample.as_micros() - self.period.as_micros()) / self.stride_us + 1;
        Some(due(i.div_ceil(self.k) * self.k))
    }
}

struct Case {
    quantum: SimDuration,
    freq: Frequency,
    period: SimDuration,
    tick: PeriodicTick,
    bursts: Vec<BackgroundWork>,
    until: SimTime,
}

impl Case {
    fn script(&self) -> DeviceScript {
        DeviceScript {
            interactions: Vec::new(),
            background: self.bursts.clone(),
            tick: Some(self.tick),
        }
    }

    fn stride_us(&self) -> u64 {
        let q = self.quantum.as_micros();
        self.period.as_micros().div_ceil(q) * q
    }

    /// Every sample the loop takes, each with the load of its window, and
    /// the total busy time: stepped one quantum at a time.
    fn model(&self) -> (Vec<(SimTime, LoadSample)>, SimDuration) {
        let q = self.quantum;
        let budget = self.freq.cycles_in(q);
        let khz = self.freq.as_khz() as u64;
        let (mut backlog, mut total, mut acc) = (0u64, SimDuration::ZERO, SimDuration::ZERO);
        let mut next_tick = SimTime::ZERO + q;
        let mut next_burst = 0;
        let (mut last_sample, mut next_sample) = (SimTime::ZERO, SimTime::ZERO + self.period);
        let mut samples = Vec::new();
        let mut now = SimTime::ZERO;
        while now < self.until {
            while self.bursts.get(next_burst).is_some_and(|b| b.start <= now) {
                backlog += self.bursts[next_burst].cycles;
                next_burst += 1;
            }
            while next_tick <= now {
                backlog += self.tick.cycles;
                next_tick += self.tick.period;
            }
            let ran = backlog.min(budget);
            backlog -= ran;
            let busy = if ran == budget { q } else { SimDuration::from_micros(ran * 1_000 / khz) };
            total += busy;
            acc += busy;
            now += q;
            if now >= next_sample {
                samples.push((now, LoadSample { busy: acc, window: now - last_sample }));
                acc = SimDuration::ZERO;
                last_sample = now;
                next_sample = now + self.period;
            }
        }
        (samples, total)
    }

    fn run(
        &self,
        k: u64,
        capture: CaptureMode,
    ) -> (RunArtifacts, Vec<(SimTime, LoadSample)>, String) {
        let obs = interlag_obs::Recorder::enabled();
        let config =
            DeviceConfig { capture, quantum: self.quantum, obs: obs.clone(), ..Default::default() };
        let device = Device::new(config);
        let mut gov = Logger {
            freq: self.freq,
            period: self.period,
            stride_us: self.stride_us(),
            k,
            log: Vec::new(),
        };
        let run = device
            .run(&self.script(), ReplayAgent::new(EventTrace::new()), &mut gov, self.until)
            .expect("clean run");
        (run, gov.log, obs.text_report_deterministic())
    }
}

fn case() -> impl Strategy<Value = Case> {
    let slowest_per_us = OppTable::snapdragon_8074().min_freq().as_khz() as u64 / 1_000;
    let device =
        (prop_oneof![Just(1_000u64), Just(3_000), 250u64..2_500], 0usize..14, 500u64..40_000);
    let work = (
        100u64..30_000,
        0u64..150,
        proptest::collection::vec((0u64..3_000_000, 1u64..60_000_000), 0..6),
        200_000u64..3_000_000,
    );
    (device, work).prop_map(
        move |((quantum_us, opp, period_us), (tick_us, tick_pct, bursts, until_us))| {
            let freq = OppTable::snapdragon_8074().frequencies().nth(opp).expect("opp in range");
            let mut bursts: Vec<_> = bursts
                .into_iter()
                .map(|(start_us, cycles)| BackgroundWork {
                    label: "burst".into(),
                    start: SimTime::from_micros(start_us),
                    cycles,
                })
                .collect();
            bursts.sort_by_key(|b| b.start);
            // Up to 1.5× what one tick period holds at the slowest OPP.
            let tick_cycles = (tick_us * slowest_per_us * tick_pct / 100).max(1);
            Case {
                quantum: SimDuration::from_micros(quantum_us),
                freq,
                period: SimDuration::from_micros(period_us),
                tick: PeriodicTick {
                    period: SimDuration::from_micros(tick_us),
                    cycles: tick_cycles,
                },
                bursts,
                until: SimTime::from_micros(until_us),
            }
        },
    )
}

proptest! {
    #[test]
    fn silent_busy_time_matches_the_per_quantum_backlog(
        case in case(),
        k in 1u64..7,
        hdmi in 0u8..2,
    ) {
        let capture = if hdmi == 1 { CaptureMode::Hdmi } else { CaptureMode::None };
        let (samples, total) = case.model();
        let (run, log, obs) = case.run(k, capture);
        let decided: Vec<_> = samples
            .iter()
            .enumerate()
            .filter(|(i, _)| (*i as u64 + 1).is_multiple_of(k))
            .map(|(_, s)| *s)
            .collect();
        prop_assert_eq!(&log, &decided);
        prop_assert_eq!(run.activity.busy_time(), total);
        prop_assert_eq!(run.activity.total_duration(), run.end_time - SimTime::ZERO);

        // Deciding at every sample shortens the steps but changes nothing.
        let (every, every_log, every_obs) = case.run(1, capture);
        prop_assert_eq!(&every_log, &samples);
        prop_assert_eq!(&run.activity, &every.activity);
        prop_assert_eq!(&run.interactions, &every.interactions);
        prop_assert_eq!(run.end_time, every.end_time);
        prop_assert_eq!(obs, every_obs);
        let frames = |r: &RunArtifacts| {
            r.video.as_ref().map(|v| v.iter().map(|f| (f.time, f.buf.digest())).collect::<Vec<_>>())
        };
        prop_assert_eq!(frames(&run), frames(&every));
    }
}
