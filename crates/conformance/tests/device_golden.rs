//! Golden digests of whole device runs.
//!
//! Every [`RunArtifacts`] field the rest of the pipeline reads — the
//! merged activity samples, the interaction records, every captured
//! frame's timestamp and pixel digest, the replay statistics, the end
//! time, the tolerated input faults — plus the device's observability
//! counters is folded into one FNV-1a digest per run. The matrix crosses
//! three workloads (`mini` and two [`WorkloadBuilder`] sessions that
//! exercise waits, cursors, spinners, hard keys and recurring background
//! work) with fixed, load-driven and plan governors, every capture mode
//! and three replayers, so any change to the execution loop that moves a
//! single sample, poll, repaint or frame shows up as a changed line.
//! Smaller matrices pin an odd quantum, I/O waits without visible updates,
//! a dense system tick whose bursts overlap at the slowest OPP, and two
//! small scripts that a one-quantum-per-iteration engine once reproduced
//! bit for bit.
//!
//! Regenerate only after an intentional change to device behaviour with:
//! `UPDATE_GOLDEN=1 cargo test -p interlag-conformance --test device_golden`.

use interlag_conformance::assert_matches_golden;
use interlag_device::dvfs::{FixedGovernor, Governor};
use interlag_device::script::{BackgroundWork, PeriodicTick};
use interlag_device::{
    CaptureMode, Device, DeviceConfig, DeviceScript, InteractionCategory, InteractionSpec, Phase,
    RunArtifacts, Scene, SceneUpdate, TaskSpec,
};
use interlag_evdev::gesture::{Gesture, HardKey};
use interlag_evdev::mt::Point;
use interlag_evdev::replay::{ReplayAgent, SendeventReplayer};
use interlag_evdev::rng::SplitMix64;
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_faults::config::ReplayFaults;
use interlag_faults::replay::FaultyReplayer;
use interlag_governors::{
    Conservative, FrequencyPlan, Interactive, Ondemand, PlanGovernor, Schedutil,
};
use interlag_power::opp::{Frequency, OppTable};
use interlag_video::frame::Rect;
use interlag_workloads::gen::{Workload, WorkloadBuilder, MCYCLES};
use interlag_workloads::Dataset;

/// FNV-1a 64 over a byte stream; stable across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A builder session touching every scene feature the loop schedules
/// around: I/O waits, a blinking cursor, a spinner with per-frame load,
/// a hard key, spurious input and recurring background work.
fn builder_session(seed: u64) -> Workload {
    use InteractionCategory::{Common, Complex, SimpleFrequent};
    let mut content = SplitMix64::new(seed ^ 0xc0de);
    let mut b = WorkloadBuilder::new(seed);
    b.app_launch("launch", 400 * MCYCLES, 5, Common);
    b.think_ms(800, 1_500);
    b.page_load("page", 300 * MCYCLES, 4, SimDuration::from_millis(300), &mut content);
    b.think_ms(800, 1_500);
    b.typing_burst("type", 4, 20 * MCYCLES);
    b.think_ms(600, 1_200);
    b.heavy_with_progress("save", 900 * MCYCLES, Complex);
    b.think_ms(600, 1_200);
    b.game_session("game", SimDuration::from_secs(2), 30 * MCYCLES);
    b.think_ms(600, 1_200);
    b.scroll("scroll", 150 * MCYCLES, SimpleFrequent);
    b.think_ms(400, 900);
    b.key_press("back", HardKey::Back, 50 * MCYCLES);
    b.think_ms(400, 900);
    b.spurious_tap("miss");
    b.background_burst("sync", SimDuration::from_secs(1), 200 * MCYCLES);
    b.recurring_background(
        "poll",
        SimDuration::from_secs(3),
        20 * MCYCLES,
        SimDuration::from_secs(20),
    );
    b.build(&format!("builder-{seed}"), "golden builder session")
}

/// Interactions whose I/O waits end without a visible update, under
/// long background work: the blocked task's resume is the only event at
/// the end of each wait.
fn silent_waits_session() -> Workload {
    let widget = Rect::new(10, 20, 30, 30);
    let interaction = |i: u64| InteractionSpec {
        label: format!("silent wait {i}"),
        start: SimTime::from_millis(700 + 2_900 * i),
        gesture: Gesture::tap(Point::new(20, 30)),
        widget: Some(widget),
        response: Some(TaskSpec::new(vec![
            Phase::with_wait(3_000_000, SimDuration::from_micros(450_500), SceneUpdate::Nop),
            Phase::with_wait(
                2_000_000 + 1_000_000 * i,
                SimDuration::from_millis(90),
                SceneUpdate::Nop,
            ),
            Phase::new(5_000_000, SceneUpdate::replace(Scene::new(100 + i).with_cursor())),
        ])),
        category: InteractionCategory::Common,
    };
    let script = DeviceScript {
        interactions: (0..4).map(interaction).collect(),
        background: (0..4)
            .map(|i| BackgroundWork {
                label: format!("bg {i}"),
                start: SimTime::from_millis(500 + 3_000 * i),
                cycles: 900_000_000,
            })
            .collect(),
        tick: Some(PeriodicTick { period: SimDuration::from_millis(170), cycles: 400_000 }),
    };
    Workload {
        name: "silent-waits".into(),
        description: "waits without visible updates".into(),
        script,
        duration: SimDuration::from_secs(13),
    }
}

/// A builder session under a dense system tick: every 10.4 ms, 3.1 M
/// cycles — 10.33 ms of work at the slowest OPP, so at that frequency a
/// tick spawned 10 quanta after the last one lands before its burst has
/// drained and the two merge, while one 11 quanta after finds the core
/// idle. Input bursts (taps, typing, a long scroll), scripted background
/// work and a spinner's render passes collide with the ticks.
fn tick_stress_session() -> Workload {
    use InteractionCategory::{Common, Complex, SimpleFrequent};
    let mut b = WorkloadBuilder::new(23);
    b.set_tick(Some(PeriodicTick { period: SimDuration::from_micros(10_400), cycles: 3_100_000 }));
    b.app_launch("launch", 200 * MCYCLES, 3, Common);
    b.think_ms(500, 900);
    b.typing_burst("type", 5, 15 * MCYCLES);
    b.think_ms(400, 800);
    b.game_session("game", SimDuration::from_millis(1_500), 25 * MCYCLES);
    b.think_ms(400, 800);
    b.scroll("scroll", 120 * MCYCLES, SimpleFrequent);
    b.think_ms(300, 700);
    b.heavy_with_progress("save", 400 * MCYCLES, Complex);
    b.think_ms(600, 1_000);
    b.background_burst("sync", SimDuration::from_millis(300), 150 * MCYCLES);
    b.recurring_background(
        "poll",
        SimDuration::from_millis(1_700),
        9 * MCYCLES,
        SimDuration::from_secs(12),
    );
    b.build("tick-stress", "dense overlapping ticks")
}

/// A tap of `cycles` on a widget at `ms`, as in the scripts on which a
/// per-quantum engine once matched [`Device`] bit for bit.
fn identity_tap(
    label: &str,
    ms: u64,
    cycles: u64,
    scene: u64,
    category: InteractionCategory,
) -> InteractionSpec {
    InteractionSpec {
        label: label.into(),
        start: SimTime::from_millis(ms),
        gesture: Gesture::tap(Point::new(20, 30)),
        widget: Some(Rect::new(10, 20, 30, 30)),
        response: Some(TaskSpec::single(cycles, SceneUpdate::replace(Scene::new(scene)))),
        category,
    }
}

fn identity_workload(
    name: &str,
    interactions: Vec<InteractionSpec>,
    background: Vec<BackgroundWork>,
    tick: Option<PeriodicTick>,
) -> Workload {
    Workload {
        name: name.into(),
        description: "per-quantum identity scenario".into(),
        script: DeviceScript { interactions, background, tick },
        duration: SimDuration::ZERO,
    }
}

/// Pins one identity scenario's run: capture none, agent replayer.
fn assert_identity_run(golden: &str, w: &Workload, gov: &mut dyn Governor, until: SimTime) {
    let (run, counters) = run(w, gov, CaptureMode::None, "agent", MS, until);
    assert_matches_golden(golden, &line(w, &run, &counters, "none", "agent"));
}

fn workloads() -> Vec<Workload> {
    vec![Dataset::Mini.build(), builder_session(11), builder_session(12)]
}

fn governors(table: &OppTable) -> Vec<Box<dyn Governor>> {
    let mut plan = FrequencyPlan::new(Frequency::from_mhz(960));
    plan.set_from(SimTime::from_millis(2_500), table.max_freq());
    plan.set_from(SimTime::from_micros(4_000_500), table.min_freq());
    plan.set_from(SimTime::from_millis(7_000), Frequency::from_mhz(1_500));
    plan.set_from(SimTime::from_millis(12_345), table.max_freq());
    vec![
        Box::new(FixedGovernor::new(table.min_freq())),
        Box::new(FixedGovernor::new(table.max_freq())),
        Box::new(Ondemand::default()),
        Box::new(Conservative::default()),
        Box::new(Interactive::for_table(table)),
        Box::new(Schedutil::default()),
        Box::new(PlanGovernor::new("plan", plan)),
    ]
}

const CAPTURES: [(&str, CaptureMode); 3] = [
    ("none", CaptureMode::None),
    ("hdmi", CaptureMode::Hdmi),
    ("camera", CaptureMode::Camera { seed: 0xca3e }),
];

const REPLAYERS: [&str; 3] = ["agent", "sendevent", "faulty"];

const MS: SimDuration = SimDuration::from_millis(1);

fn run(
    w: &Workload,
    gov: &mut dyn Governor,
    capture: CaptureMode,
    replayer: &str,
    quantum: SimDuration,
    until: SimTime,
) -> (RunArtifacts, String) {
    let obs = interlag_obs::Recorder::enabled();
    let config = DeviceConfig { capture, quantum, obs: obs.clone(), ..DeviceConfig::default() };
    let device = Device::new(config);
    let trace = w.script.record_trace();
    let run = match replayer {
        "agent" => device.run(&w.script, ReplayAgent::new(trace), gov, until),
        "sendevent" => device.run(&w.script, SendeventReplayer::new(trace), gov, until),
        _ => {
            let faults =
                ReplayFaults { event_loss_rate: 0.0, delay_rate: 0.4, max_delay_us: 25_000 };
            let r = FaultyReplayer::new(ReplayAgent::new(trace), faults, SplitMix64::new(7));
            device.run(&w.script, r, gov, until)
        }
    };
    (run.expect("clean run"), obs.text_report_deterministic())
}

fn digest(run: &RunArtifacts, counters: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(run.governor_name.as_bytes());
    for s in run.activity.samples() {
        h.u64(s.start.as_micros());
        h.u64(s.duration.as_micros());
        h.u64(s.freq.as_khz() as u64);
        h.u64(s.busy.as_micros());
    }
    for r in &run.interactions {
        h.u64(r.id as u64);
        h.bytes(r.label.as_bytes());
        h.u64(r.input_time.as_micros());
        h.bytes(format!("{:?}", r.category).as_bytes());
        h.u64(u64::from(r.spurious) | u64::from(r.triggered) << 1);
        h.u64(r.service_time.map_or(u64::MAX, |t| t.as_micros()));
    }
    if let Some(video) = &run.video {
        for f in video.iter() {
            h.u64(f.index as u64);
            h.u64(f.time.as_micros());
            h.u64(f.buf.digest());
        }
    }
    h.u64(run.replay.events_replayed as u64);
    h.u64(run.replay.total_drift.as_micros());
    h.u64(run.replay.max_drift.as_micros());
    h.u64(run.input_faults as u64);
    h.u64(run.end_time.as_micros());
    h.bytes(counters.as_bytes());
    h.0
}

fn line(w: &Workload, run: &RunArtifacts, counters: &str, cname: &str, rname: &str) -> String {
    format!(
        "{} {} {cname} {rname} end_us={} samples={} frames={} digest={:016x}\n",
        w.name,
        run.governor_name,
        run.end_time.as_micros(),
        run.activity.samples().len(),
        run.video.as_ref().map_or(0, |v| v.len()),
        digest(run, counters),
    )
}

fn workload_lines(
    w: &Workload,
    captures: &[(&str, CaptureMode)],
    replayers: &[&str],
    quantum: SimDuration,
) -> String {
    let table = OppTable::snapdragon_8074();
    let mut lines = String::new();
    for gi in 0..governors(&table).len() {
        for &(cname, capture) in captures {
            for &rname in replayers {
                let mut gov = governors(&table).swap_remove(gi);
                let (run, counters) = run(w, gov.as_mut(), capture, rname, quantum, w.run_until());
                lines.push_str(&line(w, &run, &counters, cname, rname));
            }
        }
    }
    lines
}

#[test]
fn device_runs_match_golden_digests() {
    // One thread per workload; lines are joined in workload order.
    let lines: String = std::thread::scope(|s| {
        let handles: Vec<_> = workloads()
            .into_iter()
            .map(|w| s.spawn(move || workload_lines(&w, &CAPTURES, &REPLAYERS, MS)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("workload thread")).collect()
    });
    assert_matches_golden("device_runs.txt", &lines);
}

#[test]
fn odd_quantum_runs_match_golden_digests() {
    // A 3 ms quantum divides neither the frame period, the cursor blink
    // nor the spinner period, so every schedule falls between quanta.
    let w = builder_session(11);
    let lines =
        workload_lines(&w, &CAPTURES[1..2], &["agent", "faulty"], SimDuration::from_millis(3));
    assert_matches_golden("device_runs_q3ms.txt", &lines);
}

#[test]
fn silent_wait_runs_match_golden_digests() {
    let w = silent_waits_session();
    let lines = workload_lines(&w, &CAPTURES[..2], &["agent"], MS);
    assert_matches_golden("device_runs_silent_waits.txt", &lines);
}

#[test]
fn tick_stress_runs_match_golden_digests() {
    let w = tick_stress_session();
    let lines = workload_lines(&w, &CAPTURES[..2], &["agent", "faulty"], MS);
    assert_matches_golden("device_runs_tick_stress.txt", &lines);
}

/// Two taps, scripted background work and the default tick under a fixed
/// 960 MHz for 5 s: the script on which the single-cluster engine once
/// matched [`Device`] bit for bit.
#[test]
fn simple_script_identity_run_matches_golden_digest() {
    use InteractionCategory::SimpleFrequent;
    let sync = BackgroundWork {
        label: "sync".into(),
        start: SimTime::from_millis(3_000),
        cycles: 3_000_000,
    };
    let taps = vec![
        identity_tap("open app", 500, 60_000_000, 99, SimpleFrequent),
        identity_tap("tap more", 2_000, 30_000_000, 44, SimpleFrequent),
    ];
    let w = identity_workload("simple-script", taps, vec![sync], Some(PeriodicTick::default()));
    let mut gov = FixedGovernor::new(Frequency::from_mhz(960));
    assert_identity_run("device_runs_identity_simple.txt", &w, &mut gov, SimTime::from_secs(5));
}

/// A single 120 M-cycle tap under interactive for 4 s: the script on which
/// the single-cluster engine behind a quiescent thermal envelope once
/// matched [`Device`] bit for bit.
#[test]
fn one_tap_identity_run_matches_golden_digest() {
    let probe = vec![identity_tap("probe", 500, 120_000_000, 3, InteractionCategory::Common)];
    let w = identity_workload("one-tap", probe, Vec::new(), None);
    let mut gov = Interactive::for_table(&OppTable::snapdragon_8074());
    assert_identity_run("device_runs_identity_one_tap.txt", &w, &mut gov, SimTime::from_secs(4));
}
