//! A device shares equal screens across its runs. The sharing must be
//! invisible except for speed: a run on a device that has already run
//! other workloads produces exactly what the same run on a fresh device
//! produces, down to which of its frames share a buffer, and the device
//! keeps no screen alive that no run holds.

use std::collections::HashMap;
use std::sync::Arc;

use interlag_device::device::{CaptureMode, Device, DeviceConfig, RunArtifacts};
use interlag_device::dvfs::{FixedGovernor, Governor, LoadSample};
use interlag_device::scene::{Element, Scene, SceneUpdate};
use interlag_device::script::{
    BackgroundWork, DeviceScript, InteractionCategory, InteractionSpec, PeriodicTick,
};
use interlag_device::task::{Phase, TaskSpec};
use interlag_evdev::gesture::Gesture;
use interlag_evdev::mt::Point;
use interlag_evdev::replay::ReplayAgent;
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_obs::Recorder;
use interlag_power::opp::{Frequency, OppTable};
use interlag_video::frame::{FrameBuffer, Rect};
use interlag_video::stream::VideoStream;

const UNTIL: SimTime = SimTime::from_secs(5);

/// A progressively loading page with a spinner.
fn gallery() -> Scene {
    Scene::new(11)
        .with_element(Element::hidden(Rect::new(4, 20, 30, 30), 1))
        .with_element(Element::hidden(Rect::new(38, 20, 30, 30), 2))
        .with_spinner()
}

fn editor() -> Scene {
    Scene::new(12).with_element(Element::new(Rect::new(0, 90, 72, 30), 3))
}

/// A tap on a widget around `(x, y)` whose response runs `phases`.
fn tap(start_ms: u64, x: i32, y: i32, phases: Vec<Phase>) -> InteractionSpec {
    InteractionSpec {
        label: format!("tap at {start_ms} ms"),
        start: SimTime::from_millis(start_ms),
        gesture: Gesture::tap(Point::new(x, y)),
        widget: Some(Rect::new(x as u32 - 4, y as u32 - 4, 8, 8)),
        response: Some(TaskSpec::new(phases)),
        category: InteractionCategory::SimpleFrequent,
    }
}

fn cycles(m: u64) -> u64 {
    m * 1_000_000
}

/// Loading, typing with a blinking cursor, and a screen that leaves and
/// comes back between two frames.
fn browse() -> DeviceScript {
    DeviceScript {
        interactions: vec![
            tap(
                300,
                20,
                30,
                vec![
                    Phase::new(cycles(3), SceneUpdate::replace(gallery())),
                    Phase::with_wait(
                        cycles(20),
                        SimDuration::from_millis(150),
                        SceneUpdate::ShowElement(0),
                    ),
                    Phase::new(cycles(30), SceneUpdate::ShowElement(1)),
                    Phase::new(cycles(2), SceneUpdate::SetSpinner(false)),
                ],
            ),
            tap(
                1_600,
                40,
                60,
                vec![
                    Phase::new(cycles(2), SceneUpdate::replace(editor())),
                    Phase::new(cycles(1), SceneUpdate::SetCursor(true)),
                ],
            ),
            tap(
                2_600,
                40,
                100,
                vec![
                    Phase::new(cycles(2), SceneUpdate::replace(Scene::default())),
                    Phase::new(cycles(2), SceneUpdate::replace(editor().with_cursor())),
                ],
            ),
            tap(3_400, 20, 30, vec![Phase::new(cycles(5), SceneUpdate::replace(Scene::default()))]),
        ],
        background: vec![BackgroundWork {
            label: "sync".into(),
            start: SimTime::from_millis(1_000),
            cycles: cycles(20),
        }],
        tick: Some(PeriodicTick::default()),
    }
}

/// Other timings over some of the same screens.
fn search() -> DeviceScript {
    DeviceScript {
        interactions: vec![
            tap(
                500,
                40,
                60,
                vec![
                    Phase::new(cycles(4), SceneUpdate::replace(editor())),
                    Phase::new(cycles(2), SceneUpdate::SetCursor(true)),
                ],
            ),
            tap(
                2_200,
                20,
                30,
                vec![
                    Phase::new(cycles(15), SceneUpdate::replace(gallery())),
                    Phase::new(cycles(40), SceneUpdate::ShowElement(1)),
                    Phase::new(cycles(1), SceneUpdate::SetSpinner(false)),
                ],
            ),
            tap(3_300, 20, 30, vec![Phase::new(cycles(8), SceneUpdate::replace(Scene::default()))]),
        ],
        background: Vec::new(),
        tick: Some(PeriodicTick::default()),
    }
}

/// A load-driven governor that sees every sample: one OPP up when a
/// window was over 80 % busy, one down when under 30 %.
struct LoadDriven(Frequency);

impl Governor for LoadDriven {
    fn name(&self) -> &str {
        "load-driven"
    }

    fn init(&mut self, table: &OppTable) -> Frequency {
        self.0 = table.min_freq();
        self.0
    }

    fn sample_period(&self) -> SimDuration {
        SimDuration::from_millis(20)
    }

    fn on_sample(&mut self, _now: SimTime, load: LoadSample, table: &OppTable) -> Frequency {
        let pct = load.load_percent();
        if pct > 80.0 {
            self.0 = table.step_up(self.0, 1);
        } else if pct < 30.0 {
            self.0 = table.step_down(self.0, 1);
        }
        self.0
    }
}

fn governor(load_driven: bool) -> Box<dyn Governor> {
    if load_driven {
        Box::new(LoadDriven(Frequency::from_mhz(300)))
    } else {
        Box::new(FixedGovernor::new(Frequency::from_mhz(960)))
    }
}

fn run(device: &Device, script: &DeviceScript, load_driven: bool) -> RunArtifacts {
    let mut gov = governor(load_driven);
    device
        .run(script, ReplayAgent::new(script.record_trace()), &mut *gov, UNTIL)
        .expect("clean run")
}

fn device(capture: CaptureMode, obs: &Recorder) -> Device {
    Device::new(DeviceConfig { capture, obs: obs.clone(), ..Default::default() })
}

fn video(run: &RunArtifacts) -> &VideoStream {
    run.video.as_ref().expect("capture on")
}

/// Maximal runs of consecutive frames with equal pixels.
fn content_runs(video: &VideoStream) -> usize {
    let frames = video.frames();
    1 + frames.windows(2).filter(|w| w[0].buf.as_ref() != w[1].buf.as_ref()).count()
}

#[test]
fn a_warm_device_runs_exactly_like_a_fresh_one() {
    let (a, b) = (browse(), search());
    for capture in [CaptureMode::Hdmi, CaptureMode::Camera { seed: 9 }] {
        for load_driven in [false, true] {
            let (warm_obs, fresh_obs) = (Recorder::enabled(), Recorder::enabled());
            let warm = device(capture, &warm_obs);
            // Every warm run stays alive, so later runs share its screens.
            let mut kept = Vec::new();
            for script in [&a, &b, &a] {
                let shared = run(&warm, script, load_driven);
                let alone = run(&device(capture, &fresh_obs), script, load_driven);
                let ctx = format!("{capture:?}, load-driven {load_driven}");
                assert!(shared.interactions.iter().all(|r| r.service_time.is_some()), "{ctx}");
                assert_eq!(shared.interactions, alone.interactions, "{ctx}");
                assert_eq!(shared.activity, alone.activity, "{ctx}");
                assert_eq!(shared.end_time, alone.end_time, "{ctx}");
                let (sv, av) = (video(&shared), video(&alone));
                assert_eq!(sv.len(), av.len(), "{ctx}");
                for (x, y) in sv.iter().zip(av.iter()) {
                    assert_eq!((x.time, x.buf.as_ref()), (y.time, y.buf.as_ref()), "{ctx}");
                }
                assert_eq!(sv.runs(), av.runs(), "{ctx}: pointer runs");
                assert_eq!(
                    warm_obs.text_report_deterministic(),
                    fresh_obs.text_report_deterministic(),
                    "{ctx}: device counters"
                );
                kept.push(shared);
            }
            if capture == CaptureMode::Hdmi && !load_driven {
                // The repeat of `a` showed the first one's buffers.
                let (first, again) = (video(&kept[0]), video(&kept[2]));
                for (x, y) in first.iter().zip(again.iter()) {
                    assert!(Arc::ptr_eq(&x.buf, &y.buf), "frame at {:?} repainted", x.time);
                }
            }
        }
    }
}

#[test]
fn equal_consecutive_screens_share_one_buffer() {
    let warm = device(CaptureMode::Hdmi, &Recorder::disabled());
    let _earlier = run(&warm, &search(), false);
    for load_driven in [false, true] {
        let shared = run(&warm, &browse(), load_driven);
        let v = video(&shared);
        // The editor is repainted after a flicker no frame caught: the
        // frames either side of it still share one buffer.
        assert_eq!(v.runs().len(), content_runs(v), "load-driven {load_driven}");
    }
}

#[test]
fn the_device_keeps_no_screen_alive() {
    let warm = device(CaptureMode::Hdmi, &Recorder::disabled());
    let mut runs = vec![
        run(&warm, &browse(), false),
        run(&warm, &search(), true),
        run(&warm, &browse(), true),
    ];
    while !runs.is_empty() {
        // Every buffer's owners are exactly the live frames holding it.
        let mut holders: HashMap<*const FrameBuffer, (usize, &Arc<FrameBuffer>)> = HashMap::new();
        for f in runs.iter().flat_map(|r| video(r).iter()) {
            holders.entry(Arc::as_ptr(&f.buf)).or_insert((0, &f.buf)).0 += 1;
        }
        let shared = holders.values().filter(|(n, _)| *n > 1).count();
        assert!(shared > 0, "frames share buffers");
        for (frames, buf) in holders.values() {
            assert_eq!(Arc::strong_count(buf), *frames);
        }
        drop(holders);
        runs.pop();
    }
}
