//! Property test of frame pacing: whatever the capture mode, quantum and
//! workload, a device run captures frame `i` at `i × frame_period`, and
//! as many frames as fit up to the run's end. The event-horizon loop
//! captures the frames a long step covers after the fact, so this is the
//! pacing guarantee it must keep.

use interlag_device::device::{CaptureMode, Device, DeviceConfig};
use interlag_device::dvfs::FixedGovernor;
use interlag_device::scene::{Scene, SceneUpdate};
use interlag_device::script::{DeviceScript, InteractionCategory, InteractionSpec, PeriodicTick};
use interlag_device::task::TaskSpec;
use interlag_evdev::gesture::Gesture;
use interlag_evdev::mt::Point;
use interlag_evdev::replay::ReplayAgent;
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_power::opp::Frequency;
use interlag_video::frame::Rect;
use proptest::prelude::*;

/// One tap on a widget whose response repaints the screen.
fn tap_script(tap_ms: u64, mcycles: u64) -> DeviceScript {
    let widget = Rect::new(10, 20, 30, 30);
    DeviceScript {
        interactions: vec![InteractionSpec {
            label: "tap".into(),
            start: SimTime::from_millis(tap_ms),
            gesture: Gesture::tap(Point::new(20, 30)),
            widget: Some(widget),
            response: Some(TaskSpec::single(
                mcycles * 1_000_000,
                SceneUpdate::replace(Scene::new(tap_ms)),
            )),
            category: InteractionCategory::SimpleFrequent,
        }],
        background: Vec::new(),
        tick: Some(PeriodicTick::default()),
    }
}

fn capture_mode() -> impl Strategy<Value = CaptureMode> {
    prop_oneof![
        Just(CaptureMode::None),
        Just(CaptureMode::Hdmi),
        proptest::num::u64::ANY.prop_map(|seed| CaptureMode::Camera { seed }),
    ]
}

proptest! {
    #[test]
    fn device_frames_are_on_the_grid(
        capture in capture_mode(),
        quantum_us in 200u64..5_000,
        span_ms in 100u64..2_000,
        tap_ms in 0u64..2_000,
        mcycles in 1u64..300,
    ) {
        let quantum = SimDuration::from_micros(quantum_us);
        let device = Device::new(DeviceConfig { capture, quantum, ..Default::default() });
        let script = tap_script(tap_ms, mcycles);
        let mut gov = FixedGovernor::new(Frequency::from_mhz(300));
        let run = device
            .run(&script, ReplayAgent::new(script.record_trace()), &mut gov, SimTime::from_millis(span_ms))
            .expect("clean run");
        match run.video {
            None => prop_assert_eq!(capture, CaptureMode::None),
            Some(video) => {
                prop_assert!(capture != CaptureMode::None);
                let period = video.frame_period();
                let expected = run.end_time.as_micros() / period.as_micros() + 1;
                prop_assert_eq!(video.len() as u64, expected);
                for (i, f) in video.iter().enumerate() {
                    prop_assert_eq!(f.time, SimTime::ZERO + period * i as u64);
                }
            }
        }
    }
}
