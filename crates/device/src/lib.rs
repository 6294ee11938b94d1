//! # interlag-device — the simulated Android device
//!
//! The paper's testbed is a Qualcomm Dragonboard APQ8074 running Android
//! 4.2.2 with one active core. This crate is its simulation: a single-core
//! CPU with the Snapdragon 8074 OPP table, a scripted app layer that turns
//! replayed input events into compute tasks, a renderer producing the
//! screen contents, and capture/trace taps for the analysis pipeline.
//!
//! * [`scene`] — what the screen shows (elements, cursor, spinner);
//! * [`render`] — scenes + decorations (clock, blink, spinner) to pixels;
//! * [`task`] — phased compute work whose service time scales with DVFS;
//! * [`script`] — the app-side half of a recorded workload;
//! * [`dvfs`] — the governor interface and the fixed-frequency governor;
//! * [`device`] — the 1 ms-quantum execution loop tying it all together;
//! * [`error`] — the typed failures a run can surface instead of panicking.
//!
//! # Examples
//!
//! Record a one-tap workload, replay it at a fixed frequency, and check
//! that the captured video shows the app launch:
//!
//! ```
//! use interlag_device::device::{Device, DeviceConfig};
//! use interlag_device::dvfs::FixedGovernor;
//! use interlag_device::scene::{Scene, SceneUpdate};
//! use interlag_device::script::{DeviceScript, InteractionCategory, InteractionSpec};
//! use interlag_device::task::TaskSpec;
//! use interlag_evdev::gesture::Gesture;
//! use interlag_evdev::mt::Point;
//! use interlag_evdev::replay::ReplayAgent;
//! use interlag_evdev::time::SimTime;
//! use interlag_power::opp::Frequency;
//! use interlag_video::frame::Rect;
//!
//! let script = DeviceScript {
//!     interactions: vec![InteractionSpec {
//!         label: "launch gallery".into(),
//!         start: SimTime::from_millis(500),
//!         gesture: Gesture::tap(Point::new(20, 40)),
//!         widget: Some(Rect::new(10, 30, 20, 20)),
//!         response: Some(TaskSpec::single(
//!             50_000_000,
//!             SceneUpdate::replace(Scene::new(7)),
//!         )),
//!         category: InteractionCategory::Common,
//!     }],
//!     background: Vec::new(),
//!     tick: None,
//! };
//!
//! let device = Device::new(DeviceConfig::default());
//! let trace = script.record_trace();
//! let mut governor = FixedGovernor::new(Frequency::from_mhz(960));
//! let run = device
//!     .run(&script, ReplayAgent::new(trace), &mut governor, SimTime::from_secs(3))
//!     .expect("clean run");
//!
//! let lag = run.interactions[0].true_lag().expect("interaction serviced");
//! assert!(lag.as_millis() > 30 && lag.as_millis() < 200);
//! assert!(run.video.unwrap().len() > 80); // ~3 s at 30 fps
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod device;
pub mod dvfs;
pub mod error;
pub mod render;
pub mod scene;
pub mod script;
pub mod task;

pub use device::{CaptureMode, Device, DeviceConfig, InteractionRecord, RunArtifacts};
pub use dvfs::{FixedGovernor, Governor, LoadSample};
pub use error::DeviceError;
pub use scene::{Element, Scene, SceneUpdate};
pub use script::{DeviceScript, InteractionCategory, InteractionSpec};
pub use task::{Phase, TaskKind, TaskSpec};
