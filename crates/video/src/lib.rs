//! # interlag-video — frame buffers, masks and capture paths
//!
//! The QoE methodology of *Seeker et al., IISWC 2014* decides when an
//! interaction has been serviced by looking at what the screen shows: the
//! device's video output is captured over HDMI, and analysis algorithms
//! compare frames under masks and tolerances. This crate provides that
//! entire imaging layer:
//!
//! * [`frame`] — 8-bit grayscale [`FrameBuffer`]s and
//!   rectangle arithmetic;
//! * [`mask`] — excluded-region masks and match tolerances (clock,
//!   advertisements, blinking cursors — Figure 8 of the paper);
//! * [`stream`] — timed frame sequences with identical-frame sharing, and
//!   their pointer runs;
//! * [`capture`] — the lossless HDMI path and a noisy camera model.
//!
//! # Examples
//!
//! Capture a changing screen at 30 fps and check that the mask hides the
//! clock:
//!
//! ```
//! use interlag_evdev::time::SimTime;
//! use interlag_video::capture::{CaptureLink, HdmiCapture};
//! use interlag_video::frame::{FrameBuffer, Rect};
//! use interlag_video::mask::{Mask, MatchTolerance};
//! use interlag_video::stream::{VideoStream, FRAME_PERIOD_30FPS};
//!
//! let mut link = HdmiCapture::new();
//! let mut video = VideoStream::new(FRAME_PERIOD_30FPS);
//! let mut screen = FrameBuffer::new(64, 96);
//! for i in 0..60u64 {
//!     let t = SimTime::ZERO + FRAME_PERIOD_30FPS * i;
//!     // The top row is a clock that redraws every second.
//!     screen.fill_rect(Rect::new(0, 0, 64, 4), (t.as_micros() / 1_000_000) as u8 + 10);
//!     video.push(t, link.capture(t, &screen)).unwrap();
//! }
//! let mask = Mask::status_bar(64, 4);
//! let first = &video.frames()[0].buf;
//! let last = &video.frames().last().unwrap().buf;
//! assert!(MatchTolerance::EXACT.matches(&mask, first, last));
//! assert!(!MatchTolerance::EXACT.matches(&Mask::new(), first, last));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod capture;
pub mod frame;
pub mod kernel;
pub mod manifest;
pub mod mask;
pub mod stream;

pub use frame::{FrameBuffer, Rect};
pub use manifest::{parse_manifest, parse_manifest_salvage, ManifestDefect, ManifestError};
pub use mask::{Mask, MatchTolerance};
pub use stream::{FrameRun, VideoError, VideoFrame, VideoStream, FRAME_PERIOD_30FPS};
