//! Capture paths: how the device's screen becomes an analysable video.
//!
//! The paper first tried pointing a camera at the phone and found the
//! artifacts made frame comparison impractical; the final setup taps the
//! HDMI output into an Elgato Game Capture HD for a pixel-exact stream
//! (§II-C). Both paths are modelled:
//!
//! * [`HdmiCapture`] — lossless; consecutive identical frames share one
//!   allocation, which is what makes day-long captures affordable.
//! * [`CameraCapture`] — adds deterministic sensor noise and a slow
//!   brightness wobble, reproducing why exact matching fails without
//!   tolerances (the `capture_noise` ablation bench quantifies it).

use std::sync::Arc;

use interlag_evdev::rng::SplitMix64;
use interlag_evdev::time::{SimDuration, SimTime};

use crate::frame::FrameBuffer;

/// A device that turns screen contents into captured frames.
///
/// Implementations may transform the pixels (noise, rolling brightness) but
/// never drop or reorder frames; frame pacing is the caller's job (the
/// device captures one frame per frame period).
pub trait CaptureLink {
    /// Captures the screen contents `screen` at time `time`.
    fn capture(&mut self, time: SimTime, screen: &FrameBuffer) -> Arc<FrameBuffer>;
}

/// Lossless HDMI capture with identical-frame deduplication.
#[derive(Debug, Default)]
pub struct HdmiCapture {
    last: Option<Arc<FrameBuffer>>,
}

impl HdmiCapture {
    /// Creates the capture link.
    pub fn new() -> Self {
        HdmiCapture::default()
    }
}

impl CaptureLink for HdmiCapture {
    fn capture(&mut self, _time: SimTime, screen: &FrameBuffer) -> Arc<FrameBuffer> {
        if let Some(last) = &self.last {
            if last.as_ref() == screen {
                return last.clone();
            }
        }
        let shared = Arc::new(screen.clone());
        self.last = Some(shared.clone());
        shared
    }
}

/// Camera capture: per-pixel sensor noise plus a slow global brightness
/// wobble (auto-exposure hunting).
#[derive(Debug)]
pub struct CameraCapture {
    rng: SplitMix64,
    /// Peak per-pixel noise amplitude (uniform in `[-amp, +amp]`).
    noise_amplitude: u8,
    /// Peak brightness offset of the exposure wobble.
    wobble_amplitude: u8,
    /// Wobble period.
    wobble_period: SimDuration,
}

impl CameraCapture {
    /// Creates a camera link with typical smartphone-camera noise.
    pub fn new(seed: u64) -> Self {
        CameraCapture {
            rng: SplitMix64::new(seed),
            noise_amplitude: 3,
            wobble_amplitude: 4,
            wobble_period: SimDuration::from_secs(7),
        }
    }

    /// Overrides the per-pixel noise amplitude.
    pub fn with_noise_amplitude(mut self, amp: u8) -> Self {
        self.noise_amplitude = amp;
        self
    }
}

impl CaptureLink for CameraCapture {
    fn capture(&mut self, time: SimTime, screen: &FrameBuffer) -> Arc<FrameBuffer> {
        let mut out = screen.clone();
        // Triangle-wave exposure wobble.
        let phase = (time.as_micros() % self.wobble_period.as_micros()) as f64
            / self.wobble_period.as_micros() as f64;
        let tri = if phase < 0.5 { phase * 2.0 } else { 2.0 - phase * 2.0 };
        let offset = (tri * 2.0 - 1.0) * self.wobble_amplitude as f64;
        let amp = self.noise_amplitude as i64;
        for p in out.pixels_mut() {
            let noise = self.rng.next_range(-amp, amp);
            let v = *p as i64 + noise + offset.round() as i64;
            *p = v.clamp(0, 255) as u8;
        }
        Arc::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdmi_capture_is_lossless_and_dedups() {
        let mut link = HdmiCapture::new();
        let mut screen = FrameBuffer::new(8, 8);
        screen.fill(42);
        let a = link.capture(SimTime::ZERO, &screen);
        let b = link.capture(SimTime::from_millis(33), &screen);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.as_ref(), &screen);
        screen.set(0, 0, 7);
        let c = link.capture(SimTime::from_millis(66), &screen);
        assert!(!Arc::ptr_eq(&b, &c));
        assert_eq!(c.get(0, 0), 7);
    }

    #[test]
    fn camera_capture_is_noisy_but_bounded() {
        let mut link = CameraCapture::new(3);
        let mut screen = FrameBuffer::new(16, 16);
        screen.fill(128);
        let shot = link.capture(SimTime::from_secs(1), &screen);
        assert!(shot.count_diff(&screen, 0) > 0, "camera should add noise");
        assert_eq!(shot.count_diff(&screen, 8), 0, "noise bounded by amp+wobble");
    }

    #[test]
    fn camera_capture_is_deterministic_per_seed() {
        let mut screen = FrameBuffer::new(8, 8);
        screen.fill(90);
        let a = CameraCapture::new(11).capture(SimTime::from_secs(2), &screen);
        let b = CameraCapture::new(11).capture(SimTime::from_secs(2), &screen);
        assert_eq!(a.as_ref(), b.as_ref());
    }
}
