//! Property-based tests of the imaging layer: masked comparison bounds
//! and capture-path guarantees. Frame pacing is the device's, and is
//! tested there.

use std::sync::Arc;

use proptest::prelude::*;

use interlag_evdev::time::SimTime;
use interlag_video::capture::{CameraCapture, CaptureLink, HdmiCapture};
use interlag_video::frame::{FrameBuffer, Rect};
use interlag_video::mask::{Mask, MatchTolerance};

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0u32..24, 0u32..24, 1u32..9, 1u32..9).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

fn arb_frame() -> impl Strategy<Value = FrameBuffer> {
    proptest::num::u64::ANY.prop_map(|seed| {
        let mut f = FrameBuffer::new(32, 32);
        f.hash_paint(f.bounds(), seed);
        f
    })
}

proptest! {
    /// Masking can only hide differences, never create them.
    #[test]
    fn masked_diff_is_bounded_by_unmasked(
        a in arb_frame(),
        b in arb_frame(),
        rects in prop::collection::vec(arb_rect(), 0..5),
        tol in 0u8..16,
    ) {
        let mask: Mask = rects.into_iter().collect();
        let masked = mask.count_diff(&a, &b, tol);
        let unmasked = a.count_diff(&b, tol);
        prop_assert!(masked <= unmasked);
        // A higher tolerance can only reduce the count.
        prop_assert!(mask.count_diff(&a, &b, tol.saturating_add(8)) <= masked);
    }

    /// Visible area plus hidden area equals the frame area.
    #[test]
    fn mask_partitions_the_frame(rects in prop::collection::vec(arb_rect(), 0..5)) {
        let mask: Mask = rects.into_iter().collect();
        let visible = mask.visible_area(32, 32);
        let mut hidden = 0u64;
        for y in 0..32 {
            for x in 0..32 {
                if mask.is_excluded(x, y) {
                    hidden += 1;
                }
            }
        }
        prop_assert_eq!(visible + hidden, 32 * 32);
    }

    /// Changing pixels only inside the mask keeps frames equal under it;
    /// any change outside trips exact matching.
    #[test]
    fn masked_changes_are_invisible(base in arb_frame(), rect in arb_rect(), v in 0u8..=255) {
        let mask = Mask::new().with_excluded(rect);
        let mut inside = base.clone();
        inside.fill_rect(rect, v);
        prop_assert!(MatchTolerance::EXACT.matches(&mask, &base, &inside));
    }

    /// Camera capture noise stays within its configured bound, so the
    /// CAMERA tolerance always accepts camera shots of the same screen.
    #[test]
    fn camera_noise_is_bounded(seed in proptest::num::u64::ANY, frame in arb_frame()) {
        let mut cam = CameraCapture::new(seed);
        let shot = cam.capture(SimTime::from_secs(3), &frame);
        // amplitude 3 + wobble 4 = 7 ≤ the CAMERA tolerance of 8.
        prop_assert_eq!(frame.count_diff(&shot, 8), 0);
        prop_assert!(MatchTolerance::CAMERA.matches(&Mask::new(), &frame, &shot));
    }

    /// HDMI capture is bit-exact and deduplicates.
    #[test]
    fn hdmi_is_lossless(frame in arb_frame()) {
        let mut link = HdmiCapture::new();
        let a = link.capture(SimTime::ZERO, &frame);
        let b = link.capture(SimTime::from_millis(33), &frame);
        prop_assert!(Arc::ptr_eq(&a, &b));
        prop_assert_eq!(a.as_ref(), &frame);
    }
}
