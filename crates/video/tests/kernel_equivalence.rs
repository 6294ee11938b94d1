//! Property tests pinning the word-wide diff kernels to the scalar
//! reference implementation: whatever the frames, masks, tolerances and
//! limits, the SWAR fast path must agree bit-for-bit with the per-pixel
//! walk it replaced.

use proptest::prelude::*;

use interlag_video::frame::{FrameBuffer, Rect};
use interlag_video::kernel;
use interlag_video::mask::{Mask, MatchTolerance};

/// Widths deliberately not divisible by 8 are included so head/tail
/// remainder handling is always exercised.
fn arb_dims() -> impl Strategy<Value = (u32, u32)> {
    (1u32..40, 1u32..20)
}

/// Tolerances biased towards the edges: 0 (the XOR popcount path), 255
/// (nothing can exceed it), and the wrap-around-sensitive middle.
fn arb_tol() -> impl Strategy<Value = u8> {
    prop_oneof![Just(0u8), Just(255u8), Just(254u8), Just(1u8), proptest::num::u8::ANY]
}

/// A pair of frames that are near-copies with injected differences —
/// random independent frames differ almost everywhere, which never
/// exercises limit edges near small counts.
fn arb_frame_pair() -> impl Strategy<Value = (FrameBuffer, FrameBuffer)> {
    (
        arb_dims(),
        proptest::num::u64::ANY,
        prop::collection::vec((proptest::num::u16::ANY, proptest::num::u8::ANY), 0..20),
    )
        .prop_map(|((w, h), seed, edits)| {
            let mut a = FrameBuffer::new(w, h);
            a.hash_paint(Rect::new(0, 0, w, h), seed);
            let mut b = a.clone();
            let n = b.pixels().len();
            for (pos, val) in edits {
                b.pixels_mut()[pos as usize % n] = val;
            }
            (a, b)
        })
}

fn arb_rects() -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec(
        (0u32..40, 0u32..20, 1u32..12, 1u32..8).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h)),
        0..4,
    )
}

proptest! {
    /// The whole-slice kernels agree with the scalar reference on counts
    /// and on every interesting early-exit limit.
    #[test]
    fn slice_kernels_match_reference((a, b) in arb_frame_pair(), tol in arb_tol()) {
        let (pa, pb) = (a.pixels(), b.pixels());
        let expect = kernel::reference::count_over(pa, pb, tol);
        prop_assert_eq!(kernel::count_over(pa, pb, tol), expect);
        for limit in [0, expect.saturating_sub(1), expect, expect + 1, u64::MAX] {
            prop_assert_eq!(
                kernel::exceeds(pa, pb, tol, limit),
                kernel::reference::exceeds(pa, pb, tol, limit),
                "tol {} limit {}", tol, limit
            );
            prop_assert_eq!(kernel::exceeds(pa, pb, tol, limit), expect > limit);
        }
    }

    /// `FrameBuffer` comparison (now kernel-backed) agrees with the
    /// scalar reference.
    #[test]
    fn frame_diff_matches_reference((a, b) in arb_frame_pair(), tol in arb_tol()) {
        let expect = kernel::reference::count_over(a.pixels(), b.pixels(), tol);
        prop_assert_eq!(a.count_diff(&b, tol), expect);
        for limit in [0, expect.saturating_sub(1), expect, expect + 1] {
            prop_assert_eq!(a.differs_more_than(&b, tol, limit), expect > limit);
        }
    }

    /// Masked comparison through the compiled spans (kernel-backed)
    /// agrees with the naive per-pixel mask walk.
    #[test]
    fn compiled_mask_matches_naive(
        (a, b) in arb_frame_pair(),
        rects in arb_rects(),
        tol in arb_tol(),
    ) {
        let mask: Mask = rects.into_iter().collect();
        let naive = mask.count_diff(&a, &b, tol);
        let cm = mask.compile(a.width(), a.height());
        prop_assert_eq!(cm.count_diff(&a, &b, tol), naive);
        for limit in [0, naive.saturating_sub(1), naive, naive + 1] {
            prop_assert_eq!(cm.differs_more_than(&a, &b, tol, limit), naive > limit);
        }
    }

    /// The matcher's verdict (`matches_compiled`) agrees with the naive
    /// rule — a match is at most `pixel_budget` unmasked pixels off by
    /// more than the value tolerance — for random budgets and the budgets
    /// either side of the actual count, with masks and without, including
    /// `EXACT` on an unobstructed mask (the digest-shortcut path).
    #[test]
    fn matches_compiled_agrees_with_naive_rule(
        (a, b) in arb_frame_pair(),
        rects in arb_rects(),
        tol in arb_tol(),
        budget in 0u64..6,
    ) {
        let masked: Mask = rects.into_iter().collect();
        for mask in [&masked, &Mask::new()] {
            let cm = mask.compile(a.width(), a.height());
            let count = mask.count_diff(&a, &b, tol);
            for pixel_budget in [budget, count, count.saturating_sub(1)] {
                let tolerance = MatchTolerance { value_tolerance: tol, pixel_budget };
                prop_assert_eq!(
                    tolerance.matches_compiled(&cm, &a, &b),
                    count <= pixel_budget,
                    "{:?}", tolerance
                );
            }
            let exact = mask.count_diff(&a, &b, 0) == 0;
            prop_assert_eq!(MatchTolerance::EXACT.matches_compiled(&cm, &a, &b), exact);
            prop_assert!(MatchTolerance::EXACT.matches_compiled(&cm, &a, &a));
        }
    }
}
