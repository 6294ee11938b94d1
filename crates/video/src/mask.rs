//! Image masks: handling legitimate non-determinism between executions.
//!
//! The matcher compares frames against annotated ending images, but parts
//! of the screen differ legitimately between runs — the status-bar clock,
//! a rotating advertisement, a blinking cursor (Figure 8 of the paper). A
//! [`Mask`] excludes such regions from comparison. Standard masks for the
//! common cases ship in [`Mask::status_bar`] and friends; fully custom
//! rectangle sets are supported, as in the paper's annotation GUI.

use serde::{Deserialize, Serialize};

use crate::frame::{FrameBuffer, Rect};
use crate::kernel;

/// A set of excluded rectangles: pixels inside any rectangle are ignored
/// when comparing frames.
///
/// # Examples
///
/// ```
/// use interlag_video::frame::{FrameBuffer, Rect};
/// use interlag_video::mask::Mask;
///
/// let mut a = FrameBuffer::new(32, 32);
/// let mut b = a.clone();
/// b.fill_rect(Rect::new(0, 0, 32, 4), 255); // clock area changed
/// let mask = Mask::new().with_excluded(Rect::new(0, 0, 32, 4));
/// assert_eq!(mask.count_diff(&a, &b, 0), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Mask {
    excluded: Vec<Rect>,
}

impl Mask {
    /// A mask that excludes nothing.
    pub fn new() -> Self {
        Mask::default()
    }

    /// Adds an excluded rectangle (builder style).
    pub fn with_excluded(mut self, rect: Rect) -> Self {
        self.excluded.push(rect);
        self
    }

    /// Adds an excluded rectangle.
    pub fn exclude(&mut self, rect: Rect) {
        self.excluded.push(rect);
    }

    /// The excluded rectangles.
    pub fn excluded(&self) -> &[Rect] {
        &self.excluded
    }

    /// `true` if the mask hides nothing.
    pub fn is_empty(&self) -> bool {
        self.excluded.is_empty()
    }

    /// `true` if `(x, y)` is hidden from comparison.
    pub fn is_excluded(&self, x: u32, y: u32) -> bool {
        self.excluded.iter().any(|r| r.contains(x, y))
    }

    /// The standard mask for a device's status bar (top `rows` pixel rows:
    /// clock, battery, signal indicators).
    pub fn status_bar(width: u32, rows: u32) -> Self {
        Mask::new().with_excluded(Rect::new(0, 0, width, rows))
    }

    /// Number of pixels differing by more than `value_tolerance` outside
    /// the mask.
    ///
    /// # Panics
    ///
    /// Panics if the frames have different dimensions.
    pub fn count_diff(&self, a: &FrameBuffer, b: &FrameBuffer, value_tolerance: u8) -> u64 {
        if self.is_empty() {
            return a.count_diff(b, value_tolerance);
        }
        assert_eq!(
            (a.width(), a.height()),
            (b.width(), b.height()),
            "cannot compare frames of different dimensions"
        );
        let mut count = 0u64;
        let (w, h) = (a.width(), a.height());
        let pa = a.pixels();
        let pb = b.pixels();
        for y in 0..h {
            // Precompute the excluded x-spans of this row to keep the
            // inner loop branch-light.
            let row = (y * w) as usize;
            'pixel: for x in 0..w {
                for r in &self.excluded {
                    if r.contains(x, y) {
                        continue 'pixel;
                    }
                }
                let i = row + x as usize;
                if pa[i].abs_diff(pb[i]) > value_tolerance {
                    count += 1;
                }
            }
        }
        count
    }

    /// `true` if more than `limit` unmasked pixels differ by more than
    /// `value_tolerance` — the early-exit form of [`Mask::count_diff`],
    /// scanning only until the verdict is decided.
    ///
    /// # Panics
    ///
    /// Panics if the frames have different dimensions.
    pub fn differs_more_than(
        &self,
        a: &FrameBuffer,
        b: &FrameBuffer,
        value_tolerance: u8,
        limit: u64,
    ) -> bool {
        if self.is_empty() {
            return a.differs_more_than(b, value_tolerance, limit);
        }
        self.compile(a.width(), a.height()).differs_more_than(a, b, value_tolerance, limit)
    }

    /// Compiles the rectangle list into per-row *included* pixel intervals
    /// for a `width × height` frame. The naive comparison asks "is this
    /// pixel inside any excluded rect?" once per pixel — O(rects) in the
    /// inner loop. The compiled form pays that cost once and then compares
    /// whole included spans with no per-pixel mask test at all. Compile
    /// once per annotation and reuse across every frame of every run.
    pub fn compile(&self, width: u32, height: u32) -> CompiledMask {
        let mut rows = Vec::with_capacity(height as usize);
        let mut visible = 0u64;
        for y in 0..height {
            // Clip the rects crossing this row to the frame, then merge.
            let mut excluded: Vec<(u32, u32)> = self
                .excluded
                .iter()
                .filter(|r| y >= r.y0 && y < r.y1)
                .map(|r| (r.x0.min(width), r.x1.min(width)))
                .filter(|(x0, x1)| x0 < x1)
                .collect();
            excluded.sort_unstable();
            // Complement into included spans.
            let mut included = Vec::new();
            let mut cursor = 0u32;
            for (x0, x1) in excluded {
                if x0 > cursor {
                    included.push((cursor, x0));
                }
                cursor = cursor.max(x1);
            }
            if cursor < width {
                included.push((cursor, width));
            }
            visible += included.iter().map(|&(x0, x1)| (x1 - x0) as u64).sum::<u64>();
            rows.push(included);
        }
        CompiledMask { width, height, rows, visible }
    }

    /// Pixel count left visible by the mask for a `width × height` frame.
    pub fn visible_area(&self, width: u32, height: u32) -> u64 {
        let mut n = 0u64;
        for y in 0..height {
            for x in 0..width {
                if !self.is_excluded(x, y) {
                    n += 1;
                }
            }
        }
        n
    }

    /// Paints the excluded regions of `frame` black; annotation databases
    /// store ending images with their mask burned in so the stored image
    /// never leaks masked content.
    pub fn apply(&self, frame: &mut FrameBuffer) {
        for r in &self.excluded {
            frame.fill_rect(*r, 0);
        }
    }
}

impl FromIterator<Rect> for Mask {
    fn from_iter<I: IntoIterator<Item = Rect>>(iter: I) -> Self {
        Mask { excluded: iter.into_iter().collect() }
    }
}

/// A [`Mask`] compiled for one frame size: per-row lists of *included*
/// `[x0, x1)` pixel intervals (see [`Mask::compile`]). Comparison walks
/// the included spans directly, so the per-pixel work is identical to an
/// unmasked compare regardless of how many rectangles the mask holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledMask {
    width: u32,
    height: u32,
    rows: Vec<Vec<(u32, u32)>>,
    visible: u64,
}

impl CompiledMask {
    /// Width of the frames this mask was compiled for.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height of the frames this mask was compiled for.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Pixel count left visible by the mask.
    pub fn visible_area(&self) -> u64 {
        self.visible
    }

    /// `true` if the mask hides no pixel of the frame, in which case whole-
    /// frame fast paths (digest compare, memcmp) are sound.
    pub fn is_unobstructed(&self) -> bool {
        self.visible == self.width as u64 * self.height as u64
    }

    fn check_dims(&self, a: &FrameBuffer, b: &FrameBuffer) {
        assert_eq!(
            (self.width, self.height),
            (a.width(), a.height()),
            "frame does not match compiled mask dimensions"
        );
        assert_eq!(
            (a.width(), a.height()),
            (b.width(), b.height()),
            "cannot compare frames of different dimensions"
        );
    }

    /// Number of unmasked pixels differing by more than `value_tolerance`;
    /// agrees exactly with [`Mask::count_diff`] on the mask it was compiled
    /// from. Each included span runs through the word kernels
    /// ([`crate::kernel`]).
    ///
    /// # Panics
    ///
    /// Panics if either frame's dimensions differ from the compiled size.
    pub fn count_diff(&self, a: &FrameBuffer, b: &FrameBuffer, value_tolerance: u8) -> u64 {
        self.check_dims(a, b);
        let (a, b) = (a.pixels(), b.pixels());
        let mut count = 0u64;
        for (y, spans) in self.rows.iter().enumerate() {
            let row = y * self.width as usize;
            for &(x0, x1) in spans {
                let (s, e) = (row + x0 as usize, row + x1 as usize);
                count += kernel::count_over(&a[s..e], &b[s..e], value_tolerance);
            }
        }
        count
    }

    /// Early-exit form of [`CompiledMask::count_diff`]: `true` as soon as
    /// more than `limit` unmasked pixels differ by more than
    /// `value_tolerance`.
    ///
    /// # Panics
    ///
    /// Panics if either frame's dimensions differ from the compiled size.
    pub fn differs_more_than(
        &self,
        a: &FrameBuffer,
        b: &FrameBuffer,
        value_tolerance: u8,
        limit: u64,
    ) -> bool {
        self.check_dims(a, b);
        let (a, b) = (a.pixels(), b.pixels());
        if value_tolerance == 0 && limit == 0 {
            // Bit-exact with zero budget: one memcmp per included span.
            for (y, spans) in self.rows.iter().enumerate() {
                let row = y * self.width as usize;
                for &(x0, x1) in spans {
                    let (s, e) = (row + x0 as usize, row + x1 as usize);
                    if a[s..e] != b[s..e] {
                        return true;
                    }
                }
            }
            return false;
        }
        let mut over = 0u64;
        for (y, spans) in self.rows.iter().enumerate() {
            let row = y * self.width as usize;
            for &(x0, x1) in spans {
                let (s, e) = (row + x0 as usize, row + x1 as usize);
                over += kernel::count_over(&a[s..e], &b[s..e], value_tolerance);
                if over > limit {
                    return true;
                }
            }
        }
        false
    }
}

/// Frame-comparison tolerances used together with a [`Mask`].
///
/// `value_tolerance` absorbs capture noise (each pixel may deviate by this
/// much and still match); `pixel_budget` absorbs sparse artifacts (this many
/// pixels may mismatch outright). HDMI captures are clean and work with
/// `EXACT`; camera captures need looser settings — quantified in the
/// `capture_noise` ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchTolerance {
    /// Maximum per-pixel value difference that still counts as equal.
    pub value_tolerance: u8,
    /// Maximum number of (unmasked) mismatching pixels.
    pub pixel_budget: u64,
}

impl MatchTolerance {
    /// Bit-exact comparison: what a clean HDMI capture allows.
    pub const EXACT: MatchTolerance = MatchTolerance { value_tolerance: 0, pixel_budget: 0 };

    /// A tolerance suitable for mild sensor noise.
    pub const CAMERA: MatchTolerance = MatchTolerance { value_tolerance: 8, pixel_budget: 64 };

    /// `true` if this tolerance is bit-exact with zero budget, for which
    /// digest comparison is a sound negative filter.
    fn is_exact(&self) -> bool {
        self.value_tolerance == 0 && self.pixel_budget == 0
    }

    /// `true` if `a` matches `b` under `mask` within this tolerance.
    ///
    /// Exact-tolerance unmasked matching is digest-gated: a cached 64-bit
    /// content digest ([`FrameBuffer::digest`]) is compared first, and the
    /// pixels are only verified in full when the digests agree — so the
    /// overwhelmingly common non-matching frame costs two word compares.
    pub fn matches(&self, mask: &Mask, a: &FrameBuffer, b: &FrameBuffer) -> bool {
        if self.is_exact() && mask.is_empty() {
            assert_eq!(
                (a.width(), a.height()),
                (b.width(), b.height()),
                "cannot compare frames of different dimensions"
            );
            if a.digest() != b.digest() {
                return false;
            }
            // Digest hit: verify, since 64-bit digests can collide.
            return a.pixels() == b.pixels();
        }
        !mask.differs_more_than(a, b, self.value_tolerance, self.pixel_budget)
    }

    /// [`MatchTolerance::matches`] against a precompiled mask — the form
    /// the matcher's inner loop uses so the rectangle list is compiled once
    /// per annotation instead of once per frame.
    ///
    /// # Panics
    ///
    /// Panics if either frame's dimensions differ from the compiled size.
    pub fn matches_compiled(&self, mask: &CompiledMask, a: &FrameBuffer, b: &FrameBuffer) -> bool {
        if self.is_exact() && mask.is_unobstructed() {
            mask.check_dims(a, b);
            if a.digest() != b.digest() {
                return false;
            }
            return a.pixels() == b.pixels();
        }
        !mask.differs_more_than(a, b, self.value_tolerance, self.pixel_budget)
    }
}

impl Default for MatchTolerance {
    fn default() -> Self {
        MatchTolerance::EXACT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_mask_counts_everything() {
        let mut a = FrameBuffer::new(8, 8);
        let b = FrameBuffer::new(8, 8);
        a.fill(9);
        assert_eq!(Mask::new().count_diff(&a, &b, 0), 64);
    }

    #[test]
    fn excluded_region_is_ignored() {
        let a = FrameBuffer::new(16, 16);
        let mut b = a.clone();
        b.fill_rect(Rect::new(4, 4, 4, 4), 255);
        let mask = Mask::new().with_excluded(Rect::new(4, 4, 4, 4));
        assert_eq!(mask.count_diff(&a, &b, 0), 0);
        // One pixel outside the mask still trips it.
        b.set(0, 0, 255);
        assert_eq!(mask.count_diff(&a, &b, 0), 1);
    }

    #[test]
    fn overlapping_excluded_rects_do_not_double_count() {
        let mask =
            Mask::new().with_excluded(Rect::new(0, 0, 4, 4)).with_excluded(Rect::new(2, 2, 4, 4));
        assert_eq!(mask.visible_area(8, 8), 64 - (16 + 16 - 4));
    }

    #[test]
    fn status_bar_mask_covers_top_rows() {
        let mask = Mask::status_bar(32, 3);
        assert!(mask.is_excluded(31, 2));
        assert!(!mask.is_excluded(0, 3));
    }

    #[test]
    fn apply_burns_mask_into_frame() {
        let mut f = FrameBuffer::new(8, 8);
        f.fill(200);
        let mask = Mask::status_bar(8, 2);
        mask.apply(&mut f);
        assert_eq!(f.get(0, 0), 0);
        assert_eq!(f.get(0, 2), 200);
    }

    #[test]
    fn tolerance_budget_and_value() {
        let a = FrameBuffer::new(8, 8);
        let mut b = a.clone();
        b.set(1, 1, 5);
        b.set(2, 2, 5);
        let mask = Mask::new();
        assert!(!MatchTolerance::EXACT.matches(&mask, &a, &b));
        let loose = MatchTolerance { value_tolerance: 4, pixel_budget: 0 };
        assert!(!loose.matches(&mask, &a, &b));
        let looser = MatchTolerance { value_tolerance: 0, pixel_budget: 2 };
        assert!(looser.matches(&mask, &a, &b));
        assert!(MatchTolerance::CAMERA.matches(&mask, &a, &b));
    }

    #[test]
    fn compiled_mask_agrees_with_naive() {
        let mask = Mask::new()
            .with_excluded(Rect::new(0, 0, 16, 2))
            .with_excluded(Rect::new(4, 1, 6, 10)) // overlaps the bar
            .with_excluded(Rect::new(12, 6, 20, 4)); // clipped at x = 16
        let cm = mask.compile(16, 12);
        assert_eq!(cm.visible_area(), mask.visible_area(16, 12));
        assert!(!cm.is_unobstructed());
        assert!(Mask::new().compile(16, 12).is_unobstructed());

        let mut a = FrameBuffer::new(16, 12);
        let mut b = FrameBuffer::new(16, 12);
        a.hash_paint(Rect::new(0, 0, 16, 12), 5);
        b.hash_paint(Rect::new(0, 0, 16, 12), 6);
        for tol in [0u8, 8, 128] {
            let naive = mask.count_diff(&a, &b, tol);
            assert_eq!(cm.count_diff(&a, &b, tol), naive);
            for limit in [0u64, naive.saturating_sub(1), naive, naive + 5] {
                assert_eq!(cm.differs_more_than(&a, &b, tol, limit), naive > limit);
                assert_eq!(mask.differs_more_than(&a, &b, tol, limit), naive > limit);
            }
        }
    }

    #[test]
    fn fully_excluded_row_has_no_spans() {
        let mask = Mask::new().with_excluded(Rect::new(0, 0, 8, 8));
        let cm = mask.compile(8, 8);
        assert_eq!(cm.visible_area(), 0);
        let mut a = FrameBuffer::new(8, 8);
        let b = FrameBuffer::new(8, 8);
        a.fill(255);
        assert_eq!(cm.count_diff(&a, &b, 0), 0);
        assert!(!cm.differs_more_than(&a, &b, 0, 0));
    }

    #[test]
    fn digest_gate_agrees_with_full_compare() {
        let mut a = FrameBuffer::new(16, 16);
        a.hash_paint(Rect::new(0, 0, 16, 16), 3);
        let same = a.clone();
        let mut other = a.clone();
        other.set(5, 5, a.get(5, 5).wrapping_add(1));

        let mask = Mask::new();
        let cm = mask.compile(16, 16);
        assert!(MatchTolerance::EXACT.matches(&mask, &a, &same));
        assert!(!MatchTolerance::EXACT.matches(&mask, &a, &other));
        assert!(MatchTolerance::EXACT.matches_compiled(&cm, &a, &same));
        assert!(!MatchTolerance::EXACT.matches_compiled(&cm, &a, &other));
    }

    #[test]
    fn matches_compiled_agrees_with_matches() {
        let mask = Mask::status_bar(16, 2);
        let cm = mask.compile(16, 16);
        let mut a = FrameBuffer::new(16, 16);
        a.hash_paint(Rect::new(0, 0, 16, 16), 11);
        let mut b = a.clone();
        b.fill_rect(Rect::new(0, 0, 16, 2), 123); // only the masked bar
        for tol in [MatchTolerance::EXACT, MatchTolerance::CAMERA] {
            assert_eq!(tol.matches(&mask, &a, &b), tol.matches_compiled(&cm, &a, &b));
            assert!(tol.matches_compiled(&cm, &a, &b));
        }
        b.set(8, 8, b.get(8, 8).wrapping_add(50)); // outside the mask
        assert!(!MatchTolerance::EXACT.matches_compiled(&cm, &a, &b));
    }

    #[test]
    fn mask_from_iterator() {
        let mask: Mask = vec![Rect::new(0, 0, 1, 1), Rect::new(2, 2, 1, 1)].into_iter().collect();
        assert_eq!(mask.excluded().len(), 2);
    }
}
