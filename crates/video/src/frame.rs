//! Frame buffers: the pixel rectangles the suggester and matcher compare.
//!
//! Frames are 8-bit grayscale. The methodology only ever asks "do these two
//! frames differ, outside the masked regions, by more than a tolerance?",
//! for which luminance is sufficient and cheap — the real pipeline decodes
//! HDMI captures to full colour but the comparison logic is identical.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::kernel;

/// An axis-aligned pixel rectangle, `[x0, x1) × [y0, y1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x0: u32,
    /// Top edge (inclusive).
    pub y0: u32,
    /// Right edge (exclusive).
    pub x1: u32,
    /// Bottom edge (exclusive).
    pub y1: u32,
}

impl Rect {
    /// Creates a rectangle from corner and size.
    pub fn new(x0: u32, y0: u32, width: u32, height: u32) -> Self {
        Rect { x0, y0, x1: x0 + width, y1: y0 + height }
    }

    /// Width in pixels.
    pub fn width(&self) -> u32 {
        self.x1 - self.x0
    }

    /// Height in pixels.
    pub fn height(&self) -> u32 {
        self.y1 - self.y0
    }

    /// Pixel count.
    pub fn area(&self) -> u64 {
        self.width() as u64 * self.height() as u64
    }

    /// `true` if `(x, y)` lies inside.
    pub fn contains(&self, x: u32, y: u32) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }

    /// The intersection with another rectangle, if non-empty.
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        let x0 = self.x0.max(other.x0);
        let y0 = self.y0.max(other.y0);
        let x1 = self.x1.min(other.x1);
        let y1 = self.y1.min(other.y1);
        (x0 < x1 && y0 < y1).then_some(Rect { x0, y0, x1, y1 })
    }
}

/// An owned 8-bit grayscale image.
///
/// # Examples
///
/// ```
/// use interlag_video::frame::{FrameBuffer, Rect};
///
/// let mut fb = FrameBuffer::new(64, 48);
/// fb.fill_rect(Rect::new(10, 10, 20, 20), 200);
/// assert_eq!(fb.get(15, 15), 200);
/// assert_eq!(fb.get(5, 5), 0);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FrameBuffer {
    width: u32,
    height: u32,
    pixels: Vec<u8>,
    /// Lazily computed content digest; see [`FrameBuffer::digest`]. Not
    /// part of the frame's identity: ignored by equality/hashing and never
    /// serialised (rebuilt on demand after deserialisation).
    #[serde(skip)]
    digest: DigestCell,
}

/// Cache slot for a frame's content digest.
///
/// Equality and hashing ignore the cache so two `FrameBuffer`s with the
/// same pixels compare equal regardless of which has been digested.
#[derive(Debug, Default)]
struct DigestCell(OnceLock<u64>);

impl Clone for DigestCell {
    fn clone(&self) -> Self {
        let cell = OnceLock::new();
        if let Some(&v) = self.0.get() {
            let _ = cell.set(v);
        }
        DigestCell(cell)
    }
}

impl PartialEq for DigestCell {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for DigestCell {}

impl Hash for DigestCell {
    fn hash<H: Hasher>(&self, _state: &mut H) {}
}

impl FrameBuffer {
    /// Creates a black frame of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be positive");
        FrameBuffer {
            width,
            height,
            pixels: vec![0; (width * height) as usize],
            digest: DigestCell::default(),
        }
    }

    /// Creates a frame from raw pixels in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height` or a dimension is zero.
    pub fn from_pixels(width: u32, height: u32, pixels: Vec<u8>) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be positive");
        assert_eq!(pixels.len(), (width * height) as usize, "pixel count mismatch");
        FrameBuffer { width, height, pixels, digest: DigestCell::default() }
    }

    /// A frame whose digest cache already holds `digest`, whatever its
    /// pixels: two such frames can collide, which real 64-bit digests do
    /// too rarely to test.
    #[cfg(test)]
    pub(crate) fn with_digest(width: u32, height: u32, pixels: Vec<u8>, digest: u64) -> Self {
        let fb = FrameBuffer::from_pixels(width, height, pixels);
        fb.digest.0.set(digest).expect("fresh digest cell");
        fb
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The full-frame rectangle.
    pub fn bounds(&self) -> Rect {
        Rect { x0: 0, y0: 0, x1: self.width, y1: self.height }
    }

    /// Raw pixels, row-major.
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Mutable raw pixels, row-major.
    pub fn pixels_mut(&mut self) -> &mut [u8] {
        self.digest = DigestCell::default();
        &mut self.pixels
    }

    /// One row as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn row(&self, y: u32) -> &[u8] {
        assert!(y < self.height, "row out of range");
        let start = (y * self.width) as usize;
        &self.pixels[start..start + self.width as usize]
    }

    /// One row as a mutable contiguous slice; hot loops write whole rows
    /// instead of calling [`FrameBuffer::set`] per pixel.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, y: u32) -> &mut [u8] {
        assert!(y < self.height, "row out of range");
        self.digest = DigestCell::default();
        let start = (y * self.width) as usize;
        let width = self.width as usize;
        &mut self.pixels[start..start + width]
    }

    /// The frame's 64-bit content digest, computed on first use and cached
    /// (every `&mut` method drops the cache). The digest is a pure function
    /// of `(width, height, pixels)`, so equal frames always have equal
    /// digests; unequal digests prove frames differ without touching a
    /// single pixel — the fast path behind exact-tolerance matching.
    pub fn digest(&self) -> u64 {
        *self.digest.0.get_or_init(|| {
            let mut h: u64 =
                0xcbf2_9ce4_8422_2325 ^ ((self.width as u64) << 32) ^ self.height as u64;
            let mut chunks = self.pixels.chunks_exact(8);
            for c in &mut chunks {
                let v = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
                h = (h ^ v).wrapping_mul(0x1000_0000_01b3);
                h ^= h >> 47;
            }
            for &b in chunks.remainder() {
                h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
            }
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^ (h >> 33)
        })
    }

    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y * self.width + x) as usize
    }

    /// The pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the coordinate is out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> u8 {
        self.pixels[self.idx(x, y)]
    }

    /// Sets the pixel at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, value: u8) {
        let i = self.idx(x, y);
        self.digest = DigestCell::default();
        self.pixels[i] = value;
    }

    /// Fills the whole frame with one value.
    pub fn fill(&mut self, value: u8) {
        self.digest = DigestCell::default();
        self.pixels.fill(value);
    }

    /// Fills `rect` (clipped to the frame) with one value.
    pub fn fill_rect(&mut self, rect: Rect, value: u8) {
        let Some(r) = rect.intersect(&self.bounds()) else { return };
        self.digest = DigestCell::default();
        for y in r.y0..r.y1 {
            let row = (y * self.width) as usize;
            self.pixels[row + r.x0 as usize..row + r.x1 as usize].fill(value);
        }
    }

    /// Paints `rect` with a deterministic texture derived from `seed`: a
    /// cheap way to give each UI element a distinctive, reproducible look
    /// without shipping image assets. Different seeds produce textures that
    /// differ in almost every pixel.
    pub fn hash_paint(&mut self, rect: Rect, seed: u64) {
        let Some(r) = rect.intersect(&self.bounds()) else { return };
        self.digest = DigestCell::default();
        // The per-x hash chain shares its first multiply across the row.
        let row_base = (seed ^ 0xcbf2_9ce4_8422_2325).wrapping_mul(0x1000_0000_01b3);
        for y in r.y0..r.y1 {
            let start = (y * self.width + r.x0) as usize;
            let row = &mut self.pixels[start..start + (r.x1 - r.x0) as usize];
            for (dx, p) in row.iter_mut().enumerate() {
                // FNV-ish position hash mixed with the seed.
                let mut h = row_base ^ (r.x0 + dx as u32) as u64;
                h = h.wrapping_mul(0x1000_0000_01b3) ^ (y as u64);
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
                h ^= h >> 33;
                *p = (h & 0xff) as u8;
            }
        }
    }

    /// Number of pixels whose values differ by more than `value_tolerance`
    /// between `self` and `other`. Runs on the word-wide SWAR kernels
    /// ([`crate::kernel`]), eight pixels per compare.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ — comparing frames of different
    /// sizes is always a pipeline bug.
    pub fn count_diff(&self, other: &FrameBuffer, value_tolerance: u8) -> u64 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "cannot compare frames of different dimensions"
        );
        kernel::count_over(&self.pixels, &other.pixels, value_tolerance)
    }

    /// `true` if more than `limit` pixels differ by more than
    /// `value_tolerance` — the early-exit form of [`count_diff`]: the scan
    /// stops at mismatch `limit + 1` instead of visiting every pixel, which
    /// is what frame matching actually needs (`count <= budget` is
    /// `!differs_more_than(budget)`).
    ///
    /// [`count_diff`]: FrameBuffer::count_diff
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn differs_more_than(&self, other: &FrameBuffer, value_tolerance: u8, limit: u64) -> bool {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "cannot compare frames of different dimensions"
        );
        kernel::exceeds(&self.pixels, &other.pixels, value_tolerance, limit)
    }

    /// Copies the pixels of `rect` (clipped to the frame) into a new
    /// buffer; jank analysis compares the animation region across frames.
    ///
    /// # Panics
    ///
    /// Panics if `rect` does not intersect the frame at all.
    pub fn crop(&self, rect: Rect) -> FrameBuffer {
        let r = rect.intersect(&self.bounds()).expect("crop rectangle must intersect the frame");
        let mut pixels = Vec::with_capacity(r.area() as usize);
        for y in r.y0..r.y1 {
            let row = (y * self.width) as usize;
            pixels.extend_from_slice(&self.pixels[row + r.x0 as usize..row + r.x1 as usize]);
        }
        FrameBuffer::from_pixels(r.width(), r.height(), pixels)
    }

    /// Shares the buffer behind an [`Arc`]; still periods reuse one
    /// allocation across thousands of video frames.
    pub fn into_shared(self) -> Arc<FrameBuffer> {
        Arc::new(self)
    }
}

impl fmt::Debug for FrameBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameBuffer")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("checksum", &self.pixels.iter().map(|&p| p as u64).sum::<u64>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_rect_clips_to_bounds() {
        let mut fb = FrameBuffer::new(10, 10);
        fb.fill_rect(Rect::new(8, 8, 10, 10), 77);
        assert_eq!(fb.get(9, 9), 77);
        assert_eq!(fb.get(7, 7), 0);
        // Entirely outside: no-op, no panic.
        fb.fill_rect(Rect::new(20, 20, 5, 5), 1);
    }

    #[test]
    fn hash_paint_is_deterministic_and_seed_sensitive() {
        let r = Rect::new(0, 0, 16, 16);
        let mut a = FrameBuffer::new(16, 16);
        let mut b = FrameBuffer::new(16, 16);
        a.hash_paint(r, 1234);
        b.hash_paint(r, 1234);
        assert_eq!(a, b);
        let mut c = FrameBuffer::new(16, 16);
        c.hash_paint(r, 1235);
        assert!(a.count_diff(&c, 0) > 200, "textures should differ almost everywhere");
    }

    #[test]
    fn count_diff_with_tolerance() {
        let mut a = FrameBuffer::new(4, 4);
        let mut b = FrameBuffer::new(4, 4);
        a.fill(100);
        b.fill(103);
        assert_eq!(a.count_diff(&b, 0), 16);
        assert_eq!(a.count_diff(&b, 3), 0);
        b.set(0, 0, 200);
        assert_eq!(a.count_diff(&b, 3), 1);
    }

    #[test]
    #[should_panic(expected = "different dimensions")]
    fn count_diff_rejects_mismatched_sizes() {
        let a = FrameBuffer::new(4, 4);
        let b = FrameBuffer::new(5, 4);
        let _ = a.count_diff(&b, 0);
    }

    #[test]
    fn rect_intersection() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 10, 10);
        assert_eq!(a.intersect(&b), Some(Rect { x0: 5, y0: 5, x1: 10, y1: 10 }));
        let c = Rect::new(20, 20, 2, 2);
        assert_eq!(a.intersect(&c), None);
        assert_eq!(a.area(), 100);
        assert!(a.contains(9, 9));
        assert!(!a.contains(10, 9));
    }

    #[test]
    fn crop_extracts_the_rect() {
        let mut f = FrameBuffer::new(10, 10);
        f.fill_rect(Rect::new(2, 3, 4, 4), 99);
        let c = f.crop(Rect::new(2, 3, 4, 4));
        assert_eq!((c.width(), c.height()), (4, 4));
        assert!(c.pixels().iter().all(|&p| p == 99));
        // Clips to bounds.
        let edge = f.crop(Rect::new(8, 8, 5, 5));
        assert_eq!((edge.width(), edge.height()), (2, 2));
    }

    #[test]
    #[should_panic(expected = "intersect")]
    fn crop_outside_bounds_panics() {
        FrameBuffer::new(4, 4).crop(Rect::new(10, 10, 2, 2));
    }

    #[test]
    fn digest_tracks_content_not_cache_state() {
        let mut a = FrameBuffer::new(16, 16);
        let mut b = FrameBuffer::new(16, 16);
        a.hash_paint(Rect::new(0, 0, 16, 16), 7);
        b.hash_paint(Rect::new(0, 0, 16, 16), 7);
        assert_eq!(a.digest(), b.digest(), "equal content, equal digest");
        // A digested frame still compares equal to an undigested clone.
        let undigested = b.clone();
        assert_eq!(a, undigested);

        // Every mutator drops the cache.
        let before = a.digest();
        a.set(3, 3, a.get(3, 3).wrapping_add(1));
        assert_ne!(a.digest(), before);
        let before = a.digest();
        a.fill_rect(Rect::new(0, 0, 4, 4), 250);
        assert_ne!(a.digest(), before);
        let before = a.digest();
        a.fill(9);
        assert_ne!(a.digest(), before);
        let before = a.digest();
        a.pixels_mut()[0] = 10;
        assert_ne!(a.digest(), before);
        let before = a.digest();
        a.hash_paint(Rect::new(0, 0, 16, 16), 99);
        assert_ne!(a.digest(), before);
    }

    /// Regression for the cache-invalidation bug class: after *any*
    /// mutation path the cached digest must equal the digest a fresh
    /// buffer computes from the same pixels — stale-cache bugs show up as
    /// an inequality here even when the pre/post digests happen to differ.
    #[test]
    fn digest_is_never_stale_after_mutation() {
        let fresh_digest = |f: &FrameBuffer| {
            FrameBuffer::from_pixels(f.width(), f.height(), f.pixels().to_vec()).digest()
        };
        type Mutation = Box<dyn Fn(&mut FrameBuffer)>;
        let mut f = FrameBuffer::new(16, 16);
        f.hash_paint(Rect::new(0, 0, 16, 16), 42);
        let mutations: Vec<Mutation> = vec![
            Box::new(|f| f.set(3, 7, 201)),
            Box::new(|f| f.fill_rect(Rect::new(2, 2, 5, 5), 9)),
            Box::new(|f| f.fill(17)),
            Box::new(|f| f.pixels_mut()[31] ^= 0xa5),
            Box::new(|f| f.row_mut(4)[0] = 250),
            Box::new(|f| f.hash_paint(Rect::new(1, 1, 10, 10), 77)),
        ];
        for (i, mutate) in mutations.iter().enumerate() {
            let _ = f.digest(); // force the cache warm before mutating
            mutate(&mut f);
            assert_eq!(f.digest(), fresh_digest(&f), "mutation {i} left a stale digest");
        }
    }

    #[test]
    fn row_accessors_view_row_major_pixels() {
        let mut f = FrameBuffer::new(4, 3);
        f.fill_rect(Rect::new(0, 1, 4, 1), 8);
        assert_eq!(f.row(1), &[8, 8, 8, 8]);
        assert_eq!(f.row(0), &[0, 0, 0, 0]);
        f.row_mut(2).copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(f.get(2, 2), 3);
    }

    #[test]
    fn digest_depends_on_dimensions() {
        // Same bytes, different shape: digests must differ.
        let a = FrameBuffer::from_pixels(4, 2, vec![1; 8]);
        let b = FrameBuffer::from_pixels(2, 4, vec![1; 8]);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn differs_more_than_agrees_with_count_diff() {
        let mut a = FrameBuffer::new(8, 8);
        let mut b = FrameBuffer::new(8, 8);
        a.hash_paint(Rect::new(0, 0, 8, 8), 1);
        b.hash_paint(Rect::new(0, 0, 8, 8), 2);
        for tol in [0u8, 4, 64, 255] {
            let count = a.count_diff(&b, tol);
            for limit in [0u64, 1, count.saturating_sub(1), count, count + 1] {
                assert_eq!(a.differs_more_than(&b, tol, limit), count > limit);
            }
        }
        assert!(!a.differs_more_than(&a.clone(), 0, 0));
    }

    #[test]
    fn debug_is_nonempty_and_compact() {
        let fb = FrameBuffer::new(8, 8);
        let s = format!("{fb:?}");
        assert!(s.contains("FrameBuffer"));
        assert!(s.contains("checksum"));
    }
}
