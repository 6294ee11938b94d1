//! Timed frame sequences: the "video file" of a workload execution.
//!
//! A [`VideoStream`] is what the capture box writes to the analysis
//! machine: frames at a fixed rate, each stamped with its presentation
//! time. Still periods dominate interactive workloads, so frames are held
//! behind [`Arc`]s and consecutive identical frames share one allocation —
//! a 10-minute capture costs megabytes, not gigabytes.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use interlag_evdev::time::{SimDuration, SimTime};

use crate::frame::FrameBuffer;

/// Why the capture path rejected an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VideoError {
    /// A frame arrived stamped at or before its predecessor. Accepting it
    /// would corrupt the binary-search invariants of
    /// [`VideoStream::frame_at`] and
    /// [`VideoStream::first_frame_at_or_after`], and a duplicate
    /// timestamp would hand downstream walkers two frames claiming the
    /// same instant.
    NonMonotonicTimestamp {
        /// Timestamp of the previously pushed frame.
        prev: SimTime,
        /// The offending timestamp.
        time: SimTime,
    },
}

impl std::fmt::Display for VideoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VideoError::NonMonotonicTimestamp { prev, time } => {
                write!(f, "frame timestamps must be monotonic ({time} after {prev})")
            }
        }
    }
}

impl std::error::Error for VideoError {}

/// One captured frame with its presentation timestamp.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VideoFrame {
    /// Zero-based frame number.
    pub index: u32,
    /// Presentation time.
    pub time: SimTime,
    /// The pixels. Shared with neighbouring identical frames.
    pub buf: Arc<FrameBuffer>,
}

/// The standard capture rate of the paper's setup (Elgato at 30 fps).
pub const FRAME_PERIOD_30FPS: SimDuration = SimDuration::from_micros(33_333);

/// A captured sequence of frames at a fixed rate.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use interlag_video::frame::FrameBuffer;
/// use interlag_video::stream::{VideoStream, FRAME_PERIOD_30FPS};
/// use interlag_evdev::time::SimTime;
///
/// let mut video = VideoStream::new(FRAME_PERIOD_30FPS);
/// let frame = Arc::new(FrameBuffer::new(8, 8));
/// video.push(SimTime::ZERO, frame.clone()).unwrap();
/// video.push(SimTime::from_micros(33_333), frame).unwrap();
/// assert_eq!(video.len(), 2);
/// assert_eq!(video.frame_at(SimTime::from_millis(20)).unwrap().index, 0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VideoStream {
    frame_period: SimDuration,
    frames: Vec<VideoFrame>,
}

impl VideoStream {
    /// Creates an empty stream with the given frame period.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    pub fn new(frame_period: SimDuration) -> Self {
        assert!(!frame_period.is_zero(), "frame period must be positive");
        VideoStream { frame_period, frames: Vec::new() }
    }

    /// The nominal interval between frames.
    pub fn frame_period(&self) -> SimDuration {
        self.frame_period
    }

    /// Frames per second, rounded to the nearest integer.
    pub fn fps(&self) -> u32 {
        (1.0 / self.frame_period.as_secs_f64()).round() as u32
    }

    /// Appends a frame captured at `time`.
    ///
    /// # Errors
    ///
    /// [`VideoError::NonMonotonicTimestamp`] if `time` is at or before the
    /// previous frame: capture hardware timestamps are strictly monotonic,
    /// a backwards frame would corrupt the binary-search invariants of
    /// [`VideoStream::frame_at`], and a duplicate timestamp would make the
    /// suggester and matcher walk two frames claiming the same instant (a
    /// stalled capture box re-presents the previous *buffer* at the next
    /// slot, never the same timestamp twice). The stream is left unchanged.
    pub fn push(&mut self, time: SimTime, buf: Arc<FrameBuffer>) -> Result<(), VideoError> {
        if let Some(last) = self.frames.last() {
            if time <= last.time {
                return Err(VideoError::NonMonotonicTimestamp { prev: last.time, time });
            }
        }
        let index = self.frames.len() as u32;
        self.frames.push(VideoFrame { index, time, buf });
        Ok(())
    }

    /// Number of captured frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// All frames in order.
    pub fn frames(&self) -> &[VideoFrame] {
        &self.frames
    }

    /// Iterates over the frames.
    pub fn iter(&self) -> std::slice::Iter<'_, VideoFrame> {
        self.frames.iter()
    }

    /// The frame with a given index.
    pub fn get(&self, index: u32) -> Option<&VideoFrame> {
        self.frames.get(index as usize)
    }

    /// The frame being displayed at `time`: the last frame presented at or
    /// before it. `None` before the first frame.
    pub fn frame_at(&self, time: SimTime) -> Option<&VideoFrame> {
        match self.frames.binary_search_by_key(&time, |f| f.time) {
            Ok(i) => Some(&self.frames[i]),
            Err(0) => None,
            Err(i) => Some(&self.frames[i - 1]),
        }
    }

    /// Index of the first frame presented at or after `time`; `len()` if
    /// the capture ended earlier. This is where the matcher starts walking
    /// when a lag begins at `time`.
    pub fn first_frame_at_or_after(&self, time: SimTime) -> u32 {
        self.frames.partition_point(|f| f.time < time) as u32
    }

    /// Capture length from first to last frame.
    pub fn duration(&self) -> SimDuration {
        match (self.frames.first(), self.frames.last()) {
            (Some(a), Some(b)) => b.time - a.time,
            _ => SimDuration::ZERO,
        }
    }

    /// The stream as pointer runs: maximal runs of consecutive frames
    /// sharing one `Arc`, in stream order. Still periods make this far
    /// shorter than `len()`. Derived in one pointer-compare pass, without
    /// digests or pixel copies. Two runs may hold equal content (a screen
    /// re-rendered into a fresh buffer, or an `A, B, A` bounce), so a
    /// consumer judging runs by content must not assume they differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use interlag_evdev::time::SimTime;
    /// use interlag_video::frame::FrameBuffer;
    /// use interlag_video::stream::{FrameRun, VideoStream, FRAME_PERIOD_30FPS};
    ///
    /// let mut v = VideoStream::new(FRAME_PERIOD_30FPS);
    /// let still = Arc::new(FrameBuffer::new(4, 4));
    /// for i in 0..5u64 {
    ///     v.push(SimTime::from_micros(i * 33_333), still.clone()).unwrap();
    /// }
    /// assert_eq!(v.runs(), vec![FrameRun { first_frame: 0, len: 5 }]);
    /// ```
    pub fn runs(&self) -> Vec<FrameRun> {
        let mut runs: Vec<FrameRun> = Vec::new();
        for f in &self.frames {
            match runs.last_mut() {
                Some(run) if Arc::ptr_eq(&self.frames[run.first_frame as usize].buf, &f.buf) => {
                    run.len += 1
                }
                _ => runs.push(FrameRun { first_frame: f.index, len: 1 }),
            }
        }
        runs
    }
}

/// One maximal run of consecutive frames sharing one buffer; see
/// [`VideoStream::runs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRun {
    /// Index of the run's first frame.
    pub first_frame: u32,
    /// Number of consecutive frames in the run.
    pub len: u32,
}

impl<'a> IntoIterator for &'a VideoStream {
    type Item = &'a VideoFrame;
    type IntoIter = std::slice::Iter<'a, VideoFrame>;
    fn into_iter(self) -> Self::IntoIter {
        self.frames.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(v: u8) -> Arc<FrameBuffer> {
        let mut f = FrameBuffer::new(4, 4);
        f.fill(v);
        Arc::new(f)
    }

    fn stream_of(n: u64) -> VideoStream {
        let mut s = VideoStream::new(FRAME_PERIOD_30FPS);
        let shared = frame(1);
        for i in 0..n {
            s.push(SimTime::from_micros(i * 33_333), shared.clone()).unwrap();
        }
        s
    }

    #[test]
    fn fps_rounding() {
        assert_eq!(VideoStream::new(FRAME_PERIOD_30FPS).fps(), 30);
        assert_eq!(VideoStream::new(SimDuration::from_millis(16)).fps(), 63);
    }

    #[test]
    fn frame_at_picks_displayed_frame() {
        let s = stream_of(10);
        assert!(s.frame_at(SimTime::ZERO).is_some());
        assert_eq!(s.frame_at(SimTime::from_micros(33_332)).unwrap().index, 0);
        assert_eq!(s.frame_at(SimTime::from_micros(33_333)).unwrap().index, 1);
        assert_eq!(s.frame_at(SimTime::from_secs(100)).unwrap().index, 9);
    }

    #[test]
    fn frame_at_before_start_is_none() {
        let mut s = VideoStream::new(FRAME_PERIOD_30FPS);
        s.push(SimTime::from_secs(1), frame(0)).unwrap();
        assert!(s.frame_at(SimTime::from_millis(999)).is_none());
    }

    #[test]
    fn first_frame_at_or_after_boundaries() {
        let s = stream_of(3);
        assert_eq!(s.first_frame_at_or_after(SimTime::ZERO), 0);
        assert_eq!(s.first_frame_at_or_after(SimTime::from_micros(1)), 1);
        assert_eq!(s.first_frame_at_or_after(SimTime::from_secs(1)), 3);
    }

    #[test]
    fn runs_split_on_pointer_changes() {
        let mut s = VideoStream::new(FRAME_PERIOD_30FPS);
        let a = frame(1);
        s.push(SimTime::from_micros(0), a.clone()).unwrap();
        s.push(SimTime::from_micros(33_333), a.clone()).unwrap();
        s.push(SimTime::from_micros(66_666), frame(2)).unwrap();
        s.push(SimTime::from_micros(99_999), a).unwrap();
        // A fresh buffer with equal content still starts a run.
        s.push(SimTime::from_micros(133_332), frame(1)).unwrap();
        assert_eq!(s.len(), 5);
        let runs: Vec<(u32, u32)> = s.runs().iter().map(|r| (r.first_frame, r.len)).collect();
        assert_eq!(runs, [(0, 2), (2, 1), (3, 1), (4, 1)]);
        assert!(VideoStream::new(FRAME_PERIOD_30FPS).runs().is_empty());
    }

    #[test]
    fn push_rejects_backwards_time_and_leaves_stream_intact() {
        let mut s = VideoStream::new(FRAME_PERIOD_30FPS);
        s.push(SimTime::from_secs(2), frame(0)).unwrap();
        let err = s.push(SimTime::from_secs(1), frame(0)).unwrap_err();
        assert_eq!(
            err,
            VideoError::NonMonotonicTimestamp {
                prev: SimTime::from_secs(2),
                time: SimTime::from_secs(1),
            }
        );
        assert!(err.to_string().contains("monotonic"));
        // The rejected frame must not have corrupted the stream.
        assert_eq!(s.len(), 1);
        assert_eq!(s.first_frame_at_or_after(SimTime::from_secs(1)), 0);
        // A duplicate timestamp is rejected too: a stalled capture box
        // repeats the previous *buffer* at the next slot, never the same
        // timestamp twice, and downstream walkers assume strict order.
        let dup = s.push(SimTime::from_secs(2), frame(1)).unwrap_err();
        assert_eq!(
            dup,
            VideoError::NonMonotonicTimestamp {
                prev: SimTime::from_secs(2),
                time: SimTime::from_secs(2),
            }
        );
        assert_eq!(s.len(), 1);
        // Strictly later frames still append.
        s.push(SimTime::from_secs(2) + SimDuration::from_micros(1), frame(1)).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn duration_spans_first_to_last() {
        let s = stream_of(31);
        assert_eq!(s.duration(), SimDuration::from_micros(30 * 33_333));
    }
}
