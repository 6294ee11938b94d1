//! Hardened dataset ingestion: strict and salvage loaders for the three
//! on-disk inputs a study can consume.
//!
//! Real capture rigs produce imperfect files — a `getevent` log cut off
//! mid-line by a dying adb connection, an annotation database whose masks
//! were drawn against a different screen, a video manifest referencing
//! frames that never made it to disk. The loaders here never panic on any
//! of that: every defect is a typed [`DatasetError`] carrying enough
//! byte-offset or line context to find it in the file. Callers choose a
//! policy per load:
//!
//! * [`IngestMode::Strict`] — the first defect aborts the load with its
//!   error (the `--strict` CLI behaviour, exit code 3);
//! * [`IngestMode::Salvage`] — defective lines and annotations are
//!   dropped, counted and reported in the accompanying [`IngestReport`],
//!   and the study runs on what survived (the default CLI behaviour).

use std::error::Error;
use std::fmt;

use interlag_evdev::trace::{parse_getevent_line, EventTrace};
use interlag_obs::{Counter, Recorder};
use interlag_video::frame::Rect;
use interlag_video::manifest::{parse_manifest, parse_manifest_salvage, ManifestError};
use interlag_video::stream::VideoStream;

use crate::annotation::AnnotationDb;

/// Why a dataset file could not be ingested.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum DatasetError {
    /// The file is not valid UTF-8; `offset` is the first bad byte.
    BadUtf8 {
        /// Byte offset of the first invalid sequence.
        offset: usize,
    },
    /// A `getevent` trace line could not be parsed.
    Trace {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The trace parsed but contains no events at all.
    EmptyTrace,
    /// The annotation database is not valid JSON for [`AnnotationDb`].
    AnnotationDb {
        /// The deserialiser's complaint.
        reason: String,
    },
    /// An annotation's mask excludes pixels outside its referenced ending
    /// frame — the mask was drawn against a different frame geometry.
    MaskOutOfBounds {
        /// The annotation whose mask disagrees with its frame.
        interaction_id: usize,
        /// The offending excluded rectangle (exclusive corner).
        rect_x1: u32,
        /// The offending excluded rectangle (exclusive corner).
        rect_y1: u32,
        /// The referenced frame's width.
        frame_width: u32,
        /// The referenced frame's height.
        frame_height: u32,
    },
    /// The video-stream manifest is defective.
    Manifest(ManifestError),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::BadUtf8 { offset } => {
                write!(f, "invalid UTF-8 at byte offset {offset}")
            }
            DatasetError::Trace { line, reason } => {
                write!(f, "getevent trace line {line}: {reason}")
            }
            DatasetError::EmptyTrace => write!(f, "trace contains no events"),
            DatasetError::AnnotationDb { reason } => {
                write!(f, "annotation database: {reason}")
            }
            DatasetError::MaskOutOfBounds {
                interaction_id,
                rect_x1,
                rect_y1,
                frame_width,
                frame_height,
            } => write!(
                f,
                "annotation {interaction_id}: mask rect extends to ({rect_x1}, {rect_y1}) \
                 outside its {frame_width}x{frame_height} ending frame"
            ),
            DatasetError::Manifest(e) => write!(f, "video manifest: {e}"),
        }
    }
}

impl Error for DatasetError {}

impl From<ManifestError> for DatasetError {
    fn from(e: ManifestError) -> Self {
        DatasetError::Manifest(e)
    }
}

/// What a loader does when it meets a defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// Fail fast: the first defect aborts the load.
    Strict,
    /// Drop the defective piece, count it, keep going.
    Salvage,
}

/// What salvage-mode loading had to throw away.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// `getevent` lines dropped as unparseable.
    pub dropped_trace_lines: usize,
    /// Annotations dropped for mask/frame disagreement.
    pub dropped_annotations: usize,
    /// Manifest directives dropped as defective.
    pub dropped_manifest_lines: usize,
    /// Human-readable notes, one per distinct defect (capped).
    pub notes: Vec<String>,
}

/// At most this many per-defect notes are kept; beyond it only the
/// counters grow (a 100 MB file of garbage must not balloon the report).
const MAX_NOTES: usize = 16;

impl IngestReport {
    /// `true` when nothing was dropped — the dataset was clean.
    pub fn is_clean(&self) -> bool {
        self.dropped_trace_lines == 0
            && self.dropped_annotations == 0
            && self.dropped_manifest_lines == 0
    }

    /// Total pieces dropped across all loaders.
    pub fn total_dropped(&self) -> usize {
        self.dropped_trace_lines + self.dropped_annotations + self.dropped_manifest_lines
    }

    /// Records a human-readable note about a dropped piece, capped at
    /// `MAX_NOTES` so an all-garbage file cannot balloon the report.
    pub fn note(&mut self, text: impl Into<String>) {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(text.into());
        }
    }

    /// Folds another report's counts and notes into this one.
    pub fn merge(&mut self, other: IngestReport) {
        self.dropped_trace_lines += other.dropped_trace_lines;
        self.dropped_annotations += other.dropped_annotations;
        self.dropped_manifest_lines += other.dropped_manifest_lines;
        for n in other.notes {
            self.note(n);
        }
    }
}

/// Loads a `getevent` trace from raw file bytes.
///
/// Strict mode rejects the file on the first bad byte or line, with its
/// offset. Salvage mode decodes lossily, drops each unparseable line and
/// records it, and only fails when *nothing* survives (an all-garbage
/// file is corrupt however forgiving the reader).
///
/// # Errors
///
/// [`DatasetError::BadUtf8`] / [`DatasetError::Trace`] in strict mode;
/// [`DatasetError::EmptyTrace`] in either mode when no event survives.
pub fn load_trace_bytes(
    bytes: &[u8],
    mode: IngestMode,
) -> Result<(EventTrace, IngestReport), DatasetError> {
    load_trace_bytes_observed(bytes, mode, &interlag_obs::DISABLED)
}

/// [`load_trace_bytes`] with telemetry: salvage-dropped lines are counted
/// into `rec`.
///
/// # Errors
///
/// As for [`load_trace_bytes`].
pub fn load_trace_bytes_observed(
    bytes: &[u8],
    mode: IngestMode,
    rec: &Recorder,
) -> Result<(EventTrace, IngestReport), DatasetError> {
    let mut report = IngestReport::default();
    let text: std::borrow::Cow<'_, str> = match mode {
        IngestMode::Strict => match std::str::from_utf8(bytes) {
            Ok(t) => t.into(),
            Err(e) => return Err(DatasetError::BadUtf8 { offset: e.valid_up_to() }),
        },
        IngestMode::Salvage => String::from_utf8_lossy(bytes),
    };
    let mut trace = EventTrace::new();
    for (i, line) in text.lines().enumerate() {
        match parse_getevent_line(line) {
            Ok(Some(event)) => trace.push(event),
            Ok(None) => {}
            Err(reason) => match mode {
                IngestMode::Strict => {
                    return Err(DatasetError::Trace { line: i + 1, reason });
                }
                IngestMode::Salvage => {
                    report.dropped_trace_lines += 1;
                    rec.count(Counter::SalvageDroppedLines, 1);
                    report.note(format!("trace line {}: {reason}", i + 1));
                }
            },
        }
    }
    if trace.is_empty() {
        return Err(DatasetError::EmptyTrace);
    }
    Ok((trace, report))
}

/// Loads an annotation database from JSON text and validates every mask
/// against its referenced ending frame.
///
/// A mask whose excluded rectangle reaches outside the annotation's image
/// was drawn against a different frame geometry; matching under it would
/// silently compare the wrong pixels. Strict mode rejects the database on
/// the first such annotation; salvage mode drops the offenders (the
/// matcher then reports those interactions as unannotated, which is
/// honest) and counts them.
///
/// # Errors
///
/// [`DatasetError::AnnotationDb`] when the JSON does not parse in either
/// mode; [`DatasetError::MaskOutOfBounds`] in strict mode.
pub fn load_annotation_db(
    json: &str,
    mode: IngestMode,
) -> Result<(AnnotationDb, IngestReport), DatasetError> {
    let db: AnnotationDb = serde_json::from_str(json)
        .map_err(|e| DatasetError::AnnotationDb { reason: e.to_string() })?;
    validate_annotation_db(db, mode)
}

/// The mask-vs-frame validation half of [`load_annotation_db`], usable on
/// databases that arrived by other means.
///
/// # Errors
///
/// [`DatasetError::MaskOutOfBounds`] in strict mode.
pub fn validate_annotation_db(
    db: AnnotationDb,
    mode: IngestMode,
) -> Result<(AnnotationDb, IngestReport), DatasetError> {
    let mut report = IngestReport::default();
    let mut clean = AnnotationDb::new(db.workload.clone());
    for ann in db.iter() {
        match ann.oversized_mask_rect() {
            None => clean.insert(ann.clone()),
            Some(rect) => {
                let err = mask_error(ann.interaction_id, rect, ann.image.bounds());
                match mode {
                    IngestMode::Strict => return Err(err),
                    IngestMode::Salvage => {
                        report.dropped_annotations += 1;
                        report.note(err.to_string());
                    }
                }
            }
        }
    }
    Ok((clean, report))
}

fn mask_error(interaction_id: usize, rect: Rect, frame: Rect) -> DatasetError {
    DatasetError::MaskOutOfBounds {
        interaction_id,
        rect_x1: rect.x1,
        rect_y1: rect.y1,
        frame_width: frame.x1,
        frame_height: frame.y1,
    }
}

/// Loads a video stream from manifest text.
///
/// Strict mode surfaces the first defective line with its number; salvage
/// mode drops defective frame/timestamp directives (a missing header or
/// period is fatal in both modes — without them nothing is decodable).
///
/// # Errors
///
/// [`DatasetError::Manifest`] with the line and defect.
pub fn load_manifest(
    text: &str,
    mode: IngestMode,
) -> Result<(VideoStream, IngestReport), DatasetError> {
    match mode {
        IngestMode::Strict => {
            let stream = parse_manifest(text)?;
            Ok((stream, IngestReport::default()))
        }
        IngestMode::Salvage => {
            let salvaged = parse_manifest_salvage(text)?;
            let mut report = IngestReport {
                dropped_manifest_lines: salvaged.dropped.len(),
                ..Default::default()
            };
            for e in &salvaged.dropped {
                report.note(format!("manifest: {e}"));
            }
            Ok((salvaged.stream, report))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::LagAnnotation;
    use interlag_evdev::time::SimDuration;
    use interlag_video::frame::FrameBuffer;
    use interlag_video::mask::{Mask, MatchTolerance};

    const GOOD: &str = "[     1.000000 ] /dev/input/event2: 0003 0039 0000002a\n\
                        [     1.000100 ] /dev/input/event2: 0000 0000 00000000\n";

    #[test]
    fn clean_trace_loads_in_both_modes() {
        for mode in [IngestMode::Strict, IngestMode::Salvage] {
            let (trace, report) = load_trace_bytes(GOOD.as_bytes(), mode).expect("clean");
            assert_eq!(trace.len(), 2);
            assert!(report.is_clean());
        }
    }

    #[test]
    fn strict_mode_reports_the_line_of_the_first_defect() {
        let text = format!("{GOOD}this is not a getevent line\n");
        let err = load_trace_bytes(text.as_bytes(), IngestMode::Strict).unwrap_err();
        match err {
            DatasetError::Trace { line, .. } => assert_eq!(line, 3),
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn salvage_mode_drops_and_counts_bad_lines() {
        let text = format!("garbage\n{GOOD}[ truncat");
        let (trace, report) = load_trace_bytes(text.as_bytes(), IngestMode::Salvage).expect("ok");
        assert_eq!(trace.len(), 2);
        assert_eq!(report.dropped_trace_lines, 2);
        assert!(!report.is_clean());
        assert_eq!(report.notes.len(), 2);
    }

    #[test]
    fn bad_utf8_is_an_offset_error_in_strict_mode_only() {
        let mut bytes = GOOD.as_bytes().to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe, b'\n']);
        let err = load_trace_bytes(&bytes, IngestMode::Strict).unwrap_err();
        assert_eq!(err, DatasetError::BadUtf8 { offset: GOOD.len() });
        // Salvage replaces the bad bytes and drops the mangled line.
        let (trace, _) = load_trace_bytes(&bytes, IngestMode::Salvage).expect("salvaged");
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn truncation_at_every_byte_offset_never_panics() {
        let text = format!("{GOOD}[     2.000000 ] /dev/input/event2: 0001 014a 00000001\n");
        let bytes = text.as_bytes();
        for cut in 0..bytes.len() {
            // Strict either parses a prefix or reports a typed error.
            let _ = load_trace_bytes(&bytes[..cut], IngestMode::Strict);
            // Salvage only fails when nothing survives.
            match load_trace_bytes(&bytes[..cut], IngestMode::Salvage) {
                Ok((trace, _)) => assert!(!trace.is_empty()),
                Err(e) => assert_eq!(e, DatasetError::EmptyTrace, "cut at {cut}"),
            }
        }
    }

    #[test]
    fn empty_trace_is_corrupt_in_either_mode() {
        for mode in [IngestMode::Strict, IngestMode::Salvage] {
            assert_eq!(load_trace_bytes(b"", mode).unwrap_err(), DatasetError::EmptyTrace);
            assert_eq!(
                load_trace_bytes(b"# only a comment\n", mode).unwrap_err(),
                DatasetError::EmptyTrace
            );
        }
    }

    fn annotation_with_mask(id: usize, mask: Mask) -> LagAnnotation {
        LagAnnotation {
            interaction_id: id,
            image: FrameBuffer::new(8, 8),
            mask,
            tolerance: MatchTolerance::EXACT,
            occurrence: 1,
            threshold: SimDuration::from_secs(1),
        }
    }

    #[test]
    fn oversized_mask_is_rejected_in_strict_mode() {
        // Regression: a mask one pixel taller than its 8x8 frame.
        let mut db = AnnotationDb::new("t");
        db.insert(annotation_with_mask(0, Mask::new()));
        db.insert(annotation_with_mask(3, Mask::new().with_excluded(Rect::new(0, 0, 8, 9))));
        let err = validate_annotation_db(db, IngestMode::Strict).unwrap_err();
        match err {
            DatasetError::MaskOutOfBounds { interaction_id, rect_y1, frame_height, .. } => {
                assert_eq!(interaction_id, 3);
                assert_eq!(rect_y1, 9);
                assert_eq!(frame_height, 8);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn oversized_mask_is_dropped_in_salvage_mode() {
        let mut db = AnnotationDb::new("t");
        db.insert(annotation_with_mask(0, Mask::new()));
        db.insert(annotation_with_mask(3, Mask::new().with_excluded(Rect::new(0, 0, 9, 8))));
        let (clean, report) = validate_annotation_db(db, IngestMode::Salvage).expect("salvaged");
        assert_eq!(clean.len(), 1);
        assert!(clean.get(0).is_some());
        assert!(clean.get(3).is_none());
        assert_eq!(report.dropped_annotations, 1);
    }

    #[test]
    fn exactly_fitting_mask_passes_validation() {
        let mut db = AnnotationDb::new("t");
        db.insert(annotation_with_mask(0, Mask::new().with_excluded(Rect::new(0, 0, 8, 8))));
        let (clean, report) = validate_annotation_db(db, IngestMode::Strict).expect("fits");
        assert_eq!(clean.len(), 1);
        assert!(report.is_clean());
    }

    #[test]
    fn annotation_db_json_round_trips_through_the_loader() {
        let mut db = AnnotationDb::new("t");
        db.insert(annotation_with_mask(1, Mask::new()));
        let json = serde_json::to_string(&db).expect("serialise");
        let (loaded, report) = load_annotation_db(&json, IngestMode::Strict).expect("load");
        assert_eq!(loaded, db);
        assert!(report.is_clean());
        assert!(matches!(
            load_annotation_db("{ not json", IngestMode::Strict).unwrap_err(),
            DatasetError::AnnotationDb { .. }
        ));
    }

    #[test]
    fn manifest_loader_respects_the_mode() {
        let text = "interlag-video-manifest v1\nperiod_us 33333\n\
                    frame a 4x4 00000000000000aa\nat 0 a\nat nonsense a\n";
        assert!(matches!(
            load_manifest(text, IngestMode::Strict).unwrap_err(),
            DatasetError::Manifest(_)
        ));
        let (stream, report) = load_manifest(text, IngestMode::Salvage).expect("salvaged");
        assert_eq!(stream.len(), 1);
        assert_eq!(report.dropped_manifest_lines, 1);
    }

    #[test]
    fn reports_merge_and_cap_their_notes() {
        let mut a = IngestReport::default();
        for i in 0..30 {
            a.dropped_trace_lines += 1;
            a.note(format!("line {i}"));
        }
        assert_eq!(a.notes.len(), MAX_NOTES);
        let mut b = IngestReport { dropped_annotations: 2, ..Default::default() };
        b.merge(a.clone());
        assert_eq!(b.total_dropped(), 32);
        assert_eq!(b.notes.len(), MAX_NOTES);
    }
}
