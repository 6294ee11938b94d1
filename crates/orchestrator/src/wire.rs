//! The agent→supervisor wire protocol.
//!
//! Agents speak a line-oriented stream of CRC-framed JSON messages over
//! stdout, using `interlag-journal`'s *text* framing (`len crc payload\n`)
//! so one codec covers both the on-disk journal and the pipe. The
//! supervisor feeds raw pipe bytes into a [`FrameReader`], which
//! resynchronises on newlines: a dropped, truncated or bit-flipped frame
//! damages exactly the lines it touches — counted, quarantined, never
//! misparsed — and decoding resumes at the next intact frame.

use interlag_core::checkpoint::CheckpointRecord;
use interlag_journal::{decode_records, encode_record};
use serde::{Deserialize, Serialize};

/// One protocol message. Every variant is idempotent or slot-keyed, so
/// duplicated frames are harmless and dropped frames cost only latency
/// (the on-disk shard journal remains the durable source of truth).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireMsg {
    /// First message of a dispatch: who I am and what I'm sweeping.
    /// A fingerprint mismatch means the agent is running a different
    /// study than the supervisor thinks — everything it sends is foreign.
    Hello {
        /// Shard index within the wave.
        shard: u32,
        /// Total shards in the wave.
        of: u32,
        /// `"stage1"` or `"oracle"`.
        stage: String,
        /// The agent's `study_fingerprint` of its trace and lab config.
        fingerprint: u64,
    },
    /// Liveness beacon, sent on a timer from a dedicated thread — flows
    /// even when the study worker wedges, which is exactly how the
    /// supervisor tells a wedge (progress watchdog) from a death
    /// (heartbeat watchdog).
    Heartbeat {
        /// Monotonic per-attempt sequence number.
        seq: u64,
        /// Repetitions journalled so far this attempt.
        completed: u32,
    },
    /// One journalled repetition, streamed right after its durable
    /// append.
    Checkpoint {
        /// The record's checkpoint sequence number: 1-based append count
        /// within this attempt's journal session. The TCP session layer
        /// acknowledges these cumulatively, so a reconnecting agent can
        /// replay from the supervisor's high-water mark instead of
        /// restarting the shard.
        seq: u64,
        /// The journalled record itself.
        record: CheckpointRecord,
    },
    /// The shard finished its slots; final counts for the supervisor's
    /// coverage check.
    Done {
        /// Repetitions this attempt journalled (new, not replayed).
        completed: u32,
        /// Journal appends that failed on the agent side.
        write_errors: u32,
    },
}

/// Encodes one message as a framed line (with trailing newline).
pub fn encode_msg(msg: &WireMsg) -> Vec<u8> {
    encode_frame(msg)
}

/// Encodes any serialisable message as a framed line — the same codec
/// for [`WireMsg`] and the TCP session layer's envelope messages.
pub fn encode_frame<T: Serialize>(msg: &T) -> Vec<u8> {
    let payload = serde_json::to_string(msg).expect("wire messages always serialise");
    encode_record(payload.as_bytes()).expect("JSON payloads are line-safe")
}

/// The longest line, newline excluded, a [`FrameReader`] holds. Far above any real frame (a checkpoint of a ten-minute study
/// repetition is a few kilobytes), low enough that a peer streaming bytes
/// without a newline cannot grow the reader without bound.
pub const MAX_FRAME_LINE: usize = 16 << 20;

/// Incremental decoder for the supervisor's end of the pipe.
///
/// Push raw bytes in as they arrive; complete, checksum-valid frames come
/// out as decoded messages (`T` defaults to [`WireMsg`]; the TCP session
/// layer instantiates it with its envelope type). Damaged lines are
/// counted in [`FrameReader::garbage`] and skipped; an incomplete
/// trailing line is held until its newline arrives.
///
/// Each byte is scanned once, so decoding is linear in the stream length
/// however it is chunked. A line longer than [`MAX_FRAME_LINE`] counts as
/// one garbage frame: its bytes are dropped as they arrive and decoding
/// resumes after its newline, so [`FrameReader::pending`] never exceeds
/// the cap.
#[derive(Debug)]
pub struct FrameReader<T = WireMsg> {
    /// The current line's bytes so far; never contains a newline.
    buf: Vec<u8>,
    /// The current line outgrew `max_line`: drop bytes up to its newline.
    discarding: bool,
    /// [`MAX_FRAME_LINE`]; the unit tests lower it to exercise the cap
    /// with short lines.
    max_line: usize,
    garbage: u64,
    _msg: std::marker::PhantomData<fn() -> T>,
}

impl<T> Default for FrameReader<T> {
    fn default() -> Self {
        FrameReader {
            buf: Vec::new(),
            discarding: false,
            max_line: MAX_FRAME_LINE,
            garbage: 0,
            _msg: std::marker::PhantomData,
        }
    }
}

impl<T: serde::de::DeserializeOwned> FrameReader<T> {
    /// A reader with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds bytes in; returns every message completed by them.
    pub fn push(&mut self, bytes: &[u8]) -> Vec<T> {
        let mut msgs = Vec::new();
        let mut rest = bytes;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let (line, tail) = rest.split_at(nl + 1);
            rest = tail;
            if std::mem::take(&mut self.discarding) {
                continue; // the over-long line's end: counted when it overflowed
            }
            if self.buf.len() + nl > self.max_line {
                self.garbage += 1;
            } else {
                self.buf.extend_from_slice(line);
                // A bare newline is a torn remnant: nothing to count.
                if self.buf.len() > 1 {
                    match decode_line(&self.buf) {
                        Some(msg) => msgs.push(msg),
                        None => self.garbage += 1,
                    }
                }
            }
            self.buf.clear();
        }
        if self.discarding {
            // Still inside an over-long line: its bytes are dropped.
        } else if self.buf.len() + rest.len() > self.max_line {
            self.buf.clear();
            self.garbage += 1;
            self.discarding = true;
        } else {
            self.buf.extend_from_slice(rest);
        }
        msgs
    }

    /// Damaged, unparseable or over-long frames skipped so far.
    pub fn garbage(&self) -> u64 {
        self.garbage
    }

    /// Bytes held back waiting for a newline (a torn tail if the stream
    /// has ended); at most [`MAX_FRAME_LINE`].
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

/// Decodes one newline-terminated frame line; `None` if it is damaged
/// or does not parse as a `T`.
fn decode_line<T: serde::de::DeserializeOwned>(line: &[u8]) -> Option<T> {
    let decoded = decode_records(line);
    match decoded.records.first() {
        Some(payload) if decoded.torn == 0 => {
            std::str::from_utf8(payload).ok().and_then(|text| serde_json::from_str(text).ok())
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn heartbeat(seq: u64) -> WireMsg {
        WireMsg::Heartbeat { seq, completed: seq as u32 }
    }

    #[test]
    fn messages_round_trip_through_split_deliveries() {
        let msgs = vec![
            WireMsg::Hello { shard: 2, of: 4, stage: "stage1".into(), fingerprint: 0xfeed },
            heartbeat(1),
            WireMsg::Done { completed: 5, write_errors: 0 },
        ];
        let bytes: Vec<u8> = msgs.iter().flat_map(encode_msg).collect();
        // Deliver one byte at a time: framing must not depend on chunking.
        let mut r: FrameReader = FrameReader::new();
        let mut out = Vec::new();
        for b in &bytes {
            out.extend(r.push(std::slice::from_ref(b)));
        }
        assert_eq!(out, msgs);
        assert_eq!(r.garbage(), 0);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn damaged_frames_are_skipped_and_counted() {
        let mut r: FrameReader = FrameReader::new();
        let mut bytes = encode_msg(&heartbeat(1));
        // A torn frame: its tail (and terminator) lost, the next frame's
        // bytes running straight on — exactly what FrameFate::Truncate
        // produces. Resync is per *line*, so the frame sharing the torn
        // frame's line is collateral damage; decoding resumes at the
        // next line.
        let torn = encode_msg(&heartbeat(2));
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        bytes.extend(encode_msg(&heartbeat(3)));
        // A bit flip inside an otherwise intact frame.
        let mut flipped = encode_msg(&heartbeat(4));
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        bytes.extend(&flipped);
        bytes.extend(encode_msg(&heartbeat(5)));
        let out = r.push(&bytes);
        assert_eq!(out, vec![heartbeat(1), heartbeat(5)]);
        assert_eq!(r.garbage(), 2);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn duplicated_frames_decode_twice() {
        let frame = encode_msg(&heartbeat(7));
        let mut doubled = frame.clone();
        doubled.extend_from_slice(&frame);
        let mut r: FrameReader = FrameReader::new();
        assert_eq!(r.push(&doubled), vec![heartbeat(7), heartbeat(7)]);
        assert_eq!(r.garbage(), 0);
    }

    #[test]
    fn incomplete_tail_is_held_not_dropped() {
        let frame = encode_msg(&heartbeat(9));
        let (head, tail) = frame.split_at(frame.len() - 3);
        let mut r: FrameReader = FrameReader::new();
        assert!(r.push(head).is_empty());
        assert_eq!(r.pending(), head.len());
        assert_eq!(r.push(tail), vec![heartbeat(9)]);
        assert_eq!(r.garbage(), 0);
    }

    #[test]
    fn a_line_one_byte_over_the_cap_is_one_garbage_frame() {
        let mut r: FrameReader = FrameReader::new();
        assert!(r.push(&vec![b'a'; MAX_FRAME_LINE + 1]).is_empty());
        assert_eq!(r.garbage(), 1);
        assert_eq!(r.pending(), 0);
        // The rest of the line is dropped; the next line decodes.
        let mut rest = b"aaa\n".to_vec();
        rest.extend(encode_msg(&heartbeat(1)));
        assert_eq!(r.push(&rest), vec![heartbeat(1)]);
        assert_eq!(r.garbage(), 1);
        assert_eq!(r.pending(), 0);
    }

    /// The line cap the bounded-memory properties run under: above every
    /// heartbeat frame, far below the over-long lines mixed in.
    const CAP: usize = 80;

    /// One piece of a hostile stream: a valid frame, a short junk line, an
    /// over-long junk line, or an over-long unterminated tail.
    fn piece(kind: u8, seq: u64, len: usize) -> Vec<u8> {
        let junk = |n: usize| (0..n).map(|i| b'a' + (i % 26) as u8).collect::<Vec<u8>>();
        match kind {
            0 | 1 => encode_msg(&heartbeat(seq)),
            2 => [junk(len % CAP), vec![b'\n']].concat(),
            3 => [junk(CAP + 1 + len), vec![b'\n']].concat(),
            _ => junk(CAP + 1 + len),
        }
    }

    type Decoded = (Vec<WireMsg>, u64, usize);

    /// Pushes `bytes` into a reader capped at [`CAP`] in the chunk sizes
    /// `cuts` prescribes, checking the pending bound after every push.
    fn push_capped(bytes: &[u8], cuts: &[usize]) -> Result<Decoded, TestCaseError> {
        let mut r: FrameReader = FrameReader { max_line: CAP, ..FrameReader::default() };
        let mut out = Vec::new();
        let mut at = 0usize;
        let mut i = 0usize;
        while at < bytes.len() {
            let step = cuts[i % cuts.len()].clamp(1, bytes.len() - at);
            out.extend(r.push(&bytes[at..at + step]));
            prop_assert!(r.pending() <= CAP, "pending {} exceeds the cap {CAP}", r.pending());
            at += step;
            i += 1;
        }
        Ok((out, r.garbage(), r.pending()))
    }

    proptest! {
        #[test]
        fn hostile_streams_decode_the_same_under_any_rechunking(
            pieces in proptest::collection::vec((0u8..5, 0u64..1000, 0usize..300), 1..20),
            cuts in proptest::collection::vec(1usize..200, 1..10),
        ) {
            let bytes: Vec<u8> = pieces.iter().flat_map(|&(k, s, l)| piece(k, s, l)).collect();
            let whole = push_capped(&bytes, &[bytes.len()])?;
            let chunked = push_capped(&bytes, &cuts)?;
            let single_bytes = push_capped(&bytes, &[1])?;
            prop_assert_eq!(&chunked, &whole);
            prop_assert_eq!(&single_bytes, &whole);
        }

        #[test]
        fn over_long_lines_cost_one_garbage_frame_each_and_resync(
            seqs in proptest::collection::vec(0u64..1000, 1..20),
            junk in 1usize..2_000,
            cuts in proptest::collection::vec(1usize..64, 1..10),
        ) {
            // Every frame is preceded by an over-long line; each one must be
            // counted once and the frame after it still decoded.
            let mut bytes = Vec::new();
            for &s in &seqs {
                bytes.extend(piece(3, 0, junk));
                bytes.extend(encode_msg(&heartbeat(s)));
            }
            let (out, garbage, pending) = push_capped(&bytes, &cuts)?;
            prop_assert_eq!(out, seqs.iter().map(|&s| heartbeat(s)).collect::<Vec<_>>());
            prop_assert_eq!(garbage, seqs.len() as u64);
            prop_assert_eq!(pending, 0);
        }
    }
}
