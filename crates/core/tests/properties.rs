//! Property-based tests of the analysis algorithms: for arbitrary
//! synthetic videos the suggester/matcher pair must uphold the invariants
//! the methodology relies on.

use std::sync::Arc;

use proptest::prelude::*;

use interlag_core::annotation::{AnnotationDb, LagAnnotation};
use interlag_core::irritation::{user_irritation, ThresholdModel};
use interlag_core::matcher::{mark_up_with_policy, MatchFailure, MatchPolicy, Matcher};
use interlag_core::oracle::{build_oracle, OracleConfig};
use interlag_core::profile::{LagEntry, LagProfile};
use interlag_core::stats::{five_number, kernel_density, percentile_sorted};
use interlag_core::suggester::{Suggester, SuggesterConfig};
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_power::opp::Frequency;
use interlag_video::frame::{FrameBuffer, Rect};
use interlag_video::mask::{Mask, MatchTolerance};
use interlag_video::stream::{VideoStream, FRAME_PERIOD_30FPS};

fn frame_of(symbol: u8) -> Arc<FrameBuffer> {
    let mut f = FrameBuffer::new(16, 16);
    f.hash_paint(f.bounds(), symbol as u64 + 1);
    Arc::new(f)
}

/// A video described by a symbol string: equal symbols are identical
/// frames.
fn video_of(symbols: &[u8]) -> VideoStream {
    let mut v = VideoStream::new(FRAME_PERIOD_30FPS);
    for (i, &s) in symbols.iter().enumerate() {
        v.push(SimTime::from_micros(i as u64 * 33_333), frame_of(s)).unwrap();
    }
    v
}

/// Random videos: runs of 1–20 identical frames over a small alphabet.
fn arb_symbols() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0u8..6, 1usize..20), 1..25).prop_map(|runs| {
        runs.into_iter().flat_map(|(sym, len)| std::iter::repeat_n(sym, len)).collect()
    })
}

/// One stretch of a generated capture, covering the ways pointer runs
/// and content can disagree.
#[derive(Debug, Clone)]
enum Segment {
    /// A still period: one shared buffer per symbol, reused by every
    /// segment naming it, so pointers bounce back after other content.
    Still(u8, usize),
    /// Fresh allocations with equal content side by side: one content,
    /// many pointer runs.
    Fresh(u8, usize),
    /// `A, B, A, …` alternating between two shared buffers.
    Bounce(u8, u8, usize),
    /// A single frame of the symbol with `n` pixels corrupted.
    Corrupt(u8, u8),
}

fn arb_segments() -> impl Strategy<Value = Vec<Segment>> {
    let segment = prop_oneof![
        (0u8..4, 1usize..12).prop_map(|(s, n)| Segment::Still(s, n)),
        (0u8..4, 1usize..6).prop_map(|(s, n)| Segment::Fresh(s, n)),
        (0u8..4, 0u8..4, 2usize..7).prop_map(|(a, b, n)| Segment::Bounce(a, b, n)),
        (0u8..4, 1u8..9).prop_map(|(s, n)| Segment::Corrupt(s, n)),
    ];
    prop::collection::vec(segment, 1..12)
}

/// Builds the capture a segment list describes, one frame per 30 fps
/// slot.
fn video_of_segments(segments: &[Segment]) -> VideoStream {
    let shared: Vec<Arc<FrameBuffer>> = (0..4).map(frame_of).collect();
    let mut bufs: Vec<Arc<FrameBuffer>> = Vec::new();
    for segment in segments {
        match *segment {
            Segment::Still(s, n) => bufs.extend(std::iter::repeat_n(shared[s as usize].clone(), n)),
            Segment::Fresh(s, n) => bufs.extend((0..n).map(|_| frame_of(s))),
            Segment::Bounce(a, b, n) => {
                bufs.extend((0..n).map(|i| shared[if i % 2 == 0 { a } else { b } as usize].clone()))
            }
            Segment::Corrupt(s, n) => {
                let mut f = frame_of(s).as_ref().clone();
                for i in 0..n as u32 {
                    let (x, y) = (i * 7 % 16, 4 + i * 3 % 12);
                    f.set(x, y, f.get(x, y) ^ 0x0f);
                }
                bufs.push(Arc::new(f));
            }
        }
    }
    let mut v = VideoStream::new(FRAME_PERIOD_30FPS);
    for (i, buf) in bufs.into_iter().enumerate() {
        v.push(SimTime::from_micros(i as u64 * 33_333), buf).unwrap();
    }
    v
}

proptest! {
    /// Every suggestion is a change frame followed by the configured
    /// still run (or clipped by the window end).
    #[test]
    fn suggestions_are_changes_followed_by_stills(
        symbols in arb_symbols(),
        min_still in 1u32..6,
    ) {
        let video = video_of(&symbols);
        let suggester = Suggester::new(SuggesterConfig {
            min_still_run: min_still,
            ..Default::default()
        });
        let end = SimTime::from_secs(3_600);
        let suggestions = suggester.suggest(&video, SimTime::ZERO, end);
        for s in &suggestions {
            let i = s.frame_index as usize;
            prop_assert!(i > 0, "frame 0 never differs from a predecessor");
            prop_assert_ne!(&symbols[i], &symbols[i - 1], "suggested frame must be a change");
            // Following still run: min_still frames or until the video ends.
            let still_until = (i + 1 + min_still as usize).min(symbols.len());
            let clipped = i + 1 + (min_still as usize) > symbols.len();
            let all_still = symbols[i..still_until].iter().all(|&x| x == symbols[i]);
            prop_assert!(all_still || clipped);
        }
    }

    /// Every run boundary into a sufficiently long still period is
    /// suggested — the suggester never misses a real ending candidate.
    #[test]
    fn all_long_stills_are_suggested(symbols in arb_symbols(), min_still in 1u32..4) {
        let video = video_of(&symbols);
        let suggester = Suggester::new(SuggesterConfig {
            min_still_run: min_still,
            ..Default::default()
        });
        let suggestions: Vec<usize> = suggester
            .suggest(&video, SimTime::ZERO, SimTime::from_secs(3_600))
            .into_iter()
            .map(|s| s.frame_index as usize)
            .collect();
        for i in 1..symbols.len() {
            if symbols[i] == symbols[i - 1] {
                continue;
            }
            let still_until = (i + 1 + min_still as usize).min(symbols.len());
            let long_still = still_until - (i + 1) >= min_still as usize
                && symbols[i..still_until].iter().all(|&x| x == symbols[i]);
            if long_still {
                prop_assert!(suggestions.contains(&i), "missed ending at frame {i}");
            }
        }
    }

    /// Planting an annotation image at a known frame: the matcher finds
    /// exactly that frame when given the right occurrence number.
    #[test]
    fn matcher_finds_planted_occurrences(symbols in arb_symbols(), target in 0u8..6) {
        let video = video_of(&symbols);
        // Count match runs of `target` and check each occurrence is found
        // at its run's first frame.
        let mut runs: Vec<usize> = Vec::new();
        let mut in_run = false;
        for (i, &s) in symbols.iter().enumerate() {
            if s == target && !in_run {
                runs.push(i);
            }
            in_run = s == target;
        }
        let matcher = Matcher::new();
        for (occ_idx, &start_frame) in runs.iter().enumerate() {
            let ann = LagAnnotation {
                interaction_id: 0,
                image: frame_of(target).as_ref().clone(),
                mask: Mask::new(),
                tolerance: MatchTolerance::EXACT,
                occurrence: occ_idx as u32 + 1,
                threshold: SimDuration::from_secs(1),
            };
            let hit = matcher.match_lag(&video, SimTime::ZERO, &ann).expect("planted");
            prop_assert_eq!(hit.end_frame as usize, start_frame);
        }
        // One occurrence past the last run must fail.
        let ann = LagAnnotation {
            interaction_id: 0,
            image: frame_of(target).as_ref().clone(),
            mask: Mask::new(),
            tolerance: MatchTolerance::EXACT,
            occurrence: runs.len() as u32 + 1,
            threshold: SimDuration::from_secs(1),
        };
        prop_assert!(matcher.match_lag(&video, SimTime::ZERO, &ann).is_err());
    }

    /// Irritation is monotone: uniformly longer lags never irritate less,
    /// and it is exactly zero when every lag meets its threshold.
    #[test]
    fn irritation_monotonicity(
        lags_ms in prop::collection::vec(1u64..20_000, 1..40),
        scale_pct in 100u64..400,
    ) {
        let mk = |scale: u64| {
            let mut p = LagProfile::new("p");
            for (i, &ms) in lags_ms.iter().enumerate() {
                p.push(LagEntry {
                    interaction_id: i,
                    input_time: SimTime::from_secs(i as u64),
                    lag: SimDuration::from_millis(ms * scale / 100),
                    threshold: SimDuration::from_secs(2),
                    confidence: 1.0,
                });
            }
            p
        };
        let base = mk(100);
        let scaled = mk(scale_pct);
        let model = ThresholdModel::Annotated;
        let a = user_irritation(&base, &model).total();
        let b = user_irritation(&scaled, &model).total();
        prop_assert!(b >= a);

        // Under the paper rule against itself: always zero.
        let self_rule = ThresholdModel::paper_rule(base.clone());
        prop_assert_eq!(user_irritation(&base, &self_rule).total(), SimDuration::ZERO);
    }

    /// The oracle picks, per lag, the slowest frequency meeting the
    /// threshold, and its plan never dips below the efficient frequency.
    #[test]
    fn oracle_picks_slowest_adequate_frequency(
        base_ms in prop::collection::vec(50u64..3_000, 1..12),
    ) {
        use std::collections::BTreeMap;
        let freqs = [300u32, 960, 2_150];
        let mut profiles = BTreeMap::new();
        for &mhz in &freqs {
            let mut p = LagProfile::new(format!("f{mhz}"));
            for (i, &ms) in base_ms.iter().enumerate() {
                // Perfectly CPU-bound lags.
                let lag = ms * 2_150 / mhz as u64;
                p.push(LagEntry {
                    interaction_id: i,
                    input_time: SimTime::from_secs(10 * (i as u64 + 1)),
                    lag: SimDuration::from_millis(lag),
                    threshold: SimDuration::from_secs(1),
                    confidence: 1.0,
                });
            }
            profiles.insert(Frequency::from_mhz(mhz), p);
        }
        let cfg = OracleConfig::paper(Frequency::from_mhz(960));
        let oracle = build_oracle(&profiles, &cfg);
        for d in &oracle.decisions {
            // With perfect 1/f scaling and 10 % slack, only the fastest
            // frequency qualifies.
            prop_assert_eq!(d.freq, Frequency::from_mhz(2_150));
        }
        // The plan never goes below the efficient frequency.
        for ms in (0..130_000).step_by(250) {
            let f = oracle.plan.freq_at(SimTime::from_millis(ms));
            prop_assert!(f >= Frequency::from_mhz(960));
        }
    }

    /// The compiled mask and the digest-gated/early-exit comparison paths
    /// must agree exactly with the naive per-pixel reference
    /// (`Mask::count_diff`) on arbitrary frames, masks and tolerances —
    /// the fast paths are optimisations, never approximations.
    #[test]
    fn fast_matching_paths_agree_with_naive(
        dims in (1u32..24, 1u32..24),
        seed in proptest::num::u64::ANY,
        flips in prop::collection::vec(
            (proptest::num::u32::ANY, proptest::num::u32::ANY, proptest::num::u8::ANY),
            0..16,
        ),
        rects in prop::collection::vec((0u32..30, 0u32..30, 0u32..12, 0u32..12), 0..4),
        value_tolerance in 0u8..6,
        pixel_budget in 0u64..40,
    ) {
        let (w, h) = dims;
        let mut a = FrameBuffer::new(w, h);
        a.hash_paint(a.bounds(), seed);
        let mut b = a.clone();
        for &(x, y, v) in &flips {
            b.set(x % w, y % h, v);
        }
        // Rects may be empty, overlap, or hang past the frame edge.
        let mask: Mask = rects
            .iter()
            .map(|&(x0, y0, rw, rh)| Rect::new(x0, y0, rw, rh))
            .collect();
        let tolerance = MatchTolerance { value_tolerance, pixel_budget };

        let naive = mask.count_diff(&a, &b, value_tolerance);
        let compiled = mask.compile(w, h);
        prop_assert_eq!(compiled.count_diff(&a, &b, value_tolerance), naive);
        prop_assert_eq!(compiled.visible_area(), mask.visible_area(w, h));

        let naive_matches = naive <= pixel_budget;
        prop_assert_eq!(tolerance.matches(&mask, &a, &b), naive_matches);
        prop_assert_eq!(tolerance.matches_compiled(&compiled, &a, &b), naive_matches);

        for limit in [0, pixel_budget, naive.saturating_sub(1), naive, naive + 1] {
            prop_assert_eq!(mask.differs_more_than(&a, &b, value_tolerance, limit), naive > limit);
            prop_assert_eq!(
                compiled.differs_more_than(&a, &b, value_tolerance, limit),
                naive > limit
            );
            prop_assert_eq!(
                a.differs_more_than(&b, value_tolerance, limit),
                a.count_diff(&b, value_tolerance) > limit
            );
        }

        // The digest-gated EXACT path is exactly frame equality.
        prop_assert_eq!(MatchTolerance::EXACT.matches(&Mask::new(), &a, &b), a == b);
        prop_assert_eq!((a.digest() == b.digest()) || a != b, true);
    }

    /// The batched matcher, walking pointer runs with per-run verdicts,
    /// returns exactly what a per-lag frame walk returns — entries and
    /// failures — on captures whose pointer runs and content disagree
    /// (equal content in fresh buffers, pointer bounces, corrupted
    /// frames), for inputs landing mid-run, occurrences 1–3, masked and
    /// unmasked annotations, and both policies.
    #[test]
    fn batched_mark_up_equals_per_lag_walks(
        segments in arb_segments(),
        // (symbol, occurrence, masked, exact, value tolerance, pixel budget)
        annotations in prop::collection::vec(
            (0u8..4, 1u32..4, 0u8..2, 0u8..2, 0u8..3, 0u64..4),
            1..5,
        ),
        lags in prop::collection::vec((0usize..6, 0u64..1_000), 1..10),
        recovery in 0u8..2,
    ) {
        let video = video_of_segments(&segments);
        let mut db = AnnotationDb::new("prop");
        for (id, &(symbol, occurrence, masked, exact, value_tolerance, pixel_budget)) in
            annotations.iter().enumerate()
        {
            let mut image = frame_of(symbol).as_ref().clone();
            let mask = if masked == 1 { Mask::status_bar(16, 2) } else { Mask::new() };
            mask.apply(&mut image);
            db.insert(LagAnnotation {
                interaction_id: id,
                image,
                mask,
                tolerance: if exact == 1 {
                    MatchTolerance::EXACT
                } else {
                    MatchTolerance { value_tolerance, pixel_budget }
                },
                occurrence,
                threshold: SimDuration::from_secs(1),
            });
        }
        // Input times in thousandths of the capture (plus a little past
        // its end), so most land between frame slots.
        let span = video.len() as u64 * 33_333 + 50_000;
        let beginnings: Vec<(usize, SimTime)> = lags
            .iter()
            .map(|&(id, at)| (id, SimTime::from_micros(span * at / 1_000)))
            .collect();
        let policy = if recovery == 1 { MatchPolicy::paper_recovery() } else { MatchPolicy::strict() };

        let (profile, failures) = mark_up_with_policy(&video, &beginnings, &db, "prop", &policy);

        let matcher = Matcher::new();
        let mut expected = LagProfile::new("prop");
        let mut expected_failures = Vec::new();
        for &(id, input_time) in &beginnings {
            match db.get(id) {
                None => expected_failures.push((id, MatchFailure::NotAnnotated)),
                Some(ann) => match matcher.match_lag_with_policy(&video, input_time, ann, &policy) {
                    Ok(m) => expected.push(LagEntry {
                        interaction_id: id,
                        input_time,
                        lag: m.lag,
                        threshold: ann.threshold,
                        confidence: m.confidence,
                    }),
                    Err(f) => expected_failures.push((id, f)),
                },
            }
        }
        prop_assert_eq!(profile.entries(), expected.entries());
        prop_assert_eq!(failures, expected_failures);
    }

    /// Statistics invariants on arbitrary data.
    #[test]
    fn stats_invariants(values in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let f = five_number(&values).expect("non-empty");
        prop_assert!(f.min <= f.q1 && f.q1 <= f.median);
        prop_assert!(f.median <= f.q3 && f.q3 <= f.max);
        prop_assert!(f.min <= f.mean && f.mean <= f.max);
        let (lo, hi) = f.whiskers();
        prop_assert!(lo >= f.min && hi <= f.max);

        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        prop_assert_eq!(percentile_sorted(&sorted, 0.0), sorted[0]);
        prop_assert_eq!(percentile_sorted(&sorted, 100.0), sorted[sorted.len() - 1]);

        let kde = kernel_density(&values, 32);
        prop_assert_eq!(kde.len(), 32);
        prop_assert!(kde.iter().all(|(_, d)| d.is_finite() && *d >= 0.0));
    }
}
