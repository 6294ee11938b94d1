//! Timing ratios that must hold on any host: each optimised path beats
//! the baseline it replaced. Wall-clock timings are too noisy for
//! tier-1, so these are `#[ignore]`d; run them in release mode with
//! `cargo test --release -p interlag-bench --test perf_ratios -- --ignored`.

use std::hint::black_box;
use std::time::Instant;

use interlag_bench::synthetic_video;
use interlag_core::annotation::{AnnotationDb, LagAnnotation};
use interlag_core::matcher::{mark_up_with_policy, MatchPolicy, Matcher};
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_video::frame::FrameBuffer;
use interlag_video::kernel;
use interlag_video::mask::{Mask, MatchTolerance};

/// Median seconds per call over `samples` timed calls, after one warm-up.
fn time_median<T>(samples: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[samples / 2]
}

#[test]
#[ignore = "wall-clock timing; run in release with --ignored"]
fn kernel_beats_the_scalar_reference_on_a_1080p_frame() {
    let mut a = FrameBuffer::new(1920, 1080);
    let mut b = FrameBuffer::new(1920, 1080);
    a.hash_paint(a.bounds(), 1);
    b.hash_paint(b.bounds(), 2);
    // Nearly every pixel differs and the budget is unbounded, so neither
    // side can exit early: both scan the whole frame.
    let (pa, pb) = (a.pixels(), b.pixels());
    let (tol, limit) = (MatchTolerance::CAMERA.value_tolerance, u64::MAX - 1);
    let scalar = time_median(9, || kernel::reference::exceeds(pa, pb, tol, limit));
    let fast = time_median(9, || kernel::exceeds(pa, pb, tol, limit));
    eprintln!("scalar {:.3} ms, kernel {:.3} ms", scalar * 1e3, fast * 1e3);
    assert!(fast < scalar, "kernel slower than scalar: {fast} s vs {scalar} s");
}

#[test]
#[ignore = "wall-clock timing; run in release with --ignored"]
fn batched_markup_beats_per_lag_walks() {
    // Ten minutes at 30 fps: one paper dataset. Every lag begins at the
    // start, so each per-lag walk rescans the prefix the batched walk
    // shares; a fuzzy tolerance makes every verdict run the diff kernels.
    let (frames, lags) = (18_000u32, 40u32);
    let video = synthetic_video(frames, 300);
    let mut db = AnnotationDb::new("ratios");
    for id in 0..lags {
        db.insert(LagAnnotation {
            interaction_id: id as usize,
            image: video.frames()[(id * frames / lags) as usize].buf.as_ref().clone(),
            mask: Mask::new(),
            tolerance: MatchTolerance::CAMERA,
            occurrence: 1,
            threshold: SimDuration::from_secs(1),
        });
    }
    let beginnings: Vec<(usize, SimTime)> =
        (0..lags as usize).map(|id| (id, SimTime::ZERO)).collect();
    let policy = MatchPolicy::strict();
    let matcher = Matcher::new();
    let batched =
        time_median(5, || mark_up_with_policy(&video, &beginnings, &db, "ratios", &policy));
    let per_lag = time_median(5, || {
        let walk = |&(id, at): &(usize, SimTime)| {
            matcher.match_lag_with_policy(&video, at, db.get(id).expect("annotated"), &policy)
        };
        beginnings.iter().filter(|b| walk(b).is_ok()).count()
    });
    eprintln!("per-lag {:.2} ms, batched {:.2} ms", per_lag * 1e3, batched * 1e3);
    assert!(batched < per_lag, "batched markup slower than per-lag: {batched} s vs {per_lag} s");
}
