//! Shared harness for the figure/table benches.
//!
//! Every table and figure of the paper's evaluation has a bench target in
//! this crate (`cargo bench -p interlag-bench --bench figNN`) that re-runs
//! the underlying experiment and prints the same rows/series the paper
//! reports. This module holds what they share: dataset lookup, study
//! execution with environment-controlled repetitions, and small formatting
//! helpers.
//!
//! Environment knobs:
//!
//! * `INTERLAG_REPS` — repetitions per configuration (default 3; the
//!   paper uses 5).
//! * `INTERLAG_DATASETS` — comma-separated subset (e.g. `01,02`) for the
//!   multi-dataset figures.

use std::sync::Arc;

use interlag_core::experiment::{Lab, LabConfig, StudyResult};
use interlag_evdev::time::SimTime;
use interlag_video::frame::FrameBuffer;
use interlag_video::stream::{VideoStream, FRAME_PERIOD_30FPS};
use interlag_workloads::datasets::Dataset;
use interlag_workloads::gen::Workload;

/// Repetitions per configuration, from `INTERLAG_REPS` (default 3).
pub fn reps() -> u32 {
    std::env::var("INTERLAG_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(3)
}

/// The datasets a multi-dataset figure should cover, from
/// `INTERLAG_DATASETS` (default: all five ten-minute datasets).
pub fn selected_datasets() -> Vec<Dataset> {
    let Ok(raw) = std::env::var("INTERLAG_DATASETS") else {
        return Dataset::TEN_MINUTE.to_vec();
    };
    raw.split(',')
        .filter_map(|name| Dataset::TEN_MINUTE.iter().copied().find(|d| d.name() == name.trim()))
        .collect()
}

/// Builds the default lab used by every figure bench.
pub fn lab_with_reps(reps: u32) -> Lab {
    Lab::new(LabConfig { reps, ..Default::default() })
}

/// Runs the full §III study for one dataset and reports how long it took.
pub fn run_study(dataset: Dataset, reps: u32) -> (Workload, StudyResult) {
    let workload = dataset.build();
    let lab = lab_with_reps(reps);
    let started = std::time::Instant::now();
    let study = lab.study(&workload).expect("fault-free study");
    eprintln!(
        "[bench] dataset {}: {} lags, {} configs x {} reps in {:.1} s",
        dataset.name(),
        study.db.len(),
        study.all_configs().count(),
        reps,
        started.elapsed().as_secs_f64()
    );
    (workload, study)
}

/// A 30 fps stream of `frames` 72×120 frames whose screen changes every
/// `change_every` frames; equal frames share one buffer, as in a capture.
pub fn synthetic_video(frames: u32, change_every: u32) -> VideoStream {
    let mut video = VideoStream::new(FRAME_PERIOD_30FPS);
    let mut current = Arc::new(FrameBuffer::new(72, 120));
    for i in 0..frames {
        if i % change_every == 0 {
            let mut f = FrameBuffer::new(72, 120);
            f.hash_paint(f.bounds(), u64::from(i.max(1)));
            current = Arc::new(f);
        }
        video.push(SimTime::from_micros(u64::from(i) * 33_333), current.clone()).unwrap();
    }
    video
}

/// Prints a horizontal rule sized for `width` columns of table output.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Prints a figure/table banner.
pub fn banner(title: &str, subtitle: &str) {
    println!();
    rule(78);
    println!("{title}");
    if !subtitle.is_empty() {
        println!("{subtitle}");
    }
    rule(78);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reps_default_and_parse() {
        let r = reps();
        assert!(r >= 1);
    }

    #[test]
    fn selected_datasets_default_is_all_five() {
        if std::env::var("INTERLAG_DATASETS").is_err() {
            assert_eq!(selected_datasets().len(), 5);
        }
    }
}
