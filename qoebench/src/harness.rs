//! The closed loop shared by every workload: one client, one op at a
//! time, each op timed from its own start; set-up timed apart from it.

use std::time::{Duration, Instant};

use crate::host::cpu_s;
use crate::stats::median;

/// Set-up batches timed before the timed loop, and after it. Batches
/// on both sides make `setup_s` sample the same stretch of host time as
/// the ops; a set-up timed once can land inside a host slowdown burst.
pub const SETUP_BATCHES: (usize, usize) = (5, 4);

/// Each batch repeats set-up until at least this long has passed, so a
/// sub-millisecond set-up rises above timer, allocator and file-system
/// noise.
pub const SETUP_BATCH: Duration = Duration::from_millis(100);

/// When the timed loop ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After `budget` has elapsed, rounded up to whole cycles of
    /// `cycle` ops so every input is weighted alike.
    Elapsed { budget: Duration, cycle: usize },
    /// After exactly this many ops, however fast they run.
    Count(usize),
}

/// What the timed loop saw.
#[derive(Debug, Clone, Default)]
pub struct Loop {
    /// Service time of each op, ms.
    pub op_ms: Vec<f64>,
    /// CPU time of each op, ms: this process and the children the op
    /// reaped, user + system.
    pub op_cpu_ms: Vec<f64>,
    /// Host seconds from the first op's start to the last op's end.
    pub wall_s: f64,
    /// Ops whose output failed its check.
    pub failed: u64,
}

impl Loop {
    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.op_ms.len() as u64
    }
}

/// Per-set-up seconds of each timed set-up batch; `setup_s` is their
/// median.
#[derive(Debug, Default)]
pub struct SetupTimer {
    secs: Vec<f64>,
}

impl SetupTimer {
    /// Times `batches` batches of `setup`, each of at least
    /// [`SETUP_BATCH`], and returns the last set-up's value.
    pub fn time<T>(&mut self, batches: usize, mut setup: impl FnMut() -> T) -> T {
        let mut value = None;
        for _ in 0..batches.max(1) {
            let t = Instant::now();
            let mut n = 0u32;
            while n == 0 || t.elapsed() < SETUP_BATCH {
                value = Some(std::hint::black_box(setup()));
                n += 1;
            }
            self.secs.push(t.elapsed().as_secs_f64() / f64::from(n));
        }
        value.expect("set-up ran")
    }

    /// The median per-set-up seconds over every batch so far.
    pub fn median_s(&self) -> f64 {
        median(&self.secs).unwrap_or(0.0)
    }
}

/// Runs ops until `stop`. `op(i)` is timed; `check(i, output)` is not,
/// and returns whether the output verified.
pub fn run_loop<O>(
    stop: Stop,
    mut op: impl FnMut(usize) -> O,
    mut check: impl FnMut(usize, O) -> bool,
) -> Loop {
    let mut out = Loop::default();
    let started = Instant::now();
    for i in 0.. {
        let more = match stop {
            Stop::Elapsed { budget, cycle } => i % cycle.max(1) != 0 || started.elapsed() < budget,
            Stop::Count(n) => i < n,
        };
        if !more {
            break;
        }
        let (t, cpu) = (Instant::now(), cpu_s());
        let output = std::hint::black_box(op(i));
        out.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.op_cpu_ms.push((cpu_s() - cpu) * 1e3);
        if !check(i, output) {
            out.failed += 1;
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleep_ms(ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }

    #[test]
    fn setup_time_excludes_the_timed_loop() {
        let mut setup = SetupTimer::default();
        let setup_2ms = || {
            sleep_ms(2);
            42
        };
        let value = setup.time(SETUP_BATCHES.0, setup_2ms);
        let timed = run_loop(Stop::Count(3), |_| sleep_ms(40), |_, ()| true);
        setup.time(SETUP_BATCHES.1, setup_2ms);
        let setup_s = setup.median_s();
        assert_eq!(value, 42);
        assert!((0.002..0.03).contains(&setup_s), "setup_s = {setup_s}");
        assert!(timed.op_ms.iter().all(|&ms| ms >= 40.0));
        assert!(timed.wall_s >= 0.12);
    }

    #[test]
    fn counted_loops_ignore_speed() {
        for ms in [0, 15] {
            let l = run_loop(Stop::Count(4), |_| sleep_ms(ms), |_, ()| true);
            assert_eq!(l.attempted(), 4);
        }
    }

    #[test]
    fn elapsed_loops_finish_whole_cycles() {
        let stop = Stop::Elapsed { budget: Duration::from_millis(10), cycle: 5 };
        let l = run_loop(stop, |_| sleep_ms(3), |_, ()| true);
        assert_eq!(l.attempted() % 5, 0);
        assert!(l.attempted() >= 5);
    }

    #[test]
    fn failed_checks_are_counted_not_retried() {
        let l = run_loop(Stop::Count(6), |i| i, |_, i| i % 3 != 0);
        assert_eq!(l.attempted(), 6);
        assert_eq!(l.failed, 2);
    }
}
