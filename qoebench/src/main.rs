//! The interlag end-to-end benchmark.
//!
//! ```text
//! qoebench --workload study|fleet --seed N --seconds S --trace 0|1 [--interlag PATH]
//! ```
//!
//! Each workload is a closed loop: one client in this process issues the
//! next op only after the previous one completed. With `--trace 0` the
//! run prints the end-to-end metrics; with `--trace 1` it times each
//! layer's entry points from this code and prints the per-layer metrics.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod fleet;
mod harness;
mod host;
mod stats;
mod study;
mod trace;
mod tune;
mod verify;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use harness::Loop;
use stats::{median, percentile};
use trace::Tracer;
use verify::success_ratio;

/// Every per-layer metric a traced run reports, with its unit. A layer a
/// workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("workloads.build_ms", "ms"),
    ("power.calibrate_ms", "ms"),
    ("evdev.record_ms", "ms"),
    ("core.annotate_ms", "ms"),
    ("core.annotate_per_op", "count"),
    ("device.replay_ms", "ms"),
    ("device.runs", "count"),
    ("device.sim_s", "s"),
    ("governors.replay_ms", "ms"),
    ("video.capture_ms", "ms"),
    ("core.match_ms", "ms"),
    ("core.match_lags", "count"),
    ("core.match_failures", "count"),
    ("power.meter_ms", "ms"),
    ("core.oracle_ms", "ms"),
    ("core.irritation_ms", "ms"),
    ("core.report_ms", "ms"),
    ("core.pool_speedup", "x"),
    ("core.tune_reference_ms", "ms"),
    ("core.tune_slot_ms", "ms"),
    ("core.tune_slots", "count"),
    ("db.sketch_fold_us", "us"),
    ("orchestrator.frontier_ms", "ms"),
    ("orchestrator.sweep_ms", "ms"),
    ("orchestrator.overhead_ms", "ms"),
    ("orchestrator.attempts_per_shard", "ratio"),
    ("cli.query_ms", "ms"),
    ("journal.append_ms", "ms"),
    ("core.checkpoint_codec_us", "us"),
    ("core.checkpoint_bytes", "bytes"),
    ("orchestrator.merge_ms", "ms"),
    ("db.seal_ms", "ms"),
    ("db.ingest_ms", "ms"),
    ("db.ingest_first_decile_ms", "ms"),
    ("db.ingest_last_decile_ms", "ms"),
    ("db.state_bytes", "bytes"),
    ("db.query_ms", "ms"),
    ("op.self_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
];

/// The `&'static` name of a per-layer metric.
///
/// # Panics
///
/// If `name` is not in [`PER_LAYER`] — a bug in this benchmark.
pub fn layer_key(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown layer metric {name}"))
        .0
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    interlag: PathBuf,
    work_dir: PathBuf,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let target =
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10,
            trace: false,
            interlag: PathBuf::from(target).join("release").join("interlag"),
            work_dir: PathBuf::new(),
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value.parse::<u64>().map_err(|_| format!("{flag}: {value:?} is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = number()?,
                "--seconds" => args.seconds = number()?.max(1),
                "--trace" => args.trace = number()? == 1,
                "--interlag" => args.interlag = PathBuf::from(value),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if !["study", "fleet"].contains(&args.workload.as_str()) {
            return Err(format!("--workload must be study or fleet, not {:?}", args.workload));
        }
        args.work_dir =
            PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
        Ok(args)
    }

    fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// One run's result.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    /// The recorded spans as Chrome trace-event JSON (traced runs).
    trace_json: Option<String>,
    /// Figures for the detail line only: op p90, op CPU-time p50 and the
    /// sample count.
    extra: Vec<(&'static str, f64)>,
}

impl Report {
    /// A run that could not start its loop.
    fn broken(why: String) -> Report {
        Report { attempted: 1, failed: 1, mismatches: vec![why], ..Default::default() }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty()
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(
    setup_s: f64,
    lp: &Loop,
    sim_s: f64,
    peak_rss_mb: f64,
    mismatches: &[String],
) -> Report {
    let p50 = median(&lp.op_ms).unwrap_or(0.0);
    let p90 = percentile(&lp.op_ms, 0.9).unwrap_or(0.0);
    let cpu_p50 = median(&lp.op_cpu_ms).unwrap_or(0.0);
    let attempted = lp.attempted();
    let ok = attempted - lp.failed.min(attempted);
    Report {
        attempted,
        failed: lp.failed,
        mismatches: mismatches.to_vec(),
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("op_p50_ms", p50, "ms"),
            ("sim_s_per_s", sim_s / lp.wall_s, "s/s"),
            ("submissions_per_s", ok as f64 / lp.wall_s, "1/s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
            ("success_ratio", success_ratio(attempted, lp.failed), "ratio"),
        ],
        trace_json: None,
        extra: vec![("op_p90_ms", p90), ("op_cpu_p50_ms", cpu_p50), ("ops", attempted as f64)],
        notes: vec![format!(
            "op service time: p50 {p50:.3} ms, p90 {p90:.3} ms, CPU time p50 {cpu_p50:.3} ms \
             over {attempted} ops in {:.2} s",
            lp.wall_s
        )],
    }
}

/// A note with the median op time per input, for ops cycling over
/// `names` in order.
pub fn by_input(lp: &Loop, names: &[&str]) -> String {
    let parts: Vec<String> = names
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let ms: Vec<f64> = lp.op_ms.iter().skip(k).step_by(names.len()).copied().collect();
            format!("{name}={:.1}", median(&ms).unwrap_or(0.0))
        })
        .collect();
    format!("op p50 ms by input: {}", parts.join(" "))
}

/// Per-op means of the named spans, as `<name>_ms` layer metrics.
pub fn per_op(
    totals: &BTreeMap<&'static str, trace::Totals>,
    ops: f64,
    names: &[&str],
) -> BTreeMap<&'static str, f64> {
    names
        .iter()
        .map(|n| {
            (
                layer_key(&format!("{n}_ms")),
                totals.get(n).map_or(0.0, |t| t.total_ms) / ops.max(1.0),
            )
        })
        .collect()
}

/// The per-layer report of a traced run whose even ops ran untraced and
/// odd ops ran traced inside `op_span` spans.
pub fn traced_summary(
    t: &Tracer,
    op_span: &str,
    lp: &Loop,
    mut layers: BTreeMap<&'static str, f64>,
    mismatches: &[String],
) -> Report {
    let untraced: Vec<f64> = lp.op_ms.iter().step_by(2).copied().collect();
    let traced: Vec<f64> = lp.op_ms.iter().skip(1).step_by(2).copied().collect();
    let totals = t.totals();
    let op = totals.get(op_span).copied().unwrap_or_default();
    let ops = op.count.max(1) as f64;
    let children: f64 = t.child_sums(op_span).iter().sum();
    let paired_untraced: f64 = untraced.iter().take(op.count).sum();
    layers.insert("op.self_ms", op.self_ms / ops);
    layers.insert(
        "trace.overhead_ms",
        median(&traced).unwrap_or(0.0) - median(&untraced).unwrap_or(0.0),
    );
    layers.insert("trace.coverage", children / paired_untraced.max(1e-9));

    let mut notes = vec![format!(
        "{:<28} {:>6} {:>12} {:>12} {:>12}",
        "span", "calls", "total ms", "self ms", "mean ms"
    )];
    for (name, x) in &totals {
        notes.push(format!(
            "{name:<28} {:>6} {:>12.3} {:>12.3} {:>12.3}",
            x.count,
            x.total_ms,
            x.self_ms,
            x.total_ms / x.count as f64
        ));
    }
    notes.push(format!(
        "traced op p50 {:.3} ms vs untraced {:.3} ms; layer calls cover {:.1}% of the untraced op",
        median(&traced).unwrap_or(0.0),
        median(&untraced).unwrap_or(0.0),
        100.0 * layers["trace.coverage"],
    ));
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, *layers.get(name).unwrap_or(&0.0), unit))
        .collect();
    Report {
        attempted: lp.attempted(),
        failed: lp.failed,
        mismatches: mismatches.to_vec(),
        metrics,
        notes,
        trace_json: Some(t.to_chrome_json()),
        extra: Vec::new(),
    }
}

fn write_trace(args: &Args, t_json: Option<String>) {
    if let Some(json) = t_json {
        let path = PathBuf::from(".bench_work").join(format!("trace-{}.json", args.workload));
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("qoebench: cannot write {}: {e}", path.display());
        }
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qoebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("qoebench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    if args.workload == "fleet" && !args.interlag.is_file() {
        eprintln!("qoebench: no interlag binary at {}", args.interlag.display());
        return ExitCode::FAILURE;
    }
    let mut report = match args.workload.as_str() {
        "study" => study::run(&args),
        _ => fleet::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    write_trace(&args, report.trace_json.take());

    let host = host::host_json();
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<34} {value:>16.4} {unit}");
    }
    let mut metrics = Vec::new();
    for &(name, value, unit) in &report.metrics {
        // JSON has no inf or NaN; a non-finite figure is a bug, not a result.
        let value = if value.is_finite() {
            value
        } else {
            report.mismatches.push(format!("{name} is not finite"));
            0.0
        };
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    for m in &report.mismatches {
        println!("MISMATCH {m}");
    }
    let extra: String =
        report.extra.iter().map(|(k, v)| format!(", {}: {v}", json_str(k))).collect();
    println!(
        "{{\"detail\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {host}{extra}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
