//! `study`: one op is a full §III governor study (`Lab::study`, reps=1,
//! workers=1) of the next ten-minute dataset in the cycle 01→05.

use std::collections::BTreeMap;
use std::time::Instant;

use interlag_core::experiment::{
    jitter_events, ConfigSummary, Lab, LabConfig, RepOutcome, RepResult, StudyResult,
};
use interlag_core::{
    build_oracle, mark_up_with_policy, study_csv, user_irritation, LagProfile, MatchPolicy,
    OracleConfig, ThresholdModel,
};
use interlag_device::dvfs::{FixedGovernor, Governor};
use interlag_evdev::replay::ReplayAgent;
use interlag_evdev::time::SimDuration;
use interlag_evdev::trace::EventTrace;
use interlag_governors::{Conservative, FrequencyPlan, Interactive, Ondemand, PlanGovernor};
use interlag_power::opp::{Frequency, OppTable};
use interlag_workloads::datasets::Dataset;
use interlag_workloads::gen::Workload;

use crate::harness::{run_loop, SetupTimer, Stop, SETUP_BATCHES};
use crate::trace::Tracer;
use crate::verify::Verifier;
use crate::{end_to_end, per_op, traced_summary, Args, Report};

/// The five ten-minute datasets, cycled in this order.
pub const DATASETS: [Dataset; 5] = Dataset::TEN_MINUTE;

/// The volunteer seed of dataset `d` under benchmark seed `seed`; seed 0
/// gives the paper's canonical recordings.
pub fn volunteer_seed(d: Dataset, seed: u64) -> u64 {
    d.seed().wrapping_add(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The seeded workloads with their recorded input traces.
pub fn build_workloads(seed: u64, t: &mut Tracer) -> Vec<(Workload, EventTrace)> {
    t.span("workloads.build", |_| {
        DATASETS
            .iter()
            .map(|&d| {
                let w = d.build_seeded(volunteer_seed(d, seed));
                let trace = w.script.record_trace();
                (w, trace)
            })
            .collect()
    })
}

/// Simulated device-seconds one replay of `w` covers.
pub fn session_s(w: &Workload) -> f64 {
    w.run_until().as_micros() as f64 / 1e6
}

fn lab_config(workers: usize) -> LabConfig {
    LabConfig { reps: 1, workers, ..Default::default() }
}

fn setup(seed: u64, t: &mut Tracer) -> (Vec<(Workload, EventTrace)>, Lab) {
    let workloads = build_workloads(seed, t);
    let lab = t.span("power.calibrate", |_| Lab::new(lab_config(1)));
    (workloads, lab)
}

/// The untraced op: the library entry point the CLI's `study` calls.
fn study_op(lab: &Lab, w: &Workload) -> Result<(String, f64), String> {
    let study = lab.study(w).map_err(|e| format!("study {} failed: {e}", w.name))?;
    let configs = study.all_configs().count() as f64;
    Ok((study_csv(&study), configs * session_s(w)))
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return run_traced(args);
    }
    let mut timer = SetupTimer::default();
    let (workloads, lab) =
        timer.time(SETUP_BATCHES.0, || setup(args.seed, &mut Tracer::new(false)));
    let mut verifier = Verifier::new("study", args.seed);
    let mut sim_s = 0.0;
    let stop = Stop::Elapsed { budget: args.budget(), cycle: DATASETS.len() };
    let lp = run_loop(
        stop,
        |i| study_op(&lab, &workloads[i % DATASETS.len()].0),
        |i, out| match out {
            Ok((csv, sim)) => {
                sim_s += sim;
                verifier.check(DATASETS[i % DATASETS.len()].name(), csv.as_bytes())
            }
            Err(e) => {
                verifier.fail(e);
                false
            }
        },
    );
    timer.time(SETUP_BATCHES.1, || setup(args.seed, &mut Tracer::new(false)));
    let mut report = end_to_end(
        timer.median_s(),
        &lp,
        sim_s,
        crate::host::peak_rss_self_mb(),
        verifier.mismatches(),
    );
    report.notes.push(crate::by_input(&lp, &DATASETS.map(Dataset::name)));
    report
}

/// One configuration of the study grid, in the paper's order.
#[derive(Clone)]
enum Config {
    Fixed(Frequency),
    Governor(&'static str),
    Oracle(FrequencyPlan),
}

impl Config {
    fn name(&self) -> String {
        match self {
            Config::Fixed(f) => format!("fixed-{f}"),
            Config::Governor(g) => g.to_string(),
            Config::Oracle(_) => "oracle".to_string(),
        }
    }

    fn layer(&self) -> &'static str {
        match self {
            Config::Fixed(_) => "device.replay",
            _ => "governors.replay",
        }
    }

    fn governor(&self, opps: &OppTable) -> Box<dyn Governor> {
        match self {
            Config::Fixed(f) => Box::new(FixedGovernor::new(*f)),
            Config::Governor("conservative") => Box::new(Conservative::default()),
            Config::Governor("interactive") => Box::new(Interactive::for_table(opps)),
            Config::Governor(_) => Box::new(Ondemand::default()),
            Config::Oracle(plan) => Box::new(PlanGovernor::new("oracle", plan.clone())),
        }
    }
}

/// Counts the traced op accumulates.
#[derive(Default)]
struct Counts {
    fixed_runs: f64,
    fixed_sim_s: f64,
    lags: f64,
    failures: f64,
}

/// `Lab::study` rebuilt from the layers' public entry points, one span
/// per call. Returns the study CSV (which must equal the untraced op's)
/// and the replayed configurations, for the capture-free probe.
fn traced_study_op(
    lab: &Lab,
    w: &Workload,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<(String, Vec<Config>), String> {
    let fail = |e: interlag_core::InterlagError| format!("traced study {} failed: {e}", w.name);
    let opps = lab.device().config().opps.clone();
    let trace = t.span("evdev.record", |_| w.script.record_trace());
    let (db, annotation, reference_run) =
        t.span("core.annotate", |_| lab.annotate_workload_from(w, trace.clone())).map_err(fail)?;
    let replay_trace = jitter_events(&trace, LabConfig::default().jitter_us, 0);
    let mut replayed = Vec::new();
    let mut measure = |t: &mut Tracer,
                       cfg: &Config,
                       counts: &mut Counts|
     -> Result<RepResult, String> {
        let name = cfg.name();
        let reuse = matches!(cfg, Config::Fixed(f) if *f == opps.max_freq());
        let fresh;
        let run = if reuse {
            &reference_run
        } else {
            let mut gov = cfg.governor(&opps);
            fresh = t
                .span(cfg.layer(), |_| lab.run(w, replay_trace.clone(), &mut *gov))
                .map_err(fail)?;
            replayed.push(cfg.clone());
            if let Config::Fixed(_) = cfg {
                counts.fixed_runs += 1.0;
                counts.fixed_sim_s += session_s(w);
            }
            &fresh
        };
        let video = run.video.as_ref().ok_or_else(|| format!("{name}: run captured no video"))?;
        let (profile, failures) = t.span("core.match", |_| {
            mark_up_with_policy(video, &run.lag_beginnings(), &db, &name, &MatchPolicy::strict())
        });
        counts.lags += profile.entries().len() as f64;
        counts.failures += failures.len() as f64;
        let energy = t.span("power.meter", |_| lab.meter().measure(&run.activity));
        Ok(RepResult {
            profile,
            dynamic_energy_mj: energy.dynamic_mj,
            irritation: SimDuration::ZERO,
            match_failures: failures.len(),
            input_faults: run.input_faults,
        })
    };
    let summary = |cfg: &Config, rep: RepResult| ConfigSummary {
        name: cfg.name(),
        freq: match cfg {
            Config::Fixed(f) => Some(*f),
            _ => None,
        },
        reps: vec![rep],
        outcomes: vec![RepOutcome::Ok],
        robust: false,
    };
    let mut fixed = Vec::new();
    for f in opps.frequencies() {
        let cfg = Config::Fixed(f);
        let rep = measure(t, &cfg, counts)?;
        fixed.push(summary(&cfg, rep));
    }
    let mut governors = Vec::new();
    for g in ["conservative", "interactive", "ondemand"] {
        let cfg = Config::Governor(g);
        let rep = measure(t, &cfg, counts)?;
        governors.push(summary(&cfg, rep));
    }
    let fixed_profiles: BTreeMap<Frequency, LagProfile> =
        fixed.iter().map(|c| (c.freq.expect("fixed config"), c.reps[0].profile.clone())).collect();
    let oracle_cfg = OracleConfig::paper(lab.power_table().most_efficient_freq());
    let oracle_detail = t.span("core.oracle", |_| build_oracle(&fixed_profiles, &oracle_cfg));
    let cfg = Config::Oracle(oracle_detail.plan.clone());
    let rep = measure(t, &cfg, counts)?;
    let oracle = summary(&cfg, rep);
    let mut study = StudyResult {
        workload: w.name.clone(),
        annotation,
        db,
        fixed,
        governors,
        oracle,
        oracle_detail,
    };
    t.span("core.irritation", |_| {
        let model =
            ThresholdModel::paper_rule(study.fixed.last().expect("OPPs").reps[0].profile.clone());
        let StudyResult { fixed, governors, oracle, .. } = &mut study;
        for c in fixed.iter_mut().chain(governors.iter_mut()).chain(std::iter::once(oracle)) {
            for rep in &mut c.reps {
                rep.irritation = user_irritation(&rep.profile, &model).total();
            }
        }
    });
    let csv = t.span("core.report", |_| study_csv(&study));
    Ok((csv, replayed))
}

/// The traced run: untraced and traced ops alternate on the same
/// dataset, so their medians give the tracing overhead; probes that are
/// not part of an op run after the loop.
fn run_traced(args: &Args) -> Report {
    let mut t = Tracer::new(true);
    let (workloads, lab) = SetupTimer::default().time(SETUP_BATCHES.0, || setup(args.seed, &mut t));
    let mut verifier = Verifier::new("study", args.seed);
    let mut counts = Counts::default();
    let mut probes: Vec<(usize, Vec<Config>)> = Vec::new();
    let n = DATASETS.len();
    let stop = Stop::Elapsed { budget: args.budget(), cycle: 2 * n };
    let lp = run_loop(
        stop,
        |i| {
            let (w, _) = &workloads[(i / 2) % n];
            if i % 2 == 0 {
                study_op(&lab, w).map(|(csv, _)| (csv, Vec::new()))
            } else {
                t.span("study.op", |t| traced_study_op(&lab, w, t, &mut counts))
            }
        },
        |i, out| match out {
            Ok((csv, replayed)) => {
                if i % 2 == 1 {
                    probes.push(((i / 2) % n, replayed));
                }
                verifier.check(DATASETS[(i / 2) % n].name(), csv.as_bytes())
            }
            Err(e) => {
                verifier.fail(e);
                false
            }
        },
    );
    let ops = probes.len() as f64;

    // The same replays on a capture-free device: the difference is the
    // HDMI capture's cost.
    let quiet = crate::tune::quiet_device(&lab);
    let opps = lab.device().config().opps.clone();
    for (d, configs) in &probes {
        let (w, trace) = &workloads[*d];
        for cfg in configs {
            let mut gov = cfg.governor(&opps);
            let run = t.span("probe.replay_nocapture", |_| {
                quiet.run(&w.script, ReplayAgent::new(trace.clone()), &mut *gov, w.run_until())
            });
            if let Err(e) = run {
                verifier.fail(format!("capture-free probe failed: {e}"));
            }
        }
    }

    // Amdahl line: the same op at one worker and at one per core.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let wide = Lab::new(lab_config(cores));
    let (mut one, mut wide_s) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (l, out) in [(&lab, &mut one), (&wide, &mut wide_s)] {
            let start = Instant::now();
            if let Err(e) = study_op(l, &workloads[0].0) {
                verifier.fail(e);
            }
            out.push(start.elapsed().as_secs_f64());
        }
    }

    let mut mismatches = verifier.mismatches().to_vec();
    let (tune_layers, tune_note) =
        crate::tune::probe(&workloads, args.seed, &mut t, &mut mismatches);

    let all = t.totals();
    let totals = t.totals_under("study.op");
    let mut layers = per_op(
        &totals,
        ops,
        &[
            "evdev.record",
            "core.annotate",
            "device.replay",
            "governors.replay",
            "core.match",
            "power.meter",
            "core.oracle",
            "core.irritation",
            "core.report",
        ],
    );
    layers.insert("workloads.build_ms", crate::trace::mean_ms(&all, "workloads.build"));
    layers.insert("power.calibrate_ms", crate::trace::mean_ms(&all, "power.calibrate"));
    layers.insert(
        "core.annotate_per_op",
        totals.get("core.annotate").map_or(0.0, |x| x.count as f64) / ops,
    );
    layers.insert("device.runs", counts.fixed_runs / ops);
    layers.insert("device.sim_s", counts.fixed_sim_s / ops);
    layers.insert("core.match_lags", counts.lags / ops);
    layers.insert("core.match_failures", counts.failures / ops);
    let replay_ms = ["device.replay", "governors.replay"]
        .iter()
        .map(|n| totals.get(n).map_or(0.0, |x| x.total_ms))
        .sum::<f64>();
    let nocapture_ms = all.get("probe.replay_nocapture").map_or(0.0, |x| x.total_ms);
    layers.insert("video.capture_ms", (replay_ms - nocapture_ms) / ops);
    let median = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    layers.insert("core.pool_speedup", median(&one) / median(&wide_s).max(1e-9));
    layers.extend(tune_layers);
    let mut report = traced_summary(&t, "study.op", &lp, layers, &mismatches);
    report.notes.push(tune_note);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_non_default_seed_changes_the_inputs_and_still_verifies() {
        let canonical = build_workloads(0, &mut Tracer::new(false));
        let seeded = build_workloads(7, &mut Tracer::new(false));
        assert_eq!(
            canonical[0].1.to_getevent_text(),
            Dataset::D01.build().script.record_trace().to_getevent_text(),
            "seed 0 is the canonical recording"
        );
        for ((_, a), (_, b)) in canonical.iter().zip(&seeded) {
            assert_ne!(a.to_getevent_text(), b.to_getevent_text());
        }
        let lab = Lab::new(lab_config(1));
        let (first, _) = study_op(&lab, &seeded[0].0).expect("seeded study runs");
        let (again, _) = study_op(&lab, &seeded[0].0).expect("seeded study runs");
        let mut verifier = Verifier::new("study", 7);
        assert!(verifier.check("01", first.as_bytes()));
        assert!(verifier.check("01", again.as_bytes()));
        // The seed-0 pins describe other inputs and would reject this one.
        assert!(!Verifier::new("study", 0).check("01", first.as_bytes()));
    }
}
