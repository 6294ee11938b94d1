//! The tuning sweep, probed from the `study` workload's traced run: one
//! `run_tune` (workers=1, shards=1) of the CI frontier grid per
//! ten-minute dataset, untraced and then rebuilt from its layers' entry
//! points. (`tune` is not a workload of its own: on the reference host
//! its run-to-run spread sat at the bound; see the README.)

use std::collections::BTreeMap;
use std::time::Instant;

use interlag_core::experiment::{jitter_events, Lab};
use interlag_core::tune::{ground_truth_profile, GovernorSpec, TuneGrid};
use interlag_core::{
    build_oracle, parse_tune_group, user_irritation, LagProfile, OracleConfig, ThresholdModel,
    TuneMeasurement, TuneReference,
};
use interlag_db::{Sketch, ENERGY_BUCKET_UJ, IRRITATION_BUCKET_US, LAG_BUCKET_US};
use interlag_device::device::{CaptureMode, Device, RunArtifacts};
use interlag_device::dvfs::FixedGovernor;
use interlag_evdev::replay::ReplayAgent;
use interlag_evdev::trace::EventTrace;
use interlag_governors::PlanGovernor;
use interlag_orchestrator::tune::{
    pareto_frontier, run_tune, tune_csv, TuneConfig, TuneOutcome, TunePointSummary,
};
use interlag_power::opp::Frequency;
use interlag_workloads::gen::Workload;

use crate::per_op;
use crate::study::DATASETS;
use crate::trace::Tracer;
use crate::verify::Verifier;

/// The CI tuning job's frontier grid: four interactive `go_hispeed_load`
/// points, two jittered repetitions each.
const GRID: &str = "governor=interactive:go-hispeed-load-min=60:go-hispeed-load-max=95:\
                        go-hispeed-load-intvs=4:reps=2:jitter-us=1500";

/// The untraced op: the library entry point the CLI's `tune` calls.
fn tune_op(w: &Workload) -> Result<String, String> {
    let out =
        run_tune(w, &TuneConfig::new(GRID)).map_err(|e| format!("tune {} failed: {e}", w.name))?;
    Ok(tune_csv(&out))
}

/// The capture-free replica of the lab's device tuning replays use.
pub fn quiet_device(lab: &Lab) -> Device {
    let mut config = lab.device().config().clone();
    config.capture = CaptureMode::None;
    Device::new(config)
}

fn energy_uj(lab: &Lab, run: &RunArtifacts) -> u64 {
    (lab.meter().measure(&run.activity).dynamic_mj * 1_000.0).round() as u64
}

/// `tune_reference` rebuilt from its layers' entry points.
fn traced_reference(lab: &Lab, w: &Workload, t: &mut Tracer) -> Result<TuneReference, String> {
    let fail =
        |e: interlag_device::error::DeviceError| format!("tune reference {} failed: {e}", w.name);
    let device = quiet_device(lab);
    let table = lab.device().config().opps.clone();
    let trace = t.span("evdev.record", |_| w.script.record_trace());
    let until = w.run_until();
    let mut profiles: BTreeMap<Frequency, LagProfile> = BTreeMap::new();
    for opp in table.opps() {
        let mut gov = FixedGovernor::new(opp.freq);
        let run = t
            .span("device.replay", |_| {
                device.run(&w.script, ReplayAgent::new(trace.clone()), &mut gov, until)
            })
            .map_err(fail)?;
        profiles.insert(opp.freq, ground_truth_profile(&run, &format!("fixed-{}", opp.freq)));
    }
    let reference =
        profiles.get(&table.max_freq()).cloned().unwrap_or_else(|| LagProfile::new("reference"));
    let model = ThresholdModel::paper_rule(reference);
    let oracle_cfg = OracleConfig::paper(lab.power_table().most_efficient_freq());
    let oracle = t.span("core.oracle", |_| build_oracle(&profiles, &oracle_cfg));
    let mut gov = PlanGovernor::new("oracle", oracle.plan.clone());
    let run = t
        .span("governors.replay", |_| {
            device.run(&w.script, ReplayAgent::new(trace.clone()), &mut gov, until)
        })
        .map_err(fail)?;
    let profile = ground_truth_profile(&run, "oracle");
    let irritation =
        t.span("core.irritation", |_| user_irritation(&profile, &model).total().as_micros());
    let energy = t.span("power.meter", |_| energy_uj(lab, &run));
    Ok(TuneReference {
        trace,
        oracle_irritation_us: irritation,
        oracle_energy_uj: energy,
        oracle_lag_us: profile.mean_lag().as_micros(),
        model,
    })
}

/// `measure_tune_point` rebuilt from its layers' entry points.
fn traced_slot(
    lab: &Lab,
    w: &Workload,
    reference: &TuneReference,
    spec: &GovernorSpec,
    rep: u32,
    jitter_us: u64,
    t: &mut Tracer,
) -> Result<TuneMeasurement, String> {
    let device = quiet_device(lab);
    let trace = jitter_events(&reference.trace, jitter_us, rep);
    let mut governor = spec.build();
    let run = t
        .span("governors.replay", |_| {
            device.run(&w.script, ReplayAgent::new(trace), &mut *governor, w.run_until())
        })
        .map_err(|e| format!("tune slot {} failed: {e}", w.name))?;
    let profile = ground_truth_profile(&run, spec.governor_name());
    let irritation_us = t.span("core.irritation", |_| {
        user_irritation(&profile, &reference.model).total().as_micros()
    });
    let energy_uj = t.span("power.meter", |_| energy_uj(lab, &run));
    Ok(TuneMeasurement { mean_lag_us: profile.mean_lag().as_micros(), irritation_us, energy_uj })
}

/// `run_tune` rebuilt from its layers' entry points; returns the CSV,
/// which must equal the untraced op's.
fn traced_tune_op(w: &Workload, t: &mut Tracer) -> Result<String, String> {
    let lab = t.span("power.calibrate", |_| Lab::with_defaults());
    let table = lab.device().config().opps.clone();
    let grid: TuneGrid = t
        .span("core.tune_grid", |_| parse_tune_group(GRID, &table))
        .map_err(|e| format!("bad grid: {e}"))?;
    let reference = t.span("core.tune_reference", |t| traced_reference(&lab, w, t))?;
    let reps = grid.reps as usize;
    let mut measured = Vec::with_capacity(grid.points.len() * reps);
    for slot in 0..grid.points.len() * reps {
        let spec = &grid.points[slot / reps].1;
        let rep = (slot % reps) as u32;
        measured.push(t.span("core.tune_slot", |t| {
            traced_slot(&lab, w, &reference, spec, rep, grid.jitter_us, t)
        })?);
    }
    let points = t.span("db.sketch_fold", |_| {
        let mut points: Vec<TunePointSummary> = grid
            .points
            .iter()
            .map(|(point, spec)| TunePointSummary {
                point: point.clone(),
                spec: *spec,
                lag: Sketch::new(LAG_BUCKET_US),
                irritation: Sketch::new(IRRITATION_BUCKET_US),
                energy: Sketch::new(ENERGY_BUCKET_UJ),
            })
            .collect();
        for (slot, m) in measured.iter().enumerate() {
            let p = &mut points[slot / reps];
            p.lag.add(m.mean_lag_us);
            p.irritation.add(m.irritation_us);
            p.energy.add(m.energy_uj);
        }
        points
    });
    Ok(t.span("orchestrator.frontier", |_| {
        let frontier = pareto_frontier(&points);
        tune_csv(&TuneOutcome {
            workload: w.name.clone(),
            group: grid.group.to_string(),
            reps: grid.reps,
            jitter_us: grid.jitter_us,
            reference,
            points,
            frontier,
        })
    }))
}

/// Runs `run_tune` once per workload untraced, then rebuilt inside a
/// `tune.op` span; both CSVs must match each other and, for seed 0, the
/// pinned digests. Returns the tune layers' metrics and a note with the
/// untraced op times.
pub fn probe(
    workloads: &[(Workload, EventTrace)],
    seed: u64,
    t: &mut Tracer,
    mismatches: &mut Vec<String>,
) -> (BTreeMap<&'static str, f64>, String) {
    let mut verifier = Verifier::new("tune", seed);
    let mut untraced_ms = Vec::new();
    for ((w, _), d) in workloads.iter().zip(DATASETS) {
        let start = Instant::now();
        let untraced = tune_op(w);
        untraced_ms.push(format!("{}={:.1}", d.name(), start.elapsed().as_secs_f64() * 1e3));
        let traced = t.span("tune.op", |t| traced_tune_op(w, t));
        for out in [untraced, traced] {
            match out {
                Ok(csv) => {
                    verifier.check(d.name(), csv.as_bytes());
                }
                Err(e) => verifier.fail(e),
            }
        }
    }
    mismatches.extend(verifier.mismatches().iter().map(|m| format!("tune {m}")));
    let under = t.totals_under("tune.op");
    let ops = under.get("tune.op").map_or(0, |x| x.count) as f64;
    let mut layers = per_op(&under, ops, &["core.tune_reference", "orchestrator.frontier"]);
    layers.insert("core.tune_slot_ms", crate::trace::mean_ms(&under, "core.tune_slot"));
    let slots = under.get("core.tune_slot").map_or(0, |x| x.count) as f64;
    layers.insert("core.tune_slots", slots / ops.max(1.0));
    let fold_ms = under.get("db.sketch_fold").map_or(0.0, |x| x.total_ms);
    layers.insert("db.sketch_fold_us", 1e3 * fold_ms / ops.max(1.0));
    (layers, format!("untraced tune op ms by input: {}", untraced_ms.join(" ")))
}
