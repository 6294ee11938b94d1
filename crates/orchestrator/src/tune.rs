//! The sharded governor-tuning sweep behind `interlag tune`.
//!
//! A tuning run is the orchestration sandwich the study sweep already
//! proved out, applied to the [`interlag_core::tune`] grid: expand the
//! tunable group into governor specs, split the `(point, repetition)`
//! slot grid round-robin across shards exactly like
//! [`StudyScope::owns_stage1`](interlag_core::experiment::StudyScope),
//! fan each shard's slots over a worker pool, fold every repetition into
//! the results database's integer [`Sketch`]s, and merge shard partials
//! into one outcome. Because each slot's measurement is a pure function
//! of `(spec, rep)` and sketch folding is commutative bucket addition,
//! the merged outcome — and therefore the rendered Markdown and CSV — is
//! **byte-identical at any worker and shard count**, the same invariant
//! the sweep supervisor holds for study journals.
//!
//! Scoring follows the issue's rule: each grid point is placed by its
//! mean (irritation, energy) relative to the per-workload oracle, and
//! the report leads with the *Pareto frontier* — the points no other
//! point beats on both axes. Domination is decided in exact integer
//! arithmetic on sketch sums (`a.sum × b.count` vs `b.sum × a.count` in
//! `u128`), so the frontier never depends on float rounding.

use interlag_core::error::InterlagError;
use interlag_core::experiment::{Lab, LabConfig};
use interlag_core::propgroup::{PropError, PropPoint};
use interlag_core::tune::{
    measure_tune_point, parse_tune_group, tune_reference, GovernorSpec, TuneGrid, TuneMeasurement,
    TuneReference,
};
use interlag_db::{Sketch, ENERGY_BUCKET_UJ, IRRITATION_BUCKET_US, LAG_BUCKET_US};
use interlag_workloads::gen::Workload;

/// How a tuning sweep is shaped: the tunable group plus the fleet split.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// The tunable group text (canonical `key=val:…` grammar).
    pub group: String,
    /// Worker threads per shard (1 = sequential).
    pub workers: usize,
    /// Round-robin shard count over the slot grid (1 = unsharded).
    pub shards: u32,
}

impl TuneConfig {
    /// A sequential, unsharded sweep of `group`.
    pub fn new(group: impl Into<String>) -> Self {
        TuneConfig { group: group.into(), workers: 1, shards: 1 }
    }
}

/// Everything a tuning sweep can fail with.
#[derive(Debug)]
pub enum TuneError {
    /// The tunable group was rejected (grammar or domain).
    Prop(PropError),
    /// A measurement run failed.
    Run(InterlagError),
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::Prop(e) => write!(f, "bad tunable group: {e}"),
            TuneError::Run(e) => write!(f, "tuning run failed: {e}"),
        }
    }
}

impl std::error::Error for TuneError {}

impl From<PropError> for TuneError {
    fn from(e: PropError) -> Self {
        TuneError::Prop(e)
    }
}

impl From<InterlagError> for TuneError {
    fn from(e: InterlagError) -> Self {
        TuneError::Run(e)
    }
}

/// One grid point's folded repetitions.
#[derive(Debug, Clone)]
pub struct TunePointSummary {
    /// The governor point (fleet keys stripped), canonical text.
    pub point: PropPoint,
    /// The governor the point built.
    pub spec: GovernorSpec,
    /// Ground-truth mean lags, µs in 1 ms buckets.
    pub lag: Sketch,
    /// Per-repetition total irritation, µs in 10 ms buckets.
    pub irritation: Sketch,
    /// Per-repetition dynamic energy, µJ in 1 mJ buckets.
    pub energy: Sketch,
}

impl TunePointSummary {
    fn empty(point: PropPoint, spec: GovernorSpec) -> Self {
        TunePointSummary {
            point,
            spec,
            lag: Sketch::new(LAG_BUCKET_US),
            irritation: Sketch::new(IRRITATION_BUCKET_US),
            energy: Sketch::new(ENERGY_BUCKET_UJ),
        }
    }

    fn fold(&mut self, m: &TuneMeasurement) {
        self.lag.add(m.mean_lag_us);
        self.irritation.add(m.irritation_us);
        self.energy.add(m.energy_uj);
    }

    /// The point's score: its (irritation, energy) distance from the
    /// oracle, each axis normalised by the oracle's own value (floored
    /// at one sketch bucket so a zero-irritation oracle cannot divide
    /// away the axis). Purely for ranking the rendered report — the
    /// frontier itself is computed in integer arithmetic.
    pub fn oracle_distance(&self, reference: &TuneReference) -> f64 {
        let irr_scale = reference.oracle_irritation_us.max(IRRITATION_BUCKET_US) as f64;
        let energy_scale = reference.oracle_energy_uj.max(ENERGY_BUCKET_UJ) as f64;
        let d_irr = (self.irritation.mean() - reference.oracle_irritation_us as f64) / irr_scale;
        let d_energy = (self.energy.mean() - reference.oracle_energy_uj as f64) / energy_scale;
        (d_irr * d_irr + d_energy * d_energy).sqrt()
    }
}

/// A finished tuning sweep.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The workload tuned against.
    pub workload: String,
    /// The canonical group text.
    pub group: String,
    /// Repetitions folded per point.
    pub reps: u32,
    /// The jitter applied per repetition.
    pub jitter_us: u64,
    /// The oracle reference every point is scored against.
    pub reference: TuneReference,
    /// One summary per grid point, in expansion order.
    pub points: Vec<TunePointSummary>,
    /// Indices into `points` on the Pareto frontier, sorted by mean
    /// energy ascending (ties by grid order).
    pub frontier: Vec<usize>,
}

/// Compares two sketch means exactly: `a.sum/a.count ⋛ b.sum/b.count`
/// cross-multiplied in `u128`, so no division and no floats. An empty
/// sketch (count 0) compares equal to everything — empty points never
/// dominate.
fn cmp_means(a: &Sketch, b: &Sketch) -> std::cmp::Ordering {
    if a.count() == 0 || b.count() == 0 {
        return std::cmp::Ordering::Equal;
    }
    let lhs = a.sum() * u128::from(b.count());
    let rhs = b.sum() * u128::from(a.count());
    lhs.cmp(&rhs)
}

/// `true` if point `a` Pareto-dominates point `b`: no worse on both
/// mean irritation and mean energy, strictly better on at least one.
fn dominates(a: &TunePointSummary, b: &TunePointSummary) -> bool {
    use std::cmp::Ordering::{Greater, Less};
    let irr = cmp_means(&a.irritation, &b.irritation);
    let energy = cmp_means(&a.energy, &b.energy);
    irr != Greater && energy != Greater && (irr == Less || energy == Less)
}

/// The Pareto frontier of `points`: indices of the non-dominated
/// points, sorted by mean energy ascending (grid order on ties).
pub fn pareto_frontier(points: &[TunePointSummary]) -> Vec<usize> {
    let mut frontier: Vec<usize> = (0..points.len())
        .filter(|&i| {
            points.iter().enumerate().all(|(j, other)| j == i || !dominates(other, &points[i]))
        })
        .collect();
    frontier.sort_by(|&a, &b| cmp_means(&points[a].energy, &points[b].energy).then(a.cmp(&b)));
    frontier
}

/// Runs a tuning sweep of `workload` in-process.
///
/// The slot grid is `points × reps`; slot `point × reps + rep` belongs
/// to shard `slot % shards` (the study sweep's round-robin rule), each
/// shard's slots run on the study's worker pool ([`Lab::run_matrix`],
/// `workers` threads), and shard partials are folded in slot order.
/// None of that shapes the result: every slot is deterministic and
/// folding is commutative, so any `(workers, shards)` produces the same
/// outcome byte for byte.
///
/// # Errors
///
/// [`TuneError::Prop`] for a rejected group, [`TuneError::Run`] if any
/// measurement fails.
pub fn run_tune(workload: &Workload, config: &TuneConfig) -> Result<TuneOutcome, TuneError> {
    let lab = Lab::new(LabConfig { workers: config.workers, ..LabConfig::default() });
    let table = lab.device().config().opps.clone();
    let grid = parse_tune_group(&config.group, &table)?;
    let reference = tune_reference(&lab, workload)?;

    let slots = grid.points.len() * grid.reps as usize;
    let shards = config.shards.max(1);
    let mut summaries: Vec<TunePointSummary> = grid
        .points
        .iter()
        .map(|(point, spec)| TunePointSummary::empty(point.clone(), *spec))
        .collect();

    // Shard loop: each shard measures its owned slots independently
    // (mirroring separate agent processes), then folds in slot order.
    for shard in 0..shards {
        let owned: Vec<usize> = (0..slots).filter(|s| (*s as u32) % shards == shard).collect();
        let measured = measure_slots(&lab, workload, &reference, &owned, &grid)?;
        for (slot, m) in owned.iter().zip(measured.iter()) {
            summaries[slot / grid.reps as usize].fold(m);
        }
    }

    let frontier = pareto_frontier(&summaries);
    Ok(TuneOutcome {
        workload: workload.name.clone(),
        group: grid.group.to_string(),
        reps: grid.reps,
        jitter_us: grid.jitter_us,
        reference,
        points: summaries,
        frontier,
    })
}

/// Measures one shard's slot list over the lab's worker pool, returning
/// measurements parallel to `owned`.
fn measure_slots(
    lab: &Lab,
    workload: &Workload,
    reference: &TuneReference,
    owned: &[usize],
    grid: &TuneGrid,
) -> Result<Vec<TuneMeasurement>, TuneError> {
    let reps = grid.reps as usize;
    lab.run_matrix(owned.len(), |i| {
        let (point, rep) = (owned[i] / reps, (owned[i] % reps) as u32);
        let spec = &grid.points[point].1;
        measure_tune_point(lab, workload, reference, spec, rep, grid.jitter_us)
    })
    .into_iter()
    .collect::<Result<_, _>>()
    .map_err(TuneError::Run)
}

/// Fixed-precision float rendering shared by both exporters: enough
/// digits to be useful, few enough to stay bit-stable (the inputs are
/// deterministic integers, so the formatted text is too).
fn ms(us: f64) -> String {
    format!("{:.3}", us / 1_000.0)
}

/// Renders the outcome as CSV: one row per grid point, frontier points
/// flagged, leading with the oracle reference row.
pub fn tune_csv(out: &TuneOutcome) -> String {
    let mut s = String::new();
    s.push_str(
        "point,governor,reps,mean_lag_ms,p95_lag_ms,mean_irritation_ms,mean_energy_mj,\
         oracle_distance,frontier\n",
    );
    s.push_str(&format!(
        "oracle,oracle,1,{},{},{},{},0.0000,reference\n",
        ms(out.reference.oracle_lag_us as f64),
        ms(out.reference.oracle_lag_us as f64),
        ms(out.reference.oracle_irritation_us as f64),
        ms(out.reference.oracle_energy_uj as f64),
    ));
    for (i, p) in out.points.iter().enumerate() {
        s.push_str(&format!(
            "{},{},{},{},{},{},{},{:.4},{}\n",
            p.point,
            p.spec.governor_name(),
            p.irritation.count(),
            ms(p.lag.mean()),
            ms(p.lag.percentile(0.95) as f64),
            ms(p.irritation.mean()),
            ms(p.energy.mean()),
            p.oracle_distance(&out.reference),
            if out.frontier.contains(&i) { "yes" } else { "no" },
        ));
    }
    s
}

/// Renders the outcome as Markdown: the Pareto frontier first, then the
/// full grid.
pub fn tune_markdown(out: &TuneOutcome) -> String {
    let mut s = String::new();
    s.push_str(&format!("# Governor tuning — {}\n\n", out.workload));
    s.push_str(&format!(
        "Grid `{}`: {} point(s) × {} repetition(s), jitter ±{} µs.\n\n",
        out.group,
        out.points.len(),
        out.reps,
        out.jitter_us,
    ));
    s.push_str(&format!(
        "Oracle reference: mean lag {} ms, irritation {} ms, energy {} mJ.\n\n",
        ms(out.reference.oracle_lag_us as f64),
        ms(out.reference.oracle_irritation_us as f64),
        ms(out.reference.oracle_energy_uj as f64),
    ));
    let row = |s: &mut String, i: usize, p: &TunePointSummary| {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {:.4} |\n",
            p.point,
            ms(p.lag.mean()),
            ms(p.irritation.mean()),
            ms(p.energy.mean()),
            if out.frontier.contains(&i) { "✓" } else { "" },
            p.oracle_distance(&out.reference),
        ));
    };
    s.push_str("## Pareto frontier (energy ascending)\n\n");
    s.push_str("| point | mean lag ms | irritation ms | energy mJ | frontier | distance |\n");
    s.push_str("|---|---|---|---|---|---|\n");
    for &i in &out.frontier {
        row(&mut s, i, &out.points[i]);
    }
    s.push_str("\n## Full grid\n\n");
    s.push_str("| point | mean lag ms | irritation ms | energy mJ | frontier | distance |\n");
    s.push_str("|---|---|---|---|---|---|\n");
    for (i, p) in out.points.iter().enumerate() {
        row(&mut s, i, p);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(point: &str, irritation: &[u64], energy: &[u64]) -> TunePointSummary {
        let mut s = TunePointSummary::empty(
            PropPoint::new([("governor", "ondemand"), ("up-threshold", point)]),
            GovernorSpec::Ondemand(Default::default()),
        );
        for (&i, &e) in irritation.iter().zip(energy) {
            s.fold(&TuneMeasurement { mean_lag_us: 1_000, irritation_us: i, energy_uj: e });
        }
        s
    }

    #[test]
    fn frontier_keeps_only_non_dominated_points() {
        let points = vec![
            summary("60", &[10_000], &[50_000]), // dominated by 80 on both axes
            summary("80", &[5_000], &[40_000]),
            summary("95", &[20_000], &[20_000]), // cheaper but more irritating: frontier
        ];
        assert_eq!(pareto_frontier(&points), vec![2, 1], "energy ascending");
    }

    #[test]
    fn equal_points_do_not_dominate_each_other() {
        let points = vec![summary("a", &[5_000], &[9_000]), summary("b", &[5_000], &[9_000])];
        assert_eq!(pareto_frontier(&points), vec![0, 1]);
    }

    #[test]
    fn exact_mean_comparison_ignores_rep_count() {
        // 10+20 over 2 reps vs 15 over 1 rep: equal means, no domination.
        let a = summary("a", &[10_000, 20_000], &[1_000, 1_000]);
        let b = summary("b", &[15_000], &[1_000]);
        assert_eq!(cmp_means(&a.irritation, &b.irritation), std::cmp::Ordering::Equal);
        assert!(!dominates(&a, &b));
        assert!(!dominates(&b, &a));
    }
}
