//! `fleet`: one op is `interlag sweep mini --shards 2 --jitter-us J
//! --journal-dir D --db DB` followed by `interlag db query`, through the
//! release binary: agent processes, ILC1 journals and real fsyncs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use interlag_core::checkpoint::{decode_checkpoint_any, encode_checkpoint_binary};
use interlag_core::experiment::{Lab, LabConfig};
use interlag_core::{study_csv, study_fingerprint, CheckpointFormat};
use interlag_db::{
    device_model, export_csv, query, seal_submission, Db, SubmissionManifest, SUBMISSION_SCHEMA,
};
use interlag_journal::Journal;
use interlag_orchestrator::{merge_shard_journals, SweepGrid};
use interlag_workloads::datasets::Dataset;
use interlag_workloads::gen::Workload;

use crate::harness::{run_loop, SetupTimer, Stop, SETUP_BATCHES};
use crate::study::session_s;
use crate::trace::Tracer;
use crate::verify::Verifier;
use crate::{end_to_end, per_op, traced_summary, Args, Report};

/// Submissions per second of `--seconds`. The store grows by one
/// submission per op, so a run is a fixed op count: were it a time
/// budget, a faster commit would ingest into a bigger store.
pub const OPS_PER_SECOND: usize = 20;

/// Shards per sweep: one agent per core of the 2-core reference host.
const SHARDS: &str = "2";

/// The query every op runs after its sweep.
const QUERY: &str = "governor=ondemand:stat=p95-lag";

/// Ops in a run of `seconds`; independent of how fast ops run.
pub fn op_count(seconds: u64) -> usize {
    OPS_PER_SECOND * seconds.max(1) as usize
}

/// The distinct per-op input jitters, µs, derived from the seed.
pub fn jitters(seed: u64, count: usize) -> Vec<u64> {
    let base = 1_000 + seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) % 100_000;
    (0..count as u64).map(|k| base + k).collect()
}

/// What one op left behind, checked after the timed loop.
struct OpOutput {
    sweep: Output,
    query: Output,
}

fn interlag(exe: &Path, args: &[&str]) -> std::io::Result<Output> {
    Command::new(exe).args(args).output()
}

/// One op: the sweep, then the query, each in a span when `t` records.
fn op(exe: &Path, work: &Path, k: usize, jitter: u64, t: &mut Tracer) -> std::io::Result<OpOutput> {
    let jd = work.join(format!("jd{k}"));
    let db = work.join("db");
    let (jd, db, jitter) = (jd.to_string_lossy(), db.to_string_lossy(), jitter.to_string());
    t.span("fleet.op", |t| {
        let sweep = t.span("orchestrator.sweep", |_| {
            interlag(
                exe,
                &[
                    "sweep",
                    "mini",
                    "--shards",
                    SHARDS,
                    "--jitter-us",
                    &jitter,
                    "--journal-dir",
                    &jd,
                    "--db",
                    &db,
                ],
            )
        })?;
        let query = t.span("cli.query", |_| interlag(exe, &["db", "query", "--db", &db, QUERY]))?;
        Ok(OpOutput { sweep, query })
    })
}

/// The `mini` workload with its recorded trace, a fresh store and the
/// per-op jitters.
fn setup(seed: u64, count: usize, work: &Path) -> std::io::Result<(Workload, String, Vec<u64>)> {
    let mini = Dataset::Mini.build();
    let trace_text = mini.script.record_trace().to_getevent_text();
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work)?;
    Db::open(work.join("db"), Default::default()).map_err(std::io::Error::other)?;
    Ok((mini, trace_text, jitters(seed, count)))
}

/// The lab configuration `interlag sweep` builds for jitter `J`; the
/// in-process check runs it on every core (worker count never changes
/// results).
fn lab_config(jitter_us: u64) -> LabConfig {
    LabConfig { reps: 1, jitter_us, ..Default::default() }
}

pub fn run(args: &Args) -> Report {
    let work = args.work_dir.as_path();
    let mut t = Tracer::new(args.trace);
    let count = op_count(args.seconds);
    let mut timer = SetupTimer::default();
    let inputs = timer.time(SETUP_BATCHES.0, || setup(args.seed, count, work));
    let (mini, trace_text, jitters) = match inputs {
        Ok(i) => i,
        Err(e) => return Report::broken(format!("fleet set-up failed: {e}")),
    };
    let exe = args.interlag.clone();
    let mut outputs: Vec<Option<OpOutput>> = Vec::with_capacity(count);
    let lp = run_loop(
        Stop::Count(count),
        |k| {
            // In a traced run, even ops stay untraced: the pair gives the
            // tracing overhead.
            let mut off = Tracer::new(false);
            let tracer = if k % 2 == 1 { &mut t } else { &mut off };
            op(&exe, work, k, jitters[k], tracer)
        },
        |_, out: std::io::Result<OpOutput>| {
            let ok =
                out.as_ref().is_ok_and(|o| o.sweep.status.success() && o.query.status.success());
            outputs.push(out.ok());
            ok
        },
    );
    let peak_rss_mb = crate::host::peak_rss_children_mb();

    // Verification, outside the timed loop: each sweep's CSV against the
    // in-process study of the same input; the sealed submission against
    // one resealed from the op's shard journals; each query against a
    // shadow store fed the same submissions in the same order.
    let mut verifier = Verifier::new("fleet", args.seed);
    let mut failed = lp.failed;
    let mut shadow = match Db::open(work.join("shadow"), Default::default()) {
        Ok(db) => db,
        Err(e) => return Report::broken(format!("cannot open shadow store: {e}")),
    };
    let mut annotate_runs = 0.0;
    let mut attempts = (0.0, 0.0);
    let mut records = (0.0, 0.0);
    for (k, out) in outputs.iter().enumerate() {
        let Some(out) = out else { continue };
        if !(out.sweep.status.success() && out.query.status.success()) {
            continue;
        }
        let jd = work.join(format!("jd{k}"));
        let cfg = lab_config(jitters[k]);
        let check =
            verify_op(&mut t, &mini, &cfg, &trace_text, &jd, out, &mut shadow, &mut records);
        let ok = match check {
            Ok(()) => {
                let mut both = out.sweep.stdout.clone();
                both.extend_from_slice(&out.query.stdout);
                // At reps=1 J changes only the submission fingerprint, so
                // every op must reproduce the first op's output.
                verifier.check("op", &both)
            }
            Err(e) => {
                verifier.fail(format!("op{k}: {e}"));
                false
            }
        };
        if !ok {
            failed += 1;
        }
        if args.trace {
            annotate_runs += shard_journals(&jd).len() as f64 + 1.0;
            if let Some((dispatched, retried)) = dispatch_counts(&out.sweep.stderr) {
                attempts.0 += dispatched + retried;
                attempts.1 += dispatched;
            }
            if k % 2 == 1 {
                let lab = Lab::new(cfg.clone());
                let _ = t.span("core.annotate", |_| lab.annotate_workload(&mini));
            }
        }
    }
    let cli_export = interlag(&exe, &["db", "export", "--db", &work.join("db").to_string_lossy()]);
    match cli_export {
        Ok(o) if o.status.success() && o.stdout == export_csv(&shadow).into_bytes() => {}
        _ => {
            verifier.fail("final db export differs from the shadow store's".to_string());
            failed = failed.max(1);
        }
    }
    let sim_s = (lp.attempted() - failed.min(lp.attempted())) as f64
        * SweepGrid::for_lab(&lab_config(0)).total_slots() as f64
        * session_s(&mini);
    if !args.trace {
        // The second half of the set-up batches, now that the store and
        // journals are no longer needed.
        let _ = timer.time(SETUP_BATCHES.1, || setup(args.seed, count, work));
        let mut lp = lp;
        lp.failed = failed;
        return end_to_end(timer.median_s(), &lp, sim_s, peak_rss_mb, verifier.mismatches());
    }

    let totals = t.totals();
    let traced_ops = totals.get("fleet.op").map_or(0, |x| x.count) as f64;
    let verified = outputs.iter().flatten().count() as f64;
    let mut layers = per_op(&totals, traced_ops, &["orchestrator.sweep", "cli.query"]);
    let mean = |name: &str| crate::trace::mean_ms(&totals, name);
    for name in [
        "core.annotate",
        "orchestrator.merge",
        "journal.append",
        "db.seal",
        "db.ingest",
        "db.query",
    ] {
        layers.insert(crate::layer_key(&format!("{name}_ms")), mean(name));
    }
    layers
        .insert("orchestrator.overhead_ms", mean("orchestrator.sweep") - mean("core.study_inproc"));
    layers.insert("orchestrator.attempts_per_shard", attempts.0 / attempts.1.max(1.0));
    layers.insert("core.annotate_per_op", annotate_runs / verified.max(1.0));
    layers.insert(
        "core.checkpoint_codec_us",
        1e3 * totals.get("core.checkpoint_codec").map_or(0.0, |x| x.total_ms) / records.0.max(1.0),
    );
    layers.insert("core.checkpoint_bytes", records.1 / records.0.max(1.0));
    let ingests = t.durations("db.ingest");
    let decile = ingests.len().div_ceil(10).max(1);
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    layers.insert("db.ingest_first_decile_ms", avg(&ingests[..decile.min(ingests.len())]));
    layers
        .insert("db.ingest_last_decile_ms", avg(&ingests[ingests.len().saturating_sub(decile)..]));
    let state = std::fs::metadata(work.join("db").join("aggregates.db")).map_or(0, |m| m.len());
    layers.insert("db.state_bytes", state as f64);
    let mut lp = lp;
    lp.failed = failed;
    traced_summary(&t, "fleet.op", &lp, layers, verifier.mismatches())
}

/// The attempt journals an op's agents wrote; each agent annotates once.
fn shard_journals(jd: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(jd)
        .map(|d| {
            d.flatten()
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("shard-"))
                })
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

/// `(dispatches, retries)` from the sweep's summary line on stderr.
fn dispatch_counts(stderr: &[u8]) -> Option<(f64, f64)> {
    let text = String::from_utf8_lossy(stderr);
    let line = text.lines().find(|l| l.contains("shard dispatch(es)"))?;
    let words: Vec<&str> = line.split_whitespace().collect();
    let at = |w: &str| words.iter().position(|x| *x == w);
    let dispatched = words.get(at("shard")?.checked_sub(1)?)?.parse().ok()?;
    let retried = words.get(at("retried,")?.checked_sub(1)?)?.parse().ok()?;
    Some((dispatched, retried))
}

/// Checks one op against in-process recomputation, timing each layer's
/// entry point when tracing. `records` accumulates (records, bytes).
#[allow(clippy::too_many_arguments)]
fn verify_op(
    t: &mut Tracer,
    mini: &Workload,
    cfg: &LabConfig,
    trace_text: &str,
    jd: &Path,
    out: &OpOutput,
    shadow: &mut Db,
    records: &mut (f64, f64),
) -> Result<(), String> {
    let lab = Lab::new(cfg.clone());
    let study = t
        .span("core.study_inproc", |_| lab.study(mini))
        .map_err(|e| format!("in-process study: {e}"))?;
    if out.sweep.stdout != study_csv(&study).into_bytes() {
        return Err("sweep CSV differs from the in-process study".to_string());
    }

    let fingerprint = study_fingerprint(trace_text, cfg);
    let sources: Vec<Vec<u8>> = shard_journals(jd)
        .iter()
        .map(std::fs::read)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot read shard journals: {e}"))?;
    let merged = t.span("orchestrator.merge", |_| {
        merge_shard_journals(sources.iter().map(Vec::as_slice), fingerprint, |_, _| true)
    });
    let grid = SweepGrid::for_lab(cfg);
    if merged.records.len() != grid.total_slots() || merged.quarantined > 0 {
        return Err(format!("merged {} of {} slots", merged.records.len(), grid.total_slots()));
    }
    if t.enabled() {
        let path = jd.join("probe.journal");
        t.span("journal.append", |_| -> std::io::Result<()> {
            let mut journal = Journal::create(&path)?;
            for record in merged.records.values() {
                journal.append_binary(&encode_checkpoint_binary(record))?;
            }
            Ok(())
        })
        .map_err(|e| format!("journal append: {e}"))?;
        for record in merged.records.values() {
            let bytes = t.span("core.checkpoint_codec", |_| {
                let bytes = encode_checkpoint_binary(record);
                (decode_checkpoint_any(&bytes), bytes.len())
            });
            if bytes.0.as_ref() != Some(record) {
                return Err("checkpoint codec did not round-trip".to_string());
            }
            records.0 += 1.0;
            records.1 += bytes.1 as f64;
        }
    }
    let manifest = SubmissionManifest {
        schema: SUBMISSION_SCHEMA.to_string(),
        fingerprint,
        device_model: device_model(cfg),
        workload: mini.name.clone(),
        reps: grid.reps,
        configs: (0..=grid.oracle_config()).map(|c| grid.config_name(c)).collect(),
        records: 0,
        props: Vec::new(),
    };
    let sealed = t
        .span("db.seal", |_| seal_submission(&manifest, &merged.records, CheckpointFormat::Binary));
    let submitted =
        std::fs::read(jd.join("submission.sub")).map_err(|e| format!("no submission: {e}"))?;
    if sealed != submitted {
        return Err("submission differs from one resealed from the shard journals".to_string());
    }
    t.span("db.ingest", |_| shadow.ingest_bytes(&submitted))
        .map_err(|e| format!("shadow ingest: {e}"))?;
    let rows =
        t.span("db.query", |_| query(shadow, QUERY)).map_err(|e| format!("shadow query: {e}"))?;
    if out.query.stdout != rows.into_bytes() {
        return Err("query differs from the shadow store's".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_count_depends_only_on_seconds() {
        assert_eq!(op_count(10), 10 * OPS_PER_SECOND);
        assert_eq!(op_count(0), OPS_PER_SECOND);
    }

    #[test]
    fn jitters_are_distinct_and_seeded() {
        let a = jitters(0, 50);
        let b = jitters(7, 50);
        assert_eq!(a, jitters(0, 50));
        assert_ne!(a, b);
        let mut sorted = a.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 50);
    }

    #[test]
    fn sweep_summary_parses() {
        let line =
            b"interlag sweep: 4 shard dispatch(es) over 2 waves, 1 retried, 0 abandoned; x\n";
        assert_eq!(dispatch_counts(line), Some((4.0, 1.0)));
        assert_eq!(dispatch_counts(b"nothing"), None);
    }
}
