//! `perf_trajectory` — the tracked performance trajectory of the raw-speed
//! frame pipeline, emitted as machine-readable JSON (`BENCH_9.json`).
//!
//! Eight sections, each timing the optimised path against the baseline it
//! replaced:
//!
//! 1. **kernel** — the chunked-u64 diff kernels against the per-pixel
//!    scalar reference, on 1080p-class frames.
//! 2. **matcher** — one batched forward walk marking up every pending lag
//!    against the per-lag walker it replaced.
//! 3. **study** — the full §III sweep wall-clock at 1, 4 and 16 workers.
//! 4. **journal** — checkpoint replay rate through the framed decoder
//!    (mixed JSON and binary eras, like a real resumed file).
//! 5. **checkpoint** — binary vs JSON checkpoint record sizes.
//! 6. **shard_merge** — the sweep supervisor's journal-merge gauntlet
//!    (CRC framing, decode, fingerprint, slot dedup, canonical
//!    re-encode) across shard counts.
//! 7. **db_ingest** — the results database's full ingest gauntlet
//!    (content addressing, manifest validation, fingerprint and slot
//!    checks, staged sketch fold, atomic persist) over a synthetic
//!    fleet of sealed submissions.
//! 8. **tune** — the governor-tuning sweep (reference oracle runs plus a
//!    tunable grid of capture-free replays folded into sketches and a
//!    Pareto frontier) at 1 and 4 workers.
//!
//! Usage: `cargo run --release -p interlag-bench --bin perf_trajectory
//! [-- --quick] [--out FILE]`. `--quick` shrinks sample counts for CI;
//! checked-in trajectory numbers come from the default (full) mode.
//! `INTERLAG_REPS` scales the study section like every other bench.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use interlag_core::checkpoint::{
    decode_checkpoint_any, encode_checkpoint, encode_checkpoint_binary, CheckpointRecord,
};
use interlag_core::experiment::{Lab, LabConfig, RepOutcome, RepResult};
use interlag_core::matcher::{mark_up_with_policy, MatchPolicy, Matcher};
use interlag_core::profile::{LagEntry, LagProfile};
use interlag_device::script::InteractionCategory;
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_journal::{decode_records, encode_record, encode_record_binary};
use interlag_video::frame::FrameBuffer;
use interlag_video::kernel;
use interlag_video::mask::{Mask, MatchTolerance};
use interlag_video::stream::{VideoStream, FRAME_PERIOD_30FPS};
use interlag_workloads::gen::{Workload, WorkloadBuilder, MCYCLES};

/// Median seconds per call over `samples` timed invocations (after one
/// warm-up call). Hand-rolled because criterion is a dev-dependency of
/// the bench targets, not of binaries.
fn time_median<T>(samples: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

struct KernelNumbers {
    pixels: u64,
    scalar_px_per_s: f64,
    kernel_px_per_s: f64,
    speedup: f64,
}

/// The matcher's hot decision — "does this frame differ from the
/// annotation by more than the pixel budget?" — on 1080p-class frames,
/// kernel vs the scalar early-exit reference.
fn kernel_section(samples: usize) -> KernelNumbers {
    let (width, height) = (1920u32, 1080u32);
    let mut a = FrameBuffer::new(width, height);
    let mut b = FrameBuffer::new(width, height);
    a.hash_paint(a.bounds(), 1);
    b.hash_paint(b.bounds(), 2);
    let (pa, pb) = (a.pixels().to_vec(), b.pixels().to_vec());
    let pixels = pa.len() as u64;
    // Nearly every pixel differs and the budget is unbounded, so neither
    // side can exit early: both scan the full frame, like a non-matching
    // frame does in a real walk.
    let (tol, limit) = (MatchTolerance::CAMERA.value_tolerance, u64::MAX - 1);

    let scalar = time_median(samples, || kernel::reference::exceeds(&pa, &pb, tol, limit));
    let fast = time_median(samples, || kernel::exceeds(&pa, &pb, tol, limit));
    KernelNumbers {
        pixels,
        scalar_px_per_s: pixels as f64 / scalar,
        kernel_px_per_s: pixels as f64 / fast,
        speedup: scalar / fast,
    }
}

fn synthetic_video(frames: u32, change_every: u32) -> VideoStream {
    let mut v = VideoStream::new(FRAME_PERIOD_30FPS);
    let mut current = {
        let mut f = FrameBuffer::new(72, 120);
        f.hash_paint(f.bounds(), 1);
        Arc::new(f)
    };
    for i in 0..frames {
        if i % change_every == 0 && i > 0 {
            let mut f = FrameBuffer::new(72, 120);
            f.hash_paint(f.bounds(), 1 + (i / change_every) as u64);
            current = Arc::new(f);
        }
        v.push(SimTime::from_micros(i as u64 * 33_333), current.clone()).unwrap();
    }
    v
}

struct MatcherNumbers {
    lags: usize,
    frames: u32,
    per_lag_ms: f64,
    batched_ms: f64,
    speedup: f64,
}

/// Marks up many pending lags over one video: the batched single walk
/// (shared pointer runs, masks and verdict caches) against the per-lag walker.
///
/// Paper-scale rep: a ten-minute 30 fps capture, a few dozen
/// interactions whose endings are spread across the whole video. The
/// per-lag walker visits every frame from each lag's beginning to its
/// ending; the batched walk visits compressed runs, once.
fn matcher_section(samples: usize) -> MatcherNumbers {
    let frames = 18_000u32; // ten minutes at 30 fps: one paper dataset
    let change_every = 300u32;
    let lags = 40u32;
    let video = synthetic_video(frames, change_every);
    // One annotation per interaction, its ending spread through the video;
    // a fuzzy tolerance defeats the digest-equality shortcut so every
    // verdict runs the diff kernels.
    let mut db = interlag_core::annotation::AnnotationDb::new("trajectory");
    for id in 0..lags as usize {
        let frame_idx = ((id as u32 * frames / lags).min(frames - 1)) as usize;
        db.insert(interlag_core::annotation::LagAnnotation {
            interaction_id: id,
            image: video.frames()[frame_idx].buf.as_ref().clone(),
            mask: Mask::new(),
            tolerance: MatchTolerance::CAMERA,
            occurrence: 1,
            threshold: SimDuration::from_secs(1),
        });
    }
    // Every lag starts at the beginning, so each per-lag walk re-scans the
    // same prefix the batched walk shares.
    let beginnings: Vec<(usize, SimTime)> =
        (0..lags as usize).map(|id| (id, SimTime::ZERO)).collect();
    let policy = MatchPolicy::strict();

    let batched = time_median(samples, || {
        mark_up_with_policy(&video, &beginnings, &db, "trajectory", &policy)
    });
    let matcher = Matcher::new();
    let per_lag = time_median(samples, || {
        let mut found = 0usize;
        for &(id, input_time) in &beginnings {
            let ann = db.get(id).expect("annotated");
            if matcher.match_lag_with_policy(&video, input_time, ann, &policy).is_ok() {
                found += 1;
            }
        }
        found
    });
    MatcherNumbers {
        lags: beginnings.len(),
        frames,
        per_lag_ms: per_lag * 1e3,
        batched_ms: batched * 1e3,
        speedup: per_lag / batched,
    }
}

/// The study-parallel mini workload: large enough that the sweep
/// dominates, small enough to finish promptly at workers = 1.
fn study_workload() -> Workload {
    let mut b = WorkloadBuilder::new(0xfee1);
    b.app_launch("launch", 400 * MCYCLES, 5, InteractionCategory::Common);
    for round in 0..4u32 {
        b.think_ms(2_000, 3_000);
        b.quick_tap("tap a", 150 * MCYCLES, InteractionCategory::SimpleFrequent);
        b.think_ms(2_000, 3_000);
        b.heavy_with_progress(
            "save",
            (900 + 100 * round as u64) * MCYCLES,
            InteractionCategory::Complex,
        );
        b.think_ms(2_000, 3_000);
        b.quick_tap("tap b", 120 * MCYCLES, InteractionCategory::SimpleFrequent);
    }
    b.build("mini", "perf-trajectory study workload")
}

fn study_section(reps: u32) -> Vec<(usize, f64)> {
    let workload = study_workload();
    [1usize, 4, 16]
        .into_iter()
        .map(|workers| {
            let lab = Lab::new(LabConfig { reps, workers, ..Default::default() });
            let started = Instant::now();
            let study = lab.study(&workload).expect("fault-free study");
            black_box(study.all_configs().count());
            (workers, started.elapsed().as_secs_f64())
        })
        .collect()
}

fn sample_checkpoint(rep: u32) -> CheckpointRecord {
    let mut profile = LagProfile::new("ondemand");
    for id in 0..12usize {
        profile.push(LagEntry {
            interaction_id: id,
            input_time: SimTime::from_micros(1_000_000 + id as u64 * 250_000),
            lag: SimDuration::from_micros(120_000 + id as u64 * 7_001),
            threshold: SimDuration::from_millis(1_000),
            confidence: 1.0 / (id + 2) as f64,
        });
    }
    let result = RepResult {
        profile,
        dynamic_energy_mj: 12_345.678,
        irritation: SimDuration::from_micros(987_654),
        match_failures: 1,
        input_faults: 0,
    };
    CheckpointRecord::new(0x5eed_f00d, 3, rep, &result, &RepOutcome::Ok)
}

struct JournalNumbers {
    records: usize,
    records_per_s: f64,
}

/// Replay rate through the framed decoder on a mixed-era journal: half
/// the records JSON-framed, half binary-framed, then every payload run
/// through the format-sniffing checkpoint decoder — exactly the resume
/// path.
fn journal_section(records: usize, samples: usize) -> JournalNumbers {
    let mut bytes = Vec::new();
    for rep in 0..records as u32 {
        let record = sample_checkpoint(rep);
        if rep % 2 == 0 {
            bytes.extend(encode_record(&encode_checkpoint(&record)).expect("framable"));
        } else {
            bytes.extend(encode_record_binary(&encode_checkpoint_binary(&record)));
        }
    }
    let secs = time_median(samples, || {
        let decoded = decode_records(&bytes);
        assert_eq!(decoded.records.len(), records);
        decoded.records.iter().filter_map(|p| decode_checkpoint_any(p)).count()
    });
    JournalNumbers { records, records_per_s: records as f64 / secs }
}

struct ShardMergeNumbers {
    shards: usize,
    records_per_s: f64,
}

/// Merge throughput of the sweep supervisor's gauntlet: `records`
/// checkpoints partitioned round-robin across binary shard journals,
/// decoded, validated, deduplicated and re-encoded canonically — the
/// exact path `interlag sweep` pays after every wave.
fn shard_merge_section(records: usize, samples: usize) -> Vec<ShardMergeNumbers> {
    use interlag_orchestrator::{encode_merged, merge_shard_journals};
    let all: Vec<CheckpointRecord> = (0..records as u32).map(sample_checkpoint).collect();
    [1usize, 4, 8, 16]
        .into_iter()
        .map(|shards| {
            let journals: Vec<Vec<u8>> = (0..shards)
                .map(|s| {
                    let map: std::collections::BTreeMap<(usize, u32), CheckpointRecord> = all
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % shards == s)
                        .map(|(_, r)| ((r.config, r.rep), r.clone()))
                        .collect();
                    encode_merged(&map, interlag_core::checkpoint::CheckpointFormat::Binary)
                })
                .collect();
            let secs = time_median(samples, || {
                let merged = merge_shard_journals(
                    journals.iter().map(Vec::as_slice),
                    0x5eed_f00d,
                    |_, _| true,
                );
                assert_eq!(merged.records.len(), records);
                encode_merged(&merged.records, interlag_core::checkpoint::CheckpointFormat::Binary)
                    .len()
            });
            ShardMergeNumbers { shards, records_per_s: records as f64 / secs }
        })
        .collect()
}

struct DbIngestNumbers {
    submissions: usize,
    records: usize,
    submissions_per_s: f64,
    records_per_s: f64,
}

/// Ingest throughput of the results database: a fleet of sealed
/// submissions (each a manifest frame plus binary checkpoint frames)
/// pushed through the full gauntlet — content addressing, manifest and
/// fingerprint validation, slot dedup, staged sketch fold, atomic
/// persist — into a fresh store per timed pass.
fn db_ingest_section(submissions: usize, samples: usize) -> DbIngestNumbers {
    use interlag_db::{seal_submission, Db, SubmissionManifest, SUBMISSION_SCHEMA};
    let reps_per_submission = 4u32;
    let artifacts: Vec<Vec<u8>> = (0..submissions as u64)
        .map(|device| {
            let fingerprint = 0x5eed_f00d + device;
            let mut records = std::collections::BTreeMap::new();
            for config in 0..2usize {
                for rep in 0..reps_per_submission {
                    let mut record = sample_checkpoint(rep);
                    record.fingerprint = fingerprint;
                    record.config = config;
                    records.insert((config, rep), record);
                }
            }
            let manifest = SubmissionManifest {
                schema: SUBMISSION_SCHEMA.to_string(),
                fingerprint,
                device_model: "sim14".to_string(),
                workload: "trajectory".to_string(),
                reps: reps_per_submission,
                configs: vec!["ondemand".to_string(), "oracle".to_string()],
                records: 0,
                props: vec![format!("device-seed={device}")],
            };
            seal_submission(
                &manifest,
                &records,
                interlag_core::checkpoint::CheckpointFormat::Binary,
            )
        })
        .collect();
    let records = submissions * 2 * reps_per_submission as usize;
    let dir = std::env::temp_dir().join(format!("interlag-trajectory-db-{}", std::process::id()));
    let secs = time_median(samples, || {
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Db::open(&dir, interlag_obs::Recorder::disabled()).expect("open store");
        let mut folded = 0u64;
        for artifact in &artifacts {
            folded += db.ingest_bytes(artifact).expect("valid submission").reps_folded;
        }
        assert_eq!(folded as usize, records);
        folded
    });
    let _ = std::fs::remove_dir_all(&dir);
    DbIngestNumbers {
        submissions,
        records,
        submissions_per_s: submissions as f64 / secs,
        records_per_s: records as f64 / secs,
    }
}

struct TuneNumbers {
    workers: usize,
    wall_s: f64,
    slots_per_s: f64,
}

/// Wall-clock of the governor-tuning sweep: each run pays the oracle
/// reference (every fixed-OPP profile plus one oracle replay) and then
/// one capture-free replay per `(point, repetition)` slot, folded into
/// database sketches and reduced to a Pareto frontier.
fn tune_section(points: usize, reps: u32) -> Vec<TuneNumbers> {
    use interlag_orchestrator::{run_tune, TuneConfig};
    let workload = study_workload();
    let group = format!(
        "governor=ondemand:up-threshold-min=50:up-threshold-max=95:up-threshold-intvs={points}:reps={reps}"
    );
    let slots = points * reps as usize;
    [1usize, 4]
        .into_iter()
        .map(|workers| {
            let config = TuneConfig { group: group.clone(), workers, shards: 1 };
            let started = Instant::now();
            let out = run_tune(&workload, &config).expect("clean tune");
            assert_eq!(out.points.len(), points);
            black_box(out.frontier.len());
            let wall_s = started.elapsed().as_secs_f64();
            TuneNumbers { workers, wall_s, slots_per_s: slots as f64 / wall_s }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_9.json".to_string());

    let (kernel_samples, matcher_samples, journal_records, study_reps, db_submissions) =
        if quick { (5, 3, 200, 1, 20) } else { (25, 9, 2_000, interlag_bench::reps(), 200) };
    let (tune_points, tune_reps) = if quick { (4usize, 1u32) } else { (8, 2) };

    eprintln!("[trajectory] kernel: 1080p diff kernels vs scalar reference");
    let k = kernel_section(kernel_samples);
    eprintln!(
        "[trajectory]   scalar {:.0} Mpx/s, kernel {:.0} Mpx/s, speedup {:.1}x",
        k.scalar_px_per_s / 1e6,
        k.kernel_px_per_s / 1e6,
        k.speedup
    );

    eprintln!("[trajectory] matcher: batched single walk vs per-lag walks");
    let m = matcher_section(matcher_samples);
    eprintln!(
        "[trajectory]   per-lag {:.2} ms, batched {:.2} ms, speedup {:.1}x ({} lags)",
        m.per_lag_ms, m.batched_ms, m.speedup, m.lags
    );

    eprintln!("[trajectory] study: full sweep wall-clock at 1/4/16 workers");
    let study = study_section(study_reps);
    for (workers, wall) in &study {
        eprintln!("[trajectory]   workers={workers}: {wall:.2} s");
    }

    eprintln!("[trajectory] journal: mixed-era checkpoint replay rate");
    let j = journal_section(journal_records, matcher_samples);
    eprintln!("[trajectory]   {:.0} records/s", j.records_per_s);

    let record = sample_checkpoint(0);
    let json_bytes = encode_checkpoint(&record).len();
    let binary_bytes = encode_checkpoint_binary(&record).len();
    eprintln!(
        "[trajectory] checkpoint: {json_bytes} B json vs {binary_bytes} B binary ({:.2}x smaller)",
        json_bytes as f64 / binary_bytes as f64
    );

    eprintln!("[trajectory] shard_merge: supervisor merge gauntlet throughput");
    let merges = shard_merge_section(journal_records, matcher_samples);
    for m in &merges {
        eprintln!("[trajectory]   shards={}: {:.0} records/s", m.shards, m.records_per_s);
    }

    eprintln!("[trajectory] db_ingest: results-database ingest gauntlet throughput");
    let db = db_ingest_section(db_submissions, matcher_samples);
    eprintln!(
        "[trajectory]   {} submissions ({} records): {:.0} submissions/s, {:.0} records/s",
        db.submissions, db.records, db.submissions_per_s, db.records_per_s
    );

    eprintln!("[trajectory] tune: governor-tuning sweep throughput");
    let tune = tune_section(tune_points, tune_reps);
    for t in &tune {
        eprintln!(
            "[trajectory]   workers={}: {:.2} s, {:.1} slots/s",
            t.workers, t.wall_s, t.slots_per_s
        );
    }

    let workers_json: Vec<String> = study
        .iter()
        .map(|(workers, wall)| format!("{{\"workers\": {workers}, \"wall_s\": {wall:.4}}}"))
        .collect();
    let merges_json: Vec<String> = merges
        .iter()
        .map(|m| format!("{{\"shards\": {}, \"records_per_s\": {:.0}}}", m.shards, m.records_per_s))
        .collect();
    let tune_json: Vec<String> = tune
        .iter()
        .map(|t| {
            format!(
                "{{\"workers\": {}, \"wall_s\": {:.4}, \"slots_per_s\": {:.1}}}",
                t.workers, t.wall_s, t.slots_per_s
            )
        })
        .collect();
    let doc = format!(
        "{{\n  \"schema\": \"interlag-bench-trajectory/v4\",\n  \"quick\": {quick},\n  \
         \"kernel\": {{\n    \"pixels_per_frame\": {pixels},\n    \"scalar_px_per_s\": {sps:.0},\n    \
         \"kernel_px_per_s\": {kps:.0},\n    \"speedup\": {kspeed:.3}\n  }},\n  \
         \"matcher\": {{\n    \"lags\": {lags},\n    \"frames\": {frames},\n    \
         \"per_lag_ms\": {plm:.4},\n    \"batched_ms\": {bm:.4},\n    \"speedup\": {mspeed:.3}\n  }},\n  \
         \"study\": {{\n    \"reps\": {reps},\n    \"sweeps\": [{sweeps}]\n  }},\n  \
         \"journal\": {{\n    \"records\": {records},\n    \"replay_records_per_s\": {rps:.0}\n  }},\n  \
         \"checkpoint\": {{\n    \"json_bytes\": {jb},\n    \"binary_bytes\": {bb},\n    \
         \"json_over_binary\": {ratio:.3}\n  }},\n  \
         \"shard_merge\": {{\n    \"records\": {records},\n    \"merges\": [{merges}]\n  }},\n  \
         \"db_ingest\": {{\n    \"submissions\": {dbsubs},\n    \"records\": {dbrecs},\n    \
         \"submissions_per_s\": {dbsps:.0},\n    \"records_per_s\": {dbrps:.0}\n  }},\n  \
         \"tune\": {{\n    \"points\": {tpoints},\n    \"reps\": {treps},\n    \
         \"sweeps\": [{tsweeps}]\n  }}\n}}\n",
        pixels = k.pixels,
        sps = k.scalar_px_per_s,
        kps = k.kernel_px_per_s,
        kspeed = k.speedup,
        lags = m.lags,
        frames = m.frames,
        plm = m.per_lag_ms,
        bm = m.batched_ms,
        mspeed = m.speedup,
        reps = study_reps,
        sweeps = workers_json.join(", "),
        records = j.records,
        rps = j.records_per_s,
        jb = json_bytes,
        bb = binary_bytes,
        ratio = json_bytes as f64 / binary_bytes as f64,
        merges = merges_json.join(", "),
        dbsubs = db.submissions,
        dbrecs = db.records,
        dbsps = db.submissions_per_s,
        dbrps = db.records_per_s,
        tpoints = tune_points,
        treps = tune_reps,
        tsweeps = tune_json.join(", "),
    );
    if let Err(e) = interlag_journal::atomic_write(&out, &doc) {
        eprintln!("perf_trajectory: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("{doc}");
    eprintln!("[trajectory] wrote {out}");
}
