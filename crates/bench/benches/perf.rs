//! Criterion performance benchmarks of the analysis pipeline itself:
//! the suggester/matcher frame throughput that makes the automated markup
//! 2700× faster than manual annotation, the device simulation rate, and
//! the governor decision costs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use interlag_bench::synthetic_video;
use interlag_core::matcher::Matcher;
use interlag_core::suggester::{Suggester, SuggesterConfig};
use interlag_device::device::{CaptureMode, Device, DeviceConfig};
use interlag_device::dvfs::{FixedGovernor, Governor, LoadSample};
use interlag_device::script::InteractionCategory;
use interlag_evdev::replay::ReplayAgent;
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_governors::{Conservative, Interactive, Ondemand};
use interlag_power::calibrate::{calibrate, CalibrationConfig};
use interlag_power::energy::{ActivitySample, ActivityTrace, EnergyMeter};
use interlag_power::model::PowerModel;
use interlag_power::opp::OppTable;
use interlag_video::frame::FrameBuffer;
use interlag_video::mask::{Mask, MatchTolerance};
use interlag_video::stream::VideoStream;
use interlag_workloads::gen::{WorkloadBuilder, MCYCLES};

fn bench_suggester(c: &mut Criterion) {
    let video = synthetic_video(600, 40);
    let suggester = Suggester::new(SuggesterConfig::default());
    let mut group = c.benchmark_group("suggester");
    group.throughput(Throughput::Elements(600));
    group.bench_function("change_sequence_600_frames", |b| {
        b.iter(|| suggester.change_sequence(&video, 0, 600))
    });
    group.bench_function("suggest_600_frames", |b| {
        b.iter(|| suggester.suggest(&video, SimTime::ZERO, SimTime::from_secs(30)))
    });
    group.finish();
}

/// The pre-optimisation matcher walk: per-frame naive masked count with no
/// digest gate, no compiled mask, no memoisation — the baseline the
/// fast-path numbers in EXPERIMENTS.md are measured against.
fn naive_match_walk(
    video: &VideoStream,
    annotation: &interlag_core::annotation::LagAnnotation,
) -> u32 {
    let mut remaining = annotation.occurrence.max(1);
    let mut in_match = false;
    for frame in video.frames() {
        let matches = annotation.mask.count_diff(
            &annotation.image,
            &frame.buf,
            annotation.tolerance.value_tolerance,
        ) <= annotation.tolerance.pixel_budget;
        if matches && !in_match {
            remaining -= 1;
            if remaining == 0 {
                return frame.index;
            }
        }
        in_match = matches;
    }
    panic!("ending not found");
}

fn bench_matcher(c: &mut Criterion) {
    let video = synthetic_video(600, 40);
    // Annotate the final frame as the ending: the matcher must walk all
    // 600 frames to find it.
    let last = video.frames().last().expect("frames present").buf.as_ref().clone();
    let annotation = interlag_core::annotation::LagAnnotation {
        interaction_id: 0,
        image: last,
        mask: Mask::new(),
        tolerance: MatchTolerance::EXACT,
        occurrence: 1,
        threshold: SimDuration::from_secs(1),
    };
    let mut masked = annotation.clone();
    masked.mask = Mask::status_bar(72, 6);
    masked.mask.apply(&mut masked.image);
    let matcher = Matcher::new();
    let mut group = c.benchmark_group("matcher");
    group.throughput(Throughput::Elements(600));
    group.bench_function("walk_600_frames", |b| {
        b.iter(|| matcher.match_lag(&video, SimTime::ZERO, &annotation).expect("found"))
    });
    group.bench_function("walk_600_frames_masked", |b| {
        b.iter(|| matcher.match_lag(&video, SimTime::ZERO, &masked).expect("found"))
    });
    group.bench_function("walk_600_frames_naive", |b| {
        b.iter(|| naive_match_walk(&video, &annotation))
    });
    group.bench_function("walk_600_frames_masked_naive", |b| {
        b.iter(|| naive_match_walk(&video, &masked))
    });
    group.finish();
}

fn bench_device_sim(c: &mut Criterion) {
    // A 30-second workload; reports simulated-seconds per wall-second.
    let mut builder = WorkloadBuilder::new(7);
    for i in 0..6 {
        builder.quick_tap(&format!("tap {i}"), 300 * MCYCLES, InteractionCategory::SimpleFrequent);
        builder.think_ms(3_000, 4_000);
    }
    let workload = builder.build("perf", "simulation-rate workload");
    let trace = workload.script.record_trace();

    let mut group = c.benchmark_group("device");
    group.sample_size(10);
    group.throughput(Throughput::Elements(workload.run_until().as_millis()));
    for (name, capture) in
        [("sim_30s_no_video", CaptureMode::None), ("sim_30s_hdmi", CaptureMode::Hdmi)]
    {
        let config = DeviceConfig { capture, ..Default::default() };
        let device = Device::new(config);
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut gov = FixedGovernor::new(device.config().opps.max_freq());
                device.run(
                    &workload.script,
                    ReplayAgent::new(trace.clone()),
                    &mut gov,
                    workload.run_until(),
                )
            })
        });
    }
    group.finish();
}

fn bench_governors(c: &mut Criterion) {
    let table = OppTable::snapdragon_8074();
    let window = SimDuration::from_millis(20);
    let load = LoadSample { busy: window / 2, window };
    let mut group = c.benchmark_group("governor_decision");
    group.bench_function("ondemand", |b| {
        let mut g = Ondemand::default();
        g.init(&table);
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += window;
            g.on_sample(t, load, &table)
        })
    });
    group.bench_function("conservative", |b| {
        let mut g = Conservative::default();
        g.init(&table);
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += window;
            g.on_sample(t, load, &table)
        })
    });
    group.bench_function("interactive", |b| {
        let mut g = Interactive::for_table(&table);
        g.init(&table);
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += window;
            g.on_sample(t, load, &table)
        })
    });
    group.finish();
}

fn bench_energy_meter(c: &mut Criterion) {
    let table = OppTable::snapdragon_8074();
    let measured = calibrate(&table, &PowerModel::krait_like(), &CalibrationConfig::default());
    let meter = EnergyMeter::new(measured);
    let mut trace = ActivityTrace::new();
    let freqs: Vec<_> = table.frequencies().collect();
    for i in 0..10_000u64 {
        trace.push(ActivitySample {
            start: SimTime::from_millis(i * 20),
            duration: SimDuration::from_millis(20),
            freq: freqs[(i % 14) as usize],
            busy: SimDuration::from_millis(i % 21),
        });
    }
    let mut group = c.benchmark_group("energy");
    group.throughput(Throughput::Elements(trace.samples().len() as u64));
    group.bench_function("meter_10k_samples", |b| b.iter(|| meter.measure(&trace)));
    group.finish();
}

fn bench_frame_diff(c: &mut Criterion) {
    let mut a = FrameBuffer::new(72, 120);
    a.hash_paint(a.bounds(), 1);
    let mut b2 = a.clone();
    b2.hash_paint(interlag_video::frame::Rect::new(20, 40, 30, 30), 2);
    let mask = Mask::status_bar(72, 6);
    let compiled = mask.compile(72, 120);
    // Warm the digest caches so the digest benches measure the steady
    // state (the matcher compares each frame against many candidates).
    let _ = (a.digest(), b2.digest());
    let mut group = c.benchmark_group("frame_diff");
    group.throughput(Throughput::Elements(72 * 120));
    group.bench_function("unmasked", |b| b.iter(|| a.count_diff(&b2, 0)));
    group.bench_function("unmasked_early_exit", |b| b.iter(|| a.differs_more_than(&b2, 0, 0)));
    group.bench_function("digest_gated_exact", |b| {
        b.iter(|| MatchTolerance::EXACT.matches(&Mask::new(), &a, &b2))
    });
    group.bench_function("masked", |b| b.iter(|| mask.count_diff(&a, &b2, 0)));
    group.bench_function("masked_compiled", |b| b.iter(|| compiled.count_diff(&a, &b2, 0)));
    group.bench_function("masked_compiled_early_exit", |b| {
        b.iter(|| compiled.differs_more_than(&a, &b2, 0, 0))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_suggester,
    bench_matcher,
    bench_device_sim,
    bench_governors,
    bench_energy_meter,
    bench_frame_diff
);
criterion_main!(benches);
