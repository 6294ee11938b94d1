//! Chaos tests for the TCP transport: thread-mode session clients
//! talking to the supervisor through a seeded in-process chaos proxy.
//!
//! The contract is the same headline invariant the pipe transports
//! prove — the merged report is **byte-identical** to a single-process
//! [`Lab::study`] — now under network failure: partitions (connection
//! cuts, optionally tearing the in-flight frame), delays, duplication
//! and reordering. The session layer must absorb all of it: reconnects
//! resume mid-shard from the ack high-water mark, stale epochs are
//! fenced, and no fenced frame ever reaches the merge.

use std::time::Duration;

use interlag_core::experiment::{ConfigSummary, Lab, LabConfig, StudyResult};
use interlag_device::script::InteractionCategory;
use interlag_faults::{AgentSabotage, ChaosProxy, NetFaults, SabotageKind};
use interlag_obs::{Counter, Recorder};
use interlag_orchestrator::{
    run_sweep, ClientPolicy, SweepConfig, SweepOutcome, TcpAgentMode, TcpTransport,
};
use interlag_workloads::gen::{Workload, WorkloadBuilder, MCYCLES};

fn small_workload() -> Workload {
    let mut b = WorkloadBuilder::new(0xc4a05);
    b.app_launch("launch", 300 * MCYCLES, 4, InteractionCategory::Common);
    b.think_ms(1_500, 2_000);
    b.quick_tap("tap", 100 * MCYCLES, InteractionCategory::SimpleFrequent);
    b.build("tcp-chaos", "tcp-transport chaos workload")
}

fn lab_config() -> LabConfig {
    LabConfig { reps: 2, workers: 1, obs: Recorder::enabled(), ..Default::default() }
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("interlag-tcp-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_studies_identical(a: &StudyResult, b: &StudyResult) {
    assert_eq!(a.workload, b.workload);
    assert_eq!(a.annotation, b.annotation);
    assert_eq!(a.db, b.db);
    assert_eq!(a.oracle_detail, b.oracle_detail);
    let (ca, cb): (Vec<&ConfigSummary>, Vec<&ConfigSummary>) =
        (a.all_configs().collect(), b.all_configs().collect());
    assert_eq!(ca.len(), cb.len());
    for (s, p) in ca.iter().zip(&cb) {
        assert_eq!(s.name, p.name);
        assert_eq!(s.freq, p.freq);
        assert_eq!(s.outcomes, p.outcomes, "{}", s.name);
        assert_eq!(s.reps.len(), p.reps.len(), "{}", s.name);
        for (sr, pr) in s.reps.iter().zip(&p.reps) {
            assert_eq!(sr.profile, pr.profile, "{}", s.name);
            assert_eq!(sr.dynamic_energy_mj.to_bits(), pr.dynamic_energy_mj.to_bits());
            assert_eq!(sr.irritation, pr.irritation, "{}", s.name);
            assert_eq!(sr.match_failures, pr.match_failures, "{}", s.name);
            assert_eq!(sr.input_faults, pr.input_faults, "{}", s.name);
        }
    }
}

fn counter_value(report: &str, name: &str) -> u64 {
    let needle = format!("| {name} | ");
    report
        .lines()
        .find_map(|l| l.strip_prefix(&needle))
        .and_then(|rest| rest.trim_end_matches(" |").trim().parse().ok())
        .unwrap_or(0)
}

/// Runs one TCP sweep: thread-mode session clients dialling the
/// supervisor through an optional chaos proxy. Returns the outcome with
/// [`Counter::NetFaultsInjected`] fed from the proxy's own tally (the
/// faults crate is observability-free by design, so the harness closes
/// that loop the way the CLI does).
fn tcp_sweep(
    lab: &LabConfig,
    shards: u32,
    tag: &str,
    faults: NetFaults,
    seed: u64,
    client: ClientPolicy,
    tune: impl FnOnce(&mut SweepConfig),
) -> SweepOutcome {
    tcp_sweep_lingering(lab, shards, tag, faults, seed, client, tune, Vec::new(), false)
}

/// Like [`tcp_sweep`], with scheduled agent sabotage, optionally keeping
/// the supervisor's listener (and the proxy) alive after the sweep until
/// a zombie's stale Register has been fenced — the zombie's reconnect
/// backoff deliberately outlives the sweep itself.
#[allow(clippy::too_many_arguments)]
fn tcp_sweep_lingering(
    lab: &LabConfig,
    shards: u32,
    tag: &str,
    faults: NetFaults,
    seed: u64,
    client: ClientPolicy,
    tune: impl FnOnce(&mut SweepConfig),
    sabotage: Vec<AgentSabotage>,
    await_fence: bool,
) -> SweepOutcome {
    let mut cfg = SweepConfig {
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(100),
        heartbeat_timeout: Duration::from_secs(5),
        progress_timeout: Duration::from_secs(30),
        ..SweepConfig::new(shards, fresh_dir(tag))
    };
    tune(&mut cfg);
    let mode = TcpAgentMode::Thread {
        workload: Box::new(small_workload()),
        lab: Box::new(lab.clone()),
        sabotage,
    };
    let mut t = TcpTransport::bind("127.0.0.1:0", mode, Duration::from_millis(25), lab.obs.clone())
        .expect("bind transport");
    t.client = client;
    let proxy = if faults.is_quiescent() {
        None
    } else {
        let p = ChaosProxy::spawn(t.addr(), faults, seed).expect("spawn proxy");
        t.connect_addr = p.addr().to_string();
        Some(p)
    };
    let out = run_sweep(&small_workload(), lab.clone(), &mut t, &cfg).expect("sweep completes");
    if await_fence {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while counter_value(&lab.obs.text_report(), "fenced_epoch_records") == 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    if let Some(p) = &proxy {
        lab.obs.count(Counter::NetFaultsInjected, p.injected().total());
    }
    out
}

fn fast_client() -> ClientPolicy {
    ClientPolicy {
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(50),
        backoff_seed: 0x7c9,
        retry_budget: 16,
        drain_timeout: Duration::from_secs(10),
    }
}

#[test]
fn clean_tcp_sweep_is_byte_identical_to_single_process() {
    let lab = lab_config();
    let baseline = Lab::new(lab.clone()).study(&small_workload()).expect("baseline study");
    for shards in [2u32, 4] {
        let out = tcp_sweep(
            &lab,
            shards,
            &format!("clean-{shards}"),
            NetFaults::none(),
            0,
            fast_client(),
            |_| {},
        );
        assert!(!out.degraded, "{shards} shards degraded a clean sweep");
        assert_eq!(out.quarantined, 0, "{shards} shards");
        assert_studies_identical(&out.study, &baseline);
    }
    // A clean run admits nothing to fence: zero fenced-epoch records.
    let report = lab.obs.text_report();
    assert_eq!(counter_value(&report, "fenced_epoch_records"), 0, "{report}");
}

#[test]
fn partitions_resume_mid_shard_without_redispatch() {
    let lab = lab_config();
    let baseline = Lab::new(lab.clone()).study(&small_workload()).expect("baseline study");
    for (shards, seed) in [(2u32, 0xa11ce), (4u32, 0xb0b)] {
        // Cut every connection after 10 agent frames, three cuts per
        // sweep, tearing the in-flight frame each time. The client
        // reconnects long before the 5 s heartbeat watchdog, so every
        // shard must finish on its *first* dispatch attempt: the session
        // resumed mid-shard, it was not re-run.
        let faults = NetFaults { truncate_on_cut: true, ..NetFaults::partition(10, 3) };
        let out =
            tcp_sweep(&lab, shards, &format!("part-{shards}"), faults, seed, fast_client(), |_| {});
        assert!(!out.degraded, "{shards} shards");
        assert_studies_identical(&out.study, &baseline);
        // `attempts <= 1`: a shard that owns no slots is never
        // dispatched (0), and every dispatched shard finished on its
        // first attempt — the session resumed mid-shard, it was not
        // watchdogged and re-run.
        assert!(
            out.shards.iter().all(|s| s.attempts <= 1 && s.failures.is_empty()),
            "a resumed session must not look like a failure: {:?}",
            out.shards
        );
    }
    let report = lab.obs.text_report();
    assert!(counter_value(&report, "agent_reconnects") >= 2, "{report}");
    assert!(counter_value(&report, "net_faults_injected") >= 2, "{report}");
    assert_eq!(counter_value(&report, "fenced_epoch_records"), 0, "{report}");
}

#[test]
fn reorder_duplicate_and_delay_chaos_merge_byte_identically() {
    let lab = lab_config();
    let baseline = Lab::new(lab.clone()).study(&small_workload()).expect("baseline study");
    for (name, seed) in [("reorder", 0x5eed1), ("duplicate", 0x5eed2), ("delay", 0x5eed3)] {
        let faults = NetFaults::profile(name).expect("known profile");
        let out = tcp_sweep(&lab, 4, &format!("prof-{name}"), faults, seed, fast_client(), |_| {});
        assert!(!out.degraded, "{name}");
        assert_eq!(out.quarantined, 0, "{name}: no frame is damaged mid-stream");
        assert_studies_identical(&out.study, &baseline);
    }
    let report = lab.obs.text_report();
    assert!(counter_value(&report, "net_faults_injected") > 0, "{report}");
}

#[test]
fn zombie_agent_is_fenced_after_partition_and_redispatch() {
    let lab = lab_config();
    let baseline = Lab::new(lab.clone()).study(&small_workload()).expect("baseline study");
    // The client's reconnect delay (>= 1.5 s) dwarfs the heartbeat
    // watchdog (250 ms): after the proxy cuts the link, the supervisor
    // declares the agent dead and re-dispatches under a fresh epoch
    // while the old one is still alive and will come back — the zombie.
    // Its Register under the superseded epoch must be fenced, and the
    // merged report must not care.
    let zombie_client = ClientPolicy {
        backoff_base: Duration::from_millis(1_500),
        backoff_cap: Duration::from_secs(3),
        backoff_seed: 0xdead,
        retry_budget: 16,
        drain_timeout: Duration::from_secs(8),
    };
    // Each first connection is cut two frames in, and the watchdog is as
    // tight as the CLI allows (4x the 25 ms heartbeat). Shard 0's first
    // agent wedges after its second checkpoint (a stage-1 shard owns many
    // slots; an oracle shard owns one, so only stage 1 reaches it) until
    // the watchdog kills it: it is *mid-shard* at the kill however fast
    // it simulates, so its journal cannot cover the shard at salvage,
    // forcing a real re-dispatch — and a real superseded epoch for the
    // zombie to trip over.
    let wedge = AgentSabotage { shard: 0, attempt: 0, kind: SabotageKind::WedgeAtCheckpoint(2) };
    let out = tcp_sweep_lingering(
        &lab,
        2,
        "zombie",
        NetFaults::partition(2, 2),
        0xfe4ce,
        zombie_client,
        |cfg| {
            cfg.heartbeat_timeout = Duration::from_millis(100);
            cfg.retry_budget = 4;
        },
        vec![wedge],
        true,
    );
    assert!(!out.degraded, "{:?}", out.shards);
    assert_studies_identical(&out.study, &baseline);
    let report = lab.obs.text_report();
    assert!(counter_value(&report, "lease_expiries") >= 1, "{report}");
    assert!(counter_value(&report, "fenced_epoch_records") >= 1, "{report}");
    assert!(counter_value(&report, "net_faults_injected") >= 1, "{report}");
}
