//! Multi-machine sweeps: the TCP transport and its resumable client.
//!
//! [`TcpTransport`] is a third [`Transport`]
//! next to the process and thread ones: agents connect to the supervisor
//! over TCP and speak the same CRC-framed wire protocol, wrapped in the
//! [`session`](crate::session) envelope. What the envelope buys over a
//! pipe:
//!
//! * **epoch-fenced leases** — every dispatch attempt holds a lease
//!   identified by a transport-unique epoch. A shard's *current* epoch
//!   advances at every (re-)dispatch, and frames from any older epoch
//!   are fenced: counted ([`Counter::FencedEpochRecords`]), answered
//!   with [`SessionMsg::Revoke`], never forwarded to the merge. A zombie
//!   agent on the far side of a healed partition cannot poison the sweep
//!   after its shard was re-dispatched — its journal, if locally
//!   readable, is still salvaged through the fingerprint-checked disk
//!   path, but its wire has no authority left.
//! * **session resume** — a dropped connection is not a dead agent. The
//!   client reconnects with deterministic decorrelated-jitter backoff
//!   (the supervisor's own [`retry_backoff`]), re-registers under its
//!   epoch, learns the supervisor's cumulative ack high-water mark, and
//!   retransmits exactly the unacknowledged suffix from its
//!   [`SeqOutbox`]. The supervisor side counts every re-registration
//!   ([`Counter::AgentReconnects`]).
//! * **graceful degradation** — when the client's reconnect budget is
//!   exhausted the link is declared dead and the agent is killed (thread
//!   mode) or exits [`EXIT_LINK_DEAD`] (process mode), which lands in
//!   the supervisor's ordinary watchdog → retry → abandon machinery: a
//!   sweep that cannot keep a network alive degrades to the same
//!   exit-code-5 path as any other shard loss, it never hangs.
//!
//! Three ways to run the far side: [`TcpAgentMode::Spawn`] forks
//! `interlag agent --connect` children (real processes over real
//! sockets), [`TcpAgentMode::Thread`] runs clients in-process for
//! deterministic chaos tests, and [`TcpAgentMode::External`] dispatches
//! to self-registering `interlag agent --worker` processes on other
//! hosts, shipping each task's seeded journal prefix in the
//! [`SessionMsg::Assign`] frame.
//!
//! [`Counter::FencedEpochRecords`]: interlag_obs::Counter::FencedEpochRecords
//! [`Counter::AgentReconnects`]: interlag_obs::Counter::AgentReconnects
//! [`SeqOutbox`]: interlag_journal::SeqOutbox
//! [`retry_backoff`]: crate::supervisor::retry_backoff

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use interlag_core::experiment::{LabConfig, SweepStage};
use interlag_faults::AgentSabotage;
use interlag_journal::SeqOutbox;
use interlag_obs::{Counter, Recorder};
use interlag_workloads::gen::Workload;

use crate::agent::{run_agent, stage_name, AgentConfig, AgentReport, KillSwitch};
use crate::session::{SeqAssembler, SessionMsg};
use crate::supervisor::retry_backoff;
use crate::transport::{
    agent_side, scheduled, AgentEvent, AttemptKey, RunningShard, ShardTask, Transport,
};
use crate::wire::{encode_frame, FrameReader, WireMsg};

/// Process exit code of an agent whose lease was revoked: its epoch was
/// fenced (the shard re-dispatched) and nothing it could send would be
/// accepted.
pub const EXIT_FENCED: u8 = 7;
/// Process exit code of an agent that exhausted its reconnect budget:
/// the supervisor is unreachable and local work would be orphaned.
pub const EXIT_LINK_DEAD: u8 = 8;

/// How long one TCP connect attempt may block before it counts as a
/// failure (loopback and LAN connects resolve far faster; a partitioned
/// route must not wedge the reconnect loop).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Client-side reconnect policy: deterministic decorrelated-jitter
/// backoff between attempts, a retry budget, and how long a finished
/// agent waits for its last frames to be acknowledged before giving the
/// disk journal the last word.
#[derive(Debug, Clone)]
pub struct ClientPolicy {
    /// First reconnect delay (and jitter floor).
    pub backoff_base: Duration,
    /// Reconnect delay ceiling.
    pub backoff_cap: Duration,
    /// Seed for the per-shard backoff streams (see [`retry_backoff`]).
    pub backoff_seed: u64,
    /// Consecutive connection failures tolerated before the link is
    /// declared dead and the agent degrades to the local retry path.
    pub retry_budget: u32,
    /// How long a *finished* agent lingers to drain unacknowledged
    /// frames. Past this, undelivered frames are abandoned to the wire —
    /// the shard journal on disk remains the durable record.
    pub drain_timeout: Duration,
}

impl Default for ClientPolicy {
    fn default() -> Self {
        ClientPolicy {
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            backoff_seed: 0,
            retry_budget: 8,
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// Everything the reconnect loop needs to (re-)introduce itself.
#[derive(Debug, Clone)]
pub struct TcpClientOpts {
    /// Supervisor (or chaos proxy) address to dial, `host:port`.
    pub addr: String,
    /// The lease epoch this agent was dispatched under.
    pub epoch: u64,
    /// The dispatch attempt (0 = first), echoed in `Register`.
    pub attempt: u32,
    /// Reconnect policy.
    pub policy: ClientPolicy,
}

/// Shared state between the agent's writer and its reconnect thread.
struct Link {
    state: Mutex<LinkState>,
    cv: Condvar,
}

struct LinkState {
    outbox: SeqOutbox,
    /// The live, registered connection writes go to; `None` while
    /// disconnected (frames queue in the outbox and replay on resume).
    stream: Option<TcpStream>,
    /// The agent has finished; the connection thread may exit once the
    /// outbox drains.
    finished: bool,
    /// The lease was revoked — stop reconnecting, the epoch is fenced.
    revoked: bool,
    /// The reconnect budget is spent — stop reconnecting, degrade.
    dead: bool,
}

impl Link {
    fn new() -> Self {
        Link {
            state: Mutex::new(LinkState {
                outbox: SeqOutbox::new(),
                stream: None,
                finished: false,
                revoked: false,
                dead: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LinkState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The `Write` end handed to [`run_agent`]: each write is one complete
/// framed [`WireMsg`] line (that is how the agent writes), which gets a
/// sequence number, joins the retransmit buffer, and rides the live
/// connection if there is one. Writes while partitioned just queue —
/// exactly like the pipe transports, a gone supervisor never kills a
/// healthy agent mid-shard.
struct SessionWriter {
    link: Arc<Link>,
    epoch: u64,
}

impl Write for SessionWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // Re-parse the framed line so the sequence number can live
        // inside the envelope payload (and survive re-framing).
        let decoded = interlag_journal::decode_records(buf);
        let msg = decoded
            .records
            .first()
            .and_then(|p| std::str::from_utf8(p).ok())
            .and_then(|t| serde_json::from_str::<WireMsg>(t).ok());
        if let Some(msg) = msg {
            let mut st = self.link.lock();
            let seq = st.outbox.last_seq() + 1;
            let frame = encode_frame(&SessionMsg::Data { epoch: self.epoch, seq, msg });
            st.outbox.push(frame.clone());
            if let Some(stream) = st.stream.as_mut() {
                if stream.write_all(&frame).and_then(|_| stream.flush()).is_err() {
                    // The reconnect thread will notice its read fail and
                    // take over; queued frames replay after Register.
                    st.stream = None;
                }
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn send_frame(mut stream: &TcpStream, msg: &SessionMsg) -> bool {
    stream.write_all(&encode_frame(msg)).and_then(|_| stream.flush()).is_ok()
}

/// The client's reconnect loop: dial, `Register`, learn the ack
/// high-water mark, retransmit the unacknowledged suffix, then pump acks
/// until the connection dies — and start over, with seeded decorrelated
/// backoff, until the outbox is drained, the lease is revoked, or the
/// budget is spent.
#[allow(clippy::too_many_lines)]
fn connection_loop(
    link: &Arc<Link>,
    opts: &TcpClientOpts,
    stage: String,
    shard: u32,
    of: u32,
    kill: Option<Arc<KillSwitch>>,
    exit_on_fence: bool,
) {
    let mut failures: u32 = 0;
    loop {
        {
            let st = link.lock();
            if st.revoked || st.dead || (st.finished && st.outbox.is_drained()) {
                return;
            }
        }
        if failures > opts.policy.retry_budget {
            // Budget spent: declare the link dead and degrade to the
            // supervisor's local watchdog/retry path.
            {
                let mut st = link.lock();
                st.dead = true;
                st.stream = None;
            }
            link.cv.notify_all();
            match &kill {
                Some(k) => k.kill(),
                None if exit_on_fence => std::process::exit(EXIT_LINK_DEAD.into()),
                None => {}
            }
            return;
        }
        if failures > 0 {
            std::thread::sleep(retry_backoff(
                opts.policy.backoff_base,
                opts.policy.backoff_cap,
                opts.policy.backoff_seed ^ opts.epoch,
                shard,
                failures,
            ));
        }
        let addr = opts.addr.to_socket_addrs().ok().and_then(|mut a| a.next());
        let stream = addr.and_then(|a| TcpStream::connect_timeout(&a, CONNECT_TIMEOUT).ok());
        let stream = match stream {
            Some(s) => s,
            None => {
                failures += 1;
                continue;
            }
        };
        let sent = link.lock().outbox.last_seq();
        let register = SessionMsg::Register {
            stage: stage.clone(),
            shard,
            of,
            attempt: opts.attempt,
            epoch: opts.epoch,
            sent,
        };
        if !send_frame(&stream, &register) {
            failures += 1;
            continue;
        }
        let mut reader = match stream.try_clone() {
            Ok(r) => r,
            Err(_) => {
                failures += 1;
                continue;
            }
        };
        let mut fr: FrameReader<SessionMsg> = FrameReader::new();
        let mut buf = [0u8; 8192];
        let mut registered = false;
        'conn: loop {
            let n = match reader.read(&mut buf) {
                Ok(0) | Err(_) => break 'conn,
                Ok(n) => n,
            };
            for msg in fr.push(&buf[..n]) {
                match msg {
                    SessionMsg::Ack { epoch, seq } if epoch == opts.epoch => {
                        let mut st = link.lock();
                        st.outbox.ack(seq);
                        if !registered {
                            registered = true;
                            failures = 0;
                            // Resume: replay the unacknowledged suffix in
                            // order, then hand the live stream to the
                            // writer. Held under the lock so concurrent
                            // fresh writes cannot interleave mid-replay.
                            let backlog: Vec<Vec<u8>> =
                                st.outbox.unacked().map(|(_, f)| f.to_vec()).collect();
                            let mut w = match stream.try_clone() {
                                Ok(w) => w,
                                Err(_) => break 'conn,
                            };
                            let mut ok = true;
                            for f in &backlog {
                                if w.write_all(f).is_err() {
                                    ok = false;
                                    break;
                                }
                            }
                            if ok && w.flush().is_ok() {
                                st.stream = Some(w);
                            } else {
                                drop(st);
                                break 'conn;
                            }
                        }
                        let drained = st.finished && st.outbox.is_drained();
                        drop(st);
                        link.cv.notify_all();
                        if drained {
                            return;
                        }
                    }
                    SessionMsg::Revoke { .. } => {
                        // Fenced: the shard was re-dispatched. Anything
                        // further we could send would be rejected, so the
                        // agent must die rather than burn a core as a
                        // zombie.
                        {
                            let mut st = link.lock();
                            st.revoked = true;
                            st.stream = None;
                        }
                        link.cv.notify_all();
                        match &kill {
                            Some(k) => k.kill(),
                            None if exit_on_fence => std::process::exit(EXIT_FENCED.into()),
                            None => {}
                        }
                        return;
                    }
                    _ => {}
                }
            }
        }
        {
            let mut st = link.lock();
            st.stream = None;
        }
        failures += 1;
    }
}

/// Runs one shard as a TCP session client: [`run_agent`] does the work,
/// the session layer carries it. Returns the agent's own report; wire
/// delivery is best-effort beyond the drain timeout (the shard journal
/// on disk stays authoritative).
///
/// # Errors
///
/// Whatever [`run_agent`] returns; link failures never surface here.
///
/// # Panics
///
/// Re-raises the agent's own death panic (thread-mode kills and
/// sabotage), after marking the session finished so the reconnect thread
/// can wind down — or keep trying to drain already-journalled
/// checkpoints, which is exactly the zombie the supervisor's fence
/// exists to stop.
pub fn run_tcp_agent(
    opts: TcpClientOpts,
    cfg: AgentConfig,
) -> Result<AgentReport, Box<dyn std::error::Error + Send + Sync>> {
    let link = Arc::new(Link::new());
    let kill = cfg.kill.clone();
    let exit_on_fence = cfg.abort_on_crash;
    let stage = stage_name(cfg.scope.stage).to_string();
    let (shard, of) = (cfg.scope.shard, cfg.scope.of);
    let epoch = opts.epoch;
    let drain = opts.policy.drain_timeout;
    let conn = {
        let link = Arc::clone(&link);
        std::thread::spawn(move || {
            connection_loop(&link, &opts, stage, shard, of, kill, exit_on_fence);
        })
    };

    let writer = SessionWriter { link: Arc::clone(&link), epoch };
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_agent(cfg, Box::new(writer))));

    {
        let mut st = link.lock();
        st.finished = true;
    }
    link.cv.notify_all();
    if matches!(outcome, Ok(Ok(_))) {
        // Clean finish: give the link a bounded chance to deliver the
        // tail (the final checkpoints and Done) before closing up.
        let deadline = std::time::Instant::now() + drain;
        let mut st = link.lock();
        while !(st.outbox.is_drained() || st.revoked || st.dead) {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                break;
            }
            let (guard, _) = link.cv.wait_timeout(st, left).unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
        // Wake a connection thread parked in read(): it re-checks the
        // drained/finished flags and exits. Join only when it is
        // guaranteed to — on a drain timeout the thread keeps working
        // the backlog in the background until the lease is revoked, the
        // budget dies, or the last ack lands.
        let settled = st.outbox.is_drained() || st.revoked || st.dead;
        if settled {
            if let Some(s) = &st.stream {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        drop(st);
        if settled {
            let _ = conn.join();
        }
    }
    match outcome {
        Ok(result) => result,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// How [`TcpTransport`] obtains a far side for each dispatch.
#[derive(Debug, Clone)]
pub enum TcpAgentMode {
    /// Fork `interlag agent --connect` child processes: real sockets,
    /// real `abort()`s, real `SIGKILL`s. The loopback-complete way to
    /// run a production-shaped TCP sweep on one host.
    Spawn {
        /// The `interlag` binary.
        exe: PathBuf,
        /// Dataset the agents sweep (must fingerprint-match the
        /// supervisor's workload).
        dataset: String,
        /// Repetitions per configuration (ditto).
        reps: u32,
        /// Extra arguments (matrix bindings) for every agent.
        extra_args: Vec<String>,
    },
    /// Run session clients on in-process threads: deterministic chaos
    /// tests with a [`KillSwitch`] instead of signals.
    Thread {
        /// The workload to sweep.
        workload: Box<Workload>,
        /// The lab configuration (forced to one worker per agent).
        lab: Box<LabConfig>,
        /// Scheduled agent-side failures, as for
        /// [`ThreadTransport`](crate::transport::ThreadTransport). The
        /// supervisor-side [`SabotageKind::KillAfterRecords`] is not
        /// honoured here.
        ///
        /// [`SabotageKind::KillAfterRecords`]: interlag_faults::SabotageKind::KillAfterRecords
        sabotage: Vec<AgentSabotage>,
    },
    /// Dispatch to external `interlag agent --worker` processes that
    /// connect in and announce [`SessionMsg::Available`]. The only mode
    /// that crosses machine boundaries: each task ships its seeded
    /// journal prefix in the [`SessionMsg::Assign`].
    External {
        /// Repetitions per configuration, forwarded in every `Assign`.
        reps: u32,
    },
}

/// One outstanding lease on the supervisor side.
struct Lease {
    key: AttemptKey,
    events: Sender<(AttemptKey, AgentEvent)>,
    assembler: SeqAssembler,
    /// The connection currently serving this lease (id, write half).
    conn: Option<(u64, TcpStream)>,
    registered_once: bool,
    /// The client has been told to stop (kill or supersession). Guards
    /// duplicate Revoke frames and duplicate external exits — *fencing*
    /// is decided by epoch currency, not by this flag.
    revoked: bool,
    /// A `Done` made it through the assembler.
    done: bool,
    /// External mode: the synthetic `Exited` for this lease went out.
    exited_sent: bool,
    external: bool,
}

struct TcpState {
    next_epoch: u64,
    /// The current (fencing) epoch per shard slot.
    current: HashMap<(SweepStage, u32), u64>,
    leases: HashMap<u64, Lease>,
    /// External tasks waiting for a worker: (epoch, encoded Assign).
    pending: VecDeque<(u64, Vec<u8>)>,
    /// Parked idle worker connections: (conn id, write half).
    idle: Vec<(u64, TcpStream)>,
}

struct Shared {
    obs: Recorder,
    shutdown: AtomicBool,
    state: Mutex<TcpState>,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, TcpState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Looks up a lease *if its epoch is still current* — the fence. Stale
/// epochs (superseded by a re-dispatch) return `None` no matter what
/// state the lease is in; a revoked-but-current lease (a killed
/// straggler) still passes, mirroring how a killed child's in-flight
/// pipe bytes are still parsed.
fn fenced_lookup(st: &mut TcpState, epoch: u64) -> Option<&mut Lease> {
    let lease = st.leases.get(&epoch)?;
    if st.current.get(&(lease.key.stage, lease.key.shard)) != Some(&epoch) {
        return None;
    }
    st.leases.get_mut(&epoch)
}

/// Marks a lease revoked: tells its client to stop and, for external
/// leases, synthesises the `Exited` event the supervisor is owed (no
/// local process exists to produce one). Idempotent.
fn revoke_lease(st: &mut TcpState, epoch: u64) {
    st.pending.retain(|(e, _)| *e != epoch);
    if let Some(lease) = st.leases.get_mut(&epoch) {
        if lease.revoked {
            return;
        }
        lease.revoked = true;
        if let Some((_, conn)) = &lease.conn {
            send_frame(conn, &SessionMsg::Revoke { epoch });
        }
        lease.conn = None;
        if lease.external && !lease.exited_sent {
            lease.exited_sent = true;
            let _ = lease.events.send((lease.key, AgentEvent::Exited { clean: lease.done }));
        }
    }
}

/// The supervisor's TCP front door. Binds a listener at construction;
/// every [`Transport::dispatch`] issues a fresh lease epoch (fencing any
/// live predecessor for the same shard slot) and launches or enqueues
/// the attempt per [`TcpAgentMode`].
pub struct TcpTransport {
    shared: Arc<Shared>,
    mode: TcpAgentMode,
    listen_addr: SocketAddr,
    /// Where agents dial in — the listener itself, or a chaos proxy
    /// fronting it.
    pub connect_addr: String,
    /// Heartbeat period agents run under.
    pub heartbeat: Duration,
    /// Reconnect policy for spawned/thread clients.
    pub client: ClientPolicy,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("listen_addr", &self.listen_addr)
            .field("connect_addr", &self.connect_addr)
            .finish_non_exhaustive()
    }
}

impl TcpTransport {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting agent connections.
    ///
    /// # Errors
    ///
    /// Any I/O error binding the listener.
    pub fn bind(
        addr: &str,
        mode: TcpAgentMode,
        heartbeat: Duration,
        obs: Recorder,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let listen_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            obs,
            shutdown: AtomicBool::new(false),
            state: Mutex::new(TcpState {
                next_epoch: 1,
                current: HashMap::new(),
                leases: HashMap::new(),
                pending: VecDeque::new(),
                idle: Vec::new(),
            }),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut conn_id = 0u64;
                for conn in listener.incoming() {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        conn_id += 1;
                        let shared = Arc::clone(&shared);
                        std::thread::spawn(move || handle_conn(&shared, stream, conn_id));
                    }
                }
            })
        };
        Ok(TcpTransport {
            shared,
            mode,
            listen_addr,
            connect_addr: listen_addr.to_string(),
            heartbeat,
            client: ClientPolicy::default(),
            accept: Some(accept),
        })
    }

    /// The bound listener address (the real one, even behind a proxy).
    pub fn addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// Stops accepting connections, drains idle workers, and revokes
    /// every outstanding lease. Called on drop.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut st = self.shared.lock();
            let epochs: Vec<u64> = st.leases.keys().copied().collect();
            for e in epochs {
                revoke_lease(&mut st, e);
            }
            for (_, conn) in st.idle.drain(..) {
                send_frame(&conn, &SessionMsg::Drain);
                let _ = conn.shutdown(std::net::Shutdown::Both);
            }
        }
        // Unblock the accept loop so its thread can observe the flag.
        let _ = TcpStream::connect_timeout(&self.listen_addr, Duration::from_millis(200));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One accepted connection: parse session frames, fence by epoch,
/// assemble in order, forward to the supervisor, acknowledge.
fn handle_conn(shared: &Arc<Shared>, stream: TcpStream, conn_id: u64) {
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut fr: FrameReader<SessionMsg> = FrameReader::new();
    let mut buf = [0u8; 8192];
    // The epoch this connection last spoke for — the attribution target
    // for garbage frames (a proxy-torn line has no readable epoch).
    let mut bound: Option<u64> = None;
    let mut garbage_sent = 0u64;
    'conn: loop {
        let n = match reader.read(&mut buf) {
            Ok(0) | Err(_) => break 'conn,
            Ok(n) => n,
        };
        for msg in fr.push(&buf[..n]) {
            match msg {
                SessionMsg::Register { epoch, .. } => {
                    let mut st = shared.lock();
                    match fenced_lookup(&mut st, epoch) {
                        Some(lease) => {
                            if lease.registered_once {
                                shared.obs.count(Counter::AgentReconnects, 1);
                            }
                            lease.registered_once = true;
                            if let Ok(c) = stream.try_clone() {
                                lease.conn = Some((conn_id, c));
                            }
                            bound = Some(epoch);
                            let ack = SessionMsg::Ack { epoch, seq: lease.assembler.delivered() };
                            drop(st);
                            send_frame(&stream, &ack);
                        }
                        None => {
                            drop(st);
                            shared.obs.count(Counter::FencedEpochRecords, 1);
                            send_frame(&stream, &SessionMsg::Revoke { epoch });
                            break 'conn;
                        }
                    }
                }
                SessionMsg::Data { epoch, seq, msg } => {
                    let mut st = shared.lock();
                    match fenced_lookup(&mut st, epoch) {
                        Some(lease) => {
                            bound = Some(epoch);
                            for m in lease.assembler.offer(seq, msg) {
                                if matches!(m, WireMsg::Done { .. }) {
                                    lease.done = true;
                                }
                                let _ = lease.events.send((lease.key, AgentEvent::Msg(m)));
                            }
                            let ack = SessionMsg::Ack { epoch, seq: lease.assembler.delivered() };
                            if lease.external && lease.done && !lease.exited_sent {
                                lease.exited_sent = true;
                                let _ = lease
                                    .events
                                    .send((lease.key, AgentEvent::Exited { clean: true }));
                            }
                            drop(st);
                            send_frame(&stream, &ack);
                        }
                        None => {
                            drop(st);
                            shared.obs.count(Counter::FencedEpochRecords, 1);
                            send_frame(&stream, &SessionMsg::Revoke { epoch });
                            break 'conn;
                        }
                    }
                }
                SessionMsg::Available => {
                    let mut st = shared.lock();
                    if let Some((_, frame)) = st.pending.pop_front() {
                        drop(st);
                        let _ = (&stream).write_all(&frame);
                        let _ = (&stream).flush();
                    } else if let Ok(c) = stream.try_clone() {
                        st.idle.push((conn_id, c));
                    }
                }
                // Supervisor-bound frames only; anything else on this
                // side is a protocol confusion, ignored.
                _ => {}
            }
        }
        let g = fr.garbage();
        if g > garbage_sent {
            let delta = g - garbage_sent;
            garbage_sent = g;
            let mut st = shared.lock();
            if let Some(lease) = bound.and_then(|e| fenced_lookup(&mut st, e)) {
                for _ in 0..delta {
                    let _ = lease.events.send((lease.key, AgentEvent::Garbage));
                }
            }
        }
    }
    // Connection gone: release the lease binding (if still ours) and any
    // idle parking. A torn trailing line dies unreported, matching pipe
    // EOF semantics.
    let mut st = shared.lock();
    if let Some(lease) = bound.and_then(|e| st.leases.get_mut(&e)) {
        if matches!(lease.conn, Some((id, _)) if id == conn_id) {
            lease.conn = None;
        }
    }
    st.idle.retain(|(id, _)| *id != conn_id);
}

impl Transport for TcpTransport {
    fn dispatch(
        &mut self,
        task: &ShardTask,
        events: Sender<(AttemptKey, AgentEvent)>,
    ) -> std::io::Result<RunningShard> {
        let key = task.key();
        let external = matches!(self.mode, TcpAgentMode::External { .. });
        let epoch = {
            let mut st = self.shared.lock();
            let epoch = st.next_epoch;
            st.next_epoch += 1;
            // Advance the fence first: from this instant the old lease's
            // frames are rejected, *then* its client is told to stop.
            if let Some(old) = st.current.insert((key.stage, key.shard), epoch) {
                let expired = st.leases.get(&old).is_some_and(|l| !l.done);
                if expired {
                    self.shared.obs.count(Counter::LeaseExpiries, 1);
                }
                revoke_lease(&mut st, old);
            }
            st.leases.insert(
                epoch,
                Lease {
                    key,
                    events: events.clone(),
                    assembler: SeqAssembler::new(),
                    conn: None,
                    registered_once: false,
                    revoked: false,
                    done: false,
                    exited_sent: false,
                    external,
                },
            );
            epoch
        };

        let kill_shared = Arc::clone(&self.shared);
        match &self.mode {
            TcpAgentMode::Spawn { exe, dataset, reps, extra_args } => {
                let mut cmd = Command::new(exe);
                cmd.arg("agent")
                    .arg(dataset)
                    .args(["-r", &reps.to_string()])
                    .args(["--shard", &task.scope.shard.to_string()])
                    .args(["--of", &task.scope.of.to_string()])
                    .args(["--stage", stage_name(task.scope.stage)])
                    .arg("--journal")
                    .arg(&task.journal_path)
                    .args(["--heartbeat-ms", &self.heartbeat.as_millis().to_string()])
                    .args(["--connect", &self.connect_addr])
                    .args(["--epoch", &epoch.to_string()])
                    .args(["--attempt", &task.attempt.to_string()])
                    .args(extra_args)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::inherit());
                let child = Arc::new(Mutex::new(cmd.spawn()?));
                {
                    let child = Arc::clone(&child);
                    let events = events.clone();
                    std::thread::spawn(move || {
                        let clean = loop {
                            let polled = child.lock().unwrap_or_else(|e| e.into_inner()).try_wait();
                            match polled {
                                Ok(Some(status)) => break status.success(),
                                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                                Err(_) => break false,
                            }
                        };
                        let _ = events.send((key, AgentEvent::Exited { clean }));
                    });
                }
                Ok(RunningShard::from_fn(move || {
                    revoke_lease(&mut kill_shared.lock(), epoch);
                    if let Ok(mut c) = child.lock() {
                        let _ = c.kill();
                    }
                }))
            }
            TcpAgentMode::Thread { workload, lab, sabotage } => {
                let kill = Arc::new(KillSwitch::new());
                let mut lab = (**lab).clone();
                lab.workers = 1;
                let cfg = AgentConfig {
                    workload: (**workload).clone(),
                    lab,
                    scope: task.scope,
                    journal_path: task.journal_path.clone(),
                    heartbeat: self.heartbeat,
                    sabotage: agent_side(scheduled(sabotage, task)),
                    abort_on_crash: false,
                    kill: Some(Arc::clone(&kill)),
                };
                let opts = TcpClientOpts {
                    addr: self.connect_addr.clone(),
                    epoch,
                    attempt: task.attempt,
                    policy: self.client.clone(),
                };
                {
                    let events = events.clone();
                    std::thread::spawn(move || {
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                run_tcp_agent(opts, cfg)
                            }));
                        let clean = matches!(outcome, Ok(Ok(_)));
                        let _ = events.send((key, AgentEvent::Exited { clean }));
                    });
                }
                Ok(RunningShard::from_fn(move || {
                    revoke_lease(&mut kill_shared.lock(), epoch);
                    kill.kill();
                }))
            }
            TcpAgentMode::External { reps } => {
                let seed = std::fs::read(&task.journal_path).unwrap_or_default();
                let assign = SessionMsg::Assign {
                    stage: stage_name(key.stage).to_string(),
                    shard: key.shard,
                    of: task.scope.of,
                    attempt: task.attempt,
                    epoch,
                    reps: *reps,
                    heartbeat_ms: self.heartbeat.as_millis() as u64,
                    seed,
                };
                let frame = encode_frame(&assign);
                let handed = {
                    let mut st = self.shared.lock();
                    match st.idle.pop() {
                        Some((_, conn)) => {
                            drop(st);
                            send_frame(&conn, &assign)
                        }
                        None => false,
                    }
                };
                if !handed {
                    self.shared.lock().pending.push_back((epoch, frame));
                }
                Ok(RunningShard::from_fn(move || {
                    revoke_lease(&mut kill_shared.lock(), epoch);
                }))
            }
        }
    }
}

/// A worker's assignment, decoded from [`SessionMsg::Assign`].
#[derive(Debug, Clone)]
pub struct WorkerTask {
    /// `"stage1"` or `"oracle"`.
    pub stage: String,
    /// Shard index within the wave.
    pub shard: u32,
    /// Total shards in the wave.
    pub of: u32,
    /// The dispatch attempt.
    pub attempt: u32,
    /// Repetitions per configuration.
    pub reps: u32,
    /// Heartbeat period.
    pub heartbeat: Duration,
    /// Local path the seeded journal prefix was written to.
    pub journal_path: PathBuf,
}

/// Runs an external worker loop: connect, announce availability, run
/// each assigned shard as a fresh TCP session, repeat until drained.
/// `make` turns an assignment into the agent configuration (the worker's
/// own dataset and lab flags must fingerprint-match the supervisor's, or
/// the attempt is killed as corrupt — detected, not silent).
///
/// Returns the number of tasks completed.
///
/// # Errors
///
/// I/O errors writing assignment journals to `scratch`; connection
/// failures are retried under `policy` and never surface.
pub fn run_tcp_worker(
    addr: &str,
    policy: &ClientPolicy,
    scratch: &std::path::Path,
    mut make: impl FnMut(&WorkerTask) -> AgentConfig,
) -> std::io::Result<u32> {
    let mut failures: u32 = 0;
    let mut tasks = 0u32;
    loop {
        if failures > policy.retry_budget {
            return Ok(tasks);
        }
        if failures > 0 {
            std::thread::sleep(retry_backoff(
                policy.backoff_base,
                policy.backoff_cap,
                policy.backoff_seed,
                tasks,
                failures,
            ));
        }
        let resolved = addr.to_socket_addrs().ok().and_then(|mut a| a.next());
        let stream = resolved.and_then(|a| TcpStream::connect_timeout(&a, CONNECT_TIMEOUT).ok());
        let mut stream = match stream {
            Some(s) => s,
            None => {
                failures += 1;
                continue;
            }
        };
        if !send_frame(&stream, &SessionMsg::Available) {
            failures += 1;
            continue;
        }
        let mut fr: FrameReader<SessionMsg> = FrameReader::new();
        let mut buf = [0u8; 65536];
        let assign = 'wait: loop {
            let n = match stream.read(&mut buf) {
                Ok(0) | Err(_) => break 'wait None,
                Ok(n) => n,
            };
            for msg in fr.push(&buf[..n]) {
                match msg {
                    SessionMsg::Assign { .. } => break 'wait Some(msg),
                    SessionMsg::Drain => return Ok(tasks),
                    _ => {}
                }
            }
        };
        let Some(SessionMsg::Assign { stage, shard, of, attempt, epoch, reps, heartbeat_ms, seed }) =
            assign
        else {
            failures += 1;
            continue;
        };
        drop(stream); // the task runs over its own registered session
        let journal_path = scratch.join(format!("worker-{stage}-{shard}-a{attempt}.journal"));
        std::fs::write(&journal_path, &seed)?;
        let task = WorkerTask {
            stage,
            shard,
            of,
            attempt,
            reps,
            heartbeat: Duration::from_millis(heartbeat_ms.max(1)),
            journal_path,
        };
        let cfg = make(&task);
        let opts = TcpClientOpts { addr: addr.to_string(), epoch, attempt, policy: policy.clone() };
        // A failed or fenced task must not kill the worker: report
        // nothing (the supervisor's watchdogs already noticed) and go
        // back to the queue.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_tcp_agent(opts, cfg)));
        failures = 0;
        tasks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interlag_core::experiment::{StudyScope, SweepStage};

    fn read_msgs(stream: &mut TcpStream, want: usize) -> Vec<SessionMsg> {
        let mut fr: FrameReader<SessionMsg> = FrameReader::new();
        let mut out = Vec::new();
        let mut buf = [0u8; 4096];
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("set timeout");
        while out.len() < want {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => out.extend(fr.push(&buf[..n])),
            }
        }
        out
    }

    fn transport() -> (TcpTransport, Recorder) {
        let obs = Recorder::enabled();
        let t = TcpTransport::bind(
            "127.0.0.1:0",
            TcpAgentMode::External { reps: 1 },
            Duration::from_millis(25),
            obs.clone(),
        )
        .expect("bind");
        (t, obs)
    }

    fn task(shard: u32, attempt: u32) -> ShardTask {
        ShardTask {
            scope: StudyScope { shard, of: 4, stage: SweepStage::Stage1 },
            attempt,
            journal_path: PathBuf::from("/nonexistent/seed.journal"),
        }
    }

    fn register(epoch: u64) -> SessionMsg {
        SessionMsg::Register { stage: "stage1".into(), shard: 1, of: 4, attempt: 0, epoch, sent: 0 }
    }

    #[test]
    fn current_epoch_registers_and_is_acked_from_zero() {
        let (mut t, _obs) = transport();
        let (tx, _rx) = std::sync::mpsc::channel();
        let _running = t.dispatch(&task(1, 0), tx).expect("dispatch");
        let mut c = TcpStream::connect(t.addr()).expect("connect");
        send_frame(&c, &register(1));
        let got = read_msgs(&mut c, 1);
        assert_eq!(got, vec![SessionMsg::Ack { epoch: 1, seq: 0 }]);
    }

    #[test]
    fn stale_epoch_is_fenced_with_a_revoke() {
        let (mut t, _obs) = transport();
        let (tx, rx) = std::sync::mpsc::channel();
        let _first = t.dispatch(&task(1, 0), tx.clone()).expect("dispatch");
        // Re-dispatch the same shard slot: epoch 1 is superseded by 2.
        let _second = t.dispatch(&task(1, 1), tx).expect("redispatch");
        let mut c = TcpStream::connect(t.addr()).expect("connect");
        send_frame(&c, &register(1));
        let got = read_msgs(&mut c, 1);
        assert_eq!(got, vec![SessionMsg::Revoke { epoch: 1 }]);
        // The superseded external lease reported an unclean exit.
        let events: Vec<_> = rx.try_iter().collect();
        assert!(events
            .iter()
            .any(|(k, e)| k.attempt == 0 && matches!(e, AgentEvent::Exited { clean: false })));
    }

    #[test]
    fn fenced_data_never_reaches_the_supervisor() {
        let (mut t, obs) = transport();
        let (tx, rx) = std::sync::mpsc::channel();
        let _first = t.dispatch(&task(1, 0), tx.clone()).expect("dispatch");
        let _second = t.dispatch(&task(1, 1), tx).expect("redispatch");
        let mut c = TcpStream::connect(t.addr()).expect("connect");
        // A zombie skips Register and fires Data under its old epoch.
        let data =
            SessionMsg::Data { epoch: 1, seq: 1, msg: WireMsg::Heartbeat { seq: 1, completed: 0 } };
        send_frame(&c, &data);
        let got = read_msgs(&mut c, 1);
        assert_eq!(got, vec![SessionMsg::Revoke { epoch: 1 }]);
        let leaked = rx.try_iter().filter(|(_, e)| matches!(e, AgentEvent::Msg(_))).count();
        assert_eq!(leaked, 0, "fenced frames must never merge");
        drop(t);
        let report = obs.text_report_deterministic();
        assert!(report.contains("fenced_epoch_records"), "fence must be counted: {report}");
    }

    #[test]
    fn data_is_assembled_acked_and_deduplicated() {
        let (mut t, _obs) = transport();
        let (tx, rx) = std::sync::mpsc::channel();
        let _running = t.dispatch(&task(1, 0), tx).expect("dispatch");
        let mut c = TcpStream::connect(t.addr()).expect("connect");
        send_frame(&c, &register(1));
        assert_eq!(read_msgs(&mut c, 1), vec![SessionMsg::Ack { epoch: 1, seq: 0 }]);
        let hb = |seq: u64| SessionMsg::Data {
            epoch: 1,
            seq,
            msg: WireMsg::Heartbeat { seq, completed: 0 },
        };
        // Out of order plus a duplicate: 2, 1, 2 → delivered 1, 2 once.
        send_frame(&c, &hb(2));
        send_frame(&c, &hb(1));
        send_frame(&c, &hb(2));
        let acks = read_msgs(&mut c, 3);
        assert_eq!(
            acks,
            vec![
                SessionMsg::Ack { epoch: 1, seq: 0 },
                SessionMsg::Ack { epoch: 1, seq: 2 },
                SessionMsg::Ack { epoch: 1, seq: 2 },
            ]
        );
        let msgs: Vec<_> = rx
            .try_iter()
            .filter_map(|(_, e)| match e {
                AgentEvent::Msg(WireMsg::Heartbeat { seq, .. }) => Some(seq),
                _ => None,
            })
            .collect();
        assert_eq!(msgs, vec![1, 2]);
    }

    #[test]
    fn reconnect_resumes_from_the_ack_high_water_mark() {
        let (mut t, obs) = transport();
        let (tx, _rx) = std::sync::mpsc::channel();
        let _running = t.dispatch(&task(1, 0), tx).expect("dispatch");
        {
            let mut c = TcpStream::connect(t.addr()).expect("connect");
            send_frame(&c, &register(1));
            send_frame(
                &c,
                &SessionMsg::Data {
                    epoch: 1,
                    seq: 1,
                    msg: WireMsg::Heartbeat { seq: 1, completed: 0 },
                },
            );
            assert_eq!(read_msgs(&mut c, 2).len(), 2);
        } // drop = partition
        let mut c = TcpStream::connect(t.addr()).expect("reconnect");
        send_frame(&c, &register(1));
        // The resume point is everything already absorbed: seq 1.
        assert_eq!(read_msgs(&mut c, 1), vec![SessionMsg::Ack { epoch: 1, seq: 1 }]);
        drop(t);
        let report = obs.text_report_deterministic();
        assert!(report.contains("agent_reconnects"), "reconnect must be counted: {report}");
    }

    #[test]
    fn idle_worker_receives_queued_assignment() {
        let (mut t, _obs) = transport();
        // Worker arrives before any task: parks idle.
        let mut w = TcpStream::connect(t.addr()).expect("connect");
        send_frame(&w, &SessionMsg::Available);
        std::thread::sleep(Duration::from_millis(50));
        let (tx, _rx) = std::sync::mpsc::channel();
        let _running = t.dispatch(&task(2, 0), tx).expect("dispatch");
        let got = read_msgs(&mut w, 1);
        match &got[..] {
            [SessionMsg::Assign { stage, shard, of, attempt, epoch, reps, .. }] => {
                assert_eq!((stage.as_str(), *shard, *of), ("stage1", 2, 4));
                assert_eq!((*attempt, *epoch, *reps), (0, 1, 1));
            }
            other => panic!("expected an Assign, got {other:?}"),
        }
    }
}
