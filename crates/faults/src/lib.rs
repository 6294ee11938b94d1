//! # interlag-faults — deterministic fault injection for the pipeline
//!
//! The paper's measurement chain is long: a replay agent injects recorded
//! input (§II-B), the device renders, an HDMI capture box records frames
//! (§II-C), a power meter logs activity (§III-B), and a governor writes
//! frequencies through cpufreq. Every link can and does misbehave on real
//! hardware. This crate wraps each stage boundary with a seeded fault
//! injector so the rest of the pipeline can be hardened — and *tested* —
//! against exactly those failures:
//!
//! * [`FaultyCapture`] — dropped, duplicated and bit-flipped frames;
//! * [`FaultyReplayer`] — lost input events and bounded extra delay;
//! * [`PowerFaults::perturb`] — meter dropouts and spikes on the
//!   activity trace;
//! * [`FaultyGovernor`] — rejected OPP writes;
//! * [`transport`] — dropped/duplicated/truncated/delayed frames on the
//!   sharded-sweep agent↔supervisor link, plus scheduled agent sabotage
//!   (crash/wedge on the nth checkpoint, SIGKILL after the nth record);
//! * [`net`] — a seeded in-process TCP relay ([`ChaosProxy`]) injecting
//!   partitions, RST-style resets, delay, reordering, duplication and
//!   mid-frame truncation into the multi-machine sweep transport.
//!
//! Two properties make the injectors usable inside the study pipeline:
//!
//! 1. **Determinism.** All draws come from [`SplitMix64`] streams derived
//!    by [`FaultStreams::derive`] from `(seed, configuration, repetition,
//!    attempt)`, one disjoint stream per stage. Any observed failure
//!    replays exactly; a retried repetition re-derives with `attempt + 1`
//!    and sees a fresh, equally deterministic pattern.
//! 2. **Quiescent transparency.** With all rates zero every wrapper is a
//!    strict pass-through — no RNG draws, no copies — so a zero-fault
//!    study stays bit-identical to one run without the wrappers at all.
//!
//! [`SplitMix64`]: interlag_evdev::rng::SplitMix64
//! [`FaultyCapture`]: capture::FaultyCapture
//! [`FaultyReplayer`]: replay::FaultyReplayer
//! [`FaultyGovernor`]: dvfs::FaultyGovernor
//! [`PowerFaults::perturb`]: config::PowerFaults::perturb

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod capture;
pub mod config;
pub mod dvfs;
pub mod net;
pub mod power;
pub mod replay;
pub mod transport;

pub use capture::{CaptureFaultLog, FaultyCapture};
pub use config::{
    CaptureFaults, DvfsFaults, FaultConfig, FaultStreams, PowerFaults, ReplayFaults, WedgeFaults,
};
pub use dvfs::{FaultyGovernor, WedgedGovernor};
pub use net::{ChaosProxy, NetFaultCounts, NetFaults};
pub use power::PowerFaultLog;
pub use replay::{FaultyReplayer, ReplayFaultLog};
pub use transport::{AgentSabotage, FrameFate, FrameMangler, SabotageKind, TransportFaults};
