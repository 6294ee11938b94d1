//! # interlag-power — OPP tables, power modelling and energy metering
//!
//! The governor study of *Seeker et al., IISWC 2014* ranks configurations
//! by the energy they spend servicing the same replayed workload. This
//! crate reproduces the power side of that study:
//!
//! * [`opp`] — frequencies and the 14-point Snapdragon 8074 OPP table;
//! * [`model`] — the parametric CMOS power model with its race-to-idle
//!   optimum at 0.96 GHz;
//! * [`calibrate`](mod@calibrate) — the paper's micro-benchmark calibration procedure,
//!   producing the measured per-frequency dynamic-power table;
//! * [`energy`] — integrating frequency/load traces into energy reports.
//!
//! # Examples
//!
//! Calibrate the rig and meter a synthetic run:
//!
//! ```
//! use interlag_evdev::time::{SimDuration, SimTime};
//! use interlag_power::calibrate::{calibrate, CalibrationConfig};
//! use interlag_power::energy::{ActivitySample, ActivityTrace, EnergyMeter};
//! use interlag_power::model::PowerModel;
//! use interlag_power::opp::OppTable;
//!
//! let opps = OppTable::snapdragon_8074();
//! let measured = calibrate(&opps, &PowerModel::krait_like(), &CalibrationConfig::default());
//! let meter = EnergyMeter::new(measured);
//!
//! let mut trace = ActivityTrace::new();
//! trace.push(ActivitySample {
//!     start: SimTime::ZERO,
//!     duration: SimDuration::from_secs(1),
//!     freq: opps.max_freq(),
//!     busy: SimDuration::from_millis(400),
//! });
//! let report = meter.measure(&trace);
//! assert!(report.dynamic_mj > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calibrate;
pub mod energy;
pub mod model;
pub mod opp;

pub use calibrate::{calibrate, CalibrationConfig, MeasuredPowerTable};
pub use energy::{ActivitySample, ActivityTrace, EnergyMeter, EnergyReport};
pub use model::PowerModel;
pub use opp::{Frequency, Opp, OppTable};
