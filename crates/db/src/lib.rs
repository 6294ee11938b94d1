//! # interlag-db — the fleet-scale QoE results database
//!
//! The aggregation half of the fleet story (the orchestration half is
//! `interlag-orchestrator`): any number of machines run `interlag sweep`
//! or `interlag study`, seal their merged journals into submission
//! artifacts, and hand them to a database that validates each one
//! through the same gauntlet the sweep merge uses, then folds the
//! survivors into queryable per-`(device, governor, workload)` QoE
//! aggregates — in the mould of resctl-demo's iocost-database, for lag
//! percentiles instead of iocost parameters.
//!
//! * [`manifest`] — sealed submission artifacts: CRC-framed manifest +
//!   checkpoint records;
//! * [`store`] — the content-addressed store and ingest gauntlet
//!   (validate → quarantine or fold → persist);
//! * [`sketch`] — integer-exact mergeable aggregates, the algebra that
//!   makes every fold order produce identical bytes;
//! * [`query`](mod@query) — property-group queries and Markdown/CSV export.
//!
//! The load-bearing invariant, proven by the merge-algebra property
//! tests: for any submission set, any ingest order and any partition
//! into intermediate databases, the exported report is byte-identical.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod manifest;
pub mod query;
pub mod sketch;
pub mod store;

pub use manifest::{device_model, seal_submission, SubmissionManifest, SUBMISSION_SCHEMA};
pub use query::{export_csv, export_markdown, query, QueryError, STATS};
pub use sketch::Sketch;
pub use store::{
    submission_id, Db, GroupAggregate, GroupKey, IngestError, IngestReceipt, ENERGY_BUCKET_UJ,
    IRRITATION_BUCKET_US, LAG_BUCKET_US,
};
