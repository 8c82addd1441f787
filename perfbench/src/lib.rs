//! The repository benchmark: end-to-end and per-layer performance of the
//! generate → cache → analyze pipeline, measured from outside the
//! program through its public API. See `README.md` for the workloads,
//! the metrics and how each layer maps onto them.

pub mod host;
pub mod metrics;
pub mod run;
pub mod summary;
pub mod sys;
pub mod trace;
pub mod unit;
pub mod workload;
