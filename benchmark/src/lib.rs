//! The epoch ledger: an end-to-end benchmark of the whole control stack
//! with per-layer attribution, taken entirely from outside the program
//! through decorators over its two public seams (`Environment` and
//! `Scheduler`). See `README.md` in this directory for the metric
//! glossary, the workload rationale and how the metrics interact.

pub mod json;
pub mod probes;
pub mod spec;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workloads;
