//! A Storm-like Distributed Stream Data Processing System (DSDPS) —
//! the substrate the reproduced paper runs on.
//!
//! The paper evaluates its scheduler on an 11-node Apache Storm cluster.
//! This crate substitutes that cluster with two consistent models of the
//! same system:
//!
//! * [`engine::SimEngine`] — a **tuple-level discrete-event simulator**:
//!   spouts emit root tuples; bolts consume, process (with per-component
//!   service-time distributions, machine CPU contention, and post-deploy
//!   warm-up), and route children along topology edges under Storm's
//!   grouping policies (shuffle / fields / all / global); tuple trees are
//!   acked exactly like Storm's acker, and the *average end-to-end tuple
//!   processing time* (complete latency) is measured over sliding windows.
//!   Re-deployments pause only the moved executors (mirroring the paper's
//!   minimal-impact custom scheduler) and cause the transient latency spikes
//!   visible in the paper's Figure 12.
//!
//! * [`analytic::AnalyticModel`] — a **fast steady-state evaluator** of the
//!   same cluster (queueing delay per executor + expected transfer delay per
//!   edge + tree-completion composition). It ranks assignments consistently
//!   with the tuple-level engine at a tiny fraction of the cost, which makes
//!   the paper's 10,000-sample offline training phase and 1,500–2,000-epoch
//!   online phase tractable; figure-generating runs always use the
//!   tuple-level engine.
//!
//! The scheduling problem only interacts with this crate through
//! [`assignment::Assignment`] (the `N -> M` thread-to-machine map of the
//! paper, with all of an application's threads on one machine sharing one
//! worker process) and the measured average tuple processing time.
//!
//! # Driving either model as a training backend
//!
//! Both models plug into `dss-core`'s `Environment` seam (the abstraction
//! every training/evaluation layer is generic over). The engine's side of
//! that contract is three calls, all safe mid-run:
//!
//! * [`engine::SimEngine::deploy`] — minimal-impact re-deployment (only
//!   moved executors pause and re-warm; the first call starts the
//!   topology);
//! * [`engine::SimEngine::step_epoch`] — incremental run-to-epoch
//!   stepping: advance the event loop one decision epoch and read the
//!   sliding-window average tuple processing time;
//! * [`engine::SimEngine::set_workload`] /
//!   [`engine::SimEngine::set_rate_schedule`] — mid-run workload
//!   mutation; spout emissions re-read both within one inter-arrival gap.
//!
//! [`workload::RateSchedule`] models the offered-load evolution: the
//! paper's Figure-12 step, plus diurnal sinusoid and periodic-burst
//! shapes used by the scenario registry for training diversity. All
//! schedules are pure functions of simulated time, so determinism is
//! independent of when the multiplier is sampled.
//!
//! # Event-driven scaling: cost follows the active set, not the cluster
//!
//! Fleet-scale scenarios (hundreds of machines, thousands of executors,
//! most of them idle) must not pay per-epoch cost proportional to cluster
//! size. The engine is organised around an **event queue** (a 4-ary
//! min-heap of next-activity times ordered by one integer key per event,
//! [`event::EventQueue`]) so each epoch only touches executors with
//! pending work: idle machines schedule nothing and cost nothing. Spout
//! executors whose emission rate is zero are **parked** — they hold no
//! pending event at all. A spout silenced by its
//! [`workload::RateSchedule`] (positive base rate, zero multiplier) sleeps
//! until [`workload::RateSchedule::next_change_after`] says its rate can
//! next become non-zero; a spout with a zero *base* rate parks outright and
//! is re-kicked by [`engine::SimEngine::set_workload`] /
//! [`engine::SimEngine::set_rate_schedule`], the only calls that can raise
//! its rate.
//!
//! ## The dense-oracle escape hatch
//!
//! The pre-fleet dense behaviour — a `Vec`-backed queue that rescans every
//! pending event per pop (O(pending) per event) and keeps a permanent 1 Hz
//! poll per idle spout — is preserved as a correctness oracle and bench
//! baseline. Select it per engine with
//! [`engine::SimEngine::set_dense_events`] (before the first deploy). Both
//! backends share one `(time, seq)` event order and polls consume no
//! randomness, so dense and heap runs produce **bit-identical latency
//! trajectories** on every registry scenario — asserted by tests and the CI
//! fleet-smoke job, and exploited by the `fleet_engine_step` bench pair
//! that gates the dense-vs-event speedup under mostly-idle load.

pub mod analytic;
pub mod assignment;
pub mod cluster;
pub mod config;
pub mod engine;
pub mod error;
pub mod event;
pub mod latency;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod topology;
pub mod tuple;
pub mod workload;

pub use analytic::AnalyticModel;
pub use assignment::Assignment;
pub use cluster::{ClusterSpec, MachineSpec, NetworkParams};
pub use config::SimConfig;
pub use engine::SimEngine;
pub use error::SimError;
pub use stats::RuntimeStats;
pub use topology::{ComponentKind, ComponentSpec, Grouping, Topology, TopologyBuilder};
pub use workload::{RateSchedule, Workload};
