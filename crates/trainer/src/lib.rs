//! Rapid-style asynchronous training service: a parameter server owning
//! versioned policy snapshots, a learner training continuously off the
//! sharded replay, and rollout workers stepping private [`Environment`]s
//! — in-process or in separate processes over the framed `dss-proto`
//! transports.
//!
//! The paper's control loop (§5) alternates collect and train rounds, so
//! the learner idles while actors step environments and the actors idle
//! while the learner trains. This crate overlaps the two, OpenAI
//! Rapid-style, so experience generation and optimization scale
//! independently:
//!
//! ```text
//!                    ┌────────────────────────────┐
//!                    │      ParameterServer       │
//!        publish ───▶│  version  ·  policy blob   │───▶ pull (copy-on-read)
//!       (learner)    └────────────────────────────┘      (workers)
//!            ▲                                              │
//!            │                                              ▼
//!   ┌────────┴────────┐   pop    ┌──────────────┐   push  ┌──────────────┐
//!   │     Learner     │◀─────────│ BoundedQueue │◀────────│ RolloutWorker│×N
//!   │ train_step_from │          │ (backpressure│  batch  │ private env, │
//!   │ ShardedReplay   │          │  when full)  │ stamped │ policy       │
//!   │ + staleness gate│          └──────────────┘ version │ replica      │
//!   └─────────────────┘                 ▲                 └──────────────┘
//!                                       │ serve_worker (remote mode)
//!                          WeightsRequest / WeightsReport
//!                          TransitionBatch / LearnerStats
//!                          over ChannelTransport / TcpTransport
//!                          (optionally chaos-wrapped)
//! ```
//!
//! # Sync vs async
//!
//! * [`SyncMode::Lockstep`] runs the classic actor-critic path's own
//!   driver ([`dss_core::experiment::train_drl_with`]) and only hooks a
//!   policy publish to the [`ParameterServer`] between epochs (publishing
//!   reads the networks, never the RNG), so its reward series and trained
//!   solution are **bit-identical** to [`dss_core::experiment::train_method`]'s.
//!   CI pins that equivalence.
//! * [`SyncMode::Async`] spawns N workers, each owning a private
//!   environment, exploration RNG and policy replica
//!   ([`dss_rl::DdpgAgent::apply_policy`]); workers pull fresh weights
//!   from the PS every round, stamp every pushed batch with the weight
//!   version it was collected under, and the learner trains continuously,
//!   republishing every few steps.
//!
//! # Staleness knobs
//!
//! Every accepted batch records `version_lag = published − collected` in
//! a power-of-two histogram ([`SharedStats::lag_histogram`]); batches
//! with `version_lag >` [`TrainerConfig::max_version_lag`] are counted
//! and dropped **before** any learner state (RNG included) is touched.
//! The worker→learner queue is bounded ([`TrainerConfig::queue_capacity`])
//! so a slow learner throttles producers instead of buffering without
//! limit, and a lossy link between worker and PS (chaos transports)
//! degrades throughput, never correctness: lost weight replies leave the
//! worker on its current (staleness-accounted) policy, lost batches just
//! collect fewer transitions.
//!
//! [`Environment`]: dss_core::env::Environment

pub mod batch;
pub mod learner;
pub mod ps;
pub mod queue;
pub mod service;
pub mod stats;
pub mod worker;

pub use batch::TransitionRows;
pub use learner::Learner;
pub use ps::ParameterServer;
pub use queue::BoundedQueue;
pub use service::{
    run_remote_worker, serve_worker, train_service_on, ServiceOutcome, SyncMode, TrainerConfig,
    WorkerLink,
};
pub use stats::{SharedStats, StatsSnapshot, LAG_BUCKETS};
pub use worker::{LocalClient, RemoteClient, RolloutWorker, WeightsClient};
