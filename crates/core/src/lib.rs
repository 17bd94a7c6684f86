//! The paper's contribution: a **DRL-based model-free control framework**
//! for scheduling in Distributed Stream Data Processing Systems.
//!
//! Architecture (paper Figure 1): a *DRL agent* consumes the state
//! `s = (X, w)` — the current executor assignment plus per-data-source
//! arrival rates — and produces a scheduling solution that a *custom
//! scheduler* deploys on the DSDPS with minimal impact (only moved
//! executors are reassigned); the measured average end-to-end tuple
//! processing time becomes the (negative) reward; transition samples are
//! stored in a *database* for experience-replay training.
//!
//! The crate provides:
//!
//! * [`state`] / [`action`] / [`reward`] — the paper's §3.2 formulation;
//! * [`env`](mod@env) — the [`env::Environment`] **backend seam**: every
//!   training and evaluation layer ([`controller`], [`parallel`],
//!   [`experiment`]) is generic over it. Three backends ship:
//!   [`env::AnalyticEnv`] (the fast steady-state evaluator, optionally
//!   schedule-driven), [`env::SimEnv`] (the tuple-level engine — each
//!   decision is a minimal-impact re-deployment plus one epoch of
//!   simulated time, so agents train against the same dynamics the
//!   figures measure), and [`env::ClusterEnv`] (the Figure-1 control
//!   plane: every decision is a full `dss-proto` round trip through
//!   `dss-nimbus` and `dss-coord`, with optional machine-crash fault
//!   plans). The module docs spell out the add-a-backend recipe;
//! * [`scenario`] — the registry of named scenarios (application × scale
//!   × cluster × rate schedule) that experiments, benches and collector
//!   fleets build environments from, on either backend — including
//!   domain-randomized heterogeneous fleets;
//! * [`scheduler`] — the four compared methods: Storm's default
//!   round-robin, a random scheduler (offline data collection), the
//!   model-based SVR baseline of Li et al. (TBD'16), the DQN-based DRL
//!   method, and the paper's actor-critic DRL method;
//! * [`controller`] — the offline phase (10,000 random-action samples)
//!   and one decision epoch of online learning, backend-generic;
//! * [`parallel`] — the rollout actor and the backend-generic
//!   parallel-actor collector (N private environments, one learner,
//!   sharded replay);
//! * [`experiment`] — the one Algorithm-1 training driver
//!   ([`experiment::train_drl_with`]) behind backend-selectable training
//!   ([`experiment::Backend`]), and the runners that regenerate every
//!   evaluation figure (6–12) and the headline summary table.

pub mod action;
pub mod checkpoint;
pub mod config;
pub mod controller;
pub mod env;
pub mod experiment;
pub mod parallel;
pub mod reward;
pub mod scenario;
pub mod scheduler;
pub mod state;

pub use checkpoint::{CheckpointError, TrainCheckpoint};
pub use config::ControlConfig;
pub use controller::{Controller, OfflineDataset, RawSample};
pub use env::{AnalyticEnv, ClusterEnv, ClusterTransport, DegradedReason, Environment, SimEnv};
pub use experiment::{train_method_durable, DurableOptions, DurableRun};
pub use parallel::{Actor, ActorSetup, ParallelCollector, RoundPlan};
pub use reward::RewardScale;
pub use scenario::{analytic_fleet, cluster_fleet, sim_fleet, Scenario};
pub use scheduler::{
    ActorCriticScheduler, DqnScheduler, DrlScheduler, ModelBasedScheduler, RandomScheduler,
    RoundRobinScheduler, Scheduler,
};
pub use state::SchedState;
