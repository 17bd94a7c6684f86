//! # dsdps-drl
//!
//! A from-scratch Rust reproduction of *Model-Free Control for Distributed
//! Stream Data Processing using Deep Reinforcement Learning*
//! (Li, Xu, Tang, Wang — VLDB 2018).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`sim`] — the Storm-like DSDPS discrete-event simulator,
//! * [`nn`] — the dense neural network substrate,
//! * [`rl`] — replay buffer, DQN and DDPG-style actor-critic, and
//!   exploration-noise processes,
//! * [`miqp`] — the MIQP-NN nearest-neighbour action solvers,
//! * [`svr`] — support-vector regression (model-based baseline),
//! * [`apps`] — the paper's three stream applications,
//! * [`metrics`] — series post-processing used by the figures,
//! * [`control`] — the paper's contribution: the DRL-based control
//!   framework (schedulers, offline training and online learning loops),
//! * [`coord`] — the ZooKeeper-like coordination service,
//! * [`proto`] — the agent↔scheduler socket protocol,
//! * [`store`] — the durable transition-sample database,
//! * [`nimbus`] — the Nimbus-like master (custom scheduler endpoint,
//!   heartbeat monitoring, failure repair),
//! * [`trainer`] — the Rapid-style async training service: parameter
//!   server, continuous learner, and rollout workers over `dss-proto`,
//! * [`control_plane`] — the integrated Figure-1 deployment: agent thread
//!   and cluster thread connected by the real substrates.
//!
//! See `examples/quickstart.rs` for a five-minute tour and
//! `examples/control_plane.rs` / `examples/fault_tolerance.rs` for the
//! distributed control plane.

pub mod control_plane;
pub mod offline;

pub use dss_apps as apps;
pub use dss_coord as coord;
pub use dss_core as control;
pub use dss_metrics as metrics;
pub use dss_miqp as miqp;
pub use dss_nimbus as nimbus;
pub use dss_nn as nn;
pub use dss_proto as proto;
pub use dss_rl as rl;
pub use dss_sim as sim;
pub use dss_store as store;
pub use dss_svr as svr;
pub use dss_trainer as trainer;

pub use control_plane::{
    run_control_plane, ControlPlaneConfig, ControlPlaneError, ControlPlaneReport,
};

/// Workspace version, shared by every crate.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
