//! Reinforcement-learning substrate: the two DRL methods the paper
//! evaluates, over the `dss-nn` networks and `dss-miqp` action solvers.
//!
//! * [`DqnAgent`] — the "straightforward" DQN-based method of §3.2: the
//!   action space is restricted to *single thread moves* (`N × M` discrete
//!   actions), a Q-network scores them all, ε-greedy picks one. The paper
//!   shows this under-explores large action spaces; the reproduction keeps
//!   it as a baseline.
//!
//! * [`DdpgAgent`] — the paper's actor-critic method (§3.2.1, Algorithm 1):
//!   an actor emits a continuous proto-action `â ∈ R^{N·M}`; a K-NN
//!   [`mapper::ActionMapper`] (MIQP-NN) maps it to the `K` nearest feasible
//!   assignments; the critic scores those and the best is executed.
//!   Training follows Algorithm 1 exactly: experience replay (|B| = 1000,
//!   H = 32), target networks with soft updates (τ = 0.01), γ = 0.99,
//!   critic MSE on `y_i = r_i + γ max_{a∈A_{i+1,K}} Q'(s_{i+1}, a)`, and the
//!   deterministic-policy-gradient actor update through `∇_â Q(s, â)`.
//!
//! Both agents are deterministic given their seeds.

pub mod ddpg;
pub mod dqn;
pub mod explore;
pub mod mapper;
pub mod quant;
pub mod replay;
pub mod snapshot;
pub mod transition;

pub use ddpg::{ActScratch, DdpgAgent, DdpgConfig};
pub use dqn::{DqnAgent, DqnConfig};
pub use explore::{EpsilonSchedule, OuNoise};
pub use mapper::{
    ActionMapper, CandidateAction, HierarchicalMapper, KBestMapper, RelaxMapper, ScalableMapper,
};
pub use quant::{QuantActScratch, QuantPolicy};
pub use replay::{ReplayBuffer, ShardSlot, ShardedReplayBuffer};
pub use snapshot::SnapshotError;
pub use transition::Transition;

/// The workspace training element type (re-exported from `dss-nn`): every
/// agent, mapper and buffer here defaults to it. Instantiate the generic
/// types with `f64` explicitly for double-precision debugging.
pub use dss_nn::{Elem, QuantMode, Scalar};
