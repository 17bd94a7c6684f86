//! The four scheduling methods the paper compares, behind one trait.
//!
//! | Label in the paper's figures | Implementation |
//! |---|---|
//! | "Default" | [`RoundRobinScheduler`] — Storm's even round-robin spread |
//! | "Model-based" | [`ModelBasedScheduler`] — SVR per-component delay prediction + search (Li et al., TBD'16) |
//! | "DQN-based DRL" | [`DqnScheduler`] — single-move action space, ε-greedy DQN |
//! | "Actor-critic-based DRL" | [`ActorCriticScheduler`] — the paper's method (Algorithm 1) |
//!
//! [`RandomScheduler`] is the offline-training data collector ("deploys a
//! randomly-generated scheduling solution").

mod actor_critic;
mod dqn;
mod model_based;
pub mod random;
mod round_robin;

pub use actor_critic::ActorCriticScheduler;
pub use dqn::DqnScheduler;
pub use model_based::ModelBasedScheduler;
pub use random::{RandomMode, RandomScheduler};
pub use round_robin::RoundRobinScheduler;

use dss_sim::Assignment;

use crate::checkpoint::CheckpointError;
use crate::config::ControlConfig;
use crate::controller::OfflineDataset;
use crate::experiment::Method;
use crate::state::SchedState;

/// A scheduling method: proposes assignments and (optionally) learns from
/// deployed outcomes.
pub trait Scheduler {
    /// Label used in figures and CSV headers.
    fn name(&self) -> &'static str;

    /// One decision epoch: propose the next assignment for `state`.
    fn schedule(&mut self, state: &SchedState) -> Assignment;

    /// Learns from an executed transition. Default: not a learner.
    fn observe(
        &mut self,
        state: &SchedState,
        action: &Assignment,
        reward: f64,
        next_state: &SchedState,
    ) {
        let _ = (state, action, reward, next_state);
    }

    /// Offline pre-training on collected samples. Default: no-op.
    fn pretrain(&mut self, dataset: &OfflineDataset) {
        let _ = dataset;
    }
}

/// A learning scheduler as the one training driver
/// ([`crate::experiment::train_drl_with`]) sees it: everything in which
/// the DQN and actor-critic arms of Algorithm 1 differ.
pub trait DrlScheduler: Scheduler + Sized + 'static {
    /// The compared method this scheduler implements.
    const METHOD: Method;
    /// Action distribution of the offline samples it pretrains on.
    const OFFLINE_MODE: RandomMode;

    /// An untrained scheduler for the given problem shape.
    fn new(n_executors: usize, n_machines: usize, n_sources: usize, cfg: &ControlConfig) -> Self;

    /// Rebuilds a scheduler from a [`DrlScheduler::save_state_into`]
    /// image taken under the same shape and config.
    fn restore_state(
        n_executors: usize,
        n_machines: usize,
        n_sources: usize,
        cfg: &ControlConfig,
        bytes: &[u8],
    ) -> Result<Self, CheckpointError>;

    /// Serializes every mutable field into `out` (cleared first), so a
    /// restored scheduler continues the training trajectory bit for bit.
    fn save_state_into(&self, out: &mut Vec<u8>);

    /// Switches to greedy, non-learning deployment mode.
    fn freeze(&mut self);

    /// Greedy decisions that lead from the online endpoint to the
    /// deployable solution: one when an action is a full assignment.
    fn final_decisions(n_executors: usize) -> usize {
        let _ = n_executors;
        1
    }
}
