//! The DQN-based DRL scheduler (§3.2) — the paper's "straightforward"
//! application of DQN, restricted to single-thread-move actions so the
//! action space stays polynomially searchable.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dss_rl::{DqnAgent, DqnConfig, Elem, EpsilonSchedule, Scalar, Transition};
use dss_sim::Assignment;

use crate::action::{apply_move, encode_move};
use crate::checkpoint::{CheckpointError, Dec, Enc};
use crate::config::ControlConfig;
use crate::controller::OfflineDataset;
use crate::experiment::Method;
use crate::reward::RewardScale;
use crate::scheduler::{DrlScheduler, RandomMode, Scheduler};
use crate::state::SchedState;

/// DQN over `N·M` single-move actions.
pub struct DqnScheduler {
    agent: DqnAgent,
    eps: EpsilonSchedule,
    epoch: usize,
    rate_scale: f64,
    reward: RewardScale,
    offline_steps: usize,
    n_machines: usize,
    last_action: Option<usize>,
    rng: StdRng,
    /// When true (deployment mode) the scheduler acts greedily and stops
    /// learning.
    frozen: bool,
}

impl DqnScheduler {
    /// Builds a scheduler for the given problem shape.
    pub fn new(
        n_executors: usize,
        n_machines: usize,
        n_sources: usize,
        config: &ControlConfig,
    ) -> Self {
        let state_dim = SchedState::feature_dim(n_executors, n_machines, n_sources);
        let agent = DqnAgent::new(
            state_dim,
            n_executors * n_machines,
            DqnConfig {
                seed: config.seed,
                gamma: config.gamma,
                ..DqnConfig::default()
            },
        );
        Self {
            agent,
            eps: EpsilonSchedule::new(config.eps_start, config.eps_end, config.eps_decay_epochs),
            epoch: 0,
            rate_scale: config.rate_scale,
            reward: RewardScale {
                per_ms: config.reward_per_ms,
            },
            offline_steps: config.offline_steps,
            n_machines,
            last_action: None,
            rng: StdRng::seed_from_u64(config.seed ^ 0xD62),
            frozen: false,
        }
    }

    /// Switches to greedy, non-learning deployment mode.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// The wrapped agent (inspection).
    pub fn agent(&self) -> &DqnAgent {
        &self.agent
    }

    /// Serializes every mutable field — the agent image (networks,
    /// optimizer moments, replay ring), the epoch counter, the
    /// exploration RNG stream, the pending move index, and the frozen
    /// flag — so a [`DqnScheduler::restore_state`]d scheduler continues
    /// the training trajectory bit-for-bit.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.save_state_into(&mut out);
        out
    }

    /// [`DqnScheduler::save_state`] into a caller-owned scratch buffer —
    /// same allocation-reuse seam as
    /// [`crate::scheduler::ActorCriticScheduler::save_state_into`]: the
    /// agent image is appended in place behind a backfilled length prefix.
    pub fn save_state_into(&self, out: &mut Vec<u8>) {
        out.clear();
        let mut e = Enc {
            buf: std::mem::take(out),
        };
        let len_at = e.buf.len();
        e.usize(0); // agent-image length, backfilled below
        self.agent.save_state_append(&mut e.buf);
        let img_len = (e.buf.len() - len_at - 8) as u64;
        e.buf[len_at..len_at + 8].copy_from_slice(&img_len.to_le_bytes());
        e.usize(self.epoch);
        e.rng(self.rng.state());
        match self.last_action {
            None => e.u8(0),
            Some(idx) => {
                e.u8(1);
                e.usize(idx);
            }
        }
        e.u8(self.frozen as u8);
        *out = e.buf;
    }
}

impl DrlScheduler for DqnScheduler {
    const METHOD: Method = Method::Dqn;
    /// A random walk through the single-move action space.
    const OFFLINE_MODE: RandomMode = RandomMode::RandomWalk;

    fn new(n_executors: usize, n_machines: usize, n_sources: usize, cfg: &ControlConfig) -> Self {
        Self::new(n_executors, n_machines, n_sources, cfg)
    }

    /// The problem shape and config must match the run that saved the
    /// image (config-derived fields are reconstructed, not serialized).
    fn restore_state(
        n_executors: usize,
        n_machines: usize,
        n_sources: usize,
        cfg: &ControlConfig,
        bytes: &[u8],
    ) -> Result<Self, CheckpointError> {
        let mut base = Self::new(n_executors, n_machines, n_sources, cfg);
        let mut d = Dec::new(bytes);
        let agent = DqnAgent::restore_state(d.bytes()?)
            .map_err(|e| CheckpointError::Scheduler(e.to_string()))?;
        if agent.n_actions() != n_executors * n_machines {
            return Err(CheckpointError::Scheduler(format!(
                "agent action space {} does not fit {n_executors}x{n_machines}",
                agent.n_actions()
            )));
        }
        base.agent = agent;
        base.epoch = d.usize()?;
        base.rng = StdRng::from_state(d.rng()?);
        base.last_action = match d.u8()? {
            0 => None,
            1 => Some(d.usize()?),
            _ => return Err(CheckpointError::BadStructure("last-action flag")),
        };
        base.frozen = match d.u8()? {
            0 => false,
            1 => true,
            _ => return Err(CheckpointError::BadStructure("frozen flag")),
        };
        d.done()?;
        Ok(base)
    }

    fn save_state_into(&self, out: &mut Vec<u8>) {
        self.save_state_into(out);
    }

    fn freeze(&mut self) {
        self.freeze();
    }

    /// Each greedy decision moves one thread, so the deployable solution
    /// is a single-move rollout from the online endpoint.
    fn final_decisions(n_executors: usize) -> usize {
        2 * n_executors
    }
}

impl Scheduler for DqnScheduler {
    fn name(&self) -> &'static str {
        "dqn"
    }

    fn schedule(&mut self, state: &SchedState) -> Assignment {
        let features = state.features(self.rate_scale);
        let eps = if self.frozen {
            0.0
        } else {
            self.eps.value(self.epoch)
        };
        let idx = self.agent.select_action(&features, eps, &mut self.rng);
        self.last_action = Some(idx);
        apply_move(&state.assignment, idx)
    }

    fn observe(
        &mut self,
        state: &SchedState,
        action: &Assignment,
        reward: f64,
        next_state: &SchedState,
    ) {
        if self.frozen {
            return;
        }
        // Recover the move index: prefer the recorded one; fall back to the
        // assignment diff (e.g. when transitions come from elsewhere).
        let idx = self.last_action.take().unwrap_or_else(|| {
            let diff = state.assignment.diff(action);
            let e = diff.first().copied().unwrap_or(0);
            encode_move(
                e,
                action.machine_of(e),
                action.n_executors(),
                self.n_machines,
            )
        });
        self.agent.store(Transition::new(
            state.features(self.rate_scale),
            idx,
            Elem::from_f64(reward),
            next_state.features(self.rate_scale),
        ));
        self.agent.train_step(&mut self.rng);
        self.epoch += 1;
    }

    fn pretrain(&mut self, dataset: &OfflineDataset) {
        let transitions = dataset.dqn_transitions(self.rate_scale, self.reward);
        self.agent
            .pretrain(transitions, self.offline_steps, &mut self.rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_sim::{ClusterSpec, Grouping, Topology, TopologyBuilder, Workload};

    fn topo() -> Topology {
        let mut b = TopologyBuilder::new("t");
        let s = b.spout("s", 1, 0.05);
        let x = b.bolt("x", 3, 0.2);
        b.edge(s, x, Grouping::Shuffle, 1.0, 64);
        b.build().unwrap()
    }

    fn state() -> SchedState {
        let cluster = ClusterSpec::homogeneous(2);
        SchedState::new(
            Assignment::round_robin(&topo(), &cluster),
            Workload::uniform(&topo(), 100.0),
        )
    }

    #[test]
    fn schedule_applies_single_move() {
        let mut sched = DqnScheduler::new(4, 2, 1, &ControlConfig::test());
        let st = state();
        let a = sched.schedule(&st);
        assert!(st.assignment.diff(&a).len() <= 1);
    }

    #[test]
    fn observe_trains() {
        let mut sched = DqnScheduler::new(4, 2, 1, &ControlConfig::test());
        let st = state();
        let a = sched.schedule(&st);
        let next = SchedState::new(a.clone(), st.workload.clone());
        sched.observe(&st, &a, -0.2, &next);
        assert_eq!(sched.agent().train_steps(), 1);
    }

    #[test]
    fn frozen_mode_is_greedy_and_static() {
        let mut sched = DqnScheduler::new(4, 2, 1, &ControlConfig::test());
        sched.freeze();
        let st = state();
        let a1 = sched.schedule(&st);
        let a2 = sched.schedule(&st);
        assert_eq!(a1, a2, "greedy decisions are deterministic");
        sched.observe(&st, &a1, -0.5, &st.clone());
        assert_eq!(sched.agent().train_steps(), 0);
    }
}
