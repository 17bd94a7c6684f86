//! The paper's method: the actor-critic-based DRL scheduler
//! (§3.2.1, Algorithm 1).

use rand::rngs::StdRng;
use rand::SeedableRng;

use dss_rl::{
    ActScratch, DdpgAgent, DdpgConfig, Elem, EpsilonSchedule, ScalableMapper, Scalar,
    ShardedReplayBuffer, Transition,
};
use dss_sim::Assignment;

use crate::action::choice_to_assignment;
use crate::checkpoint::{CheckpointError, Dec, Enc};
use crate::config::ControlConfig;
use crate::controller::OfflineDataset;
use crate::experiment::Method;
use crate::reward::RewardScale;
use crate::scheduler::{DrlScheduler, RandomMode, Scheduler};
use crate::state::SchedState;

/// Elite candidates remembered from the transition database and re-ranked
/// by the critic at every decision.
const ELITE_SIZE: usize = 12;

/// Actor-critic scheduler over full-assignment actions, with MIQP-NN K-NN
/// action mapping.
///
/// **Reproduction note.** On top of Algorithm 1's candidate set (the K-NN
/// of the actor's proto-action), every decision also lets the critic rank
/// the best-rewarded assignments recorded so far in the framework's
/// transition database (an *elite memory*). Our simulated cluster has a
/// sharper consolidation optimum than the authors' physical testbed, and at
/// reproduction-scale training budgets the vanilla deterministic-policy
/// actor drifts toward it too slowly on its own; the elite candidates give
/// the (correctly trained) critic good actions to choose from without
/// changing what is learned or how. Both candidate sources are ranked by
/// the one critic argmax of [`DdpgAgent::select_action_among`]; the pure
/// paper behaviour is that call with no extras
/// ([`DdpgAgent::select_action_into`]).
pub struct ActorCriticScheduler {
    agent: DdpgAgent,
    mapper: ScalableMapper,
    eps: EpsilonSchedule,
    epoch: usize,
    rate_scale: f64,
    reward: RewardScale,
    offline_steps: usize,
    n_machines: usize,
    rng: StdRng,
    frozen: bool,
    /// `(reward, assignment)` of the best-rewarded actions seen, ascending.
    elite: Vec<(f64, Assignment)>,
    /// Act-path buffers reused across decisions. Not serialized: nothing
    /// in it survives from one `schedule` call to the next.
    act: ActScratch,
}

impl ActorCriticScheduler {
    /// Builds a scheduler for the given problem shape.
    pub fn new(
        n_executors: usize,
        n_machines: usize,
        n_sources: usize,
        config: &ControlConfig,
    ) -> Self {
        let agent = DdpgAgent::new(
            SchedState::feature_dim(n_executors, n_machines, n_sources),
            n_executors * n_machines,
            Self::agent_config(config),
        );
        Self {
            agent,
            mapper: ScalableMapper::from_knobs(
                n_executors,
                n_machines,
                config.mapper_groups,
                config.mapper_prune,
            ),
            eps: EpsilonSchedule::new(config.eps_start, config.eps_end, config.eps_decay_epochs),
            epoch: 0,
            rate_scale: config.rate_scale,
            reward: RewardScale {
                per_ms: config.reward_per_ms,
            },
            offline_steps: config.offline_steps,
            n_machines,
            rng: StdRng::seed_from_u64(config.seed ^ 0xAC),
            frozen: false,
            elite: Vec::new(),
            act: ActScratch::default(),
        }
    }

    /// The agent hyperparameters a control config implies; policy
    /// replicas that apply this scheduler's weights derive theirs here too.
    pub fn agent_config(config: &ControlConfig) -> DdpgConfig {
        DdpgConfig {
            k: config.k,
            seed: config.seed,
            gamma: config.gamma,
            ..DdpgConfig::default()
        }
    }

    /// Records an action/reward pair in the elite memory (`observe` and
    /// `pretrain` do; so does a learner fed transitions from elsewhere).
    pub fn remember_elite(&mut self, reward: f64, assignment: &Assignment) {
        if self.elite.iter().any(|(_, a)| a == assignment) {
            return;
        }
        let pos = self.elite.partition_point(|(r, _)| *r < reward);
        self.elite.insert(pos, (reward, assignment.clone()));
        if self.elite.len() > ELITE_SIZE {
            self.elite.remove(0);
        }
    }

    /// The elite memory: `(reward, assignment)`, ascending by reward.
    pub fn elite(&self) -> &[(f64, Assignment)] {
        &self.elite
    }

    /// The train half of `observe` off an external sharded replay instead
    /// of the agent's own ring (`None` while `replay` is empty).
    pub fn train_step_from(&mut self, replay: &ShardedReplayBuffer<Elem>) -> Option<f64> {
        self.agent
            .train_step_from(replay, &mut self.mapper, &mut self.rng)
    }

    /// Switches to greedy, non-learning deployment mode.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// The wrapped agent (inspection / serialization).
    pub fn agent(&self) -> &DdpgAgent {
        &self.agent
    }

    /// Serializes every mutable field — the agent image (all four
    /// networks, both optimizers' moments, the replay ring), the epoch
    /// counter, the exploration RNG stream, the frozen flag, and the
    /// elite memory in rank order — so a
    /// [`ActorCriticScheduler::restore_state`]d scheduler continues the
    /// training trajectory bit-for-bit.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.save_state_into(&mut out);
        out
    }

    /// [`ActorCriticScheduler::save_state`] into a caller-owned scratch:
    /// clears `out` and fills it, reusing its capacity. The embedded agent
    /// image (the bulk of the bytes — its replay ring dominates) is
    /// appended in place behind a backfilled length prefix, so no
    /// intermediate `Vec` is allocated either.
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
        e.u8(self.frozen as u8);
        e.usize(self.elite.len());
        for (reward, a) in &self.elite {
            e.f64(*reward);
            e.assignment(a);
        }
        *out = e.buf;
    }
}

impl DrlScheduler for ActorCriticScheduler {
    const METHOD: Method = Method::ActorCritic;
    const OFFLINE_MODE: RandomMode = RandomMode::FullRandom;

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
        let agent = DdpgAgent::restore_state(d.bytes()?)
            .map_err(|e| CheckpointError::Scheduler(e.to_string()))?;
        base.agent = agent;
        base.epoch = d.usize()?;
        base.rng = StdRng::from_state(d.rng()?);
        base.frozen = match d.u8()? {
            0 => false,
            1 => true,
            _ => return Err(CheckpointError::BadStructure("frozen flag")),
        };
        let n_elite = d.len("elite memory")?;
        let mut elite = Vec::with_capacity(n_elite);
        for _ in 0..n_elite {
            let reward = d.f64()?;
            let a = d.assignment()?;
            if a.n_executors() != n_executors || a.n_machines() != n_machines {
                return Err(CheckpointError::BadStructure("elite assignment shape"));
            }
            elite.push((reward, a));
        }
        base.elite = elite;
        d.done()?;
        Ok(base)
    }

    fn save_state_into(&self, out: &mut Vec<u8>) {
        self.save_state_into(out);
    }

    fn freeze(&mut self) {
        self.freeze();
    }
}

impl Scheduler for ActorCriticScheduler {
    fn name(&self) -> &'static str {
        "actor-critic"
    }

    /// Algorithm 1 lines 8–11: proto-action from the actor, exploration
    /// noise, K-NN via MIQP-NN, critic argmax over the K-NN candidates
    /// and the elite memory.
    fn schedule(&mut self, state: &SchedState) -> Assignment {
        let features = state.features(self.rate_scale);
        let eps = if self.frozen {
            0.0
        } else {
            self.eps.value(self.epoch)
        };
        let (best, _) = self.agent.select_action_among(
            &features,
            &mut self.mapper,
            eps,
            &mut self.rng,
            self.elite.iter().map(|(_, a)| a.as_slice()),
            &mut self.act,
        );
        match best.checked_sub(self.act.cands.len()) {
            Some(elite) => self.elite[elite].1.clone(),
            None => choice_to_assignment(&self.act.cands[best].choice, self.n_machines)
                .expect("mapper candidates are feasible"),
        }
    }

    /// Algorithm 1 lines 12–18: store the transition and run one training
    /// step (mini-batch update + target soft updates).
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
        self.remember_elite(reward, action);
        self.agent.store(Transition::new(
            state.features(self.rate_scale),
            crate::state::onehot_elems(action),
            Elem::from_f64(reward),
            next_state.features(self.rate_scale),
        ));
        self.agent.train_step(&mut self.mapper, &mut self.rng);
        self.epoch += 1;
    }

    /// Algorithm 1 line 4: offline pre-training on historical samples.
    fn pretrain(&mut self, dataset: &OfflineDataset) {
        for s in &dataset.samples {
            let r = self.reward.reward(s.latency_ms);
            self.remember_elite(r, &s.action);
        }
        let transitions = dataset.ddpg_transitions(self.rate_scale, self.reward);
        self.agent.pretrain(
            transitions,
            self.offline_steps,
            &mut self.mapper,
            &mut self.rng,
        );
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
    fn schedules_feasible_full_assignments() {
        let mut sched = ActorCriticScheduler::new(4, 2, 1, &ControlConfig::test());
        let a = sched.schedule(&state());
        assert_eq!(a.n_executors(), 4);
        assert_eq!(a.n_machines(), 2);
    }

    #[test]
    fn observe_trains_the_agent() {
        let mut sched = ActorCriticScheduler::new(4, 2, 1, &ControlConfig::test());
        let st = state();
        let a = sched.schedule(&st);
        let next = SchedState::new(a.clone(), st.workload.clone());
        sched.observe(&st, &a, -0.3, &next);
        assert_eq!(sched.agent().train_steps(), 1);
    }

    #[test]
    fn frozen_is_deterministic() {
        let mut sched = ActorCriticScheduler::new(4, 2, 1, &ControlConfig::test());
        sched.freeze();
        let st = state();
        assert_eq!(sched.schedule(&st), sched.schedule(&st));
    }

    /// One control epoch against a stand-in environment whose reward
    /// prefers threads on machine 0.
    fn epoch(sched: &mut ActorCriticScheduler, st: &SchedState) -> SchedState {
        let a = sched.schedule(st);
        let spread = a.as_slice().iter().filter(|&&m| m != 0).count();
        let next = SchedState::new(a.clone(), st.workload.clone());
        sched.observe(st, &a, -0.1 * spread as f64, &next);
        next
    }

    #[test]
    fn restore_mid_training_continues_the_same_assignments() {
        let config = ControlConfig::test();
        let mut sched = ActorCriticScheduler::new(4, 2, 1, &config);
        let mut st = state();
        for _ in 0..8 {
            st = epoch(&mut sched, &st);
        }
        // The restored scheduler starts with cold act buffers; the
        // original's are warm from eight decisions. Neither is state.
        let mut resumed =
            ActorCriticScheduler::restore_state(4, 2, 1, &config, &sched.save_state()).unwrap();
        let mut st_resumed = st.clone();
        for e in 0..8 {
            st = epoch(&mut sched, &st);
            st_resumed = epoch(&mut resumed, &st_resumed);
            assert_eq!(
                st.assignment, st_resumed.assignment,
                "epoch {e} after resume"
            );
        }
        sched.freeze();
        resumed.freeze();
        assert_eq!(sched.schedule(&st), resumed.schedule(&st_resumed));
        assert_eq!(sched.save_state(), resumed.save_state());
    }

    #[test]
    fn pretrain_consumes_offline_dataset() {
        use crate::controller::{Controller, OfflineDataset};
        use crate::env::AnalyticEnv;
        use crate::scheduler::random::RandomMode;
        use crate::scheduler::RandomScheduler;
        use dss_sim::{AnalyticModel, SimConfig};

        let cluster = ClusterSpec::homogeneous(2);
        let mut env = AnalyticEnv::new(
            AnalyticModel::new(topo(), cluster.clone(), SimConfig::steady_state(2)).unwrap(),
        );
        let ctl = Controller::new(ControlConfig::test());
        let mut collector = RandomScheduler::new(RandomMode::FullRandom, StdRng::seed_from_u64(1));
        let w = Workload::uniform(&topo(), 100.0);
        let init = Assignment::round_robin(&topo(), &cluster);
        let data: OfflineDataset = ctl.collect_offline(
            &mut env,
            &w,
            &mut collector,
            init,
            &mut StdRng::seed_from_u64(2),
        );
        let mut sched = ActorCriticScheduler::new(4, 2, 1, &ControlConfig::test());
        sched.pretrain(&data);
        assert!(sched.agent().train_steps() > 0);
    }
}
