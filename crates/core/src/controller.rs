//! The control loop: offline training and online learning.
//!
//! Offline (paper §3.2.1): "we first collected 10,000 transition samples
//! with random actions for each experimental setup and then pre-trained the
//! actor and critic networks offline." Workload multipliers are varied
//! across samples so agents learn the `w`-dependence their state includes
//! (what makes them "sensitive to the workload change" in Figure 12).
//!
//! Online (Algorithm 1): at each decision epoch the scheduler proposes an
//! assignment, the environment deploys and measures it, the reward is the
//! negative average tuple processing time, and the transition is fed back
//! to the scheduler (a learning scheduler's replay buffer is what training
//! samples from).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dss_metrics::TimeSeries;
use dss_rl::{Elem, Scalar, Transition};
use dss_sim::{Assignment, RuntimeStats, Workload};

use crate::config::ControlConfig;
use crate::env::Environment;
use crate::reward::RewardScale;
use crate::scheduler::{RandomMode, RandomScheduler, Scheduler};
use crate::state::SchedState;

/// One offline sample: `prev` was deployed, `action` replaced it under
/// `workload`, and the system measured `latency_ms` (with the rich `stats`
/// the model-based baseline needs).
#[derive(Debug, Clone)]
pub struct RawSample {
    /// Assignment before the action.
    pub prev: Assignment,
    /// Deployed assignment (the action).
    pub action: Assignment,
    /// Workload in effect.
    pub workload: Workload,
    /// Measured average tuple processing time.
    pub latency_ms: f64,
    /// Detailed statistics snapshot.
    pub stats: RuntimeStats,
}

/// The offline transition dataset plus the conversions each learner needs.
#[derive(Debug, Clone, Default)]
pub struct OfflineDataset {
    /// Collected samples, in chain order.
    pub samples: Vec<RawSample>,
}

impl OfflineDataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Actor-critic transitions: `((X_prev, w), a_onehot, r, (a, w))`.
    pub fn ddpg_transitions(
        &self,
        rate_scale: f64,
        reward: RewardScale,
    ) -> Vec<Transition<Vec<Elem>>> {
        self.samples
            .iter()
            .map(|s| {
                let state = SchedState::new(s.prev.clone(), s.workload.clone());
                let next = SchedState::new(s.action.clone(), s.workload.clone());
                Transition::new(
                    state.features(rate_scale),
                    crate::state::onehot_elems(&s.action),
                    Elem::from_f64(reward.reward(s.latency_ms)),
                    next.features(rate_scale),
                )
            })
            .collect()
    }

    /// DQN transitions: only samples whose action is a *single move*
    /// relative to `prev` fit the restricted action space; others are
    /// skipped (a random-walk collection produces almost exclusively
    /// single-move samples).
    pub fn dqn_transitions(&self, rate_scale: f64, reward: RewardScale) -> Vec<Transition<usize>> {
        self.samples
            .iter()
            .filter_map(|s| {
                let diff = s.prev.diff(&s.action);
                let e = match diff.as_slice() {
                    // A no-op move re-selects the executor's current machine;
                    // encode it against executor 0 deterministically.
                    [] => 0,
                    [e] => *e,
                    _ => return None,
                };
                let m = s.action.machine_of(e);
                let idx =
                    crate::action::encode_move(e, m, s.action.n_executors(), s.action.n_machines());
                let state = SchedState::new(s.prev.clone(), s.workload.clone());
                let next = SchedState::new(s.action.clone(), s.workload.clone());
                Some(Transition::new(
                    state.features(rate_scale),
                    idx,
                    Elem::from_f64(reward.reward(s.latency_ms)),
                    next.features(rate_scale),
                ))
            })
            .collect()
    }
}

/// Drives offline collection and online learning for any [`Scheduler`].
pub struct Controller {
    config: ControlConfig,
    reward: RewardScale,
}

impl Controller {
    /// A controller with the given configuration.
    pub fn new(config: ControlConfig) -> Self {
        Self {
            reward: RewardScale {
                per_ms: config.reward_per_ms,
            },
            config,
        }
    }

    /// The reward scale in force.
    pub fn reward_scale(&self) -> RewardScale {
        self.reward
    }

    /// The configuration in force.
    pub fn config(&self) -> &ControlConfig {
        &self.config
    }

    /// Collects `config.offline_samples` random-action samples, against
    /// any backend (`E` — for the tuple-level [`SimEnv`] backend each
    /// sample is a decision epoch of the *running* engine, workload
    /// mutations applied mid-run).
    ///
    /// `collector` decides the action distribution ([`RandomScheduler`] in
    /// either mode). Workload multipliers are drawn from `[0.6, 1.8]` per
    /// sample so learners see the workload dimension of the state space.
    ///
    /// [`RandomScheduler`]: crate::scheduler::RandomScheduler
    /// [`SimEnv`]: crate::env::SimEnv
    pub fn collect_offline<E: Environment + ?Sized>(
        &self,
        env: &mut E,
        base_workload: &Workload,
        collector: &mut dyn Scheduler,
        initial: Assignment,
        rng: &mut StdRng,
    ) -> OfflineDataset {
        let mut samples = Vec::with_capacity(self.config.offline_samples);
        let mut current = initial;
        for _ in 0..self.config.offline_samples {
            let mult: f64 = rng.random_range(0.6..1.8);
            let workload = base_workload.scaled(mult);
            // A schedule-aware backend measures under its own multiplier
            // on top of the base handed to it; the stored sample must
            // carry the load the latency was actually measured under, or
            // learners would fit labels to mislabeled workload features.
            let observed = workload.scaled(env.workload_multiplier());
            let state = SchedState::new(current.clone(), observed.clone());
            let action = collector.schedule(&state);
            let (latency_ms, stats) = env.deploy_and_measure_stats(&action, &workload);
            samples.push(RawSample {
                prev: current.clone(),
                action: action.clone(),
                workload: observed,
                latency_ms,
                stats,
            });
            current = action;
        }
        OfflineDataset { samples }
    }

    /// The offline phase as every training driver runs it (Algorithm 1's
    /// random collection): [`Controller::collect_offline`] from `initial`
    /// with a [`RandomScheduler`] in `mode` seeded by `config.seed`, and
    /// the workload multipliers drawn from a second stream split off the
    /// same seed. A same-seed environment driven through it twice ends
    /// in the same state, which is what checkpoint resume replays.
    pub fn offline_phase<E: Environment + ?Sized>(
        &self,
        env: &mut E,
        base_workload: &Workload,
        mode: RandomMode,
        initial: Assignment,
    ) -> OfflineDataset {
        let mut collector = RandomScheduler::new(mode, StdRng::seed_from_u64(self.config.seed));
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xE0);
        self.collect_offline(env, base_workload, &mut collector, initial, &mut rng)
    }

    /// One decision epoch of online learning (Algorithm 1's loop body):
    /// schedule → deploy → measure → observe against any backend, from
    /// `current`. Schedule-aware backends are honoured: the state the
    /// scheduler sees carries the workload scaled by
    /// [`Environment::workload_multiplier`], while `workload` stays the
    /// base rate handed to the backend. Pushes epoch `t`'s reward onto
    /// `rewards` and returns the deployed action (the next epoch's
    /// `current`). The loop around it is
    /// [`crate::experiment::train_drl_with`].
    pub fn online_epoch<E: Environment + ?Sized>(
        &self,
        scheduler: &mut dyn Scheduler,
        env: &mut E,
        workload: &Workload,
        current: Assignment,
        t: usize,
        rewards: &mut TimeSeries,
    ) -> Assignment {
        let observed = workload.scaled(env.workload_multiplier());
        let state = SchedState::new(current, observed);
        let action = scheduler.schedule(&state);
        let latency_ms = env.deploy_and_measure(&action, workload);
        let r = self.reward.reward(latency_ms);
        // Re-read the multiplier: the epoch just advanced, so s' must
        // carry the load the *next* decision will be made under, or
        // TD targets bootstrap at a stale workload exactly when the
        // schedule moves.
        let next_observed = workload.scaled(env.workload_multiplier());
        let next_state = SchedState::new(action.clone(), next_observed);
        scheduler.observe(&state, &action, r, &next_state);
        rewards.push(t as f64, r);
        action
    }

    /// Greedy (no-learning) decision: what the trained scheduler deploys.
    pub fn decide(
        &self,
        scheduler: &mut dyn Scheduler,
        current: &Assignment,
        workload: &Workload,
    ) -> Assignment {
        scheduler.schedule(&SchedState::new(current.clone(), workload.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::AnalyticEnv;
    use crate::scheduler::RoundRobinScheduler;
    use dss_sim::{AnalyticModel, ClusterSpec, Grouping, SimConfig, Topology, TopologyBuilder};

    fn topo() -> Topology {
        let mut b = TopologyBuilder::new("t");
        let s = b.spout("s", 2, 0.05);
        let x = b.bolt("x", 4, 0.4);
        b.edge(s, x, Grouping::Shuffle, 1.0, 128);
        b.build().unwrap()
    }

    fn env() -> AnalyticEnv {
        AnalyticEnv::new(
            AnalyticModel::new(
                topo(),
                ClusterSpec::homogeneous(3),
                SimConfig::steady_state(1),
            )
            .unwrap(),
        )
    }

    #[test]
    fn offline_collection_fills_dataset() {
        let ctl = Controller::new(ControlConfig::test());
        let mut env = env();
        let w = Workload::uniform(&topo(), 300.0);
        let mut collector = RandomScheduler::new(RandomMode::FullRandom, StdRng::seed_from_u64(1));
        let init = Assignment::round_robin(&topo(), &ClusterSpec::homogeneous(3));
        let data = ctl.collect_offline(
            &mut env,
            &w,
            &mut collector,
            init,
            &mut StdRng::seed_from_u64(2),
        );
        assert_eq!(data.len(), ControlConfig::test().offline_samples);
        assert!(data.samples.iter().all(|s| s.latency_ms > 0.0));
        // Chain property: each prev is the previous action.
        for pair in data.samples.windows(2) {
            assert_eq!(pair[0].action, pair[1].prev);
        }
        // Workload variation present.
        let rates: Vec<f64> = data
            .samples
            .iter()
            .map(|s| s.workload.total_rate())
            .collect();
        assert!(rates.iter().any(|&r| r < 300.0));
        assert!(rates.iter().any(|&r| r > 300.0));
    }

    #[test]
    fn ddpg_and_dqn_conversions() {
        let ctl = Controller::new(ControlConfig::test());
        let mut env = env();
        let w = Workload::uniform(&topo(), 300.0);
        let init = Assignment::round_robin(&topo(), &ClusterSpec::homogeneous(3));
        let mut walk = RandomScheduler::new(RandomMode::RandomWalk, StdRng::seed_from_u64(3));
        let data =
            ctl.collect_offline(&mut env, &w, &mut walk, init, &mut StdRng::seed_from_u64(4));
        let ddpg = data.ddpg_transitions(1000.0, RewardScale::default());
        assert_eq!(ddpg.len(), data.len());
        assert_eq!(ddpg[0].state.len(), 6 * 3 + 1);
        assert_eq!(ddpg[0].action.len(), 18);
        let dqn = data.dqn_transitions(1000.0, RewardScale::default());
        // Random-walk actions are all single moves (or no-ops).
        assert_eq!(dqn.len(), data.len());
        assert!(dqn.iter().all(|t| t.action < 18));
    }

    #[test]
    fn online_learn_records_rewards() {
        let ctl = Controller::new(ControlConfig::test());
        let mut env = env();
        let w = Workload::uniform(&topo(), 300.0);
        let cluster = ClusterSpec::homogeneous(3);
        let mut sched = RoundRobinScheduler::new(&topo(), &cluster);
        let mut fin = Assignment::round_robin(&topo(), &cluster);
        let mut rewards = TimeSeries::new();
        for t in 0..10 {
            fin = ctl.online_epoch(&mut sched, &mut env, &w, fin, t, &mut rewards);
        }
        assert_eq!(rewards.len(), 10);
        assert!(rewards.values().iter().all(|&r| r < 0.0));
        assert_eq!(fin.as_slice(), &[0, 1, 2, 0, 1, 2]);
    }
}
