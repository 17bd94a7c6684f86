//! The continuous learner: drains the bounded queue into the sharded
//! replay (staleness-gated), trains off it between and during pushes, and
//! republishes the policy to the parameter server.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dss_core::action::choice_to_assignment;
use dss_core::config::ControlConfig;
use dss_core::controller::OfflineDataset;
use dss_core::reward::RewardScale;
use dss_core::state::{featurize_into, SchedState};
use dss_metrics::TimeSeries;
use dss_rl::{
    ActScratch, DdpgAgent, DdpgConfig, Elem, ScalableMapper, Scalar, ShardedReplayBuffer,
};
use dss_sim::{Assignment, Workload};

use crate::batch::TransitionRows;
use crate::ps::ParameterServer;
use crate::queue::BoundedQueue;
use crate::stats::SharedStats;

/// Best-rewarded pushed actions remembered for the final decision — the
/// async twin of the actor-critic scheduler's elite memory.
const ELITE_SIZE: usize = 12;

/// Owns the training agent, the sharded replay, and the publish loop.
///
/// The staleness gate runs **before** anything else touches learner
/// state: a dropped batch consumes no RNG draws and writes no replay
/// rows, so filtering stale experience can never perturb the training
/// trajectory of the surviving stream (unit-tested below).
pub struct Learner {
    agent: DdpgAgent,
    mapper: ScalableMapper,
    rng: StdRng,
    replay: Arc<ShardedReplayBuffer<Elem>>,
    ps: Arc<ParameterServer>,
    stats: Arc<SharedStats>,
    max_version_lag: u64,
    publish_every: u64,
    rollout_quant: bool,
    next_shard: usize,
    n_machines: usize,
    rate_scale: f64,
    reward: RewardScale,
    offline_steps: usize,
    rewards: TimeSeries,
    /// `(reward, action)` of the best pushed transitions, ascending.
    elite: Vec<(f64, Assignment)>,
    row_state: Vec<Elem>,
    row_action: Vec<Elem>,
    row_next: Vec<Elem>,
}

impl Learner {
    /// Builds the learner for a problem shape. The agent is constructed
    /// exactly like [`dss_core::scheduler::ActorCriticScheduler`]'s
    /// (same `DdpgConfig` derivation, same seed), so lockstep and async
    /// modes optimize the same model family.
    ///
    /// # Panics
    /// Panics when `replay`'s row widths disagree with the problem shape
    /// or `publish_every` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: &ControlConfig,
        n_executors: usize,
        n_machines: usize,
        n_sources: usize,
        replay: Arc<ShardedReplayBuffer<Elem>>,
        ps: Arc<ParameterServer>,
        stats: Arc<SharedStats>,
        max_version_lag: u64,
        publish_every: u64,
    ) -> Self {
        let state_dim = SchedState::feature_dim(n_executors, n_machines, n_sources);
        let action_dim = n_executors * n_machines;
        assert_eq!(replay.state_dim(), state_dim, "replay state width");
        assert_eq!(replay.action_dim(), action_dim, "replay action width");
        assert!(publish_every > 0, "publish period must be positive");
        let agent = DdpgAgent::new(
            state_dim,
            action_dim,
            DdpgConfig {
                k: cfg.k,
                seed: cfg.seed,
                gamma: cfg.gamma,
                ..DdpgConfig::default()
            },
        );
        Self {
            agent,
            mapper: ScalableMapper::from_knobs(
                n_executors,
                n_machines,
                cfg.mapper_groups,
                cfg.mapper_prune,
            ),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xAC),
            replay,
            ps,
            stats,
            max_version_lag,
            publish_every,
            rollout_quant: cfg.rollout_quant,
            next_shard: 0,
            n_machines,
            rate_scale: cfg.rate_scale,
            reward: RewardScale {
                per_ms: cfg.reward_per_ms,
            },
            offline_steps: cfg.offline_steps,
            rewards: TimeSeries::new(),
            elite: Vec::new(),
            row_state: Vec::new(),
            row_action: Vec::new(),
            row_next: Vec::new(),
        }
    }

    /// The training agent.
    pub fn agent(&self) -> &DdpgAgent {
        &self.agent
    }

    /// Per-batch mean rewards in arrival order.
    pub fn rewards(&self) -> &TimeSeries {
        &self.rewards
    }

    /// Serializes the current policy and installs it on the parameter
    /// server; returns the new version. Under `rollout_quant` it also
    /// derives and installs the quantized rollout companion (the learner
    /// itself keeps training in full precision — quantization happens
    /// only at the publish boundary).
    pub fn publish(&mut self) -> u64 {
        let version = if self.rollout_quant {
            self.ps.publish_pair(
                self.agent.save_policy(),
                self.agent.rollout_quant_policy().encode(),
            )
        } else {
            self.ps.publish(self.agent.save_policy())
        };
        self.stats.set_weight_version(version);
        version
    }

    /// Seeds the agent and elite memory from an offline dataset — the
    /// same pretraining [`dss_core::scheduler::ActorCriticScheduler`]
    /// runs before its online phase, so async runs start from the
    /// paper's offline policy rather than random networks.
    pub fn pretrain(&mut self, dataset: &OfflineDataset) {
        for s in &dataset.samples {
            let r = self.reward.reward(s.latency_ms);
            self.remember_elite(r, s.action.clone());
        }
        let transitions = dataset.ddpg_transitions(self.rate_scale, self.reward);
        self.agent.pretrain(
            transitions,
            self.offline_steps,
            &mut self.mapper,
            &mut self.rng,
        );
    }

    /// Ingests one batch into the replay. The staleness gate comes
    /// first: a batch collected more than `max_version_lag` publishes
    /// ago is counted and dropped before any replay write or RNG use.
    /// Returns whether the batch was accepted.
    pub fn ingest(&mut self, batch: &TransitionRows) -> bool {
        assert_eq!(
            batch.state_dim,
            self.replay.state_dim(),
            "batch state width"
        );
        assert_eq!(
            batch.action_dim,
            self.replay.action_dim(),
            "batch action width"
        );
        let lag = self.ps.version().saturating_sub(batch.version);
        if lag > self.max_version_lag {
            self.stats.record_stale(batch.rows() as u64);
            return false;
        }
        let (sd, ad) = (batch.state_dim, batch.action_dim);
        let mut best: Option<(f64, usize)> = None;
        for row in 0..batch.rows() {
            narrow_into(&batch.states[row * sd..(row + 1) * sd], &mut self.row_state);
            narrow_into(
                &batch.actions[row * ad..(row + 1) * ad],
                &mut self.row_action,
            );
            narrow_into(
                &batch.next_states[row * sd..(row + 1) * sd],
                &mut self.row_next,
            );
            let r = batch.rewards[row];
            self.replay.push_rows(
                self.next_shard,
                &self.row_state,
                &self.row_action,
                Elem::from_f64(r),
                &self.row_next,
            );
            if best.is_none_or(|(br, _)| r > br) {
                best = Some((r, row));
            }
        }
        if let Some((r, row)) = best {
            let action = &batch.actions[row * ad..(row + 1) * ad];
            self.remember_elite(r, assignment_from_onehot(action, self.n_machines));
        }
        if !batch.is_empty() {
            self.next_shard = (self.next_shard + 1) % self.replay.n_shards();
            let mean = batch.rewards.iter().sum::<f64>() / batch.rows() as f64;
            self.rewards.push(self.rewards.len() as f64, mean);
        }
        self.stats.record_accepted(lag, batch.rows() as u64);
        true
    }

    fn remember_elite(&mut self, reward: f64, action: Assignment) {
        if self.elite.iter().any(|(_, a)| *a == action) {
            return;
        }
        let pos = self.elite.partition_point(|(r, _)| *r < reward);
        self.elite.insert(pos, (reward, action));
        if self.elite.len() > ELITE_SIZE {
            self.elite.remove(0);
        }
    }

    /// One minibatch update off the replay (None while it is empty),
    /// with the training window flagged for overlap accounting and a
    /// policy publish every `publish_every` completed steps.
    pub fn train_once(&mut self) -> Option<f64> {
        self.stats.set_training(true);
        let loss = self
            .agent
            .train_step_from(&self.replay, &mut self.mapper, &mut self.rng);
        self.stats.set_training(false);
        if loss.is_some() {
            let steps = self.stats.add_train_step();
            if steps.is_multiple_of(self.publish_every) {
                self.publish();
            }
        }
        loss
    }

    /// The continuous loop: drain batches as they arrive, train between
    /// (and without) them, and stop once every worker is done and the
    /// queue has drained. Publishes a final policy on exit.
    pub fn drive(
        &mut self,
        queue: &BoundedQueue<TransitionRows>,
        live_workers: &AtomicUsize,
        train_per_batch: usize,
    ) {
        loop {
            match queue.pop_timeout(Duration::from_millis(2)) {
                Some(batch) => {
                    self.ingest(&batch);
                    for _ in 0..train_per_batch {
                        self.train_once();
                    }
                }
                None => {
                    if live_workers.load(Ordering::Acquire) == 0 && queue.is_empty() {
                        break;
                    }
                    // Idle on the queue but not on the replay: keep
                    // optimizing — this is the "learner never waits for
                    // collection" half of the overlap.
                    self.train_once();
                }
            }
        }
        self.publish();
    }

    /// Greedy final decision: the actor's proto-action mapped through the
    /// K-NN candidates plus the elite memory of best pushed actions, all
    /// ranked by the trained critic in one
    /// [`DdpgAgent::select_action_among`] call — the same decision the
    /// frozen actor-critic scheduler takes.
    pub fn finalize(&mut self, initial: &Assignment, workload: &Workload) -> Assignment {
        let mut features = Vec::new();
        featurize_into(initial, workload, self.rate_scale, &mut features);
        let mut act = ActScratch::default();
        let (best, _) = self.agent.select_action_among(
            &features,
            &mut self.mapper,
            0.0,
            &mut self.rng,
            self.elite.iter().map(|(_, a)| a.as_slice()),
            &mut act,
        );
        match best.checked_sub(act.cands.len()) {
            Some(elite) => self.elite[elite].1.clone(),
            None => choice_to_assignment(&act.cands[best].choice, self.n_machines)
                .expect("mapper candidates are feasible"),
        }
    }

    /// [`Learner::finalize`] plus a measured validation sweep: the
    /// critic's greedy pick and the best-measured elite actions are each
    /// deployed on `env` (a private validation environment) and the one
    /// with the lowest observed latency wins. Model-free final selection
    /// — the critic proposes, the environment disposes.
    pub fn finalize_measured<E: dss_core::env::Environment + ?Sized>(
        &mut self,
        env: &mut E,
        initial: &Assignment,
        workload: &Workload,
    ) -> Assignment {
        let mut candidates = vec![self.finalize(initial, workload)];
        for (_, a) in self.elite.iter().rev() {
            if !candidates.contains(a) {
                candidates.push(a.clone());
            }
        }
        candidates
            .into_iter()
            .map(|a| {
                // Deploy twice: the first epoch pays the migration
                // transient, the second reads steady state — training
                // rewards are transient-polluted, validation must not be.
                env.deploy_and_measure(&a, workload);
                let ms = env.deploy_and_measure(&a, workload);
                (ms, a)
            })
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite latency"))
            .expect("at least one candidate")
            .1
    }
}

/// Narrows a wire `f64` row back to [`Elem`] (exact inverse of the
/// widening done on push).
fn narrow_into(row: &[f64], out: &mut Vec<Elem>) {
    out.clear();
    out.extend(row.iter().map(|&x| Elem::from_f64(x)));
}

/// Decodes a one-hot full-assignment action row (executor-major `N × M`
/// blocks, wire `f64`) back into an [`Assignment`].
fn assignment_from_onehot(onehot: &[f64], n_machines: usize) -> Assignment {
    let n = onehot.len() / n_machines;
    let choice: Vec<usize> = (0..n)
        .map(|e| {
            let row = &onehot[e * n_machines..(e + 1) * n_machines];
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite one-hot"))
                .map(|(m, _)| m)
                .unwrap_or(0)
        })
        .collect();
    choice_to_assignment(&choice, n_machines).expect("one-hot rows decode to valid assignments")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> (usize, usize, usize) {
        (4, 2, 1) // n executors, m machines, sources
    }

    fn learner(max_version_lag: u64) -> Learner {
        let cfg = ControlConfig::test();
        let (n, m, s) = shape();
        let state_dim = SchedState::feature_dim(n, m, s);
        let replay = Arc::new(ShardedReplayBuffer::new(2, 128, state_dim, n * m));
        Learner::new(
            &cfg,
            n,
            m,
            s,
            replay,
            Arc::new(ParameterServer::new()),
            Arc::new(SharedStats::new()),
            max_version_lag,
            4,
        )
    }

    /// A deterministic synthetic batch stamped with `version`.
    fn synth_batch(version: u64, rows: usize, salt: f64) -> TransitionRows {
        let (n, m, s) = shape();
        let state_dim = SchedState::feature_dim(n, m, s);
        let mut batch = TransitionRows::new(version, state_dim, n * m);
        for row in 0..rows {
            let f = |i: usize| Elem::from_f64(((row * 7 + i) as f64 * 0.13 + salt).sin());
            let state: Vec<Elem> = (0..state_dim).map(f).collect();
            let next: Vec<Elem> = (0..state_dim).map(|i| f(i + 3)).collect();
            let mut action = vec![Elem::from_f64(0.0); n * m];
            for e in 0..n {
                action[e * m + (row + e) % m] = Elem::from_f64(1.0);
            }
            batch.push_row(&state, &action, -1.0 - row as f64 * 0.25, &next);
        }
        batch
    }

    #[test]
    fn stale_batches_are_counted_and_dropped_without_touching_the_rng() {
        // Two identical learners; B additionally receives a stale batch
        // between the shared fresh batch and training. If the staleness
        // gate consumed RNG draws or wrote replay rows, B's subsequent
        // losses would diverge from A's.
        let run = |inject_stale: bool| {
            let mut l = learner(0); // drop anything older than current
            l.publish(); // v1
            let fresh = synth_batch(l.ps.version(), 6, 0.0);
            assert!(l.ingest(&fresh));
            if inject_stale {
                l.publish(); // v2: the next batch is one version behind
                let stale = synth_batch(1, 6, 9.0);
                assert!(!l.ingest(&stale), "lagged batch must be dropped");
                assert_eq!(l.stats.dropped_stale(), 6);
            }
            let losses: Vec<u64> = (0..4)
                .map(|_| l.train_once().expect("replay is non-empty").to_bits())
                .collect();
            losses
        };
        assert_eq!(
            run(false),
            run(true),
            "dropping stale experience must not perturb the learner's trajectory"
        );
    }

    #[test]
    fn accepted_batches_land_in_the_replay_and_publish_rotates_versions() {
        let mut l = learner(u64::MAX);
        assert_eq!(l.publish(), 1);
        let batch = synth_batch(1, 5, 0.5);
        assert!(l.ingest(&batch));
        assert_eq!(l.replay.len(), 5);
        assert_eq!(l.stats.transitions(), 5);
        assert_eq!(l.stats.mean_version_lag(), 0.0);
        // Training publishes every `publish_every` (= 4) steps.
        for _ in 0..4 {
            l.train_once().unwrap();
        }
        assert_eq!(l.ps.version(), 2);
        assert_eq!(l.stats.weight_version(), 2);
    }

    #[test]
    fn finalize_returns_a_feasible_assignment() {
        let mut l = learner(u64::MAX);
        l.publish();
        let batch = synth_batch(1, 8, 0.25);
        l.ingest(&batch);
        for _ in 0..3 {
            l.train_once();
        }
        let (n, m, _) = shape();
        let mut b = dss_sim::TopologyBuilder::new("t");
        let spout = b.spout("s", 1, 0.05);
        let bolt = b.bolt("x", 3, 0.2);
        b.edge(spout, bolt, dss_sim::Grouping::Shuffle, 1.0, 64);
        let topology = b.build().unwrap();
        let cluster = dss_sim::ClusterSpec::homogeneous(m);
        let initial = Assignment::round_robin(&topology, &cluster);
        let workload = Workload::uniform(&topology, 100.0);
        let solution = l.finalize(&initial, &workload);
        assert_eq!(solution.as_slice().len(), n);
        assert!(solution.as_slice().iter().all(|&mac| mac < m));
    }
}
