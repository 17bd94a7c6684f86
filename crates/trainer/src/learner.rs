//! The continuous learner: drains the bounded queue into the sharded
//! replay (staleness-gated), trains off it between and during pushes, and
//! republishes the policy to the parameter server.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dss_core::action::choice_to_assignment;
use dss_core::config::ControlConfig;
use dss_core::controller::OfflineDataset;
use dss_core::scheduler::{ActorCriticScheduler, Scheduler};
use dss_core::state::SchedState;
use dss_metrics::TimeSeries;
use dss_rl::{DdpgAgent, Elem, Scalar, ShardedReplayBuffer};
use dss_sim::{Assignment, Workload};

use crate::batch::TransitionRows;
use crate::ps::ParameterServer;
use crate::queue::BoundedQueue;
use crate::stats::SharedStats;

/// Owns the training scheduler, the sharded replay, and the publish loop.
///
/// The agent core — networks, mapper, RNG, elite memory, pretraining and
/// the greedy final decision — is the [`ActorCriticScheduler`] the
/// lockstep drivers train; the learner only changes where transitions
/// come from (worker batches in a sharded replay instead of `observe`)
/// and where the policy goes (the parameter server).
///
/// The ingest gates run **before** anything else touches learner state:
/// a dropped batch consumes no RNG draws and writes no replay rows, so
/// filtering stale or misshapen experience can never perturb the
/// training trajectory of the surviving stream (unit-tested below).
pub struct Learner {
    sched: ActorCriticScheduler,
    replay: Arc<ShardedReplayBuffer<Elem>>,
    ps: Arc<ParameterServer>,
    stats: Arc<SharedStats>,
    max_version_lag: u64,
    publish_every: u64,
    rollout_quant: bool,
    next_shard: usize,
    n_machines: usize,
    rewards: TimeSeries,
    row_state: Vec<Elem>,
    row_action: Vec<Elem>,
    row_next: Vec<Elem>,
}

impl Learner {
    /// Builds the learner for a problem shape.
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
        Self {
            sched: ActorCriticScheduler::new(n_executors, n_machines, n_sources, cfg),
            replay,
            ps,
            stats,
            max_version_lag,
            publish_every,
            rollout_quant: cfg.rollout_quant,
            next_shard: 0,
            n_machines,
            rewards: TimeSeries::new(),
            row_state: Vec::new(),
            row_action: Vec::new(),
            row_next: Vec::new(),
        }
    }

    /// The training agent.
    pub fn agent(&self) -> &DdpgAgent {
        self.sched.agent()
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
        let agent = self.sched.agent();
        let version = if self.rollout_quant {
            self.ps
                .publish_pair(agent.save_policy(), agent.rollout_quant_policy().encode())
        } else {
            self.ps.publish(agent.save_policy())
        };
        self.stats.set_weight_version(version);
        version
    }

    /// Seeds the agent and elite memory from an offline dataset — the
    /// scheduler's own pretraining, so async runs start from the paper's
    /// offline policy rather than random networks.
    pub fn pretrain(&mut self, dataset: &OfflineDataset) {
        self.sched.pretrain(dataset);
    }

    /// Ingests one batch into the replay. Two gates come first; a batch
    /// either drops is counted and touches neither replay nor RNG: row
    /// widths that are not this learner's (a remote worker started for a
    /// differently shaped scenario — the frame decoder only checks a
    /// batch against itself), and collection more than `max_version_lag`
    /// publishes ago. Returns whether the batch was accepted.
    pub fn ingest(&mut self, batch: &TransitionRows) -> bool {
        if (batch.state_dim, batch.action_dim)
            != (self.replay.state_dim(), self.replay.action_dim())
        {
            self.stats.record_misshapen(batch.rows() as u64);
            return false;
        }
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
            self.sched
                .remember_elite(r, &assignment_from_onehot(action, self.n_machines));
        }
        if !batch.is_empty() {
            self.next_shard = (self.next_shard + 1) % self.replay.n_shards();
            let mean = batch.rewards.iter().sum::<f64>() / batch.rows() as f64;
            self.rewards.push(self.rewards.len() as f64, mean);
        }
        self.stats.record_accepted(lag, batch.rows() as u64);
        true
    }

    /// One minibatch update off the replay (None while it is empty),
    /// with the training window flagged for overlap accounting and a
    /// policy publish every `publish_every` completed steps.
    pub fn train_once(&mut self) -> Option<f64> {
        self.stats.set_training(true);
        let loss = self.sched.train_step_from(&self.replay);
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
    /// (and without) them, and stop once `live_workers` is zero and the
    /// queue has drained. Publishes a final policy on exit. The count
    /// must fall only when a worker's batches are all in the queue — for
    /// a remote worker, when its serving thread returns, not when the
    /// worker does.
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

    /// Greedy final decision — the frozen scheduler's: the actor's
    /// proto-action mapped through the K-NN candidates plus the elite
    /// memory of best pushed actions, all ranked by the trained critic.
    pub fn finalize(&mut self, initial: &Assignment, workload: &Workload) -> Assignment {
        self.sched.freeze();
        self.sched
            .schedule(&SchedState::new(initial.clone(), workload.clone()))
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
        for (_, a) in self.sched.elite().iter().rev() {
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
        synth_batch_of(shape(), version, rows, salt)
    }

    fn synth_batch_of(
        (n, m, s): (usize, usize, usize),
        version: u64,
        rows: usize,
        salt: f64,
    ) -> TransitionRows {
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
    fn misshapen_batches_are_counted_and_dropped_without_touching_the_rng() {
        // As above, but B's extra batch comes from a worker collecting
        // for a scenario with one more executor: self-consistent (the
        // frame decoder accepts it), just not this learner's shape.
        let run = |inject_foreign: bool| {
            let mut l = learner(u64::MAX);
            l.publish();
            assert!(l.ingest(&synth_batch(1, 6, 0.0)));
            if inject_foreign {
                let (n, m, s) = shape();
                let foreign = synth_batch_of((n + 1, m, s), 1, 5, 9.0);
                assert!(!l.ingest(&foreign), "foreign batch must be dropped");
                assert_eq!(l.stats.dropped_misshapen(), 5);
                assert_eq!(l.stats.transitions(), 6);
                assert_eq!(l.replay.len(), 6);
            }
            let losses: Vec<u64> = (0..4)
                .map(|_| l.train_once().expect("replay is non-empty").to_bits())
                .collect();
            losses
        };
        assert_eq!(
            run(false),
            run(true),
            "dropping a foreign batch must not perturb the learner's trajectory"
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
