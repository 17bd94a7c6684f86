//! The DQN-based baseline (§3.2).
//!
//! To make the assignment problem's `M^N` action space DQN-tractable, the
//! paper restricts each action to *assigning one thread to one machine*
//! (`|A| = N·M`). The Q-network maps a state to one Q-value per such move;
//! ε-greedy selects among them; training is classic DQN with experience
//! replay and a periodically synchronized target network. The paper's point
//! — and this reproduction's Figures 6c/7 — is that this restriction
//! explores the full space poorly at scale.
//!
//! # Hot-path layout
//!
//! [`DqnAgent::train_step`] is the throughput-critical loop of online
//! retraining. It samples slot *indices* from the ring-buffer replay (no
//! transition clones), assembles the minibatch directly into preallocated
//! state/next-state matrices, evaluates all `H` target-Q rows in one
//! batched forward pass, and folds the masked MSE loss/gradient in place —
//! zero heap allocations per step once shapes are warm.

use rand::rngs::StdRng;

use dss_nn::{Activation, Adam, Elem, Matrix, Mlp, Scalar};

use crate::explore::epsilon_greedy;
use crate::replay::ReplayBuffer;
use crate::snapshot::{self, Reader, SnapshotError, Writer};
use crate::transition::Transition;

/// DQN hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DqnConfig {
    /// Discount factor γ.
    pub gamma: f64,
    /// Replay capacity |B|.
    pub replay_capacity: usize,
    /// Mini-batch size H.
    pub batch: usize,
    /// Target-network hard-sync period in train steps (the paper's
    /// "updated every C > 1 epochs").
    pub target_sync_every: u64,
    /// Learning rate.
    pub lr: f64,
    /// Hidden widths (64/32 as in the actor-critic nets).
    pub hidden: [usize; 2],
    /// Seed.
    pub seed: u64,
    /// Double DQN (the paper's reference \[23\]): evaluate the *online*
    /// network's argmax with the *target* network, curbing the max
    /// operator's overestimation bias. Off by default — the paper's
    /// baseline is plain DQN — and exercised by the `double-dqn` ablation.
    pub double: bool,
}

impl Default for DqnConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            replay_capacity: 1000,
            batch: 32,
            target_sync_every: 25,
            lr: 1e-3,
            hidden: [64, 32],
            seed: 42,
            double: false,
        }
    }
}

/// Persistent per-agent minibatch workspace; every buffer is resized in
/// place each step, so steady-state training allocates nothing.
#[derive(Debug, Default)]
struct TrainScratch<S: Scalar> {
    /// Sampled replay slot indices.
    idx: Vec<usize>,
    /// Minibatch states (H × state_dim).
    states: Matrix<S>,
    /// Minibatch next-states (H × state_dim).
    next_states: Matrix<S>,
    /// Per-row argmax of the online net (double DQN only).
    online_argmax: Vec<usize>,
    /// TD targets y_i.
    targets: Vec<S>,
    /// Loss gradient, nonzero only at chosen actions (H × |A|).
    grad: Matrix<S>,
}

/// The DQN agent over single-move actions, generic over the training
/// element type (default [`Elem`] = f32).
pub struct DqnAgent<S: Scalar = Elem> {
    q: Mlp<S>,
    target_q: Mlp<S>,
    opt: Adam<S>,
    replay: ReplayBuffer<usize, S>,
    config: DqnConfig,
    state_dim: usize,
    n_actions: usize,
    train_steps: u64,
    scratch: TrainScratch<S>,
}

impl<S: Scalar> DqnAgent<S> {
    /// Builds an agent with `n_actions = N·M` single-move actions.
    pub fn new(state_dim: usize, n_actions: usize, config: DqnConfig) -> Self {
        assert!(state_dim > 0 && n_actions > 0, "degenerate dimensions");
        let [h1, h2] = config.hidden;
        let q = Mlp::new(
            &[state_dim, h1, h2, n_actions],
            &[Activation::Tanh, Activation::Tanh, Activation::Identity],
            config.seed,
        );
        Self {
            opt: Adam::new(config.lr),
            replay: ReplayBuffer::new(config.replay_capacity),
            target_q: q.clone(),
            q,
            config,
            state_dim,
            n_actions,
            train_steps: 0,
            scratch: TrainScratch::default(),
        }
    }

    /// Number of discrete actions.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Stored transitions.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Training steps performed.
    pub fn train_steps(&self) -> u64 {
        self.train_steps
    }

    /// Serializes every mutable field of the agent — online and target
    /// Q-networks, Adam moments, the replay ring in slot order, and the
    /// train-step counter — into a versioned byte image (see
    /// [`crate::snapshot`]). Together with the caller's RNG state this is
    /// a complete training checkpoint.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.save_state_append(&mut out);
        out
    }

    /// [`DqnAgent::save_state`], appended to a caller-owned buffer so a
    /// periodic checkpoint loop can reuse one scratch allocation for the
    /// replay-ring-dominated image (see [`crate::DdpgAgent::save_state_append`]).
    pub fn save_state_append(&self, out: &mut Vec<u8>) {
        let mut w = Writer::header_in(std::mem::take(out), snapshot::KIND_DQN);
        w.usize(self.state_dim);
        w.usize(self.n_actions);
        w.f64(self.config.gamma);
        w.usize(self.config.replay_capacity);
        w.usize(self.config.batch);
        w.u64(self.config.target_sync_every);
        w.f64(self.config.lr);
        w.usize(self.config.hidden[0]);
        w.usize(self.config.hidden[1]);
        w.u64(self.config.seed);
        w.u8(u8::from(self.config.double));
        w.u64(self.train_steps);
        w.net(&self.q);
        w.net(&self.target_q);
        w.adam(&self.opt);
        snapshot::put_replay(&mut w, &self.replay, |w, &a: &usize| w.usize(a));
        *out = w.buf;
    }

    /// Rebuilds an agent from an image captured by
    /// [`DqnAgent::save_state`]. The restored agent continues the
    /// original's training trajectory bit-for-bit given the same RNG
    /// stream; foreign or corrupt bytes fail with a typed
    /// [`SnapshotError`], never a panic.
    pub fn restore_state(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::open(bytes, snapshot::KIND_DQN)?;
        let state_dim = r.usize()?;
        let n_actions = r.usize()?;
        if state_dim == 0 || n_actions == 0 {
            return Err(SnapshotError::BadStructure("degenerate dimensions"));
        }
        let config = DqnConfig {
            gamma: r.f64()?,
            replay_capacity: r.usize()?,
            batch: r.usize()?,
            target_sync_every: r.u64()?,
            lr: r.f64()?,
            hidden: [r.usize()?, r.usize()?],
            seed: r.u64()?,
            double: r.u8()? != 0,
        };
        let lr_ok = |lr: f64| lr.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if config.replay_capacity == 0 || !lr_ok(config.lr) || config.target_sync_every == 0 {
            return Err(SnapshotError::BadStructure("invalid hyperparameters"));
        }
        let train_steps = r.u64()?;
        let q: Mlp<S> = r.net()?;
        let target_q: Mlp<S> = r.net()?;
        let shapes_ok = q.input_size() == state_dim
            && q.output_size() == n_actions
            && snapshot::same_layers(&target_q, &q);
        if !shapes_ok {
            return Err(SnapshotError::BadStructure("network shape mismatch"));
        }
        let opt = r.adam(config.lr)?;
        let replay = snapshot::get_replay(&mut r, state_dim, |r| {
            let a = r.usize()?;
            if a >= n_actions {
                return Err(SnapshotError::BadStructure("stored action out of range"));
            }
            Ok(a)
        })?;
        r.done()?;
        Ok(Self {
            q,
            target_q,
            opt,
            replay,
            config,
            state_dim,
            n_actions,
            train_steps,
            scratch: TrainScratch::default(),
        })
    }

    /// Q-values for all actions in `state`.
    pub fn q_values(&self, state: &[S]) -> Vec<S> {
        assert_eq!(state.len(), self.state_dim, "state width");
        self.q.infer_one(state)
    }

    /// ε-greedy action selection.
    pub fn select_action(&self, state: &[S], eps: f64, rng: &mut StdRng) -> usize {
        epsilon_greedy(&self.q_values(state), eps, rng)
    }

    /// Stores an experience sample.
    pub fn store(&mut self, t: Transition<usize, S>) {
        assert_eq!(t.state.len(), self.state_dim, "state width");
        assert!(t.action < self.n_actions, "action index out of range");
        self.replay.push(t);
    }

    /// One DQN training step; returns the TD loss, or `None` when no data.
    ///
    /// Allocation-free once warm: index-based replay sampling, minibatch
    /// assembly into persistent matrices, and a single batched forward for
    /// all `H` target-Q evaluations.
    pub fn train_step(&mut self, rng: &mut StdRng) -> Option<f64> {
        if self.replay.is_empty() {
            return None;
        }
        let scratch = &mut self.scratch;
        self.replay
            .sample_indices_into(self.config.batch, rng, &mut scratch.idx);
        let h = scratch.idx.len();

        // Assemble the minibatch straight into the persistent matrices.
        scratch.states.resize(h, self.state_dim);
        scratch.next_states.resize(h, self.state_dim);
        for (r, &slot) in scratch.idx.iter().enumerate() {
            let t = self.replay.get(slot);
            scratch.states.row_mut(r).copy_from_slice(&t.state);
            scratch
                .next_states
                .row_mut(r)
                .copy_from_slice(&t.next_state);
        }

        // TD targets from the frozen target network — one batched forward
        // for the whole minibatch. Plain DQN takes the target net's own
        // max; double DQN selects with the online net and evaluates with
        // the target net (two batched forwards, still no per-sample calls).
        if self.config.double {
            let online = self.q.forward(&scratch.next_states);
            scratch.online_argmax.clear();
            scratch.online_argmax.extend((0..h).map(|r| {
                let row = online.row(r);
                (0..row.len())
                    .max_by(|&a, &b| row[a].partial_cmp(&row[b]).expect("NaN Q"))
                    .expect("non-empty action set")
            }));
        }
        let next_q = self.target_q.forward(&scratch.next_states);
        scratch.targets.clear();
        let gamma = S::from_f64(self.config.gamma);
        for r in 0..h {
            let best = if self.config.double {
                next_q[(r, scratch.online_argmax[r])]
            } else {
                next_q.row(r).iter().copied().fold(S::NEG_INFINITY, S::max)
            };
            let reward = self.replay.get(scratch.idx[r]).reward;
            scratch.targets.push(reward + gamma * best);
        }

        // Forward on the online net, then fold the masked MSE in place:
        // only the chosen action's Q contributes, so the full gradient is
        // zero except at (r, action_r). Matches `mse_loss_grad` over the
        // H×1 chosen-Q column: loss = Σd²/H, grad = 2d/H.
        let pred = self.q.forward(&scratch.states);
        scratch.grad.resize(h, self.n_actions);
        scratch.grad.data_mut().fill(S::ZERO);
        let grad_scale = S::from_f64(2.0 / h as f64);
        let mut loss = 0.0f64;
        for r in 0..h {
            let action = self.replay.get(scratch.idx[r]).action;
            let d = pred[(r, action)] - scratch.targets[r];
            loss += d.to_f64() * d.to_f64();
            scratch.grad[(r, action)] = grad_scale * d;
        }
        loss /= h as f64;

        self.q.zero_grad();
        self.q.backward(&scratch.grad);
        self.q.apply_gradients(&mut self.opt);

        self.train_steps += 1;
        if self
            .train_steps
            .is_multiple_of(self.config.target_sync_every)
        {
            self.target_q.copy_params_from(&self.q);
        }
        Some(loss)
    }

    /// Offline pre-training on the full historical sample set, then seeds
    /// the bounded online buffer with the most recent `|B|` samples.
    pub fn pretrain(&mut self, samples: Vec<Transition<usize, S>>, steps: usize, rng: &mut StdRng) {
        if samples.is_empty() {
            return;
        }
        self.replay = ReplayBuffer::new(samples.len().max(1));
        for s in samples {
            self.store(s);
        }
        for _ in 0..steps {
            self.train_step(rng);
        }
        let mut online = ReplayBuffer::new(self.config.replay_capacity);
        let skip = self
            .replay
            .len()
            .saturating_sub(self.config.replay_capacity);
        for t in self.replay.iter().skip(skip) {
            online.push(t.clone());
        }
        self.replay = online;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};

    fn config() -> DqnConfig {
        DqnConfig {
            replay_capacity: 512,
            batch: 16,
            lr: 5e-3,
            hidden: [16, 8],
            seed: 5,
            ..DqnConfig::default()
        }
    }

    #[test]
    fn q_values_shape() {
        let agent = DqnAgent::new(3, 6, config());
        assert_eq!(agent.q_values(&[0.1, 0.2, 0.3]).len(), 6);
        assert_eq!(agent.n_actions(), 6);
        // The target starts as an exact copy of the online network.
        let params = |net: &Mlp<f64>| -> Vec<u64> {
            let layers = net.layers().iter().flat_map(|l| l.params());
            layers.flat_map(|p| p.iter().map(|v| v.to_bits())).collect()
        };
        assert_eq!(params(&agent.target_q), params(&agent.q));
    }

    #[test]
    fn learns_bandit_preference() {
        // Contextual bandit: action 2 always pays 1, others 0.
        let mut agent = DqnAgent::new(2, 4, config());
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..400 {
            let a = rng.random_range(0..4);
            let r = if a == 2 { 1.0 } else { 0.0 };
            agent.store(Transition::new(vec![0.3, 0.7], a, r, vec![0.3, 0.7]));
            agent.train_step(&mut rng);
        }
        let q = agent.q_values(&[0.3, 0.7]);
        let best = q
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 2, "Q-values {q:?}");
    }

    #[test]
    fn epsilon_one_explores() {
        let agent = DqnAgent::new(2, 8, config());
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(agent.select_action(&[0.0, 0.0], 1.0, &mut rng));
        }
        assert!(seen.len() >= 6, "explored {seen:?}");
    }

    #[test]
    fn target_sync_counts_steps() {
        let mut agent = DqnAgent::new(1, 2, config());
        let mut rng = StdRng::seed_from_u64(3);
        agent.store(Transition::new(vec![0.0], 0, 1.0, vec![0.0]));
        for _ in 0..30 {
            agent.train_step(&mut rng);
        }
        assert_eq!(agent.train_steps(), 30);
    }

    #[test]
    fn double_dqn_learns_the_same_bandit() {
        let mut agent = DqnAgent::new(
            2,
            4,
            DqnConfig {
                double: true,
                ..config()
            },
        );
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..400 {
            let a = rng.random_range(0..4);
            let r = if a == 1 { 1.0 } else { 0.0 };
            agent.store(Transition::new(vec![0.3, 0.7], a, r, vec![0.3, 0.7]));
            agent.train_step(&mut rng);
        }
        let q = agent.q_values(&[0.3, 0.7]);
        let best = q
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 1, "Q-values {q:?}");
    }

    #[test]
    fn double_dqn_overestimates_less_on_noisy_rewards() {
        // All actions pay noisy zero-mean rewards; max-Q overestimates,
        // and double-Q should overestimate no more than plain DQN.
        let estimate = |double: bool| -> f64 {
            let mut agent = DqnAgent::new(
                1,
                8,
                DqnConfig {
                    double,
                    gamma: 0.9,
                    ..config()
                },
            );
            let mut rng = StdRng::seed_from_u64(77);
            for _ in 0..600 {
                let a = rng.random_range(0..8);
                let r = rng.random_range(-1.0..1.0); // zero mean
                agent.store(Transition::new(vec![0.0], a, r, vec![0.0]));
                agent.train_step(&mut rng);
            }
            agent
                .q_values(&[0.0])
                .into_iter()
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let plain = estimate(false);
        let double = estimate(true);
        // True value is 0; both overshoot, double should not overshoot more.
        assert!(double <= plain + 0.05, "double {double} vs plain {plain}");
    }

    #[test]
    fn snapshot_round_trip_continues_training_bit_identically() {
        // Train past the replay wrap AND a target sync, snapshot, then run
        // original and restored in RNG lockstep: every Q-value must stay
        // bit-equal through further training. One snapshot lands on a
        // sync step and one between syncs, where the target network
        // differs from the online one and must come from the image.
        let sync_every = 5;
        let mut phases = Vec::new();
        for warmup in [40, 42] {
            let mut agent = DqnAgent::new(
                3,
                4,
                DqnConfig {
                    replay_capacity: 16,
                    batch: 8,
                    target_sync_every: sync_every,
                    hidden: [8, 6],
                    seed: 21,
                    ..DqnConfig::default()
                },
            );
            let e = Elem::from_f64;
            let mut rng = StdRng::seed_from_u64(31);
            for i in 0..warmup {
                let a = i % 4;
                agent.store(Transition::new(
                    vec![e(0.1 * i as f64), e(-0.2), e(0.3)],
                    a,
                    e(i as f64 * 0.01 - 0.1),
                    vec![e(0.1 * (i + 1) as f64), e(-0.2), e(0.3)],
                ));
                agent.train_step(&mut rng);
            }
            phases.push(agent.train_steps() % sync_every);
            let image = agent.save_state();
            let mut restored: DqnAgent = DqnAgent::restore_state(&image).unwrap();
            assert_eq!(restored.train_steps(), agent.train_steps());
            assert_eq!(restored.replay_len(), agent.replay_len());

            let mut rng_b = StdRng::from_state(rng.state());
            for i in 0..25 {
                let t = Transition::new(
                    vec![e(0.05 * i as f64), e(0.4), e(-0.3)],
                    (i + 1) % 4,
                    e(-0.2),
                    vec![e(0.05 * (i + 1) as f64), e(0.4), e(-0.3)],
                );
                agent.store(t.clone());
                restored.store(t);
                agent.train_step(&mut rng);
                restored.train_step(&mut rng_b);
            }
            let qa = agent.q_values(&[e(0.2), e(-0.1), e(0.7)]);
            let qb = restored.q_values(&[e(0.2), e(-0.1), e(0.7)]);
            for (a, b) in qa.iter().zip(&qb) {
                assert_eq!(a.to_f64().to_bits(), b.to_f64().to_bits());
            }
        }
        assert!(phases.contains(&0), "no snapshot on a sync: {phases:?}");
        assert!(
            phases.iter().any(|&p| p != 0),
            "no snapshot between syncs: {phases:?}"
        );
    }

    #[test]
    fn restore_state_compares_target_layers_not_parameter_counts() {
        use crate::snapshot::SnapshotError;
        // 3→4→4→6 and 3→6→6 both hold 66 parameters.
        let mut agent: DqnAgent = DqnAgent::new(
            3,
            6,
            DqnConfig {
                hidden: [4, 4],
                ..config()
            },
        );
        agent.target_q = Mlp::new(&[3, 6, 6], &[Activation::Tanh, Activation::Identity], 1);
        assert_eq!(agent.target_q.param_count(), agent.q.param_count());
        assert!(matches!(
            DqnAgent::<Elem>::restore_state(&agent.save_state()),
            Err(SnapshotError::BadStructure(_))
        ));
    }

    #[test]
    fn snapshot_rejects_foreign_and_corrupt_bytes() {
        use crate::snapshot::SnapshotError;
        let agent: DqnAgent = DqnAgent::new(2, 3, config());
        let image = agent.save_state();
        assert!(matches!(
            DqnAgent::<Elem>::restore_state(b"junk"),
            Err(SnapshotError::Truncated | SnapshotError::BadMagic)
        ));
        // A DDPG image must not decode as a DQN agent.
        let ddpg = crate::DdpgAgent::<Elem>::new(2, 3, crate::DdpgConfig::default()).save_state();
        assert!(matches!(
            DqnAgent::<Elem>::restore_state(&ddpg),
            Err(SnapshotError::WrongKind(1))
        ));
        // Truncation anywhere is a typed error, never a panic.
        for cut in [7, 20, 100, image.len() - 1] {
            assert!(DqnAgent::<Elem>::restore_state(&image[..cut]).is_err());
        }
    }

    #[test]
    fn rejects_bad_action_index() {
        let mut agent = DqnAgent::new(1, 2, config());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            agent.store(Transition::new(vec![0.0], 5, 0.0, vec![0.0]));
        }));
        assert!(result.is_err());
    }
}
