//! The paper's actor-critic method (Algorithm 1).
//!
//! Actor `f(s; θπ)` → proto-action; MIQP-NN mapper → K nearest feasible
//! actions; critic `Q(s, a; θQ)` picks the best. Training uses experience
//! replay, target networks with soft updates, the critic MSE target
//! `y_i = r_i + γ · max_{a ∈ A_{i+1,K}} Q'(s_{i+1}, a)`, and the
//! deterministic policy gradient `∇_â Q(s, â)|_{â=f(s)} · ∇_θπ f(s)`.
//!
//! # Hot-path layout
//!
//! There is one decision path, [`DdpgAgent::select_action_among`]: a
//! sparse actor forward, the K-NN mapper query, and a single critic
//! argmax over the K-NN candidates and any caller-supplied extra
//! assignments, all through a caller-owned [`ActScratch`]. Its cost
//! follows the state's support and the N hot action columns per
//! candidate, not the `N·M` input width. The deployed scheduler, the
//! rollout workers and the async learner's final pick all go through it.
//!
//! [`DdpgAgent::train_step`] pays for support, not width, in every
//! first-layer product; each first layer multiplies only the `Wᵀ` rows of
//! the input columns its minibatch touches (its *support pack*). The
//! minibatch assembly marks the columns of `[state ‖ action]` that some
//! row touches, and that support drives both differentiated passes:
//! - the critic's forward over `[state ‖ action]` and the actor's over
//!   `states` accumulate each row from its own nonzeros
//!   (`Mlp::forward_rows`);
//! - their weight gradients cover the support's columns alone.
//!
//! The critic's input gradient at `[state ‖ proto]` is one GEMM over the
//! state support and the whole action block (a proto-action row is not
//! sparse), and `∂Q/∂x` is computed for the action block alone, the part
//! the actor update reads. The TD targets score up to `H·K` candidate
//! actions with the target networks, and neither the `H` next-states nor
//! the candidates' `[next_state ‖ onehot]` rows are ever multiplied dense:
//! each next-state's support is scanned once, the target actor's and target
//! critic's first layers continue a pre-activation row over it from their
//! packs (`Mlp::accumulate_first_layer`), the critic's row is seeded into
//! each of that next-state's candidates, and a candidate adds only its `N`
//! hot action rows. Layers 2… run as batched GEMMs. Every one of these
//! passes is bit for bit its dense counterpart (exact-zero terms leave the
//! FMA chains untouched), and Adam and the soft target updates stay dense.
//! Minibatches assemble into persistent matrices from ring-buffer slot
//! indices (no transition clones); the only per-sample work left is the
//! K-NN mapper query, whose candidate sets are genuinely data-dependent.

use rand::rngs::StdRng;

use dss_nn::{Activation, Adam, Elem, Matrix, Mlp, Scalar};

use crate::explore::perturb_proto_into;
use crate::mapper::{ActionMapper, CandidateAction};
use crate::replay::{ReplayBuffer, ShardSlot, ShardedReplayBuffer};
use crate::snapshot::{self, Reader, SnapshotError, Writer};
use crate::transition::Transition;

/// Hyperparameters (defaults are the paper's where it states them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdpgConfig {
    /// Discount factor γ (paper: 0.99).
    pub gamma: f64,
    /// Target soft-update rate τ (paper: 0.01).
    pub tau: f64,
    /// Replay capacity |B| (paper: 1000).
    pub replay_capacity: usize,
    /// Mini-batch size H (paper: 32).
    pub batch: usize,
    /// Nearest neighbours K consulted per decision (paper leaves K
    /// unstated; 8 balances decision quality and MIQP time — see the
    /// `fig_ablation_k` bench).
    pub k: usize,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Critic learning rate.
    pub critic_lr: f64,
    /// Hidden layer widths (paper: 64 and 32, tanh).
    pub hidden: [usize; 2],
    /// Weight-init / sampling seed.
    pub seed: u64,
}

impl Default for DdpgConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            tau: 0.01,
            replay_capacity: 1000,
            batch: 32,
            k: 8,
            actor_lr: 1e-2,
            critic_lr: 3e-3,
            hidden: [64, 32],
            seed: 42,
        }
    }
}

/// Persistent minibatch workspace; resized in place every step so
/// steady-state training avoids reallocation.
#[derive(Debug, Default)]
struct TrainScratch<S: Scalar> {
    /// Sampled replay slot indices (own ring buffer).
    idx: Vec<usize>,
    /// Sampled `(shard, slot)` addresses (external sharded replay).
    shard_idx: Vec<ShardSlot>,
    /// Minibatch states (H × state_dim).
    states: Matrix<S>,
    /// Minibatch next-states (H × state_dim).
    next_states: Matrix<S>,
    /// Minibatch rewards (so the update core never re-reads the replay).
    rewards: Vec<S>,
    /// Per-row K-NN candidate sets, buffers reused across steps.
    cands: Vec<Vec<CandidateAction<S>>>,
    /// Per critic-input column (`[state ‖ action]`), whether the batch
    /// being assembled touches it; cleared as each support is collected.
    mark: Vec<bool>,
    /// Ascending columns of `critic_in` with a nonzero in some row: the
    /// states' support, then the actions' (offset by `state_dim`). Its
    /// state prefix is the actor's support; for the actor update the
    /// action part is replaced by the whole action block.
    support: Vec<usize>,
    /// Ascending union support of the next-states, then (for the target
    /// critic) the candidates' hot action columns appended.
    target_support: Vec<usize>,
    /// Every next-state's `(column, value)` nonzeros back to back; row `r`
    /// ends at `next_ends[r]`.
    next_pairs: Vec<(usize, S)>,
    next_ends: Vec<usize>,
    /// One candidate's `N` hot action columns (`state_dim + i·m + cᵢ`,
    /// value 1).
    pairs: Vec<(usize, S)>,
    /// Target-critic layer-1 pre-activation over each next-state alone
    /// (H × hidden₁) — computed once per sampled row and seeded into every
    /// candidate of that row.
    next_pre: Matrix<S>,
    /// Finished layer-1 rows handed to `Mlp::forward_after_first`: the
    /// target actor's over the next-states (H × hidden₁), then the target
    /// critic's over all candidates (Σ candidates × hidden₁).
    first_out: Matrix<S>,
    /// TD targets y_i.
    targets: Vec<S>,
    /// Critic training input `[state ‖ action]` (H × (state+action)); the
    /// actor update overwrites its action half with the protos.
    critic_in: Matrix<S>,
    /// Deterministic-policy-gradient signal for the actor (H × action).
    actor_grad: Matrix<S>,
    /// Critic MSE gradient column (H × 1).
    critic_grad: Matrix<S>,
}

impl<S: Scalar> TrainScratch<S> {
    /// Sizes the minibatch matrices for `h` rows.
    fn begin_batch(&mut self, h: usize, state_dim: usize, action_dim: usize) {
        let in_dim = state_dim + action_dim;
        self.states.resize(h, state_dim);
        self.next_states.resize(h, state_dim);
        self.critic_in.resize(h, in_dim);
        self.rewards.clear();
        if self.mark.len() != in_dim {
            self.mark.clear();
            self.mark.resize(in_dim, false);
            self.support.reserve(in_dim);
            self.target_support.reserve(in_dim);
        }
    }

    /// Copies one sampled transition into row `r`, marking the critic
    /// input columns it touches.
    fn put_row(&mut self, r: usize, state: &[S], action: &[S], reward: S, next_state: &[S]) {
        let state_dim = state.len();
        self.states.row_mut(r).copy_from_slice(state);
        self.next_states.row_mut(r).copy_from_slice(next_state);
        let row = self.critic_in.row_mut(r);
        let (mark_s, mark_a) = self.mark.split_at_mut(state_dim);
        copy_marking(state, &mut row[..state_dim], mark_s);
        copy_marking(action, &mut row[state_dim..], mark_a);
        self.rewards.push(reward);
    }

    /// Collects the marked columns into `support`.
    fn end_batch(&mut self) {
        self.support.clear();
        collect_marked(&mut self.mark, 0, &mut self.support);
    }
}

/// Copies `src` into `dst`, marking the positions where it is nonzero.
fn copy_marking<S: Scalar>(src: &[S], dst: &mut [S], mark: &mut [bool]) {
    assert_eq!(src.len(), dst.len(), "row width");
    for ((d, m), &v) in dst.iter_mut().zip(mark).zip(src) {
        *d = v;
        *m |= v != S::ZERO;
    }
}

/// The ranges `0..ends[0]`, `ends[0]..ends[1]`, … of rows stored back to
/// back.
fn row_ranges(ends: &[usize]) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    let starts = std::iter::once(0).chain(ends.iter().copied());
    starts.zip(ends.iter().copied()).map(|(a, b)| a..b)
}

/// Appends the marked positions, offset by `base`, to `out` in ascending
/// order and clears the marks.
fn collect_marked(mark: &mut [bool], base: usize, out: &mut Vec<usize>) {
    for (c, m) in mark.iter_mut().enumerate() {
        if std::mem::take(m) {
            out.push(base + c);
        }
    }
}

/// Per-actor scratch for [`DdpgAgent::select_action_among`] — everything
/// a decision touches, owned by the caller so the shared-`&self` agent can
/// serve many actors concurrently with **zero allocations once warm**
/// (asserted by the counting-allocator test in `tests/alloc_free.rs`). It
/// carries nothing from one decision to the next.
#[derive(Debug, Default)]
pub struct ActScratch<S: Scalar = Elem> {
    /// Ascending support (nonzero coordinates) of the current state.
    /// Featurized control states are a one-hot `X` block plus a short
    /// rate tail, so at fleet scale this holds ~N entries, not N·M.
    nz: Vec<usize>,
    /// Row-form ping/pong buffers for the actor and critic layer stacks.
    row_a: Vec<S>,
    row_b: Vec<S>,
    /// Explored proto-action (`R(â) = â + εI`).
    proto: Vec<S>,
    /// K-NN candidate set of the last query; the act path returns an
    /// index into this (or, past its end, into the caller's extras).
    pub cands: Vec<CandidateAction<S>>,
    /// Critic layer-1 pre-activation over the state alone — shared by
    /// every candidate in the argmax.
    h_state: Vec<S>,
    /// Hot action columns (`state_dim + i·m + cᵢ`) of one candidate.
    hot: Vec<usize>,
}

/// The actor-critic agent, generic over the training element type
/// (default [`Elem`] = f32; see `dss-nn`'s crate docs).
pub struct DdpgAgent<S: Scalar = Elem> {
    actor: Mlp<S>,
    critic: Mlp<S>,
    target_actor: Mlp<S>,
    target_critic: Mlp<S>,
    actor_opt: Adam<S>,
    critic_opt: Adam<S>,
    replay: ReplayBuffer<Vec<S>, S>,
    config: DdpgConfig,
    state_dim: usize,
    action_dim: usize,
    train_steps: u64,
    scratch: TrainScratch<S>,
}

impl<S: Scalar> DdpgAgent<S> {
    /// Builds an agent for `state_dim`-dimensional states and
    /// `action_dim`-dimensional one-hot action encodings (`N·M`).
    ///
    /// Actor: `state → [64 tanh, 32 tanh] → action_dim sigmoid` (sigmoid
    /// keeps proto-entries in `[0, 1]`, matching the uniform-`[0, 1]`
    /// exploration noise). Critic: `[state ‖ action] → [64 tanh, 32 tanh]
    /// → 1 linear`.
    pub fn new(state_dim: usize, action_dim: usize, config: DdpgConfig) -> Self {
        assert!(state_dim > 0 && action_dim > 0, "degenerate dimensions");
        let [h1, h2] = config.hidden;
        let actor = Mlp::new(
            &[state_dim, h1, h2, action_dim],
            &[Activation::Tanh, Activation::Tanh, Activation::Sigmoid],
            config.seed,
        );
        let critic = Mlp::new(
            &[state_dim + action_dim, h1, h2, 1],
            &[Activation::Tanh, Activation::Tanh, Activation::Identity],
            config.seed.wrapping_add(1),
        );
        Self {
            actor_opt: Adam::new(config.actor_lr),
            critic_opt: Adam::new(config.critic_lr),
            replay: ReplayBuffer::new(config.replay_capacity),
            target_actor: actor.clone(),
            target_critic: critic.clone(),
            actor,
            critic,
            config,
            state_dim,
            action_dim,
            train_steps: 0,
            scratch: TrainScratch::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &DdpgConfig {
        &self.config
    }

    /// State width the agent acts on.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// One-hot action width (`N·M`).
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// Serializes every mutable field of the agent — all four networks,
    /// both optimizers' Adam moments, the replay ring in slot order, and
    /// the train-step counter — into a versioned byte image (see
    /// [`crate::snapshot`]). Together with the caller's RNG state this is
    /// a complete training checkpoint: a [`DdpgAgent::restore_state`]d
    /// agent continues the training trajectory bit-for-bit.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.save_state_append(&mut out);
        out
    }

    /// [`DdpgAgent::save_state`], appended to a caller-owned buffer. A
    /// periodic checkpoint loop clears and re-passes the same scratch so
    /// the multi-megabyte image (the replay ring dominates) reuses one
    /// allocation instead of growing a fresh `Vec` every save.
    pub fn save_state_append(&self, out: &mut Vec<u8>) {
        let mut w = Writer::header_in(std::mem::take(out), snapshot::KIND_DDPG);
        w.usize(self.state_dim);
        w.usize(self.action_dim);
        w.f64(self.config.gamma);
        w.f64(self.config.tau);
        w.usize(self.config.replay_capacity);
        w.usize(self.config.batch);
        w.usize(self.config.k);
        w.f64(self.config.actor_lr);
        w.f64(self.config.critic_lr);
        w.usize(self.config.hidden[0]);
        w.usize(self.config.hidden[1]);
        w.u64(self.config.seed);
        w.u64(self.train_steps);
        w.net(&self.actor);
        w.net(&self.critic);
        w.net(&self.target_actor);
        w.net(&self.target_critic);
        w.adam(&self.actor_opt);
        w.adam(&self.critic_opt);
        let action_dim = self.action_dim;
        snapshot::put_replay(&mut w, &self.replay, |w, a: &Vec<S>| {
            debug_assert_eq!(a.len(), action_dim, "stored action width");
            w.row(a);
        });
        *out = w.buf;
    }

    /// Rebuilds an agent from an image captured by
    /// [`DdpgAgent::save_state`]. The restored agent's decisions and
    /// training updates continue the original's bit-for-bit given the
    /// same RNG stream; foreign or corrupt bytes fail with a typed
    /// [`SnapshotError`], never a panic.
    pub fn restore_state(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::open(bytes, snapshot::KIND_DDPG)?;
        let state_dim = r.usize()?;
        let action_dim = r.usize()?;
        if state_dim == 0 || action_dim == 0 {
            return Err(SnapshotError::BadStructure("degenerate dimensions"));
        }
        let config = DdpgConfig {
            gamma: r.f64()?,
            tau: r.f64()?,
            replay_capacity: r.usize()?,
            batch: r.usize()?,
            k: r.usize()?,
            actor_lr: r.f64()?,
            critic_lr: r.f64()?,
            hidden: [r.usize()?, r.usize()?],
            seed: r.u64()?,
        };
        let lr_ok = |lr: f64| lr.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if config.replay_capacity == 0 || !lr_ok(config.actor_lr) || !lr_ok(config.critic_lr) {
            return Err(SnapshotError::BadStructure("invalid hyperparameters"));
        }
        let train_steps = r.u64()?;
        let actor: Mlp<S> = r.net()?;
        let critic: Mlp<S> = r.net()?;
        let target_actor: Mlp<S> = r.net()?;
        let target_critic: Mlp<S> = r.net()?;
        let shapes_ok = actor.input_size() == state_dim
            && actor.output_size() == action_dim
            && critic.input_size() == state_dim + action_dim
            && critic.output_size() == 1
            && snapshot::same_layers(&target_actor, &actor)
            && snapshot::same_layers(&target_critic, &critic);
        if !shapes_ok {
            return Err(SnapshotError::BadStructure("network shape mismatch"));
        }
        let actor_opt = r.adam(config.actor_lr)?;
        let critic_opt = r.adam(config.critic_lr)?;
        let replay = snapshot::get_replay(&mut r, state_dim, |r| {
            let a: Vec<S> = r.row(action_dim)?;
            Ok(a)
        })?;
        r.done()?;
        Ok(Self {
            actor,
            critic,
            target_actor,
            target_critic,
            actor_opt,
            critic_opt,
            replay,
            config,
            state_dim,
            action_dim,
            train_steps,
            scratch: TrainScratch::default(),
        })
    }

    /// Serializes the *policy alone* — dimensions, the train-step counter,
    /// and the online actor + critic networks — into a versioned byte
    /// image. This is the blob a parameter server publishes: everything a
    /// rollout worker needs to run [`DdpgAgent::select_action_into`], at a
    /// fraction of the full [`DdpgAgent::save_state`] checkpoint (no
    /// target nets, no optimizer moments, no replay ring).
    pub fn save_policy(&self) -> Vec<u8> {
        let mut w = Writer::header(snapshot::KIND_POLICY);
        w.usize(self.state_dim);
        w.usize(self.action_dim);
        w.u64(self.train_steps);
        w.net(&self.actor);
        w.net(&self.critic);
        w.buf
    }

    /// Installs a [`DdpgAgent::save_policy`] image into this agent's
    /// online actor and critic in place (targets, optimizers and replay
    /// are untouched — a worker replica never trains). Returns the
    /// publishing agent's train-step counter. Foreign bytes, a wrong
    /// snapshot kind, or a shape mismatch against this agent fail typed;
    /// the agent is unmodified on any error.
    pub fn apply_policy(&mut self, bytes: &[u8]) -> Result<u64, SnapshotError> {
        let mut r = Reader::open(bytes, snapshot::KIND_POLICY)?;
        let state_dim = r.usize()?;
        let action_dim = r.usize()?;
        if state_dim != self.state_dim || action_dim != self.action_dim {
            return Err(SnapshotError::BadStructure("policy dimension mismatch"));
        }
        let train_steps = r.u64()?;
        let actor: Mlp<S> = r.net()?;
        let critic: Mlp<S> = r.net()?;
        r.done()?;
        if !snapshot::same_layers(&actor, &self.actor)
            || !snapshot::same_layers(&critic, &self.critic)
        {
            return Err(SnapshotError::BadStructure("policy network shape"));
        }
        self.actor.copy_params_from(&actor);
        self.critic.copy_params_from(&critic);
        Ok(train_steps)
    }

    /// Number of stored transitions.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Training steps performed.
    pub fn train_steps(&self) -> u64 {
        self.train_steps
    }

    /// Read access to the actor (serialization, inspection).
    pub fn actor(&self) -> &Mlp<S> {
        &self.actor
    }

    /// Read access to the critic.
    pub fn critic(&self) -> &Mlp<S> {
        &self.critic
    }

    /// The raw proto-action `f(s)` for a state.
    pub fn proto_action(&self, state: &[S]) -> Vec<S> {
        assert_eq!(state.len(), self.state_dim, "state width");
        self.actor.infer_one(state)
    }

    /// Critic value `Q(s, a)`.
    pub fn q_value(&self, state: &[S], action: &[S]) -> S {
        assert_eq!(action.len(), self.action_dim, "action width");
        let mut input = Vec::with_capacity(self.state_dim + self.action_dim);
        input.extend_from_slice(state);
        input.extend_from_slice(action);
        self.critic.infer_one(&input)[0]
    }

    /// Full decision step (Algorithm 1, lines 8–11): proto-action,
    /// exploration noise with probability `eps`, K-NN mapping, critic
    /// argmax. Returns the selected candidate. Allocating convenience
    /// form of [`DdpgAgent::select_action_into`].
    ///
    /// # Panics
    /// Panics if the mapper returns no candidates.
    pub fn select_action(
        &self,
        state: &[S],
        mapper: &mut dyn ActionMapper<S>,
        eps: f64,
        rng: &mut StdRng,
    ) -> CandidateAction<S> {
        self.select_action_with_extras(state, mapper, eps, rng, Vec::new())
    }

    /// [`DdpgAgent::select_action_among`] with no extra candidates: the
    /// pure Algorithm 1 decision. Returns the index of the selected
    /// candidate in `scratch.cands`.
    ///
    /// # Panics
    /// As [`DdpgAgent::select_action_among`].
    pub fn select_action_into(
        &self,
        state: &[S],
        mapper: &mut dyn ActionMapper<S>,
        eps: f64,
        rng: &mut StdRng,
        scratch: &mut ActScratch<S>,
    ) -> usize {
        self.select_action_among(state, mapper, eps, rng, std::iter::empty(), scratch)
            .0
    }

    /// The decision step: actor inference, exploration noise with
    /// probability `eps`, K-NN mapping, then one critic argmax over the
    /// K-NN candidates followed by `extras` — caller-supplied assignments
    /// (machine index per thread, e.g. an elite memory of best-rewarded
    /// actions) that compete alongside the neighbours of the proto-action.
    /// Returns the winner's position in that order and its Q value:
    /// positions below `scratch.cands.len()` index `scratch.cands`, later
    /// ones count into `extras`. Ties keep the earlier candidate. All of it
    /// runs through the reused buffers of `scratch` (zero allocations once
    /// warm), and the RNG is consumed only by the exploration noise.
    ///
    /// The whole path is sparsity-aware so its cost follows the problem's
    /// *support*, not its width: the actor/critic first layers gather
    /// only the state's nonzero coordinates (featurized control states
    /// are a one-hot assignment block plus a short rate tail), each
    /// candidate's critic score adds its N hot action columns instead of
    /// streaming an `N·M`-wide one-hot row — so an extra is never expanded
    /// to a one-hot — and the tail layers run in row form without the
    /// per-call `Wᵀ` GEMM pack. Every step is bitwise identical to the
    /// dense batched forward over `[state ‖ onehot]` (exact-zero terms
    /// leave the IEEE accumulator chains untouched — see
    /// `Dense::accumulate_cols`), so flat and hierarchical mappers stay on
    /// the same decision stream and [`DdpgAgent::q_value`] reproduces
    /// every score.
    ///
    /// # Panics
    /// Panics if the mapper returns no candidates, its shape disagrees
    /// with the agent's action width, or a candidate is not an assignment
    /// of that shape.
    pub fn select_action_among<'a>(
        &self,
        state: &[S],
        mapper: &mut dyn ActionMapper<S>,
        eps: f64,
        rng: &mut StdRng,
        extras: impl IntoIterator<Item = &'a [usize]>,
        scratch: &mut ActScratch<S>,
    ) -> (usize, S) {
        assert_eq!(state.len(), self.state_dim, "state width");
        let ActScratch {
            nz,
            row_a,
            row_b,
            proto,
            cands,
            h_state,
            hot,
        } = scratch;
        nz.clear();
        nz.extend((0..state.len()).filter(|&l| state[l] != S::ZERO));

        // Actor forward in row form: sparse first layer, streamed tail.
        let layers = self.actor.layers();
        row_a.clear();
        row_a.resize(layers[0].output_size(), S::ZERO);
        layers[0].accumulate_cols(nz, state, row_a);
        layers[0].finish_row(row_a);
        let mut in_a = true;
        for layer in &layers[1..] {
            if in_a {
                layer.infer_row_into(row_a, row_b);
            } else {
                layer.infer_row_into(row_b, row_a);
            }
            in_a = !in_a;
        }
        let actor_out: &[S] = if in_a { row_a } else { row_b };
        perturb_proto_into(actor_out, eps, rng, proto);
        mapper.nearest_into(proto, self.config.k, cands);
        assert!(!cands.is_empty(), "no candidates to select from");

        // Critic argmax: the layer-1 state part is accumulated once and
        // shared; each candidate contributes its N hot action columns.
        let (n, m) = mapper.shape();
        assert_eq!(n * m, self.action_dim, "mapper/agent action shape");
        let clayers = self.critic.layers();
        h_state.clear();
        h_state.resize(clayers[0].output_size(), S::ZERO);
        clayers[0].accumulate_cols(nz, state, h_state);
        let mut best = 0;
        let mut best_q = S::NEG_INFINITY;
        // The identity map only shortens `'a` to the scratch borrow so the
        // two halves chain into one iterator.
        let extras = extras.into_iter().map(|choice| -> &[usize] { choice });
        let ranked = cands.iter().map(|c| c.choice.as_slice()).chain(extras);
        for (ci, choice) in ranked.enumerate() {
            assert_eq!(choice.len(), n, "candidate executor count");
            hot.clear();
            hot.extend(choice.iter().enumerate().map(|(i, &c)| {
                assert!(c < m, "candidate machine index");
                self.state_dim + i * m + c
            }));
            row_a.clear();
            row_a.extend_from_slice(h_state);
            clayers[0].accumulate_hot_cols(hot, row_a);
            clayers[0].finish_row(row_a);
            let mut in_a = true;
            for layer in &clayers[1..] {
                if in_a {
                    layer.infer_row_into(row_a, row_b);
                } else {
                    layer.infer_row_into(row_b, row_a);
                }
                in_a = !in_a;
            }
            let q = if in_a { row_a[0] } else { row_b[0] };
            if q > best_q {
                best_q = q;
                best = ci;
            }
        }
        (best, best_q)
    }

    /// Allocating form of [`DdpgAgent::select_action_among`] for callers
    /// that hold their extras as [`CandidateAction`]s: only each extra's
    /// `choice` is read, and the winner is returned by value.
    ///
    /// # Panics
    /// As [`DdpgAgent::select_action_among`].
    pub fn select_action_with_extras(
        &self,
        state: &[S],
        mapper: &mut dyn ActionMapper<S>,
        eps: f64,
        rng: &mut StdRng,
        mut extras: Vec<CandidateAction<S>>,
    ) -> CandidateAction<S> {
        let mut scratch = ActScratch::default();
        let choices = extras.iter().map(|c| c.choice.as_slice());
        let (best, _) = self.select_action_among(state, mapper, eps, rng, choices, &mut scratch);
        match best.checked_sub(scratch.cands.len()) {
            Some(extra) => extras.swap_remove(extra),
            None => scratch.cands.swap_remove(best),
        }
    }

    /// Stores an experience sample.
    pub fn store(&mut self, t: Transition<Vec<S>, S>) {
        assert_eq!(t.state.len(), self.state_dim, "state width");
        assert_eq!(t.action.len(), self.action_dim, "action width");
        self.replay.push(t);
    }

    /// One training step (Algorithm 1, lines 14–18) over the agent's own
    /// replay buffer. Returns the critic loss, or `None` when the replay
    /// buffer is still empty.
    pub fn train_step(
        &mut self,
        mapper: &mut dyn ActionMapper<S>,
        rng: &mut StdRng,
    ) -> Option<f64> {
        self.sample_own_replay(rng)
            .then(|| self.train_on_minibatch(mapper))
    }

    /// Samples a minibatch from the agent's own replay and assembles it
    /// in place (`states`, `next_states`, `critic_in`, `rewards` in
    /// scratch). Returns `false`, consuming no randomness, while the
    /// replay is empty.
    fn sample_own_replay(&mut self, rng: &mut StdRng) -> bool {
        if self.replay.is_empty() {
            return false;
        }
        let scratch = &mut self.scratch;
        self.replay
            .sample_indices_into(self.config.batch, rng, &mut scratch.idx);
        let h = scratch.idx.len();
        scratch.begin_batch(h, self.state_dim, self.action_dim);
        for r in 0..h {
            let t = self.replay.get(scratch.idx[r]);
            scratch.put_row(r, &t.state, &t.action, t.reward, &t.next_state);
        }
        scratch.end_batch();
        true
    }

    /// One training step sampling from an external [`ShardedReplayBuffer`]
    /// — the learner side of parallel-actor collection: N actors push into
    /// their shards while this consumes uniform cross-shard minibatches.
    /// Minibatch assembly is a strided copy straight out of the buffer's
    /// structure-of-arrays slabs into the training matrices.
    /// Returns `None` while the sharded buffer is empty.
    ///
    /// # Panics
    /// Panics when the buffer's row widths do not match this agent's
    /// state/action dimensions.
    pub fn train_step_from(
        &mut self,
        replay: &ShardedReplayBuffer<S>,
        mapper: &mut dyn ActionMapper<S>,
        rng: &mut StdRng,
    ) -> Option<f64> {
        self.sample_sharded_replay(replay, rng)
            .then(|| self.train_on_minibatch(mapper))
    }

    /// [`DdpgAgent::sample_own_replay`] over an external sharded buffer.
    fn sample_sharded_replay(&mut self, replay: &ShardedReplayBuffer<S>, rng: &mut StdRng) -> bool {
        assert_eq!(replay.state_dim(), self.state_dim, "state width");
        assert_eq!(replay.action_dim(), self.action_dim, "action width");
        let scratch = &mut self.scratch;
        replay.sample_indices_into(self.config.batch, rng, &mut scratch.shard_idx);
        let h = scratch.shard_idx.len();
        if h == 0 {
            return false;
        }
        scratch.begin_batch(h, self.state_dim, self.action_dim);
        for r in 0..h {
            let slot = scratch.shard_idx[r];
            replay.with_rows(slot, |state, action, reward, next_state| {
                scratch.put_row(r, state, action, reward, next_state);
            });
        }
        scratch.end_batch();
        true
    }

    /// The shared update core: consumes the assembled minibatch and runs
    /// Algorithm 1's target, critic, actor and target-network updates.
    /// Returns the critic loss.
    fn train_on_minibatch(&mut self, mapper: &mut dyn ActionMapper<S>) -> f64 {
        self.td_targets(mapper);
        self.update_from_targets()
    }

    /// TD targets (line 15) into `scratch.targets`:
    /// `y_i = r_i + γ · max_{a ∈ A_{i+1,K}} Q'(s_{i+1}, a)`. Both target
    /// networks run their first layer from supports — bit for bit the
    /// batched dense forwards over `next_states` and over every
    /// `[next_state ‖ onehot]` row (see `Dense::accumulate_packed_rows`),
    /// at a cost that follows the nonzeros: each next-state is scanned
    /// once, the `Wᵀ` rows packed are those of the columns the batch
    /// touches (the next-states' union support, plus the candidates' hot
    /// action columns for the critic), a next-state's target-critic
    /// pre-activation is shared by its candidates, and a candidate
    /// contributes its `N` hot action rows. The K-NN sets come from one
    /// batched mapper query over the proto matrix (cost-matrix setup
    /// amortized across the batch through mapper state, candidate buffers
    /// reused).
    fn td_targets(&mut self, mapper: &mut dyn ActionMapper<S>) {
        let scratch = &mut self.scratch;
        let h = scratch.next_states.rows();
        let (n, m) = mapper.shape();
        assert_eq!(n * m, self.action_dim, "mapper/agent action shape");
        let sd = self.state_dim;
        let width = self.target_critic.layers()[0].output_size();

        scratch.next_pairs.clear();
        scratch.next_ends.clear();
        for r in 0..h {
            for (l, &v) in scratch.next_states.row(r).iter().enumerate() {
                if v != S::ZERO {
                    scratch.next_pairs.push((l, v));
                    scratch.mark[l] = true;
                }
            }
            scratch.next_ends.push(scratch.next_pairs.len());
        }
        scratch.target_support.clear();
        collect_marked(&mut scratch.mark[..sd], 0, &mut scratch.target_support);

        self.target_actor.pack_first_layer(&scratch.target_support);
        scratch.first_out.resize(h, width);
        for (r, pairs) in row_ranges(&scratch.next_ends).enumerate() {
            let row = scratch.first_out.row_mut(r);
            row.fill(S::ZERO);
            self.target_actor
                .accumulate_first_layer(&scratch.next_pairs[pairs], row);
            self.target_actor.layers()[0].finish_row(row);
        }
        let protos_next = self.target_actor.forward_after_first(&scratch.first_out);
        mapper.nearest_batch_into(protos_next, self.config.k, &mut scratch.cands);

        for cand in scratch.cands.iter().flatten() {
            assert_eq!(cand.choice.len(), n, "candidate executor count");
            for (i, &c) in cand.choice.iter().enumerate() {
                assert!(c < m, "candidate machine index");
                scratch.mark[sd + i * m + c] = true;
            }
        }
        collect_marked(&mut scratch.mark[sd..], sd, &mut scratch.target_support);
        self.target_critic.pack_first_layer(&scratch.target_support);
        scratch.next_pre.resize(h, width);
        for (r, pairs) in row_ranges(&scratch.next_ends).enumerate() {
            let pre = scratch.next_pre.row_mut(r);
            pre.fill(S::ZERO);
            self.target_critic
                .accumulate_first_layer(&scratch.next_pairs[pairs], pre);
        }

        let total = scratch.cands.iter().map(Vec::len).sum();
        scratch.first_out.resize(total, width);
        let mut filled = 0;
        for (r, candidates) in scratch.cands.iter().enumerate() {
            for cand in candidates {
                scratch.pairs.clear();
                scratch.pairs.extend(
                    cand.choice
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| (sd + i * m + c, S::ONE)),
                );
                let row = scratch.first_out.row_mut(filled);
                row.copy_from_slice(scratch.next_pre.row(r));
                self.target_critic
                    .accumulate_first_layer(&scratch.pairs, row);
                self.target_critic.layers()[0].finish_row(row);
                filled += 1;
            }
        }
        let cand_q = self.target_critic.forward_after_first(&scratch.first_out);
        Self::fold_targets(
            cand_q,
            &scratch.cands,
            &scratch.rewards,
            self.config.gamma,
            &mut scratch.targets,
        );
    }

    /// `targets[r] = rewards[r] + γ · max` over row `r`'s run of
    /// candidate Q-values (`cand_q` holds the runs back to back).
    fn fold_targets(
        cand_q: &Matrix<S>,
        cands: &[Vec<CandidateAction<S>>],
        rewards: &[S],
        gamma: f64,
        targets: &mut Vec<S>,
    ) {
        targets.clear();
        let gamma = S::from_f64(gamma);
        let mut offset = 0;
        for (candidates, &reward) in cands.iter().zip(rewards) {
            let n_cand = candidates.len();
            let best = (offset..offset + n_cand)
                .map(|i| cand_q[(i, 0)])
                .fold(S::NEG_INFINITY, S::max);
            offset += n_cand;
            targets.push(reward + gamma * best);
        }
    }

    /// Critic, actor and target-network updates (lines 16–18) against
    /// `scratch.targets`. Returns the critic loss. Both first layers run
    /// over the minibatch's support (`scratch.support`), and the critic's
    /// input gradient is computed for the action block alone.
    fn update_from_targets(&mut self) -> f64 {
        let scratch = &mut self.scratch;
        let h = scratch.states.rows();
        let (sd, in_dim) = (self.state_dim, self.state_dim + self.action_dim);

        // Critic update (line 16): MSE against the TD targets, with loss
        // and gradient folded in place (matches `mse_loss_grad` over the
        // H×1 prediction column: loss = Σd²/H, grad = 2d/H).
        let pred = self
            .critic
            .forward_rows(&scratch.critic_in, &scratch.support);
        scratch.critic_grad.resize(h, 1);
        let grad_scale = S::from_f64(2.0 / h as f64);
        let mut loss = 0.0f64;
        for r in 0..h {
            let d = pred[(r, 0)] - scratch.targets[r];
            loss += d.to_f64() * d.to_f64();
            scratch.critic_grad[(r, 0)] = grad_scale * d;
        }
        loss /= h as f64;
        self.critic.zero_grad();
        self.critic.backward_params(&scratch.critic_grad);
        self.critic.apply_gradients(&mut self.critic_opt);

        // Actor update (line 17): ascend Q by the chain rule through the
        // critic's action input, with the whole batch of protos from one
        // actor forward written over `critic_in`'s action half (its state
        // half is the states already).
        let state_cols = scratch.support.partition_point(|&c| c < sd);
        let protos = self
            .actor
            .forward_rows(&scratch.states, &scratch.support[..state_cols]);
        for r in 0..h {
            scratch.critic_in.row_mut(r)[sd..].copy_from_slice(protos.row(r));
        }
        scratch.support.truncate(state_cols);
        scratch.support.extend(sd..in_dim);
        let action_grad =
            self.critic
                .input_gradient(&scratch.critic_in, &scratch.support, sd..in_dim);
        // −dQ/da, averaged over the batch (descent on −Q = ascent on Q).
        scratch.actor_grad.resize(h, self.action_dim);
        let inv_h = S::from_f64(1.0 / h as f64);
        for (g, &d) in scratch
            .actor_grad
            .data_mut()
            .iter_mut()
            .zip(action_grad.data())
        {
            *g = -(d * inv_h);
        }
        self.actor.zero_grad();
        self.actor.backward_params(&scratch.actor_grad);
        self.actor.apply_gradients(&mut self.actor_opt);

        // Target soft updates (line 18).
        self.target_critic
            .soft_update_from(&self.critic, self.config.tau);
        self.target_actor
            .soft_update_from(&self.actor, self.config.tau);
        self.train_steps += 1;
        loss
    }

    /// Offline pre-training (Algorithm 1, line 4): trains on the full
    /// historical sample set (the paper collects 10,000 random-action
    /// samples), then seeds the bounded online replay buffer with the most
    /// recent `|B|` of them.
    pub fn pretrain(
        &mut self,
        samples: Vec<Transition<Vec<S>, S>>,
        steps: usize,
        mapper: &mut dyn ActionMapper<S>,
        rng: &mut StdRng,
    ) {
        if samples.is_empty() {
            return;
        }
        // Swap in a buffer big enough for the whole historical set.
        let online = std::mem::replace(&mut self.replay, ReplayBuffer::new(samples.len().max(1)));
        drop(online);
        for s in samples {
            self.store(s);
        }
        for _ in 0..steps {
            self.train_step(mapper, rng);
        }
        // Restore the paper's bounded online buffer, keeping the freshest
        // samples as its initial contents.
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
    use crate::mapper::KBestMapper;
    use rand::SeedableRng;

    /// A 2-thread / 2-machine toy problem where co-locating both threads on
    /// machine 0 yields reward 0 and anything else −1. State: the current
    /// one-hot assignment.
    fn toy_reward(choice: &[usize]) -> f64 {
        if choice == [0, 0] {
            0.0
        } else {
            -1.0
        }
    }

    fn toy_config() -> DdpgConfig {
        DdpgConfig {
            replay_capacity: 256,
            batch: 16,
            k: 2,
            actor_lr: 1e-2,
            critic_lr: 5e-3,
            hidden: [16, 8],
            seed: 3,
            ..DdpgConfig::default()
        }
    }

    #[test]
    fn dimensions_and_determinism() {
        let agent = DdpgAgent::new(6, 4, toy_config());
        let proto = agent.proto_action(&[0.0, 1.0, 0.5, 0.2, 0.1, 0.9]);
        assert_eq!(proto.len(), 4);
        assert!(proto.iter().all(|&p| (0.0..=1.0).contains(&p)));
        let agent2 = DdpgAgent::new(6, 4, toy_config());
        assert_eq!(agent2.proto_action(&[0.0, 1.0, 0.5, 0.2, 0.1, 0.9]), proto);
        // The targets start as exact copies of the online networks.
        assert_eq!(param_bits(&agent.target_actor), param_bits(&agent.actor));
        assert_eq!(param_bits(&agent.target_critic), param_bits(&agent.critic));
    }

    /// Every parameter of a network as raw bits, layer by layer.
    fn param_bits<S: Scalar>(net: &Mlp<S>) -> Vec<u64> {
        net.layers()
            .iter()
            .flat_map(|l| l.params())
            .flat_map(|p| p.iter().map(|v| v.to_f64().to_bits()))
            .collect()
    }

    #[test]
    fn select_action_returns_feasible_candidate() {
        let agent = DdpgAgent::new(4, 4, toy_config());
        let mut mapper = KBestMapper::new(2, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let c = agent.select_action(&[1.0, 0.0, 0.0, 1.0], &mut mapper, 0.5, &mut rng);
        assert_eq!(c.choice.len(), 2);
        assert!(c.choice.iter().all(|&j| j < 2));
    }

    #[test]
    fn learns_toy_preference() {
        // Train on random transitions of the toy problem; the greedy policy
        // must end up selecting the rewarded assignment. A moderate γ keeps
        // the K=2-candidate bootstrap stable so the final ranking reflects
        // learning rather than the drift of half-converged value estimates
        // (γ=0.99 left the ordering seed-sensitive).
        let mut agent = DdpgAgent::new(
            4,
            4,
            DdpgConfig {
                gamma: 0.3,
                ..toy_config()
            },
        );
        let mut mapper = KBestMapper::new(2, 2);
        let mut rng = StdRng::seed_from_u64(7);
        use rand::RngExt;
        for _ in 0..300 {
            let choice = [rng.random_range(0..2), rng.random_range(0..2)];
            // One-hot: row i, machine j -> index i*2+j.
            let mut a = vec![0.0; 4];
            a[choice[0]] = 1.0;
            a[2 + choice[1]] = 1.0;
            let state = a.clone(); // state = current assignment
            let reward = toy_reward(&choice);
            agent.store(Transition::new(state.clone(), a, reward, state));
            agent.train_step(&mut mapper, &mut rng);
        }
        assert!(agent.train_steps() > 0);
        // Greedy decision from any state should pick [0, 0].
        let state = vec![0.0, 1.0, 0.0, 1.0];
        let action = agent.select_action(&state, &mut mapper, 0.0, &mut rng);
        assert_eq!(action.choice, vec![0, 0], "learned the rewarded action");
    }

    #[test]
    fn critic_loss_decreases_on_fixed_target() {
        let mut agent = DdpgAgent::new(2, 4, toy_config());
        let mut mapper = KBestMapper::new(2, 2);
        let mut rng = StdRng::seed_from_u64(9);
        // Constant reward everywhere: Q should converge to r/(1-γ)-ish and
        // loss should drop substantially.
        for _ in 0..50 {
            agent.store(Transition::new(
                vec![0.5, 0.5],
                vec![1.0, 0.0, 1.0, 0.0],
                -2.0,
                vec![0.5, 0.5],
            ));
        }
        let first = agent.train_step(&mut mapper, &mut rng).unwrap();
        let mut last = first;
        for _ in 0..400 {
            last = agent.train_step(&mut mapper, &mut rng).unwrap();
        }
        assert!(
            last < first * 0.5,
            "critic loss should shrink: {first} -> {last}"
        );
    }

    #[test]
    fn train_step_from_sharded_replay_learns_fixed_target() {
        use crate::replay::ShardedReplayBuffer;
        let mut agent = DdpgAgent::new(2, 4, toy_config());
        let mut mapper = KBestMapper::new(2, 2);
        let mut rng = StdRng::seed_from_u64(11);
        let replay: ShardedReplayBuffer<f64> = ShardedReplayBuffer::new(2, 64, 2, 4);
        assert_eq!(agent.train_step_from(&replay, &mut mapper, &mut rng), None);
        for i in 0..40 {
            replay.push_rows(i % 2, &[0.5, 0.5], &[1.0, 0.0, 1.0, 0.0], -2.0, &[0.5, 0.5]);
        }
        let first = agent
            .train_step_from(&replay, &mut mapper, &mut rng)
            .unwrap();
        let mut last = first;
        for _ in 0..400 {
            last = agent
                .train_step_from(&replay, &mut mapper, &mut rng)
                .unwrap();
        }
        assert!(last < first * 0.5, "loss should shrink: {first} -> {last}");
        assert_eq!(agent.train_steps(), 401);
    }

    /// The decision step written densely, as the reference for the sparse
    /// act path: batched-form actor inference, the allocating K-NN query,
    /// then one [`DdpgAgent::q_value`] over `[state ‖ onehot]` per
    /// candidate, K-NN first and extras after, strict `>`.
    fn dense_reference<S: Scalar>(
        agent: &DdpgAgent<S>,
        state: &[S],
        mapper: &mut dyn ActionMapper<S>,
        eps: f64,
        rng: &mut StdRng,
        extras: &[Vec<usize>],
    ) -> (usize, S) {
        let explored = crate::explore::perturb_proto(&agent.proto_action(state), eps, rng);
        let cands = mapper.nearest(&explored, agent.config().k);
        let (_, m) = mapper.shape();
        let onehots = cands
            .iter()
            .map(|c| c.onehot.clone())
            .chain(extras.iter().map(|choice| {
                let mut onehot = vec![S::ZERO; choice.len() * m];
                for (i, &j) in choice.iter().enumerate() {
                    onehot[i * m + j] = S::ONE;
                }
                onehot
            }));
        let mut best = (0, S::NEG_INFINITY);
        for (i, onehot) in onehots.enumerate() {
            let q = agent.q_value(state, &onehot);
            if q > best.1 {
                best = (i, q);
            }
        }
        best
    }

    /// One-hot assignment block plus a short rate tail — the support
    /// pattern of a featurized control state.
    fn control_state<S: Scalar>(n: usize, m: usize, rng: &mut StdRng) -> Vec<S> {
        use rand::RngExt;
        let mut state = vec![S::ZERO; n * m + 2];
        for i in 0..n {
            state[i * m + rng.random_range(0..m)] = S::ONE;
        }
        for rate in &mut state[n * m..] {
            *rate = S::from_f64(rng.random_range(0.1..1.0));
        }
        state
    }

    fn act_path_matches_dense_reference<S: Scalar>(groups: usize) {
        use crate::mapper::ScalableMapper;
        use rand::RngExt;
        let (n, m) = (6, 4);
        let cfg = DdpgConfig {
            seed: 21 + groups as u64,
            ..DdpgConfig::default()
        };
        let agent: DdpgAgent<S> = DdpgAgent::new(n * m + 2, n * m, cfg);
        let mut mapper = ScalableMapper::from_knobs(n, m, groups, 0);
        let mut mapper_ref = mapper.clone();
        let mut scratch = ActScratch::default();
        let mut rng = StdRng::seed_from_u64(90 + groups as u64);
        let mut extras_won = 0;
        for case in 0..60 {
            let eps = [0.0, 0.5, 1.0][case % 3];
            let state: Vec<S> = control_state(n, m, &mut rng);
            let mut extras: Vec<Vec<usize>> = match (case / 3) % 3 {
                0 => Vec::new(),
                _ => (0..12)
                    .map(|_| (0..n).map(|_| rng.random_range(0..m)).collect())
                    .collect(),
            };
            if (case / 3) % 3 == 2 {
                // Elites that repeat K-NN candidates (the scheduler's
                // memory holds the actions it deployed): a tie in Q that
                // must resolve to the earlier, K-NN position.
                let mut probe = StdRng::from_state(rng.state());
                let explored =
                    crate::explore::perturb_proto(&agent.proto_action(&state), eps, &mut probe);
                for (slot, cand) in mapper_ref.nearest(&explored, cfg.k).iter().enumerate() {
                    extras[3 * slot % 12] = cand.choice.clone();
                }
            }

            let mut rng_ref = StdRng::from_state(rng.state());
            let want = dense_reference(&agent, &state, &mut mapper_ref, eps, &mut rng_ref, &extras);
            let got = agent.select_action_among(
                &state,
                &mut mapper,
                eps,
                &mut rng,
                extras.iter().map(Vec::as_slice),
                &mut scratch,
            );
            assert_eq!(got.0, want.0, "case {case}: pick");
            assert_eq!(
                got.1.to_f64().to_bits(),
                want.1.to_f64().to_bits(),
                "case {case}: Q bits"
            );
            assert_eq!(rng.state(), rng_ref.state(), "case {case}: RNG stream");
            if let Some(extra) = got.0.checked_sub(scratch.cands.len()) {
                extras_won += 1;
                assert!(
                    scratch.cands.iter().all(|c| c.choice != extras[extra]),
                    "case {case}: a duplicate won over its K-NN original"
                );
            }
        }
        assert!(extras_won > 0, "no case exercised an extra winning");
    }

    #[test]
    fn act_path_matches_dense_reference_flat_and_hierarchical() {
        for groups in [0, 2] {
            act_path_matches_dense_reference::<f32>(groups);
            act_path_matches_dense_reference::<f64>(groups);
        }
    }

    impl<S: Scalar> DdpgAgent<S> {
        /// The TD targets computed densely, as the reference for
        /// [`DdpgAgent::td_targets`]: one batched target-actor forward over
        /// `next_states`, then every candidate's `[next_state ‖ onehot]`
        /// row stacked into `cand_rows` and scored by one batched
        /// target-critic forward.
        fn td_targets_dense(&mut self, mapper: &mut dyn ActionMapper<S>) {
            let scratch = &mut self.scratch;
            let in_dim = self.state_dim + self.action_dim;
            let protos_next = self.target_actor.forward(&scratch.next_states);
            mapper.nearest_batch_into(protos_next, self.config.k, &mut scratch.cands);
            let mut cand_rows = Matrix::zeros(0, in_dim);
            let mut total = 0usize;
            for (r, candidates) in scratch.cands.iter().enumerate() {
                cand_rows.resize(total + candidates.len(), in_dim);
                for (c, cand) in candidates.iter().enumerate() {
                    let row = cand_rows.row_mut(total + c);
                    row[..self.state_dim].copy_from_slice(scratch.next_states.row(r));
                    row[self.state_dim..].copy_from_slice(&cand.onehot);
                }
                total += candidates.len();
            }
            let cand_q = self.target_critic.forward(&cand_rows);
            Self::fold_targets(
                cand_q,
                &scratch.cands,
                &scratch.rewards,
                self.config.gamma,
                &mut scratch.targets,
            );
        }

        /// [`DdpgAgent::update_from_targets`] with every differentiated
        /// pass dense: the critic and actor forwards over every input
        /// column, and the critic's input gradient as the full backward's
        /// `dx` (`dz · W` over all `state + action` columns), read at the
        /// action block.
        fn update_from_targets_dense(&mut self) -> f64 {
            let scratch = &mut self.scratch;
            let (h, sd) = (scratch.states.rows(), self.state_dim);
            let pred = self.critic.forward(&scratch.critic_in);
            let mut grad = Matrix::zeros(h, 1);
            let mut loss = 0.0f64;
            for r in 0..h {
                let d = pred[(r, 0)] - scratch.targets[r];
                loss += d.to_f64() * d.to_f64();
                grad[(r, 0)] = S::from_f64(2.0 / h as f64) * d;
            }
            loss /= h as f64;
            self.critic.zero_grad();
            self.critic.backward_params(&grad);
            self.critic.apply_gradients(&mut self.critic_opt);

            let protos = self.actor.forward(&scratch.states);
            for r in 0..h {
                scratch.critic_in.row_mut(r)[sd..].copy_from_slice(protos.row(r));
            }
            self.critic.forward(&scratch.critic_in);
            let mut ones = Matrix::zeros(h, 1);
            ones.data_mut().fill(S::ONE);
            let full_grad = self.critic.backward(&ones).clone();
            self.critic.zero_grad();
            let inv_h = S::from_f64(1.0 / h as f64);
            let actor_grad =
                Matrix::from_fn(h, self.action_dim, |r, c| -(full_grad[(r, sd + c)] * inv_h));
            self.actor.zero_grad();
            self.actor.backward_params(&actor_grad);
            self.actor.apply_gradients(&mut self.actor_opt);

            self.target_critic
                .soft_update_from(&self.critic, self.config.tau);
            self.target_actor
                .soft_update_from(&self.actor, self.config.tau);
            self.train_steps += 1;
            loss
        }

        /// [`DdpgAgent::train_step`] (or, given a sharded buffer,
        /// [`DdpgAgent::train_step_from`]) with the dense reference targets
        /// and the dense reference updates: same sampling.
        fn dense_reference_step(
            &mut self,
            replay: Option<&ShardedReplayBuffer<S>>,
            mapper: &mut dyn ActionMapper<S>,
            rng: &mut StdRng,
        ) -> Option<f64> {
            let sampled = match replay {
                Some(replay) => self.sample_sharded_replay(replay, rng),
                None => self.sample_own_replay(rng),
            };
            sampled.then(|| {
                self.td_targets_dense(mapper);
                self.update_from_targets_dense()
            })
        }
    }

    /// One dense-reference comparison: a problem shape, a mapper, a
    /// minibatch size and a replay fill (below `batch`, sampling with
    /// replacement repeats rows within a minibatch).
    struct TrainCase {
        n: usize,
        m: usize,
        /// `ScalableMapper::from_knobs` arguments: 0 groups is the flat
        /// `KBestMapper`; `prune` below `k` leaves fewer candidates per
        /// row than `k`, and so GEMM tail rows in the candidate batch.
        groups: usize,
        prune: usize,
        batch: usize,
        fill: usize,
        sharded: bool,
        steps: usize,
    }

    /// Twin agents through `steps` consecutive train steps — one on the
    /// support-driven path, one on [`DdpgAgent::td_targets_dense`] and
    /// [`DdpgAgent::update_from_targets_dense`] run under a 4-thread pool
    /// so that products past the sharding cutoff take the parallel GEMM —
    /// must agree on every TD target, every loss and, afterwards, every
    /// parameter of all four networks, bit for bit.
    fn train_step_matches_dense_reference<S: Scalar>(case: &TrainCase) {
        use crate::mapper::ScalableMapper;
        use rand::RngExt;
        use std::sync::Arc;
        let TrainCase { n, m, .. } = *case;
        // A three-entry rate tail with an exact zero inside it.
        let state_dim = n * m + 3;
        let cfg = DdpgConfig {
            batch: case.batch,
            seed: 5 + case.groups as u64,
            ..DdpgConfig::default()
        };
        let mut sparse: DdpgAgent<S> = DdpgAgent::new(state_dim, n * m, cfg);
        let mut dense: DdpgAgent<S> = DdpgAgent::new(state_dim, n * m, cfg);
        let shard_capacity = if case.sharded { case.fill } else { 1 };
        let sharded = ShardedReplayBuffer::new(2, shard_capacity, state_dim, n * m);
        let mut rng = StdRng::seed_from_u64(31);
        let state = |rng: &mut StdRng| {
            let mut s: Vec<S> = control_state(n, m, rng);
            s.insert(n * m + 1, S::ZERO);
            s
        };
        for i in 0..case.fill {
            let (s, next) = (state(&mut rng), state(&mut rng));
            let action = control_state::<S>(n, m, &mut rng)[..n * m].to_vec();
            let reward = S::from_f64(rng.random_range(-3.0..-0.5));
            if case.sharded {
                sharded.push_rows(i % 2, &s, &action, reward, &next);
            } else {
                let t = Transition::new(s, action, reward, next);
                sparse.store(t.clone());
                dense.store(t);
            }
        }
        let replay = case.sharded.then_some(&sharded);
        let mut mapper = ScalableMapper::from_knobs(n, m, case.groups, case.prune);
        let mut mapper_ref = mapper.clone();
        let mut rng_ref = StdRng::from_state(rng.state());
        let pool = Arc::new(workpool::Pool::new(4));
        for step in 0..case.steps {
            let got = match replay {
                Some(replay) => sparse.train_step_from(replay, &mut mapper, &mut rng),
                None => sparse.train_step(&mut mapper, &mut rng),
            };
            let want = workpool::with_pool(Arc::clone(&pool), || {
                dense.dense_reference_step(replay, &mut mapper_ref, &mut rng_ref)
            });
            assert!(got.is_some(), "step {step}: nothing to train on");
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "step {step}: loss"
            );
            let bits = |targets: &[S]| -> Vec<u64> {
                targets.iter().map(|t| t.to_f64().to_bits()).collect()
            };
            assert_eq!(
                bits(&sparse.scratch.targets),
                bits(&dense.scratch.targets),
                "step {step}: TD targets"
            );
            assert_eq!(rng.state(), rng_ref.state(), "step {step}: RNG stream");
            let per_row = case.prune.min(cfg.k);
            if per_row > 0 {
                assert!(sparse.scratch.cands.iter().all(|c| c.len() == per_row));
            }
        }
        let nets = |a: &DdpgAgent<S>| {
            [
                param_bits(&a.actor),
                param_bits(&a.critic),
                param_bits(&a.target_actor),
                param_bits(&a.target_critic),
            ]
        };
        assert!(nets(&sparse) == nets(&dense), "parameters diverged");
    }

    #[test]
    fn train_step_matches_dense_reference_flat_and_hierarchical() {
        let cases = [
            // Flat mapper, own replay; 256 candidate rows of width 123
            // put the reference's target-critic product (2M
            // multiply-adds) well past the GEMM's sharding cutoff.
            TrainCase {
                n: 10,
                m: 6,
                groups: 0,
                prune: 0,
                batch: 32,
                fill: 80,
                sharded: false,
                steps: 24,
            },
            // Hierarchical mapper pruned to 3 of K = 8 candidates per row
            // (27 candidate rows: full tiles plus tail rows), sharded
            // replay, and fewer stored rows than the minibatch draws.
            TrainCase {
                n: 6,
                m: 4,
                groups: 2,
                prune: 3,
                batch: 9,
                fill: 5,
                sharded: true,
                steps: 24,
            },
        ];
        for case in &cases {
            train_step_matches_dense_reference::<f32>(case);
            train_step_matches_dense_reference::<f64>(case);
        }
    }

    /// Fleet width: column offsets past 2¹⁶, `Wᵀ` caches with
    /// `cols ≫ rows`, two candidates per row, and a batch of 9 so that both
    /// reference products end in GEMM tail rows. Minutes in a debug build,
    /// so CI runs it in release (`fleet-smoke`).
    #[test]
    #[ignore = "fleet-width networks: run with --release -- --ignored"]
    fn train_step_matches_dense_reference_at_fleet_width() {
        train_step_matches_dense_reference::<f32>(&TrainCase {
            n: 1152,
            m: 128,
            groups: 16,
            prune: 2,
            batch: 9,
            fill: 12,
            sharded: false,
            steps: 3,
        });
    }

    /// After a train step each first layer holds its weight gradient at
    /// the minibatch's support — the critic's over the states' and actions'
    /// nonzero columns, the actor's over the states' — and nothing else: the
    /// target networks, which never run a backward, hold no gradient at all.
    /// Returns the agent.
    fn train_step_holds_gradients_at_the_support(
        n: usize,
        m: usize,
        batch: usize,
        fill: usize,
    ) -> DdpgAgent<Elem> {
        use crate::mapper::ScalableMapper;
        use rand::RngExt;
        let state_dim = n * m + 2;
        let cfg = DdpgConfig {
            batch,
            ..DdpgConfig::default()
        };
        let mut agent: DdpgAgent<Elem> = DdpgAgent::new(state_dim, n * m, cfg);
        let mut rng = StdRng::seed_from_u64(19);
        for _ in 0..fill {
            let (s, next) = (control_state(n, m, &mut rng), control_state(n, m, &mut rng));
            let action = control_state::<Elem>(n, m, &mut rng)[..n * m].to_vec();
            let reward = rng.random_range(-3.0..-0.5);
            agent.store(Transition::new(s, action, reward, next));
        }
        let mut mapper = ScalableMapper::from_knobs(n, m, 0, 0);
        let holds_none = |net: &Mlp<Elem>| net.layers().iter().all(|l| l.grad_len() == [0, 0]);
        for step in 0..2 {
            agent
                .train_step(&mut mapper, &mut rng)
                .expect("replay filled");
            let in_dim = state_dim + n * m;
            let touched = |c: usize| {
                agent.scratch.idx.iter().any(|&i| {
                    let t = agent.replay.get(i);
                    let v = if c < state_dim {
                        t.state[c]
                    } else {
                        t.action[c - state_dim]
                    };
                    v != 0.0
                })
            };
            let support: Vec<usize> = (0..in_dim).filter(|&c| touched(c)).collect();
            let state_cols = support.partition_point(|&c| c < state_dim);
            let h1 = cfg.hidden[0];
            for (net, cols) in [
                (&agent.critic, &support[..]),
                (&agent.actor, &support[..state_cols]),
            ] {
                let first = &net.layers()[0];
                assert_eq!(first.grad_cols(), cols, "step {step}");
                assert_eq!(first.grad_len(), [h1 * cols.len(), h1], "step {step}");
            }
            assert!(holds_none(&agent.target_actor), "step {step}: target actor");
            assert!(
                holds_none(&agent.target_critic),
                "step {step}: target critic"
            );
        }
        agent
    }

    #[test]
    fn train_step_holds_gradients_at_the_support_and_targets_hold_none() {
        let agent = train_step_holds_gradients_at_the_support(10, 6, 16, 40);
        // Nets rebuilt from bytes carry no gradient until they train.
        let restored: DdpgAgent = DdpgAgent::restore_state(&agent.save_state()).unwrap();
        let mut replica: DdpgAgent = DdpgAgent::new(62, 60, DdpgConfig::default());
        replica.apply_policy(&agent.save_policy()).unwrap();
        for agent in [&restored, &replica] {
            let nets = [
                &agent.actor,
                &agent.critic,
                &agent.target_actor,
                &agent.target_critic,
            ];
            for net in nets {
                assert!(net.layers().iter().all(|l| l.grad_len() == [0, 0]));
            }
        }
    }

    /// [`train_step_holds_gradients_at_the_support`] at
    /// `train_step_matches_dense_reference_at_fleet_width`'s shape: first
    /// layers 64 × 294 920 and 64 × 147 458 wide, the support a few
    /// percent of that.
    #[test]
    #[ignore = "fleet-width networks: run with --release -- --ignored"]
    fn train_step_holds_gradients_at_the_support_at_fleet_width() {
        train_step_holds_gradients_at_the_support(1152, 128, 9, 12);
    }

    /// `apply_policy` and `restore_state` replace weights the support pack
    /// may already hold: the packed-row primitive must see the new ones.
    #[test]
    fn packed_rows_see_installed_and_restored_weights() {
        let mut agent: DdpgAgent<f32> = DdpgAgent::new(4, 4, toy_config());
        let mut donor: DdpgAgent<f32> = DdpgAgent::new(
            4,
            4,
            DdpgConfig {
                seed: 999,
                ..toy_config()
            },
        );
        let pairs = [(1usize, 0.5f32), (3, -2.0), (6, 1.0)];
        let first_layer = |critic: &mut Mlp<f32>| {
            let mut packed = vec![0.0; 16];
            critic.pack_first_layer(&[1, 3, 6]);
            critic.accumulate_first_layer(&pairs, &mut packed);
            // `accumulate_cols` reads `W` directly: the uncached reference.
            let x = [0.0, 0.5, 0.0, -2.0, 0.0, 0.0, 1.0, 0.0];
            let mut direct = vec![0.0; 16];
            critic.layers()[0].accumulate_cols(&[1, 3, 6], &x, &mut direct);
            assert_eq!(packed, direct, "stale Wᵀ");
            // The differentiated forwards read the same pack.
            let batch = Matrix::row_vector(&x);
            let want = critic.infer(&batch);
            // A clone carries the pack as it stands.
            let mut first = critic.layers()[0].clone();
            assert_eq!(critic.forward_rows(&batch, &[1, 3, 6]), &want, "stale rows");
            assert_eq!(
                first.forward_support(&batch, &[1, 3, 6]),
                &critic.layers()[0].infer(&batch),
                "stale GEMM"
            );
            packed
        };
        let before = first_layer(&mut agent.critic);
        agent.apply_policy(&donor.save_policy()).unwrap();
        let installed = first_layer(&mut agent.critic);
        assert_ne!(installed, before);
        assert_eq!(installed, first_layer(&mut donor.critic));

        let mut restored: DdpgAgent<f32> = DdpgAgent::restore_state(&agent.save_state()).unwrap();
        assert_eq!(first_layer(&mut restored.target_critic), before);
        assert_eq!(first_layer(&mut restored.critic), installed);
    }

    /// Installing a policy is a copy: a replica whose networks hold NaN and
    /// infinities (a diverged learner) ends up with the donor's exact
    /// weights — a `−0` among them — and the donor's decisions, which a
    /// `τ = 1` soft update (`1·s + 0·t`) cannot give it.
    #[test]
    fn apply_policy_restores_a_poisoned_replica() {
        use dss_nn::Dense;
        let rebuilt = |net: &Mlp<f32>, weight: &dyn Fn(usize, usize, f32) -> f32| {
            let layers = net.layers().iter().map(|l| {
                let w = l.weights();
                let w = Matrix::from_fn(w.rows(), w.cols(), |r, c| weight(r, c, w[(r, c)]));
                let b = l.bias().iter().map(|&b| weight(0, 0, b)).collect();
                Dense::from_parts(w, b, l.activation())
            });
            Mlp::from_layers(layers.collect())
        };
        let mut donor: DdpgAgent<f32> = DdpgAgent::new(4, 4, toy_config());
        donor.actor = rebuilt(&donor.actor, &|r, c, v| {
            if (r, c) == (1, 2) {
                -0.0
            } else {
                v
            }
        });
        let mut replica: DdpgAgent<f32> = DdpgAgent::new(4, 4, toy_config());
        let poison =
            |r: usize, c: usize, _| [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(r + c) % 3];
        replica.actor = rebuilt(&replica.actor, &poison);
        replica.critic = rebuilt(&replica.critic, &poison);

        replica.apply_policy(&donor.save_policy()).unwrap();
        assert_eq!(param_bits(&replica.actor), param_bits(&donor.actor));
        assert_eq!(param_bits(&replica.critic), param_bits(&donor.critic));
        let mut mapper = KBestMapper::new(2, 2);
        let (mut a, mut b) = (ActScratch::default(), ActScratch::default());
        for (seed, state) in [[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]]
            .iter()
            .enumerate()
        {
            let rng = || StdRng::seed_from_u64(seed as u64);
            let none = std::iter::empty;
            let want =
                donor.select_action_among(state, &mut mapper, 0.5, &mut rng(), none(), &mut a);
            let got =
                replica.select_action_among(state, &mut mapper, 0.5, &mut rng(), none(), &mut b);
            assert_eq!((got.0, got.1.to_bits()), (want.0, want.1.to_bits()));
            assert_eq!(a.cands, b.cands);
        }
    }

    #[test]
    fn shims_return_the_single_paths_winner() {
        let agent: DdpgAgent<f64> = DdpgAgent::new(4, 4, toy_config());
        let mut mapper = KBestMapper::new(2, 2);
        let mut scratch = ActScratch::default();
        let state = [0.3, 0.7, 0.1, 0.9];
        let extra = CandidateAction {
            choice: vec![1, 1],
            onehot: vec![0.0, 1.0, 0.0, 1.0],
            cost: 0.0,
        };
        for (seed, eps) in [(1u64, 0.0), (2, 0.5), (3, 1.0)] {
            let rng = || StdRng::seed_from_u64(seed);
            let idx = agent.select_action_into(&state, &mut mapper, eps, &mut rng(), &mut scratch);
            let plain = agent.select_action(&state, &mut mapper, eps, &mut rng());
            assert_eq!(plain, scratch.cands[idx], "seed {seed} eps {eps}");
            let (pos, _) = agent.select_action_among(
                &state,
                &mut mapper,
                eps,
                &mut rng(),
                [extra.choice.as_slice()],
                &mut scratch,
            );
            let with = agent.select_action_with_extras(
                &state,
                &mut mapper,
                eps,
                &mut rng(),
                vec![extra.clone()],
            );
            let want = scratch.cands.get(pos).unwrap_or(&extra);
            assert_eq!(&with, want, "seed {seed} eps {eps}");
        }
    }

    #[test]
    fn train_step_without_data_is_none() {
        let mut agent: DdpgAgent<f64> = DdpgAgent::new(2, 4, toy_config());
        let mut mapper = KBestMapper::new(2, 2);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(agent.train_step(&mut mapper, &mut rng), None);
    }

    /// A 3-state, 2-action agent whose actor is 3→4→4→2: 46 parameters,
    /// as many as 3→5→3→2.
    fn agent_3x2() -> DdpgAgent {
        let mut config = toy_config();
        config.hidden = [4, 4];
        DdpgAgent::new(3, 2, config)
    }

    /// A network with `sizes`, tanh hidden layers and `out` at the output.
    fn net(sizes: &[usize], out: Activation) -> Mlp {
        Mlp::new(sizes, &[Activation::Tanh, Activation::Tanh, out], 17)
    }

    #[test]
    fn apply_policy_compares_layers_not_parameter_counts() {
        // The frame used to pass the parameter-count check and panic in
        // the parameter copy.
        let mut replica = agent_3x2();
        let mut donor = agent_3x2();
        donor.actor = net(&[3, 5, 3, 2], Activation::Sigmoid);
        assert_eq!(donor.actor.param_count(), replica.actor.param_count());
        let before = replica.save_policy();
        assert!(matches!(
            replica.apply_policy(&donor.save_policy()),
            Err(SnapshotError::BadStructure(_))
        ));
        assert_eq!(replica.save_policy(), before, "agent modified on error");
    }

    #[test]
    fn restore_state_checks_target_layers_and_critic_width() {
        // A target actor with the actor's parameter count, other layers.
        let mut agent = agent_3x2();
        agent.target_actor = net(&[3, 5, 3, 2], Activation::Sigmoid);
        assert!(matches!(
            DdpgAgent::<Elem>::restore_state(&agent.save_state()),
            Err(SnapshotError::BadStructure(_))
        ));
        // A two-output critic (and its matching target) is not a Q-network.
        let mut agent = agent_3x2();
        agent.critic = net(&[5, 4, 4, 2], Activation::Identity);
        agent.target_critic = agent.critic.clone();
        assert!(matches!(
            DdpgAgent::<Elem>::restore_state(&agent.save_state()),
            Err(SnapshotError::BadStructure(_))
        ));
        assert!(DdpgAgent::<Elem>::restore_state(&agent_3x2().save_state()).is_ok());
    }

    #[test]
    fn policy_blob_transfers_decisions_bit_identically() {
        use dss_nn::Elem;
        let e = Elem::from_f64;
        let mut donor: DdpgAgent = DdpgAgent::new(4, 4, toy_config());
        let mut mapper = KBestMapper::new(2, 2);
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..30 {
            let mut state = vec![e(0.0); 4];
            state[i % 4] = e(1.0);
            let c = donor.select_action(&state, &mut mapper, 0.5, &mut rng);
            let r = e(toy_reward(&c.choice));
            donor.store(Transition::new(state.clone(), c.onehot.clone(), r, state));
            donor.train_step(&mut mapper, &mut rng);
        }

        // A fresh same-shape replica with a different seed starts on a
        // different policy; applying the blob puts it on the donor's.
        let blob = donor.save_policy();
        assert!(
            blob.len() < donor.save_state().len() / 2,
            "policy blob should be much smaller than a full checkpoint"
        );
        let mut replica: DdpgAgent = DdpgAgent::new(
            4,
            4,
            DdpgConfig {
                seed: 999,
                ..toy_config()
            },
        );
        let steps = replica.apply_policy(&blob).unwrap();
        assert_eq!(steps, donor.train_steps());
        let state = [e(0.0), e(1.0), e(1.0), e(0.0)];
        let pa = donor.proto_action(&state);
        let pb = replica.proto_action(&state);
        for (a, b) in pa.iter().zip(&pb) {
            assert_eq!(a.to_f64().to_bits(), b.to_f64().to_bits());
        }
        let qa = donor.q_value(&state, &[e(1.0), e(0.0), e(0.0), e(1.0)]);
        let qb = replica.q_value(&state, &[e(1.0), e(0.0), e(0.0), e(1.0)]);
        assert_eq!(qa.to_f64().to_bits(), qb.to_f64().to_bits());

        // Typed failures: wrong kind, wrong shape, trailing bytes.
        assert!(matches!(
            replica.apply_policy(&donor.save_state()),
            Err(SnapshotError::WrongKind(_))
        ));
        let mut narrow: DdpgAgent = DdpgAgent::new(2, 4, toy_config());
        assert!(matches!(
            narrow.apply_policy(&blob),
            Err(SnapshotError::BadStructure(_))
        ));
        let mut trailing = blob.clone();
        trailing.push(0);
        assert!(matches!(
            replica.apply_policy(&trailing),
            Err(SnapshotError::BadStructure(_))
        ));
    }

    #[test]
    fn snapshot_round_trip_continues_training_bit_identically() {
        use dss_nn::Elem;
        let e = Elem::from_f64;
        let cfg = DdpgConfig {
            replay_capacity: 24, // small enough to wrap during warm-up
            batch: 8,
            k: 2,
            hidden: [8, 4],
            seed: 11,
            ..DdpgConfig::default()
        };
        let mut agent: DdpgAgent = DdpgAgent::new(4, 4, cfg);
        let mut mapper = KBestMapper::new(2, 2);
        let mut rng = StdRng::seed_from_u64(77);
        for i in 0..40 {
            let mut state = vec![e(0.0); 4];
            state[i % 4] = e(1.0);
            let c = agent.select_action(&state, &mut mapper, 0.5, &mut rng);
            let r = e(toy_reward(&c.choice));
            let mut next = vec![e(0.0); 4];
            next[(i + 1) % 4] = e(1.0);
            agent.store(Transition::new(state, c.onehot.clone(), r, next));
            agent.train_step(&mut mapper, &mut rng);
        }

        let image = agent.save_state();
        let mut restored: DdpgAgent = DdpgAgent::restore_state(&image).unwrap();
        assert_eq!(restored.train_steps(), agent.train_steps());
        assert_eq!(restored.replay_len(), agent.replay_len());

        // Continue both agents in lockstep from the same RNG state.
        let mut rng_b = StdRng::from_state(rng.state());
        let mut mapper_b = KBestMapper::new(2, 2);
        for i in 0..20 {
            let mut state = vec![e(0.0); 4];
            state[(3 * i) % 4] = e(1.0);
            let ca = agent.select_action(&state, &mut mapper, 0.3, &mut rng);
            let cb = restored.select_action(&state, &mut mapper_b, 0.3, &mut rng_b);
            assert_eq!(ca, cb, "step {i} diverged");
            let r = e(toy_reward(&ca.choice));
            let next = state.clone();
            agent.store(Transition::new(
                state.clone(),
                ca.onehot.clone(),
                r,
                next.clone(),
            ));
            restored.store(Transition::new(state, cb.onehot.clone(), r, next));
            let la = agent.train_step(&mut mapper, &mut rng);
            let lb = restored.train_step(&mut mapper_b, &mut rng_b);
            assert_eq!(
                la.map(f64::to_bits),
                lb.map(f64::to_bits),
                "loss diverged at step {i}"
            );
        }
        let s = [e(0.25), e(0.5), e(0.75), e(1.0)];
        let pa = agent.proto_action(&s);
        let pb = restored.proto_action(&s);
        for (a, b) in pa.iter().zip(&pb) {
            assert_eq!(a.to_f64().to_bits(), b.to_f64().to_bits());
        }
    }
}
