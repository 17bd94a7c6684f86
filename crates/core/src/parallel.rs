//! Parallel-actor experience collection: N independent environments step
//! concurrently, feeding one learner through a sharded replay buffer.
//!
//! This is the Rapid-style layout (see PAPERS.md) the ROADMAP queued
//! behind "Replay at scale": the frozen-for-the-round agent is shared
//! read-only across actor tasks on the [`workpool`] pool, each actor owns
//! its *own* environment, K-NN mapper, exploration RNG and replay shard,
//! and the learner consumes uniform cross-shard minibatches via
//! [`DdpgAgent::train_step_from`].
//!
//! # Backend-generic
//!
//! The collector is generic over `E:`[`Environment`] — the same loop
//! trains against the analytic evaluator ([`AnalyticEnv`], cheap, the
//! default) or the tuple-level engine ([`SimEnv`], high-fidelity), or any
//! future backend. Construction goes through an **env factory**
//! ([`ParallelCollector::from_factory`]): the factory builds actor `i`'s
//! private environment, base workload and starting assignment, so a fleet
//! can be homogeneous (N copies of one scenario, differently seeded) or
//! heterogeneous (domain randomization: each actor a different scenario —
//! see [`crate::scenario`]).
//!
//! Schedule-aware backends evolve their offered load over (virtual or
//! simulated) time; each actor refreshes its *observed* workload from
//! [`Environment::workload_multiplier`] every epoch, so the state the
//! agent trains on tracks the load it is measured under.
//!
//! # Reproducibility
//!
//! Collection alternates *rounds*: actors step in parallel (no shared
//! mutable state — each writes only its own shard and its own RNG/env),
//! then the learner trains on the frozen buffer. Per-actor seeds are
//! derived from the config seed and the actor index, so a run's episode
//! rewards are a pure function of `(seed, n_actors, steps)` — thread
//! scheduling cannot reorder anything an actor observes. The same layout
//! is what lets a 2-actor rollout reproduce bit-identical rewards across
//! runs (see the determinism test).
//!
//! [`SimEnv`]: crate::env::SimEnv

use rand::rngs::StdRng;
use rand::SeedableRng;

use dss_rl::{
    ActScratch, ActionMapper, CandidateAction, DdpgAgent, Elem, HierarchicalMapper, KBestMapper,
    ScalableMapper, Scalar, ShardedReplayBuffer,
};
use dss_sim::{AnalyticModel, Assignment, ClusterSpec, SimConfig, Topology, Workload};

use crate::action::choice_to_assignment;
use crate::config::ControlConfig;
use crate::env::{AnalyticEnv, Environment};
use crate::reward::RewardScale;
use crate::state::featurize_into;

/// Compile-time proof that the simulation stack crosses threads: the
/// collector moves environments into pool tasks, so everything an actor
/// owns must be `Send`, and everything it shares must be `Sync`.
#[allow(dead_code)]
fn assert_thread_safe() {
    fn send<T: Send>() {}
    fn sync<T: Sync>() {}
    send::<AnalyticEnv>();
    send::<crate::env::SimEnv>();
    send::<crate::env::ClusterEnv>();
    send::<dss_sim::SimEngine>();
    send::<KBestMapper>();
    send::<HierarchicalMapper>();
    send::<ScalableMapper>();
    send::<StdRng>();
    send::<ActScratch>();
    sync::<DdpgAgent>();
    sync::<ShardedReplayBuffer<Elem>>();
}

/// What the env factory hands the collector for one actor: a private
/// backend instance plus the actor's base workload and starting
/// assignment. All actors of one fleet must agree on the problem shape
/// (`N`, `M`, number of data sources) — that is what makes their
/// transitions poolable in one replay and trainable by one agent.
pub struct ActorSetup<E> {
    /// The actor's private environment (moved into its pool task).
    pub env: E,
    /// Base workload (the schedule-unscaled `w` of the actor's scenario).
    pub workload: Workload,
    /// Assignment deployed before the first decision.
    pub initial: Assignment,
}

/// One rollout actor: a private environment plus everything needed to
/// run the act half of Algorithm 1 without touching shared mutable state.
/// [`ParallelCollector`] steps a fleet of them under a shared agent, a
/// rollout worker of the async service steps one under its policy
/// replica; the seed derivation, the mapper knobs and the order of a step
/// are here, once. Features, mapper workspace and the caller's act
/// scratch are reused buffers and the transition is stored as row slices,
/// so a warm step allocates nothing beyond the deployed [`Assignment`].
pub struct Actor<E> {
    env: E,
    mapper: ScalableMapper,
    rng: StdRng,
    current: Assignment,
    /// Base workload of the actor's scenario (never mutated).
    workload: Workload,
    /// Schedule-scaled workload observed this epoch (reused buffer).
    observed: Workload,
    /// Reused state-feature buffer (this step's `(X, w)`).
    features: Vec<Elem>,
    /// Reused next-state-feature buffer.
    next_features: Vec<Elem>,
    rate_scale: f64,
    reward: RewardScale,
}

impl<E: Environment> Actor<E> {
    /// Actor `id` of a fleet: its exploration RNG is seeded from
    /// `cfg.seed` and `id`, so a fleet is reproducible and its actors
    /// decorrelated whichever driver steps them.
    pub fn new(id: usize, setup: ActorSetup<E>, cfg: &ControlConfig) -> Self {
        Self {
            mapper: ScalableMapper::from_knobs(
                setup.env.n_executors(),
                setup.env.n_machines(),
                cfg.mapper_groups,
                cfg.mapper_prune,
            ),
            rng: StdRng::seed_from_u64(cfg.seed ^ (0xAC70 + id as u64)),
            current: setup.initial,
            env: setup.env,
            observed: setup.workload.clone(),
            workload: setup.workload,
            features: Vec::new(),
            next_features: Vec::new(),
            rate_scale: cfg.rate_scale,
            reward: RewardScale {
                per_ms: cfg.reward_per_ms,
            },
        }
    }

    /// The actor's environment.
    pub fn env(&self) -> &E {
        &self.env
    }

    /// One decision epoch: featurize → `decide` → deploy → reward →
    /// re-read the multiplier → featurize the successor → `store`.
    /// `decide` picks one of the mapper's candidates for the state
    /// features under whatever policy the caller holds; `store` receives
    /// `(state, one-hot action, reward, next state)`. Returns the reward.
    pub fn step<'c>(
        &mut self,
        decide: impl FnOnce(&[Elem], &mut ScalableMapper, &mut StdRng) -> &'c CandidateAction,
        store: impl FnOnce(&[Elem], &[Elem], f64, &[Elem]),
    ) -> f64 {
        // The workload the agent observes this epoch: the scenario's
        // base rates under the backend's current schedule multiplier.
        let mult = self.env.workload_multiplier();
        self.observed.copy_scaled_from(&self.workload, mult);
        featurize_into(
            &self.current,
            &self.observed,
            self.rate_scale,
            &mut self.features,
        );
        let cand = decide(&self.features, &mut self.mapper, &mut self.rng);
        let action = choice_to_assignment(&cand.choice, self.current.n_machines())
            .expect("mapper candidates are feasible");
        let latency = self.env.deploy_and_measure(&action, &self.workload);
        let r = self.reward.reward(latency);
        // The epoch just advanced: s' carries the load the next decision
        // will see (re-read, not the pre-epoch multiplier), so TD targets
        // stay consistent across schedule changes.
        let mult = self.env.workload_multiplier();
        self.observed.copy_scaled_from(&self.workload, mult);
        featurize_into(
            &action,
            &self.observed,
            self.rate_scale,
            &mut self.next_features,
        );
        store(&self.features, &cand.onehot, r, &self.next_features);
        self.current = action;
        r
    }
}

/// Steps N independent environments concurrently and pushes their
/// transitions into a [`ShardedReplayBuffer`] (shard `i` ← actor `i`).
/// Generic over the backend `E` (see the module docs).
pub struct ParallelCollector<E: Environment + Send = AnalyticEnv> {
    /// Each actor with the act-path scratch its decisions run through.
    actors: Vec<(Actor<E>, ActScratch)>,
    replay: ShardedReplayBuffer<Elem>,
}

impl<E: Environment + Send> ParallelCollector<E> {
    /// Builds `n_actors` actors from an env factory: `factory(i)` returns
    /// actor `i`'s private environment, base workload and starting
    /// assignment. Exploration RNGs are seeded from `cfg.seed` and `i`, so
    /// runs are reproducible (and actors decorrelated); the factory is
    /// expected to seed its environments the same way (see
    /// [`crate::scenario`] for ready-made factories).
    ///
    /// # Panics
    /// Panics when `n_actors == 0`, or when the actors disagree on the
    /// problem shape (executors, machines, data sources) — heterogeneous
    /// fleets must still share one state/action space.
    pub fn from_factory(
        cfg: &ControlConfig,
        n_actors: usize,
        shard_capacity: usize,
        mut factory: impl FnMut(usize) -> ActorSetup<E>,
    ) -> Self {
        assert!(n_actors > 0, "need at least one actor");
        let actors: Vec<(Actor<E>, ActScratch)> = (0..n_actors)
            .map(|i| (Actor::new(i, factory(i), cfg), ActScratch::default()))
            .collect();
        let shape = |a: &Actor<E>| {
            (
                a.env.n_executors(),
                a.env.n_machines(),
                a.workload.rates().len(),
            )
        };
        let (n, m, n_sources) = shape(&actors[0].0);
        for (i, (a, _)) in actors.iter().enumerate() {
            assert_eq!(
                shape(a),
                (n, m, n_sources),
                "actor {i}: (executors, machines, sources)"
            );
        }
        Self {
            actors,
            replay: ShardedReplayBuffer::new(n_actors, shard_capacity, n * m + n_sources, n * m),
        }
    }

    /// Number of actors (= replay shards).
    pub fn n_actors(&self) -> usize {
        self.actors.len()
    }

    /// The sharded replay the actors feed (hand this to
    /// [`DdpgAgent::train_step_from`]).
    pub fn replay(&self) -> &ShardedReplayBuffer<Elem> {
        &self.replay
    }

    /// Read access to actor `i`'s environment (inspection in tests/benches).
    pub fn env(&self, actor: usize) -> &E {
        self.actors[actor].0.env()
    }

    /// One collection round: every actor runs `steps` decision epochs
    /// ([`Actor::step`]) under `agent` at exploration `eps`, in parallel
    /// on the current [`workpool`] pool, pushing each transition into its
    /// own shard. The agent is shared read-only; training happens between
    /// rounds on the learner side. Returns the per-actor summed rewards
    /// for the round.
    pub fn collect_round(&mut self, agent: &DdpgAgent, eps: f64, steps: usize) -> Vec<f64> {
        let replay = &self.replay;
        let mut rewards = vec![0.0; self.actors.len()];
        workpool::with_current(|pool| {
            pool.scope(|s| {
                for (shard, ((actor, act), total)) in
                    self.actors.iter_mut().zip(&mut rewards).enumerate()
                {
                    s.spawn(move || {
                        for _ in 0..steps {
                            let act = &mut *act;
                            *total += actor.step(
                                move |features, mapper, rng| {
                                    let best =
                                        agent.select_action_into(features, mapper, eps, rng, act);
                                    &act.cands[best]
                                },
                                // Three row copies straight into the
                                // shard's structure-of-arrays slabs.
                                |s, a, r, next| {
                                    replay.push_rows(shard, s, a, Elem::from_f64(r), next)
                                },
                            );
                        }
                    });
                }
            });
        });
        rewards
    }

    /// Parallel online learning: alternates collection rounds with
    /// learner updates per `plan`. Returns the mean per-transition reward
    /// of each round.
    pub fn run(
        &mut self,
        agent: &mut DdpgAgent,
        mapper: &mut dyn ActionMapper<Elem>,
        rng: &mut StdRng,
        plan: &RoundPlan,
        eps_for_round: impl Fn(usize) -> f64,
    ) -> Vec<f64> {
        (0..plan.rounds)
            .map(|round| {
                let rewards = self.collect_round(agent, eps_for_round(round), plan.steps_per_actor);
                for _ in 0..plan.train_per_round {
                    agent.train_step_from(&self.replay, mapper, rng);
                }
                let transitions = (self.actors.len() * plan.steps_per_actor).max(1);
                rewards.iter().sum::<f64>() / transitions as f64
            })
            .collect()
    }
}

impl ParallelCollector<AnalyticEnv> {
    /// Builds `n_actors` actors over private copies of the analytic
    /// environment for `topology` on `cluster` under `workload`, plus an
    /// `n_actors`-sharded replay of `shard_capacity` transitions each.
    /// Actor `i`'s model noise stream and exploration RNG are seeded from
    /// `cfg.seed` and `i`, so runs are reproducible (and actors
    /// decorrelated).
    ///
    /// # Panics
    /// Panics when `n_actors == 0` or the topology/cluster pair is invalid.
    pub fn new(
        topology: &Topology,
        cluster: &ClusterSpec,
        workload: &Workload,
        cfg: &ControlConfig,
        n_actors: usize,
        shard_capacity: usize,
    ) -> Self {
        Self::from_factory(cfg, n_actors, shard_capacity, |i| {
            let model = AnalyticModel::new(
                topology.clone(),
                cluster.clone(),
                SimConfig::steady_state(cfg.seed.wrapping_add(i as u64)),
            )
            .expect("valid topology/cluster")
            .with_noise(cfg.measurement_noise);
            ActorSetup {
                env: AnalyticEnv::new(model),
                workload: workload.clone(),
                initial: Assignment::round_robin(topology, cluster),
            }
        })
    }
}

/// Shape of one [`ParallelCollector::run`] schedule.
#[derive(Debug, Clone, Copy)]
pub struct RoundPlan {
    /// Collection/training rounds to run.
    pub rounds: usize,
    /// Decision epochs every actor collects per round.
    pub steps_per_actor: usize,
    /// Learner minibatch steps per round.
    pub train_per_round: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SimEnv;
    use crate::state::SchedState;
    use dss_rl::DdpgConfig;
    use dss_sim::{Grouping, RateSchedule, SimEngine, TopologyBuilder};

    fn topo() -> Topology {
        let mut b = TopologyBuilder::new("t");
        let s = b.spout("s", 1, 0.05);
        let x = b.bolt("x", 3, 0.2);
        b.edge(s, x, Grouping::Shuffle, 1.0, 64);
        b.build().unwrap()
    }

    fn agent_for(topology: &Topology, m: usize, cfg: &ControlConfig) -> DdpgAgent {
        let n = topology.n_executors();
        let state_dim = SchedState::feature_dim(n, m, 1);
        DdpgAgent::new(
            state_dim,
            n * m,
            DdpgConfig {
                k: 2,
                seed: cfg.seed,
                hidden: [16, 8],
                ..DdpgConfig::default()
            },
        )
    }

    fn collector(cfg: &ControlConfig, n_actors: usize) -> ParallelCollector {
        let topology = topo();
        let cluster = ClusterSpec::homogeneous(2);
        let workload = Workload::uniform(&topology, 100.0);
        ParallelCollector::new(&topology, &cluster, &workload, cfg, n_actors, 256)
    }

    fn sim_collector(cfg: &ControlConfig, n_actors: usize) -> ParallelCollector<SimEnv> {
        let topology = topo();
        let cluster = ClusterSpec::homogeneous(2);
        let workload = Workload::uniform(&topology, 100.0);
        ParallelCollector::from_factory(cfg, n_actors, 256, |i| {
            let engine = SimEngine::new(
                topology.clone(),
                cluster.clone(),
                workload.clone(),
                dss_sim::SimConfig::steady_state(cfg.seed.wrapping_add(i as u64)),
            )
            .expect("valid topology/cluster");
            ActorSetup {
                env: SimEnv::new(engine, 2.0),
                workload: workload.clone(),
                initial: Assignment::round_robin(&topology, &cluster),
            }
        })
    }

    #[test]
    fn collects_into_every_shard() {
        let cfg = ControlConfig::test();
        let topology = topo();
        let agent = agent_for(&topology, 2, &cfg);
        let mut col = collector(&cfg, 3);
        let rewards = col.collect_round(&agent, 0.3, 5);
        assert_eq!(rewards.len(), 3);
        assert_eq!(col.replay().len(), 15);
        for shard in 0..3 {
            assert_eq!(col.replay().shard_len(shard), 5);
        }
        // Rewards are negative scaled latencies.
        assert!(rewards.iter().all(|&r| r < 0.0));
    }

    #[test]
    fn two_actor_rollout_is_deterministic_across_runs() {
        // Same seeds → bit-identical episode rewards, independent of
        // thread scheduling, and identical under 1- and 4-thread pools.
        let cfg = ControlConfig::test();
        let topology = topo();
        let run = |threads: usize| {
            let agent = agent_for(&topology, 2, &cfg);
            let mut col = collector(&cfg, 2);
            workpool::with_pool(std::sync::Arc::new(workpool::Pool::new(threads)), || {
                let a = col.collect_round(&agent, 0.5, 8);
                let b = col.collect_round(&agent, 0.2, 8);
                (a, b)
            })
        };
        let first = run(4);
        let second = run(4);
        assert_eq!(first, second, "re-run must reproduce rewards exactly");
        let serial = run(1);
        assert_eq!(first, serial, "thread count must not change results");
    }

    #[test]
    fn sim_backend_collects_and_is_deterministic() {
        // The tuple-level backend through the same generic collector:
        // transitions land in every shard, and two same-seed runs trace
        // bit-identical rewards under 1- and 4-thread pools (each actor
        // owns its engine; thread scheduling cannot touch event order).
        let cfg = ControlConfig::test();
        let topology = topo();
        let run = |threads: usize| {
            let agent = agent_for(&topology, 2, &cfg);
            let mut col = sim_collector(&cfg, 2);
            workpool::with_pool(std::sync::Arc::new(workpool::Pool::new(threads)), || {
                col.collect_round(&agent, 0.4, 6)
            })
        };
        let first = run(4);
        assert_eq!(first.len(), 2);
        assert!(first.iter().all(|&r| r < 0.0));
        assert_eq!(first, run(4), "re-run must reproduce rewards exactly");
        assert_eq!(first, run(1), "thread count must not change results");
    }

    #[test]
    fn schedule_aware_actor_observes_scaled_workload() {
        // A step schedule on the sim backend: after the step time passes,
        // the actor's stored state features carry the doubled rate.
        let cfg = ControlConfig::test();
        let topology = topo();
        let cluster = ClusterSpec::homogeneous(2);
        let workload = Workload::uniform(&topology, 100.0);
        let agent = agent_for(&topology, 2, &cfg);
        let mut col = ParallelCollector::from_factory(&cfg, 1, 256, |_| {
            let mut engine = SimEngine::new(
                topology.clone(),
                cluster.clone(),
                workload.clone(),
                dss_sim::SimConfig::steady_state(cfg.seed),
            )
            .unwrap();
            // Step to 2x after 4 s of simulated time (epoch_s = 2).
            engine.set_rate_schedule(RateSchedule::step_at(4.0, 2.0));
            ActorSetup {
                env: SimEnv::new(engine, 2.0),
                workload: workload.clone(),
                initial: Assignment::round_robin(&topology, &cluster),
            }
        });
        col.collect_round(&agent, 0.3, 6);
        let n = topology.n_executors();
        let m = 2;
        // Workload feature is the last state entry; rate_scale from cfg.
        let first_w = col.replay().with_rows((0, 0), |s, _, _, _| s[n * m]);
        let late_w = col.replay().with_rows((0, 5), |s, _, _, _| s[n * m]);
        let base = Elem::from_f64(100.0 / cfg.rate_scale);
        assert!((first_w - base).abs() < 1e-6, "pre-step feature {first_w}");
        assert!(
            (late_w - base * 2.0).abs() < 1e-6,
            "post-step feature {late_w} should be doubled"
        );
    }

    #[test]
    fn hierarchical_mapper_knobs_flow_through_the_collector() {
        // Grouped-and-pruned action mapping rides the same loop: actors
        // collect feasible transitions, and same-seed runs stay
        // bit-reproducible across thread counts.
        let cfg = ControlConfig {
            mapper_groups: 2,
            mapper_prune: 2,
            ..ControlConfig::test()
        };
        let topology = topo();
        let run = |threads: usize| {
            let agent = agent_for(&topology, 2, &cfg);
            let mut col = collector(&cfg, 2);
            workpool::with_pool(std::sync::Arc::new(workpool::Pool::new(threads)), || {
                col.collect_round(&agent, 0.4, 6)
            })
        };
        let first = run(4);
        assert_eq!(first.len(), 2);
        assert!(first.iter().all(|&r| r < 0.0));
        assert_eq!(first, run(1), "thread count must not change results");
    }

    #[test]
    fn heterogeneous_fleet_must_share_problem_shape() {
        let cfg = ControlConfig::test();
        let topology = topo();
        let workload = Workload::uniform(&topology, 100.0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ParallelCollector::from_factory(&cfg, 2, 64, |i| {
                // Actor 1 gets a different machine count: must panic.
                let cluster = ClusterSpec::homogeneous(2 + i);
                let model = AnalyticModel::new(
                    topology.clone(),
                    cluster.clone(),
                    SimConfig::steady_state(cfg.seed),
                )
                .unwrap();
                ActorSetup {
                    env: AnalyticEnv::new(model),
                    workload: workload.clone(),
                    initial: Assignment::round_robin(&topology, &cluster),
                }
            })
        }));
        assert!(result.is_err(), "mismatched machine counts must panic");
    }

    #[test]
    fn actors_explore_decorrelated_trajectories() {
        let cfg = ControlConfig::test();
        let topology = topo();
        let agent = agent_for(&topology, 2, &cfg);
        let mut col = collector(&cfg, 2);
        let rewards = col.collect_round(&agent, 0.9, 12);
        // High exploration noise with per-actor RNG streams: the two
        // actors should not trace identical reward sums.
        assert_ne!(rewards[0], rewards[1]);
    }

    #[test]
    fn run_trains_learner_from_shards() {
        let cfg = ControlConfig::test();
        let topology = topo();
        let mut agent = agent_for(&topology, 2, &cfg);
        let mut mapper = KBestMapper::new(topology.n_executors(), 2);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut col = collector(&cfg, 2);
        let plan = RoundPlan {
            rounds: 3,
            steps_per_actor: 4,
            train_per_round: 2,
        };
        let means = col.run(&mut agent, &mut mapper, &mut rng, &plan, |_| 0.5);
        assert_eq!(means.len(), 3);
        assert_eq!(agent.train_steps(), 6);
        assert_eq!(col.replay().len(), 24);
    }
}
