//! The rollout step is shared: with one policy published once, rollout
//! worker `i` and actor `i` of a [`ParallelCollector`] collect the same
//! rows — same seed derivation (`cfg.seed` and the actor index), same
//! order of environment reads within a step. Pins both on the analytic
//! and the tuple-level backend.

use std::sync::Arc;
use std::time::Duration;

use dss_core::config::ControlConfig;
use dss_core::env::Environment;
use dss_core::parallel::{ActorSetup, ParallelCollector};
use dss_core::scenario::Scenario;
use dss_rl::{DdpgAgent, DdpgConfig, Elem, EpsilonSchedule, Scalar};
use dss_trainer::{
    BoundedQueue, LocalClient, ParameterServer, RolloutWorker, SharedStats, TransitionRows,
};

const ACTORS: usize = 3;
const ROUNDS: usize = 3;
const STEPS: usize = 5;

fn cfg() -> ControlConfig {
    ControlConfig {
        eps_decay_epochs: 2,
        sim_epoch_s: 2.0,
        ..ControlConfig::test()
    }
}

fn setup<E>(sc: &Scenario, env: E) -> ActorSetup<E> {
    ActorSetup {
        env,
        workload: sc.app.workload.clone(),
        initial: sc.initial_assignment(),
    }
}

/// Rounds `ROUNDS × STEPS` through worker `id`, returning its batches.
fn worker_rows<E: Environment>(
    id: usize,
    setup: ActorSetup<E>,
    cfg: &ControlConfig,
    ps: &Arc<ParameterServer>,
) -> Vec<TransitionRows> {
    let queue = Arc::new(BoundedQueue::new(ROUNDS));
    let client = LocalClient {
        ps: Arc::clone(ps),
        queue: Arc::clone(&queue),
        stats: Arc::new(SharedStats::new()),
    };
    let mut worker = RolloutWorker::new(id, setup, cfg, client);
    worker.run(ROUNDS, STEPS);
    assert_eq!(worker.version(), 1, "the one published policy was pulled");
    (0..ROUNDS)
        .map(|_| {
            queue
                .pop_timeout(Duration::ZERO)
                .expect("one batch a round")
        })
        .collect()
}

fn assert_same_rows<E: Environment + Send>(
    sc: &Scenario,
    cfg: &ControlConfig,
    env: impl Fn(u64) -> E,
) {
    let agent: DdpgAgent = DdpgAgent::new(
        sc.state_dim(),
        sc.action_dim(),
        DdpgConfig {
            k: cfg.k,
            seed: cfg.seed,
            gamma: cfg.gamma,
            ..DdpgConfig::default()
        },
    );
    let ps = Arc::new(ParameterServer::new());
    ps.publish(agent.save_policy());

    let seed_of = |i: usize| cfg.seed.wrapping_add(i as u64);
    let mut col = ParallelCollector::from_factory(cfg, ACTORS, ROUNDS * STEPS, |i| {
        setup(sc, env(seed_of(i)))
    });
    let eps = EpsilonSchedule::new(cfg.eps_start, cfg.eps_end, cfg.eps_decay_epochs);
    for round in 0..ROUNDS {
        col.collect_round(&agent, eps.value(round), STEPS);
    }

    let widen = |row: &[Elem]| row.iter().map(|x| x.to_f64()).collect::<Vec<f64>>();
    for i in 0..ACTORS {
        let batches = worker_rows(i, setup(sc, env(seed_of(i))), cfg, &ps);
        for (round, batch) in batches.iter().enumerate() {
            assert_eq!(batch.rows(), STEPS);
            let (sd, ad) = (batch.state_dim, batch.action_dim);
            for step in 0..STEPS {
                let slot = (i as u32, (round * STEPS + step) as u32);
                let (s, a, r, n) = col
                    .replay()
                    .with_rows(slot, |s, a, r, n| (widen(s), widen(a), r, widen(n)));
                let at = format!("actor {i}, round {round}, step {step}");
                assert_eq!(batch.states[step * sd..(step + 1) * sd], s, "state: {at}");
                assert_eq!(batch.actions[step * ad..(step + 1) * ad], a, "action: {at}");
                assert_eq!(
                    Elem::from_f64(batch.rewards[step]).to_bits(),
                    r.to_bits(),
                    "reward: {at}"
                );
                assert_eq!(
                    batch.next_states[step * sd..(step + 1) * sd],
                    n,
                    "next state: {at}"
                );
            }
        }
    }
}

#[test]
fn worker_and_collector_actor_collect_the_same_rows() {
    let cfg = cfg();
    // A diurnal schedule, so the workload multiplier read before and
    // after each deploy differs and the order of the reads shows.
    let sc = Scenario::by_name("cq-small-diurnal").unwrap();
    assert_same_rows(&sc, &cfg, |seed| sc.analytic_env(&cfg, seed));
    assert_same_rows(&sc, &cfg, |seed| sc.sim_env(&cfg, seed));
}
