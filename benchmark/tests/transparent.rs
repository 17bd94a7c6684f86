//! The decorators must be invisible to the program, and the traced
//! sequence must be the production sequence: same seed, same bits.

use dss_core::config::ControlConfig;
use dss_core::env::{AnalyticEnv, ClusterEnv, SimEnv};
use dss_core::experiment::{
    train_method_durable_with, train_method_on, train_method_with, Backend as CoreBackend,
    DurableOptions, Method, TrainOutcome,
};
use dss_core::scenario::Scenario;

use epoch_ledger::spec;
use epoch_ledger::timed::{drain_sink, env_sink};
use epoch_ledger::trace::{traced_lockstep, Traced};
use epoch_ledger::workloads::{scratch_dir, timed_env, Backend};

fn cfg() -> ControlConfig {
    ControlConfig {
        sim_epoch_s: 1.0,
        ..ControlConfig::test()
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_same(what: &str, plain: &TrainOutcome, rewards: &[f64], solution: &dss_sim::Assignment) {
    let plain_rewards = plain.rewards.as_ref().expect("actor-critic rewards");
    assert_eq!(
        bits(plain_rewards.values()),
        bits(rewards),
        "{what}: reward bits diverged"
    );
    assert_eq!(&plain.solution, solution, "{what}: solution diverged");
}

/// Undecorated `train_method_on` against `TimedEnv` through the factory
/// and against the harness-driven traced sequence.
fn transparent_on<B: Backend + 'static>(backend: CoreBackend) {
    let cfg = cfg();
    let sc = Scenario::by_name("cq-small-steady").unwrap();
    let plain = train_method_on(backend, Method::ActorCritic, &sc, &cfg);

    let sink = env_sink();
    let decorated = train_method_with(Method::ActorCritic, &sc.app, &sc.cluster, &cfg, || {
        timed_env::<B>(&sc, &cfg, cfg.seed, 0, &sink)
    });
    assert_same(
        "TimedEnv",
        &plain,
        decorated.rewards.as_ref().unwrap().values(),
        &decorated.solution,
    );
    let logs = drain_sink(&sink);
    assert_eq!(logs.len(), 1);
    assert_eq!(
        logs[0].calls.len(),
        cfg.offline_samples + cfg.online_epochs,
        "one span per deploy-and-measure"
    );
    assert_eq!(logs[0].bad_latencies, 0);

    let traced = traced_lockstep::<B>("test", &sc, &cfg, None);
    assert_same(
        "TimedScheduler + TimedEnv",
        &plain,
        traced.rewards.values(),
        &traced.solution,
    );
    assert_spans_account_for_every_epoch(&traced, &cfg);
}

fn assert_spans_account_for_every_epoch(traced: &Traced, cfg: &ControlConfig) {
    assert_eq!(traced.epochs.len(), cfg.online_epochs);
    for e in &traced.epochs {
        let parts = e.schedule_ms + e.env_ms + e.observe_ms + e.checkpoint_ms + e.self_ms;
        assert!(
            (parts - e.epoch_ms).abs() <= 1e-9 * e.epoch_ms.max(1.0),
            "seam spans must sum to the epoch: {parts} vs {}",
            e.epoch_ms
        );
        assert!(e.self_ms >= 0.0, "children cannot outlast their epoch");
    }
    // Every span lies inside its parent, and epochs tile the online phase
    // without overlapping.
    let spans = &traced.tree.spans;
    for s in spans {
        assert!(s.end_us >= s.start_us);
        if let Some(p) = s.parent {
            assert!(
                s.start_us >= spans[p].start_us && s.end_us <= spans[p].end_us,
                "span {} ({}) escapes its parent {}",
                s.id,
                s.name,
                spans[p].name
            );
        }
    }
    let epochs: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "core.online_epoch")
        .collect();
    assert_eq!(epochs.len(), cfg.online_epochs);
    assert!(epochs.windows(2).all(|w| w[0].end_us <= w[1].start_us));
}

#[test]
fn decorators_are_transparent_on_the_analytic_backend() {
    transparent_on::<AnalyticEnv>(CoreBackend::Analytic);
}

#[test]
fn decorators_are_transparent_on_the_sim_backend() {
    transparent_on::<SimEnv>(CoreBackend::Sim);
}

#[test]
fn decorators_are_transparent_on_the_cluster_backend() {
    transparent_on::<ClusterEnv>(CoreBackend::Cluster);
}

#[test]
fn traced_durable_sequence_matches_the_durable_driver() {
    // The traced pass of the durable workload re-enacts the driver's
    // between-epoch checkpointing; over the lossy link (reliable
    // protocol, durable master) it must still land on the same bits.
    let cfg = ControlConfig {
        offline_samples: 40,
        offline_steps: 30,
        online_epochs: 12,
        eps_decay_epochs: 6,
        ..cfg()
    };
    let sc = Scenario::by_name("cq-small-lossy").unwrap();
    let dir = scratch_dir().join("durable-test");
    std::fs::remove_dir_all(&dir).ok();
    let plain = train_method_durable_with(
        Method::ActorCritic,
        &sc.app,
        &sc.cluster,
        &cfg,
        &DurableOptions::new(&dir, 5),
        || sc.cluster_env(&cfg, cfg.seed),
    )
    .unwrap()
    .into_outcome();
    std::fs::remove_dir_all(&dir).ok();

    let traced = traced_lockstep::<ClusterEnv>("durable-test", &sc, &cfg, Some(5));
    assert_same(
        "traced durable",
        &plain,
        traced.rewards.values(),
        &traced.solution,
    );
    assert_spans_account_for_every_epoch(&traced, &cfg);
    let saves = traced
        .epochs
        .iter()
        .filter(|e| e.checkpoint_ms > 0.0)
        .count();
    assert_eq!(saves, 3, "epochs 5 and 10, and the final one");
    assert!(traced.checkpoint_bytes > 0);
    // Only this test writes under the scratch directory; leave nothing.
    std::fs::remove_dir(scratch_dir()).ok();
}

#[test]
fn manifest_names_exactly_this_harness_metrics() {
    let problems = spec::check_manifest(include_str!("../../BENCHMARK.json"));
    assert!(problems.is_empty(), "{problems:#?}");
}
