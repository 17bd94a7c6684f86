//! Running one workload round through the production entry points, with
//! nothing but [`TimedEnv`] between the harness and the program.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dss_core::config::ControlConfig;
use dss_core::controller::Controller;
use dss_core::env::{AnalyticEnv, ClusterEnv, Environment, SimEnv};
use dss_core::experiment::{
    checkpoint_path, train_method_durable_with, train_method_with, DurableOptions, Method,
};
use dss_core::parallel::ActorSetup;
use dss_core::scenario::Scenario;
use dss_core::scheduler::Scheduler;
use dss_core::TrainCheckpoint;
use dss_metrics::TimeSeries;
use dss_sim::Assignment;
use dss_trainer::service::train_async_with;
use dss_trainer::{StatsSnapshot, SyncMode, TrainerConfig, WorkerLink};

use crate::spec::{Driver, Workload};
use crate::timed::{drain_sink, env_sink, EnvLog, EnvSink, SpanKind, TimedEnv};

/// A backend the harness can build from a scenario — the three
/// `Scenario::*_env` constructors behind one name, plus the counters
/// only that backend has.
pub trait Backend: Environment + Sized {
    /// Builds the scenario's training environment.
    fn build(scenario: &Scenario, cfg: &ControlConfig, seed: u64) -> Self;

    /// Backend-specific counters, read just before the env is dropped.
    fn counters(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

impl Backend for AnalyticEnv {
    fn build(scenario: &Scenario, cfg: &ControlConfig, seed: u64) -> Self {
        scenario.analytic_env(cfg, seed)
    }
}

impl Backend for SimEnv {
    fn build(scenario: &Scenario, cfg: &ControlConfig, seed: u64) -> Self {
        scenario.sim_env(cfg, seed)
    }
}

impl Backend for ClusterEnv {
    fn build(scenario: &Scenario, cfg: &ControlConfig, seed: u64) -> Self {
        scenario.cluster_env(cfg, seed)
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let chaos = self.chaos_stats().unwrap_or_default();
        vec![
            ("nimbus.degraded_epochs", self.degraded_epochs() as f64),
            ("nimbus.failovers", self.failovers() as f64),
            ("proto.chaos_dropped", chaos.dropped as f64),
            ("proto.chaos_corrupted", chaos.corrupted as f64),
            ("proto.chaos_duplicated", chaos.duplicated as f64),
        ]
    }
}

/// Wraps a freshly built backend in the timing decorator.
pub fn timed_env<B: Backend + 'static>(
    scenario: &Scenario,
    cfg: &ControlConfig,
    seed: u64,
    instance: usize,
    sink: &EnvSink,
) -> TimedEnv<B> {
    TimedEnv::new(B::build(scenario, cfg, seed), instance, sink).with_epilogue(B::counters)
}

/// What one training call produced, in a driver-independent shape.
pub struct Trained {
    /// Scenario lookup to the entry of the first deploy-and-measure: what
    /// the entry point does before its first measurement (on async that
    /// includes the parameter server, replay and learner).
    pub setup_s: f64,
    /// Wall time of the production entry point, call to return.
    pub train_wall_s: f64,
    /// The deployable assignment.
    pub solution: Assignment,
    /// Reward series (per online epoch; per accepted batch on async).
    pub rewards: TimeSeries,
    /// The frozen scheduler (lockstep drivers only).
    pub scheduler: Option<Box<dyn Scheduler>>,
    /// Service telemetry (async only).
    pub stats: Option<StatsSnapshot>,
    /// One log per environment the entry point built, in build order.
    pub envs: Vec<EnvLog>,
}

/// Everything measured and checked in one round.
pub struct Round {
    /// The training call.
    pub trained: Trained,
    /// Entry-to-entry intervals at the env seam over the online phase
    /// (per worker step on async), in ms.
    pub online_ms: Vec<f64>,
    /// Wall time of each frozen control epoch, in ms (empty when the
    /// round ran without a control phase).
    pub control_ms: Vec<f64>,
    /// Env-seam calls made (training + control).
    pub attempted: u64,
    /// Calls that returned a non-finite or non-positive latency, plus
    /// infeasible solutions.
    pub failed: u64,
    /// Backend counters summed over the round's environments.
    pub counters: Vec<(&'static str, f64)>,
    /// Correctness violations (empty when the round is correct).
    pub problems: Vec<String>,
}

/// Directory for files the program writes during a round (durable
/// checkpoints). `TMPDIR` points at the same place, so the program's own
/// temp files (the master's recovery WAL) land inside the checkout too.
pub fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("tmp-{}", std::process::id()))
}

/// Where a durable round checkpoints.
fn durable_dir(w: &Workload, cfg: &ControlConfig) -> PathBuf {
    scratch_dir().join(format!("durable-{}-{}", w.name, cfg.seed))
}

fn async_config(rounds: usize, steps: usize) -> TrainerConfig {
    TrainerConfig {
        mode: SyncMode::Async,
        n_workers: 1,
        rounds,
        steps_per_round: steps,
        ..TrainerConfig::default()
    }
}

fn train_lockstep<B: Backend + 'static>(
    w: &Workload,
    sc: &Scenario,
    cfg: &ControlConfig,
    durable: Option<usize>,
) -> Trained {
    let sink = env_sink();
    let built = AtomicUsize::new(0);
    let make_env = || {
        timed_env::<B>(
            sc,
            cfg,
            cfg.seed,
            built.fetch_add(1, Ordering::Relaxed),
            &sink,
        )
    };
    let start = Instant::now();
    let outcome = match durable {
        None => train_method_with(Method::ActorCritic, &sc.app, &sc.cluster, cfg, make_env),
        Some(every) => {
            // A leftover checkpoint would turn the run into a resume.
            let dir = durable_dir(w, cfg);
            std::fs::remove_dir_all(&dir).ok();
            train_method_durable_with(
                Method::ActorCritic,
                &sc.app,
                &sc.cluster,
                cfg,
                &DurableOptions::new(&dir, every),
                make_env,
            )
            .expect("durable training on a fresh directory")
            .into_outcome()
        }
    };
    let train_wall_s = start.elapsed().as_secs_f64();
    Trained {
        setup_s: 0.0,
        train_wall_s,
        solution: outcome.solution,
        rewards: outcome.rewards.expect("actor-critic reports rewards"),
        scheduler: Some(outcome.scheduler),
        stats: None,
        envs: drain_sink(&sink),
    }
}

fn train_async(sc: &Scenario, cfg: &ControlConfig, rounds: usize, steps: usize) -> Trained {
    let sink = env_sink();
    let built = AtomicUsize::new(0);
    let start = Instant::now();
    let outcome = train_async_with(
        sc,
        cfg,
        &async_config(rounds, steps),
        &WorkerLink::Tcp(None),
        |i| ActorSetup {
            env: timed_env::<AnalyticEnv>(
                sc,
                cfg,
                cfg.seed.wrapping_add(i as u64),
                built.fetch_add(1, Ordering::Relaxed),
                &sink,
            ),
            workload: sc.app.workload.clone(),
            initial: sc.initial_assignment(),
        },
    );
    let train_wall_s = start.elapsed().as_secs_f64();
    Trained {
        setup_s: 0.0,
        train_wall_s,
        solution: outcome.solution,
        rewards: outcome.rewards,
        scheduler: None,
        stats: Some(outcome.stats),
        envs: drain_sink(&sink),
    }
}

/// Runs the workload's production entry point once, on the scenario it
/// looks up first.
pub fn train(w: &Workload, cfg: &ControlConfig) -> (Scenario, Trained) {
    let begun = Instant::now();
    let sc = Scenario::by_name(w.scenario).expect("registry scenario");
    let mut trained = match w.driver {
        Driver::Analytic => train_lockstep::<AnalyticEnv>(w, &sc, cfg, None),
        Driver::Sim => train_lockstep::<SimEnv>(w, &sc, cfg, None),
        Driver::ClusterDurable { every } => train_lockstep::<ClusterEnv>(w, &sc, cfg, Some(every)),
        Driver::AsyncTcp { rounds, steps } => train_async(&sc, cfg, rounds, steps),
    };
    let first = trained.envs[0]
        .calls
        .first()
        .expect("every workload collects offline samples");
    trained.setup_s = first.start.duration_since(begun).as_secs_f64();
    (sc, trained)
}

/// Entry-to-entry intervals (ms) between consecutive calls of `kind`.
pub fn entry_intervals(log: &EnvLog, kind: SpanKind) -> Vec<f64> {
    let entries: Vec<Instant> = log
        .calls
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.start)
        .collect();
    entries
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3)
        .collect()
}

/// The environment whose plain deploy-and-measure calls are the online
/// phase: the only one for lockstep drivers, the worker's (built second,
/// after the offline collector's) on async.
pub fn online_env<'a>(w: &Workload, envs: &'a [EnvLog]) -> &'a EnvLog {
    match w.driver {
        Driver::AsyncTcp { .. } => &envs[1],
        _ => &envs[0],
    }
}

/// Drives `scheduler` for `epochs` control epochs against a fresh
/// environment, timing each epoch. Returns `(epoch ms, rewards, env log)`.
fn control_phase<B: Backend + 'static>(
    scheduler: &mut dyn Scheduler,
    sc: &Scenario,
    cfg: &ControlConfig,
    start_from: &Assignment,
    epochs: usize,
) -> (Vec<f64>, TimeSeries, EnvLog) {
    let sink = env_sink();
    let controller = Controller::new(*cfg);
    let mut env = timed_env::<B>(sc, cfg, cfg.seed ^ 0xC7, 0, &sink);
    let mut rewards = TimeSeries::new();
    let mut current = start_from.clone();
    let mut epoch_ms = Vec::with_capacity(epochs);
    for t in 0..epochs {
        let start = Instant::now();
        current = controller.online_epoch(
            scheduler,
            &mut env,
            &sc.app.workload,
            current,
            t,
            &mut rewards,
        );
        epoch_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    drop(env);
    let log = drain_sink(&sink).pop().expect("control env log");
    (epoch_ms, rewards, log)
}

fn check_rewards(what: &str, rewards: &TimeSeries, expect: usize, problems: &mut Vec<String>) {
    if rewards.len() != expect {
        problems.push(format!(
            "{what}: {} rewards, expected {expect}",
            rewards.len()
        ));
    }
    if !rewards.values().iter().all(|r| r.is_finite() && *r < 0.0) {
        problems.push(format!("{what}: a reward is not finite and negative"));
    }
}

/// One round: train through the production entry point and check every
/// output; with `control`, then drive the frozen scheduler (where the
/// entry point returns one) for the control epochs.
pub fn round(w: &Workload, seed: u64, control: bool) -> Round {
    let cfg = w.config(seed);
    let (sc, mut trained) = train(w, &cfg);
    let mut problems = Vec::new();

    // Call counts: the entry points made exactly the calls asked for.
    let count = |log: &EnvLog, kind| log.calls.iter().filter(|s| s.kind == kind).count();
    let offline = count(&trained.envs[0], SpanKind::EnvStats);
    if offline != w.offline_samples {
        problems.push(format!(
            "{offline} offline measurements, expected {}",
            w.offline_samples
        ));
    }
    let online_log = online_env(w, &trained.envs);
    let online = count(online_log, SpanKind::EnvStep);
    if online != w.online_calls() {
        problems.push(format!(
            "{online} online measurements, expected {}",
            w.online_calls()
        ));
    }
    let online_ms = entry_intervals(online_log, SpanKind::EnvStep);

    match (&w.driver, &trained.stats) {
        (Driver::AsyncTcp { rounds, steps }, Some(stats)) => {
            check_rewards("training", &trained.rewards, *rounds, &mut problems);
            if stats.dropped_stale != 0 {
                problems.push(format!("{} stale transitions dropped", stats.dropped_stale));
            }
            if stats.transitions != (rounds * steps) as u64 {
                problems.push(format!(
                    "{} transitions accepted, expected {}",
                    stats.transitions,
                    rounds * steps
                ));
            }
        }
        _ => check_rewards("training", &trained.rewards, w.online_epochs, &mut problems),
    }
    if let Driver::ClusterDurable { .. } = w.driver {
        let dir = durable_dir(w, &cfg);
        match TrainCheckpoint::load(&checkpoint_path(&dir, Method::ActorCritic, &cfg)) {
            Ok(ckpt) if ckpt.completed == w.online_epochs => {}
            Ok(ckpt) => problems.push(format!(
                "final checkpoint covers {} epochs, expected {}",
                ckpt.completed, w.online_epochs
            )),
            Err(e) => problems.push(format!("final checkpoint unreadable: {e}")),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    let mut failed = 0u64;
    if trained
        .solution
        .validate_for(&sc.app.topology, &sc.cluster)
        .is_err()
    {
        problems.push("trained solution is not feasible".into());
        failed += 1;
    }

    // The scheduler is taken out of the round and dropped here either
    // way: it carries the agent and its replay ring, and keeping one per
    // round alive would make the harness, not the program, set peak
    // memory.
    let mut control_ms = Vec::new();
    let mut control_log = None;
    if let (true, Some(mut s)) = (control, trained.scheduler.take()) {
        let (solution, epochs) = (&trained.solution, w.control_epochs);
        let (ms, rewards, log) = match w.driver {
            Driver::Analytic => {
                control_phase::<AnalyticEnv>(s.as_mut(), &sc, &cfg, solution, epochs)
            }
            Driver::Sim => control_phase::<SimEnv>(s.as_mut(), &sc, &cfg, solution, epochs),
            Driver::ClusterDurable { .. } => {
                control_phase::<ClusterEnv>(s.as_mut(), &sc, &cfg, solution, epochs)
            }
            Driver::AsyncTcp { .. } => unreachable!("the async service returns no scheduler"),
        };
        check_rewards("control", &rewards, epochs, &mut problems);
        control_ms = ms;
        control_log = Some(log);
    }

    let mut attempted = 0u64;
    let mut counters: Vec<(&'static str, f64)> = Vec::new();
    for log in trained.envs.iter().chain(&control_log) {
        attempted += log.calls.len() as u64;
        failed += log.bad_latencies;
        for &(name, v) in &log.counters {
            match counters.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 += v,
                None => counters.push((name, v)),
            }
        }
    }
    if failed > 0 {
        problems.push(format!("{failed} failed operations"));
    }
    Round {
        trained,
        online_ms,
        control_ms,
        attempted,
        failed,
        counters,
        problems,
    }
}
