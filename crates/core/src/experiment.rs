//! Experiment runners that regenerate the paper's evaluation (§4).
//!
//! Pipeline per figure, mirroring the paper's procedure:
//!
//! 1. **Train** each method: offline collection (random actions, varied
//!    workload multipliers) + pre-training, then online learning for `T`
//!    decision epochs against the (noisy) analytic environment.
//! 2. **Deploy** each trained method's solution on a *fresh tuple-level
//!    engine* and record the sliding-window average tuple processing time
//!    over simulated minutes — Figures 6, 8, 10 ("time 0 is the time when
//!    a scheduling solution given by a well-trained DRL agent is deployed",
//!    and the curves decay as the system warms up and stabilizes).
//! 3. For Figures 7/9/11, report the per-epoch online rewards, min-max
//!    normalized and forward-backward filtered as in the paper.
//! 4. For Figure 12, run 50 simulated minutes with a +50% workload step at
//!    minute 20; the deployed agent reacts to the observed workload change
//!    by re-scheduling (the spike, then restabilization).

use std::convert::Infallible;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

use dss_apps::App;
use dss_metrics::{filter, normalize, TimeSeries};
use dss_sim::{
    AnalyticModel, Assignment, ClusterSpec, RateSchedule, SimConfig, SimEngine, Workload,
};

use crate::checkpoint::{CheckpointError, TrainCheckpoint};
use crate::config::ControlConfig;
use crate::controller::Controller;
use crate::env::{AnalyticEnv, Environment};
use crate::scenario::Scenario;
use crate::scheduler::{
    ActorCriticScheduler, DqnScheduler, DrlScheduler, ModelBasedScheduler, RandomMode,
    RoundRobinScheduler, Scheduler,
};
use crate::state::SchedState;

/// The four compared methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Storm's default round-robin scheduler.
    Default,
    /// The SVR model-based baseline.
    ModelBased,
    /// The DQN-based DRL method.
    Dqn,
    /// The paper's actor-critic DRL method.
    ActorCritic,
}

impl Method {
    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            Method::Default => "default",
            Method::ModelBased => "model-based",
            Method::Dqn => "dqn",
            Method::ActorCritic => "actor-critic",
        }
    }

    /// All four, in the paper's ordering.
    pub fn all() -> [Method; 4] {
        [
            Method::Default,
            Method::ModelBased,
            Method::Dqn,
            Method::ActorCritic,
        ]
    }
}

/// Which [`Environment`] backend a training run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The fast steady-state analytic evaluator (training default).
    Analytic,
    /// The tuple-level discrete-event engine: training shares the exact
    /// dynamics (migration pauses, warm-up, queueing transients) the
    /// deployment figures measure.
    Sim,
    /// The Figure-1 control plane: every decision is a full
    /// `dss-proto`/`dss-nimbus`/`dss-coord` round trip against the same
    /// engine (in-process channel transport; see
    /// [`crate::scenario::Scenario::cluster_env_with`] for loopback TCP),
    /// with scenario fault plans replayed by the master.
    Cluster,
}

impl Backend {
    /// Label used in CSV headers and CI logs.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Analytic => "analytic",
            Backend::Sim => "sim",
            Backend::Cluster => "cluster",
        }
    }

    /// Every backend, analytic first.
    pub fn all() -> [Backend; 3] {
        [Backend::Analytic, Backend::Sim, Backend::Cluster]
    }
}

/// A trained method ready for deployment.
pub struct TrainOutcome {
    /// Which method this is.
    pub method: Method,
    /// The trained (frozen for DRL methods) scheduler.
    pub scheduler: Box<dyn Scheduler>,
    /// Online-learning reward series (DRL methods only).
    pub rewards: Option<TimeSeries>,
    /// The solution the method deploys at nominal workload.
    pub solution: Assignment,
}

fn sim_config(cfg: &ControlConfig) -> SimConfig {
    SimConfig {
        seed: cfg.seed,
        ..SimConfig::default()
    }
}

fn training_env(app: &App, cluster: &ClusterSpec, cfg: &ControlConfig) -> AnalyticEnv {
    let model = AnalyticModel::new(
        app.topology.clone(),
        cluster.clone(),
        SimConfig::steady_state(cfg.seed),
    )
    .expect("valid app/cluster")
    .with_noise(cfg.measurement_noise);
    AnalyticEnv::new(model)
}

/// Trains one method on an application (offline + online phases) against
/// the analytic backend and extracts its deployable solution. Shorthand
/// for [`train_method_with`] over [`AnalyticEnv`].
pub fn train_method(
    method: Method,
    app: &App,
    cluster: &ClusterSpec,
    cfg: &ControlConfig,
) -> TrainOutcome {
    train_method_with(method, app, cluster, cfg, || {
        training_env(app, cluster, cfg)
    })
}

/// Trains one method on a **named scenario** against the chosen backend —
/// the entry point the CI smoke job and cross-backend tests drive. The
/// scenario's rate schedule is installed on the environment, so training
/// sees the scenario's traffic shape.
pub fn train_method_on(
    backend: Backend,
    method: Method,
    scenario: &Scenario,
    cfg: &ControlConfig,
) -> TrainOutcome {
    train_method_with(method, &scenario.app, &scenario.cluster, cfg, || {
        scenario.env(backend, cfg, cfg.seed)
    })
}

/// Trains one method on an application (offline + online phases) against
/// any backend and extracts its deployable solution. `make_env` builds
/// the method's training environment (called once per method; the online
/// phase continues on the same environment the offline phase drove — for
/// a stateful backend like `SimEnv` that means the engine's clock,
/// schedule position and backlog carry over, exactly as they would on a
/// live cluster). It is a factory rather than a value so the entry
/// points above can describe *how* to build an env without building one
/// for methods that never measure (`Method::Default`).
pub fn train_method_with<E: Environment>(
    method: Method,
    app: &App,
    cluster: &ClusterSpec,
    cfg: &ControlConfig,
    make_env: impl Fn() -> E,
) -> TrainOutcome {
    // The two methods without an online phase decide once, from Storm's
    // default placement.
    let controller = Controller::new(*cfg);
    let rr = Assignment::round_robin(&app.topology, cluster);
    let mut scheduler: Box<dyn Scheduler> = match method {
        Method::Default => Box::new(RoundRobinScheduler::new(&app.topology, cluster)),
        Method::ModelBased => {
            let data = controller.offline_phase(
                &mut make_env(),
                &app.workload,
                RandomMode::FullRandom,
                rr.clone(),
            );
            let cores = cluster.machines[0].cores;
            let mut sched = ModelBasedScheduler::new(
                app.topology.clone(),
                cluster.n_machines(),
                cores,
                cfg.seed,
            );
            sched.pretrain(&data);
            Box::new(sched)
        }
        Method::Dqn => return train_drl::<DqnScheduler, E>(app, cluster, cfg, &mut make_env()),
        Method::ActorCritic => {
            return train_drl::<ActorCriticScheduler, E>(app, cluster, cfg, &mut make_env())
        }
    };
    let solution = controller.decide(scheduler.as_mut(), &rr, &app.workload);
    TrainOutcome {
        method,
        scheduler,
        rewards: None,
        solution,
    }
}

/// [`train_drl_with`] from scratch, with a hook that does nothing.
fn train_drl<S: DrlScheduler, E: Environment>(
    app: &App,
    cluster: &ClusterSpec,
    cfg: &ControlConfig,
    env: &mut E,
) -> TrainOutcome {
    let ControlFlow::Continue(out) =
        train_drl_with::<S, E, Infallible>(app, cluster, cfg, env, None, |_, _, _, _| {
            ControlFlow::Continue(())
        });
    out
}

/// Algorithm 1, once, for either DRL scheduler — the loop every training
/// driver runs: offline random collection
/// ([`Controller::offline_phase`]) → build the scheduler → pretrain →
/// `cfg.online_epochs` × [`Controller::online_epoch`] → freeze → the
/// greedy decision(s) that give the deployable solution. The online phase
/// continues on the `env` the offline phase drove. With `resumed` —
/// `(restored scheduler, rewards so far, assignment deployed last)` — the
/// loop instead picks up after the epochs those rewards record, on an
/// `env` the caller has brought to the matching state.
///
/// `between` is the one thing drivers differ in. It is called as
/// `between(&scheduler, &env, &rewards, &deployed)` after pretraining
/// (no rewards yet) and after every online epoch, and stops the run by
/// breaking: [`train_method_with`] passes a hook that does nothing,
/// [`train_method_durable_with`] checkpoints and fires its scripted kill
/// there, the lockstep training service publishes the policy. It sees the
/// run read-only, so no hook can perturb the trajectory — which is what
/// the `durable_zero_fault`, `kill_resume_*` and lockstep-equivalence
/// tests now check.
pub fn train_drl_with<S: DrlScheduler, E: Environment, B>(
    app: &App,
    cluster: &ClusterSpec,
    cfg: &ControlConfig,
    env: &mut E,
    resumed: Option<(S, TimeSeries, Assignment)>,
    mut between: impl FnMut(&S, &E, &TimeSeries, &Assignment) -> ControlFlow<B>,
) -> ControlFlow<B, TrainOutcome> {
    let controller = Controller::new(*cfg);
    let n = app.topology.n_executors();
    let workload = &app.workload;
    let (mut sched, mut rewards, mut current) = match resumed {
        Some(run) => run,
        None => {
            let rr = Assignment::round_robin(&app.topology, cluster);
            let data = controller.offline_phase(env, workload, S::OFFLINE_MODE, rr.clone());
            let mut sched = S::new(n, cluster.n_machines(), workload.rates().len(), cfg);
            sched.pretrain(&data);
            let rewards = TimeSeries::new();
            between(&sched, env, &rewards, &rr)?;
            (sched, rewards, rr)
        }
    };
    for t in rewards.len()..cfg.online_epochs {
        current = controller.online_epoch(&mut sched, env, workload, current, t, &mut rewards);
        between(&sched, env, &rewards, &current)?;
    }
    sched.freeze();
    for _ in 0..S::final_decisions(n) {
        current = controller.decide(&mut sched, &current, workload);
    }
    ControlFlow::Continue(TrainOutcome {
        method: S::METHOD,
        scheduler: Box::new(sched),
        rewards: Some(rewards),
        solution: current,
    })
}

/// Options for crash-safe training ([`train_method_durable`]).
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Directory checkpoints are written into (created if absent).
    pub dir: PathBuf,
    /// Checkpoint every `every` online epochs (a final checkpoint is
    /// always written when the online phase completes). Must be ≥ 1.
    pub every: usize,
    /// Test hook: simulate a process crash by returning
    /// [`DurableRun::Killed`] right after online epoch `k` completes.
    /// Unlike a checkpoint boundary, the kill point writes nothing —
    /// resume restarts from the last durable checkpoint and re-derives
    /// the lost epochs bit-identically.
    pub kill_after: Option<usize>,
}

impl DurableOptions {
    /// Checkpoint into `dir` every `every` epochs, no scripted kill.
    pub fn new(dir: impl Into<PathBuf>, every: usize) -> Self {
        Self {
            dir: dir.into(),
            every,
            kill_after: None,
        }
    }

    /// Adds a scripted kill after epoch `k` (test hook).
    pub fn kill_after(mut self, k: usize) -> Self {
        self.kill_after = Some(k);
        self
    }
}

/// Outcome of a [`train_method_durable`] call.
pub enum DurableRun {
    /// Training ran to completion (possibly resumed from a checkpoint).
    Completed(TrainOutcome),
    /// The scripted kill fired: the process "crashed" after this online
    /// epoch. Call [`train_method_durable`] again with the same options
    /// to resume from the last checkpoint.
    Killed {
        /// Online epochs completed when the kill fired.
        at_epoch: usize,
    },
}

impl DurableRun {
    /// Unwraps the completed outcome.
    ///
    /// # Panics
    /// Panics when the run was killed.
    pub fn into_outcome(self) -> TrainOutcome {
        match self {
            DurableRun::Completed(out) => out,
            DurableRun::Killed { at_epoch } => {
                panic!("training was killed after epoch {at_epoch}")
            }
        }
    }
}

/// The checkpoint file a durable run reads and writes: one per
/// method × seed, so runs of different methods share a directory.
pub fn checkpoint_path(dir: &Path, method: Method, cfg: &ControlConfig) -> PathBuf {
    dir.join(format!("{}-{}.ckpt", method.label(), cfg.seed))
}

/// Crash-safe [`train_method_on`]: trains with durable checkpoints every
/// `opts.every` online epochs, resuming automatically when a checkpoint
/// from the same run (method + seed) already exists in `opts.dir`.
///
/// The kill-at-epoch-k-then-resume trajectory is **bit-identical** to the
/// uninterrupted same-seed run — rewards, trained networks, and the
/// deployed solution (asserted by the `kill_resume_*` tests on both the
/// engine and control-plane backends): the checkpoint carries the
/// scheduler's complete state (networks, optimizer moments, replay ring,
/// exploration RNG) and the environment either restores from a direct
/// image ([`crate::env::SimEnv`]) or is re-derived by deterministic
/// replay of the recorded action history (analytic and cluster
/// backends — see [`crate::checkpoint`] for why replay is exact).
///
/// Methods without training state ([`Method::Default`],
/// [`Method::ModelBased`]) have nothing to checkpoint and delegate to the
/// plain path.
pub fn train_method_durable(
    backend: Backend,
    method: Method,
    scenario: &Scenario,
    cfg: &ControlConfig,
    opts: &DurableOptions,
) -> Result<DurableRun, CheckpointError> {
    train_method_durable_with(method, &scenario.app, &scenario.cluster, cfg, opts, || {
        scenario.env(backend, cfg, cfg.seed)
    })
}

/// [`train_method_durable`] over an explicit environment factory — the
/// backend-generic core (and the entry point tests use to pick a cluster
/// transport). `make_env` must build the *same* environment on every
/// call (same seeds, same fault plans): resume relies on it for the
/// deterministic-replay recovery path.
pub fn train_method_durable_with<E: Environment>(
    method: Method,
    app: &App,
    cluster: &ClusterSpec,
    cfg: &ControlConfig,
    opts: &DurableOptions,
    make_env: impl Fn() -> E,
) -> Result<DurableRun, CheckpointError> {
    assert!(opts.every >= 1, "checkpoint cadence must be >= 1");
    match method {
        Method::Dqn => durable_drl::<DqnScheduler, E>(app, cluster, cfg, opts, make_env),
        Method::ActorCritic => {
            durable_drl::<ActorCriticScheduler, E>(app, cluster, cfg, opts, make_env)
        }
        // No training state to lose: the plain path is already crash-safe
        // (re-running it from scratch is the recovery).
        _ => Ok(DurableRun::Completed(train_method_with(
            method, app, cluster, cfg, make_env,
        ))),
    }
}

/// [`train_drl_with`] made durable: a resume prologue that brings a fresh
/// same-seed environment and a restored scheduler to the checkpointed
/// epoch, and a between-epoch hook that checkpoints and fires the
/// scripted kill. The epoch loop itself is the plain path's, which is why
/// a zero-fault durable run is bit-identical to it.
fn durable_drl<S: DrlScheduler, E: Environment>(
    app: &App,
    cluster: &ClusterSpec,
    cfg: &ControlConfig,
    opts: &DurableOptions,
    make_env: impl Fn() -> E,
) -> Result<DurableRun, CheckpointError> {
    std::fs::create_dir_all(&opts.dir)
        .map_err(|e| CheckpointError::Env(format!("checkpoint dir: {e}")))?;
    let path = checkpoint_path(&opts.dir, S::METHOD, cfg);
    let (n, m) = (app.topology.n_executors(), cluster.n_machines());
    let checkpoint = if path.exists() {
        let ckpt = TrainCheckpoint::load(&path)?;
        ckpt.validate_run(S::METHOD, cfg, n, m)?;
        Some(ckpt)
    } else {
        None
    };

    let mut env = make_env();
    let mut actions = Vec::new();
    let resumed = match checkpoint {
        None => None,
        Some(ckpt) => {
            let rr = Assignment::round_robin(&app.topology, cluster);
            match &ckpt.env_image {
                // Direct restore: the backend hands back the exact state
                // it checkpointed.
                Some(img) => env.restore_state(img).map_err(CheckpointError::Env)?,
                // Deterministic replay: re-run the offline phase
                // (identical RNG streams advance the env identically —
                // the dataset itself is discarded, the restored scheduler
                // already learned from it), then replay the recorded
                // online actions through the same call pattern the epoch
                // loop uses.
                None => {
                    let controller = Controller::new(*cfg);
                    let _ = controller.offline_phase(
                        &mut env,
                        &app.workload,
                        S::OFFLINE_MODE,
                        rr.clone(),
                    );
                    for a in &ckpt.actions {
                        let _ = env.workload_multiplier();
                        let _ = env.deploy_and_measure(a, &app.workload);
                        let _ = env.workload_multiplier();
                    }
                }
            }
            let n_sources = app.workload.rates().len();
            let sched = S::restore_state(n, m, n_sources, cfg, &ckpt.scheduler_state)?;
            actions = ckpt.actions;
            Some((sched, ckpt.rewards, actions.last().cloned().unwrap_or(rr)))
        }
    };

    // Serialization scratches reused across checkpoints: the scheduler
    // image and the encoded checkpoint are both multi-megabyte (the
    // agent's replay ring dominates), so growing fresh `Vec`s every
    // `opts.every` epochs was pure realloc+memcpy churn.
    let mut sched_scratch: Vec<u8> = Vec::new();
    let mut ckpt_scratch: Vec<u8> = Vec::new();
    let hook = |sched: &S, env: &E, rewards: &TimeSeries, action: &Assignment| {
        let done = rewards.len();
        if done == 0 {
            // Pretrained only: a crash here restarts from scratch.
            return ControlFlow::Continue(());
        }
        actions.push(action.clone());
        if done.is_multiple_of(opts.every) || done == cfg.online_epochs {
            sched.save_state_into(&mut sched_scratch);
            let ckpt = TrainCheckpoint {
                method: S::METHOD,
                seed: cfg.seed,
                completed: done,
                rewards: rewards.clone(),
                actions: actions.clone(),
                env_image: env.save_state(),
                scheduler_state: std::mem::take(&mut sched_scratch),
            };
            if let Err(e) = ckpt.save_with(&path, &mut ckpt_scratch) {
                return ControlFlow::Break(Err(e));
            }
            sched_scratch = ckpt.scheduler_state;
        }
        if opts.kill_after == Some(done) {
            return ControlFlow::Break(Ok(DurableRun::Killed { at_epoch: done }));
        }
        ControlFlow::Continue(())
    };
    match train_drl_with(app, cluster, cfg, &mut env, resumed, hook) {
        ControlFlow::Continue(out) => Ok(DurableRun::Completed(out)),
        ControlFlow::Break(stopped) => stopped,
    }
}

/// Runs a deployed solution on a fresh tuple-level engine for
/// `minutes` simulated minutes, sampling the window-averaged tuple
/// processing time every `sample_s` seconds — one curve of Figures 6/8/10.
pub fn deployment_curve(
    app: &App,
    cluster: &ClusterSpec,
    cfg: &ControlConfig,
    solution: &Assignment,
    minutes: f64,
    sample_s: f64,
) -> TimeSeries {
    let engine = SimEngine::new(
        app.topology.clone(),
        cluster.clone(),
        app.workload.clone(),
        sim_config(cfg),
    )
    .expect("valid app/cluster");
    sampled_curve(engine, solution, minutes, sample_s)
}

/// [`deployment_curve`] for a named scenario: the solution runs on a
/// fresh tuple-level engine with the scenario's rate schedule installed,
/// so the curve reflects the scenario's traffic shape (step/diurnal/burst
/// transients included).
pub fn scenario_deployment_curve(
    scenario: &Scenario,
    cfg: &ControlConfig,
    solution: &Assignment,
    minutes: f64,
    sample_s: f64,
) -> TimeSeries {
    sampled_curve(scenario.sim_engine(cfg.seed), solution, minutes, sample_s)
}

/// Deploys `solution` on `engine` and samples the window-averaged latency
/// every `sample_s` seconds out to `minutes` — the shared measurement loop
/// behind every deployment curve.
fn sampled_curve(
    mut engine: SimEngine,
    solution: &Assignment,
    minutes: f64,
    sample_s: f64,
) -> TimeSeries {
    engine.deploy(solution.clone()).expect("valid solution");
    let mut series = TimeSeries::new();
    let mut t = sample_s;
    while t <= minutes * 60.0 + 1e-9 {
        engine.run_until(t);
        if let Some(ms) = engine.window_avg_latency_ms() {
            series.push(t, ms);
        }
        t += sample_s;
    }
    series
}

/// Figures 6/8/10: trains all four methods and returns their deployment
/// curves, in `Method::all()` order.
pub fn figure_deployment(
    app: &App,
    cluster: &ClusterSpec,
    cfg: &ControlConfig,
    minutes: f64,
    sample_s: f64,
) -> Vec<(Method, TimeSeries, TrainOutcome)> {
    Method::all()
        .into_iter()
        .map(|method| {
            let outcome = train_method(method, app, cluster, cfg);
            let curve = deployment_curve(app, cluster, cfg, &outcome.solution, minutes, sample_s);
            (method, curve, outcome)
        })
        .collect()
}

/// Figures 7/9/11: online-learning reward curves for the two DRL methods,
/// min-max normalized and forward-backward filtered as in the paper.
pub fn figure_rewards(
    app: &App,
    cluster: &ClusterSpec,
    cfg: &ControlConfig,
) -> Vec<(Method, TimeSeries)> {
    [Method::ActorCritic, Method::Dqn]
        .into_iter()
        .map(|method| {
            let outcome = train_method(method, app, cluster, cfg);
            let raw = outcome.rewards.expect("DRL methods produce rewards");
            (method, normalize_rewards(&raw))
        })
        .collect()
}

/// The paper's reward post-processing: `(r − r_min)/(r_max − r_min)`, then
/// zero-phase smoothing.
pub fn normalize_rewards(raw: &TimeSeries) -> TimeSeries {
    let normalized = normalize::min_max(raw.values());
    let window = (raw.len() / 20).clamp(5, 80);
    let smoothed = filter::forward_backward(&normalized, filter::alpha_for_window(window));
    TimeSeries::from_parts(raw.times().to_vec(), smoothed)
}

/// Figure 12: deploy a trained method, step the workload +50% at
/// `shift_min`, let the scheduler react `reaction_s` later, and record the
/// curve out to `total_min`.
pub fn workload_shift_curve(
    app: &App,
    cluster: &ClusterSpec,
    cfg: &ControlConfig,
    outcome: &mut TrainOutcome,
    shift_min: f64,
    total_min: f64,
    sample_s: f64,
) -> TimeSeries {
    let controller = Controller::new(*cfg);
    let shift_s = shift_min * 60.0;
    let multiplier = 1.5;
    let reaction_s = 60.0;

    let mut engine = SimEngine::new(
        app.topology.clone(),
        cluster.clone(),
        app.workload.clone(),
        sim_config(cfg),
    )
    .expect("valid app/cluster");
    engine.set_rate_schedule(RateSchedule::step_at(shift_s, multiplier));
    engine
        .deploy(outcome.solution.clone())
        .expect("valid solution");

    let mut series = TimeSeries::new();
    let mut rescheduled = false;
    let mut t = sample_s;
    while t <= total_min * 60.0 + 1e-9 {
        engine.run_until(t);
        if !rescheduled && t >= shift_s + reaction_s {
            // The agent observes the new workload in its state and adjusts
            // its scheduling solution accordingly.
            let shifted = app.workload.scaled(multiplier);
            let next = controller.decide(outcome.scheduler.as_mut(), engine.assignment(), &shifted);
            engine.deploy(next).expect("valid re-deployment");
            rescheduled = true;
        }
        if let Some(ms) = engine.window_avg_latency_ms() {
            series.push(t, ms);
        }
        t += sample_s;
    }
    series
}

/// Stable level of a deployment curve: the mean over its final quarter
/// (the paper reads stable values off the flat tail of each curve).
pub fn stable_ms(series: &TimeSeries) -> f64 {
    series
        .tail_mean((series.len() / 4).max(1))
        .expect("non-empty curve")
}

/// Convenience: the greedy decision a trained outcome makes for a given
/// workload (used by ablation benches).
pub fn decide_for_workload(
    outcome: &mut TrainOutcome,
    cfg: &ControlConfig,
    current: &Assignment,
    workload: &Workload,
) -> Assignment {
    Controller::new(*cfg).decide(outcome.scheduler.as_mut(), current, workload)
}

/// Smoke-level state access for tests.
pub fn initial_state(app: &App, cluster: &ClusterSpec) -> SchedState {
    SchedState::new(
        Assignment::round_robin(&app.topology, cluster),
        app.workload.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::RandomScheduler;
    use dss_apps::{continuous_queries, CqScale};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_cfg() -> ControlConfig {
        ControlConfig {
            offline_samples: 60,
            offline_steps: 40,
            online_epochs: 20,
            eps_decay_epochs: 10,
            measurement_noise: 0.0,
            ..ControlConfig::test()
        }
    }

    #[test]
    fn default_method_returns_round_robin() {
        let app = continuous_queries(CqScale::Small);
        let cluster = ClusterSpec::homogeneous(10);
        let out = train_method(Method::Default, &app, &cluster, &tiny_cfg());
        assert_eq!(
            out.solution,
            Assignment::round_robin(&app.topology, &cluster)
        );
        assert!(out.rewards.is_none());
    }

    #[test]
    fn actor_critic_trains_and_decides() {
        let app = continuous_queries(CqScale::Small);
        let cluster = ClusterSpec::homogeneous(10);
        let out = train_method(Method::ActorCritic, &app, &cluster, &tiny_cfg());
        let rewards = out.rewards.as_ref().unwrap();
        assert_eq!(rewards.len(), tiny_cfg().online_epochs);
        assert_eq!(out.solution.n_executors(), 20);
    }

    #[test]
    fn deployment_curve_has_samples_and_decays() {
        let app = continuous_queries(CqScale::Small);
        let cluster = ClusterSpec::homogeneous(10);
        let rr = Assignment::round_robin(&app.topology, &cluster);
        let curve = deployment_curve(&app, &cluster, &tiny_cfg(), &rr, 10.0, 30.0);
        assert!(curve.len() >= 18, "len {}", curve.len());
        // Warm-up decay: early window above late window.
        let early = curve.window_mean(0.0, 120.0).unwrap();
        let late = curve.window_mean(480.0, 600.0).unwrap();
        assert!(early > late, "{early} -> {late}");
    }

    #[test]
    fn sim_backend_trains_dqn_on_registry_scenario() {
        // A tiny budget, but end to end: offline collection and online
        // learning both run against the live tuple-level engine.
        let cfg = ControlConfig {
            offline_samples: 25,
            offline_steps: 20,
            online_epochs: 8,
            eps_decay_epochs: 4,
            sim_epoch_s: 1.0,
            ..ControlConfig::test()
        };
        let sc = Scenario::by_name("cq-small-steady").unwrap();
        let out = train_method_on(Backend::Sim, Method::Dqn, &sc, &cfg);
        let rewards = out.rewards.as_ref().unwrap();
        assert_eq!(rewards.len(), cfg.online_epochs);
        assert!(rewards.values().iter().all(|&r| r < 0.0));
        assert_eq!(out.solution.n_executors(), sc.n_executors());
        // And the analytic arm of the same entry point still works.
        let out2 = train_method_on(Backend::Analytic, Method::Default, &sc, &cfg);
        assert_eq!(out2.solution, sc.initial_assignment());
        assert_eq!(
            Backend::all().map(Backend::label),
            ["analytic", "sim", "cluster"]
        );
    }

    #[test]
    fn cluster_backend_trains_dqn_and_matches_sim_rewards() {
        // The whole training pipeline (offline collection with stats,
        // DQN pre-training, online learning) runs through the control
        // plane — and with no faults in the scenario, the reward series
        // is bit-identical to the bare-engine backend's (the transport
        // adds no numeric drift anywhere in the pipeline).
        let cfg = ControlConfig {
            offline_samples: 20,
            offline_steps: 15,
            online_epochs: 6,
            eps_decay_epochs: 3,
            sim_epoch_s: 1.0,
            ..ControlConfig::test()
        };
        let sc = Scenario::by_name("cq-small-steady").unwrap();
        let cluster = train_method_on(Backend::Cluster, Method::Dqn, &sc, &cfg);
        let sim = train_method_on(Backend::Sim, Method::Dqn, &sc, &cfg);
        let cluster_rewards = cluster.rewards.as_ref().unwrap();
        let sim_rewards = sim.rewards.as_ref().unwrap();
        assert_eq!(cluster_rewards.len(), cfg.online_epochs);
        assert_eq!(
            cluster_rewards.values(),
            sim_rewards.values(),
            "control-plane round trips must not perturb training"
        );
        assert_eq!(cluster.solution, sim.solution);
    }

    #[test]
    fn scenario_curve_reflects_schedule() {
        // The bursty scenario's deployment curve must exist and sample.
        let sc = Scenario::by_name("cq-small-bursty").unwrap();
        let rr = sc.initial_assignment();
        let curve = scenario_deployment_curve(&sc, &tiny_cfg(), &rr, 3.0, 15.0);
        assert!(curve.len() >= 10, "len {}", curve.len());
    }

    #[test]
    fn normalized_rewards_in_unit_interval() {
        let raw = TimeSeries::from_sampled(0.0, 1.0, vec![-3.0, -1.0, -2.0, -0.5, -1.5]);
        let n = normalize_rewards(&raw);
        assert_eq!(n.len(), 5);
        assert!(n.values().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    /// A process-unique, test-unique checkpoint directory (removed by the
    /// tests that use it).
    fn ckpt_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dss-durable-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn durable_cfg() -> ControlConfig {
        ControlConfig {
            offline_samples: 25,
            offline_steps: 20,
            online_epochs: 8,
            eps_decay_epochs: 4,
            sim_epoch_s: 1.0,
            ..ControlConfig::test()
        }
    }

    fn assert_same_outcome(a: &TrainOutcome, b: &TrainOutcome) {
        assert_eq!(
            a.rewards.as_ref().unwrap().values(),
            b.rewards.as_ref().unwrap().values(),
            "reward series diverged"
        );
        assert_eq!(a.solution, b.solution, "deployed solution diverged");
    }

    #[test]
    fn durable_zero_fault_run_matches_plain_path() {
        // With no kill, the durable driver must be invisible: same reward
        // series, same solution as the pre-existing plain path.
        let cfg = durable_cfg();
        let sc = Scenario::by_name("cq-small-steady").unwrap();
        let plain = train_method_on(Backend::Sim, Method::Dqn, &sc, &cfg);
        let dir = ckpt_dir("zero-fault");
        let out = train_method_durable(
            Backend::Sim,
            Method::Dqn,
            &sc,
            &cfg,
            &DurableOptions::new(&dir, 3),
        )
        .unwrap()
        .into_outcome();
        assert_same_outcome(&out, &plain);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_resume_is_bit_identical_on_sim() {
        // Kill between checkpoint boundaries (every=2, kill after 3): the
        // resume restarts from epoch 2's checkpoint, re-derives epoch 3,
        // and the completed trajectory is bit-identical to the
        // uninterrupted run. SimEnv recovery goes through the direct
        // engine image.
        let cfg = durable_cfg();
        let sc = Scenario::by_name("cq-small-steady").unwrap();
        let plain = train_method_on(Backend::Sim, Method::Dqn, &sc, &cfg);
        let dir = ckpt_dir("kill-sim");
        let opts = DurableOptions::new(&dir, 2);
        let killed = train_method_durable(
            Backend::Sim,
            Method::Dqn,
            &sc,
            &cfg,
            &opts.clone().kill_after(3),
        )
        .unwrap();
        assert!(matches!(killed, DurableRun::Killed { at_epoch: 3 }));
        let resumed = train_method_durable(Backend::Sim, Method::Dqn, &sc, &cfg, &opts)
            .unwrap()
            .into_outcome();
        assert_same_outcome(&resumed, &plain);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_resume_is_bit_identical_on_cluster_transports() {
        // The control-plane backend has no direct image (its engine lives
        // behind the protocol, behind a thread over TCP): recovery replays
        // the recorded trajectory against a same-seed cluster. Both
        // transports must reproduce the uninterrupted run exactly.
        use crate::env::ClusterTransport;
        let cfg = durable_cfg();
        let sc = Scenario::by_name("cq-small-steady").unwrap();
        for (transport, tag) in [
            (ClusterTransport::Channel, "kill-cluster-channel"),
            (ClusterTransport::Tcp, "kill-cluster-tcp"),
        ] {
            let make = || sc.cluster_env_with(&cfg, cfg.seed, transport);
            let plain = train_method_with(Method::Dqn, &sc.app, &sc.cluster, &cfg, make);
            let dir = ckpt_dir(tag);
            let opts = DurableOptions::new(&dir, 2);
            let killed = train_method_durable_with(
                Method::Dqn,
                &sc.app,
                &sc.cluster,
                &cfg,
                &opts.clone().kill_after(3),
                make,
            )
            .unwrap();
            assert!(matches!(killed, DurableRun::Killed { at_epoch: 3 }));
            let resumed =
                train_method_durable_with(Method::Dqn, &sc.app, &sc.cluster, &cfg, &opts, make)
                    .unwrap()
                    .into_outcome();
            assert_same_outcome(&resumed, &plain);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn actor_critic_kill_resume_on_analytic_replay_path() {
        // The actor-critic scheduler checkpoints more state (four nets,
        // two optimizers, elite memory); the analytic backend exercises
        // the replay-recovery path cheaply.
        let cfg = ControlConfig {
            offline_samples: 20,
            offline_steps: 10,
            online_epochs: 6,
            eps_decay_epochs: 3,
            ..ControlConfig::test()
        };
        let sc = Scenario::by_name("cq-small-steady").unwrap();
        let plain = train_method_on(Backend::Analytic, Method::ActorCritic, &sc, &cfg);
        let dir = ckpt_dir("kill-ac");
        let opts = DurableOptions::new(&dir, 2);
        let killed = train_method_durable(
            Backend::Analytic,
            Method::ActorCritic,
            &sc,
            &cfg,
            &opts.clone().kill_after(3),
        )
        .unwrap();
        assert!(matches!(killed, DurableRun::Killed { at_epoch: 3 }));
        let resumed =
            train_method_durable(Backend::Analytic, Method::ActorCritic, &sc, &cfg, &opts)
                .unwrap()
                .into_outcome();
        assert_same_outcome(&resumed, &plain);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_resume_rejects_foreign_checkpoints() {
        use crate::checkpoint::CheckpointError;
        let cfg = durable_cfg();
        let sc = Scenario::by_name("cq-small-steady").unwrap();
        let dir = ckpt_dir("reject");
        let opts = DurableOptions::new(&dir, 2);
        let killed = train_method_durable(
            Backend::Analytic,
            Method::Dqn,
            &sc,
            &cfg,
            &opts.clone().kill_after(2),
        )
        .unwrap();
        assert!(matches!(killed, DurableRun::Killed { at_epoch: 2 }));
        let dqn_path = checkpoint_path(&dir, Method::Dqn, &cfg);
        // A checkpoint renamed onto another method's slot is refused.
        std::fs::copy(&dqn_path, checkpoint_path(&dir, Method::ActorCritic, &cfg)).unwrap();
        assert!(matches!(
            train_method_durable(Backend::Analytic, Method::ActorCritic, &sc, &cfg, &opts),
            Err(CheckpointError::Mismatch { .. })
        ));
        // A checkpoint of a differently shaped scenario under the same
        // method and seed is refused before the environment replays it.
        let medium = Scenario::by_name("cq-medium-steady").unwrap();
        assert!(matches!(
            train_method_durable(Backend::Analytic, Method::Dqn, &medium, &cfg, &opts),
            Err(CheckpointError::Mismatch { .. })
        ));
        // So is one that has run further than this config trains for.
        let shorter = ControlConfig {
            online_epochs: 1,
            ..cfg
        };
        assert!(matches!(
            train_method_durable(Backend::Analytic, Method::Dqn, &sc, &shorter, &opts),
            Err(CheckpointError::Mismatch { .. })
        ));
        // A flipped byte is caught by the blob CRC, never silently resumed.
        let mut raw = std::fs::read(&dqn_path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        std::fs::write(&dqn_path, &raw).unwrap();
        assert!(matches!(
            train_method_durable(Backend::Analytic, Method::Dqn, &sc, &cfg, &opts),
            Err(CheckpointError::Store(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ddpg_trains_through_master_crashes_and_beats_random() {
        // The full DDPG pipeline rides the leader-elected control plane
        // while the scenario's fault plan kills the master twice (operator
        // restarts follow) on top of a 10% lossy link: training completes
        // (never hangs), both crashes surface as failovers, and the
        // trained solution still beats a random placement.
        let sc = Scenario::by_name("cq-small-master-crash").unwrap();
        let cfg = ControlConfig {
            offline_samples: 20,
            offline_steps: 15,
            online_epochs: 24,
            eps_decay_epochs: 12,
            sim_epoch_s: 5.0,
            ..ControlConfig::test()
        };
        let mut env = sc.cluster_env(&cfg, cfg.seed);
        let out = train_drl::<ActorCriticScheduler, _>(&sc.app, &sc.cluster, &cfg, &mut env);
        assert_eq!(out.rewards.unwrap().len(), cfg.online_epochs);
        let (rr, solution) = (sc.initial_assignment(), out.solution);

        // Both scripted crashes completed as failovers (generation bumps
        // observed through resume probes), and the typed counters agree.
        assert!(
            env.failovers() >= 2,
            "expected both master crashes to surface, saw {}",
            env.failovers()
        );
        assert!(env.master_generation() >= 2);
        assert!(env.degraded_epochs() >= env.failovers());

        // The trained solution beats a seeded random placement on the
        // scenario's own (master-less, fault-free) deployment engine.
        let mut random = RandomScheduler::new(
            RandomMode::FullRandom,
            StdRng::seed_from_u64(cfg.seed ^ 0x5EED),
        );
        let random_solution = random.schedule(&SchedState::new(rr, sc.app.workload.clone()));
        let trained = stable_ms(&scenario_deployment_curve(&sc, &cfg, &solution, 6.0, 15.0));
        let baseline = stable_ms(&scenario_deployment_curve(
            &sc,
            &cfg,
            &random_solution,
            6.0,
            15.0,
        ));
        assert!(
            trained < baseline,
            "trained {trained:.1} ms must beat random {baseline:.1} ms"
        );
    }
}
