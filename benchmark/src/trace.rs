//! The traced pass: the harness drives the same public sequence the
//! production actor-critic arm runs — `collect_offline` → `pretrain` →
//! `online_epoch`×T (→ checkpoint on the durable workload) → `freeze` →
//! `decide` — over [`TimedScheduler`] + [`TimedEnv`], so every seam call
//! becomes a span. Spans are kept in memory and written out at the end.
//!
//! The pass is checked against the untraced production run of the same
//! seed: reward bits and solution must be equal, which is what makes the
//! spans evidence about the production path rather than about a
//! look-alike.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dss_core::config::ControlConfig;
use dss_core::controller::{Controller, OfflineDataset};
use dss_core::experiment::{checkpoint_path, Method};
use dss_core::scenario::Scenario;
use dss_core::scheduler::{ActorCriticScheduler, RandomMode, RandomScheduler, Scheduler};
use dss_core::TrainCheckpoint;
use dss_metrics::TimeSeries;
use dss_sim::Assignment;

use crate::json;
use crate::timed::{drain_sink, env_sink, EnvLog, Span, SpanKind, TimedScheduler};
use crate::workloads::{scratch_dir, timed_env, Backend};

/// One span of the trace file.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// Index in the span list.
    pub id: usize,
    /// The span that caused this one (`None` for the root).
    pub parent: Option<usize>,
    /// `<crate>.<what>`.
    pub name: &'static str,
    /// Microseconds since the root span started.
    pub start_us: f64,
    /// Microseconds since the root span started.
    pub end_us: f64,
    /// Online epoch this span belongs to, if any.
    pub epoch: Option<usize>,
}

/// Collects spans relative to one origin.
pub struct SpanTree {
    origin: Instant,
    /// The spans, root first.
    pub spans: Vec<TraceSpan>,
}

impl SpanTree {
    /// A tree whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Adds a span and returns its id.
    pub fn add(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
        epoch: Option<usize>,
    ) -> usize {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let id = self.spans.len();
        self.spans.push(TraceSpan {
            id,
            parent,
            name,
            start_us: us(start),
            end_us: us(end),
            epoch,
        });
        id
    }

    fn add_seam(&mut self, parent: usize, span: &Span, epoch: Option<usize>) -> usize {
        self.add(Some(parent), span.kind.name(), span.start, span.end, epoch)
    }

    /// The trace file: one JSON object, spans in id order.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"unit\": \"us since train start\", \"spans\": [\n",
            json::quote(workload)
        );
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "  {{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_us\": {}, \"end_us\": {}, \"epoch\": {}}}{}\n",
                s.id,
                opt(s.parent),
                json::quote(s.name),
                json::number(s.start_us),
                json::number(s.end_us),
                opt(s.epoch),
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Per-epoch seam decomposition: `epoch = schedule + env + observe +
/// checkpoint + controller_self`, exactly.
#[derive(Debug, Clone, Copy)]
pub struct EpochSplit {
    /// Whole epoch, ms.
    pub epoch_ms: f64,
    /// `Scheduler::schedule`, ms.
    pub schedule_ms: f64,
    /// `Environment::deploy_and_measure`, ms.
    pub env_ms: f64,
    /// `Scheduler::observe`, ms.
    pub observe_ms: f64,
    /// Durable checkpoint (0 on epochs without one), ms.
    pub checkpoint_ms: f64,
    /// The remainder: state build, featurize-for-store, reward,
    /// `TransitionStore` push.
    pub self_ms: f64,
}

/// What the traced pass produced.
pub struct Traced {
    /// Wall time of the whole sequence (comparable to the untraced
    /// `train_wall_s`).
    pub train_wall_s: f64,
    /// Of that, time inside the environment's deploy-and-measure calls.
    pub env_s: f64,
    /// Reward series, to compare with the untraced run bit for bit.
    pub rewards: TimeSeries,
    /// Deployable solution, likewise.
    pub solution: Assignment,
    /// Every span.
    pub tree: SpanTree,
    /// Offline collection, s.
    pub offline_collect_s: f64,
    /// Pretraining, s.
    pub pretrain_s: f64,
    /// `freeze` → `decide`, s.
    pub finalize_s: f64,
    /// One split per online epoch.
    pub epochs: Vec<EpochSplit>,
    /// Encoded size of the last checkpoint (0 without one).
    pub checkpoint_bytes: u64,
    /// The trained, frozen scheduler (the replay probes borrow its agent).
    pub scheduler: ActorCriticScheduler,
    /// The offline dataset (the replay probes take their inputs from it).
    pub dataset: OfflineDataset,
}

/// `(epoch start, epoch end, checkpoint start and end if one was taken)`.
type EpochBounds = (Instant, Instant, Option<(Instant, Instant)>);

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// Runs the traced sequence on backend `B`. `durable` is the checkpoint
/// cadence of the durable workload.
pub fn traced_lockstep<B: Backend + 'static>(
    name: &str,
    sc: &Scenario,
    cfg: &ControlConfig,
    durable: Option<usize>,
) -> Traced {
    let (n, m, s) = (sc.n_executors(), sc.n_machines(), sc.n_sources());
    let workload = &sc.app.workload;
    let sink = env_sink();
    let dir = scratch_dir().join(format!("traced-{name}-{}", cfg.seed));
    if durable.is_some() {
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("checkpoint directory inside the checkout");
    }
    let path = checkpoint_path(&dir, Method::ActorCritic, cfg);

    let origin = Instant::now();
    let controller = Controller::new(*cfg);
    let rr = sc.initial_assignment();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xE0);
    let mut env = timed_env::<B>(sc, cfg, cfg.seed, 0, &sink);
    let mut collector =
        RandomScheduler::new(RandomMode::FullRandom, StdRng::seed_from_u64(cfg.seed));
    let offline_start = Instant::now();
    let dataset =
        controller.collect_offline(&mut env, workload, &mut collector, rr.clone(), &mut rng);
    let offline_end = Instant::now();
    let mut sched = TimedScheduler::new(ActorCriticScheduler::new(n, m, s, cfg));
    let built = Instant::now();
    sched.pretrain(&dataset);

    let online_start = Instant::now();
    let mut rewards = TimeSeries::new();
    let mut current = rr;
    let mut actions: Vec<Assignment> = Vec::new();
    let mut bounds: Vec<EpochBounds> = Vec::new();
    let (mut sched_scratch, mut ckpt_scratch) = (Vec::new(), Vec::new());
    let mut checkpoint_bytes = 0u64;
    for t in 0..cfg.online_epochs {
        let start = Instant::now();
        current = controller.online_epoch(&mut sched, &mut env, workload, current, t, &mut rewards);
        let mut saved = None;
        if let Some(every) = durable {
            // The durable driver's own between-epoch work, call for call.
            actions.push(current.clone());
            let done = t + 1;
            if done % every == 0 || done == cfg.online_epochs {
                let save_start = Instant::now();
                sched.inner().save_state_into(&mut sched_scratch);
                let ckpt = TrainCheckpoint {
                    method: Method::ActorCritic,
                    seed: cfg.seed,
                    completed: done,
                    rewards: rewards.clone(),
                    actions: actions.clone(),
                    env_image: dss_core::env::Environment::save_state(&env),
                    scheduler_state: std::mem::take(&mut sched_scratch),
                };
                ckpt.save_with(&path, &mut ckpt_scratch)
                    .expect("checkpoint write inside the checkout");
                checkpoint_bytes = ckpt_scratch.len() as u64;
                sched_scratch = ckpt.scheduler_state;
                saved = Some((save_start, Instant::now()));
            }
        }
        bounds.push((start, Instant::now(), saved));
    }
    let online_end = Instant::now();
    sched.inner_mut().freeze();
    let solution = controller.decide(&mut sched, &current, workload);
    let decided = Instant::now();
    // The entry points own their environment and tear it down before
    // they return (on the cluster backend: stopping master, supervisors
    // and the coordination service), so that is part of the train wall.
    drop(env);
    let end = Instant::now();
    let train_wall_s = end.duration_since(origin).as_secs_f64();
    if durable.is_some() {
        std::fs::remove_dir_all(&dir).ok();
    }
    let env_log = drain_sink(&sink).pop().expect("traced env log");

    // Assemble the tree. Scheduler spans arrive as: pretrain, then
    // (schedule, observe) per epoch, then the final greedy schedule.
    let spans = sched.take_spans();
    let of = |kind| spans.iter().filter(move |s| s.kind == kind);
    let pretrain = of(SpanKind::Pretrain).next().expect("pretrain span");
    let schedules: Vec<&Span> = of(SpanKind::Schedule).collect();
    let observes: Vec<&Span> = of(SpanKind::Observe).collect();
    let env_steps: Vec<&Span> = env_log
        .calls
        .iter()
        .filter(|s| s.kind == SpanKind::EnvStep)
        .collect();
    assert_eq!(schedules.len(), cfg.online_epochs + 1, "schedule spans");
    assert_eq!(observes.len(), cfg.online_epochs, "observe spans");
    assert_eq!(env_steps.len(), cfg.online_epochs, "online env spans");

    let mut tree = SpanTree::new(origin);
    let root = tree.add(None, "train", origin, end, None);
    let offline = tree.add(
        Some(root),
        "core.offline_collect",
        offline_start,
        offline_end,
        None,
    );
    for call in env_log
        .calls
        .iter()
        .filter(|s| s.kind == SpanKind::EnvStats)
    {
        tree.add_seam(offline, call, None);
    }
    tree.add(Some(root), "rl.agent_build", offline_end, built, None);
    tree.add_seam(root, pretrain, None);
    let online = tree.add(
        Some(root),
        "core.online_learn",
        online_start,
        online_end,
        None,
    );
    let mut epochs = Vec::with_capacity(bounds.len());
    for (t, &(start, stop, saved)) in bounds.iter().enumerate() {
        let id = tree.add(Some(online), "core.online_epoch", start, stop, Some(t));
        for seam in [schedules[t], env_steps[t], observes[t]] {
            assert!(
                seam.start >= start && seam.end <= stop,
                "seam span outside its epoch"
            );
            tree.add_seam(id, seam, Some(t));
        }
        let checkpoint_ms = saved.map_or(0.0, |(a, b)| {
            tree.add(Some(id), "core.checkpoint_save", a, b, Some(t));
            ms(a, b)
        });
        let epoch_ms = ms(start, stop);
        let (schedule_ms, env_ms, observe_ms) =
            (schedules[t].ms(), env_steps[t].ms(), observes[t].ms());
        epochs.push(EpochSplit {
            epoch_ms,
            schedule_ms,
            env_ms,
            observe_ms,
            checkpoint_ms,
            self_ms: epoch_ms - schedule_ms - env_ms - observe_ms - checkpoint_ms,
        });
    }
    let finalize = tree.add(Some(root), "core.finalize", online_end, decided, None);
    tree.add_seam(finalize, schedules[cfg.online_epochs], None);
    tree.add(Some(root), "core.env_teardown", decided, end, None);

    Traced {
        train_wall_s,
        env_s: env_log.calls.iter().map(Span::ms).sum::<f64>() / 1e3,
        rewards,
        solution,
        tree,
        offline_collect_s: offline_end.duration_since(offline_start).as_secs_f64(),
        pretrain_s: pretrain.ms() / 1e3,
        finalize_s: decided.duration_since(online_end).as_secs_f64(),
        epochs,
        checkpoint_bytes,
        scheduler: sched.into_inner(),
        dataset,
    }
}

/// The span tree of an async run, from what the env seam alone shows:
/// the offline collector's calls, every worker step (entry to entry) and
/// the validation sweep.
pub fn async_tree(origin: Instant, end: Instant, envs: &[EnvLog]) -> SpanTree {
    let mut tree = SpanTree::new(origin);
    let root = tree.add(None, "train", origin, end, None);
    let phases = ["core.offline_collect", "trainer.worker", "core.finalize"];
    for (log, phase) in envs.iter().zip(phases) {
        let (Some(first), Some(last)) = (log.calls.first(), log.calls.last()) else {
            continue;
        };
        let id = tree.add(Some(root), phase, first.start, last.end, None);
        if phase == "trainer.worker" {
            for (t, pair) in log.calls.windows(2).enumerate() {
                let step = tree.add(
                    Some(id),
                    "trainer.worker_step",
                    pair[0].start,
                    pair[1].start,
                    Some(t),
                );
                tree.add_seam(step, &pair[0], Some(t));
            }
        } else {
            for call in &log.calls {
                tree.add_seam(id, call, None);
            }
        }
    }
    tree
}

/// Total milliseconds per span name over direct children of the root and
/// of the online phase — the layer table a reader ranks costs from.
pub fn layer_totals(traced: &Traced) -> Vec<(&'static str, f64)> {
    let sum = |f: fn(&EpochSplit) -> f64| traced.epochs.iter().map(f).sum::<f64>();
    let span_ms = |name: &str| {
        let spans = &traced.tree.spans;
        spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_us - s.start_us) / 1e3)
    };
    vec![
        ("core.offline_collect", traced.offline_collect_s * 1e3),
        ("rl.agent_build", span_ms("rl.agent_build")),
        ("rl.pretrain", traced.pretrain_s * 1e3),
        ("rl.schedule", sum(|e| e.schedule_ms)),
        ("core.env_step", sum(|e| e.env_ms)),
        ("rl.observe", sum(|e| e.observe_ms)),
        ("core.controller_self", sum(|e| e.self_ms)),
        ("core.checkpoint_save", sum(|e| e.checkpoint_ms)),
        ("core.finalize", traced.finalize_s * 1e3),
        ("core.env_teardown", span_ms("core.env_teardown")),
    ]
}
