//! Service assembly: lockstep/async training entry points, the PS-side
//! serving loop for remote workers, and the separate-process worker
//! runner.

use std::convert::Infallible;
use std::net::SocketAddr;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dss_apps::App;
use dss_core::config::ControlConfig;
use dss_core::controller::Controller;
use dss_core::env::Environment;
use dss_core::experiment::{train_drl_with, Backend};
use dss_core::parallel::ActorSetup;
use dss_core::scenario::Scenario;
use dss_core::scheduler::{ActorCriticScheduler, RandomMode};
use dss_core::state::SchedState;
use dss_metrics::TimeSeries;
use dss_proto::{
    ChannelTransport, ChaosPlan, MaybeChaos, Message, ProtoError, TcpTransport, Transport,
};
use dss_rl::{Elem, ShardedReplayBuffer};
use dss_sim::{Assignment, ClusterSpec};

use crate::batch::TransitionRows;
use crate::learner::Learner;
use crate::ps::ParameterServer;
use crate::queue::BoundedQueue;
use crate::stats::{SharedStats, StatsSnapshot};
use crate::worker::{LocalClient, RemoteClient, RolloutWorker, WeightsClient};

/// How the service schedules collection against optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Deterministic CI mode: the training driver of
    /// [`dss_core::experiment::train_method`]'s actor-critic arm with a
    /// policy publish between epochs — bit-identical rewards and solution.
    Lockstep,
    /// Rapid mode: N workers collect continuously while the learner
    /// trains and republishes concurrently.
    Async,
}

/// Service knobs (see the crate docs for the staleness discussion).
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Lockstep (deterministic) or async (overlapped) training.
    pub mode: SyncMode,
    /// Rollout workers to spawn (async mode).
    pub n_workers: usize,
    /// Collection rounds per worker (async mode).
    pub rounds: usize,
    /// Decision epochs per round — the pushed batch size.
    pub steps_per_round: usize,
    /// Learner minibatch updates per ingested batch.
    pub train_per_batch: usize,
    /// Publish the policy every this many train steps.
    pub publish_every: u64,
    /// Staleness knob: drop batches whose `version_lag` exceeds this.
    pub max_version_lag: u64,
    /// Bounded worker→learner queue capacity (backpressure depth).
    pub queue_capacity: usize,
    /// Replay capacity per worker shard.
    pub shard_capacity: usize,
    /// Remote pull reply timeout in milliseconds.
    pub reply_timeout_ms: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            mode: SyncMode::Async,
            n_workers: 4,
            rounds: 16,
            steps_per_round: 4,
            train_per_batch: 4,
            publish_every: 4,
            max_version_lag: u64::MAX,
            queue_capacity: 64,
            shard_capacity: 4096,
            reply_timeout_ms: 200,
        }
    }
}

/// How async workers reach the service.
#[derive(Debug, Clone)]
pub enum WorkerLink {
    /// Direct in-process clients (no frames on the path).
    InProcess,
    /// Framed loopback channel pairs, optionally chaos-wrapped.
    Channel(Option<ChaosPlan>),
    /// Loopback TCP sockets, optionally chaos-wrapped on the worker side.
    Tcp(Option<ChaosPlan>),
}

/// What a service run produces.
pub struct ServiceOutcome {
    /// The mode that ran.
    pub mode: SyncMode,
    /// Reward series: per online epoch (lockstep) or per accepted batch
    /// (async).
    pub rewards: TimeSeries,
    /// The greedy trained solution.
    pub solution: Assignment,
    /// Final service telemetry.
    pub stats: StatsSnapshot,
}

/// Trains on a named scenario against the chosen backend in the
/// configured mode — the service twin of
/// [`dss_core::experiment::train_method_on`].
pub fn train_service_on(
    backend: Backend,
    scenario: &Scenario,
    cfg: &ControlConfig,
    tc: &TrainerConfig,
    link: &WorkerLink,
) -> ServiceOutcome {
    match tc.mode {
        SyncMode::Lockstep => train_lockstep_with(&scenario.app, &scenario.cluster, cfg, || {
            scenario.env(backend, cfg, cfg.seed)
        }),
        SyncMode::Async => train_async_with(scenario, cfg, tc, link, |i| ActorSetup {
            env: scenario.env(backend, cfg, cfg.seed.wrapping_add(i as u64)),
            workload: scenario.app.workload.clone(),
            initial: scenario.initial_assignment(),
        }),
    }
}

/// Lockstep training over any backend:
/// [`dss_core::experiment::train_drl_with`] — the loop the classic
/// actor-critic path runs — with a between-epoch hook that publishes the
/// policy to a [`ParameterServer`] after pretraining and after every
/// epoch. The hook only reads the networks, so the reward series and
/// trained solution are the classic path's bit for bit (the equivalence
/// CI pins).
pub fn train_lockstep_with<E: Environment>(
    app: &App,
    cluster: &ClusterSpec,
    cfg: &ControlConfig,
    make_env: impl Fn() -> E,
) -> ServiceOutcome {
    let ps = ParameterServer::new();
    let stats = SharedStats::new();
    let mut train_steps = 0;
    let publish = |sched: &ActorCriticScheduler, _: &E, rewards: &TimeSeries, _: &Assignment| {
        stats.set_weight_version(ps.publish(sched.agent().save_policy()));
        if !rewards.is_empty() {
            stats.record_accepted(0, 1);
        }
        train_steps = sched.agent().train_steps();
        ControlFlow::<Infallible>::Continue(())
    };
    let ControlFlow::Continue(trained) =
        train_drl_with(app, cluster, cfg, &mut make_env(), None, publish);
    for _ in 0..train_steps {
        stats.add_train_step();
    }
    ServiceOutcome {
        mode: SyncMode::Lockstep,
        rewards: trained.rewards.expect("DRL training records rewards"),
        solution: trained.solution,
        stats: stats.snapshot(),
    }
}

/// Async training: spawns `tc.n_workers` rollout workers over the chosen
/// link, drives the learner on the calling thread until every worker
/// finishes and the queue drains, then extracts the greedy solution.
pub fn train_async_with<E>(
    scenario: &Scenario,
    cfg: &ControlConfig,
    tc: &TrainerConfig,
    link: &WorkerLink,
    mut factory: impl FnMut(usize) -> ActorSetup<E>,
) -> ServiceOutcome
where
    E: Environment + Send + 'static,
{
    assert!(tc.n_workers > 0, "need at least one worker");
    let (n, m, n_sources) = (
        scenario.n_executors(),
        scenario.n_machines(),
        scenario.n_sources(),
    );
    let state_dim = SchedState::feature_dim(n, m, n_sources);
    let ps = Arc::new(ParameterServer::new());
    let queue = Arc::new(BoundedQueue::new(tc.queue_capacity));
    let stats = Arc::new(SharedStats::new());
    let replay = Arc::new(ShardedReplayBuffer::<Elem>::new(
        tc.n_workers,
        tc.shard_capacity,
        state_dim,
        n * m,
    ));
    let mut learner = Learner::new(
        cfg,
        n,
        m,
        n_sources,
        Arc::clone(&replay),
        Arc::clone(&ps),
        Arc::clone(&stats),
        tc.max_version_lag,
        tc.publish_every,
    );
    // Offline phase first (Algorithm 1's pretraining): collect a random
    // chain on a private env — same seeds as the classic path — and seed
    // the learner before any worker pulls. Version 1 is the offline
    // policy, not random networks.
    {
        let mut setup = factory(0);
        let data = Controller::new(*cfg).offline_phase(
            &mut setup.env,
            &setup.workload,
            RandomMode::FullRandom,
            setup.initial,
        );
        learner.pretrain(&data);
    }
    learner.publish();

    let live = Arc::new(AtomicUsize::new(tc.n_workers));
    let reply_timeout = Duration::from_millis(tc.reply_timeout_ms);
    let mut workers = Vec::new();
    let mut servers = Vec::new();
    for i in 0..tc.n_workers {
        let setup = factory(i);
        let producer = Producer(Arc::clone(&live));
        match link {
            WorkerLink::InProcess => {
                let client = LocalClient {
                    ps: Arc::clone(&ps),
                    queue: Arc::clone(&queue),
                    stats: Arc::clone(&stats),
                };
                workers.push(spawn_worker(i, setup, cfg, client, tc, Some(producer)));
            }
            WorkerLink::Channel(chaos) => {
                let (worker_side, server_side) = ChannelTransport::pair();
                servers.push(spawn_server(server_side, &ps, &queue, &stats, producer));
                let transport = chaosify(worker_side, chaos, i);
                let client = RemoteClient::new(transport, reply_timeout);
                workers.push(spawn_worker(i, setup, cfg, client, tc, None));
            }
            WorkerLink::Tcp(chaos) => {
                let (listener, addr) = TcpTransport::listen_localhost().expect("loopback listener");
                let (ps2, queue2, stats2) =
                    (Arc::clone(&ps), Arc::clone(&queue), Arc::clone(&stats));
                servers.push(std::thread::spawn(move || {
                    let _producer = producer;
                    let transport = TcpTransport::accept(&listener).expect("accept worker");
                    transport
                        .set_io_deadline(Some(Duration::from_millis(500)))
                        .expect("serve deadline");
                    serve_worker(transport, ps2, queue2, stats2);
                }));
                let transport = TcpTransport::connect(addr).expect("connect to service");
                transport
                    .set_io_deadline(Some(Duration::from_millis(500)))
                    .expect("worker deadline");
                let client = RemoteClient::new(chaosify(transport, chaos, i), reply_timeout);
                workers.push(spawn_worker(i, setup, cfg, client, tc, None));
            }
        }
    }

    learner.drive(&queue, &live, tc.train_per_batch);
    for w in workers {
        w.join().expect("worker thread");
    }
    queue.close();
    for s in servers {
        s.join().expect("server thread");
    }

    // Final decision with a measured validation sweep on a fresh env.
    let mut validation = factory(0);
    let solution = learner.finalize_measured(
        &mut validation.env,
        &scenario.initial_assignment(),
        &scenario.app.workload,
    );
    let mut rewards = TimeSeries::new();
    for (i, &r) in learner.rewards().values().iter().enumerate() {
        rewards.push(i as f64, r);
    }
    ServiceOutcome {
        mode: SyncMode::Async,
        rewards,
        solution,
        stats: stats.snapshot(),
    }
}

fn chaosify<T: Transport>(transport: T, chaos: &Option<ChaosPlan>, worker: usize) -> MaybeChaos<T> {
    // Re-seed per worker so fault streams are decorrelated, reproducibly.
    let plan = chaos
        .as_ref()
        .map(|p| p.clone().with_seed(p.seed ^ (0xD15 + worker as u64)));
    let wrapped = MaybeChaos::wrap(transport, plan.as_ref());
    wrapped.arm();
    wrapped
}

/// One queue producer's hold on the learner's drain: [`Learner::drive`]
/// runs until the live count it decrements on drop reaches zero and the
/// queue is empty. The thread that pushes a worker's batches holds it —
/// the worker itself in process, the serving thread for a remote link,
/// which has enqueued every batch frame once it returns. (A remote
/// worker's own return proves nothing: its last batch may still be on
/// the wire.)
struct Producer(Arc<AtomicUsize>);

impl Drop for Producer {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

fn spawn_worker<E, C>(
    id: usize,
    setup: ActorSetup<E>,
    cfg: &ControlConfig,
    client: C,
    tc: &TrainerConfig,
    producer: Option<Producer>,
) -> std::thread::JoinHandle<()>
where
    E: Environment + Send + 'static,
    C: WeightsClient + 'static,
{
    let mut worker = RolloutWorker::new(id, setup, cfg, client);
    let (rounds, steps) = (tc.rounds, tc.steps_per_round);
    std::thread::spawn(move || {
        let _producer = producer;
        worker.run(rounds, steps);
    })
}

fn spawn_server(
    transport: ChannelTransport,
    ps: &Arc<ParameterServer>,
    queue: &Arc<BoundedQueue<TransitionRows>>,
    stats: &Arc<SharedStats>,
    producer: Producer,
) -> std::thread::JoinHandle<()> {
    let (ps, queue, stats) = (Arc::clone(ps), Arc::clone(queue), Arc::clone(stats));
    std::thread::spawn(move || {
        let _producer = producer;
        serve_worker(transport, ps, queue, stats);
    })
}

/// PS-side serving loop for one remote worker connection: answers
/// `WeightsRequest` with the current (or empty, when the worker is
/// already current) `WeightsReport`, enqueues `TransitionBatch` frames —
/// blocking on the bounded queue, which propagates learner backpressure
/// onto the link — and reports [`SharedStats`] on demand. Corrupt frames
/// (chaos links) surface as typed errors and are skipped; `Bye`, a dead
/// peer, or a closed queue end the loop. Never hangs: every receive is
/// bounded.
pub fn serve_worker<T: Transport>(
    transport: T,
    ps: Arc<ParameterServer>,
    queue: Arc<BoundedQueue<TransitionRows>>,
    stats: Arc<SharedStats>,
) {
    loop {
        match transport.recv_timeout(Duration::from_millis(50)) {
            Ok(Some(Message::WeightsRequest { have_version })) => {
                // A version published as a pair is served quantized —
                // that is the whole point of publishing the pair.
                let reply = if let Some((version, blob)) = ps.pull_quant_newer(have_version) {
                    Message::QuantWeightsReport {
                        version,
                        blob: (*blob).clone(),
                    }
                } else if let Some((version, blob)) = ps.pull_newer(have_version) {
                    Message::WeightsReport {
                        version,
                        blob: (*blob).clone(),
                    }
                } else {
                    Message::WeightsReport {
                        version: ps.version(),
                        blob: Vec::new(),
                    }
                };
                // A lost reply only costs freshness; the worker retries
                // next round.
                let _ = transport.send(&reply);
            }
            Ok(Some(msg @ Message::TransitionBatch { .. })) => {
                if let Some(batch) = TransitionRows::from_message(msg) {
                    stats.note_push();
                    if !queue.push(batch) {
                        break;
                    }
                }
            }
            Ok(Some(Message::Bye)) => break,
            Ok(Some(_)) => {} // stray frame: ignore
            Ok(None) => {
                if queue.is_closed() {
                    break;
                }
            }
            Err(ProtoError::Disconnected) => break,
            Err(_) => {} // chaos-mangled frame: typed error, skip
        }
    }
}

/// Entry point for a **separate-process** rollout worker: connects to a
/// service's TCP listener, rebuilds the scenario environment locally
/// (seeded exactly like in-process worker `worker_id`, so process
/// placement does not change what is collected), runs the rollout loop
/// and says `Bye`. Returns the number of rows pushed.
pub fn run_remote_worker(
    addr: SocketAddr,
    backend: Backend,
    scenario_name: &str,
    cfg: &ControlConfig,
    worker_id: usize,
    rounds: usize,
    steps_per_round: usize,
) -> Result<u64, String> {
    let scenario = Scenario::by_name(scenario_name)
        .ok_or_else(|| format!("unknown scenario `{scenario_name}`"))?;
    let transport = TcpTransport::connect(addr).map_err(|e| format!("connect: {e}"))?;
    transport
        .set_io_deadline(Some(Duration::from_millis(2000)))
        .map_err(|e| format!("deadline: {e}"))?;
    let client = RemoteClient::new(transport, Duration::from_millis(500));
    let setup = ActorSetup {
        env: scenario.env(backend, cfg, cfg.seed.wrapping_add(worker_id as u64)),
        workload: scenario.app.workload.clone(),
        initial: scenario.initial_assignment(),
    };
    let mut worker = RolloutWorker::new(worker_id, setup, cfg, client);
    worker.run(rounds, steps_per_round);
    Ok(worker.pushed_rows())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_producer_is_released_only_after_its_batches_are_queued() {
        // A remote worker can return — and say `Bye` — while its last
        // batches are still unread on the link. The learner stops draining
        // once the live count is zero and the queue is empty, so the count
        // must drop only when the serving thread has queued every frame.
        let (worker_side, server_side) = ChannelTransport::pair();
        for version in 1..=3 {
            let mut batch = TransitionRows::new(version, 2, 1);
            batch.push_row(&[0.5, 1.0], &[1.0], -1.0, &[1.0, 0.5]);
            worker_side.send(&batch.to_message()).expect("channel open");
        }
        worker_side.send(&Message::Bye).expect("channel open");
        drop(worker_side);

        let live = Arc::new(AtomicUsize::new(1));
        let (ps, queue, stats) = (
            Arc::new(ParameterServer::new()),
            Arc::new(BoundedQueue::new(8)),
            Arc::new(SharedStats::new()),
        );
        let server = spawn_server(
            server_side,
            &ps,
            &queue,
            &stats,
            Producer(Arc::clone(&live)),
        );
        while live.load(Ordering::Acquire) != 0 {
            std::thread::yield_now();
        }
        assert_eq!(queue.len(), 3, "every batch is queued before release");
        server.join().expect("server thread");
    }
}
