//! Rollout workers: private environments stepping the act half of
//! Algorithm 1 under a pulled policy replica, pushing version-stamped
//! batches back to the service.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dss_core::config::ControlConfig;
use dss_core::env::Environment;
use dss_core::parallel::{Actor, ActorSetup};
use dss_core::scheduler::ActorCriticScheduler;
use dss_core::state::SchedState;
use dss_proto::{Message, ProtoError, Transport};
use dss_rl::{
    ActScratch, DdpgAgent, DdpgConfig, Elem, EpsilonSchedule, QuantActScratch, QuantPolicy,
    ShardedReplayBuffer,
};

use crate::batch::TransitionRows;
use crate::ps::ParameterServer;
use crate::queue::BoundedQueue;
use crate::stats::SharedStats;

/// A pulled policy image, tagged with the codec its bytes speak. The
/// service decides which to serve (the `rollout_quant` knob); workers
/// apply whichever arrives, so one worker binary handles both regimes.
pub enum PolicyFrame {
    /// Full-precision policy ([`DdpgAgent::save_policy`] bytes).
    Full(Arc<Vec<u8>>),
    /// Quantized rollout policy ([`QuantPolicy::encode`] bytes).
    Quant(Arc<Vec<u8>>),
}

/// How a worker reaches the service: pull fresh weights, push collected
/// batches. In-process workers talk to the [`ParameterServer`] and
/// [`BoundedQueue`] directly; remote workers speak `dss-proto` frames.
pub trait WeightsClient: Send {
    /// Weights newer than `have_version`, if the service has any (and the
    /// link delivered them — a lossy link may return `None`; the worker
    /// keeps acting on its current replica).
    fn pull_weights(&mut self, have_version: u64) -> Option<(u64, PolicyFrame)>;

    /// Pushes one batch. Blocking here is the service's backpressure.
    /// `false` means the service is gone and the worker should stop.
    fn push_batch(&mut self, batch: TransitionRows) -> bool;

    /// Parting handshake (remote clients say goodbye; local ones no-op).
    fn finish(&mut self) {}
}

/// Direct in-process client: an [`Arc`] away from the PS and the queue.
pub struct LocalClient {
    /// The parameter server weights come from.
    pub ps: Arc<ParameterServer>,
    /// The bounded worker→learner queue.
    pub queue: Arc<BoundedQueue<TransitionRows>>,
    /// Shared telemetry (overlap accounting happens at enqueue time).
    pub stats: Arc<SharedStats>,
}

impl WeightsClient for LocalClient {
    fn pull_weights(&mut self, have_version: u64) -> Option<(u64, PolicyFrame)> {
        // Prefer the quantized companion when the learner publishes one;
        // otherwise the full-precision frame.
        if let Some((v, blob)) = self.ps.pull_quant_newer(have_version) {
            return Some((v, PolicyFrame::Quant(blob)));
        }
        self.ps
            .pull_newer(have_version)
            .map(|(v, blob)| (v, PolicyFrame::Full(blob)))
    }

    fn push_batch(&mut self, batch: TransitionRows) -> bool {
        self.stats.note_push();
        self.queue.push(batch)
    }
}

/// Remote client over any [`Transport`]: `WeightsRequest`/`WeightsReport`
/// for pulls, fire-and-forget `TransitionBatch` frames for pushes. Built
/// for lossy links: a dropped request, reply or batch only costs
/// freshness or throughput — every receive is bounded by `reply_timeout`
/// and corrupt frames surface as typed errors that are simply skipped.
pub struct RemoteClient<T: Transport> {
    transport: T,
    reply_timeout: Duration,
}

impl<T: Transport> RemoteClient<T> {
    /// Wraps `transport`, waiting at most `reply_timeout` per pull.
    pub fn new(transport: T, reply_timeout: Duration) -> Self {
        Self {
            transport,
            reply_timeout,
        }
    }
}

impl<T: Transport + Send> WeightsClient for RemoteClient<T> {
    fn pull_weights(&mut self, have_version: u64) -> Option<(u64, PolicyFrame)> {
        if self
            .transport
            .send(&Message::WeightsRequest { have_version })
            .is_err()
        {
            return None;
        }
        let deadline = Instant::now() + self.reply_timeout;
        loop {
            let left = deadline.checked_duration_since(Instant::now())?;
            match self.transport.recv_timeout(left) {
                Ok(Some(Message::WeightsReport { version, blob })) => {
                    // An empty blob is the server's "you are current".
                    return (version > have_version && !blob.is_empty())
                        .then(|| (version, PolicyFrame::Full(Arc::new(blob))));
                }
                Ok(Some(Message::QuantWeightsReport { version, blob })) => {
                    return (version > have_version && !blob.is_empty())
                        .then(|| (version, PolicyFrame::Quant(Arc::new(blob))));
                }
                Ok(Some(_)) => continue, // stray frame (duplicate etc.)
                Ok(None) => return None, // reply lost on the link
                Err(ProtoError::Disconnected) => return None,
                Err(_) => continue, // corrupt frame: typed error, skip
            }
        }
    }

    fn push_batch(&mut self, batch: TransitionRows) -> bool {
        // Fire-and-forget: a drop on a chaos link costs the batch, not
        // the worker. Only a dead peer stops the rollout loop.
        !matches!(
            self.transport.send(&batch.to_message()),
            Err(ProtoError::Disconnected)
        )
    }

    fn finish(&mut self) {
        let _ = self.transport.send(&Message::Bye);
    }
}

/// One rollout worker: an [`Actor`] (private environment, exploration
/// RNG, K-NN mapper — seeded as actor `worker_id` of a
/// [`dss_core::parallel::ParallelCollector`] fleet would be, so a worker
/// fleet is reproducible) plus a **policy replica** (updated via
/// [`DdpgAgent::apply_policy`], never trained). Each round it pulls
/// fresh weights, steps the actor under the replica, and pushes the
/// collected rows stamped with the weight version they were acted under.
pub struct RolloutWorker<E: Environment, C: WeightsClient> {
    client: C,
    actor: Actor<E>,
    agent: DdpgAgent,
    eps: EpsilonSchedule,
    act: ActScratch,
    /// The quantized replica when the service serves quant frames; the
    /// worker acts on it instead of `agent` until a full frame arrives.
    quant: Option<QuantPolicy>,
    qact: QuantActScratch<Elem>,
    version: u64,
    pushed_rows: u64,
}

impl<E: Environment, C: WeightsClient> RolloutWorker<E, C> {
    /// Builds worker `worker_id` from an env setup (see
    /// [`dss_core::scenario`] for factories). The replica agent is shaped
    /// exactly like the learner's ([`ActorCriticScheduler::agent_config`])
    /// so published policies apply bit-for-bit.
    pub fn new(worker_id: usize, setup: ActorSetup<E>, cfg: &ControlConfig, client: C) -> Self {
        let n = setup.env.n_executors();
        let m = setup.env.n_machines();
        let agent = DdpgAgent::new(
            SchedState::feature_dim(n, m, setup.workload.rates().len()),
            n * m,
            DdpgConfig {
                // Replicas never train: keep the (unused) replay tiny.
                replay_capacity: 1,
                ..ActorCriticScheduler::agent_config(cfg)
            },
        );
        Self {
            client,
            actor: Actor::new(worker_id, setup, cfg),
            agent,
            eps: EpsilonSchedule::new(cfg.eps_start, cfg.eps_end, cfg.eps_decay_epochs),
            act: ActScratch::default(),
            quant: None,
            qact: QuantActScratch::default(),
            version: 0,
            pushed_rows: 0,
        }
    }

    /// The weight version the worker currently acts under.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Rows pushed so far (accepted by the client, not necessarily by a
    /// lossy link's far side).
    pub fn pushed_rows(&self) -> u64 {
        self.pushed_rows
    }

    fn sync_weights(&mut self) {
        match self.client.pull_weights(self.version) {
            Some((version, PolicyFrame::Full(blob))) => {
                if self.agent.apply_policy(&blob).is_err() {
                    return;
                }
                self.quant = None;
                self.version = version;
            }
            Some((version, PolicyFrame::Quant(blob))) => {
                if let Ok(policy) = QuantPolicy::decode(&blob) {
                    if policy.state_dim() == self.agent.state_dim()
                        && policy.action_dim() == self.agent.action_dim()
                    {
                        self.quant = Some(policy);
                        self.version = version;
                    }
                }
            }
            None => {}
        }
    }

    /// Runs `rounds` rounds of `steps_per_round` decision epochs each:
    /// pull weights, collect, push the stamped batch. Stops early only
    /// when the service is gone.
    pub fn run(&mut self, rounds: usize, steps_per_round: usize) {
        for round in 0..rounds {
            self.sync_weights();
            let eps = self.eps.value(round);
            let (agent, quant) = (&self.agent, &self.quant);
            let mut batch =
                TransitionRows::new(self.version, agent.state_dim(), agent.action_dim());
            for _ in 0..steps_per_round {
                let (act, qact) = (&mut self.act, &mut self.qact);
                self.actor.step(
                    move |features, mapper, rng| match quant {
                        Some(policy) => {
                            let best = policy.select_action_into(features, mapper, eps, rng, qact);
                            &qact.cands[best]
                        }
                        None => {
                            let best = agent.select_action_into(features, mapper, eps, rng, act);
                            &act.cands[best]
                        }
                    },
                    |s, a, r, next| batch.push_row(s, a, r, next),
                );
            }
            let rows = batch.rows() as u64;
            if !self.client.push_batch(batch) {
                return;
            }
            self.pushed_rows += rows;
        }
        self.client.finish();
    }
}

/// Compile-time proof the worker fleet crosses threads.
#[allow(dead_code)]
fn assert_thread_safe() {
    fn send<T: Send>() {}
    fn sync<T: Sync>() {}
    send::<LocalClient>();
    send::<RolloutWorker<dss_core::env::AnalyticEnv, LocalClient>>();
    sync::<ParameterServer>();
    sync::<BoundedQueue<TransitionRows>>();
    sync::<SharedStats>();
    sync::<ShardedReplayBuffer<Elem>>();
}
