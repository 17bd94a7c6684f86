//! Replay probes: each layer's public function called in isolation, on
//! inputs recorded at the seams and with the shapes the workload runs at.
//!
//! A probe's value is the median of its samples. Sampling stops at
//! [`TARGET_SAMPLES`], or once [`MIN_SAMPLES`] are in and the probe's
//! time budget is spent (fleet-scale calls take seconds each).

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use dss_coord::{CoordConfig, CoordService, CreateMode};
use dss_core::config::ControlConfig;
use dss_core::controller::{Controller, OfflineDataset};
use dss_core::env::{ClusterEnv, Environment, SimEnv};
use dss_core::reward::RewardScale;
use dss_core::scenario::Scenario;
use dss_core::scheduler::{RandomMode, RandomScheduler};
use dss_core::state::{featurize_into, onehot_elems};
use dss_miqp::{k_best_assignments_into, CostMatrix, KBestWorkspace};
use dss_nimbus::{MeasureProtocol, Nimbus, NimbusConfig, RecoveryImage, RecoveryStore};
use dss_nn::Matrix;
use dss_proto::{decode_frame, encode_frame, Message, TcpTransport, Transport};
use dss_rl::{
    ActScratch, ActionMapper, CandidateAction, DdpgAgent, DdpgConfig, Elem, ScalableMapper,
    ShardedReplayBuffer, Transition,
};
use dss_sim::{AnalyticModel, SimConfig};
use dss_store::{blob, Log, LogConfig};
use dss_trainer::{Learner, ParameterServer, SharedStats, TransitionRows};

use crate::stats;
use crate::workloads::{scratch_dir, Backend};

/// Samples a probe stops at.
pub const TARGET_SAMPLES: usize = 200;
/// Samples a probe takes at least (3 when one call takes over a second).
pub const MIN_SAMPLES: usize = 5;
/// Time a probe may spend once it has its minimum.
const BUDGET: Duration = Duration::from_millis(120);

/// Probe results: `(metric, value, samples)`. Counts and byte sizes
/// carry one sample.
pub type Readings = Vec<(&'static str, f64, usize)>;

/// Times `op(prep())` per call, `prep` untimed. Returns the median
/// seconds per call and the sample count.
fn sample_with<T>(mut prep: impl FnMut() -> T, mut op: impl FnMut(T)) -> (f64, usize) {
    let mut secs = Vec::new();
    let begun = Instant::now();
    let mut min = MIN_SAMPLES;
    while secs.len() < TARGET_SAMPLES {
        let input = prep();
        let start = Instant::now();
        op(input);
        let took = start.elapsed();
        secs.push(took.as_secs_f64());
        if took > Duration::from_secs(1) {
            min = 3;
        }
        if secs.len() >= min && begun.elapsed() >= BUDGET {
            break;
        }
    }
    (
        stats::median(&secs).expect("a probe takes at least one sample"),
        secs.len(),
    )
}

/// Times `op` per call.
fn sample(mut op: impl FnMut()) -> (f64, usize) {
    sample_with(|| (), |()| op())
}

/// Times `batch` back-to-back calls per sample, for operations too short
/// for one clock read each. Returns median seconds per call.
fn sample_batched(batch: usize, mut op: impl FnMut()) -> (f64, usize) {
    let (secs, n) = sample(|| {
        for _ in 0..batch {
            op();
        }
    });
    (secs / batch as f64, n)
}

/// The agent-side inputs every probe shares.
pub struct Fixture {
    /// The workload's scenario.
    pub sc: Scenario,
    /// Its training configuration.
    pub cfg: ControlConfig,
    /// A trained agent with a filled replay ring (a private copy).
    pub agent: DdpgAgent,
    /// The mapper the workload's knobs select.
    pub mapper: ScalableMapper,
    /// Actor-critic transitions of the offline dataset.
    pub transitions: Vec<Transition<Vec<Elem>>>,
    /// Best-rewarded offline actions, as the scheduler's elite memory
    /// would hand them to the critic.
    pub elites: Vec<CandidateAction>,
    /// Probe-private RNG.
    pub rng: StdRng,
}

impl Fixture {
    /// A fixture around `agent_image` (a `DdpgAgent::save_state` image
    /// recorded from the traced run) and the run's offline dataset.
    pub fn new(
        sc: &Scenario,
        cfg: &ControlConfig,
        agent_image: &[u8],
        dataset: &OfflineDataset,
    ) -> Self {
        let reward = RewardScale {
            per_ms: cfg.reward_per_ms,
        };
        let mut ranked: Vec<_> = dataset.samples.iter().collect();
        ranked.sort_by(|a, b| {
            a.latency_ms
                .partial_cmp(&b.latency_ms)
                .expect("measured latencies are finite")
        });
        ranked.dedup_by(|a, b| a.action == b.action);
        let elites = ranked
            .iter()
            .take(12)
            .map(|s| CandidateAction {
                choice: s.action.as_slice().to_vec(),
                onehot: onehot_elems(&s.action),
                cost: 0.0,
            })
            .collect();
        Self {
            sc: sc.clone(),
            cfg: *cfg,
            agent: DdpgAgent::restore_state(agent_image).expect("agent image just saved"),
            mapper: ScalableMapper::from_knobs(
                sc.n_executors(),
                sc.n_machines(),
                cfg.mapper_groups,
                cfg.mapper_prune,
            ),
            transitions: dataset.ddpg_transitions(cfg.rate_scale, reward),
            elites,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x9B0BE),
        }
    }

    /// A fixture for a workload whose production run hands back no agent
    /// (async): collect the workload's offline dataset and pretrain a
    /// same-shaped agent on it, as the learner does.
    pub fn pretrained<B: Backend>(sc: &Scenario, cfg: &ControlConfig) -> Self {
        let mut env = B::build(sc, cfg, cfg.seed);
        let dataset = Controller::new(*cfg).collect_offline(
            &mut env,
            &sc.app.workload,
            &mut RandomScheduler::new(RandomMode::FullRandom, StdRng::seed_from_u64(cfg.seed)),
            sc.initial_assignment(),
            &mut StdRng::seed_from_u64(cfg.seed ^ 0xE0),
        );
        let mut agent: DdpgAgent = DdpgAgent::new(
            sc.state_dim(),
            sc.action_dim(),
            DdpgConfig {
                k: cfg.k,
                seed: cfg.seed,
                gamma: cfg.gamma,
                ..DdpgConfig::default()
            },
        );
        let mut fixture = Self::new(sc, cfg, &agent.save_state(), &dataset);
        agent.pretrain(
            fixture.transitions.clone(),
            cfg.offline_steps,
            &mut fixture.mapper,
            &mut fixture.rng,
        );
        fixture.agent = agent;
        fixture
    }
}

/// Pearson correlation, over the offline samples, between the critic's
/// value of each `(state, action)` and the reward that was measured for
/// it. An untrained critic scores about 0 (−0.14 to 0.29 over 100 seeds
/// of the three small workloads), a trained one 0.34 to 0.93, so this
/// tells a run that learned from one whose train steps did nothing.
pub fn critic_reward_corr(f: &Fixture) -> f64 {
    let q: Vec<f64> = f
        .transitions
        .iter()
        .map(|t| f64::from(f.agent.q_value(&t.state, &t.action)))
        .collect();
    let r: Vec<f64> = f.transitions.iter().map(|t| f64::from(t.reward)).collect();
    stats::pearson(&q, &r)
}

/// `nn`, `rl`, `miqp` and `core::state` probes — every workload runs
/// these, at its own widths.
pub fn agent_probes(f: &mut Fixture, out: &mut Readings) {
    let (n, m) = (f.sc.n_executors(), f.sc.n_machines());
    let k = f.agent.config().k;
    let h = f.agent.config().batch;
    let t0 = f.transitions[0].clone();
    let rows = |r: usize| &f.transitions[r % f.transitions.len()];

    // nn: batched forward/backward at minibatch height H.
    let states = Matrix::from_fn(h, f.agent.state_dim(), |r, c| rows(r).state[c]);
    let critic_in = Matrix::from_fn(h, f.agent.state_dim() + f.agent.action_dim(), |r, c| {
        let t = rows(r);
        if c < t.state.len() {
            t.state[c]
        } else {
            t.action[c - t.state.len()]
        }
    });
    let mut actor = f.agent.actor().clone();
    let mut critic = f.agent.critic().clone();
    let (s, cnt) = sample(|| {
        std::hint::black_box(actor.forward(&states));
    });
    out.push(("nn.actor_forward_us", s * 1e6, cnt));
    let (fwd, cnt) = sample(|| {
        std::hint::black_box(critic.forward(&critic_in));
    });
    out.push(("nn.critic_forward_us", fwd * 1e6, cnt));
    let flops: f64 = critic
        .layers()
        .iter()
        .map(|l| 2.0 * h as f64 * l.input_size() as f64 * l.output_size() as f64)
        .sum();
    out.push(("nn.gemm_gflops", flops / fwd / 1e9, cnt));
    let grad = Matrix::from_fn(h, 1, |_, _| 1.0);
    let (s, cnt) = sample(|| {
        std::hint::black_box(critic.backward(&grad));
    });
    out.push(("nn.critic_backward_us", s * 1e6, cnt));
    drop((actor, critic, states, critic_in));

    // rl: the decision path, piece by piece and whole.
    let features = t0.state.clone();
    let (s, cnt) = sample(|| {
        std::hint::black_box(f.agent.proto_action(&features));
    });
    out.push(("rl.proto_action_us", s * 1e6, cnt));
    let proto = f.agent.proto_action(&features);
    let mut cands = Vec::new();
    let (s, cnt) = sample(|| {
        f.mapper.nearest_into(&proto, k, &mut cands);
        std::hint::black_box(&cands);
    });
    out.push(("rl.mapper_knn_us", s * 1e6, cnt));
    let (s, cnt) = sample(|| {
        std::hint::black_box(f.agent.select_action_with_extras(
            &features,
            &mut f.mapper,
            0.0,
            &mut f.rng,
            f.elites.clone(),
        ));
    });
    out.push(("rl.select_action_us", s * 1e6, cnt));
    let mut act = ActScratch::default();
    let (s, cnt) = sample(|| {
        std::hint::black_box(f.agent.select_action_into(
            &features,
            &mut f.mapper,
            0.0,
            &mut f.rng,
            &mut act,
        ));
    });
    out.push(("rl.select_action_sparse_us", s * 1e6, cnt));

    // miqp: the flat K-best enumeration on the actor's cost matrix.
    let costs = CostMatrix::from_proto_action(&proto, n, m);
    let sorted = costs.sorted_columns();
    let (mut ws, mut sols) = (KBestWorkspace::default(), Vec::new());
    let (s, cnt) = sample(|| {
        k_best_assignments_into(&costs, k, &sorted, &mut ws, &mut sols);
        std::hint::black_box(&sols);
    });
    out.push(("miqp.kbest_us", s * 1e6, cnt));

    // core::state: featurization of (assignment, workload).
    let assignment = f.sc.initial_assignment();
    let mut buf = Vec::new();
    let (s, cnt) = sample(|| {
        featurize_into(&assignment, &f.sc.app.workload, f.cfg.rate_scale, &mut buf);
        std::hint::black_box(&buf);
    });
    out.push(("core.featurize_us", s * 1e6, cnt));

    // rl: serialization (sizes are exact counts).
    let mut bytes = 0;
    let (s, cnt) = sample(|| bytes = std::hint::black_box(f.agent.save_policy()).len());
    out.push(("rl.save_policy_us", s * 1e6, cnt));
    out.push(("rl.policy_bytes", bytes as f64, 1));
    let (s, cnt) = sample(|| bytes = std::hint::black_box(f.agent.save_state()).len());
    out.push(("rl.save_state_ms", s * 1e3, cnt));
    out.push(("rl.state_bytes", bytes as f64, 1));

    // rl: learning. Mutates the private agent, so these come last.
    let (s, cnt) = sample(|| {
        std::hint::black_box(f.agent.train_step(&mut f.mapper, &mut f.rng));
    });
    out.push(("rl.train_step_ms", s * 1e3, cnt));
    let (s, cnt) = sample_with(
        || t0.clone(),
        |t| {
            f.agent.store(t);
        },
    );
    out.push(("rl.replay_push_ns", s * 1e9, cnt));
}

/// `sim.analytic_eval_us`: one steady-state evaluation.
pub fn analytic_probe(f: &Fixture, out: &mut Readings) {
    let mut model = AnalyticModel::new(
        f.sc.app.topology.clone(),
        f.sc.cluster.clone(),
        SimConfig::steady_state(f.cfg.seed),
    )
    .expect("registry scenarios are valid")
    .with_noise(f.cfg.measurement_noise);
    let assignment = f.sc.initial_assignment();
    let (s, cnt) = sample(|| {
        std::hint::black_box(model.evaluate(&assignment, &f.sc.app.workload));
    });
    out.push(("sim.analytic_eval_us", s * 1e6, cnt));
}

/// `sim.engine_epoch_ms`, `sim.snapshot_*`: one decision epoch of the
/// tuple-level engine under the workload's epoch length, and its image.
pub fn engine_probes(f: &Fixture, out: &mut Readings) {
    let mut env = SimEnv::build(&f.sc, &f.cfg, f.cfg.seed);
    // Warm past the cold start.
    env.deploy_and_measure(&f.sc.initial_assignment(), &f.sc.app.workload);
    let epoch_s = env.epoch_s();
    let (s, cnt) = sample(|| {
        std::hint::black_box(env.engine_mut().step_epoch(epoch_s));
    });
    out.push(("sim.engine_epoch_ms", s * 1e3, cnt));
    let mut bytes = 0;
    let (s, cnt) = sample(|| bytes = std::hint::black_box(env.engine().save_state()).len());
    out.push(("sim.snapshot_us", s * 1e6, cnt));
    out.push(("sim.snapshot_bytes", bytes as f64, 1));
}

fn env_step_p50<E: Environment>(env: &mut E, f: &Fixture) -> (f64, usize) {
    let assignment = f.sc.initial_assignment();
    env.deploy_and_measure(&assignment, &f.sc.app.workload);
    sample(|| {
        std::hint::black_box(env.deploy_and_measure(&assignment, &f.sc.app.workload));
    })
}

/// Control-plane probes: `proto` control frames, `nimbus`, `coord`,
/// `store`, and the cluster-over-engine step overhead. `checkpoint_bytes`
/// sizes the blob write like the run's own checkpoints.
pub fn cluster_probes(f: &Fixture, checkpoint_bytes: u64, out: &mut Readings) {
    let dir = scratch_dir().join("probes");
    std::fs::create_dir_all(&dir).expect("probe directory inside the checkout");
    let initial = f.sc.initial_assignment();

    // core: the same scenario and seed, with and without the control
    // plane around the engine.
    let (sim, _) = env_step_p50(&mut SimEnv::build(&f.sc, &f.cfg, f.cfg.seed), f);
    let (cluster, cnt) = env_step_p50(&mut ClusterEnv::build(&f.sc, &f.cfg, f.cfg.seed), f);
    out.push(("core.cluster_overhead_ms", (cluster - sim) * 1e3, cnt));

    // proto: one scheduling-solution frame, encode + decode.
    let msg = Message::SchedulingSolution {
        epoch: 7,
        machine_of: initial.as_slice().to_vec(),
        n_machines: initial.n_machines(),
    };
    let (s, cnt) = sample_batched(16, || {
        let frame = encode_frame(&msg);
        std::hint::black_box(decode_frame(&frame).expect("own frame decodes"));
    });
    out.push(("proto.solution_frame_us", s * 1e6, cnt));
    out.push((
        "proto.solution_frame_bytes",
        encode_frame(&msg).len() as f64,
        1,
    ));

    // nimbus: one master epoch with no transport in the way.
    let coord = CoordService::new(CoordConfig {
        session_timeout_ms: 30_000,
    });
    let epoch_s = f.cfg.sim_epoch_s;
    let mut nimbus = Nimbus::launch(
        f.sc.sim_engine(f.cfg.seed),
        f.sc.app.workload.clone(),
        initial.clone(),
        &coord,
        NimbusConfig {
            measure: MeasureProtocol::epoch(epoch_s),
            heartbeat_interval_s: (epoch_s / 2.0).clamp(1e-3, 5.0),
            ..NimbusConfig::default()
        },
    )
    .expect("registry scenario launches");
    nimbus.measure_reward();
    let (s, cnt) = sample(|| {
        nimbus
            .apply_solution(initial.as_slice())
            .expect("valid solution");
        std::hint::black_box(nimbus.measure_reward());
    });
    out.push(("nimbus.epoch_ms", s * 1e3, cnt));

    // nimbus: one durable recovery-image commit (WAL append + fsync,
    // znode swap, WAL truncate).
    let image = RecoveryImage::capture(&nimbus, 0);
    let wal = dir.join("wal");
    std::fs::remove_dir_all(&wal).ok();
    let mut store = RecoveryStore::open(&wal).expect("WAL directory");
    let session = coord.connect();
    let (s, cnt) = sample(|| {
        store.commit(&session, &image).expect("image commit");
    });
    out.push(("nimbus.recovery_commit_ms", s * 1e3, cnt));
    out.push((
        "nimbus.recovery_image_bytes",
        image.encode().len() as f64,
        1,
    ));

    // coord: a versioned compare-and-set and a session heartbeat.
    let payload = vec![7u8; 64];
    let mut version = session
        .create("/ledger-probe", &payload, CreateMode::Persistent)
        .expect("probe znode")
        .version;
    let (s, cnt) = sample_batched(64, || {
        version = session
            .set_data("/ledger-probe", &payload, Some(version))
            .expect("uncontended CAS")
            .version;
    });
    out.push(("coord.cas_us", s * 1e6, cnt));
    let (s, cnt) = sample_batched(64, || {
        session.heartbeat().expect("live session");
    });
    out.push(("coord.heartbeat_us", s * 1e6, cnt));

    // store: a flush-only log append of one transition-sized record, and
    // an atomic (fsynced) blob write of one checkpoint-sized payload.
    let log_dir = dir.join("log");
    std::fs::remove_dir_all(&log_dir).ok();
    let mut log = Log::open(&log_dir, LogConfig::default()).expect("log directory");
    let record = vec![3u8; 1024];
    let (s, cnt) = sample_batched(16, || {
        log.append(&record).expect("log append");
    });
    out.push(("store.log_append_us", s * 1e6, cnt));
    let blob_payload = vec![5u8; checkpoint_bytes.max(1) as usize];
    let blob_path = dir.join("probe.blob");
    let (s, cnt) = sample(|| {
        blob::write_atomic(&blob_path, &blob_payload).expect("blob write");
    });
    out.push(("store.blob_write_ms", s * 1e3, cnt));
    std::fs::remove_dir_all(&dir).ok();
}

/// Training-service probes: parameter server, batch framing, learner
/// ingest/train, the bulk `proto` frames and a loopback TCP round trip.
pub fn trainer_probes(f: &mut Fixture, steps_per_round: usize, out: &mut Readings) {
    let (sd, ad) = (f.agent.state_dim(), f.agent.action_dim());
    let t0 = f.transitions[0].clone();

    // rl: the sharded replay the learner trains from.
    let sharded = ShardedReplayBuffer::<Elem>::new(1, 4096, sd, ad);
    let (s, cnt) = sample_batched(16, || {
        sharded.push_rows(0, &t0.state, &t0.action, t0.reward, &t0.next_state);
    });
    out.push(("rl.sharded_push_ns", s * 1e9, cnt));

    // trainer: parameter-server publish and pull.
    let ps = Arc::new(ParameterServer::new());
    let blob = f.agent.save_policy();
    let (s, cnt) = sample_with(
        || blob.clone(),
        |b| {
            ps.publish(b);
        },
    );
    out.push(("trainer.ps_publish_us", s * 1e6, cnt));
    let (s, cnt) = sample_batched(1024, || {
        std::hint::black_box(ps.pull_newer(0));
    });
    out.push(("trainer.ps_pull_ns", s * 1e9, cnt));

    // trainer + proto: one worker batch, to its message and through the
    // codec; the weights frame likewise.
    let mut batch = TransitionRows::new(1, sd, ad);
    for t in f.transitions.iter().take(steps_per_round) {
        batch.push_row(&t.state, &t.action, f64::from(t.reward), &t.next_state);
    }
    let (s, cnt) = sample(|| {
        std::hint::black_box(batch.to_message());
    });
    out.push(("trainer.rows_to_message_us", s * 1e6, cnt));
    let round_trip = |msg: &Message| {
        let frame = encode_frame(msg);
        std::hint::black_box(decode_frame(&frame).expect("own frame decodes"));
    };
    let batch_msg = batch.to_message();
    let (s, cnt) = sample(|| round_trip(&batch_msg));
    out.push(("proto.batch_frame_ms", s * 1e3, cnt));
    out.push((
        "proto.batch_frame_bytes",
        encode_frame(&batch_msg).len() as f64,
        1,
    ));
    let weights_msg = Message::WeightsReport {
        version: 1,
        blob: blob.clone(),
    };
    let (s, cnt) = sample(|| round_trip(&weights_msg));
    out.push(("proto.weights_frame_ms", s * 1e3, cnt));

    // trainer: learner ingest and one continuous-training step.
    let replay = Arc::new(ShardedReplayBuffer::<Elem>::new(1, 4096, sd, ad));
    let mut learner = Learner::new(
        &f.cfg,
        f.sc.n_executors(),
        f.sc.n_machines(),
        f.sc.n_sources(),
        replay,
        Arc::clone(&ps),
        Arc::new(SharedStats::new()),
        u64::MAX,
        4,
    );
    let (s, cnt) = sample(|| {
        std::hint::black_box(learner.ingest(&batch));
    });
    out.push(("trainer.ingest_us", s * 1e6, cnt));
    let (s, cnt) = sample(|| {
        std::hint::black_box(learner.train_once());
    });
    out.push(("trainer.train_once_ms", s * 1e3, cnt));

    // proto: a small frame there and back over loopback TCP.
    let (listener, addr) = TcpTransport::listen_localhost().expect("loopback listener");
    let echo = std::thread::spawn(move || {
        let server = TcpTransport::accept(&listener).expect("loopback accept");
        while let Ok(msg) = server.recv() {
            if matches!(msg, Message::Bye) || server.send(&msg).is_err() {
                break;
            }
        }
    });
    let client = TcpTransport::connect(addr).expect("loopback connect");
    let ping = Message::Heartbeat { now_ms: 1 };
    let (s, cnt) = sample(|| {
        client.send(&ping).expect("loopback send");
        std::hint::black_box(client.recv().expect("loopback echo"));
    });
    out.push(("proto.tcp_rtt_us", s * 1e6, cnt));
    client.send(&Message::Bye).expect("loopback goodbye");
    echo.join().expect("echo thread");
}
