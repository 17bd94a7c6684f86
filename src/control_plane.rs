//! The integrated control plane: the paper's Figure 1, end to end.
//!
//! Every component of the paper's architecture runs here as a separate
//! piece connected by the real substrates, rather than as function calls
//! inside one loop:
//!
//! ```text
//!    agent thread (this thread)          cluster thread
//!   ┌───────────────────────────┐       ┌─────────────────────────────┐
//!   │ any dss-core Scheduler    │ socket│ Nimbus (dss-nimbus)         │
//!   │ + AgentClient (dss-proto) │◄─────►│ + custom scheduler endpoint │
//!   │ + TransitionDb (dss-store)│frames │ + SimEngine (dss-sim)       │
//!   └───────────────────────────┘       │ + SupervisorSet heartbeats  │
//!                                       │ + CoordService (dss-coord)  │
//!                                       └─────────────────────────────┘
//! ```
//!
//! Per decision epoch, over the same ack'd request/response exchange
//! `dss-core`'s `ClusterEnv` speaks (`AgentClient::reliable_*` against
//! `Nimbus::serve_step`): the agent fetches the state `s = (X, w)` from the
//! custom scheduler; the agent's scheduler proposes a solution; Nimbus
//! deploys it minimally (only moved executors), waits for the system to
//! re-stabilize, measures the average tuple processing time with the
//! paper's 5×10 s protocol, and answers with it; the agent converts it to
//! a reward, lets the scheduler learn, and appends the `(s, a, r, s')`
//! sample to the durable transition database.
//!
//! Optionally, a machine crash is injected at a chosen epoch: its
//! supervisor goes silent, its coordination session expires on the
//! simulated clock, and Nimbus reschedules the stranded executors before
//! serving the next epoch (paper §2.1's failure handling).

use std::path::PathBuf;
use std::time::Duration;

use dss_coord::{CoordConfig, CoordService};
use dss_core::{RewardScale, SchedState, Scheduler};
use dss_nimbus::{
    AgentClient, MeasureProtocol, Nimbus, NimbusConfig, NimbusError, RetryPolicy, ServeStep,
    SupervisorSet,
};
use dss_proto::{ChannelTransport, Message, TcpTransport, Transport};
use dss_sim::{Assignment, ClusterSpec, SimConfig, SimEngine, Topology, Workload};
use dss_store::{StoreError, TransitionDb, TransitionRecord};

/// Configuration of an integrated control-plane run.
#[derive(Debug, Clone)]
pub struct ControlPlaneConfig {
    /// Decision epochs to serve.
    pub epochs: usize,
    /// Post-deployment stabilization wait (simulated seconds).
    pub stabilize_s: f64,
    /// Coordination session timeout (simulated milliseconds).
    pub session_timeout_ms: u64,
    /// Use a real localhost TCP socket (as deployed in the paper) instead
    /// of an in-process channel pair.
    pub use_tcp: bool,
    /// Where the transition database lives; `None` uses a fresh temp dir.
    pub db_dir: Option<PathBuf>,
    /// Latency-to-reward conversion.
    pub reward: RewardScale,
    /// Inject a machine crash: `(epoch, machine)` — the machine's
    /// supervisor goes silent just before that epoch is served.
    pub crash_machine_at: Option<(usize, usize)>,
}

impl Default for ControlPlaneConfig {
    fn default() -> Self {
        ControlPlaneConfig {
            epochs: 10,
            stabilize_s: 60.0,
            session_timeout_ms: 30_000,
            use_tcp: false,
            db_dir: None,
            reward: RewardScale::default(),
            crash_machine_at: None,
        }
    }
}

/// Outcome of a control-plane run.
#[derive(Debug)]
pub struct ControlPlaneReport {
    /// Measured average tuple processing time per epoch (ms).
    pub epoch_latency_ms: Vec<f64>,
    /// Transitions persisted to the database.
    pub transitions_stored: u64,
    /// Failure repairs Nimbus performed.
    pub repairs: usize,
    /// Final deployed assignment.
    pub final_assignment: Vec<usize>,
    /// Peer identification exchanged in the handshake.
    pub scheduler_ident: String,
    /// Directory holding the transition database.
    pub db_dir: PathBuf,
}

/// Control-plane error: any substrate can fail.
#[derive(Debug)]
pub enum ControlPlaneError {
    /// Master/protocol/simulator failure.
    Nimbus(NimbusError),
    /// Transition database failure.
    Store(StoreError),
    /// Simulator construction failure.
    Sim(dss_sim::SimError),
    /// The cluster thread panicked.
    ClusterThreadPanicked,
}

impl std::fmt::Display for ControlPlaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlPlaneError::Nimbus(e) => write!(f, "nimbus: {e}"),
            ControlPlaneError::Store(e) => write!(f, "store: {e}"),
            ControlPlaneError::Sim(e) => write!(f, "sim: {e}"),
            ControlPlaneError::ClusterThreadPanicked => write!(f, "cluster thread panicked"),
        }
    }
}

impl std::error::Error for ControlPlaneError {}

impl From<NimbusError> for ControlPlaneError {
    fn from(e: NimbusError) -> Self {
        ControlPlaneError::Nimbus(e)
    }
}

impl From<StoreError> for ControlPlaneError {
    fn from(e: StoreError) -> Self {
        ControlPlaneError::Store(e)
    }
}

impl From<dss_sim::SimError> for ControlPlaneError {
    fn from(e: dss_sim::SimError) -> Self {
        ControlPlaneError::Sim(e)
    }
}

struct ClusterOutcome {
    repairs: usize,
    final_assignment: Vec<usize>,
}

/// Run the full Figure-1 control plane for `config.epochs` epochs with the
/// given scheduler as the DRL agent's policy.
pub fn run_control_plane(
    topology: Topology,
    cluster: ClusterSpec,
    workload: Workload,
    sim_config: SimConfig,
    scheduler: &mut dyn Scheduler,
    config: &ControlPlaneConfig,
) -> Result<ControlPlaneReport, ControlPlaneError> {
    let coord = CoordService::new(CoordConfig {
        session_timeout_ms: config.session_timeout_ms,
    });
    let initial = Assignment::round_robin(&topology, &cluster);
    let engine = SimEngine::new(
        topology.clone(),
        cluster.clone(),
        workload.clone(),
        sim_config,
    )?;
    let mut nimbus = Nimbus::launch(
        engine,
        workload.clone(),
        initial,
        &coord,
        NimbusConfig {
            measure: MeasureProtocol::paper(config.stabilize_s),
            ident: "dss-nimbus/0.1".into(),
            heartbeat_interval_s: (config.session_timeout_ms as f64 / 1000.0 / 4.0).max(1.0),
            auto_repair: false,
            retry: RetryPolicy::default(),
        },
    )?;
    let supervisors = SupervisorSet::register(&coord, cluster.n_machines())
        .map_err(|e| ControlPlaneError::Nimbus(NimbusError::Coord(e)))?;
    nimbus.attach_supervisors(supervisors);

    let db_dir = config.db_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "dss-control-plane-{}-{}",
            std::process::id(),
            topology.name()
        ))
    });
    let db = TransitionDb::open(&db_dir)?;

    if config.use_tcp {
        let (listener, addr) = TcpTransport::listen_localhost().map_err(NimbusError::Proto)?;
        let cluster_thread = spawn_cluster(nimbus, config, move || {
            TcpTransport::accept(&listener).map_err(NimbusError::Proto)
        });
        let transport = TcpTransport::connect(addr).map_err(NimbusError::Proto)?;
        drive_agent(
            transport,
            scheduler,
            &topology,
            config,
            &db,
            db_dir,
            cluster_thread,
        )
    } else {
        let (agent_side, cluster_side) = ChannelTransport::pair();
        let cluster_thread = spawn_cluster(nimbus, config, move || Ok(cluster_side));
        drive_agent(
            agent_side,
            scheduler,
            &topology,
            config,
            &db,
            db_dir,
            cluster_thread,
        )
    }
}

/// How long the cluster thread waits for a request before looking again.
const SERVE_WAIT: Duration = Duration::from_millis(20);

/// Spawn the cluster thread: handshake, then serve epochs, crashing and
/// repairing machines as configured.
fn spawn_cluster<F, T>(
    mut nimbus: Nimbus,
    config: &ControlPlaneConfig,
    make_transport: F,
) -> std::thread::JoinHandle<Result<ClusterOutcome, NimbusError>>
where
    T: Transport,
    F: FnOnce() -> Result<T, NimbusError> + Send + 'static,
{
    let epochs = config.epochs;
    let crash_at = config.crash_machine_at;
    std::thread::spawn(move || {
        let transport = make_transport()?;
        nimbus.handshake(&transport)?;
        let mut repairs = 0usize;
        'epochs: for epoch in 0..epochs {
            if let Some((e, m)) = crash_at {
                if e == epoch {
                    nimbus.crash_machine(m);
                }
            }
            if nimbus.detect_and_repair()?.is_some() {
                repairs += 1;
            }
            // One epoch is served once a solution has been accepted.
            let serving = nimbus.epoch();
            while nimbus.epoch() == serving {
                if nimbus.serve_step(&transport, SERVE_WAIT)? == ServeStep::Goodbye {
                    break 'epochs;
                }
            }
        }
        let _ = transport.send(&Message::Bye);
        Ok(ClusterOutcome {
            repairs,
            final_assignment: nimbus.engine().assignment().as_slice().to_vec(),
        })
    })
}

/// Drive the agent side: decide, learn, persist, for every epoch.
fn drive_agent<T: Transport>(
    transport: T,
    scheduler: &mut dyn Scheduler,
    topology: &Topology,
    config: &ControlPlaneConfig,
    db: &TransitionDb,
    db_dir: PathBuf,
    cluster_thread: std::thread::JoinHandle<Result<ClusterOutcome, NimbusError>>,
) -> Result<ControlPlaneReport, ControlPlaneError> {
    let mut agent = AgentClient::new(transport, "dss-agent/0.1");
    let scheduler_ident = agent.handshake()?;
    let policy = RetryPolicy::default();
    let mut epoch_latency_ms = Vec::with_capacity(config.epochs);

    for _ in 0..config.epochs {
        let view = match agent.reliable_fetch_state(&policy, || {}) {
            Ok(view) => view,
            // The scheduler side shut down early; its own result, joined
            // below, says why.
            Err(NimbusError::Unreachable { .. }) => break,
            Err(e) => return Err(e.into()),
        };
        let assignment = Assignment::new(view.machine_of, view.n_machines)
            .expect("scheduler sent a valid assignment");
        let rates: Vec<(usize, f64)> = view
            .source_rates
            .iter()
            .map(|&(c, r)| (c as usize, r))
            .collect();
        let workload =
            Workload::new(rates, topology).expect("scheduler reported rates for valid components");
        let state = SchedState::new(assignment, workload);
        let action = scheduler.schedule(&state);
        let solution = action.as_slice().to_vec();
        let reward_view =
            match agent.reliable_solution(view.epoch, solution, view.n_machines, &policy, || {}) {
                Ok(reward) => reward,
                Err(NimbusError::Unreachable { .. }) => break,
                Err(e) => return Err(e.into()),
            };
        let avg_ms = reward_view.avg_tuple_ms;
        epoch_latency_ms.push(avg_ms);

        // Learn, exactly as Algorithm 1's online loop does.
        let r = config.reward.reward(avg_ms);
        let next_state = SchedState::new(action.clone(), state.workload.clone());
        scheduler.observe(&state, &action, r, &next_state);

        // Persist the sample in the Figure-1 database.
        db.append(&TransitionRecord {
            epoch: reward_view.epoch,
            machine_of: state.assignment.as_slice().to_vec(),
            n_machines: state.assignment.n_machines(),
            source_rates: state
                .workload
                .rates()
                .iter()
                .map(|&(c, rate)| (c as u32, rate))
                .collect(),
            action_machine_of: action.as_slice().to_vec(),
            reward: r,
            next_machine_of: action.as_slice().to_vec(),
            next_source_rates: state
                .workload
                .rates()
                .iter()
                .map(|&(c, rate)| (c as u32, rate))
                .collect(),
        })?;
    }
    // The cluster side may already have said Bye and dropped its
    // transport; a missing peer during orderly shutdown is not an error.
    let _ = agent.bye();

    let cluster = cluster_thread
        .join()
        .map_err(|_| ControlPlaneError::ClusterThreadPanicked)??;
    Ok(ControlPlaneReport {
        epoch_latency_ms,
        transitions_stored: db.len(),
        repairs: cluster.repairs,
        final_assignment: cluster.final_assignment,
        scheduler_ident,
        db_dir,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_core::RoundRobinScheduler;
    use dss_sim::{Grouping, TopologyBuilder};

    fn small_setup() -> (Topology, ClusterSpec, Workload) {
        let mut b = TopologyBuilder::new("cp-test");
        let s = b.spout("s", 2, 0.05);
        let x = b.bolt("x", 4, 0.3);
        b.edge(s, x, Grouping::Shuffle, 1.0, 128);
        let topology = b.build().unwrap();
        let cluster = ClusterSpec::homogeneous(4);
        let workload = Workload::uniform(&topology, 40.0);
        (topology, cluster, workload)
    }

    fn fresh_db_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dss-cp-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn channel_control_plane_runs_epochs_and_persists() {
        let (topology, cluster, workload) = small_setup();
        let mut sched = RoundRobinScheduler::new(&topology, &cluster);
        let db_dir = fresh_db_dir("chan");
        let report = run_control_plane(
            topology,
            cluster,
            workload,
            SimConfig::default(),
            &mut sched,
            &ControlPlaneConfig {
                epochs: 3,
                stabilize_s: 5.0,
                db_dir: Some(db_dir.clone()),
                ..ControlPlaneConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.epoch_latency_ms.len(), 3);
        assert!(report.epoch_latency_ms.iter().all(|&ms| ms > 0.0));
        assert_eq!(report.transitions_stored, 3);
        assert_eq!(report.repairs, 0);
        // The database is readable after the run.
        let db = TransitionDb::open(&db_dir).unwrap();
        assert_eq!(db.scan().unwrap().len(), 3);
        std::fs::remove_dir_all(&db_dir).ok();
    }

    #[test]
    fn tcp_control_plane_matches_channel_behaviour() {
        let (topology, cluster, workload) = small_setup();
        let mut sched = RoundRobinScheduler::new(&topology, &cluster);
        let db_dir = fresh_db_dir("tcp");
        let report = run_control_plane(
            topology,
            cluster,
            workload,
            SimConfig::default(),
            &mut sched,
            &ControlPlaneConfig {
                epochs: 2,
                stabilize_s: 5.0,
                use_tcp: true,
                db_dir: Some(db_dir.clone()),
                ..ControlPlaneConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.epoch_latency_ms.len(), 2);
        assert_eq!(report.scheduler_ident, "dss-nimbus/0.1");
        std::fs::remove_dir_all(&db_dir).ok();
    }

    #[test]
    fn injected_crash_triggers_exactly_one_repair() {
        let (topology, cluster, workload) = small_setup();
        let mut sched = RoundRobinScheduler::new(&topology, &cluster);
        let db_dir = fresh_db_dir("crash");
        let report = run_control_plane(
            topology,
            cluster,
            workload,
            SimConfig::default(),
            &mut sched,
            &ControlPlaneConfig {
                epochs: 3,
                stabilize_s: 40.0, // one epoch outlasts the session timeout
                session_timeout_ms: 20_000,
                db_dir: Some(db_dir.clone()),
                crash_machine_at: Some((1, 2)),
                ..ControlPlaneConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.repairs, 1, "one crash, one repair");
        // Note: a round-robin agent will keep proposing machine 2; the
        // point here is that Nimbus detected the failure and repaired the
        // assignment when it happened.
        std::fs::remove_dir_all(&db_dir).ok();
    }
}
