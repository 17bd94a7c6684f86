//! The environment the controller drives.
//!
//! [`Environment`] is the **backend seam** of the whole control stack:
//! everything that trains or evaluates an agent — [`Controller`],
//! [`ParallelCollector`], the experiment runners — is generic over it, so
//! a scheduler trained against one backend runs unchanged against any
//! other. A backend is "a DSDPS you can deploy a scheduling solution on
//! and measure": it exposes the problem shape (`N` executors, `M`
//! machines) and one core operation, *deploy-and-measure* (apply an
//! assignment under a base workload, return the observed average tuple
//! processing time for one decision epoch).
//!
//! Three backends ship today:
//!
//! * [`AnalyticEnv`] — `dss-sim`'s fast steady-state evaluator (with
//!   optional measurement noise and an optional [`RateSchedule`]-driven
//!   virtual clock). Cheap enough for the paper's 10,000-sample offline
//!   phase and for large parallel actor fleets.
//! * [`SimEnv`] — the tuple-level discrete-event engine itself: each
//!   `deploy_and_measure` is a *minimal-impact re-deployment* (only moved
//!   executors pause, exactly like the paper's custom Storm scheduler),
//!   one decision epoch of simulated time, and a read of the
//!   sliding-window average tuple processing time. This is the
//!   high-fidelity backend: agents train against the same engine
//!   the figures are measured on.
//! * [`ClusterEnv`] — the Figure-1 control plane end to end: every
//!   `deploy_and_measure` is a full round trip over the framed socket
//!   protocol. The agent side ([`dss_nimbus::AgentClient`]) sends the
//!   action through the `dss-proto` codec; `Nimbus` validates it, stores
//!   the versioned assignment in the `dss-coord` coordination service,
//!   applies the minimal-impact re-deploy to its embedded [`SimEngine`],
//!   advances one decision epoch with supervisor daemons heartbeating,
//!   and reports the measured latency back. Machine-crash fault injection
//!   ([`FaultPlan`]) rides the same path: a crashed machine's supervisor
//!   session expires and the master's detect-and-repair reschedules the
//!   stranded executors, so recovery dynamics (paper Fig. 12-style
//!   transients) become trainable. With no faults injected, same-seed
//!   `ClusterEnv` and `SimEnv` trajectories are **bit-identical** — the
//!   transport adds protocol fidelity, not numeric drift.
//!
//! **Adding a backend** means: (1) implement the four `Environment`
//! methods — deploy the assignment, advance one decision epoch, return
//! the measured latency (plus `workload_multiplier` if the backend's
//! offered load varies on its own); (2) add a `Scenario::*_env`
//! constructor and (when actors can own private instances) a `*_fleet`
//! builder in [`crate::scenario`]; (3) add a `Backend` arm in
//! [`crate::experiment`] so `train_method_on` reaches it; (4) extend the
//! `smoke_backends` bench bin — CI's `backend-smoke` job then exercises
//! the new backend end to end. `ClusterEnv` is the worked example of the
//! recipe: it wires three whole crates behind the same four methods.
//!
//! [`Controller`]: crate::controller::Controller
//! [`ParallelCollector`]: crate::parallel::ParallelCollector

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

use dss_coord::{CoordConfig, CoordService};
use dss_nimbus::{
    AgentClient, FaultPlan, HaConfig, MeasureProtocol, Nimbus, NimbusConfig, NimbusError,
    NimbusSet, RetryPolicy, ServeStep, StateView, StatsView, SupervisorSet,
};
use dss_proto::{ChannelTransport, ChaosPlan, ChaosStats, MaybeChaos, TcpTransport};
use dss_sim::{AnalyticModel, Assignment, RateSchedule, RuntimeStats, SimEngine, Workload};

/// A DSDPS that can be scheduled and measured — the backend seam every
/// training and evaluation layer is generic over (see the module docs).
pub trait Environment {
    /// Number of executors `N`.
    fn n_executors(&self) -> usize;
    /// Number of machines `M`.
    fn n_machines(&self) -> usize;
    /// Deploys `assignment` under base `workload`; returns the measured
    /// average end-to-end tuple processing time in ms for one decision
    /// epoch. Backends with an internal [`RateSchedule`] apply their own
    /// multiplier on top of the base workload.
    fn deploy_and_measure(&mut self, assignment: &Assignment, workload: &Workload) -> f64;
    /// Like [`Environment::deploy_and_measure`] but with the detailed
    /// statistics the model-based baseline trains on.
    fn deploy_and_measure_stats(
        &mut self,
        assignment: &Assignment,
        workload: &Workload,
    ) -> (f64, RuntimeStats);
    /// The rate-schedule multiplier this backend currently applies to base
    /// workloads (1.0 for unscheduled backends). Schedule-aware training
    /// loops fold this into the observed workload so the agent's state
    /// sees the load it is actually being measured under.
    fn workload_multiplier(&self) -> f64 {
        1.0
    }

    /// A bit-exact image of the backend's full mutable state, for durable
    /// training checkpoints ([`crate::checkpoint`]). `None` means the
    /// backend cannot be captured directly (the analytic evaluator is
    /// cheap to replay; the control plane's engine lives behind the
    /// protocol, possibly in another thread) — crash recovery then
    /// *replays* the recorded trajectory against a same-seed environment
    /// instead, which reproduces the identical state because every
    /// backend is deterministic given its seeds.
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores a [`Environment::save_state`] image onto an environment
    /// built with the same topology, cluster and configuration. Backends
    /// that return `None` from `save_state` reject this.
    fn restore_state(&mut self, _image: &[u8]) -> Result<(), String> {
        Err("backend does not support direct state restore".into())
    }
}

/// A boxed backend is a backend, so code generic over `E: Environment`
/// also runs over one chosen at run time
/// ([`crate::scenario::Scenario::env`]).
impl<E: Environment + ?Sized> Environment for Box<E> {
    fn n_executors(&self) -> usize {
        (**self).n_executors()
    }

    fn n_machines(&self) -> usize {
        (**self).n_machines()
    }

    fn deploy_and_measure(&mut self, assignment: &Assignment, workload: &Workload) -> f64 {
        (**self).deploy_and_measure(assignment, workload)
    }

    fn deploy_and_measure_stats(
        &mut self,
        assignment: &Assignment,
        workload: &Workload,
    ) -> (f64, RuntimeStats) {
        (**self).deploy_and_measure_stats(assignment, workload)
    }

    fn workload_multiplier(&self) -> f64 {
        (**self).workload_multiplier()
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        (**self).save_state()
    }

    fn restore_state(&mut self, image: &[u8]) -> Result<(), String> {
        (**self).restore_state(image)
    }
}

/// Training environment over the analytic evaluator (with measurement
/// noise, mirroring the jitter of real 5×10 s measurements).
///
/// Optionally schedule-driven: [`AnalyticEnv::with_schedule`] attaches a
/// [`RateSchedule`] and a virtual clock that advances one decision epoch
/// per measurement, so the evaluator sees the same diurnal/bursty/step
/// load evolution the tuple-level engine would — the cheap half of
/// scenario-diverse training.
pub struct AnalyticEnv {
    model: AnalyticModel,
    schedule: Option<RateSchedule>,
    epoch_s: f64,
    clock: f64,
    /// Reused buffer for the schedule-scaled workload.
    scaled: Option<Workload>,
}

impl AnalyticEnv {
    /// Wraps an analytic model.
    pub fn new(model: AnalyticModel) -> Self {
        Self {
            model,
            schedule: None,
            epoch_s: 0.0,
            clock: 0.0,
            scaled: None,
        }
    }

    /// Attaches a workload multiplier schedule. Each `deploy_and_measure`
    /// evaluates under `base × schedule(t)` and then advances the virtual
    /// clock by `epoch_s` (the real-time length of a decision epoch).
    ///
    /// # Panics
    /// Panics when `epoch_s` is not positive.
    pub fn with_schedule(mut self, schedule: RateSchedule, epoch_s: f64) -> Self {
        assert!(epoch_s > 0.0, "epoch length must be positive");
        self.schedule = Some(schedule);
        self.epoch_s = epoch_s;
        self
    }

    /// The underlying model.
    pub fn model_mut(&mut self) -> &mut AnalyticModel {
        &mut self.model
    }

    /// Virtual time (s) under an attached schedule (0 without one).
    pub fn now(&self) -> f64 {
        self.clock
    }
}

impl Environment for AnalyticEnv {
    fn n_executors(&self) -> usize {
        self.model.topology().n_executors()
    }

    fn n_machines(&self) -> usize {
        self.model.cluster().n_machines()
    }

    fn deploy_and_measure(&mut self, assignment: &Assignment, workload: &Workload) -> f64 {
        self.deploy_and_measure_stats(assignment, workload).0
    }

    fn deploy_and_measure_stats(
        &mut self,
        assignment: &Assignment,
        workload: &Workload,
    ) -> (f64, RuntimeStats) {
        match &self.schedule {
            None => self.model.evaluate_with_stats(assignment, workload),
            Some(s) => {
                let mult = s.multiplier_at(self.clock);
                let scaled = self.scaled.get_or_insert_with(|| workload.clone());
                scaled.copy_scaled_from(workload, mult);
                let out = self.model.evaluate_with_stats(assignment, scaled);
                self.clock += self.epoch_s;
                out
            }
        }
    }

    fn workload_multiplier(&self) -> f64 {
        self.schedule
            .as_ref()
            .map_or(1.0, |s| s.multiplier_at(self.clock))
    }
}

/// Latency reported when the engine's sliding window is still empty after
/// the catch-up epochs — only reachable when the system is so stalled (or
/// the workload so tiny) that *no* tuple tree completed in several epochs;
/// a pessimistic constant keeps the reward signal well-defined and
/// strongly negative there. Shared by [`SimEnv`] and [`ClusterEnv`] (the
/// control plane reports an empty measurement set; the agent side maps it
/// to this penalty), so the two backends stay reward-identical.
pub const EMPTY_WINDOW_PENALTY_MS: f64 = 10_000.0;

/// High-fidelity training environment over the tuple-level discrete-event
/// engine ([`SimEngine`]).
///
/// One [`Environment::deploy_and_measure`] call is one decision epoch of
/// Algorithm 1 against the *running* system, exactly as the paper's agent
/// experiences Storm:
///
/// 1. the assignment is applied as a **minimal-impact re-deployment**
///    (only executors whose machine changed pause and restart warm-up;
///    the first call starts the topology);
/// 2. the event loop advances `epoch_s` simulated seconds
///    ([`SimEngine::step_epoch`]) — tuples keep flowing through the
///    migration transient;
/// 3. the sliding-window average tuple processing time at the new clock is
///    the measurement (so the agent pays for the latency spikes its own
///    re-deployments cause — the dynamics the analytic evaluator cannot
///    show).
///
/// Right after a cold start the window can be empty (nothing completed
/// yet); the *first* measurement steps up to [`SimEnv::catchup_epochs`]
/// extra epochs before falling back to a large penalty value. A warm-run
/// empty window (total stall under a bad assignment) earns the penalty
/// after a single epoch — decision cadence never degrades mid-run.
///
/// A changed base `workload` argument is forwarded to the engine mid-run
/// ([`SimEngine::set_workload`]); an attached [`RateSchedule`] (set on the
/// engine, see [`crate::scenario`]) additionally modulates the offered
/// load over simulated time and is surfaced through
/// [`Environment::workload_multiplier`].
pub struct SimEnv {
    engine: SimEngine,
    epoch_s: f64,
    catchup_epochs: usize,
    /// Whether this env has issued its first deploy (the engine may also
    /// have been started by whoever handed it in).
    deployed_once: bool,
    /// Whether the first measurement (with cold-start catch-up) happened.
    measured_once: bool,
}

impl SimEnv {
    /// Wraps an engine; decisions advance it `epoch_s` simulated seconds
    /// each. The engine may be fresh or already running (hot-swapping a
    /// controller onto a live system).
    ///
    /// # Panics
    /// Panics when `epoch_s` is not positive.
    pub fn new(engine: SimEngine, epoch_s: f64) -> Self {
        assert!(epoch_s > 0.0, "epoch length must be positive");
        Self {
            engine,
            epoch_s,
            catchup_epochs: 8,
            deployed_once: false,
            measured_once: false,
        }
    }

    /// The decision-epoch length in simulated seconds.
    pub fn epoch_s(&self) -> f64 {
        self.epoch_s
    }

    /// Extra epochs the *first* measurement steps while the latency
    /// window is still empty after a cold start (default 8).
    pub fn catchup_epochs(&self) -> usize {
        self.catchup_epochs
    }

    /// The wrapped engine (read access: clocks, counts, schedules).
    pub fn engine(&self) -> &SimEngine {
        &self.engine
    }

    /// The wrapped engine (mutable: fault injection, schedule changes).
    pub fn engine_mut(&mut self) -> &mut SimEngine {
        &mut self.engine
    }

    fn measure_epoch(&mut self, assignment: &Assignment, workload: &Workload) -> f64 {
        if self.engine.workload() != workload {
            self.engine.set_workload(workload.clone());
        }
        // Re-deploy only on change: the first call must always go through
        // (it starts the topology), but a repeated assignment afterwards
        // is a no-op move set — skipping it keeps a warm rollout step
        // free of the per-epoch Assignment clone.
        if !self.deployed_once || self.engine.assignment() != assignment {
            self.engine
                .deploy(assignment.clone())
                .expect("assignment valid for this environment's topology/cluster");
            self.deployed_once = true;
        }
        let mut ms = self.engine.step_epoch(self.epoch_s);
        // Catch-up applies to the COLD START only: before the first
        // measurement, nothing may have completed yet through no fault of
        // the assignment. A warm-run empty window is the assignment's
        // fault (total stall) and earns the penalty after one epoch —
        // extra epochs here would silently slow the decision cadence
        // exactly during overload.
        if !self.measured_once {
            let mut catchup = 0;
            while ms.is_none() && catchup < self.catchup_epochs {
                ms = self.engine.step_epoch(self.epoch_s);
                catchup += 1;
            }
        }
        self.measured_once = true;
        ms.unwrap_or(EMPTY_WINDOW_PENALTY_MS)
    }
}

impl Environment for SimEnv {
    fn n_executors(&self) -> usize {
        self.engine.topology().n_executors()
    }

    fn n_machines(&self) -> usize {
        self.engine.cluster().n_machines()
    }

    fn deploy_and_measure(&mut self, assignment: &Assignment, workload: &Workload) -> f64 {
        self.measure_epoch(assignment, workload)
    }

    fn deploy_and_measure_stats(
        &mut self,
        assignment: &Assignment,
        workload: &Workload,
    ) -> (f64, RuntimeStats) {
        let ms = self.measure_epoch(assignment, workload);
        (ms, self.engine.stats())
    }

    fn workload_multiplier(&self) -> f64 {
        self.engine.rate_schedule().multiplier_at(self.engine.now())
    }

    /// Direct capture: the engine's own bit-exact snapshot (clock, event
    /// queue, RNG streams, latency window — see `dss_sim::snapshot`) plus
    /// the env's two lifecycle flags.
    fn save_state(&self) -> Option<Vec<u8>> {
        let mut buf = vec![self.deployed_once as u8, self.measured_once as u8];
        buf.extend_from_slice(&self.engine.save_state());
        Some(buf)
    }

    fn restore_state(&mut self, image: &[u8]) -> Result<(), String> {
        let [deployed, measured, rest @ ..] = image else {
            return Err("truncated SimEnv image".into());
        };
        if *deployed > 1 || *measured > 1 {
            return Err("invalid SimEnv lifecycle flags".into());
        }
        self.engine.restore_state(rest).map_err(|e| e.to_string())?;
        self.deployed_once = *deployed != 0;
        self.measured_once = *measured != 0;
        Ok(())
    }
}

/// How a [`ClusterEnv`] connects its agent half to its master half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterTransport {
    /// Synchronous in-process pairing: master and agent share this thread
    /// over a [`ChannelTransport`] pair. Frames are still encoded and
    /// checksummed; nothing ever blocks (the env interleaves the two
    /// sides' turns), so parallel-actor fleets can own one private
    /// cluster each without spawning threads.
    Channel,
    /// True process separation: the master serves epochs from its own
    /// thread behind a loopback TCP socket, exactly as the paper deploys
    /// the agent outside the DSDPS.
    Tcp,
}

/// Training environment over the full Figure-1 control plane: an
/// in-process Storm-like cluster (`dss-nimbus` master + supervisor
/// daemons + `dss-coord` coordination + embedded [`SimEngine`]) driven by
/// the agent half of the socket protocol (`dss-proto` framed codec).
///
/// One [`Environment::deploy_and_measure`] is one protocol epoch, and the
/// agent initiates every move of it as an ack'd request
/// ([`dss_nimbus::AgentClient::reliable_call`]: sequence-numbered,
/// retransmitted under a [`RetryPolicy`], applied at most once by the
/// master) — over both transports, on a clean link and a faulty one alike:
///
/// 1. a changed base workload goes out as a `WorkloadUpdate`, then the
///    assignment as a `SchedulingSolution` echoing the epoch of the state
///    report in hand;
/// 2. Nimbus validates the solution, CAS-updates the versioned assignment
///    znode, applies the minimal-impact re-deploy to the engine, advances
///    one decision epoch of simulated time (supervisors heartbeating,
///    scheduled [`FaultPlan`] events firing at their exact instants), and
///    answers with the sliding-window latency as a `RewardReport`; the
///    agent maps an empty measurement set to [`EMPTY_WINDOW_PENALTY_MS`] —
///    the same penalty [`SimEnv`] applies;
/// 3. a `StatsRequest` follows when the caller wants the statistics;
/// 4. a `StateRequest` fetches the scheduler's `StateReport` (assignment,
///    base rates, current schedule multiplier) — the *next* epoch's fetch,
///    issued eagerly so [`Environment::workload_multiplier`] and
///    [`ClusterEnv::reported_assignment`] describe the cluster after the
///    epoch just measured, as [`SimEnv`] has them. The launch fetches the
///    first report the same way.
///
/// The cluster launches lazily on the first call (the first assignment
/// *starts* the topology, exactly like [`SimEnv`]'s cold start), so with
/// no faults injected a same-seed `ClusterEnv` and `SimEnv` trace
/// bit-identical latency trajectories — asserted by the cross-backend
/// tests. Failure handling is automatic by default: a crashed machine's
/// supervisor session expires on the simulated clock and the master
/// repairs the assignment before reporting the next state (a fully dead
/// cluster keeps serving penalty-latency epochs until a restart event
/// revives a machine).
///
/// # Failure model
///
/// The control-plane link itself can be made unreliable with
/// [`ClusterEnv::with_chaos_plan`]: the agent's transport is wrapped in
/// `dss-proto`'s `ChaosTransport`, which injects seeded, deterministic
/// drop/corrupt/duplicate/delay faults (and optional epoch-windowed full
/// partitions) into both directions. Retransmits and the master's
/// idempotent replay absorb ordinary fault rates transparently. When a
/// request's retry budget is exhausted (e.g. mid-partition), the env
/// **degrades instead of hanging**: it reports the shared
/// [`EMPTY_WINDOW_PENALTY_MS`] for that epoch, holds the last deployed
/// assignment (the cluster keeps running it; simulated time does not
/// advance, because no solution was delivered), and records a typed
/// [`DegradedReason`] — see [`ClusterEnv::degraded_epochs`] /
/// [`ClusterEnv::last_degraded`]. A state fetch that fails is not retried
/// at once: the epoch it was for degrades on the held error, without
/// sending anything first. Every degraded epoch ends with a fresh fetch,
/// which re-syncs the env once the network has healed. A solution the
/// master rejects degrades the same way ([`DegradedReason::Protocol`]).
/// With no chaos plan the wrapper is a pure passthrough and every clean
/// guarantee above (bit-identical parity with [`SimEnv`]) holds unchanged.
///
/// **Master faults.** The master itself is a leader-elected pool
/// ([`dss_nimbus::NimbusSet`]), and scripted `FaultKind::MasterCrash` /
/// `MasterRestart` events in the [`FaultPlan`] kill and revive its leader
/// at exact simulated times. A crash with a standby configured
/// ([`ClusterEnv::with_standbys`]) fails over *synchronously* at the
/// request boundary: the standby wins the election after session expiry,
/// rebuilds an identical master from the newest recovery image (same
/// engine clock/RNG, same duplicate-suppression window), and the epoch
/// completes with the same measurement the uninterrupted run would
/// report — master death becomes invisible to the trajectory. With *no*
/// standby the set goes leaderless: the failing request burns its retry
/// budget into the dark window and its epoch degrades, the env then
/// probes the link with a `Resume` frame, and when the probe reaches a
/// revived master whose announced generation advanced, the epoch is
/// recorded as [`DegradedReason::Failover`] (see
/// [`ClusterEnv::failovers`] / [`ClusterEnv::master_generation`]).
///
/// **Who serves.** When a chaos plan is installed or the fault plan
/// schedules master events, requests are served through the pool
/// (`NimbusSet::serve_step`), which fires the scripted master faults and
/// commits a durable recovery image (fsynced WAL → versioned coordination
/// znode) after every state-changing request; otherwise the pool's leader
/// serves them directly (`Nimbus::serve_step`), because no master can die
/// and the commits' fsyncs would roughly double a small scenario's epoch
/// (14–20 ms against 8.7 ms per 10 s `cq-small-steady` epoch).
pub struct ClusterEnv {
    n_executors: usize,
    n_machines: usize,
    epoch_s: f64,
    catchup_epochs: usize,
    heartbeat_interval_s: f64,
    session_timeout_ms: u64,
    /// Whether the session timeout was set explicitly (otherwise it
    /// re-derives from the heartbeat interval when that changes).
    session_timeout_overridden: bool,
    auto_repair: bool,
    transport: ClusterTransport,
    fault_plan: Option<FaultPlan>,
    /// Network-fault injection plan for the agent's end of the link.
    chaos: Option<ChaosPlan>,
    /// Retry knobs of the exchange (`None`: a transport-suited default —
    /// synchronous for the channel pairing, timed for TCP).
    retry: Option<RetryPolicy>,
    /// Decision epochs attempted so far (indexes the partition window).
    steps: u64,
    /// Epochs that ended degraded (penalty reported, assignment held).
    degraded: u64,
    /// Why the most recent epoch degraded (`None`: it completed).
    last_degraded: Option<DegradedReason>,
    /// Latest schedule multiplier reported by the master (pre-launch: the
    /// engine's schedule at its current clock).
    multiplier: f64,
    /// Base workload last sent to the master.
    base: Option<Workload>,
    /// Last state report fetched: the one the next solution answers,
    /// unless `fetch_error` says the fetch for it failed (it then still
    /// describes what the cluster runs through the degraded stretch).
    state: Option<StateView>,
    /// Why the fetch of the next epoch's state failed; that epoch
    /// degrades on it.
    fetch_error: Option<NimbusError>,
    /// Standby masters launched alongside the leader (failover pool).
    standbys: usize,
    /// Whether the installed fault plan schedules master crash/restart
    /// events (set at launch; like a chaos plan it selects the pool as
    /// the server, and it gates the post-degraded resume probe).
    master_faults: bool,
    /// Last master generation observed through a `Resume` probe.
    generation: u64,
    /// Failovers observed through generation bumps (the TCP-side count;
    /// over the channel transport [`ClusterEnv::failovers`] reads the
    /// pool's own counter instead).
    failovers_seen: u64,
    /// Recovery-WAL directory (created at launch, removed on drop).
    wal_dir: Option<PathBuf>,
    plant: Plant,
}

/// Why a [`ClusterEnv`] decision epoch ended degraded (penalty latency,
/// assignment held) instead of completing its protocol round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedReason {
    /// The chaos plan's partition window was open: the master was
    /// unreachable by design.
    Partitioned,
    /// The retry budget ran out without a matching response (severe loss
    /// or a dead master).
    Unreachable,
    /// The master answered, but with a protocol-level rejection the env
    /// could not apply (e.g. an invalid-solution reply).
    Protocol,
    /// The epoch failed because the master crashed, and the post-epoch
    /// `Resume` probe reached a recovered master announcing a higher
    /// generation — the failure was a failover window, not the network.
    Failover,
}

/// The master half of a [`ClusterEnv`], by lifecycle and transport.
enum Plant {
    /// Not yet launched: the engine waits for the first assignment.
    Pending(Box<SimEngine>),
    /// Synchronous in-process master pool + agent over a channel pair:
    /// the env gives the master its turn each time the agent has sent a
    /// request. The agent side is chaos-wrappable; with no plan the
    /// wrapper is a pure passthrough.
    Channel {
        set: Box<NimbusSet>,
        server: ChannelTransport,
        agent: AgentClient<MaybeChaos<ChannelTransport>>,
    },
    /// Master pool serving from its own thread behind a loopback TCP
    /// socket.
    Tcp {
        agent: AgentClient<MaybeChaos<TcpTransport>>,
        master: Option<JoinHandle<Result<(), NimbusError>>>,
    },
    /// Transient state during launch.
    Poisoned,
}

impl ClusterEnv {
    /// Wraps an engine behind the control plane; decisions advance it
    /// `epoch_s` simulated seconds each, over the in-process
    /// [`ClusterTransport::Channel`] by default. The cluster (master,
    /// supervisors, coordination service) launches on the first
    /// deploy-and-measure.
    ///
    /// # Panics
    /// Panics when `epoch_s` is not positive.
    pub fn new(engine: SimEngine, epoch_s: f64) -> Self {
        assert!(epoch_s > 0.0, "epoch length must be positive");
        let heartbeat = (epoch_s / 2.0).clamp(1e-3, 5.0);
        Self {
            n_executors: engine.topology().n_executors(),
            n_machines: engine.cluster().n_machines(),
            epoch_s,
            catchup_epochs: 8,
            heartbeat_interval_s: heartbeat,
            session_timeout_ms: Self::derived_timeout_ms(heartbeat),
            session_timeout_overridden: false,
            auto_repair: true,
            transport: ClusterTransport::Channel,
            fault_plan: None,
            chaos: None,
            retry: None,
            steps: 0,
            degraded: 0,
            last_degraded: None,
            multiplier: engine.rate_schedule().multiplier_at(engine.now()),
            base: None,
            state: None,
            fetch_error: None,
            standbys: 0,
            master_faults: false,
            generation: 0,
            failovers_seen: 0,
            wal_dir: None,
            plant: Plant::Pending(Box::new(engine)),
        }
    }

    /// Selects the transport (channel pairing vs loopback TCP).
    pub fn with_transport(mut self, transport: ClusterTransport) -> Self {
        self.transport = transport;
        self
    }

    /// Installs a deterministic machine crash/restart schedule, fired
    /// against the simulated clock as epochs advance.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Makes the control-plane link unreliable under a seeded
    /// [`ChaosPlan`] (see the failure-model section of the type docs).
    /// Must be set before the first deploy-and-measure.
    pub fn with_chaos_plan(mut self, plan: ChaosPlan) -> Self {
        assert!(
            matches!(self.plant, Plant::Pending(_)),
            "chaos plan must be installed before the cluster launches"
        );
        self.chaos = Some(plan);
        self
    }

    /// Overrides the exchange's retry/timeout/backoff knobs (defaults:
    /// [`RetryPolicy::synchronous`] over the channel pairing,
    /// [`RetryPolicy::default`] over TCP).
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Launches `n` standby masters alongside the leader. With at least
    /// one standby a scripted master crash fails over *synchronously* at
    /// the request boundary (no degraded epoch, bit-identical
    /// trajectory); with none the set goes leaderless until the plan's
    /// `MasterRestart` refills the pool, and the crash surfaces as a
    /// [`DegradedReason::Failover`] epoch. Must be set before launch.
    pub fn with_standbys(mut self, n: usize) -> Self {
        assert!(
            matches!(self.plant, Plant::Pending(_)),
            "standbys must be configured before the cluster launches"
        );
        self.standbys = n;
        self
    }

    /// Master failovers this env's cluster has completed: the pool's own
    /// counter over the channel transport; generation bumps observed
    /// through `Resume` probes over TCP (an out-of-process master can
    /// only be asked, not inspected).
    pub fn failovers(&self) -> u64 {
        match &self.plant {
            Plant::Channel { set, .. } => set.failovers() as u64,
            _ => self.failovers_seen,
        }
    }

    /// Current master incarnation (0 until the first failover), sourced
    /// like [`ClusterEnv::failovers`].
    pub fn master_generation(&self) -> u64 {
        match &self.plant {
            Plant::Channel { set, .. } => set.generation(),
            _ => self.generation,
        }
    }

    /// How many decision epochs ended degraded (penalty reported because
    /// the master was unreachable within the retry budget).
    pub fn degraded_epochs(&self) -> u64 {
        self.degraded
    }

    /// Why the most recent epoch degraded (`None`: it completed).
    pub fn last_degraded(&self) -> Option<DegradedReason> {
        self.last_degraded
    }

    /// Fault counters from the chaos wrapper (`None` without a plan or
    /// before launch).
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        match &self.plant {
            Plant::Channel { agent, .. } => agent.transport().chaos_stats(),
            Plant::Tcp { agent, .. } => agent.transport().chaos_stats(),
            Plant::Pending(_) | Plant::Poisoned => None,
        }
    }

    fn derived_timeout_ms(heartbeat_s: f64) -> u64 {
        ((heartbeat_s * 6.0) * 1000.0).ceil() as u64
    }

    /// Overrides the coordination session timeout (defaults to six
    /// heartbeat intervals) — the knob that sets failure-detection
    /// latency.
    pub fn with_session_timeout_ms(mut self, ms: u64) -> Self {
        self.session_timeout_ms = ms;
        self.session_timeout_overridden = true;
        self
    }

    /// Overrides the daemon heartbeat cadence (defaults to half an epoch,
    /// clamped to 5 s). Unless the session timeout was set explicitly, it
    /// re-derives as six heartbeats — a heartbeat slower than the timeout
    /// would make healthy supervisors look dead every epoch.
    pub fn with_heartbeat_interval_s(mut self, s: f64) -> Self {
        self.heartbeat_interval_s = s;
        if !self.session_timeout_overridden {
            self.session_timeout_ms = Self::derived_timeout_ms(s);
        }
        self
    }

    /// Enables/disables automatic failure repair before each epoch
    /// (default on; off gives the "no recovery" control arm of fault
    /// experiments).
    pub fn with_auto_repair(mut self, on: bool) -> Self {
        self.auto_repair = on;
        self
    }

    /// Overrides the cold-start catch-up epoch budget (default 8; see
    /// [`SimEnv::catchup_epochs`]).
    pub fn with_catchup_epochs(mut self, epochs: usize) -> Self {
        self.catchup_epochs = epochs;
        self
    }

    /// The decision-epoch length in simulated seconds.
    pub fn epoch_s(&self) -> f64 {
        self.epoch_s
    }

    /// The in-process master, when launched over the channel transport
    /// (`None` before launch or behind TCP — an out-of-process master is
    /// exactly the thing you cannot reach into).
    pub fn nimbus(&self) -> Option<&Nimbus> {
        match &self.plant {
            Plant::Channel { set, .. } => set.active(),
            _ => None,
        }
    }

    /// The assignment the master last reported (what a "hold" policy
    /// echoes back — after a repair this differs from the last solution).
    /// While state fetches fail, the last one that succeeded stands (it is
    /// exactly what the cluster still runs through a degraded stretch).
    pub fn reported_assignment(&self) -> Option<&[usize]> {
        self.state.as_ref().map(|s| s.machine_of.as_slice())
    }

    /// Launch the cluster: master, supervisors, fault plan, handshake,
    /// and the first state report. The first assignment starts the
    /// topology cold, mirroring [`SimEnv`]'s first deploy.
    fn launch(&mut self, assignment: &Assignment, workload: &Workload) {
        let Plant::Pending(engine) = std::mem::replace(&mut self.plant, Plant::Poisoned) else {
            unreachable!("launch called twice");
        };
        let coord = CoordService::new(CoordConfig {
            session_timeout_ms: self.session_timeout_ms,
        });
        let policy = self.retry_policy();
        let config = NimbusConfig {
            measure: MeasureProtocol::Epoch {
                epoch_s: self.epoch_s,
                catchup_epochs: self.catchup_epochs,
            },
            ident: "dss-cluster-env/0.1".into(),
            heartbeat_interval_s: self.heartbeat_interval_s,
            auto_repair: self.auto_repair,
            retry: policy.clone(),
        };
        self.master_faults = self
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.has_master_events());
        let wal_dir = unique_wal_dir();
        let mut set = NimbusSet::launch(
            *engine,
            workload.clone(),
            assignment.clone(),
            &coord,
            config,
            &HaConfig {
                standbys: self.standbys,
                wal_dir: wal_dir.clone(),
            },
        )
        .expect("cluster launch: assignment valid for this topology/cluster");
        self.wal_dir = Some(wal_dir);
        let supervisors = SupervisorSet::register(&coord, self.n_machines)
            .expect("supervisor registration on a fresh coordination service");
        set.attach_supervisors(supervisors);
        if let Some(plan) = self.fault_plan.take() {
            set.set_fault_plan(plan);
        }
        // A standby-less crash should cost exactly one degraded epoch:
        // the failing call's whole retry budget lands in the dark window,
        // and the next transmission (the env's resume probe) revives the
        // pool through the scripted restart.
        set.set_leaderless_grace(u64::from(policy.max_attempts));
        self.base = Some(workload.clone());
        let pooled = self.pooled();
        let partitioned = self.partitioned_at(0);
        // Chaos (when configured) starts DISARMED, so the handshake and
        // the first state fetch run clean on either transport. It is
        // armed, under the first epoch's partition flag, only once the
        // plant is up.
        let state = match self.transport {
            ClusterTransport::Channel => {
                let (agent_side, server) = ChannelTransport::pair();
                let wrapped = MaybeChaos::wrap(agent_side, self.chaos.as_ref());
                let mut agent = AgentClient::new(wrapped, "dss-cluster-env-agent/0.1");
                // Synchronous handshake: the agent announces first so the
                // master's (send, recv) handshake never blocks.
                agent.announce().expect("channel handshake");
                set.active_mut()
                    .expect("master up at launch")
                    .handshake(&server)
                    .expect("channel handshake");
                agent.await_scheduler().expect("channel handshake");
                let state = agent.reliable_fetch_state(&policy, || pump(&mut set, pooled, &server));
                agent.transport().set_partitioned(partitioned);
                agent.transport().arm();
                self.plant = Plant::Channel {
                    set: Box::new(set),
                    server,
                    agent,
                };
                state
            }
            ClusterTransport::Tcp => {
                let (listener, addr) = TcpTransport::listen_localhost().expect("loopback listener");
                let master = std::thread::spawn(move || -> Result<(), NimbusError> {
                    let transport = TcpTransport::accept(&listener)?;
                    set.active_mut()
                        .expect("master up at launch")
                        .handshake(&transport)?;
                    // Bounded waits, so the pool's scripted master events
                    // fire on time whether or not a request is in flight.
                    while serve(&mut set, pooled, &transport, Duration::from_millis(20))?
                        != ServeStep::Goodbye
                    {}
                    Ok(())
                });
                let transport = TcpTransport::connect(addr).expect("loopback connect");
                let wrapped = MaybeChaos::wrap(transport, self.chaos.as_ref());
                let mut agent = AgentClient::new(wrapped, "dss-cluster-env-agent/0.1");
                agent.handshake().expect("tcp handshake");
                let state = agent.reliable_fetch_state(&policy, || {});
                agent.transport().set_partitioned(partitioned);
                agent.transport().arm();
                self.plant = Plant::Tcp {
                    agent,
                    master: Some(master),
                };
                state
            }
        }
        .expect("first state report");
        self.multiplier = state.rate_multiplier;
        self.state = Some(state);
    }

    /// The retry policy the exchange runs under: an explicit override,
    /// else a transport-suited default.
    fn retry_policy(&self) -> RetryPolicy {
        match (&self.retry, self.transport) {
            (Some(p), _) => p.clone(),
            (None, ClusterTransport::Channel) => RetryPolicy::synchronous(),
            (None, ClusterTransport::Tcp) => RetryPolicy::default(),
        }
    }

    /// Whether requests are served through the master pool rather than by
    /// its leader directly (see *Who serves* in the type docs).
    fn pooled(&self) -> bool {
        self.chaos.is_some() || self.master_faults
    }

    /// Whether the chaos plan black-holes the link during decision epoch
    /// `epoch_idx`.
    fn partitioned_at(&self, epoch_idx: u64) -> bool {
        self.chaos
            .as_ref()
            .is_some_and(|p| p.partitioned_at(epoch_idx))
    }

    /// One full protocol epoch. Returns the measured latency and, when
    /// requested, the runtime statistics snapshot. A failed round trip
    /// **degrades** — penalty latency, assignment held, typed
    /// [`DegradedReason`] — instead of panicking or hanging.
    fn step(
        &mut self,
        assignment: &Assignment,
        workload: &Workload,
        want_stats: bool,
    ) -> (f64, Option<StatsView>) {
        if matches!(self.plant, Plant::Pending(_)) {
            self.launch(assignment, workload);
        }
        let partitioned = self.partitioned_at(self.steps);
        self.steps += 1;
        let policy = self.retry_policy();
        let pooled = self.pooled();
        // A changed base workload goes out ahead of the solution, exactly
        // where SimEnv forwards it to the engine (an unchanged one is
        // never resent, so the engine state is untouched).
        let new_base = match &self.base {
            Some(base) if base == workload => None,
            _ => Some(
                workload
                    .rates()
                    .iter()
                    .map(|&(c, r)| (c as u32, r))
                    .collect::<Vec<(u32, f64)>>(),
            ),
        };
        let sent_base = new_base.is_some();
        let machine_of = assignment.as_slice().to_vec();
        let state = self.state.as_ref().expect("launch fetched a state");
        let result = match (self.fetch_error.take(), &mut self.plant) {
            // This epoch's state never arrived: nothing to answer.
            (Some(e), _) => Err(e),
            // The synchronous pump: give the master every queued message
            // each time the agent yields. Chaos losses leave the master
            // Idle; the agent's retransmit budget decides the epoch's
            // fate, so the outcome depends only on message counts —
            // deterministic across thread pools.
            (None, Plant::Channel { set, server, agent }) => reliable_epoch(
                agent,
                state,
                new_base,
                machine_of,
                want_stats,
                &policy,
                || pump(set, pooled, server),
            ),
            // The TCP master serves from its own thread on bounded waits;
            // no pumping needed.
            (None, Plant::Tcp { agent, .. }) => reliable_epoch(
                agent,
                state,
                new_base,
                machine_of,
                want_stats,
                &policy,
                || {},
            ),
            (None, Plant::Pending(_) | Plant::Poisoned) => unreachable!("launched above"),
        };
        let out = match result {
            Ok((ms, stats)) => {
                if sent_base {
                    self.base = Some(workload.clone());
                }
                self.last_degraded = None;
                (ms, stats)
            }
            Err(e) => {
                // Degraded epoch: the cluster keeps running the last
                // deployed assignment, simulated time stays put (no
                // solution was delivered), and the agent sees the shared
                // stalled-window penalty.
                self.degraded += 1;
                let mut reason = match e {
                    _ if partitioned => DegradedReason::Partitioned,
                    NimbusError::Unreachable { .. } => DegradedReason::Unreachable,
                    _ => DegradedReason::Protocol,
                };
                // With master faults in play, an unreachable master may be
                // a failover window rather than the network: probe with a
                // Resume frame (over the channel pairing the probe's own
                // transmissions are what trip the scripted restart). A
                // generation bump reclassifies the epoch as a failover.
                if self.master_faults && reason == DegradedReason::Unreachable {
                    if let Some(generation) = self.probe_master() {
                        if generation > self.generation {
                            self.generation = generation;
                            self.failovers_seen += 1;
                            reason = DegradedReason::Failover;
                        }
                    }
                }
                self.last_degraded = Some(reason);
                (
                    EMPTY_WINDOW_PENALTY_MS,
                    want_stats.then(|| self.degraded_stats()),
                )
            }
        };
        self.fetch_state();
        out
    }

    /// Fetches the state report the next epoch answers, under that epoch's
    /// partition flag. A failure is held for that epoch to degrade on: a
    /// state in hand that may carry a wrong epoch number is never
    /// answered, and a dead master's dark window is charged to exactly one
    /// epoch.
    fn fetch_state(&mut self) {
        let partitioned = self.partitioned_at(self.steps);
        let policy = self.retry_policy();
        let pooled = self.pooled();
        let fetched = match &mut self.plant {
            Plant::Channel { set, server, agent } => {
                agent.transport().set_partitioned(partitioned);
                agent.reliable_fetch_state(&policy, || pump(set, pooled, server))
            }
            Plant::Tcp { agent, .. } => {
                agent.transport().set_partitioned(partitioned);
                agent.reliable_fetch_state(&policy, || {})
            }
            Plant::Pending(_) | Plant::Poisoned => unreachable!("launched"),
        };
        match fetched {
            Ok(state) => {
                self.multiplier = state.rate_multiplier;
                self.state = Some(state);
            }
            Err(e) => self.fetch_error = Some(e),
        }
    }

    /// Ask the (possibly recovered) master who it is: a reliable `Resume`
    /// round trip returning the announced generation, `None` when the
    /// probe's retry budget dies in the dark too. Advances no engine
    /// state — safe to fire after any failed epoch.
    fn probe_master(&mut self) -> Option<u64> {
        let policy = self.retry_policy();
        let pooled = self.pooled();
        let epoch = self.state.as_ref().map_or(0, |s| s.epoch);
        match &mut self.plant {
            Plant::Channel { set, server, agent } => agent
                .reliable_resume(epoch, &policy, || pump(set, pooled, server))
                .ok()
                .map(|(generation, _)| generation),
            Plant::Tcp { agent, .. } => agent
                .reliable_resume(epoch, &policy, || {})
                .ok()
                .map(|(generation, _)| generation),
            Plant::Pending(_) | Plant::Poisoned => None,
        }
    }

    /// The stats snapshot reported for a degraded epoch: penalty latency,
    /// zeroed per-entity loads — a well-shaped "nothing measurable" that
    /// keeps model-based consumers total.
    fn degraded_stats(&self) -> StatsView {
        StatsView {
            avg_latency_ms: EMPTY_WINDOW_PENALTY_MS,
            executor_rates: vec![0.0; self.n_executors],
            executor_sojourn_ms: vec![0.0; self.n_executors],
            machine_cpu_cores: vec![0.0; self.n_machines],
            machine_cross_kib_s: vec![0.0; self.n_machines],
            edge_transfer_ms: Vec::new(),
            completed: 0,
            failed: 0,
        }
    }
}

/// Serves one request of the exchange: through the pool (scripted master
/// faults fire, the recovery image commits) or by its leader directly.
fn serve(
    set: &mut NimbusSet,
    pooled: bool,
    transport: &dyn dss_proto::Transport,
    wait: Duration,
) -> Result<ServeStep, NimbusError> {
    if pooled {
        set.serve_step(transport, wait)
    } else {
        set.active_mut()
            .expect("without master faults the leader never changes")
            .serve_step(transport, wait)
    }
}

/// The in-process master's turn: serve every queued request.
fn pump(set: &mut NimbusSet, pooled: bool, server: &ChannelTransport) {
    while let Ok(ServeStep::Served) = serve(set, pooled, server, Duration::ZERO) {}
}

/// The agent half of one epoch's deploy-and-measure, shared by both
/// transports: forward a changed base workload, deliver the solution
/// answering `state`, and collect the reward (plus stats when asked). Any
/// leg exhausting its retry budget aborts the epoch with the typed error.
fn reliable_epoch<T: dss_proto::Transport>(
    agent: &mut AgentClient<T>,
    state: &StateView,
    new_base: Option<Vec<(u32, f64)>>,
    machine_of: Vec<usize>,
    want_stats: bool,
    policy: &RetryPolicy,
    mut pump: impl FnMut(),
) -> Result<(f64, Option<StatsView>), NimbusError> {
    if let Some(rates) = new_base {
        agent.reliable_send_workload(rates, policy, &mut pump)?;
    }
    let reward =
        agent.reliable_solution(state.epoch, machine_of, state.n_machines, policy, &mut pump)?;
    let stats = if want_stats {
        Some(agent.reliable_fetch_stats(policy, &mut pump)?)
    } else {
        None
    };
    Ok((reward_ms(&reward), stats))
}

/// Map a protocol reward to the backend's latency semantics: an empty
/// measurement set is a stalled window and earns the shared penalty.
fn reward_ms(reward: &dss_nimbus::RewardView) -> f64 {
    if reward.measurements.is_empty() {
        EMPTY_WINDOW_PENALTY_MS
    } else {
        reward.avg_tuple_ms
    }
}

/// Process-unique recovery-WAL directory for one [`ClusterEnv`] cluster
/// (parallel actors each own a private cluster, so each gets its own).
fn unique_wal_dir() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dss-cluster-env-wal-{}-{n}", std::process::id()))
}

fn stats_from_view(view: StatsView) -> RuntimeStats {
    RuntimeStats {
        avg_latency_ms: view.avg_latency_ms,
        executor_rates: view.executor_rates,
        executor_sojourn_ms: view.executor_sojourn_ms,
        machine_cpu_cores: view.machine_cpu_cores,
        machine_cross_kib_s: view.machine_cross_kib_s,
        edge_transfer_ms: view.edge_transfer_ms,
        completed: view.completed,
        failed: view.failed,
    }
}

impl Drop for ClusterEnv {
    fn drop(&mut self) {
        match &mut self.plant {
            Plant::Channel { agent, .. } => {
                // Chaos (if any) is disarmed first so the goodbye always
                // reaches the master.
                agent.transport().disarm();
                let _ = agent.bye();
            }
            Plant::Tcp { agent, master } => {
                // The goodbye unblocks the master's receive; joining keeps
                // the thread from outliving its environment. Disarming
                // chaos first guarantees it is delivered.
                agent.transport().disarm();
                let _ = agent.bye();
                if let Some(handle) = master.take() {
                    let _ = handle.join();
                }
            }
            Plant::Pending(_) | Plant::Poisoned => {}
        }
        if let Some(dir) = self.wal_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Environment for ClusterEnv {
    fn n_executors(&self) -> usize {
        self.n_executors
    }

    fn n_machines(&self) -> usize {
        self.n_machines
    }

    fn deploy_and_measure(&mut self, assignment: &Assignment, workload: &Workload) -> f64 {
        self.step(assignment, workload, false).0
    }

    fn deploy_and_measure_stats(
        &mut self,
        assignment: &Assignment,
        workload: &Workload,
    ) -> (f64, RuntimeStats) {
        let (ms, stats) = self.step(assignment, workload, true);
        (ms, stats_from_view(stats.expect("stats requested")))
    }

    fn workload_multiplier(&self) -> f64 {
        self.multiplier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_sim::{ClusterSpec, Grouping, SimConfig, TopologyBuilder};

    fn env() -> AnalyticEnv {
        let mut b = TopologyBuilder::new("t");
        let s = b.spout("s", 2, 0.05);
        let x = b.bolt("x", 3, 0.3);
        b.edge(s, x, Grouping::Shuffle, 1.0, 128);
        let topo = b.build().unwrap();
        let model = AnalyticModel::new(
            topo,
            ClusterSpec::homogeneous(4),
            SimConfig::steady_state(3),
        )
        .unwrap();
        AnalyticEnv::new(model)
    }

    #[test]
    fn analytic_env_measures() {
        let mut e = env();
        assert_eq!(e.n_executors(), 5);
        assert_eq!(e.n_machines(), 4);
        let a = Assignment::new(vec![0; 5], 4).unwrap();
        let w = Workload::new(vec![(0, 100.0)], e.model_mut().topology()).unwrap();
        let ms = e.deploy_and_measure(&a, &w);
        assert!(ms > 0.0);
        let (ms2, stats) = e.deploy_and_measure_stats(&a, &w);
        assert_eq!(ms, ms2);
        assert_eq!(stats.executor_rates.len(), 5);
    }

    fn sim_env(seed: u64, epoch_s: f64) -> SimEnv {
        let mut b = TopologyBuilder::new("t");
        let s = b.spout("s", 2, 0.05);
        let x = b.bolt("x", 3, 0.3);
        b.edge(s, x, Grouping::Shuffle, 1.0, 128);
        let topo = b.build().unwrap();
        let workload = Workload::uniform(&topo, 200.0);
        let engine = SimEngine::new(
            topo,
            ClusterSpec::homogeneous(4),
            workload,
            dss_sim::SimConfig::steady_state(seed),
        )
        .unwrap();
        SimEnv::new(engine, epoch_s)
    }

    #[test]
    fn sim_env_steps_one_epoch_per_measure() {
        let mut e = sim_env(3, 5.0);
        assert_eq!(e.n_executors(), 5);
        assert_eq!(e.n_machines(), 4);
        let a = Assignment::new(vec![0; 5], 4).unwrap();
        let w = Workload::new(vec![(0, 200.0)], e.engine().topology()).unwrap();
        let ms = e.deploy_and_measure(&a, &w);
        assert!(ms > 0.0 && ms < EMPTY_WINDOW_PENALTY_MS);
        assert!((e.engine().now() - 5.0).abs() < 1e-9, "one epoch stepped");
        let before = e.engine().now();
        let (ms2, stats) = e.deploy_and_measure_stats(&a, &w);
        assert!((e.engine().now() - before - 5.0).abs() < 1e-9);
        assert!(ms2 > 0.0);
        assert_eq!(stats.executor_rates.len(), 5);
        assert!(stats.completed > 0);
    }

    #[test]
    fn sim_env_redeploys_minimally_and_keeps_processing() {
        let mut e = sim_env(4, 5.0);
        let a = Assignment::new(vec![0, 1, 2, 3, 0], 4).unwrap();
        let w = Workload::new(vec![(0, 200.0)], e.engine().topology()).unwrap();
        e.deploy_and_measure(&a, &w);
        let completed_before = e.engine().tuple_counts().1;
        // Move one executor: a minimal-impact re-deployment, not a restart.
        let moved = a.with_move(0, 1);
        let ms = e.deploy_and_measure(&moved, &w);
        assert!(ms > 0.0);
        assert_eq!(e.engine().assignment(), &moved);
        assert!(
            e.engine().tuple_counts().1 > completed_before,
            "system keeps processing through the migration"
        );
    }

    #[test]
    fn sim_env_mid_run_workload_change_applies() {
        let mut e = sim_env(5, 10.0);
        let a = Assignment::new(vec![0, 1, 2, 3, 0], 4).unwrap();
        let base = Workload::new(vec![(0, 200.0)], e.engine().topology()).unwrap();
        e.deploy_and_measure(&a, &base);
        let emitted_low = e.engine().tuple_counts().0;
        let heavy = base.scaled(3.0);
        e.deploy_and_measure(&a, &heavy);
        let emitted_high = e.engine().tuple_counts().0 - emitted_low;
        assert_eq!(e.engine().workload(), &heavy);
        assert!(
            emitted_high as f64 > emitted_low as f64 * 2.0,
            "tripled workload must show up in emission: {emitted_low} -> {emitted_high}"
        );
    }

    #[test]
    fn sim_env_schedule_surfaces_multiplier() {
        let mut e = sim_env(6, 5.0);
        e.engine_mut()
            .set_rate_schedule(dss_sim::RateSchedule::step_at(5.0, 2.0));
        assert_eq!(e.workload_multiplier(), 1.0);
        let a = Assignment::new(vec![0, 1, 2, 3, 0], 4).unwrap();
        let w = Workload::new(vec![(0, 200.0)], e.engine().topology()).unwrap();
        e.deploy_and_measure(&a, &w); // clock reaches 5.0
        assert_eq!(e.workload_multiplier(), 2.0);
    }

    #[test]
    fn analytic_env_schedule_advances_virtual_clock() {
        let mut b = TopologyBuilder::new("t");
        let s = b.spout("s", 2, 0.05);
        let x = b.bolt("x", 3, 0.3);
        b.edge(s, x, Grouping::Shuffle, 1.0, 128);
        let topo = b.build().unwrap();
        let w = Workload::uniform(&topo, 100.0);
        let model = AnalyticModel::new(
            topo,
            ClusterSpec::homogeneous(4),
            SimConfig::steady_state(3),
        )
        .unwrap();
        let mut e =
            AnalyticEnv::new(model).with_schedule(dss_sim::RateSchedule::step_at(30.0, 2.0), 30.0);
        let a = Assignment::new(vec![0, 1, 2, 3, 0], 4).unwrap();
        assert_eq!(e.workload_multiplier(), 1.0);
        let before = e.deploy_and_measure(&a, &w);
        assert_eq!(e.now(), 30.0);
        assert_eq!(e.workload_multiplier(), 2.0);
        let after = e.deploy_and_measure(&a, &w);
        assert!(
            after > before,
            "doubled load must cost latency: {before} -> {after}"
        );
        // The noiseless analytic model agrees with evaluating the scaled
        // workload directly.
        let mut plain = AnalyticEnv::new(
            AnalyticModel::new(
                {
                    let mut b = TopologyBuilder::new("t");
                    let s = b.spout("s", 2, 0.05);
                    let x = b.bolt("x", 3, 0.3);
                    b.edge(s, x, Grouping::Shuffle, 1.0, 128);
                    b.build().unwrap()
                },
                ClusterSpec::homogeneous(4),
                SimConfig::steady_state(3),
            )
            .unwrap(),
        );
        assert_eq!(after, plain.deploy_and_measure(&a, &w.scaled(2.0)));
    }

    fn cluster_env(seed: u64, epoch_s: f64, transport: ClusterTransport) -> ClusterEnv {
        let mut b = TopologyBuilder::new("t");
        let s = b.spout("s", 2, 0.05);
        let x = b.bolt("x", 3, 0.3);
        b.edge(s, x, Grouping::Shuffle, 1.0, 128);
        let topo = b.build().unwrap();
        let workload = Workload::uniform(&topo, 200.0);
        let engine = SimEngine::new(
            topo,
            ClusterSpec::homogeneous(4),
            workload,
            dss_sim::SimConfig::steady_state(seed),
        )
        .unwrap();
        ClusterEnv::new(engine, epoch_s).with_transport(transport)
    }

    /// A deterministic assignment walk shared by the parity tests.
    fn walk(env: &mut dyn Environment, w: &Workload, steps: usize) -> Vec<f64> {
        let mut out = Vec::new();
        let mut a = Assignment::new(vec![0, 1, 2, 3, 0], 4).unwrap();
        for step in 0..steps {
            out.push(env.deploy_and_measure(&a, w));
            out.push(env.workload_multiplier());
            a = a.with_move(step % 5, (step + 1) % 4);
        }
        out
    }

    #[test]
    fn cluster_env_matches_sim_env_bit_for_bit() {
        // The control plane must add protocol fidelity, not numeric
        // drift: same seed, same walk => identical trajectories, on both
        // transports.
        let mut sim = sim_env(11, 5.0);
        sim.engine_mut()
            .set_rate_schedule(dss_sim::RateSchedule::step_at(10.0, 2.0));
        let w = Workload::new(vec![(0, 200.0)], sim.engine().topology()).unwrap();
        let reference = walk(&mut sim, &w, 6);

        for transport in [ClusterTransport::Channel, ClusterTransport::Tcp] {
            let mut cluster = cluster_env(11, 5.0, transport);
            if let Plant::Pending(engine) = &mut cluster.plant {
                engine.set_rate_schedule(dss_sim::RateSchedule::step_at(10.0, 2.0));
            }
            let got = walk(&mut cluster, &w, 6);
            assert_eq!(reference, got, "trajectory drift over {transport:?}");
        }
    }

    #[test]
    fn cluster_env_stats_match_sim_env() {
        let mut sim = sim_env(13, 5.0);
        let mut cluster = cluster_env(13, 5.0, ClusterTransport::Channel);
        let w = Workload::new(vec![(0, 200.0)], sim.engine().topology()).unwrap();
        let a = Assignment::new(vec![0, 1, 2, 3, 0], 4).unwrap();
        let (sim_ms, sim_stats) = sim.deploy_and_measure_stats(&a, &w);
        let (cl_ms, cl_stats) = cluster.deploy_and_measure_stats(&a, &w);
        assert_eq!(sim_ms, cl_ms);
        assert_eq!(sim_stats.executor_rates, cl_stats.executor_rates);
        assert_eq!(sim_stats.machine_cpu_cores, cl_stats.machine_cpu_cores);
        assert_eq!(sim_stats.completed, cl_stats.completed);
    }

    #[test]
    fn cluster_env_mid_run_workload_change_reaches_the_engine() {
        let mut e = cluster_env(15, 10.0, ClusterTransport::Channel);
        let a = Assignment::new(vec![0, 1, 2, 3, 0], 4).unwrap();
        let base = {
            let mut b = TopologyBuilder::new("t");
            let s = b.spout("s", 2, 0.05);
            let x = b.bolt("x", 3, 0.3);
            b.edge(s, x, Grouping::Shuffle, 1.0, 128);
            Workload::new(vec![(0, 200.0)], &b.build().unwrap()).unwrap()
        };
        e.deploy_and_measure(&a, &base);
        let heavy = base.scaled(3.0);
        e.deploy_and_measure(&a, &heavy);
        assert_eq!(e.nimbus().unwrap().engine().workload(), &heavy);
    }

    #[test]
    fn cluster_env_total_outage_pays_penalty_then_recovers() {
        // Crash EVERY machine at 4 s, restart one at 30 s: measurements
        // degrade to the shared penalty while the cluster is dead, and
        // auto-repair brings the system back once a machine returns.
        let mut plan = FaultPlan::crash_at(0, 4.0);
        for m in 1..4 {
            plan = plan.and_crash(m, 4.0);
        }
        let mut e = cluster_env(17, 5.0, ClusterTransport::Channel)
            .with_fault_plan(plan.and_restart(1, 42.0))
            .with_session_timeout_ms(3_000)
            .with_heartbeat_interval_s(1.0);
        let a = Assignment::new(vec![0, 1, 2, 3, 0], 4).unwrap();
        let topo = {
            let mut b = TopologyBuilder::new("t");
            let s = b.spout("s", 2, 0.05);
            let x = b.bolt("x", 3, 0.3);
            b.edge(s, x, Grouping::Shuffle, 1.0, 128);
            b.build().unwrap()
        };
        let w = Workload::new(vec![(0, 200.0)], &topo).unwrap();
        let mut latencies = Vec::new();
        for _ in 0..10 {
            // Hold policy: echo the master's reported assignment, so the
            // agent cooperates with (instead of undoing) auto-repair.
            let current = e
                .reported_assignment()
                .map(|m| Assignment::new(m.to_vec(), 4).unwrap())
                .unwrap_or_else(|| a.clone());
            latencies.push(e.deploy_and_measure(&current, &w));
        }
        // The dead-cluster stretch hits the penalty at least once…
        assert!(
            latencies.contains(&EMPTY_WINDOW_PENALTY_MS),
            "no penalty epoch in {latencies:?}"
        );
        // …and the tail (post-restart, post-repair) measures real latency.
        assert!(
            latencies.last().copied().unwrap() < EMPTY_WINDOW_PENALTY_MS,
            "no recovery: {latencies:?}"
        );
        // Repair moved every executor onto the revived machine.
        let nimbus = e.nimbus().unwrap();
        assert!(nimbus.repair_count() >= 1);
        assert!(nimbus
            .engine()
            .assignment()
            .as_slice()
            .iter()
            .all(|&m| m == 1));
    }

    #[test]
    fn zero_rate_chaos_traces_the_clean_trajectory() {
        // The exchange under a zero-fault plan (served through the pool)
        // must reproduce the clean backend's measurements exactly:
        // retransmits never trigger, so the engine sees the same deploys
        // and epochs — and, on a moving schedule, the same post-epoch
        // multipliers.
        let mut sim = sim_env(19, 5.0);
        sim.engine_mut()
            .set_rate_schedule(dss_sim::RateSchedule::step_at(10.0, 2.0));
        let w = Workload::new(vec![(0, 200.0)], sim.engine().topology()).unwrap();
        let reference = walk(&mut sim, &w, 5);
        for transport in [ClusterTransport::Channel, ClusterTransport::Tcp] {
            let mut cluster =
                cluster_env(19, 5.0, transport).with_chaos_plan(ChaosPlan::new(0xC0FFEE));
            if let Plant::Pending(engine) = &mut cluster.plant {
                engine.set_rate_schedule(dss_sim::RateSchedule::step_at(10.0, 2.0));
            }
            let got = walk(&mut cluster, &w, 5);
            assert_eq!(reference, got, "reliable-path drift over {transport:?}");
            assert_eq!(cluster.degraded_epochs(), 0);
            let stats = cluster.chaos_stats().unwrap();
            assert_eq!(stats.dropped + stats.corrupted + stats.partition_dropped, 0);
        }
    }

    #[test]
    fn lossy_chaos_trains_through_and_counts_faults() {
        // 20% drops each way: every epoch must still complete (the retry
        // budget absorbs the losses) and the fault counters must show the
        // chaos actually fired.
        let plan = ChaosPlan::lossy(7, 0.20)
            .with_duplicate(0.05)
            .with_delay(0.05);
        let mut e = cluster_env(21, 5.0, ClusterTransport::Channel).with_chaos_plan(plan);
        let w = {
            let mut b = TopologyBuilder::new("t");
            let s = b.spout("s", 2, 0.05);
            let x = b.bolt("x", 3, 0.3);
            b.edge(s, x, Grouping::Shuffle, 1.0, 128);
            Workload::new(vec![(0, 200.0)], &b.build().unwrap()).unwrap()
        };
        let a = Assignment::new(vec![0, 1, 2, 3, 0], 4).unwrap();
        let mut completed = 0;
        for _ in 0..12 {
            let ms = e.deploy_and_measure(&a, &w);
            if ms < EMPTY_WINDOW_PENALTY_MS {
                completed += 1;
            }
        }
        assert!(
            completed >= 10,
            "retry budget should absorb 20% loss: {completed}/12 epochs completed"
        );
        let stats = e.chaos_stats().unwrap();
        assert!(stats.dropped > 0, "chaos never fired: {stats:?}");
        // Every epoch either completed or degraded — no third outcome.
        assert_eq!(e.degraded_epochs() as usize, 12 - completed);
    }

    #[test]
    fn partitioned_epochs_degrade_and_heal_without_hanging() {
        // Epochs 2..4 are black-holed: they must degrade to the penalty
        // with reason Partitioned — not hang, not panic — and the env
        // must re-sync afterwards.
        let plan = ChaosPlan::new(5).with_partition_epochs(2, 4);
        let mut e = cluster_env(23, 5.0, ClusterTransport::Channel).with_chaos_plan(plan);
        let w = {
            let mut b = TopologyBuilder::new("t");
            let s = b.spout("s", 2, 0.05);
            let x = b.bolt("x", 3, 0.3);
            b.edge(s, x, Grouping::Shuffle, 1.0, 128);
            Workload::new(vec![(0, 200.0)], &b.build().unwrap()).unwrap()
        };
        let a = Assignment::new(vec![0, 1, 2, 3, 0], 4).unwrap();
        let mut ms = Vec::new();
        for _ in 0..6 {
            ms.push(e.deploy_and_measure(&a, &w));
        }
        assert_eq!(ms[2], EMPTY_WINDOW_PENALTY_MS);
        assert_eq!(ms[3], EMPTY_WINDOW_PENALTY_MS);
        assert_eq!(e.degraded_epochs(), 2);
        assert!(
            ms[4] < EMPTY_WINDOW_PENALTY_MS,
            "no post-heal re-sync: {ms:?}"
        );
        assert!(ms[5] < EMPTY_WINDOW_PENALTY_MS);
        assert_eq!(
            e.last_degraded(),
            None,
            "healed epoch must clear the reason"
        );
        // The held assignment stayed visible through the partition.
        assert!(e.reported_assignment().is_some());
        let stats = e.chaos_stats().unwrap();
        assert!(stats.partition_dropped > 0);
    }

    #[test]
    fn standby_failover_is_invisible_and_bit_identical() {
        // Two master crashes with a standby pool: each fails over
        // synchronously at the request boundary, so the trajectory —
        // including the epochs the crashes land in — must equal the
        // fault-free run bit for bit, on both transports.
        use dss_nimbus::FaultEvent;
        let w = {
            let mut b = TopologyBuilder::new("t");
            let s = b.spout("s", 2, 0.05);
            let x = b.bolt("x", 3, 0.3);
            b.edge(s, x, Grouping::Shuffle, 1.0, 128);
            Workload::new(vec![(0, 200.0)], &b.build().unwrap()).unwrap()
        };
        // A master-fault plan selects the pool by itself: the link needs
        // no chaos plan, zero-rate or otherwise.
        for transport in [ClusterTransport::Channel, ClusterTransport::Tcp] {
            for chaos in [Some(ChaosPlan::new(0xFA11)), None] {
                let env = || {
                    let env = cluster_env(27, 5.0, transport);
                    match &chaos {
                        Some(plan) => env.with_chaos_plan(plan.clone()),
                        None => env,
                    }
                };
                let mut clean = env();
                let reference = walk(&mut clean, &w, 6);
                let mut crashed = env().with_standbys(1).with_fault_plan(FaultPlan::new(vec![
                    FaultEvent::master_crash(10.0),
                    FaultEvent::master_restart(15.0),
                    FaultEvent::master_crash(20.0),
                ]));
                let got = walk(&mut crashed, &w, 6);
                assert_eq!(
                    reference, got,
                    "failover perturbed the run over {transport:?}"
                );
                assert_eq!(
                    crashed.degraded_epochs(),
                    0,
                    "standby failover degrades nothing"
                );
                if transport == ClusterTransport::Channel {
                    assert_eq!(crashed.failovers(), 2);
                    assert_eq!(crashed.master_generation(), 2);
                }
            }
        }
    }

    #[test]
    fn standbyless_crash_degrades_one_epoch_as_failover() {
        // No standby: the crash epoch burns its retry budget into the
        // leaderless window and degrades; the resume probe then trips the
        // scripted restart, sees the bumped generation, and the epoch is
        // classified Failover. Everything after measures real latency.
        use dss_nimbus::FaultEvent;
        let w = {
            let mut b = TopologyBuilder::new("t");
            let s = b.spout("s", 2, 0.05);
            let x = b.bolt("x", 3, 0.3);
            b.edge(s, x, Grouping::Shuffle, 1.0, 128);
            Workload::new(vec![(0, 200.0)], &b.build().unwrap()).unwrap()
        };
        let a = Assignment::new(vec![0, 1, 2, 3, 0], 4).unwrap();
        for transport in [ClusterTransport::Channel, ClusterTransport::Tcp] {
            let mut e = cluster_env(29, 5.0, transport)
                .with_chaos_plan(ChaosPlan::new(0xDEAD))
                .with_fault_plan(FaultPlan::new(vec![
                    FaultEvent::master_crash(10.0),
                    FaultEvent::master_restart(30.0),
                ]));
            let mut reasons = Vec::new();
            let mut ms = Vec::new();
            for _ in 0..6 {
                ms.push(e.deploy_and_measure(&a, &w));
                reasons.push(e.last_degraded());
            }
            let failed: Vec<usize> = reasons
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.is_some().then_some(i))
                .collect();
            assert_eq!(failed.len(), 1, "exactly one failover epoch: {reasons:?}");
            let k = failed[0];
            assert_eq!(reasons[k], Some(DegradedReason::Failover));
            assert_eq!(ms[k], EMPTY_WINDOW_PENALTY_MS);
            assert_eq!(e.degraded_epochs(), 1);
            assert_eq!(e.failovers(), 1, "over {transport:?}");
            assert_eq!(e.master_generation(), 1);
            assert!(
                ms[k + 1..].iter().all(|&v| v < EMPTY_WINDOW_PENALTY_MS),
                "post-failover epochs must heal: {ms:?}"
            );
        }
    }
}
