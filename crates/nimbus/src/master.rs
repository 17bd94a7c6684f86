//! The Nimbus master: assignment storage, deployment, measurement,
//! failure detection and repair.

use std::collections::VecDeque;
use std::time::Duration;

use dss_coord::{storm, CoordService, CreateMode, Session, StormPaths};
use dss_proto::{Message, ProtoError, Transport};
use dss_sim::{Assignment, SimEngine, Workload};

use crate::error::NimbusError;
use crate::fault::{FaultCursor, FaultKind, FaultPlan};
use crate::retry::RetryPolicy;
use crate::supervisor::SupervisorSet;

/// How the master measures the reward for a deployed solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeasureProtocol {
    /// The paper's §3.1 protocol: wait `stabilize_s` after the deployment
    /// ("a few minutes"), then average `samples` consecutive window
    /// measurements taken `interval_s` apart.
    Paper {
        /// Post-deployment stabilization wait (simulated seconds).
        stabilize_s: f64,
        /// Spacing between consecutive measurements (simulated seconds).
        interval_s: f64,
        /// Number of measurements averaged into the reward.
        samples: usize,
    },
    /// Decision-epoch measurement, the training-backend mode: advance the
    /// cluster exactly `epoch_s` simulated seconds and report the
    /// sliding-window average at the new clock — the same semantics as
    /// `dss-core`'s `SimEnv`, so an agent trained through the control
    /// plane sees bit-identical dynamics to one trained on the bare
    /// engine.
    Epoch {
        /// Length of one decision epoch (simulated seconds).
        epoch_s: f64,
        /// Extra epochs the *first* measurement may step while the
        /// latency window is still empty after a cold start (a warm-run
        /// empty window is reported immediately — it is the assignment's
        /// fault).
        catchup_epochs: usize,
    },
}

impl MeasureProtocol {
    /// The paper's defaults: 120 s stabilization, 5 × 10 s samples.
    pub fn paper(stabilize_s: f64) -> Self {
        MeasureProtocol::Paper {
            stabilize_s,
            interval_s: 10.0,
            samples: 5,
        }
    }

    /// Epoch mode with the standard cold-start catch-up (8 epochs).
    pub fn epoch(epoch_s: f64) -> Self {
        MeasureProtocol::Epoch {
            epoch_s,
            catchup_epochs: 8,
        }
    }
}

/// Master tuning knobs.
#[derive(Debug, Clone)]
pub struct NimbusConfig {
    /// Reward-measurement protocol (paper §3.1 vs decision epochs).
    pub measure: MeasureProtocol,
    /// Identification string sent in the protocol handshake.
    pub ident: String,
    /// How often daemons heartbeat as simulated time advances (seconds).
    /// Must be well below the coordination session timeout.
    pub heartbeat_interval_s: f64,
    /// Run failure detection + repair automatically before every served
    /// state report (a `StateRequest` to [`Nimbus::serve_step`]),
    /// tolerating a fully dead cluster (repair resumes once a machine
    /// restarts). When off, the embedder drives
    /// [`Nimbus::detect_and_repair`] itself.
    pub auto_repair: bool,
    /// Retry/timeout/backoff knobs for the request/response exchange
    /// ([`Nimbus::serve_step`] on this side, `AgentClient::reliable_call`
    /// on the other).
    pub retry: RetryPolicy,
}

impl Default for NimbusConfig {
    fn default() -> Self {
        NimbusConfig {
            measure: MeasureProtocol::paper(120.0),
            ident: "dss-nimbus/0.1".into(),
            heartbeat_interval_s: 5.0,
            auto_repair: false,
            retry: RetryPolicy::default(),
        }
    }
}

/// Result of deploying a scheduling solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeployOutcome {
    /// Executors whose machine changed (the rest were untouched —
    /// the paper's minimal-impact deployment).
    pub moved: usize,
    /// Version of the assignment znode after the update.
    pub assignment_version: u64,
}

/// The master: owns the simulated cluster, keeps the authoritative
/// scheduling solution in the coordination service, and serves the
/// external DRL agent over the socket protocol.
pub struct Nimbus {
    pub(crate) coord: CoordService,
    pub(crate) session: Session,
    pub(crate) engine: SimEngine,
    pub(crate) workload: Workload,
    pub(crate) config: NimbusConfig,
    pub(crate) epoch: u64,
    pub(crate) assignment_version: u64,
    /// Which master incarnation this is: 0 for the original, bumped by
    /// every failover promotion ([`crate::failover::NimbusSet`]).
    pub(crate) generation: u64,
    /// Supervisor daemons driven by this master's clock advancement
    /// (attach with [`Nimbus::attach_supervisors`]).
    pub(crate) supervisors: Option<SupervisorSet>,
    /// Whether the first (catch-up-eligible) measurement has happened.
    pub(crate) measured_once: bool,
    /// Scheduled machine faults, fired as simulated time advances.
    pub(crate) faults: Option<FaultCursor>,
    /// Repairs performed by [`Nimbus::detect_and_repair`].
    pub(crate) repairs: usize,
    /// Whether a coordination session expired since the last completed
    /// repair check. While false, [`Nimbus::detect_and_repair`] early-outs
    /// without enumerating supervisors — healthy (or merely stalled)
    /// epochs cost O(1), not O(cluster).
    pub(crate) suspect: bool,
    /// Full live-machine scans performed by [`Nimbus::detect_and_repair`].
    pub(crate) repair_scans: usize,
    /// Simulated time and outcome of the latest repair.
    pub(crate) last_repair: Option<(f64, DeployOutcome)>,
    /// Reliable-exchange state: duplicate suppression + response replay.
    pub(crate) reliable: ReliableServer,
}

impl Nimbus {
    /// Register the topology, store the initial assignment, and deploy it.
    pub fn launch(
        mut engine: SimEngine,
        workload: Workload,
        initial: Assignment,
        coord: &CoordService,
        config: NimbusConfig,
    ) -> Result<Self, NimbusError> {
        let session = coord.connect();
        StormPaths::bootstrap(&session)?;
        let name = engine.topology().name().to_string();
        session.ensure_path(&StormPaths::storm(&name), name.as_bytes())?;
        let payload = storm::encode_assignment(initial.as_slice(), initial.n_machines());
        let assign_path = StormPaths::assignment(&name);
        let stat = match session.create(&assign_path, &payload, CreateMode::Persistent) {
            Ok(stat) => stat,
            Err(dss_coord::CoordError::NodeExists(_)) => {
                session.set_data(&assign_path, &payload, None)?
            }
            Err(e) => return Err(e.into()),
        };
        session.ensure_path(&StormPaths::workerbeats(&name), b"")?;
        engine.set_workload(workload.clone());
        engine.deploy(initial)?;
        Ok(Nimbus {
            coord: coord.clone(),
            session,
            engine,
            workload,
            config,
            epoch: 0,
            assignment_version: stat.version,
            generation: 0,
            supervisors: None,
            measured_once: false,
            faults: None,
            repairs: 0,
            // Conservative start: nothing is known about pre-launch
            // supervisor state, so the first repair check does a full scan.
            suspect: true,
            repair_scans: 0,
            last_repair: None,
            reliable: ReliableServer::default(),
        })
    }

    /// Install a deterministic machine-fault schedule: events fire at
    /// their simulated times while the master advances the clock
    /// ([`Nimbus::advance`]), so every run replays the same failure
    /// trace. Requires supervisors to be attached before time advances
    /// past the first event (crashes silence the daemon; restarts
    /// re-register it).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if let Some(max) = plan.max_machine() {
            assert!(
                max < self.engine.cluster().n_machines(),
                "fault plan touches machine {max}, cluster has {}",
                self.engine.cluster().n_machines()
            );
        }
        self.faults = Some(FaultCursor::new(plan));
    }

    /// Repairs performed so far by [`Nimbus::detect_and_repair`].
    pub fn repair_count(&self) -> usize {
        self.repairs
    }

    /// Full live-machine scans performed so far by
    /// [`Nimbus::detect_and_repair`]. Healthy epochs (no session expiry
    /// since the last completed check) skip the scan entirely, so on a
    /// fleet this stays near zero instead of growing by `M` every epoch.
    pub fn repair_scans(&self) -> usize {
        self.repair_scans
    }

    /// Simulated time and outcome of the latest repair, if any.
    pub fn last_repair(&self) -> Option<(f64, DeployOutcome)> {
        self.last_repair
    }

    /// Attach the supervisor daemons so they heartbeat whenever this
    /// master advances simulated time (real daemons beat on their own
    /// timers; in the discrete-event embedding, clock advancement is the
    /// timer).
    pub fn attach_supervisors(&mut self, supervisors: SupervisorSet) {
        self.supervisors = Some(supervisors);
    }

    /// Take the supervisor daemons back (they outlive a crashed master:
    /// worker processes keep running while the control plane fails over).
    pub fn detach_supervisors(&mut self) -> Option<SupervisorSet> {
        self.supervisors.take()
    }

    /// Which master incarnation this is (0 until a failover promotes a
    /// standby).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Crash a machine: the simulated hardware stops processing (queues
    /// feeding its executors back up and overflow) and its supervisor
    /// daemon goes silent (its session expires after the coordination
    /// timeout, at which point [`Nimbus::detect_and_repair`] sees it).
    ///
    /// # Panics
    /// Panics if no supervisors are attached.
    pub fn crash_machine(&mut self, machine: usize) {
        self.engine.fail_machine(machine);
        self.supervisors
            .as_mut()
            .expect("no supervisors attached")
            .crash(machine);
    }

    /// Restart a crashed machine: hardware resumes and its supervisor
    /// daemon re-registers.
    ///
    /// # Panics
    /// Panics if no supervisors are attached.
    pub fn restart_machine(&mut self, machine: usize) -> Result<(), NimbusError> {
        self.engine.recover_machine(machine);
        let coord = self.coord.clone();
        self.supervisors
            .as_mut()
            .expect("no supervisors attached")
            .restart(&coord, machine)?;
        Ok(())
    }

    /// Advance simulated time to `t_end`, heartbeating the master session
    /// and any attached supervisors every `heartbeat_interval_s` — the
    /// liveness cadence of a healthy cluster — and firing any scheduled
    /// fault-plan events at their exact simulated times.
    pub fn advance(&mut self, t_end: f64) {
        let step = self.config.heartbeat_interval_s.max(1e-3);
        while self.engine.now() < t_end {
            let mut next = (self.engine.now() + step).min(t_end);
            // Stop precisely at the next scheduled fault so the crash or
            // restart lands at its planned instant, not a heartbeat later.
            if let Some(at) = self.faults.as_ref().and_then(FaultCursor::next_at) {
                if at <= next {
                    next = at.max(self.engine.now());
                }
            }
            self.engine.run_until(next);
            self.fire_due_faults();
            if self.sync_clock() > 0 {
                self.suspect = true;
            }
            if let Some(sup) = &self.supervisors {
                sup.heartbeat_all();
            }
            let _ = self.session.heartbeat();
        }
    }

    /// Apply every fault-plan event due at the current clock.
    fn fire_due_faults(&mut self) {
        let Some(cursor) = &mut self.faults else {
            return;
        };
        let due = cursor.due(self.engine.now());
        for ev in due {
            match ev.kind {
                FaultKind::Crash => {
                    self.engine.fail_machine(ev.machine);
                    if let Some(sup) = &mut self.supervisors {
                        sup.crash(ev.machine);
                    }
                }
                FaultKind::Restart => {
                    self.engine.recover_machine(ev.machine);
                    if let Some(sup) = &mut self.supervisors {
                        // A failed re-registration leaves the supervisor
                        // down; the master keeps treating the machine as
                        // dead, which is the conservative outcome.
                        let coord = self.coord.clone();
                        let _ = sup.restart(&coord, ev.machine);
                    }
                }
                // A master cannot execute its own death: `NimbusSet`
                // splits master events out of the plan before handing the
                // machine sub-plan to `Nimbus`.
                FaultKind::MasterCrash | FaultKind::MasterRestart => {}
            }
        }
    }

    /// Topology name.
    pub fn topology_name(&self) -> &str {
        self.engine.topology().name()
    }

    /// Current decision epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The simulated cluster (read access).
    pub fn engine(&self) -> &SimEngine {
        &self.engine
    }

    /// The simulated cluster (mutable, e.g. to advance time externally).
    pub fn engine_mut(&mut self) -> &mut SimEngine {
        &mut self.engine
    }

    /// Replace the workload (e.g. the Fig. 12 +50% step) and inform the
    /// engine.
    pub fn set_workload(&mut self, workload: Workload) {
        self.engine.set_workload(workload.clone());
        self.workload = workload;
    }

    /// Propagate simulated time into the coordination service so session
    /// expiry follows the cluster clock. Returns expired session count.
    pub fn sync_clock(&self) -> usize {
        let now_ms = (self.engine.now() * 1000.0) as u64;
        self.coord.advance_to(now_ms).len()
    }

    /// Keep the master's own coordination session alive.
    pub fn heartbeat(&self) -> Result<(), NimbusError> {
        self.session.heartbeat()?;
        Ok(())
    }

    /// The state message `s = (X, w)` for the current epoch: the current
    /// assignment, the base source rates, and the rate-schedule multiplier
    /// currently applied on top of them (so the agent knows the offered
    /// load it is about to be measured under).
    pub fn state_message(&self) -> Message {
        Message::StateReport {
            epoch: self.epoch,
            machine_of: self.engine.assignment().as_slice().to_vec(),
            n_machines: self.engine.cluster().n_machines(),
            source_rates: self
                .workload
                .rates()
                .iter()
                .map(|&(comp, rate)| (comp as u32, rate))
                .collect(),
            rate_multiplier: self.engine.rate_schedule().multiplier_at(self.engine.now()),
        }
    }

    /// Runtime statistics of the embedded cluster as a protocol message.
    pub fn stats_message(&mut self) -> Message {
        let stats = self.engine.stats();
        Message::StatsReport {
            avg_latency_ms: stats.avg_latency_ms,
            executor_rates: stats.executor_rates,
            executor_sojourn_ms: stats.executor_sojourn_ms,
            machine_cpu_cores: stats.machine_cpu_cores,
            machine_cross_kib_s: stats.machine_cross_kib_s,
            edge_transfer_ms: stats.edge_transfer_ms,
            completed: stats.completed,
            failed: stats.failed,
        }
    }

    /// Apply a base-workload update reported by the agent. Rates must
    /// address valid components; an unchanged workload is a no-op (so a
    /// redundant update cannot perturb the engine).
    pub fn apply_workload_update(&mut self, rates: &[(u32, f64)]) -> Result<(), NimbusError> {
        let rates: Vec<(usize, f64)> = rates.iter().map(|&(c, r)| (c as usize, r)).collect();
        let next = Workload::new(rates, self.engine.topology())
            .map_err(|e| NimbusError::InvalidWorkload(e.to_string()))?;
        if self.workload != next {
            self.set_workload(next);
        }
        Ok(())
    }

    /// Validate and deploy a scheduling solution, updating the assignment
    /// znode with a conditional write (version CAS) and advancing the
    /// epoch.
    pub fn apply_solution(&mut self, machine_of: &[usize]) -> Result<DeployOutcome, NimbusError> {
        let n = self.engine.topology().n_executors();
        let m = self.engine.cluster().n_machines();
        if machine_of.len() != n {
            return Err(NimbusError::InvalidSolution(format!(
                "expected {n} executors, got {}",
                machine_of.len()
            )));
        }
        if let Some(&bad) = machine_of.iter().find(|&&mm| mm >= m) {
            return Err(NimbusError::InvalidSolution(format!(
                "machine index {bad} out of range (cluster has {m})"
            )));
        }
        let next = Assignment::new(machine_of.to_vec(), m)
            .map_err(|e| NimbusError::InvalidSolution(e.to_string()))?;
        let moved = self.engine.assignment().diff(&next).len();
        self.engine.deploy(next)?;
        let payload = storm::encode_assignment(machine_of, m);
        let path = StormPaths::assignment(self.topology_name());
        let stat = self
            .session
            .set_data(&path, &payload, Some(self.assignment_version))?;
        self.assignment_version = stat.version;
        self.epoch += 1;
        Ok(DeployOutcome {
            moved,
            assignment_version: stat.version,
        })
    }

    /// Read back the authoritative assignment from the coordination
    /// service (what a recovering master would do).
    pub fn stored_assignment(&self) -> Result<Assignment, NimbusError> {
        let path = StormPaths::assignment(self.topology_name());
        let (data, _) = self.session.get_data(&path)?;
        let (machine_of, m) = storm::decode_assignment(&data).ok_or_else(|| {
            NimbusError::InvalidSolution("stored assignment payload corrupt".into())
        })?;
        Assignment::new(machine_of, m).map_err(|e| NimbusError::InvalidSolution(e.to_string()))
    }

    /// Measure the reward for the last deployment under the configured
    /// [`MeasureProtocol`]. Returns the individual samples and their mean,
    /// or `None` if the latency window stayed empty.
    pub fn measure_reward(&mut self) -> Option<(Vec<f64>, f64)> {
        match self.config.measure {
            MeasureProtocol::Paper {
                stabilize_s,
                interval_s,
                samples: n_samples,
            } => {
                let t = self.engine.now() + stabilize_s;
                self.advance(t);
                // Mirror SimEngine::measure_avg_latency_ms but keep the
                // samples, since the protocol's RewardReport carries them.
                let mut samples = Vec::new();
                for _ in 0..n_samples {
                    let t = self.engine.now() + interval_s;
                    self.advance(t);
                    if let Some(v) = self.engine.window_avg_latency_ms() {
                        samples.push(v);
                    }
                }
                self.measured_once = true;
                if samples.is_empty() {
                    return None;
                }
                let mean = samples.iter().sum::<f64>() / samples.len() as f64;
                Some((samples, mean))
            }
            MeasureProtocol::Epoch {
                epoch_s,
                catchup_epochs,
            } => {
                let mut ms = self.step_epoch(epoch_s);
                // Catch-up applies to the COLD START only: before the
                // first measurement nothing may have completed yet through
                // no fault of the assignment. A warm-run empty window is a
                // total stall and earns its empty report after one epoch —
                // decision cadence never degrades mid-run.
                if !self.measured_once {
                    let mut catchup = 0;
                    while ms.is_none() && catchup < catchup_epochs {
                        ms = self.step_epoch(epoch_s);
                        catchup += 1;
                    }
                }
                self.measured_once = true;
                ms.map(|v| (vec![v], v))
            }
        }
    }

    /// Advance one decision epoch (heartbeating and firing faults on the
    /// way) and read the sliding-window average latency at the new clock.
    fn step_epoch(&mut self, epoch_s: f64) -> Option<f64> {
        let t = self.engine.now() + epoch_s;
        self.advance(t);
        self.engine.window_avg_latency_ms()
    }

    /// Server-side handshake: announce ourselves, expect the agent.
    pub fn handshake(&self, transport: &dyn Transport) -> Result<String, NimbusError> {
        transport.send(&Message::Hello {
            role: dss_proto::message::Role::Scheduler,
            ident: self.config.ident.clone(),
        })?;
        match transport.recv()? {
            Message::Hello {
                role: dss_proto::message::Role::Agent,
                ident,
            } => Ok(ident),
            _ => Err(NimbusError::UnexpectedMessage("awaiting agent hello")),
        }
    }

    /// Serve one message of the request/response exchange, waiting at
    /// most `wait` for one to arrive.
    ///
    /// The agent initiates every exchange — state fetch, workload update,
    /// scheduling solution, stats, resume — with a sequence-numbered
    /// [`Message::Wrapped`] request (`AgentClient::reliable_call` on the
    /// other side), and the master answers with a response wrapped in the
    /// same sequence number (or a bare [`Message::Ack`] when the request
    /// has no payload to return). A retransmitted request — same sequence
    /// number — is *not* re-applied: the cached response is replayed,
    /// making retransmits idempotent even for state-changing requests
    /// like scheduling solutions. Recoverable problems (stale epoch,
    /// invalid solution, invalid workload) are answered with a wrapped
    /// [`Message::Error`] rather than killing the serve loop.
    pub fn serve_step(
        &mut self,
        transport: &dyn Transport,
        wait: Duration,
    ) -> Result<ServeStep, NimbusError> {
        let msg = match transport.recv_timeout(wait) {
            Ok(Some(m)) => m,
            Ok(None) | Err(ProtoError::Timeout) => return Ok(ServeStep::Idle),
            Err(ProtoError::Disconnected) => return Ok(ServeStep::Goodbye),
            Err(e) => return Err(e.into()),
        };
        match msg {
            Message::Wrapped { seq, inner } => {
                if seq <= self.reliable.last_seq {
                    // Duplicate (a retransmit or a delayed copy of an
                    // already-processed call): replay the cached answer;
                    // if it aged out of the window, a bare ack lets the
                    // caller at least stop retransmitting.
                    let resp = self
                        .reliable
                        .cached(seq)
                        .cloned()
                        .unwrap_or(Message::Ack { seq });
                    return self.reply(transport, &resp, ServeStep::Served);
                }
                if matches!(*inner, Message::Bye) {
                    let resp = Message::Ack { seq };
                    self.reliable.record(seq, resp.clone());
                    return self.reply(transport, &resp, ServeStep::Goodbye);
                }
                let resp = match self.handle_request(*inner)? {
                    Some(r) => Message::Wrapped {
                        seq,
                        inner: Box::new(r),
                    },
                    None => Message::Ack { seq },
                };
                self.reliable.record(seq, resp.clone());
                self.reply(transport, &resp, ServeStep::Served)
            }
            // Plain (unwrapped) control traffic stays meaningful so the
            // orderly-shutdown path and liveness checks need no envelope.
            Message::Bye => Ok(ServeStep::Goodbye),
            Message::Heartbeat { .. } => {
                let beat = Message::Heartbeat {
                    now_ms: (self.engine.now() * 1000.0) as u64,
                };
                self.reply(transport, &beat, ServeStep::Served)
            }
            _ => Err(NimbusError::UnexpectedMessage("reliable serve")),
        }
    }

    /// Send a reliable-exchange response, treating a vanished agent as an
    /// orderly goodbye.
    fn reply(
        &self,
        transport: &dyn Transport,
        resp: &Message,
        then: ServeStep,
    ) -> Result<ServeStep, NimbusError> {
        match transport.send(resp) {
            Ok(()) => Ok(then),
            Err(ProtoError::Disconnected) => Ok(ServeStep::Goodbye),
            // The response may be lost to a send deadline; the agent's
            // retransmit will trigger a cached replay.
            Err(ProtoError::Timeout) => Ok(then),
            Err(e) => Err(e.into()),
        }
    }

    /// Apply one reliable request and build its response. `Ok(None)`
    /// means "acknowledge without payload".
    fn handle_request(&mut self, request: Message) -> Result<Option<Message>, NimbusError> {
        match request {
            Message::StateRequest => {
                if self.config.auto_repair {
                    match self.detect_and_repair() {
                        // A fully dead cluster has nothing to repair
                        // *onto*; keep serving (measurements will report
                        // an empty window) until a restart revives a
                        // machine and repair resumes.
                        Ok(_) | Err(NimbusError::NoLiveMachines) => {}
                        Err(e) => return Err(e),
                    }
                }
                Ok(Some(self.state_message()))
            }
            Message::SchedulingSolution {
                epoch,
                machine_of,
                n_machines,
            } => {
                if epoch != self.epoch {
                    return Ok(Some(Message::Error {
                        code: 1,
                        detail: format!("stale epoch {epoch}, expected {}", self.epoch),
                    }));
                }
                if n_machines != self.engine.cluster().n_machines() {
                    return Ok(Some(Message::Error {
                        code: 3,
                        detail: format!("agent believes cluster has {n_machines} machines"),
                    }));
                }
                match self.apply_solution(&machine_of) {
                    Ok(_) => {}
                    Err(NimbusError::InvalidSolution(why)) => {
                        return Ok(Some(Message::Error {
                            code: 2,
                            detail: why,
                        }))
                    }
                    Err(e) => return Err(e),
                }
                let (measurements, mean) = self.measure_reward().unwrap_or((Vec::new(), 0.0));
                Ok(Some(Message::RewardReport {
                    // The reward answers the *previous* epoch's state.
                    epoch: self.epoch - 1,
                    avg_tuple_ms: mean,
                    measurements,
                }))
            }
            Message::WorkloadUpdate { source_rates } => {
                match self.apply_workload_update(&source_rates) {
                    Ok(()) => Ok(None),
                    Err(NimbusError::InvalidWorkload(why)) => Ok(Some(Message::Error {
                        code: 4,
                        detail: why,
                    })),
                    Err(e) => Err(e),
                }
            }
            Message::StatsRequest => Ok(Some(self.stats_message())),
            Message::Heartbeat { .. } => Ok(Some(Message::Heartbeat {
                now_ms: (self.engine.now() * 1000.0) as u64,
            })),
            // An agent re-discovering its master after a failover: announce
            // which incarnation is serving. The agent compares the
            // generation against the one it last saw to learn whether its
            // in-flight call may have been lost with the old master.
            Message::Resume { .. } => Ok(Some(Message::MasterAnnounce {
                generation: self.generation,
                ident: self.config.ident.clone(),
            })),
            _ => Err(NimbusError::UnexpectedMessage("reliable request")),
        }
    }

    /// Which machines currently have a live supervisor znode.
    pub fn live_machines(&self) -> Result<Vec<bool>, NimbusError> {
        let m = self.engine.cluster().n_machines();
        let mut live = vec![false; m];
        for name in self.session.get_children("/storm/supervisors")? {
            if let Some(idx) = name
                .strip_prefix("machine-")
                .and_then(|s| s.parse::<usize>().ok())
            {
                if idx < m {
                    live[idx] = true;
                }
            }
        }
        Ok(live)
    }

    /// Compute a repair assignment: executors on dead machines move to the
    /// live machine currently hosting the fewest executors (balancing the
    /// displaced load); everything else stays put (minimal impact).
    pub fn repair_assignment(&self, live: &[bool]) -> Result<Option<Vec<usize>>, NimbusError> {
        if live.iter().all(|&l| l) {
            return Ok(None);
        }
        if !live.iter().any(|&l| l) {
            return Err(NimbusError::NoLiveMachines);
        }
        let current = self.engine.assignment().as_slice();
        if current.iter().all(|&m| live[m]) {
            return Ok(None);
        }
        let mut loads = vec![0usize; live.len()];
        for &m in current {
            loads[m] += 1;
        }
        let mut repaired = current.to_vec();
        for slot in repaired.iter_mut() {
            if !live[*slot] {
                let target = (0..live.len())
                    .filter(|&m| live[m])
                    .min_by_key(|&m| loads[m])
                    .expect("at least one live machine");
                loads[*slot] -= 1;
                loads[target] += 1;
                *slot = target;
            }
        }
        Ok(Some(repaired))
    }

    /// Failure-handling tick: detect dead machines via the coordination
    /// service and redeploy their executors onto live machines. Returns
    /// the deployment outcome if a repair was needed, and the typed
    /// [`NimbusError::NoLiveMachines`] — never a panic or a hang — when
    /// executors are stranded but zero machines remain live.
    ///
    /// Scan cost follows *failures*, not cluster size: the full
    /// live-machine enumeration only runs while a heartbeat session has
    /// expired since the last completed check ([`Nimbus::repair_scans`]
    /// counts them). A healthy fleet — or one merely stalled through
    /// empty-window penalty epochs — pays O(1) per tick. A failed repair
    /// (e.g. [`NimbusError::NoLiveMachines`]) leaves the suspicion armed,
    /// so the next tick retries.
    pub fn detect_and_repair(&mut self) -> Result<Option<DeployOutcome>, NimbusError> {
        if self.sync_clock() > 0 {
            self.suspect = true;
        }
        if !self.suspect {
            return Ok(None);
        }
        self.repair_scans += 1;
        let live = self.live_machines()?;
        let outcome = match self.repair_assignment(&live)? {
            Some(repaired) => {
                let outcome = self.apply_solution(&repaired)?;
                self.repairs += 1;
                self.last_repair = Some((self.engine.now(), outcome));
                Some(outcome)
            }
            None => None,
        };
        self.suspect = false;
        Ok(outcome)
    }
}

/// What one [`Nimbus::serve_step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeStep {
    /// Nothing arrived within the wait.
    Idle,
    /// One request was answered (possibly a duplicate replay).
    Served,
    /// The agent said goodbye (or its transport vanished).
    Goodbye,
}

/// How many `(seq, response)` pairs [`ReliableServer`] keeps for replay.
/// Deep enough to cover a full retry burst plus a few delayed duplicates;
/// older retransmits still get a bare ack so the caller stops resending.
const RESPONSE_CACHE: usize = 32;

/// Master-side state of the reliable exchange: the highest sequence
/// number already applied (for duplicate suppression) and a bounded cache
/// of recent responses (for idempotent retransmit replay).
#[derive(Debug, Default)]
pub(crate) struct ReliableServer {
    /// Highest request sequence number applied so far.
    pub(crate) last_seq: u64,
    /// Recent `(seq, response)` pairs, oldest first.
    pub(crate) cache: VecDeque<(u64, Message)>,
}

impl ReliableServer {
    /// The cached response for `seq`, if it has not aged out.
    fn cached(&self, seq: u64) -> Option<&Message> {
        self.cache.iter().find(|(s, _)| *s == seq).map(|(_, m)| m)
    }

    /// Record the response for a newly applied request.
    fn record(&mut self, seq: u64, response: Message) {
        self.last_seq = self.last_seq.max(seq);
        self.cache.push_back((seq, response));
        while self.cache.len() > RESPONSE_CACHE {
            self.cache.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_coord::CoordConfig;
    use dss_sim::{ClusterSpec, SimConfig, TopologyBuilder};

    fn small_engine() -> (SimEngine, Workload, Assignment) {
        let mut b = TopologyBuilder::new("test-topo");
        let spout = b.spout("spout", 2, 0.05);
        let bolt = b.bolt("bolt", 4, 0.2);
        b.edge(spout, bolt, dss_sim::Grouping::Shuffle, 1.0, 64);
        let topology = b.build().unwrap();
        let cluster = ClusterSpec::homogeneous(4);
        let workload = Workload::uniform(&topology, 50.0);
        let assignment = Assignment::round_robin(&topology, &cluster);
        let engine =
            SimEngine::new(topology, cluster, workload.clone(), SimConfig::default()).unwrap();
        (engine, workload, assignment)
    }

    fn launch() -> (Nimbus, CoordService) {
        let coord = CoordService::new(CoordConfig {
            session_timeout_ms: 5_000,
        });
        let (engine, workload, assignment) = small_engine();
        let nimbus = Nimbus::launch(
            engine,
            workload,
            assignment,
            &coord,
            NimbusConfig {
                measure: MeasureProtocol::paper(5.0),
                ident: "test".into(),
                heartbeat_interval_s: 1.0,
                auto_repair: false,
                retry: RetryPolicy::default(),
            },
        )
        .unwrap();
        (nimbus, coord)
    }

    #[test]
    fn launch_registers_topology_and_assignment() {
        let (nimbus, coord) = launch();
        let probe = coord.connect();
        assert!(probe.exists("/storm/storms/test-topo").unwrap().is_some());
        let stored = nimbus.stored_assignment().unwrap();
        assert_eq!(stored.as_slice(), nimbus.engine().assignment().as_slice());
    }

    #[test]
    fn apply_solution_moves_executors_and_bumps_version() {
        let (mut nimbus, _coord) = launch();
        let mut solution = nimbus.engine().assignment().as_slice().to_vec();
        solution[0] = (solution[0] + 1) % 4;
        solution[1] = (solution[1] + 1) % 4;
        let outcome = nimbus.apply_solution(&solution).unwrap();
        assert_eq!(outcome.moved, 2);
        assert_eq!(nimbus.epoch(), 1);
        assert_eq!(
            nimbus.stored_assignment().unwrap().as_slice(),
            &solution[..]
        );
    }

    #[test]
    fn apply_solution_validates_shape() {
        let (mut nimbus, _coord) = launch();
        assert!(matches!(
            nimbus.apply_solution(&[0, 1]),
            Err(NimbusError::InvalidSolution(_))
        ));
        let n = nimbus.engine().topology().n_executors();
        assert!(matches!(
            nimbus.apply_solution(&vec![99; n]),
            Err(NimbusError::InvalidSolution(_))
        ));
    }

    #[test]
    fn measure_reward_returns_paper_protocol_samples() {
        let (mut nimbus, _coord) = launch();
        let (samples, mean) = nimbus.measure_reward().unwrap();
        assert_eq!(samples.len(), 5);
        assert!(mean > 0.0);
        let expect = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - expect).abs() < 1e-12);
    }

    #[test]
    fn repair_moves_executors_off_dead_machines_only() {
        let (nimbus, _coord) = launch();
        let current = nimbus.engine().assignment().as_slice().to_vec();
        let live = vec![true, false, true, true];
        let repaired = nimbus.repair_assignment(&live).unwrap().unwrap();
        for (i, (&old, &new)) in current.iter().zip(&repaired).enumerate() {
            if old == 1 {
                assert_ne!(new, 1, "executor {i} must leave the dead machine");
            } else {
                assert_eq!(new, old, "executor {i} must not move");
            }
        }
        // All-live needs no repair; all-dead is an error.
        assert!(nimbus.repair_assignment(&[true; 4]).unwrap().is_none());
        assert!(matches!(
            nimbus.repair_assignment(&[false; 4]),
            Err(NimbusError::NoLiveMachines)
        ));
    }

    #[test]
    fn detect_and_repair_after_supervisor_crash() {
        let (mut nimbus, coord) = launch();
        let sup = crate::supervisor::SupervisorSet::register(&coord, 4).unwrap();
        nimbus.attach_supervisors(sup);
        // Everything healthy: no repair.
        nimbus.advance(1.0);
        assert!(nimbus.detect_and_repair().unwrap().is_none());

        // Crash machine 2 and let its session expire on the sim clock;
        // `advance` keeps the live daemons heartbeating.
        nimbus.crash_machine(2);
        nimbus.advance(11.0); // 10 s of silence > the 5 s session timeout
        let outcome = nimbus.detect_and_repair().unwrap().unwrap();
        assert!(outcome.moved > 0);
        assert!(nimbus
            .engine()
            .assignment()
            .as_slice()
            .iter()
            .all(|&m| m != 2));
    }

    #[test]
    fn healthy_epochs_skip_full_cluster_repair_scans() {
        let (mut nimbus, coord) = launch();
        let sup = crate::supervisor::SupervisorSet::register(&coord, 4).unwrap();
        nimbus.attach_supervisors(sup);
        // First check: conservative full scan (pre-launch state unknown).
        assert!(nimbus.detect_and_repair().unwrap().is_none());
        assert_eq!(nimbus.repair_scans(), 1);
        // Healthy heartbeating epochs: no session expires, so repeated
        // repair ticks never enumerate the cluster again.
        for _ in 0..5 {
            let t = nimbus.engine().now() + 1.0;
            nimbus.advance(t);
            assert!(nimbus.detect_and_repair().unwrap().is_none());
        }
        assert_eq!(nimbus.repair_scans(), 1, "healthy epochs must not rescan");
        // A crash expires a session and re-arms the detector.
        nimbus.crash_machine(3);
        let t = nimbus.engine().now() + 10.0; // > the 5 s session timeout
        nimbus.advance(t);
        assert!(nimbus.detect_and_repair().unwrap().is_some());
        assert_eq!(nimbus.repair_scans(), 2);
        assert_eq!(nimbus.repair_count(), 1);
        // Repaired: later healthy (post-expiry) epochs skip again, even
        // though machine 3 is still down.
        let t = nimbus.engine().now() + 3.0;
        nimbus.advance(t);
        assert!(nimbus.detect_and_repair().unwrap().is_none());
        assert_eq!(nimbus.repair_scans(), 2);
    }

    #[test]
    fn restart_rejoins_the_cluster() {
        let (mut nimbus, coord) = launch();
        let sup = crate::supervisor::SupervisorSet::register(&coord, 4).unwrap();
        nimbus.attach_supervisors(sup);
        nimbus.crash_machine(1);
        nimbus.advance(11.0);
        assert_eq!(
            nimbus.live_machines().unwrap(),
            vec![true, false, true, true]
        );
        nimbus.restart_machine(1).unwrap();
        assert_eq!(nimbus.live_machines().unwrap(), vec![true; 4]);
    }

    #[test]
    fn detect_and_repair_with_zero_live_machines_is_a_typed_error() {
        // Crash EVERY machine: detection must surface the typed
        // `NoLiveMachines` — no panic, no hang — and the master must keep
        // functioning (state reports, clock advancement) afterwards.
        let (mut nimbus, coord) = launch();
        let sup = crate::supervisor::SupervisorSet::register(&coord, 4).unwrap();
        nimbus.attach_supervisors(sup);
        for m in 0..4 {
            nimbus.crash_machine(m);
        }
        nimbus.advance(11.0); // all sessions expire (5 s timeout)
        assert_eq!(nimbus.live_machines().unwrap(), vec![false; 4]);
        assert!(matches!(
            nimbus.detect_and_repair(),
            Err(NimbusError::NoLiveMachines)
        ));
        assert_eq!(nimbus.repair_count(), 0);
        // The master itself is still alive: time advances, state reports
        // build, and once a machine restarts the repair goes through.
        nimbus.advance(12.0);
        let _ = nimbus.state_message();
        nimbus.restart_machine(2).unwrap();
        let outcome = nimbus.detect_and_repair().unwrap().unwrap();
        assert!(outcome.moved > 0);
        assert_eq!(nimbus.repair_count(), 1);
        let (at, last) = nimbus.last_repair().unwrap();
        assert_eq!(last, outcome);
        assert!(at >= 12.0);
        assert!(nimbus
            .engine()
            .assignment()
            .as_slice()
            .iter()
            .all(|&m| m == 2));
    }

    #[test]
    fn epoch_measure_steps_exactly_one_epoch_once_warm() {
        let coord = CoordService::new(CoordConfig {
            session_timeout_ms: 60_000,
        });
        let (engine, workload, assignment) = small_engine();
        let mut nimbus = Nimbus::launch(
            engine,
            workload,
            assignment,
            &coord,
            NimbusConfig {
                measure: MeasureProtocol::epoch(2.0),
                ident: "epoch-test".into(),
                heartbeat_interval_s: 1.0,
                auto_repair: false,
                retry: RetryPolicy::default(),
            },
        )
        .unwrap();
        // Cold start: catch-up may step extra epochs while the window is
        // empty, but must produce a sample here (workload is healthy).
        let (samples, mean) = nimbus.measure_reward().unwrap();
        assert_eq!(samples, vec![mean]);
        assert!(mean > 0.0);
        // Warm: exactly one epoch per measurement.
        let before = nimbus.engine().now();
        let _ = nimbus.measure_reward().unwrap();
        assert!((nimbus.engine().now() - before - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fault_plan_fires_at_exact_times_and_auto_repair_recovers() {
        let coord = CoordService::new(CoordConfig {
            session_timeout_ms: 3_000,
        });
        let (engine, workload, assignment) = small_engine();
        let mut nimbus = Nimbus::launch(
            engine,
            workload,
            assignment,
            &coord,
            NimbusConfig {
                measure: MeasureProtocol::epoch(1.0),
                ident: "fault-test".into(),
                heartbeat_interval_s: 1.0,
                auto_repair: true,
                retry: RetryPolicy::default(),
            },
        )
        .unwrap();
        let sup = crate::supervisor::SupervisorSet::register(&coord, 4).unwrap();
        nimbus.attach_supervisors(sup);
        nimbus.set_fault_plan(crate::fault::FaultPlan::crash_at(1, 2.5).and_restart(1, 20.0));

        // Before the event: machine healthy.
        nimbus.advance(2.0);
        assert!(!nimbus.engine().machine_failed(1));
        // Crossing 2.5 s fires the crash mid-stride.
        nimbus.advance(3.0);
        assert!(nimbus.engine().machine_failed(1));
        // After the 3 s session timeout the repair happens.
        nimbus.advance(7.0);
        let outcome = nimbus.detect_and_repair().unwrap().unwrap();
        assert!(outcome.moved > 0);
        assert!(nimbus
            .engine()
            .assignment()
            .as_slice()
            .iter()
            .all(|&m| m != 1));
        // The restart event revives the machine and its supervisor.
        nimbus.advance(21.0);
        assert!(!nimbus.engine().machine_failed(1));
        assert_eq!(nimbus.live_machines().unwrap(), vec![true; 4]);
    }

    #[test]
    fn serve_step_answers_wrapped_requests_and_replays_duplicates() {
        let (mut nimbus, _coord) = launch();
        let (master_side, agent_side) = dss_proto::ChannelTransport::pair();

        // Idle when nothing is queued.
        assert_eq!(
            nimbus.serve_step(&master_side, Duration::ZERO).unwrap(),
            ServeStep::Idle
        );

        // A state request is answered under the same sequence number.
        agent_side
            .send(&Message::Wrapped {
                seq: 1,
                inner: Box::new(Message::StateRequest),
            })
            .unwrap();
        assert_eq!(
            nimbus.serve_step(&master_side, Duration::ZERO).unwrap(),
            ServeStep::Served
        );
        match agent_side.recv_timeout(Duration::ZERO).unwrap().unwrap() {
            Message::Wrapped { seq: 1, inner } => {
                assert!(matches!(*inner, Message::StateReport { .. }))
            }
            other => panic!("expected wrapped state report, got {other:?}"),
        }

        // Apply a solution once...
        let mut solution = nimbus.engine().assignment().as_slice().to_vec();
        solution[0] = (solution[0] + 1) % 4;
        let call = Message::Wrapped {
            seq: 2,
            inner: Box::new(Message::SchedulingSolution {
                epoch: 0,
                machine_of: solution.clone(),
                n_machines: 4,
            }),
        };
        agent_side.send(&call).unwrap();
        nimbus.serve_step(&master_side, Duration::ZERO).unwrap();
        let first = agent_side.recv_timeout(Duration::ZERO).unwrap().unwrap();
        assert!(matches!(
            &first,
            Message::Wrapped { seq: 2, inner } if matches!(**inner, Message::RewardReport { epoch: 0, .. })
        ));
        assert_eq!(nimbus.epoch(), 1, "solution applied exactly once");

        // ...then retransmit the identical call: the engine must NOT
        // advance again, and the cached reward report is replayed.
        agent_side.send(&call).unwrap();
        nimbus.serve_step(&master_side, Duration::ZERO).unwrap();
        let replay = agent_side.recv_timeout(Duration::ZERO).unwrap().unwrap();
        assert_eq!(nimbus.epoch(), 1, "duplicate must not re-apply");
        match (&first, &replay) {
            (Message::Wrapped { inner: a, .. }, Message::Wrapped { inner: b, .. }) => {
                match (&**a, &**b) {
                    (
                        Message::RewardReport {
                            avg_tuple_ms: x, ..
                        },
                        Message::RewardReport {
                            avg_tuple_ms: y, ..
                        },
                    ) => assert_eq!(x, y, "replay must be byte-for-byte the cached answer"),
                    other => panic!("expected reward reports, got {other:?}"),
                }
            }
            other => panic!("expected wrapped replays, got {other:?}"),
        }

        // A stale-epoch solution gets a typed code-1 error reply, not a
        // dead master.
        agent_side
            .send(&Message::Wrapped {
                seq: 3,
                inner: Box::new(Message::SchedulingSolution {
                    epoch: 0,
                    machine_of: solution,
                    n_machines: 4,
                }),
            })
            .unwrap();
        assert_eq!(
            nimbus.serve_step(&master_side, Duration::ZERO).unwrap(),
            ServeStep::Served
        );
        match agent_side.recv_timeout(Duration::ZERO).unwrap().unwrap() {
            Message::Wrapped { seq: 3, inner } => {
                assert!(matches!(*inner, Message::Error { code: 1, .. }))
            }
            other => panic!("expected wrapped stale-epoch error, got {other:?}"),
        }

        // A wrapped goodbye is acknowledged and ends the exchange.
        agent_side
            .send(&Message::Wrapped {
                seq: 4,
                inner: Box::new(Message::Bye),
            })
            .unwrap();
        assert_eq!(
            nimbus.serve_step(&master_side, Duration::ZERO).unwrap(),
            ServeStep::Goodbye
        );
        assert!(matches!(
            agent_side.recv_timeout(Duration::ZERO).unwrap().unwrap(),
            Message::Ack { seq: 4 }
        ));
    }

    #[test]
    fn serve_step_acknowledges_workload_updates_and_rejects_bad_ones() {
        let (mut nimbus, _coord) = launch();
        let (master_side, agent_side) = dss_proto::ChannelTransport::pair();
        agent_side
            .send(&Message::Wrapped {
                seq: 1,
                inner: Box::new(Message::WorkloadUpdate {
                    source_rates: vec![(0, 80.0)],
                }),
            })
            .unwrap();
        nimbus.serve_step(&master_side, Duration::ZERO).unwrap();
        assert!(matches!(
            agent_side.recv_timeout(Duration::ZERO).unwrap().unwrap(),
            Message::Ack { seq: 1 }
        ));
        assert_eq!(nimbus.engine().workload().rates(), &[(0, 80.0)]);

        // An invalid component id draws a wrapped code-4 error.
        agent_side
            .send(&Message::Wrapped {
                seq: 2,
                inner: Box::new(Message::WorkloadUpdate {
                    source_rates: vec![(99, 10.0)],
                }),
            })
            .unwrap();
        nimbus.serve_step(&master_side, Duration::ZERO).unwrap();
        match agent_side.recv_timeout(Duration::ZERO).unwrap().unwrap() {
            Message::Wrapped { seq: 2, inner } => {
                assert!(matches!(*inner, Message::Error { code: 4, .. }))
            }
            other => panic!("expected wrapped workload error, got {other:?}"),
        }
    }

    #[test]
    fn workload_update_changes_engine_rates() {
        let (mut nimbus, _coord) = launch();
        let before = nimbus.engine().workload().rates().to_vec();
        nimbus.apply_workload_update(&[(0, 75.0)]).unwrap();
        assert_eq!(nimbus.engine().workload().rates(), &[(0, 75.0)]);
        assert_ne!(nimbus.engine().workload().rates(), &before[..]);
        // Invalid component: typed error, workload untouched.
        assert!(matches!(
            nimbus.apply_workload_update(&[(99, 10.0)]),
            Err(NimbusError::InvalidWorkload(_))
        ));
        assert_eq!(nimbus.engine().workload().rates(), &[(0, 75.0)]);
    }
}
