//! Master failover: a leader-elected pool of Nimbus masters with
//! coordination-backed recovery.
//!
//! Storm's master is deliberately stateless-ish: everything Nimbus needs
//! to recover lives in ZooKeeper, so operators run several Nimbus
//! processes behind a leader election and a crashed leader is replaced by
//! a standby. [`NimbusSet`] reproduces that architecture against the
//! simulated cluster:
//!
//! * the active master commits a [`crate::persist::RecoveryImage`] after
//!   every served request that changed state (epoch advance, workload
//!   update — anything moving the reliable-exchange window);
//! * scripted [`FaultKind::MasterCrash`] events drop the leader's
//!   sessions without closing them (a crash, not a resignation): its
//!   election candidate znode lingers until the session expires on the
//!   coordination clock;
//! * the surviving standby wins [`LeaderElection::check`] once expiry
//!   promotes it, loads the newest image (coordination znode, superseded
//!   by a WAL-stranded copy if the writer died mid-commit), and rebuilds
//!   a [`Nimbus`] that resumes from the committed epoch — same engine
//!   state, same reliable window, same fault-plan position;
//! * with *no* standby, the set goes leaderless: requests fall on the
//!   floor (a dead NIC), the agent's reliable calls exhaust their retry
//!   budget and surface [`NimbusError::Unreachable`], and a scripted
//!   [`FaultKind::MasterRestart`] later refills the pool and promotes.
//!
//! Failovers happen at the request boundary — exactly where a real
//! single-threaded Nimbus event loop would die — so a promotion that
//! follows a committed epoch loses nothing: the rebuilt engine's clock,
//! RNG streams, and queues equal the dead leader's, and the trajectory
//! continues bit-identically to an uninterrupted run.

use std::time::Duration;

use dss_coord::{CoordService, ElectionState, LeaderElection};
use dss_proto::{Message, ProtoError, Transport};
use dss_sim::{Assignment, ClusterSpec, SimConfig, SimEngine, Topology, Workload};

use crate::error::NimbusError;
use crate::fault::{FaultCursor, FaultEvent, FaultKind, FaultPlan};
use crate::master::{Nimbus, NimbusConfig, ServeStep};
use crate::persist::{RecoveryImage, RecoveryStore};

/// Election parent znode for the master pool.
const ELECTION_PARENT: &str = "/storm/nimbus/election";

/// High-availability knobs for a [`NimbusSet`].
#[derive(Debug, Clone)]
pub struct HaConfig {
    /// Standby masters launched alongside the leader.
    pub standbys: usize,
    /// Directory for the recovery write-ahead log.
    pub wal_dir: std::path::PathBuf,
}

/// A pool of Nimbus masters behind a leader election, presenting the
/// single-master serve API while surviving scripted master crashes.
pub struct NimbusSet {
    coord: CoordService,
    /// Inputs needed to rebuild an engine for a promoted standby.
    topology: Topology,
    cluster: ClusterSpec,
    sim_config: SimConfig,
    config: NimbusConfig,
    /// The current leader and its election candidacy, if any master is up.
    active: Option<(Nimbus, LeaderElection)>,
    /// Standby candidates, each owning its own coordination session.
    standbys: Vec<LeaderElection>,
    /// Supervisors parked during a leaderless window (worker processes
    /// outlive the master).
    parked_supervisors: Option<crate::supervisor::SupervisorSet>,
    /// Machine sub-plan (restored into a promoted master's cursor).
    machine_plan: Option<FaultPlan>,
    /// Master crash/restart events, in firing order.
    master_events: Vec<FaultEvent>,
    next_master_event: usize,
    /// Incarnation counter: bumped on every promotion.
    generation: u64,
    /// Completed promotions.
    failovers: usize,
    /// Requests dropped on the floor since the set went leaderless.
    leaderless_drops: u64,
    /// How many dropped requests a leaderless window must swallow before
    /// the next scripted master event (the operator's restart) fires. In
    /// units of *messages*, not serve calls, so the window's length is
    /// identical over the in-process channel and a threaded TCP master.
    leaderless_grace: u64,
    store: RecoveryStore,
    /// `(epoch, last_seq)` of the last committed image.
    persisted: (u64, u64),
}

impl NimbusSet {
    /// Launch the leader plus `ha.standbys` standby candidates, and commit
    /// the epoch-0 recovery image.
    pub fn launch(
        engine: SimEngine,
        workload: Workload,
        initial: Assignment,
        coord: &CoordService,
        config: NimbusConfig,
        ha: &HaConfig,
    ) -> Result<Self, NimbusError> {
        let topology = engine.topology().clone();
        let cluster = engine.cluster().clone();
        let sim_config = *engine.config();
        let nimbus = Nimbus::launch(engine, workload, initial, coord, config.clone())?;
        let leader_election =
            LeaderElection::join(coord.connect(), ELECTION_PARENT, config.ident.as_bytes())?;
        let mut standbys = Vec::with_capacity(ha.standbys);
        for i in 0..ha.standbys {
            let ident = format!("{}/standby-{i}", config.ident);
            standbys.push(LeaderElection::join(
                coord.connect(),
                ELECTION_PARENT,
                ident.as_bytes(),
            )?);
        }
        let mut set = NimbusSet {
            coord: coord.clone(),
            topology,
            cluster,
            sim_config,
            config,
            active: Some((nimbus, leader_election)),
            standbys,
            parked_supervisors: None,
            machine_plan: None,
            master_events: Vec::new(),
            next_master_event: 0,
            generation: 0,
            failovers: 0,
            leaderless_drops: 0,
            leaderless_grace: 1,
            store: RecoveryStore::open(&ha.wal_dir)?,
            persisted: (u64::MAX, u64::MAX),
        };
        set.persist_if_dirty()?;
        Ok(set)
    }

    /// Install a fault plan: machine events go to the active master's
    /// cursor, master events are executed by this set at serve boundaries.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let (machine, master) = plan.split_master();
        self.master_events = master;
        self.next_master_event = 0;
        if let Some((nimbus, _)) = &mut self.active {
            if !machine.is_empty() {
                nimbus.set_fault_plan(machine.clone());
            }
        }
        self.machine_plan = Some(machine);
    }

    /// Attach supervisor daemons to the active master.
    ///
    /// # Panics
    /// Panics if no master is currently active.
    pub fn attach_supervisors(&mut self, supervisors: crate::supervisor::SupervisorSet) {
        self.active
            .as_mut()
            .expect("no active master to attach supervisors to")
            .0
            .attach_supervisors(supervisors);
    }

    /// The active master, if any.
    pub fn active(&self) -> Option<&Nimbus> {
        self.active.as_ref().map(|(n, _)| n)
    }

    /// The active master (mutable), if any. A run that schedules neither
    /// link nor master faults serves its requests through this
    /// ([`Nimbus::serve_step`]), skipping the per-request commit — the
    /// trajectory is bit-identical either way.
    pub fn active_mut(&mut self) -> Option<&mut Nimbus> {
        self.active.as_mut().map(|(n, _)| n)
    }

    /// Current master incarnation (0 until the first failover).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Completed standby promotions.
    pub fn failovers(&self) -> usize {
        self.failovers
    }

    /// Masters currently in the pool (leader + standbys).
    pub fn pool_size(&self) -> usize {
        self.standbys.len() + usize::from(self.active.is_some())
    }

    /// How many requests a leaderless window swallows before the next
    /// scripted master event (the operator restart) becomes due (default
    /// 1). An embedder whose agent retransmits `A` times per call sets
    /// `A` here so a standby-less crash costs exactly one degraded epoch:
    /// the failing call burns its whole retry budget into the dark window
    /// and the *next* call's first transmission revives the pool.
    pub fn set_leaderless_grace(&mut self, dropped_requests: u64) {
        self.leaderless_grace = dropped_requests.max(1);
    }

    /// Serve one reliable-exchange message, surviving scripted master
    /// faults: fire due master events, delegate to the leader (or drop
    /// traffic while leaderless), and durably commit the recovery image
    /// whenever served state changed.
    pub fn serve_step(
        &mut self,
        transport: &dyn Transport,
        wait: Duration,
    ) -> Result<ServeStep, NimbusError> {
        self.fire_due_master_events()?;
        self.keep_candidates_alive();
        match &mut self.active {
            Some((nimbus, _)) => {
                let step = nimbus.serve_step(transport, wait)?;
                if matches!(step, ServeStep::Served | ServeStep::Goodbye) {
                    self.persist_if_dirty()?;
                }
                Ok(step)
            }
            // Leaderless: the master's NIC is dark. Requests are consumed
            // and dropped (the agent's retransmits go unanswered until a
            // restart refills the pool); goodbyes still end the loop so an
            // embedder can always shut down.
            None => loop {
                match transport.recv_timeout(wait) {
                    Ok(Some(Message::Bye)) => return Ok(ServeStep::Goodbye),
                    Ok(Some(Message::Wrapped { inner, .. })) if matches!(*inner, Message::Bye) => {
                        return Ok(ServeStep::Goodbye)
                    }
                    Ok(Some(_)) => {
                        self.leaderless_drops += 1;
                        continue;
                    }
                    Ok(None) | Err(ProtoError::Timeout) => return Ok(ServeStep::Idle),
                    Err(ProtoError::Disconnected) => return Ok(ServeStep::Goodbye),
                    Err(e) => return Err(e.into()),
                }
            },
        }
    }

    /// Fire every master event due at the active engine's clock. With no
    /// leader the simulated clock is frozen, so the next scheduled master
    /// event — the operator action that un-freezes the cluster — becomes
    /// due once the dark window has swallowed `leaderless_grace` requests
    /// (real time passing, measured in the only deterministic unit both
    /// transports share: delivered messages).
    fn fire_due_master_events(&mut self) -> Result<(), NimbusError> {
        loop {
            let Some(ev) = self.master_events.get(self.next_master_event).copied() else {
                return Ok(());
            };
            let due = match &self.active {
                Some((nimbus, _)) => ev.at_s <= nimbus.engine().now(),
                None => self.leaderless_drops >= self.leaderless_grace,
            };
            if !due {
                return Ok(());
            }
            self.next_master_event += 1;
            self.leaderless_drops = 0;
            match ev.kind {
                FaultKind::MasterCrash => self.crash_master()?,
                FaultKind::MasterRestart => {
                    self.spawn_standby()?;
                    if self.active.is_none() {
                        self.failover()?;
                    }
                }
                // split_master removed every machine event.
                FaultKind::Crash | FaultKind::Restart => {
                    unreachable!("machine event in master plan")
                }
            }
            // A crash that left us leaderless froze the clock: later
            // events fire one per serve call (each call models real time
            // passing for the operator), never in the same pass as the
            // crash itself.
            if self.active.is_none() {
                return Ok(());
            }
        }
    }

    /// Kill the leader: drop its sessions without closing them (its
    /// ephemeral znodes linger until session expiry), park its
    /// supervisors, and — when a standby exists — fail over immediately.
    fn crash_master(&mut self) -> Result<(), NimbusError> {
        let Some((mut nimbus, election)) = self.active.take() else {
            return Ok(());
        };
        self.parked_supervisors = nimbus.detach_supervisors();
        drop(election);
        drop(nimbus);
        if !self.standbys.is_empty() {
            self.failover()?;
        }
        Ok(())
    }

    /// A fresh master process starts and joins the election pool.
    fn spawn_standby(&mut self) -> Result<(), NimbusError> {
        let ident = format!("{}/standby-{}", self.config.ident, self.standbys.len());
        self.standbys.push(LeaderElection::join(
            self.coord.connect(),
            ELECTION_PARENT,
            ident.as_bytes(),
        )?);
        Ok(())
    }

    /// Promote a standby: wait out the dead leader's session on the
    /// coordination clock (heartbeating every survivor so only the dead
    /// die), win the election, load the newest recovery image, and rebuild
    /// an identical master from it.
    fn failover(&mut self) -> Result<(), NimbusError> {
        // 1. Session expiry. Real time passes while the simulated cluster
        // is headless: step the coordination clock past the timeout. The
        // engine clock is untouched — when the new leader resumes advancing
        // it, `sync_clock`'s monotonic-max absorbs the jump.
        let timeout = self.coord.session_timeout_ms();
        let target = self.coord.now_ms() + timeout + 1;
        let step = (timeout / 4).max(1);
        let mut t = self.coord.now_ms();
        while t < target {
            t = (t + step).min(target);
            for e in &self.standbys {
                let _ = e.session().heartbeat();
            }
            if let Some(sup) = &self.parked_supervisors {
                sup.heartbeat_all();
            }
            self.coord.advance_to(t);
        }

        // 2. Election: exactly one standby finds itself leading.
        let mut winner: Option<LeaderElection> = None;
        let mut rest = Vec::new();
        for e in std::mem::take(&mut self.standbys) {
            if winner.is_none() && matches!(e.check()?, ElectionState::Leader) {
                winner = Some(e);
            } else {
                rest.push(e);
            }
        }
        self.standbys = rest;
        let Some(winner) = winner else {
            return Err(NimbusError::NoStandbyMaster);
        };

        // 3. Recovery: newest committed image -> identical master.
        let image = self
            .store
            .load(winner.session(), self.topology.name())?
            .ok_or_else(|| NimbusError::Recovery("no committed recovery image".into()))?;
        let mut nimbus = image.rebuild(
            self.topology.clone(),
            self.cluster.clone(),
            self.sim_config,
            &self.coord,
            self.config.clone(),
        )?;
        if let Some(plan) = &self.machine_plan {
            if !plan.is_empty() {
                nimbus.faults = Some(FaultCursor::with_fired(
                    plan.clone(),
                    image.faults_fired as usize,
                ));
            }
        }
        if let Some(sup) = self.parked_supervisors.take() {
            nimbus.attach_supervisors(sup);
        }
        self.generation = image.generation + 1;
        nimbus.generation = self.generation;
        self.failovers += 1;
        self.active = Some((nimbus, winner));
        // Commit immediately under the new generation so a second crash
        // before the next epoch still recovers to this incarnation.
        self.persisted = (u64::MAX, u64::MAX);
        self.persist_if_dirty()?;
        Ok(())
    }

    /// Heartbeat the election sessions (leader candidacy + standbys) so
    /// clock advancement driven by served epochs never expires a live
    /// candidate.
    fn keep_candidates_alive(&mut self) {
        if let Some((_, election)) = &self.active {
            let _ = election.session().heartbeat();
        }
        for e in &self.standbys {
            let _ = e.session().heartbeat();
        }
    }

    /// Commit a recovery image if served state moved since the last one.
    fn persist_if_dirty(&mut self) -> Result<(), NimbusError> {
        let Some((nimbus, _)) = &self.active else {
            return Ok(());
        };
        let key = (nimbus.epoch, nimbus.reliable.last_seq);
        if key == self.persisted {
            return Ok(());
        }
        let image = RecoveryImage::capture(nimbus, self.generation);
        self.store.commit(&nimbus.session, &image)?;
        self.persisted = key;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::MeasureProtocol;
    use crate::retry::RetryPolicy;
    use crate::supervisor::SupervisorSet;
    use dss_coord::CoordConfig;
    use dss_proto::ChannelTransport;
    use dss_sim::TopologyBuilder;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "dss-failover-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn parts() -> (SimEngine, Workload, Assignment) {
        let mut b = TopologyBuilder::new("ha-topo");
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

    fn config() -> NimbusConfig {
        NimbusConfig {
            measure: MeasureProtocol::epoch(2.0),
            ident: "ha-test".into(),
            heartbeat_interval_s: 1.0,
            auto_repair: false,
            retry: RetryPolicy::synchronous(),
        }
    }

    fn launch(standbys: usize, tag: &str) -> (NimbusSet, CoordService, PathBuf) {
        let coord = CoordService::new(CoordConfig {
            session_timeout_ms: 5_000,
        });
        let (engine, workload, assignment) = parts();
        let dir = tmpdir(tag);
        let set = NimbusSet::launch(
            engine,
            workload,
            assignment,
            &coord,
            config(),
            &HaConfig {
                standbys,
                wal_dir: dir.clone(),
            },
        )
        .unwrap();
        (set, coord, dir)
    }

    /// One reliable epoch driven by hand: state request, then a rotated
    /// solution. Returns the reward.
    fn drive_epoch(
        set: &mut NimbusSet,
        master: &ChannelTransport,
        agent: &ChannelTransport,
        seq: &mut u64,
    ) -> f64 {
        *seq += 1;
        agent
            .send(&Message::Wrapped {
                seq: *seq,
                inner: Box::new(Message::StateRequest),
            })
            .unwrap();
        assert_eq!(
            set.serve_step(master, Duration::ZERO).unwrap(),
            ServeStep::Served
        );
        let (epoch, mut machine_of, n_machines) =
            match agent.recv_timeout(Duration::ZERO).unwrap().unwrap() {
                Message::Wrapped { inner, .. } => match *inner {
                    Message::StateReport {
                        epoch,
                        machine_of,
                        n_machines,
                        ..
                    } => (epoch, machine_of, n_machines),
                    other => panic!("expected state report, got {other:?}"),
                },
                other => panic!("expected wrapped reply, got {other:?}"),
            };
        machine_of[0] = (machine_of[0] + 1) % n_machines;
        *seq += 1;
        agent
            .send(&Message::Wrapped {
                seq: *seq,
                inner: Box::new(Message::SchedulingSolution {
                    epoch,
                    machine_of,
                    n_machines,
                }),
            })
            .unwrap();
        assert_eq!(
            set.serve_step(master, Duration::ZERO).unwrap(),
            ServeStep::Served
        );
        match agent.recv_timeout(Duration::ZERO).unwrap().unwrap() {
            Message::Wrapped { inner, .. } => match *inner {
                Message::RewardReport { avg_tuple_ms, .. } => avg_tuple_ms,
                other => panic!("expected reward report, got {other:?}"),
            },
            other => panic!("expected wrapped reply, got {other:?}"),
        }
    }

    #[test]
    fn failover_promotes_the_standby_and_bumps_the_generation() {
        let (mut set, _coord, dir) = launch(1, "promote");
        let (master, agent) = ChannelTransport::pair();
        let mut seq = 0;
        // Two healthy epochs, then the master dies at 3.0 s (already
        // crossed by then).
        set.set_fault_plan(FaultPlan::new(vec![FaultEvent::master_crash(3.0)]));
        drive_epoch(&mut set, &master, &agent, &mut seq);
        drive_epoch(&mut set, &master, &agent, &mut seq);
        let epoch_before = set.active().unwrap().epoch();
        assert_eq!(set.failovers(), 0);

        // The next exchange triggers the crash; the standby is promoted
        // synchronously and serves it.
        drive_epoch(&mut set, &master, &agent, &mut seq);
        assert_eq!(set.failovers(), 1);
        assert_eq!(set.generation(), 1);
        let nimbus = set.active().unwrap();
        assert_eq!(nimbus.generation(), 1);
        assert_eq!(nimbus.epoch(), epoch_before + 1);
        assert_eq!(set.pool_size(), 1, "the standby was consumed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_without_standby_goes_dark_until_a_restart() {
        let (mut set, _coord, dir) = launch(0, "dark");
        let (master, agent) = ChannelTransport::pair();
        let mut seq = 0;
        set.set_fault_plan(FaultPlan::new(vec![
            FaultEvent::master_crash(3.0),
            FaultEvent::master_restart(60.0),
        ]));
        drive_epoch(&mut set, &master, &agent, &mut seq);
        drive_epoch(&mut set, &master, &agent, &mut seq);
        let epoch_before = set.active().unwrap().epoch();

        // The crash fires on the next serve; with no standby the request
        // is dropped on the floor.
        seq += 1;
        agent
            .send(&Message::Wrapped {
                seq,
                inner: Box::new(Message::StateRequest),
            })
            .unwrap();
        assert_eq!(
            set.serve_step(&master, Duration::ZERO).unwrap(),
            ServeStep::Idle
        );
        assert!(set.active().is_none(), "leaderless window");
        assert!(agent.recv_timeout(Duration::ZERO).unwrap().is_none());

        // The scripted restart is the next master event: it fires
        // unconditionally while leaderless, refills the pool, promotes,
        // and the retransmitted request is served.
        agent
            .send(&Message::Wrapped {
                seq,
                inner: Box::new(Message::StateRequest),
            })
            .unwrap();
        assert_eq!(
            set.serve_step(&master, Duration::ZERO).unwrap(),
            ServeStep::Served
        );
        assert_eq!(set.failovers(), 1);
        let nimbus = set.active().unwrap();
        assert_eq!(nimbus.epoch(), epoch_before, "no committed epoch lost");
        match agent.recv_timeout(Duration::ZERO).unwrap().unwrap() {
            Message::Wrapped { inner, .. } => {
                assert!(matches!(*inner, Message::StateReport { .. }))
            }
            other => panic!("expected state report, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failover_trajectory_is_bit_identical_to_an_uninterrupted_run() {
        // Same seed, same exchanges; one run loses its master twice.
        let run = |faults: Option<FaultPlan>, tag: &str| -> Vec<u64> {
            let (mut set, _coord, dir) = launch(2, tag);
            if let Some(plan) = faults {
                set.set_fault_plan(plan);
            }
            let (master, agent) = ChannelTransport::pair();
            let mut seq = 0;
            let rewards: Vec<u64> = (0..8)
                .map(|_| drive_epoch(&mut set, &master, &agent, &mut seq).to_bits())
                .collect();
            std::fs::remove_dir_all(&dir).ok();
            rewards
        };
        let clean = run(None, "bitid-clean");
        let crashed = run(
            Some(FaultPlan::new(vec![
                FaultEvent::master_crash(3.0),
                FaultEvent::master_restart(6.0),
                FaultEvent::master_crash(9.0),
            ])),
            "bitid-crashed",
        );
        assert_eq!(
            clean, crashed,
            "failover at the request boundary must not perturb the trajectory"
        );
    }

    #[test]
    fn machine_faults_survive_a_failover_without_refiring() {
        // A machine crash fires (and is repaired) before the master dies;
        // after failover the restored cursor must not replay it, and the
        // machine's scheduled restart must still fire.
        let (mut set, coord, dir) = launch(1, "cursor");
        let sup = SupervisorSet::register(&coord, 4).unwrap();
        set.attach_supervisors(sup);
        // Need auto-repair for the machine fault to be absorbed — on the
        // pool config too, so a promoted master inherits it.
        set.config.auto_repair = true;
        set.active_mut().unwrap().config.auto_repair = true;
        set.set_fault_plan(FaultPlan::new(vec![
            FaultEvent::crash(1, 2.0),
            FaultEvent::master_crash(16.0),
            FaultEvent::master_restart(18.0),
            FaultEvent::restart(1, 30.0),
        ]));
        let (master, agent) = ChannelTransport::pair();
        let mut seq = 0;
        // Epochs advance ~2 s each (plus cold-start catch-up); run until
        // past the master crash at 16 s.
        while set.active().is_none_or(|n| n.engine().now() < 17.0) {
            drive_epoch(&mut set, &master, &agent, &mut seq);
        }
        assert_eq!(set.failovers(), 1);
        let nimbus = set.active().unwrap();
        assert!(nimbus.repair_count() >= 1, "machine crash was repaired");
        assert!(nimbus.engine().machine_failed(1), "restart not yet due");
        let repairs_after_failover = nimbus.repair_count();
        // Run past the machine restart at 30 s: it must fire exactly once.
        while set.active().is_none_or(|n| n.engine().now() < 31.0) {
            drive_epoch(&mut set, &master, &agent, &mut seq);
        }
        let nimbus = set.active().unwrap();
        assert!(!nimbus.engine().machine_failed(1), "machine restarted");
        assert_eq!(
            nimbus.repair_count(),
            repairs_after_failover,
            "the already-fired crash must not replay after failover"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_is_answered_with_the_current_generation() {
        let (mut set, _coord, dir) = launch(1, "resume");
        let (master, agent) = ChannelTransport::pair();
        let mut seq = 0;
        set.set_fault_plan(FaultPlan::new(vec![FaultEvent::master_crash(3.0)]));
        drive_epoch(&mut set, &master, &agent, &mut seq);
        drive_epoch(&mut set, &master, &agent, &mut seq); // crash + failover next
        drive_epoch(&mut set, &master, &agent, &mut seq);
        seq += 1;
        agent
            .send(&Message::Wrapped {
                seq,
                inner: Box::new(Message::Resume {
                    epoch: set.active().unwrap().epoch(),
                    last_seq: seq - 1,
                }),
            })
            .unwrap();
        set.serve_step(&master, Duration::ZERO).unwrap();
        match agent.recv_timeout(Duration::ZERO).unwrap().unwrap() {
            Message::Wrapped { inner, .. } => match *inner {
                Message::MasterAnnounce { generation, ident } => {
                    assert_eq!(generation, 1);
                    assert_eq!(ident, "ha-test");
                }
                other => panic!("expected master announce, got {other:?}"),
            },
            other => panic!("expected wrapped reply, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
