//! A Nimbus-like master for the simulated Storm cluster.
//!
//! Storm's architecture (paper §2.1–2.2) puts a *master* (Nimbus) in charge
//! of distributing work: it stores the scheduling solution in ZooKeeper,
//! monitors heartbeats from worker machines, and re-schedules executors
//! when it discovers a failure. The paper's custom scheduler *"runs within
//! Nimbus"* and talks to the external DRL agent over a socket.
//!
//! This crate reproduces that control plane against the simulated cluster:
//!
//! * [`supervisor::SupervisorSet`] — one coordination session per worker
//!   machine, each holding an ephemeral `/storm/supervisors/machine-NNNN`
//!   znode and heartbeating until the machine is crashed;
//! * [`master::Nimbus`] — topology registration, versioned assignment
//!   storage in the coordination service, the minimal-impact deployment
//!   path onto the simulator, the paper's reward-measurement protocol,
//!   failure detection (supervisor session expiry) and repair scheduling;
//! * [`agent::AgentClient`] — the agent side of the socket protocol, one
//!   typed call per move of an epoch, so any `dss-core` scheduler can drive
//!   a remote Nimbus exactly as the paper's external DRL agent does.
//!
//! Machine failure is modelled at the control plane: a crashed machine
//! stops heartbeating, its coordination session expires, and Nimbus moves
//! its executors to live machines. The latency cost of the repair shows up
//! through the simulator's migration pause and warm-up — the same
//! mechanism behind the paper's Figure 12 redeployment spikes. Mid-flight
//! tuple loss on the dead machine is already covered by the simulator's
//! tuple-failure path (Storm would replay those trees from the spout).
//!
//! # Failure model
//!
//! The control plane distinguishes three failure domains, each with its
//! own detection and recovery path:
//!
//! * **Machine faults** (crash/restart of a worker). Scripted by a
//!   [`FaultPlan`], detected through coordination-session expiry, repaired
//!   by [`Nimbus::detect_and_repair`] moving stranded executors to live
//!   machines. A fully dead cluster surfaces the typed
//!   [`NimbusError::NoLiveMachines`] — never a hang.
//! * **Network faults** (the agent↔master link drops, delays, duplicates,
//!   reorders, corrupts, or partitions messages — `dss-proto`'s
//!   `ChaosTransport`). Handled by the exchange itself: the agent
//!   wraps each call in a sequence-numbered envelope
//!   ([`agent::AgentClient::reliable_call`]) and retransmits it under a
//!   [`RetryPolicy`] (exponential backoff with deterministic jitter,
//!   bounded attempts, per-poll I/O timeouts); the master answers each
//!   request under the same sequence number ([`Nimbus::serve_step`]) and
//!   replays cached responses for retransmits, so a duplicated
//!   state-changing request (e.g. a scheduling solution) is applied
//!   exactly once. Corrupted frames are rejected by the codec's CRC and
//!   count as drops. An exhausted retry budget surfaces the typed
//!   [`NimbusError::Unreachable`] so the embedder (see `dss-core`'s
//!   `ClusterEnv`) can degrade gracefully instead of hanging.
//! * **Master faults** (the Nimbus process itself dies). The active
//!   master commits a durable recovery image — epoch, assignment version,
//!   workload, fault-plan position, reliable-exchange window, and a full
//!   engine snapshot — after every state-changing request
//!   ([`persist::RecoveryStore`]: fsynced local WAL, then a versioned
//!   coordination znode). [`failover::NimbusSet`] runs standby masters
//!   behind [`dss_coord::LeaderElection`]; a scripted
//!   [`FaultKind::MasterCrash`] drops the leader's sessions un-closed,
//!   the survivor wins the election after session expiry, rebuilds an
//!   identical master from the newest image, and resumes the reliable
//!   exchange without double-applying any request. With no standby the
//!   set goes leaderless (requests dropped, agents degrade via
//!   [`NimbusError::Unreachable`]) until a [`FaultKind::MasterRestart`]
//!   refills the pool. Because images commit at request boundaries, a
//!   failover loses no committed epoch and the recovered trajectory is
//!   bit-identical to an uninterrupted run.
//! * **Protocol faults** (malformed or out-of-contract messages).
//!   Recoverable ones — a stale-epoch solution, an invalid workload
//!   update — draw a wrapped `Error` reply with a stable numeric code
//!   (1 = stale epoch, 2 = invalid solution, 3 = machine-count mismatch,
//!   4 = invalid workload) and leave the master serving; anything else is
//!   a typed [`NimbusError`], never a panic.
//!
//! There is one exchange: a clean link carries the same sequence-numbered
//! requests and answers as a faulty one, only never retransmitted, and an
//! embedder whose run schedules neither link nor master faults may serve
//! them from the leader directly ([`Nimbus::serve_step`]) instead of
//! through the pool ([`NimbusSet::serve_step`]), sparing the per-request
//! commit. Either way the engine sees the same deploys and epochs, so
//! every simulated trajectory is bit-identical.

pub mod agent;
pub mod error;
pub mod failover;
pub mod fault;
pub mod master;
pub mod persist;
pub mod retry;
pub mod supervisor;

pub use agent::{AgentClient, RewardView, StateView, StatsView};
pub use error::NimbusError;
pub use failover::{HaConfig, NimbusSet};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanError};
pub use master::{DeployOutcome, MeasureProtocol, Nimbus, NimbusConfig, ServeStep};
pub use persist::{RecoveryImage, RecoveryStore};
pub use retry::RetryPolicy;
pub use supervisor::SupervisorSet;
