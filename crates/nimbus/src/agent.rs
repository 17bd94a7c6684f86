//! The agent side of the socket protocol.
//!
//! The paper's DRL agent runs outside the DSDPS ("hot swapping of control
//! algorithms"). [`AgentClient`] implements its half of the exchange: it
//! fetches the state report, delivers the scheduling solution its caller
//! decided on, and returns the measured reward — so any scheduler
//! (`dss-core`'s actor-critic, DQN, or a baseline) can drive a remote
//! Nimbus without knowing about sockets.

use std::time::Duration;

use dss_proto::{Message, ProtoError, Transport};

use crate::error::NimbusError;
use crate::retry::RetryPolicy;

/// The state `s = (X, w)` as seen by the agent.
#[derive(Debug, Clone, PartialEq)]
pub struct StateView {
    /// Decision epoch (echo it in the solution).
    pub epoch: u64,
    /// Current executor-to-machine assignment.
    pub machine_of: Vec<usize>,
    /// Cluster size.
    pub n_machines: usize,
    /// Per-data-source *base* arrival rates.
    pub source_rates: Vec<(u32, f64)>,
    /// Schedule multiplier the cluster currently applies to the base
    /// rates (the offered load is `source_rates × rate_multiplier`).
    pub rate_multiplier: f64,
}

/// Runtime statistics reported by the scheduler (mirrors the simulator's
/// `RuntimeStats`; what the model-based baseline trains on).
#[derive(Debug, Clone, PartialEq)]
pub struct StatsView {
    /// Sliding-window average tuple processing time (ms; 0 when empty).
    pub avg_latency_ms: f64,
    /// Per-executor tuple arrival rates (tuples/s).
    pub executor_rates: Vec<f64>,
    /// Per-executor sojourn-time estimates (ms).
    pub executor_sojourn_ms: Vec<f64>,
    /// Per-machine CPU demand (cores).
    pub machine_cpu_cores: Vec<f64>,
    /// Per-machine cross-machine traffic (KiB/s).
    pub machine_cross_kib_s: Vec<f64>,
    /// Per-edge transfer-latency estimates (ms).
    pub edge_transfer_ms: Vec<f64>,
    /// Tuple trees completed since launch.
    pub completed: u64,
    /// Tuple trees failed since launch.
    pub failed: u64,
}

/// The reward the scheduler measured for a deployed solution.
#[derive(Debug, Clone, PartialEq)]
pub struct RewardView {
    /// Epoch the reward answers.
    pub epoch: u64,
    /// Average end-to-end tuple processing time (ms).
    pub avg_tuple_ms: f64,
    /// The individual measurement samples behind the average.
    pub measurements: Vec<f64>,
}

/// Agent-side protocol driver.
///
/// After the `Hello` handshake the agent initiates everything: each move
/// of an epoch (`reliable_fetch_state` / `reliable_send_workload` /
/// `reliable_solution` / `reliable_fetch_stats`, plus `reliable_resume`
/// after a suspected failover) is one [`AgentClient::reliable_call`] — a
/// sequence-numbered request retransmitted under a [`RetryPolicy`] until
/// its answer arrives or the budget runs out — so an environment backend
/// can drive an epoch step-by-step. Every call takes a `pump` hook, which
/// is how the synchronous in-process pairing (master and agent sharing
/// one thread over a `ChannelTransport`) gives the master its turn; a
/// master on its own thread needs none.
#[derive(Debug)]
pub struct AgentClient<T: Transport> {
    transport: T,
    ident: String,
    /// Sequence number of the last reliable call issued.
    seq: u64,
}

impl<T: Transport> AgentClient<T> {
    /// Wrap a connected transport.
    pub fn new(transport: T, ident: impl Into<String>) -> Self {
        AgentClient {
            transport,
            ident: ident.into(),
            seq: 0,
        }
    }

    /// The underlying transport (e.g. to reach a chaos wrapper's
    /// controls).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// First half of the handshake: announce this agent.
    ///
    /// Split from [`AgentClient::await_scheduler`] so a synchronous
    /// in-process pairing can order the sends (agent announces, master
    /// handshakes, agent reads the answer) without either side blocking.
    pub fn announce(&self) -> Result<(), NimbusError> {
        self.transport.send(&Message::Hello {
            role: dss_proto::message::Role::Agent,
            ident: self.ident.clone(),
        })?;
        Ok(())
    }

    /// Second half of the handshake: read the scheduler's hello.
    pub fn await_scheduler(&self) -> Result<String, NimbusError> {
        match self.transport.recv()? {
            Message::Hello {
                role: dss_proto::message::Role::Scheduler,
                ident,
            } => Ok(ident),
            _ => Err(NimbusError::UnexpectedMessage("awaiting scheduler hello")),
        }
    }

    /// Perform the handshake; returns the scheduler's identification.
    pub fn handshake(&self) -> Result<String, NimbusError> {
        self.announce()?;
        self.await_scheduler()
    }

    /// Orderly shutdown.
    pub fn bye(&self) -> Result<(), NimbusError> {
        self.transport.send(&Message::Bye)?;
        Ok(())
    }

    /// One reliable request/response exchange over an unreliable link.
    ///
    /// The request is wrapped in a fresh sequence number and transmitted
    /// up to `policy.max_attempts` times (same number each time, so the
    /// master can deduplicate retransmits and replay the cached answer
    /// idempotently). After each transmission `pump` runs — the hook a
    /// synchronous in-process pairing uses to drive the master on this
    /// same thread — and the receive side is drained: the matching
    /// wrapped response or ack completes the call; stale envelopes and
    /// anything unsolicited are discarded. Exhausting the budget yields
    /// [`NimbusError::Unreachable`] — never a hang.
    pub fn reliable_call(
        &mut self,
        request: Message,
        policy: &RetryPolicy,
        mut pump: impl FnMut(),
    ) -> Result<Message, NimbusError> {
        self.seq += 1;
        let seq = self.seq;
        let wrapped = Message::Wrapped {
            seq,
            inner: Box::new(request),
        };
        let poll = Duration::from_millis(policy.io_timeout_ms);
        let attempts = policy.max_attempts.max(1);
        for attempt in 0..attempts {
            let backoff = policy.backoff_ms(seq, attempt);
            if backoff > 0 {
                std::thread::sleep(Duration::from_millis(backoff));
            }
            match self.transport.send(&wrapped) {
                Ok(()) => {}
                Err(ProtoError::Disconnected) => {
                    return Err(NimbusError::Unreachable {
                        attempts: attempt + 1,
                    })
                }
                // A send deadline expiring is just another transient.
                Err(ProtoError::Timeout) => continue,
                Err(e) => return Err(e.into()),
            }
            pump();
            loop {
                let got = match self.transport.recv_timeout(poll) {
                    Ok(got) => got,
                    Err(ProtoError::Timeout) => None,
                    Err(ProtoError::Disconnected) => {
                        return Err(NimbusError::Unreachable {
                            attempts: attempt + 1,
                        })
                    }
                    Err(e) => return Err(e.into()),
                };
                match got {
                    None => break, // this attempt's window closed; retransmit
                    Some(Message::Wrapped { seq: s, inner }) if s == seq => return Ok(*inner),
                    Some(msg @ Message::Ack { seq: s }) if s == seq => return Ok(msg),
                    // Stale envelopes from earlier calls (delayed or
                    // duplicated by the network): discard.
                    Some(Message::Wrapped { .. }) | Some(Message::Ack { .. }) => continue,
                    Some(Message::Bye) => return Err(NimbusError::Unreachable { attempts }),
                    // Nothing else arrives unasked (a heartbeat echo at
                    // most): ignore it.
                    Some(_) => continue,
                }
            }
        }
        Err(NimbusError::Unreachable { attempts })
    }

    /// Reliable state fetch: ask the scheduler for the current epoch's
    /// state report.
    pub fn reliable_fetch_state(
        &mut self,
        policy: &RetryPolicy,
        pump: impl FnMut(),
    ) -> Result<StateView, NimbusError> {
        match self.reliable_call(Message::StateRequest, policy, pump)? {
            Message::StateReport {
                epoch,
                machine_of,
                n_machines,
                source_rates,
                rate_multiplier,
            } => Ok(StateView {
                epoch,
                machine_of,
                n_machines,
                source_rates,
                rate_multiplier,
            }),
            _ => Err(NimbusError::UnexpectedMessage("reliable state fetch")),
        }
    }

    /// Reliable workload update: delivered at least once, applied at most
    /// once (the scheduler deduplicates retransmits by sequence number).
    pub fn reliable_send_workload(
        &mut self,
        source_rates: Vec<(u32, f64)>,
        policy: &RetryPolicy,
        pump: impl FnMut(),
    ) -> Result<(), NimbusError> {
        match self.reliable_call(Message::WorkloadUpdate { source_rates }, policy, pump)? {
            Message::Ack { .. } => Ok(()),
            Message::Error { code, detail } => Err(NimbusError::InvalidWorkload(format!(
                "scheduler rejected workload (code {code}): {detail}"
            ))),
            _ => Err(NimbusError::UnexpectedMessage("reliable workload update")),
        }
    }

    /// Reliable solution deployment: returns the measured reward. The
    /// scheduler applies a given sequence number once, so a retransmitted
    /// solution cannot double-deploy.
    pub fn reliable_solution(
        &mut self,
        epoch: u64,
        machine_of: Vec<usize>,
        n_machines: usize,
        policy: &RetryPolicy,
        pump: impl FnMut(),
    ) -> Result<RewardView, NimbusError> {
        let request = Message::SchedulingSolution {
            epoch,
            machine_of,
            n_machines,
        };
        match self.reliable_call(request, policy, pump)? {
            Message::RewardReport {
                epoch,
                avg_tuple_ms,
                measurements,
            } => Ok(RewardView {
                epoch,
                avg_tuple_ms,
                measurements,
            }),
            Message::Error { code, detail } => Err(NimbusError::InvalidSolution(format!(
                "scheduler rejected solution (code {code}): {detail}"
            ))),
            _ => Err(NimbusError::UnexpectedMessage("reliable solution")),
        }
    }

    /// Sequence number of the last reliable call issued (what a
    /// [`Message::Resume`] reports to a recovered master).
    pub fn last_seq(&self) -> u64 {
        self.seq
    }

    /// Re-discover the master after a suspected failover: send a
    /// [`Message::Resume`] carrying the agent's view of the exchange
    /// (`epoch` reached, last sequence number issued) and return the
    /// serving master's `(generation, ident)` from its
    /// [`Message::MasterAnnounce`]. A generation above the last one seen
    /// tells the agent its previous call may have died with the old
    /// master; the seq-numbered exchange then resumes safely because the
    /// recovered master restored its duplicate-suppression window from
    /// the durable image.
    pub fn reliable_resume(
        &mut self,
        epoch: u64,
        policy: &RetryPolicy,
        pump: impl FnMut(),
    ) -> Result<(u64, String), NimbusError> {
        let last_seq = self.seq;
        match self.reliable_call(Message::Resume { epoch, last_seq }, policy, pump)? {
            Message::MasterAnnounce { generation, ident } => Ok((generation, ident)),
            _ => Err(NimbusError::UnexpectedMessage("reliable resume")),
        }
    }

    /// Reliable statistics snapshot.
    pub fn reliable_fetch_stats(
        &mut self,
        policy: &RetryPolicy,
        pump: impl FnMut(),
    ) -> Result<StatsView, NimbusError> {
        match self.reliable_call(Message::StatsRequest, policy, pump)? {
            Message::StatsReport {
                avg_latency_ms,
                executor_rates,
                executor_sojourn_ms,
                machine_cpu_cores,
                machine_cross_kib_s,
                edge_transfer_ms,
                completed,
                failed,
            } => Ok(StatsView {
                avg_latency_ms,
                executor_rates,
                executor_sojourn_ms,
                machine_cpu_cores,
                machine_cross_kib_s,
                edge_transfer_ms,
                completed,
                failed,
            }),
            _ => Err(NimbusError::UnexpectedMessage("reliable stats fetch")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_proto::ChannelTransport;

    /// Receives one wrapped request; returns its sequence number and body.
    fn recv_request(peer: &ChannelTransport) -> (u64, Message) {
        match peer.recv().unwrap() {
            Message::Wrapped { seq, inner } => (seq, *inner),
            other => panic!("expected a wrapped request, got {other:?}"),
        }
    }

    fn reply(peer: &ChannelTransport, seq: u64, inner: Message) {
        peer.send(&Message::Wrapped {
            seq,
            inner: Box::new(inner),
        })
        .unwrap();
    }

    fn state_report(epoch: u64) -> Message {
        Message::StateReport {
            epoch,
            machine_of: vec![0, 0, 1],
            n_machines: 2,
            source_rates: vec![(0, 10.0)],
            rate_multiplier: 1.0,
        }
    }

    /// Fake scheduler speaking the server side over a channel pair: the
    /// handshake, then `epochs` state-fetch + solution exchanges, then a
    /// goodbye.
    fn fake_scheduler(peer: ChannelTransport, epochs: u64) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            match peer.recv().unwrap() {
                Message::Hello { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
            peer.send(&Message::Hello {
                role: dss_proto::message::Role::Scheduler,
                ident: "fake-nimbus".into(),
            })
            .unwrap();
            for epoch in 0..epochs {
                let (seq, request) = recv_request(&peer);
                assert!(matches!(request, Message::StateRequest), "{request:?}");
                reply(&peer, seq, state_report(epoch));
                let (seq, request) = recv_request(&peer);
                match request {
                    Message::SchedulingSolution {
                        epoch: e,
                        machine_of,
                        ..
                    } => {
                        assert_eq!(e, epoch);
                        assert_eq!(machine_of.len(), 3);
                    }
                    other => panic!("unexpected {other:?}"),
                }
                let reward = Message::RewardReport {
                    epoch,
                    avg_tuple_ms: 2.0 - epoch as f64 * 0.1,
                    measurements: vec![2.0],
                };
                reply(&peer, seq, reward);
            }
            peer.send(&Message::Bye).unwrap();
        })
    }

    #[test]
    fn agent_completes_handshake_and_epochs() {
        let (mine, theirs) = ChannelTransport::pair();
        let server = fake_scheduler(theirs, 3);
        let mut agent = AgentClient::new(mine, "test-agent");
        assert_eq!(agent.handshake().unwrap(), "fake-nimbus");
        let policy = RetryPolicy::default();
        let mut rewards = Vec::new();
        // The scheduler's goodbye (or its vanished transport) ends the run
        // as an unreachable master.
        while let Ok(state) = agent.reliable_fetch_state(&policy, || {}) {
            // Trivial policy: move everything to machine 0.
            let solution = vec![0; state.machine_of.len()];
            let reward = agent
                .reliable_solution(state.epoch, solution, state.n_machines, &policy, || {})
                .unwrap();
            assert_eq!(reward.epoch, state.epoch);
            rewards.push(reward.avg_tuple_ms);
        }
        assert_eq!(rewards.len(), 3);
        assert!(rewards[2] < rewards[0]);
        server.join().unwrap();
    }

    #[test]
    fn error_report_surfaces_as_invalid_solution() {
        let (mine, theirs) = ChannelTransport::pair();
        let server = std::thread::spawn(move || {
            let (seq, _) = recv_request(&theirs);
            reply(&theirs, seq, state_report(0));
            let (seq, _) = recv_request(&theirs);
            let error = Message::Error {
                code: 2,
                detail: "bad shape".into(),
            };
            reply(&theirs, seq, error);
        });
        let mut agent = AgentClient::new(mine, "test-agent");
        let policy = RetryPolicy::default();
        let state = agent.reliable_fetch_state(&policy, || {}).unwrap();
        let err = agent
            .reliable_solution(state.epoch, vec![0], state.n_machines, &policy, || {})
            .unwrap_err();
        assert!(matches!(err, NimbusError::InvalidSolution(_)));
        server.join().unwrap();
    }

    #[test]
    fn disconnect_mid_epoch_is_unreachable_not_a_hang() {
        let (mine, theirs) = ChannelTransport::pair();
        drop(theirs);
        let mut agent = AgentClient::new(mine, "test-agent");
        let err = agent
            .reliable_fetch_state(&RetryPolicy::default(), || {})
            .unwrap_err();
        assert!(matches!(err, NimbusError::Unreachable { attempts: 1 }));
    }
}
