//! Contract tests for the scheduler↔agent exchange: `Nimbus::serve_step`
//! against a scripted peer sending `Wrapped` requests. Duplicate replay,
//! the wrapped goodbye and workload-update acks / rejections are pinned by
//! the `serve_step_*` unit tests next to the implementation.

use std::time::Duration;

use dss_coord::{CoordConfig, CoordService};
use dss_nimbus::{MeasureProtocol, Nimbus, NimbusConfig, NimbusError, ServeStep};
use dss_proto::message::Role;
use dss_proto::{ChannelTransport, Message, Transport};
use dss_sim::{Assignment, ClusterSpec, Grouping, SimConfig, SimEngine, TopologyBuilder, Workload};

fn nimbus_with(measure: MeasureProtocol) -> Nimbus {
    let mut b = TopologyBuilder::new("contract");
    let s = b.spout("s", 1, 0.05);
    let x = b.bolt("x", 3, 0.2);
    b.edge(s, x, Grouping::Shuffle, 1.0, 64);
    let topology = b.build().unwrap();
    let cluster = ClusterSpec::homogeneous(3);
    let workload = Workload::uniform(&topology, 30.0);
    let initial = Assignment::round_robin(&topology, &cluster);
    let engine = SimEngine::new(topology, cluster, workload.clone(), SimConfig::default()).unwrap();
    let coord = CoordService::new(CoordConfig::default());
    Nimbus::launch(
        engine,
        workload,
        initial,
        &coord,
        NimbusConfig {
            measure,
            ident: "contract-nimbus".into(),
            heartbeat_interval_s: 5.0,
            auto_repair: false,
            retry: dss_nimbus::RetryPolicy::default(),
        },
    )
    .unwrap()
}

fn nimbus() -> Nimbus {
    nimbus_with(MeasureProtocol::Paper {
        stabilize_s: 2.0,
        interval_s: 10.0,
        samples: 5,
    })
}

/// The scripted peer: a channel pair plus the next sequence number.
struct Peer {
    server_side: ChannelTransport,
    client_side: ChannelTransport,
    seq: u64,
}

impl Peer {
    fn new() -> Self {
        let (server_side, client_side) = ChannelTransport::pair();
        Peer {
            server_side,
            client_side,
            seq: 0,
        }
    }

    /// One request under a fresh sequence number, one serve step, and the
    /// body of the answer (the ack itself when there is no payload).
    fn call(&mut self, nimbus: &mut Nimbus, request: Message) -> Message {
        self.seq += 1;
        self.client_side
            .send(&Message::Wrapped {
                seq: self.seq,
                inner: Box::new(request),
            })
            .unwrap();
        assert_eq!(
            nimbus
                .serve_step(&self.server_side, Duration::ZERO)
                .unwrap(),
            ServeStep::Served
        );
        match self.client_side.recv_timeout(Duration::ZERO).unwrap() {
            Some(Message::Wrapped { seq, inner }) if seq == self.seq => *inner,
            Some(ack @ Message::Ack { .. }) => ack,
            other => panic!("expected the answer to call {}, got {other:?}", self.seq),
        }
    }

    /// Fetches the state report; returns its epoch.
    fn fetch_epoch(&mut self, nimbus: &mut Nimbus) -> u64 {
        match self.call(nimbus, Message::StateRequest) {
            Message::StateReport { epoch, .. } => epoch,
            other => panic!("expected state report, got {other:?}"),
        }
    }
}

fn solution(epoch: u64, machine_of: Vec<usize>, n_machines: usize) -> Message {
    Message::SchedulingSolution {
        epoch,
        machine_of,
        n_machines,
    }
}

#[test]
fn handshake_rejects_wrong_role() {
    let nimbus = nimbus();
    let (server_side, client_side) = ChannelTransport::pair();
    let peer = std::thread::spawn(move || {
        // A scheduler should not be greeted by another scheduler.
        let _hello = client_side.recv().unwrap();
        client_side
            .send(&Message::Hello {
                role: Role::Scheduler,
                ident: "impostor".into(),
            })
            .unwrap();
    });
    let err = nimbus.handshake(&server_side).unwrap_err();
    assert!(matches!(err, NimbusError::UnexpectedMessage(_)));
    peer.join().unwrap();
}

#[test]
fn stale_epoch_gets_error_then_fresh_solution_is_accepted() {
    let mut nimbus = nimbus();
    let mut peer = Peer::new();
    let n = nimbus.engine().topology().n_executors();
    let epoch = peer.fetch_epoch(&mut nimbus);
    // First answer with a stale epoch: must be rejected with Error.
    match peer.call(&mut nimbus, solution(epoch + 99, vec![0; n], 3)) {
        Message::Error { code: 1, detail } => assert!(detail.contains("stale")),
        other => panic!("expected stale-epoch error, got {other:?}"),
    }
    assert_eq!(nimbus.epoch(), epoch, "a rejected solution deploys nothing");
    // Then the correct epoch: accepted, reward comes back.
    match peer.call(&mut nimbus, solution(epoch, vec![0; n], 3)) {
        Message::RewardReport { epoch: e, .. } => assert_eq!(e, epoch),
        other => panic!("expected reward, got {other:?}"),
    }
    assert_eq!(nimbus.epoch(), epoch + 1);
}

#[test]
fn invalid_solutions_are_rejected_and_the_master_keeps_serving() {
    let mut nimbus = nimbus();
    let mut peer = Peer::new();
    let n = nimbus.engine().topology().n_executors();
    let epoch = peer.fetch_epoch(&mut nimbus);
    // Wrong executor count.
    match peer.call(&mut nimbus, solution(epoch, vec![0, 0], 3)) {
        Message::Error { code: 2, .. } => {}
        other => panic!("expected shape error, got {other:?}"),
    }
    // Wrong cluster size.
    match peer.call(&mut nimbus, solution(epoch, vec![0; n], 4)) {
        Message::Error { code: 3, .. } => {}
        other => panic!("expected machine-count error, got {other:?}"),
    }
    assert_eq!(nimbus.epoch(), epoch, "rejections deploy nothing");
    // Neither rejection ended the service: the same epoch still takes a
    // valid solution.
    assert_eq!(peer.fetch_epoch(&mut nimbus), epoch);
    match peer.call(&mut nimbus, solution(epoch, vec![1; n], 3)) {
        Message::RewardReport { epoch: e, .. } => assert_eq!(e, epoch),
        other => panic!("expected reward, got {other:?}"),
    }
    assert_eq!(nimbus.epoch(), epoch + 1);
}

#[test]
fn heartbeats_are_answered_mid_epoch() {
    let mut nimbus = nimbus();
    let mut peer = Peer::new();
    let n = nimbus.engine().topology().n_executors();
    let epoch = peer.fetch_epoch(&mut nimbus);
    // Inside the envelope…
    match peer.call(&mut nimbus, Message::Heartbeat { now_ms: 1 }) {
        Message::Heartbeat { .. } => {}
        other => panic!("expected heartbeat echo, got {other:?}"),
    }
    // …and bare, as a liveness check needs no sequence number.
    peer.client_side
        .send(&Message::Heartbeat { now_ms: 2 })
        .unwrap();
    assert_eq!(
        nimbus
            .serve_step(&peer.server_side, Duration::ZERO)
            .unwrap(),
        ServeStep::Served
    );
    match peer.client_side.recv_timeout(Duration::ZERO).unwrap() {
        Some(Message::Heartbeat { .. }) => {}
        other => panic!("expected heartbeat echo, got {other:?}"),
    }
    match peer.call(&mut nimbus, solution(epoch, vec![1; n], 3)) {
        Message::RewardReport { epoch: e, .. } => assert_eq!(e, epoch),
        other => panic!("expected reward, got {other:?}"),
    }
}

#[test]
fn bye_and_disconnect_end_service_cleanly() {
    // Bye.
    let mut n1 = nimbus();
    let mut peer = Peer::new();
    peer.fetch_epoch(&mut n1);
    peer.client_side.send(&Message::Bye).unwrap();
    assert_eq!(
        n1.serve_step(&peer.server_side, Duration::ZERO).unwrap(),
        ServeStep::Goodbye
    );

    // Hard disconnect.
    let mut n2 = nimbus();
    let (server_side, client_side) = ChannelTransport::pair();
    drop(client_side);
    assert_eq!(
        n2.serve_step(&server_side, Duration::ZERO).unwrap(),
        ServeStep::Goodbye
    );
}

#[test]
fn workload_update_and_stats_request_are_served_mid_epoch() {
    let mut nimbus = nimbus_with(MeasureProtocol::epoch(2.0));
    let mut peer = Peer::new();
    let n = nimbus.engine().topology().n_executors();
    let Message::StateReport {
        epoch,
        source_rates,
        rate_multiplier,
        ..
    } = peer.call(&mut nimbus, Message::StateRequest)
    else {
        panic!("expected state report");
    };
    assert_eq!(source_rates, vec![(0, 30.0)]);
    assert_eq!(rate_multiplier, 1.0);
    // Report a base-workload change, ask for stats, then solve.
    let update = Message::WorkloadUpdate {
        source_rates: vec![(0, 45.0)],
    };
    assert!(matches!(
        peer.call(&mut nimbus, update),
        Message::Ack { .. }
    ));
    match peer.call(&mut nimbus, Message::StatsRequest) {
        Message::StatsReport {
            executor_rates,
            machine_cpu_cores,
            ..
        } => {
            assert_eq!(executor_rates.len(), 4);
            assert_eq!(machine_cpu_cores.len(), 3);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    assert_eq!(nimbus.epoch(), epoch, "neither request is a decision");
    match peer.call(&mut nimbus, solution(epoch, vec![0; n], 3)) {
        Message::RewardReport { epoch: e, .. } => assert_eq!(e, epoch),
        other => panic!("expected reward, got {other:?}"),
    }
    assert_eq!(nimbus.engine().workload().rates(), &[(0, 45.0)]);
}

#[test]
fn epoch_advances_only_on_accepted_solutions() {
    let mut nimbus = nimbus();
    assert_eq!(nimbus.epoch(), 0);
    let n = nimbus.engine().topology().n_executors();
    // Invalid solution: epoch unchanged.
    assert!(nimbus.apply_solution(&vec![9; n]).is_err());
    assert_eq!(nimbus.epoch(), 0);
    // Valid solution: epoch advances, assignment stored.
    nimbus.apply_solution(&vec![1; n]).unwrap();
    assert_eq!(nimbus.epoch(), 1);
    assert_eq!(
        nimbus.stored_assignment().unwrap().as_slice(),
        &vec![1; n][..]
    );
}
