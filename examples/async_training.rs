//! The Rapid-style async training service, assembled by hand.
//!
//! One parameter server + continuous learner, three in-process rollout
//! workers, and a **fourth worker in a separate process** that joins over
//! loopback TCP speaking `dss-proto` frames (the example re-execs itself
//! in child mode — see `ASYNC_TRAINING_WORKER`). While training runs, a
//! monitor prints a table of collection throughput, the published weight
//! version, and the mean staleness of accepted batches.
//!
//! Every claim is shape-checked; any violation exits with status 1.
//!
//! ```sh
//! cargo run --release --example async_training
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsdps_drl::control::config::ControlConfig;
use dsdps_drl::control::controller::Controller;
use dsdps_drl::control::experiment::Backend;
use dsdps_drl::control::parallel::ActorSetup;
use dsdps_drl::control::scenario::Scenario;
use dsdps_drl::control::scheduler::RandomMode;
use dsdps_drl::proto::TcpTransport;
use dsdps_drl::rl::{Elem, ShardedReplayBuffer};
use dsdps_drl::trainer::{
    run_remote_worker, serve_worker, BoundedQueue, Learner, LocalClient, ParameterServer,
    RolloutWorker, SharedStats,
};

const SCENARIO: &str = "cq-small-steady";
const IN_PROCESS_WORKERS: usize = 3;
const ROUNDS: usize = 16;
const STEPS_PER_ROUND: usize = 4;
const TRAIN_PER_BATCH: usize = 4;

fn check(ok: bool, what: &str) {
    if !ok {
        eprintln!("async_training: shape check failed: {what}");
        std::process::exit(1);
    }
}

fn cfg() -> ControlConfig {
    ControlConfig {
        offline_samples: 20,
        offline_steps: 15,
        online_epochs: 24,
        eps_decay_epochs: 12,
        sim_epoch_s: 5.0,
        ..ControlConfig::test()
    }
}

/// Child mode: `ASYNC_TRAINING_WORKER=<addr>;<worker_id>` turns this
/// binary into a remote rollout worker that dials the parent's listener.
fn child_main(spec: &str) -> ! {
    let (addr, id) = spec.split_once(';').expect("addr;worker_id");
    let addr = addr.parse().expect("listener address");
    let id: usize = id.parse().expect("worker id");
    match run_remote_worker(
        addr,
        Backend::Sim,
        SCENARIO,
        &cfg(),
        id,
        ROUNDS,
        STEPS_PER_ROUND,
    ) {
        Ok(rows) => {
            println!("  [child worker {id}] pushed {rows} rows over TCP");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("  [child worker {id}] failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    if let Ok(spec) = std::env::var("ASYNC_TRAINING_WORKER") {
        child_main(&spec);
    }

    println!("=== Rapid-style async training service ===");
    let cfg = cfg();
    let sc = Scenario::by_name(SCENARIO).expect("registry scenario");
    let (n, m, s) = (sc.n_executors(), sc.n_machines(), sc.n_sources());
    let state_dim = sc.state_dim();

    // The service backbone: versioned weights, bounded experience queue,
    // shared telemetry, sharded replay.
    let ps = Arc::new(ParameterServer::new());
    let queue = Arc::new(BoundedQueue::new(64));
    let stats = Arc::new(SharedStats::new());
    let replay = Arc::new(ShardedReplayBuffer::<Elem>::new(4, 4096, state_dim, n * m));
    let mut learner = Learner::new(
        &cfg,
        n,
        m,
        s,
        Arc::clone(&replay),
        Arc::clone(&ps),
        Arc::clone(&stats),
        u64::MAX,
        4,
    );

    // Offline phase (Algorithm 1 line 4): a random chain pretrains the
    // nets before any worker pulls; version 1 is the offline policy.
    let data = Controller::new(cfg).offline_phase(
        &mut sc.sim_env(&cfg, cfg.seed),
        &sc.app.workload,
        RandomMode::FullRandom,
        sc.initial_assignment(),
    );
    learner.pretrain(&data);
    let v1 = learner.publish();
    check(v1 == 1, "first publish is version 1");
    println!(
        "offline: {} samples pretrained, policy v{v1} published\n",
        data.len()
    );

    // Three in-process workers + one separate-process worker over TCP.
    let live = Arc::new(AtomicUsize::new(IN_PROCESS_WORKERS + 1));
    let mut worker_threads = Vec::new();
    for i in 0..IN_PROCESS_WORKERS {
        let setup = ActorSetup {
            env: sc.sim_env(&cfg, cfg.seed.wrapping_add(i as u64)),
            workload: sc.app.workload.clone(),
            initial: sc.initial_assignment(),
        };
        let client = LocalClient {
            ps: Arc::clone(&ps),
            queue: Arc::clone(&queue),
            stats: Arc::clone(&stats),
        };
        let mut worker = RolloutWorker::new(i, setup, &cfg, client);
        let live = Arc::clone(&live);
        worker_threads.push(std::thread::spawn(move || {
            worker.run(ROUNDS, STEPS_PER_ROUND);
            live.fetch_sub(1, Ordering::Release);
        }));
    }

    let (listener, addr) = TcpTransport::listen_localhost().expect("loopback listener");
    listener.set_nonblocking(true).expect("nonblocking accept");
    let exe = std::env::current_exe().expect("own binary path");
    let mut child = std::process::Command::new(exe)
        .env(
            "ASYNC_TRAINING_WORKER",
            format!("{addr};{IN_PROCESS_WORKERS}"),
        )
        .spawn()
        .expect("spawn child worker");
    println!(
        "child worker {} dialing {addr} from pid {}",
        IN_PROCESS_WORKERS,
        child.id()
    );
    let serve_thread = {
        let (ps, queue, stats, live) = (
            Arc::clone(&ps),
            Arc::clone(&queue),
            Arc::clone(&stats),
            Arc::clone(&live),
        );
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let transport = loop {
                match TcpTransport::accept(&listener) {
                    Ok(t) => break Some(t),
                    Err(_) if t0.elapsed() < Duration::from_secs(20) => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => break None,
                }
            };
            let Some(transport) = transport else {
                eprintln!("async_training: child worker never connected");
                live.fetch_sub(1, Ordering::Release);
                return false;
            };
            transport
                .set_io_deadline(Some(Duration::from_millis(500)))
                .expect("serve deadline");
            serve_worker(transport, ps, queue, stats);
            live.fetch_sub(1, Ordering::Release);
            true
        })
    };

    // The monitor: collection rate, published version, mean staleness.
    let done = Arc::new(AtomicBool::new(false));
    let monitor = {
        let (stats, done) = (Arc::clone(&stats), Arc::clone(&done));
        std::thread::spawn(move || {
            println!(
                "{:>8} {:>14} {:>10} {:>10}",
                "t", "transitions/s", "weights", "mean lag"
            );
            let t0 = Instant::now();
            let mut last = (Instant::now(), 0u64);
            while !done.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(250));
                let now = Instant::now();
                let total = stats.transitions();
                let rate = (total - last.1) as f64 / now.duration_since(last.0).as_secs_f64();
                last = (now, total);
                println!(
                    "{:>7.1}s {:>14.0} {:>10} {:>10.2}",
                    t0.elapsed().as_secs_f64(),
                    rate,
                    format!("v{}", stats.weight_version()),
                    stats.mean_version_lag(),
                );
            }
        })
    };

    // The learner drives on the main thread until collection finishes.
    learner.drive(&queue, &live, TRAIN_PER_BATCH);
    done.store(true, Ordering::Release);
    for t in worker_threads {
        t.join().expect("worker thread");
    }
    queue.close();
    let served = serve_thread.join().expect("serve thread");
    monitor.join().expect("monitor thread");
    let status = child.wait().expect("child exit status");

    // Final decision: greedy pick + elite, validated by measurement.
    let mut validation = sc.sim_env(&cfg, cfg.seed);
    let solution =
        learner.finalize_measured(&mut validation, &sc.initial_assignment(), &sc.app.workload);
    let snap = stats.snapshot();
    println!("\nfinal: {snap:#?}");
    println!("solution: {:?}", solution.as_slice());

    check(served, "TCP worker was served");
    check(status.success(), "child worker exited cleanly");
    let expected = ((IN_PROCESS_WORKERS + 1) * ROUNDS * STEPS_PER_ROUND) as u64;
    check(
        snap.transitions == expected,
        "every batch from all four workers must land",
    );
    check(snap.train_steps > 0, "learner must train");
    check(snap.weight_version > 1, "policy must be republished");
    check(
        snap.pushes_during_train > 0,
        "workers must push while the learner trains (overlap)",
    );
    check(
        solution.as_slice().len() == n,
        "solution covers every executor",
    );
    check(
        solution.as_slice().iter().all(|&mac| mac < m),
        "solution maps onto real machines",
    );
    println!("\nasync_training: all shape checks passed");
}
