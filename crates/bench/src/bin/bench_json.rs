//! Machine-readable NN/RL hot-path benchmarks → `BENCH_nn.json`.
//!
//! Times the training hot path at the paper's sizes (replay |B| = 1000,
//! mini-batch H = 32, hidden 64/32) and writes ns/iter for every probe to
//! a JSON artifact, so each PR records a point of the performance
//! trajectory and later PRs can regress against it.
//!
//! Every "after" probe is paired with a faithfully reconstructed "before"
//! implementation — the seed's naive triple-loop matmul, clone-caching
//! layers, and per-sample target evaluation — compiled *in this binary*
//! (the production crates keep the naive kernels only as a test oracle).
//! The headline `speedups` section is computed from those pairs.
//!
//! Parallel probes (`*_par`, `rollout_*`) run the same code under a
//! multi-thread `workpool` pool and pair against the serial-pool run of
//! the *same* kernel; their speedup keys carry a `par_` prefix, flagging
//! them as machine-parallelism-dependent — `bench_gate` exempts them from
//! the regression gate, since a 1-core CI runner cannot show multi-core
//! wins. Serial probes are pinned to a 1-thread pool so their numbers
//! stay comparable with earlier committed artifacts regardless of
//! machine size.
//!
//! Precision pairs: the production stack trains in `Elem` (f32) since the
//! generic-scalar refactor; every core probe also runs an explicit `f64`
//! instantiation of the *same* code (`*_f64*` probes), and the
//! `f32_over_f64_*` speedup keys record the single-precision win on the
//! serial-pinned pairs. These are serial-gated by `bench_gate` (≥ 1.0×,
//! except the sparsity-bound act pair, which gates at 0.8 — see the
//! `bench_gate` threshold table), so the f32 default can never silently
//! regress below double precision.
//! The dispatched GEMM microkernel (`avx2_fma` / `scalar` — see
//! `DSS_NO_SIMD`) is recorded in `config.microkernel`, and the measuring
//! host's physical parallelism in `config.host_cores` (so a `par_* ≈ 1.0`
//! ratio from a 1-core container is self-describing). The ungated
//! `sim_env_step_cq_small` probe records the cost of one decision epoch
//! against the tuple-level training backend (`SimEnv`).
//!
//! ```text
//! bench_json [--quick] [--out PATH]
//!
//! --quick    tiny measurement budget (CI smoke; numbers still emitted)
//! --out      output path (default: BENCH_nn.json)
//!
//! DSS_THREADS   parallelism for the parallel probes (also the knob the
//!               production pool honors); defaults to the machine's
//!               available parallelism, floored at 2 here so the sharded
//!               code path is exercised even on 1-core runners
//! ```

use std::sync::Arc;
use std::time::Instant;

use dss_core::{ControlConfig, Environment, ParallelCollector, Scenario, SchedState};
use dss_nn::{
    microkernel_name, mse_loss_grad, Activation, Adam, Elem, Matrix, Mlp, Optimizer, Scalar,
};
use dss_rl::{
    ActScratch, ActionMapper, DdpgAgent, DdpgConfig, DqnAgent, DqnConfig, HierarchicalMapper,
    KBestMapper, QuantActScratch, ReplayBuffer, ShardedReplayBuffer, Transition,
};
use dss_sim::{ClusterSpec, Grouping, SimConfig, TopologyBuilder, Workload};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use workpool::{with_pool, Pool};

/// Paper sizes: |B| = 1000 replay, H = 32 minibatch, 64/32 hidden units.
const REPLAY_B: usize = 1000;
const BATCH_H: usize = 32;
/// A 10-thread × 10-machine assignment problem: N·M = 100 actions, and a
/// state of the one-hot assignment plus load features.
const STATE_DIM: usize = 128;
const N_ACTIONS: usize = 100;

const USAGE: &str = "\
bench_json [--quick] [--out PATH]

  --quick    tiny measurement budget (CI smoke; numbers still emitted)
  --out      output path (default: BENCH_nn.json)

Environment:
  DSS_THREADS   pool size for the parallel probes (and for the production
                workpool everywhere else); defaults to the machine's
                available parallelism, floored at 2 here so the sharded
                code path is always exercised. Serial probes are pinned
                to a 1-thread pool regardless.";

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_nn.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out needs a value"),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => panic!("unknown flag `{other}`; expected --quick/--out/--help"),
        }
    }
    let budget_ms = if quick { 3 } else { 60 };

    // Serial probes are pinned to a 1-thread pool (numbers comparable with
    // PR 1's artifact on any machine); parallel probes run under this one.
    let serial = Arc::new(Pool::new(1));
    // Same DSS_THREADS semantics as the production pool, floored at 2 so
    // the sharded code path is exercised even on 1-core runners.
    let par_threads = workpool::default_threads().max(2);
    let par = Arc::new(Pool::new(par_threads));

    let mut results: Vec<(String, f64)> = Vec::new();
    let mut record = |name: &str, ns: f64| {
        println!("{name:<44} {ns:>14.1} ns/iter");
        results.push((name.to_string(), ns));
    };

    // ---- matmul kernels: blocked (Elem = f32) vs the seed's naive
    // loops, the row-sharded parallel path vs the serial blocked kernel,
    // and the f64 instantiation of the same blocked kernel -------------
    // (m, k, n) shapes from the training path: hidden layers at H=32, the
    // CQ-large critic input layer, and a square stress shape.
    for &(m, k, n) in &[(32usize, 64usize, 32usize), (32, 2001, 64), (128, 128, 128)] {
        let mut rng = StdRng::seed_from_u64(1);
        let a: Matrix = Matrix::from_fn(m, k, |_, _| rng.random_range(-1.0..1.0));
        let b: Matrix = Matrix::from_fn(k, n, |_, _| rng.random_range(-1.0..1.0));
        let mut out = Matrix::default();
        record(
            &format!("matmul_{m}x{k}x{n}_blocked"),
            with_pool(serial.clone(), || {
                bench_ns(budget_ms, || a.matmul_into(&b, &mut out))
            }),
        );
        record(
            &format!("matmul_{m}x{k}x{n}_par"),
            with_pool(par.clone(), || {
                bench_ns(budget_ms, || a.matmul_into(&b, &mut out))
            }),
        );
        record(
            &format!("matmul_{m}x{k}x{n}_naive"),
            bench_ns(budget_ms, || {
                std::hint::black_box(reference::matmul(&a, &b));
            }),
        );
        let bt: Matrix = Matrix::from_fn(n, k, |r, c| b[(c, r)]);
        record(
            &format!("matmul_t_b_{m}x{k}x{n}_blocked"),
            with_pool(serial.clone(), || {
                bench_ns(budget_ms, || a.matmul_transpose_b_into(&bt, &mut out))
            }),
        );
        record(
            &format!("matmul_t_b_{m}x{k}x{n}_par"),
            with_pool(par.clone(), || {
                bench_ns(budget_ms, || a.matmul_transpose_b_into(&bt, &mut out))
            }),
        );
        record(
            &format!("matmul_t_b_{m}x{k}x{n}_naive"),
            bench_ns(budget_ms, || {
                std::hint::black_box(reference::matmul_transpose_b(&a, &bt));
            }),
        );
        // Same blocked kernel, f64 elements — the denominator of the
        // `f32_over_f64_matmul_*` precision pairs (serial-pinned).
        let a64: Matrix<f64> = Matrix::from_fn(m, k, |r, c| a[(r, c)] as f64);
        let b64: Matrix<f64> = Matrix::from_fn(k, n, |r, c| b[(r, c)] as f64);
        let mut out64 = Matrix::default();
        record(
            &format!("matmul_{m}x{k}x{n}_f64_blocked"),
            with_pool(serial.clone(), || {
                bench_ns(budget_ms, || a64.matmul_into(&b64, &mut out64))
            }),
        );
        let bt64: Matrix<f64> = Matrix::from_fn(n, k, |r, c| bt[(r, c)] as f64);
        record(
            &format!("matmul_t_b_{m}x{k}x{n}_f64_blocked"),
            with_pool(serial.clone(), || {
                bench_ns(budget_ms, || a64.matmul_transpose_b_into(&bt64, &mut out64))
            }),
        );
    }

    // ---- MLP forward+backward at the paper's critic shape -------------
    // state ‖ action input → 64/32 tanh → scalar Q, batch H = 32, run for
    // both scalar instantiations of the same training step.
    record(
        "mlp_fwd_bwd_h32_scratch",
        with_pool(serial.clone(), || mlp_step_probe::<Elem>(budget_ms)),
    );
    record(
        "mlp_fwd_bwd_h32_par",
        with_pool(par.clone(), || mlp_step_probe::<Elem>(budget_ms)),
    );
    record(
        "mlp_fwd_bwd_h32_f64",
        with_pool(serial.clone(), || mlp_step_probe::<f64>(budget_ms)),
    );
    {
        let sizes = [STATE_DIM + N_ACTIONS, 64, 32, 1];
        let acts = [Activation::Tanh, Activation::Tanh, Activation::Identity];
        let mut rng = StdRng::seed_from_u64(2);
        let x: Matrix = Matrix::from_fn(BATCH_H, sizes[0], |_, _| rng.random_range(-1.0..1.0));
        let y: Matrix = Matrix::from_fn(BATCH_H, 1, |_, _| rng.random_range(-1.0..0.0));
        let donor = Mlp::new(&sizes, &acts, 7);
        let mut net = reference::RefMlp::from_mlp(&donor);
        let mut opt = Adam::new(1e-3);
        record(
            "mlp_fwd_bwd_h32_clone_naive",
            bench_ns(budget_ms, || {
                let pred = net.forward(&x);
                let (_, grad) = mse_loss_grad(&pred, &y);
                net.zero_grad();
                net.backward(&grad);
                net.apply_gradients(&mut opt);
            }),
        );
    }

    // ---- DQN train step at paper sizes, both scalar instantiations ----
    record(
        "dqn_train_step_batched",
        with_pool(serial.clone(), || dqn_step_probe::<Elem>(budget_ms)),
    );
    record(
        "dqn_train_step_par",
        with_pool(par.clone(), || dqn_step_probe::<Elem>(budget_ms)),
    );
    record(
        "dqn_train_step_f64",
        with_pool(serial.clone(), || dqn_step_probe::<f64>(budget_ms)),
    );
    {
        let mut agent = reference::OldDqn::new(STATE_DIM, N_ACTIONS, REPLAY_B, BATCH_H);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..REPLAY_B {
            agent.replay.push(random_transition(&mut rng));
        }
        record(
            "dqn_train_step_per_sample",
            bench_ns(budget_ms, || {
                agent.train_step(&mut rng);
            }),
        );
    }

    // ---- rollout act path (select_action_into), both scalars ----------
    // The per-decision kernel every collector actor runs: actor infer →
    // ε-noise → K-NN mapping → batched critic argmax, all through reused
    // scratch. Serial-pinned so the f32/f64 pair is machine-independent.
    record(
        "rollout_act_f32",
        with_pool(serial.clone(), || act_path_probe::<Elem>(budget_ms)),
    );
    record(
        "rollout_act_f64",
        with_pool(serial.clone(), || act_path_probe::<f64>(budget_ms)),
    );

    // ---- activation row kernel vs per-element libm -------------------
    // A 32 × 1000 pre-activation batch plus a 1000-wide bias, refreshed
    // from the same source before every pass: `act(v + b)` element by
    // element through the host libm (`f32::tanh`, `1/(1+f32::exp(−z))`)
    // against `Activation::apply_row` (the AVX-512 / AVX2 kernels, or the
    // scalar port). Gated in `bench_gate` at >= 3.0x (tanh) and >= 2.0x
    // (sigmoid).
    {
        const ROWS: usize = 32;
        const COLS: usize = 1000;
        let mut rng = StdRng::seed_from_u64(11);
        let src: Vec<f32> = (0..ROWS * COLS)
            .map(|_| rng.random_range(-4.0..4.0))
            .collect();
        let bias: Vec<f32> = (0..COLS).map(|_| rng.random_range(-0.5..0.5)).collect();
        let mut work = src.clone();
        let libm: [fn(f32) -> f32; 2] = [f32::tanh, |z| 1.0 / (1.0 + (-z).exp())];
        let acts = [("tanh", Activation::Tanh), ("sigmoid", Activation::Sigmoid)];
        for ((name, act), f) in acts.into_iter().zip(libm) {
            record(
                &format!("act_{name}_f32_libm"),
                with_pool(serial.clone(), || {
                    bench_ns(budget_ms, || {
                        work.copy_from_slice(&src);
                        for row in work.chunks_exact_mut(COLS) {
                            for (v, &b) in row.iter_mut().zip(&bias) {
                                *v = f(*v + b);
                            }
                        }
                        std::hint::black_box(&mut work);
                    })
                }),
            );
            record(
                &format!("act_{name}_f32_row"),
                with_pool(serial.clone(), || {
                    bench_ns(budget_ms, || {
                        work.copy_from_slice(&src);
                        for row in work.chunks_exact_mut(COLS) {
                            act.apply_row(row, &bias);
                        }
                        std::hint::black_box(&mut work);
                    })
                }),
            );
        }
    }

    // ---- quantized rollout act path + policy frame bytes ----------------
    // The same decision as `rollout_act_f32`, run through the rollout
    // quantization profile (`DdpgAgent::rollout_quant_policy`): exact-f32
    // actor, i8 critic bulk, bf16 critic action block and tail. Gated
    // (`quant_rollout_act_over_f32` >= 1.2x): the i8 kernels must keep
    // beating the f32 act path. The two `policy_frame_bytes_*` records
    // hold **bytes** (not ns) — their ratio is the wire-size win a
    // `rollout_quant` worker pull sees, gated at f32/quant >= 2.857x
    // (quant frame <= 0.35x of the full-precision image).
    {
        let (n, m) = (10usize, 10usize);
        let agent: DdpgAgent = DdpgAgent::new(
            STATE_DIM,
            n * m,
            DdpgConfig {
                replay_capacity: 64,
                batch: BATCH_H,
                ..DdpgConfig::default()
            },
        );
        let policy = agent.rollout_quant_policy();
        let mut mapper: KBestMapper = KBestMapper::new(n, m);
        let mut scratch: QuantActScratch<Elem> = QuantActScratch::default();
        let mut rng = StdRng::seed_from_u64(9);
        let state: Vec<Elem> = (0..STATE_DIM)
            .map(|_| <Elem as Scalar>::from_f64(rng.random_range(0.0..1.0)))
            .collect();
        record(
            "quant_rollout_act",
            with_pool(serial.clone(), || {
                bench_ns(budget_ms, || {
                    std::hint::black_box(policy.select_action_into(
                        &state,
                        &mut mapper,
                        0.3,
                        &mut rng,
                        &mut scratch,
                    ));
                })
            }),
        );
        record("policy_frame_bytes_f32", agent.save_policy().len() as f64);
        record("policy_frame_bytes_quant", policy.encode().len() as f64);
    }

    // ---- DDPG train step (batched candidate scoring) -------------------
    {
        let (n, m) = (10, 10);
        let mut agent = DdpgAgent::new(
            STATE_DIM,
            n * m,
            DdpgConfig {
                replay_capacity: REPLAY_B,
                batch: BATCH_H,
                ..DdpgConfig::default()
            },
        );
        let mut mapper = KBestMapper::new(n, m);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..REPLAY_B {
            let t = random_transition::<Elem>(&mut rng);
            let mut onehot = vec![0.0 as Elem; n * m];
            for i in 0..n {
                onehot[i * m + rng.random_range(0..m)] = 1.0;
            }
            agent.store(Transition::new(t.state, onehot, t.reward, t.next_state));
        }
        record(
            "ddpg_train_step_batched",
            with_pool(serial.clone(), || {
                bench_ns(budget_ms, || {
                    agent.train_step(&mut mapper, &mut rng);
                })
            }),
        );
    }

    // ---- replay sampling: clone-free indices vs reference Vec ----------
    {
        let mut buf: ReplayBuffer<usize, Elem> = ReplayBuffer::new(REPLAY_B);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..REPLAY_B {
            let t = random_transition(&mut rng);
            buf.push(t);
        }
        let mut idx = Vec::new();
        record(
            "replay_sample_indices_h32",
            bench_ns(budget_ms, || {
                buf.sample_indices_into(BATCH_H, &mut rng, &mut idx);
                std::hint::black_box(&idx);
            }),
        );
        record(
            "replay_sample_clone_h32",
            bench_ns(budget_ms, || {
                let batch: Vec<Transition<usize, Elem>> =
                    buf.sample(BATCH_H, &mut rng).into_iter().cloned().collect();
                std::hint::black_box(&batch);
            }),
        );
    }

    // ---- sharded replay under writer contention -------------------------
    // One probe iteration = WRITERS × PUSHES transitions. The serial
    // baseline pushes the same total into a single AoS ring on one thread
    // (per-transition row Vecs and all); the sharded probe copies rows
    // into the structure-of-arrays slabs, fanned out over the pool
    // (actor i → shard i) — the parallel collector's write pattern.
    {
        const WRITERS: usize = 4;
        const PUSHES: usize = 250;
        let total = (WRITERS * PUSHES) as f64;
        let mut rng = StdRng::seed_from_u64(6);
        let mut single: ReplayBuffer<usize, Elem> = ReplayBuffer::new(REPLAY_B);
        let mut seq = 0usize;
        record(
            "replay_push_serial_1k",
            bench_ns(budget_ms, || {
                for _ in 0..WRITERS * PUSHES {
                    seq = seq.wrapping_add(1);
                    single.push(Transition::new(vec![seq as Elem], 0, 0.0, vec![0.0]));
                }
            }) / total,
        );
        let sharded: ShardedReplayBuffer<Elem> =
            ShardedReplayBuffer::new(WRITERS, REPLAY_B / 4, 1, 1);
        record(
            "replay_push_sharded_4w_1k",
            bench_ns(budget_ms, || {
                // One chunk per writer, self-scheduled over the pool;
                // chunk index = shard, matching the collector's pattern.
                par.for_each_chunk(WRITERS * PUSHES, PUSHES, |range| {
                    let shard = range.start / PUSHES;
                    for i in range {
                        sharded.push_rows(shard, &[i as Elem], &[0.0], 0.0, &[0.0]);
                    }
                });
            }) / total,
        );
        let mut idx = Vec::new();
        record(
            "replay_sample_sharded_h32",
            bench_ns(budget_ms, || {
                sharded.sample_indices_into(BATCH_H, &mut rng, &mut idx);
                std::hint::black_box(&idx);
            }),
        );
    }

    // ---- tuple-level training backend: SimEnv step throughput -----------
    // ns per deploy-and-measure decision epoch against the live engine on
    // the small continuous-queries scenario (1 s epochs). Ungated: the
    // cost scales with simulated tuple traffic, not with code quality
    // alone — this records the price of high-fidelity training.
    {
        let scenario = Scenario::by_name("cq-small-steady").expect("registry scenario");
        let cfg = ControlConfig {
            sim_epoch_s: 1.0,
            ..ControlConfig::test()
        };
        let mut env = scenario.sim_env(&cfg, 7);
        let workload = scenario.app.workload.clone();
        let solution = scenario.initial_assignment();
        // Warm the engine past the empty-window cold start.
        env.deploy_and_measure(&solution, &workload);
        record(
            "sim_env_step_cq_small",
            bench_ns(budget_ms, || {
                std::hint::black_box(env.deploy_and_measure(&solution, &workload));
            }),
        );
    }

    // ---- control-plane training backend: ClusterEnv step throughput -----
    // The same decision epoch as `sim_env_step_cq_small`, but every step
    // is a full Figure-1 round trip (framed codec, coord CAS, supervisor
    // heartbeats). Ungated; the pair quantifies the control plane's
    // per-epoch overhead on top of the bare engine.
    {
        let scenario = Scenario::by_name("cq-small-steady").expect("registry scenario");
        let cfg = ControlConfig {
            sim_epoch_s: 1.0,
            ..ControlConfig::test()
        };
        let mut env = scenario.cluster_env(&cfg, 7);
        let workload = scenario.app.workload.clone();
        let solution = scenario.initial_assignment();
        env.deploy_and_measure(&solution, &workload);
        record(
            "cluster_env_step_cq_small",
            bench_ns(budget_ms, || {
                std::hint::black_box(env.deploy_and_measure(&solution, &workload));
            }),
        );
    }

    // ---- control-plane backend under chaos: lossy-link step -------------
    // The same decision epoch and the same exchange as
    // `cluster_env_step_cq_small`, but over the registry's lossy link (15%
    // drop + duplicates + delays + corruption each way): every step also
    // pays the retransmits the chaos forces and the replays of the
    // master-side duplicate suppression. Since the failover PR it also
    // pays *durability*: a chaos plan routes serving through the master
    // pool, which commits an fsynced recovery image (WAL append + coord
    // CAS) after every state-changing request — the clean probe is served
    // by the pool's leader directly, with no commit, so the ~3-4x gap to
    // it is almost all commit cost, not retry cost (see the bench README's
    // drift note).
    // Ungated; the gap to the clean cluster probe is the price of riding
    // an unreliable network with a crash-safe master.
    {
        let scenario = Scenario::by_name("cq-small-lossy").expect("registry scenario");
        let cfg = ControlConfig {
            sim_epoch_s: 1.0,
            ..ControlConfig::test()
        };
        let mut env = scenario.cluster_env(&cfg, 7);
        let workload = scenario.app.workload.clone();
        let solution = scenario.initial_assignment();
        env.deploy_and_measure(&solution, &workload);
        record(
            "cluster_env_step_cq_small_lossy",
            bench_ns(budget_ms, || {
                std::hint::black_box(env.deploy_and_measure(&solution, &workload));
            }),
        );
    }

    // ---- crash-safe training: durable checkpoint write ------------------
    // ns per `TrainCheckpoint::save` of a paper-sized training image (a
    // DDPG agent with its full 1000-transition replay ring) through the
    // store crate's atomic blob swap — tmp write, fsync, rename, CRC.
    // Ungated: the cost is dominated by payload size and fsync latency,
    // not code quality; the artifact records what a checkpoint boundary
    // costs so the `every` cadence can be chosen against real numbers.
    // Probe note: the probe now encodes through `save_with` with a reused
    // scratch, matching the durable loop — the 16.7ms → 20.4ms creep was
    // part grow-from-empty realloc of the multi-MB image per save (fixed
    // by scratch reuse) and part fsync jitter on the runner, which still
    // moves the number between artifacts and is why this stays ungated.
    {
        use dss_core::experiment::Method;
        use dss_core::TrainCheckpoint;
        let mut agent: DdpgAgent = DdpgAgent::new(
            STATE_DIM,
            N_ACTIONS,
            DdpgConfig {
                replay_capacity: REPLAY_B,
                batch: BATCH_H,
                ..DdpgConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..REPLAY_B {
            let t = random_transition::<Elem>(&mut rng);
            let mut onehot = vec![0.0 as Elem; N_ACTIONS];
            onehot[rng.random_range(0..N_ACTIONS)] = 1.0;
            agent.store(Transition::new(t.state, onehot, t.reward, t.next_state));
        }
        let ckpt = TrainCheckpoint {
            method: Method::ActorCritic,
            seed: 7,
            completed: 0,
            rewards: dss_metrics::TimeSeries::new(),
            actions: Vec::new(),
            env_image: None,
            scheduler_state: agent.save_state(),
        };
        let dir = std::env::temp_dir().join(format!("dss-bench-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("checkpoint bench dir");
        let path = dir.join("bench.ckpt");
        let mut scratch = Vec::new();
        record(
            "checkpoint_write",
            bench_ns(budget_ms, || {
                ckpt.save_with(&path, &mut scratch)
                    .expect("checkpoint write");
            }),
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    // ---- master failover: recovery-image load + rebuild -----------------
    // ns per standby promotion's recovery half: load the newest committed
    // RecoveryImage (coordination znode / WAL), rebuild the engine from
    // its snapshot, and take over the assignment znode — the work between
    // "election won" and "serving again" on the cq-small cluster, warmed
    // 120 simulated seconds so the image carries real queues. Ungated,
    // recorded so PRs can watch recovery time against session timeouts.
    {
        use dss_coord::{CoordConfig, CoordService};
        use dss_nimbus::{Nimbus, NimbusConfig, RecoveryImage, RecoveryStore};
        let scenario = Scenario::by_name("cq-small-steady").expect("registry scenario");
        let coord = CoordService::new(CoordConfig {
            session_timeout_ms: 30_000,
        });
        let engine = scenario.sim_engine(7);
        let topology = engine.topology().clone();
        let cluster = engine.cluster().clone();
        let sim_config = *engine.config();
        let mut nimbus = Nimbus::launch(
            engine,
            scenario.app.workload.clone(),
            scenario.initial_assignment(),
            &coord,
            NimbusConfig::default(),
        )
        .expect("nimbus launch");
        nimbus.advance(120.0);
        let image = RecoveryImage::capture(&nimbus, 0);
        let dir = std::env::temp_dir().join(format!("dss-bench-wal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut store = RecoveryStore::open(&dir).expect("wal dir");
        let session = coord.connect();
        store.commit(&session, &image).expect("image commit");
        record(
            "master_recover",
            bench_ns(budget_ms, || {
                let img = store
                    .load(&session, topology.name())
                    .expect("image load")
                    .expect("image present");
                std::hint::black_box(
                    img.rebuild(
                        topology.clone(),
                        cluster.clone(),
                        sim_config,
                        &coord,
                        NimbusConfig::default(),
                    )
                    .expect("master rebuild"),
                );
            }),
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    // ---- fleet-scale engine step: event-driven engine vs dense oracle ----
    // One 0.25 s decision epoch of the cq-fleet scenario (1152 executors,
    // 128 machines, 7 of 8 ingest lanes silent). The dense oracle scans
    // every pending event per pop and keeps idle spouts polling; the
    // event-driven engine pops from a 4-ary heap and parks silent spouts,
    // so its cost follows the ~100 busy executors, not the cluster.
    // Gated (`fleet_engine_step` >= 5x): sublinearity in idle capacity
    // must not regress.
    {
        let scenario = Scenario::by_name("cq-fleet").expect("registry scenario");
        let probe = |dense: bool| {
            let mut engine = scenario.sim_engine_with(SimConfig::steady_state(7));
            engine.set_dense_events(dense);
            engine
                .deploy(scenario.initial_assignment())
                .expect("deployable");
            engine.step_epoch(0.25); // warm past the cold start
            bench_ns(budget_ms, || {
                std::hint::black_box(engine.step_epoch(0.25));
            })
        };
        record("fleet_engine_step_event", probe(false));
        record("fleet_engine_step_dense", probe(true));
    }

    // ---- fleet-scale action mapping: flat K-NN vs hierarchical ----------
    // One K = 8 mapper query on the 1152 x 128 fleet problem. The flat
    // mapper enumerates k-best assignments over all 128 machine columns
    // and materializes all 8 candidates; the hierarchical mapper solves
    // over 16 core-class groups, refines the winners over one group's
    // machines, and prunes to the top 2 candidates before materializing.
    {
        let (n, m) = (1152usize, 128usize);
        let groups = ClusterSpec::fleet(128, 8, 12).machine_groups(16);
        let mut flat: KBestMapper = KBestMapper::new(n, m);
        let mut hier: HierarchicalMapper = HierarchicalMapper::new(n, m, groups, 2);
        let mut rng = StdRng::seed_from_u64(11);
        let proto: Vec<Elem> = (0..n * m).map(|_| rng.random_range(0.0..1.0)).collect();
        let mut out = Vec::new();
        record(
            "fleet_mapper_query_flat",
            with_pool(serial.clone(), || {
                bench_ns(budget_ms, || {
                    flat.nearest_into(&proto, 8, &mut out);
                    std::hint::black_box(&out);
                })
            }),
        );
        record(
            "fleet_mapper_query_hier",
            with_pool(serial.clone(), || {
                bench_ns(budget_ms, || {
                    hier.nearest_into(&proto, 8, &mut out);
                    std::hint::black_box(&out);
                })
            }),
        );
    }

    // ---- fleet-scale rollout act path: flat vs hierarchical+pruned ------
    // One full decision (actor infer -> noise -> mapping -> critic argmax)
    // on the real cq-fleet problem: the state is the featurized one-hot
    // assignment plus rate tail the act path actually sees, so the
    // sparsity-aware scoring runs at its deployed cost. The hierarchical
    // mapper's top-2 pruning also shrinks the critic argmax from 8
    // candidates to 2. Reported, not gated.
    {
        let scenario = Scenario::by_name("cq-fleet").expect("registry scenario");
        let (n, m) = (scenario.n_executors(), scenario.n_machines());
        let state_dim = scenario.state_dim();
        let agent: DdpgAgent = DdpgAgent::new(
            state_dim,
            n * m,
            DdpgConfig {
                k: 8,
                hidden: [16, 8],
                replay_capacity: 64,
                batch: BATCH_H,
                seed: 13,
                ..DdpgConfig::default()
            },
        );
        let mut flat: KBestMapper = KBestMapper::new(n, m);
        let mut hier: HierarchicalMapper =
            HierarchicalMapper::new(n, m, ClusterSpec::fleet(128, 8, 12).machine_groups(16), 2);
        let mut rng = StdRng::seed_from_u64(9);
        let mut state = Vec::new();
        dss_core::state::featurize_into(
            &scenario.initial_assignment(),
            &scenario.app.workload,
            ControlConfig::paper().rate_scale,
            &mut state,
        );
        assert_eq!(state.len(), state_dim, "featurized fleet state width");
        let mut flat_scratch = ActScratch::default();
        let mut hier_scratch = ActScratch::default();
        record(
            "fleet_rollout_act_flat",
            with_pool(serial.clone(), || {
                bench_ns(budget_ms, || {
                    std::hint::black_box(agent.select_action_into(
                        &state,
                        &mut flat,
                        0.3,
                        &mut rng,
                        &mut flat_scratch,
                    ));
                })
            }),
        );
        record(
            "fleet_rollout_act_hier",
            with_pool(serial.clone(), || {
                bench_ns(budget_ms, || {
                    std::hint::black_box(agent.select_action_into(
                        &state,
                        &mut hier,
                        0.3,
                        &mut rng,
                        &mut hier_scratch,
                    ));
                })
            }),
        );
    }

    // ---- end-to-end rollout throughput at 1/2/4/8 actors ----------------
    // ns per collected transition of the parallel experience-collection
    // driver (tiny 4-executor topology, analytic environment, frozen
    // agent): the scaling headline for Rapid-style actor parallelism.
    {
        let mut b = TopologyBuilder::new("bench");
        let spout = b.spout("s", 1, 0.05);
        let bolt = b.bolt("x", 3, 0.2);
        b.edge(spout, bolt, Grouping::Shuffle, 1.0, 64);
        let topology = b.build().expect("valid bench topology");
        let cluster = ClusterSpec::homogeneous(2);
        let workload = Workload::uniform(&topology, 100.0);
        let cfg = ControlConfig::test();
        let n = topology.n_executors();
        let m = cluster.n_machines();
        let agent = DdpgAgent::new(
            SchedState::feature_dim(n, m, 1),
            n * m,
            DdpgConfig {
                k: 4,
                hidden: [16, 8],
                seed: cfg.seed,
                ..DdpgConfig::default()
            },
        );
        const STEPS: usize = 8;
        for &actors in &[1usize, 2, 4, 8] {
            let mut col = ParallelCollector::new(&topology, &cluster, &workload, &cfg, actors, 512);
            record(
                &format!("rollout_{actors}actors_per_transition"),
                with_pool(par.clone(), || {
                    bench_ns(budget_ms, || {
                        col.collect_round(&agent, 0.3, STEPS);
                    })
                }) / (actors * STEPS) as f64,
            );
        }
    }

    // ---- async training service: parameter server, batch framing, and
    // the async-vs-lockstep collection throughput pair ------------------
    {
        use dss_core::experiment::Backend;
        use dss_trainer::{
            train_service_on, ParameterServer, SyncMode, TrainerConfig, TransitionRows, WorkerLink,
        };

        // Weight publish/pull round trip at the probe agent shape:
        // publish serializes the policy nets and swaps the versioned
        // slot; pull is the copy-on-read Arc handoff workers see.
        let agent: DdpgAgent = DdpgAgent::new(
            STATE_DIM,
            N_ACTIONS,
            DdpgConfig {
                seed: 7,
                ..DdpgConfig::default()
            },
        );
        let ps = ParameterServer::new();
        record(
            "ps_publish",
            bench_ns(budget_ms, || {
                ps.publish(agent.save_policy());
            }),
        );
        record(
            "ps_pull",
            bench_ns(budget_ms, || {
                std::hint::black_box(ps.pull());
            }),
        );

        // Encode+decode of a 256-row worker batch through the frame codec
        // — the per-push wire cost of a remote rollout worker.
        let mut rng = StdRng::seed_from_u64(11);
        let mut batch = TransitionRows::new(3, STATE_DIM, N_ACTIONS);
        for _ in 0..256 {
            let state: Vec<Elem> = (0..STATE_DIM)
                .map(|_| <Elem as Scalar>::from_f64(rng.random_range(-1.0..1.0)))
                .collect();
            let next: Vec<Elem> = (0..STATE_DIM)
                .map(|_| <Elem as Scalar>::from_f64(rng.random_range(-1.0..1.0)))
                .collect();
            let mut action = vec![<Elem as Scalar>::ZERO; N_ACTIONS];
            action[rng.random_range(0..N_ACTIONS)] = <Elem as Scalar>::from_f64(1.0);
            batch.push_row(&state, &action, rng.random_range(-4.0..0.0), &next);
        }
        record(
            "transition_batch_framing",
            bench_ns(budget_ms, || {
                let frame = dss_proto::encode_frame(&batch.to_message());
                std::hint::black_box(dss_proto::decode_frame(&frame).expect("round trip"));
            }),
        );

        // Collection throughput, async service vs deterministic lockstep:
        // one full (small) training run each, normalized to ns per
        // transition accepted by the learner. The async side overlaps
        // collection with optimization across 4 workers, so multi-core
        // hosts must come out ≥ 1.0 (`bench_gate` waives the pair on
        // 1-core hosts, like the `par_*` keys).
        let cfg = ControlConfig {
            offline_samples: 6,
            offline_steps: 8,
            online_epochs: 32,
            eps_decay_epochs: 8,
            sim_epoch_s: 5.0,
            ..ControlConfig::test()
        };
        let sc = Scenario::by_name("cq-small-steady").expect("registry scenario");
        let lockstep_tc = TrainerConfig {
            mode: SyncMode::Lockstep,
            ..TrainerConfig::default()
        };
        let t0 = Instant::now();
        let out = with_pool(par.clone(), || {
            train_service_on(
                Backend::Analytic,
                &sc,
                &cfg,
                &lockstep_tc,
                &WorkerLink::InProcess,
            )
        });
        record(
            "lockstep_ns_per_transition",
            t0.elapsed().as_nanos() as f64 / out.stats.transitions.max(1) as f64,
        );
        let async_tc = TrainerConfig {
            mode: SyncMode::Async,
            n_workers: 4,
            rounds: 8,
            steps_per_round: 4,
            train_per_batch: 4,
            publish_every: 4,
            ..TrainerConfig::default()
        };
        let t0 = Instant::now();
        let out = with_pool(par.clone(), || {
            train_service_on(
                Backend::Analytic,
                &sc,
                &cfg,
                &async_tc,
                &WorkerLink::InProcess,
            )
        });
        record(
            "async_ns_per_transition",
            t0.elapsed().as_nanos() as f64 / out.stats.transitions.max(1) as f64,
        );
    }

    // ---- emit -----------------------------------------------------------
    let json = to_json(&results, quick, par_threads);
    std::fs::write(&out_path, &json).expect("write BENCH_nn.json");
    println!("# wrote {out_path}");
    for (name, speedup) in speedups(&results) {
        println!("# speedup {name}: {speedup:.2}x");
    }
}

fn random_transition<S: Scalar>(rng: &mut StdRng) -> Transition<usize, S> {
    let state: Vec<S> = (0..STATE_DIM)
        .map(|_| S::from_f64(rng.random_range(0.0..1.0)))
        .collect();
    let next: Vec<S> = (0..STATE_DIM)
        .map(|_| S::from_f64(rng.random_range(0.0..1.0)))
        .collect();
    Transition::new(
        state,
        rng.random_range(0..N_ACTIONS),
        S::from_f64(rng.random_range(-2.0..0.0)),
        next,
    )
}

/// One full MLP training step (forward, MSE, backward, Adam) at the
/// paper's critic shape, generic over the element type — the body the
/// `mlp_fwd_bwd_h32_*` probes time.
fn mlp_step_probe<S: Scalar>(budget_ms: u64) -> f64 {
    let sizes = [STATE_DIM + N_ACTIONS, 64, 32, 1];
    let acts = [Activation::Tanh, Activation::Tanh, Activation::Identity];
    let mut rng = StdRng::seed_from_u64(2);
    let x: Matrix<S> = Matrix::from_fn(BATCH_H, sizes[0], |_, _| {
        S::from_f64(rng.random_range(-1.0..1.0))
    });
    let y: Matrix<S> = Matrix::from_fn(BATCH_H, 1, |_, _| S::from_f64(rng.random_range(-1.0..0.0)));
    let mut net: Mlp<S> = Mlp::new(&sizes, &acts, 7);
    let mut opt: Adam<S> = Adam::new(1e-3);
    bench_ns(budget_ms, || {
        let pred = net.forward(&x);
        let (_, grad) = mse_loss_grad(pred, &y);
        net.zero_grad();
        net.backward(&grad);
        net.apply_gradients(&mut opt);
    })
}

/// One production `DqnAgent::train_step` at paper sizes, generic over
/// the element type — the body of the `dqn_train_step_*` probes.
fn dqn_step_probe<S: Scalar>(budget_ms: u64) -> f64 {
    let mut agent: DqnAgent<S> = DqnAgent::new(
        STATE_DIM,
        N_ACTIONS,
        DqnConfig {
            replay_capacity: REPLAY_B,
            batch: BATCH_H,
            ..DqnConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..REPLAY_B {
        agent.store(random_transition(&mut rng));
    }
    bench_ns(budget_ms, || {
        agent.train_step(&mut rng);
    })
}

/// One allocation-free rollout decision (`select_action_into`) on a
/// 10-thread × 10-machine problem, generic over the element type — the
/// body of the `rollout_act_*` probes.
fn act_path_probe<S: Scalar>(budget_ms: u64) -> f64 {
    let (n, m) = (10usize, 10usize);
    let agent: DdpgAgent<S> = DdpgAgent::new(
        STATE_DIM,
        n * m,
        DdpgConfig {
            replay_capacity: 64,
            batch: BATCH_H,
            ..DdpgConfig::default()
        },
    );
    let mut mapper: KBestMapper<S> = KBestMapper::new(n, m);
    let mut scratch: ActScratch<S> = ActScratch::default();
    let mut rng = StdRng::seed_from_u64(9);
    let state: Vec<S> = (0..STATE_DIM)
        .map(|_| S::from_f64(rng.random_range(0.0..1.0)))
        .collect();
    bench_ns(budget_ms, || {
        std::hint::black_box(agent.select_action_into(
            &state,
            &mut mapper,
            0.3,
            &mut rng,
            &mut scratch,
        ));
    })
}

/// Median-of-samples timer: calibrates how many iterations fill one
/// sample window, then reports the median sample's ns/iter.
fn bench_ns(budget_ms: u64, mut f: impl FnMut()) -> f64 {
    const SAMPLES: usize = 7;
    let window = std::time::Duration::from_millis(budget_ms.max(1)) / SAMPLES as u32;
    let t0 = Instant::now();
    let mut calib = 0u64;
    while t0.elapsed() < window {
        f();
        calib += 1;
    }
    let per_sample = calib.max(1);
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let s = Instant::now();
        for _ in 0..per_sample {
            f();
        }
        samples.push(s.elapsed().as_nanos() as f64 / per_sample as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Before/after pairs appearing in the `speedups` section. Keys with a
/// `par_` prefix compare a multi-thread run against the serial run of the
/// *same* optimized kernel — they measure machine parallelism, not code
/// quality, so `bench_gate` exempts them from the regression gate.
const PAIRS: &[(&str, &str, &str)] = &[
    (
        "matmul_32x2001x64",
        "matmul_32x2001x64_naive",
        "matmul_32x2001x64_blocked",
    ),
    (
        "matmul_128x128x128",
        "matmul_128x128x128_naive",
        "matmul_128x128x128_blocked",
    ),
    (
        "mlp_fwd_bwd",
        "mlp_fwd_bwd_h32_clone_naive",
        "mlp_fwd_bwd_h32_scratch",
    ),
    (
        "dqn_train_step",
        "dqn_train_step_per_sample",
        "dqn_train_step_batched",
    ),
    (
        "replay_sample",
        "replay_sample_clone_h32",
        "replay_sample_indices_h32",
    ),
    (
        "par_matmul_128x128x128",
        "matmul_128x128x128_blocked",
        "matmul_128x128x128_par",
    ),
    (
        "par_matmul_32x2001x64",
        "matmul_32x2001x64_blocked",
        "matmul_32x2001x64_par",
    ),
    (
        "par_matmul_t_b_32x2001x64",
        "matmul_t_b_32x2001x64_blocked",
        "matmul_t_b_32x2001x64_par",
    ),
    (
        "par_mlp_fwd_bwd",
        "mlp_fwd_bwd_h32_scratch",
        "mlp_fwd_bwd_h32_par",
    ),
    (
        "par_dqn_train_step",
        "dqn_train_step_batched",
        "dqn_train_step_par",
    ),
    (
        "par_replay_push_4w",
        "replay_push_serial_1k",
        "replay_push_sharded_4w_1k",
    ),
    (
        "par_rollout_4x",
        "rollout_1actors_per_transition",
        "rollout_4actors_per_transition",
    ),
    // Fleet-scale pairs: event-driven/hierarchical implementations over
    // their dense/flat counterparts on the 1152-executor, 128-machine
    // cq-fleet shape. The engine step is gated in `bench_gate` (>= 5x) —
    // sublinear fleet stepping is a hard acceptance bar; the two mapper
    // pairs are reported only (flat and hierarchical K-NN now cost about
    // the same).
    (
        "fleet_engine_step",
        "fleet_engine_step_dense",
        "fleet_engine_step_event",
    ),
    (
        "fleet_mapper_query",
        "fleet_mapper_query_flat",
        "fleet_mapper_query_hier",
    ),
    (
        "fleet_rollout_act",
        "fleet_rollout_act_flat",
        "fleet_rollout_act_hier",
    ),
    // Precision pairs: f64 instantiation over the f32 default of the SAME
    // serial-pinned code. Gated (no par_ prefix): f32 must stay >= 1.0x.
    (
        "f32_over_f64_matmul_32x64x32",
        "matmul_32x64x32_f64_blocked",
        "matmul_32x64x32_blocked",
    ),
    (
        "f32_over_f64_matmul_32x2001x64",
        "matmul_32x2001x64_f64_blocked",
        "matmul_32x2001x64_blocked",
    ),
    (
        "f32_over_f64_matmul_128x128x128",
        "matmul_128x128x128_f64_blocked",
        "matmul_128x128x128_blocked",
    ),
    (
        "f32_over_f64_mlp_fwd_bwd",
        "mlp_fwd_bwd_h32_f64",
        "mlp_fwd_bwd_h32_scratch",
    ),
    (
        "f32_over_f64_dqn_train_step",
        "dqn_train_step_f64",
        "dqn_train_step_batched",
    ),
    (
        "f32_over_f64_rollout_act",
        "rollout_act_f64",
        "rollout_act_f32",
    ),
    // The transposed-RHS pack-amortization gate: with the pack-aware
    // sharding bar the wide-k short-m shape runs the same serial kernel
    // under both pools, so this must sit at ≈ 1.0 — it collapsed to ~0.5
    // when the pool-blind heuristic sharded the product but paid the
    // serial 128k-element `Wᵀ` pack per call. Gated at 0.9 (1-core
    // waived: a 2-thread pool on one core shards without the parallelism
    // to pay for it).
    (
        "t_b_pack_gate_32x2001x64",
        "matmul_t_b_32x2001x64_blocked",
        "matmul_t_b_32x2001x64_par",
    ),
    // Async service vs lockstep, ns per learner-accepted transition:
    // 4 overlapped workers must collect at least as fast as the
    // deterministic sequential mode on a multi-core host (1-core waived).
    (
        "async_over_lockstep_throughput",
        "lockstep_ns_per_transition",
        "async_ns_per_transition",
    ),
    // Activation row kernel over the per-element libm loop on a 32 × 1000
    // batch plus bias: gated >= 3.0x (tanh) and >= 2.0x (sigmoid).
    (
        "act_tanh_f32_over_libm",
        "act_tanh_f32_libm",
        "act_tanh_f32_row",
    ),
    (
        "act_sigmoid_f32_over_libm",
        "act_sigmoid_f32_libm",
        "act_sigmoid_f32_row",
    ),
    // Quantized rollout pairs. The act pair runs the identical decision
    // (same seed, state, mapper, eps) through the rollout quantization
    // profile vs the f32 agent — gated >= 1.2x. The frame pair divides
    // the full-precision policy image's bytes by the quant frame's bytes
    // (both recorded in the ns field) — gated >= 2.857x, i.e. the quant
    // frame a worker pulls must stay <= 0.35x of the f32 image.
    (
        "quant_rollout_act_over_f32",
        "rollout_act_f32",
        "quant_rollout_act",
    ),
    (
        "quant_weights_frame_bytes",
        "policy_frame_bytes_f32",
        "policy_frame_bytes_quant",
    ),
];

fn speedups(results: &[(String, f64)]) -> Vec<(String, f64)> {
    let get = |name: &str| results.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    PAIRS
        .iter()
        .filter_map(|(label, before, after)| Some((label.to_string(), get(before)? / get(after)?)))
        .collect()
}

fn to_json(results: &[(String, f64)], quick: bool, par_threads: usize) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"dss-bench/nn-v1\",\n");
    let elem = <Elem as Scalar>::NAME;
    let kernel = microkernel_name();
    // Physical parallelism of the measuring host: the par_* ratios are
    // meaningless without it (a 1-core container measures ≈ 1.0), so the
    // artifact carries it and is self-describing.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    s.push_str(&format!(
        "  \"config\": {{\"replay_b\": {REPLAY_B}, \"batch_h\": {BATCH_H}, \"state_dim\": {STATE_DIM}, \"n_actions\": {N_ACTIONS}, \"quick\": {quick}, \"par_threads\": {par_threads}, \"host_cores\": {host_cores}, \"elem\": \"{elem}\", \"microkernel\": \"{kernel}\"}},\n"
    ));
    s.push_str("  \"results\": [\n");
    for (i, (name, ns)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"ns_per_iter\": {ns:.1}}}{comma}\n"
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"speedups\": {\n");
    let sp = speedups(results);
    for (i, (name, x)) in sp.iter().enumerate() {
        let comma = if i + 1 < sp.len() { "," } else { "" };
        s.push_str(&format!("    \"{name}\": {x:.3}{comma}\n"));
    }
    s.push_str("  }\n}\n");
    s
}

/// The seed's pre-optimization implementations, reconstructed verbatim in
/// spirit: naive triple-loop matmul (with the one-hot zero-skip branch),
/// clone-per-forward layer caching, per-sample target evaluation, and
/// clone-collected minibatches. Kept here — not in the production crates —
/// purely as the "before" side of the emitted speedups.
mod reference {
    use super::*;

    /// Naive `a * b` with the seed's zero-skip branch.
    #[allow(clippy::needless_range_loop)]
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "matmul dims");
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = b.row(k);
                for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                    *o += a_ik * b_kj;
                }
            }
        }
        out
    }

    /// Naive `a * bᵀ`.
    pub fn matmul_transpose_b(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.cols(), "matmul_t_b dims");
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            let a_row = a.row(i);
            for j in 0..b.rows() {
                let b_row = b.row(j);
                let mut acc = 0.0;
                for (&x, &w) in a_row.iter().zip(b_row) {
                    acc += x * w;
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    /// Naive `aᵀ * b`.
    pub fn matmul_transpose_a(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "matmul_t_a dims");
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for r in 0..a.rows() {
            let a_row = a.row(r);
            let b_row = b.row(r);
            for (k, &a_rk) in a_row.iter().enumerate() {
                if a_rk == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(k);
                for (o, &v) in out_row.iter_mut().zip(b_row) {
                    *o += a_rk * v;
                }
            }
        }
        out
    }

    /// The seed's clone-caching dense layer (over the production element
    /// type, so before/after pairs isolate the *structural* win).
    pub struct RefDense {
        w: Matrix,
        b: Vec<Elem>,
        activation: Activation,
        grad_w: Matrix,
        grad_b: Vec<Elem>,
        cached_input: Option<Matrix>,
        cached_output: Option<Matrix>,
    }

    impl RefDense {
        pub fn forward(&mut self, x: &Matrix) -> Matrix {
            let mut z = matmul_transpose_b(x, &self.w);
            z.add_row_broadcast(&self.b);
            z.map_inplace(|v| self.activation.apply(v));
            self.cached_input = Some(x.clone());
            self.cached_output = Some(z.clone());
            z
        }

        pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
            let input = self.cached_input.as_ref().expect("backward before forward");
            let output = self.cached_output.as_ref().expect("missing cache");
            let act = self.activation;
            let dz = Matrix::from_fn(grad_output.rows(), grad_output.cols(), |r, c| {
                grad_output[(r, c)] * act.derivative_from_output(output[(r, c)])
            });
            let dw = matmul_transpose_a(&dz, input);
            for (g, d) in self.grad_w.data_mut().iter_mut().zip(dw.data()) {
                *g += d;
            }
            for (g, d) in self.grad_b.iter_mut().zip(dz.column_sums()) {
                *g += d;
            }
            matmul(&dz, &self.w)
        }
    }

    /// The seed's Mlp, over [`RefDense`].
    pub struct RefMlp {
        layers: Vec<RefDense>,
    }

    impl RefMlp {
        /// Clones architecture and weights from a production [`Mlp`].
        pub fn from_mlp(net: &Mlp) -> Self {
            let layers = net
                .layers()
                .iter()
                .map(|l| RefDense {
                    w: l.weights().clone(),
                    b: l.bias().to_vec(),
                    activation: l.activation(),
                    grad_w: Matrix::zeros(l.output_size(), l.input_size()),
                    grad_b: vec![0.0 as Elem; l.output_size()],
                    cached_input: None,
                    cached_output: None,
                })
                .collect();
            Self { layers }
        }

        pub fn forward(&mut self, x: &Matrix) -> Matrix {
            let mut h = x.clone();
            for layer in &mut self.layers {
                h = layer.forward(&h);
            }
            h
        }

        /// The seed's cache-free inference: allocates one output per layer.
        pub fn infer(&self, x: &Matrix) -> Matrix {
            let mut h = x.clone();
            for layer in &self.layers {
                let mut z = matmul_transpose_b(&h, &layer.w);
                z.add_row_broadcast(&layer.b);
                z.map_inplace(|v| layer.activation.apply(v));
                h = z;
            }
            h
        }

        pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
            let mut g = grad_output.clone();
            for layer in self.layers.iter_mut().rev() {
                g = layer.backward(&g);
            }
            g
        }

        pub fn zero_grad(&mut self) {
            for layer in &mut self.layers {
                layer.grad_w.data_mut().fill(0.0);
                layer.grad_b.fill(0.0);
            }
        }

        pub fn apply_gradients(&mut self, opt: &mut Adam) {
            for (li, layer) in self.layers.iter_mut().enumerate() {
                opt.update(li * 2, layer.w.data_mut(), layer.grad_w.data());
                opt.update(li * 2 + 1, layer.b.as_mut_slice(), layer.grad_b.as_slice());
            }
        }
    }

    /// The seed's DQN step: clone-collected minibatch, per-transition
    /// matrices built with `from_fn`, allocating forward, full-width
    /// gradient matrix built per step.
    pub struct OldDqn {
        pub q: RefMlp,
        pub target_q: RefMlp,
        pub opt: Adam,
        pub replay: ReplayBuffer<usize, Elem>,
        pub batch: usize,
        state_dim: usize,
        n_actions: usize,
        gamma: Elem,
    }

    impl OldDqn {
        pub fn new(state_dim: usize, n_actions: usize, replay: usize, batch: usize) -> Self {
            let sizes = [state_dim, 64, 32, n_actions];
            let acts = [Activation::Tanh, Activation::Tanh, Activation::Identity];
            let donor = Mlp::new(&sizes, &acts, 42);
            Self {
                q: RefMlp::from_mlp(&donor),
                target_q: RefMlp::from_mlp(&donor),
                opt: Adam::new(1e-3),
                replay: ReplayBuffer::new(replay),
                batch,
                state_dim,
                n_actions,
                gamma: 0.99,
            }
        }

        pub fn train_step(&mut self, rng: &mut StdRng) -> Option<f64> {
            if self.replay.is_empty() {
                return None;
            }
            let batch: Vec<Transition<usize, Elem>> = self
                .replay
                .sample(self.batch, rng)
                .into_iter()
                .cloned()
                .collect();
            let h = batch.len();
            // Seed-faithful target evaluation: a `from_fn`-built matrix and
            // an allocating cache-free inference, then a per-row max.
            let next_states = Matrix::from_fn(h, self.state_dim, |r, c| batch[r].next_state[c]);
            let next_q = self.target_q.infer(&next_states);
            let targets: Vec<Elem> = batch
                .iter()
                .enumerate()
                .map(|(r, t)| {
                    let best = next_q
                        .row(r)
                        .iter()
                        .copied()
                        .fold(Elem::NEG_INFINITY, Elem::max) as Elem;
                    t.reward + self.gamma * best
                })
                .collect();
            let states = Matrix::from_fn(h, self.state_dim, |r, c| batch[r].state[c]);
            let pred = self.q.forward(&states);
            let pred_chosen = Matrix::from_fn(h, 1, |r, _| pred[(r, batch[r].action)]);
            let target_mat = Matrix::from_fn(h, 1, |r, _| targets[r]);
            let (loss, grad_chosen) = mse_loss_grad(&pred_chosen, &target_mat);
            let mut grad_full = Matrix::zeros(h, self.n_actions);
            for (r, t) in batch.iter().enumerate() {
                grad_full[(r, t.action)] = grad_chosen[(r, 0)];
            }
            self.q.zero_grad();
            self.q.backward(&grad_full);
            self.q.apply_gradients(&mut self.opt);
            Some(loss)
        }
    }
}
