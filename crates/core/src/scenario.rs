//! The scenario registry: named, enumerable training/evaluation setups.
//!
//! A [`Scenario`] composes the four axes the evaluation varies —
//!
//! * **application** (the paper's three workloads: continuous queries,
//!   log stream processing, word count) at a **scale**,
//! * **cluster** (machine count; homogeneous like the paper's testbed, or
//!   heterogeneous core mixes),
//! * **rate schedule** (steady, the Figure-12 step, diurnal sinusoid,
//!   periodic bursts)
//!
//! — into a named unit that experiments, benches, the CI smoke job and the
//! parallel collector all build environments from, on **either backend**
//! (analytic evaluator or tuple-level engine: see [`crate::env`]).
//!
//! Generalizable-DRL work (Ni et al.; see PAPERS.md) shows that training
//! across diverse workloads is what makes stream-processing controllers
//! transfer; [`domain_randomized`](Scenario::compatible) fleets give each
//! parallel actor a *different* compatible scenario so one agent's replay
//! mixes traffic shapes.
//!
//! Naming is `<app>-<scale>-<schedule>`; [`Scenario::all`] enumerates the
//! registry and [`Scenario::by_name`] looks one up. Scenarios that agree
//! on the problem shape `(N executors, M machines, data sources)` are
//! [`compatible`](Scenario::compatible) and may share one agent/fleet.

use dss_apps::{continuous_queries, log_stream, word_count, word_count_fleet, App, CqScale};
use dss_nimbus::{FaultEvent, FaultPlan};
use dss_proto::ChaosPlan;
use dss_sim::{
    AnalyticModel, Assignment, ClusterSpec, MachineSpec, NetworkParams, RateSchedule, SimConfig,
    SimEngine,
};

use crate::config::ControlConfig;
use crate::env::{AnalyticEnv, ClusterEnv, ClusterTransport, Environment, SimEnv};
use crate::experiment::Backend;
use crate::parallel::{ActorSetup, ParallelCollector};
use crate::state::SchedState;

/// One named training/evaluation setup: application × cluster × schedule,
/// optionally with a scripted machine-fault trace.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Registry name (`<app>-<scale>-<schedule>`).
    pub name: &'static str,
    /// The application (topology + nominal base workload).
    pub app: App,
    /// The cluster it runs on.
    pub cluster: ClusterSpec,
    /// Workload multiplier schedule over (simulated) time.
    pub schedule: RateSchedule,
    /// Deterministic machine crash/restart trace. Only the control-plane
    /// backend ([`Scenario::cluster_env`]) replays it — the analytic and
    /// bare-engine backends have no failure-detection path and ignore it.
    pub faults: Option<FaultPlan>,
    /// Seeded network-fault plan for the agent↔master link. Only the
    /// control-plane backend has a network to break: it switches to the
    /// reliable retry protocol and degrades (never hangs) through
    /// partitions. Other backends ignore it. The plan's seed is XOR-mixed
    /// with the env seed so parallel actors draw decorrelated fault
    /// streams that stay reproducible run to run.
    pub chaos: Option<ChaosPlan>,
}

/// The Figure-12 step: +50% at 20 simulated minutes.
fn fig12_step() -> RateSchedule {
    RateSchedule::step_at(1200.0, 1.5)
}

/// Diurnal-style wave: ±40% over a simulated hour.
fn diurnal() -> RateSchedule {
    RateSchedule::sinusoid(1.0, 0.4, 3600.0)
}

/// Periodic bursts: 2× spikes for 30 s of every 5 minutes over a 0.8×
/// trough.
fn bursts() -> RateSchedule {
    RateSchedule::bursty(0.8, 2.0, 300.0, 30.0)
}

/// A 4-machine cluster with a heterogeneous core mix (2/4/4/6): the same
/// 16-core total as `ClusterSpec::homogeneous(4)` but asymmetric, so
/// placement quality depends on *which* machine hosts the hot executors.
fn hetero_4() -> ClusterSpec {
    ClusterSpec {
        machines: [2usize, 4, 4, 6]
            .into_iter()
            .map(|cores| MachineSpec { cores, slots: 10 })
            .collect(),
        network: NetworkParams::default(),
    }
}

impl Scenario {
    /// Every named scenario, in registry order.
    pub fn all() -> Vec<Scenario> {
        let s = |name, app, cluster, schedule| Scenario {
            name,
            app,
            cluster,
            schedule,
            faults: None,
            chaos: None,
        };
        let small = || continuous_queries(CqScale::Small);
        let large = || continuous_queries(CqScale::Large);
        vec![
            // Small scale: the 20-executor continuous-queries app on 4
            // machines under every traffic shape (plus a heterogeneous
            // cluster) — all compatible, the domain-randomization set.
            s(
                "cq-small-steady",
                small(),
                ClusterSpec::homogeneous(4),
                RateSchedule::constant(),
            ),
            s(
                "cq-small-step",
                small(),
                ClusterSpec::homogeneous(4),
                fig12_step(),
            ),
            s(
                "cq-small-diurnal",
                small(),
                ClusterSpec::homogeneous(4),
                diurnal(),
            ),
            s(
                "cq-small-bursty",
                small(),
                ClusterSpec::homogeneous(4),
                bursts(),
            ),
            s(
                "cq-small-hetero-steady",
                small(),
                hetero_4(),
                RateSchedule::constant(),
            ),
            // Medium scale.
            s(
                "cq-medium-steady",
                continuous_queries(CqScale::Medium),
                ClusterSpec::homogeneous(6),
                RateSchedule::constant(),
            ),
            // Large scale: the paper's three 100-executor workloads on its
            // 10-machine testbed — mutually compatible across apps.
            s(
                "cq-large-steady",
                large(),
                ClusterSpec::homogeneous(10),
                RateSchedule::constant(),
            ),
            s(
                "cq-large-step",
                large(),
                ClusterSpec::homogeneous(10),
                fig12_step(),
            ),
            s(
                "log-stream-steady",
                log_stream(),
                ClusterSpec::homogeneous(10),
                RateSchedule::constant(),
            ),
            s(
                "log-stream-diurnal",
                log_stream(),
                ClusterSpec::homogeneous(10),
                diurnal(),
            ),
            s(
                "word-count-steady",
                word_count(),
                ClusterSpec::homogeneous(10),
                RateSchedule::constant(),
            ),
            s(
                "word-count-bursty",
                word_count(),
                ClusterSpec::homogeneous(10),
                bursts(),
            ),
            // Fleet scale: hundreds of machines, ≥1000 executors, mostly
            // idle — the shape where the event-driven engine and the
            // hierarchical (group-then-machine) action mapper pay off.
            // `cq-fleet` keeps 7 of its 8 ingest lanes silent;
            // `word-count-fleet` spreads a light load over 1152 executors.
            s(
                "cq-fleet",
                continuous_queries(CqScale::Fleet),
                ClusterSpec::fleet(128, 8, 12),
                RateSchedule::constant(),
            ),
            s(
                "word-count-fleet",
                word_count_fleet(),
                ClusterSpec::fleet(128, 8, 12),
                RateSchedule::constant(),
            ),
            // Fault scenarios: a machine dies mid-run and (for the small
            // variant) later returns — the paper-§2.1 recovery transient
            // as a trainable scenario. Times are simulated seconds, sized
            // so short training runs (1 s epochs) and figure-grade
            // deployments both cross the crash. Shape-compatible with
            // their fault-free siblings, so domain-randomized fleets can
            // mix healthy and failing clusters.
            Scenario {
                name: "cq-small-crash",
                app: continuous_queries(CqScale::Small),
                cluster: ClusterSpec::homogeneous(4),
                schedule: RateSchedule::constant(),
                faults: Some(FaultPlan::crash_at(1, 20.0).and_restart(1, 120.0)),
                chaos: None,
            },
            Scenario {
                name: "word-count-crash",
                app: word_count(),
                cluster: ClusterSpec::homogeneous(10),
                schedule: RateSchedule::constant(),
                faults: Some(FaultPlan::crash_at(3, 120.0)),
                chaos: None,
            },
            // Chaos scenarios: the control-plane *link* is unreliable.
            // `cq-small-lossy` drops/duplicates/delays/corrupts control
            // messages at rates a retry budget must absorb;
            // `word-count-partition` additionally black-holes the link for
            // two decision epochs (the env degrades, holds the last
            // assignment, then re-syncs); the crash+lossy combo stacks a
            // machine failure on top of the lossy link. All are
            // shape-compatible with their clean siblings.
            Scenario {
                name: "cq-small-lossy",
                app: continuous_queries(CqScale::Small),
                cluster: ClusterSpec::homogeneous(4),
                schedule: RateSchedule::constant(),
                faults: None,
                chaos: Some(
                    ChaosPlan::lossy(0x10551, 0.15)
                        .with_duplicate(0.05)
                        .with_delay(0.05)
                        .with_corrupt(0.02),
                ),
            },
            Scenario {
                name: "word-count-partition",
                app: word_count(),
                cluster: ClusterSpec::homogeneous(10),
                schedule: RateSchedule::constant(),
                faults: None,
                chaos: Some(ChaosPlan::lossy(0x9A47, 0.05).with_partition_epochs(4, 6)),
            },
            Scenario {
                name: "cq-small-crash-lossy",
                app: continuous_queries(CqScale::Small),
                cluster: ClusterSpec::homogeneous(4),
                schedule: RateSchedule::constant(),
                faults: Some(FaultPlan::crash_at(1, 20.0).and_restart(1, 120.0)),
                chaos: Some(ChaosPlan::lossy(0xC4A5, 0.10)),
            },
            // Master-fault scenario: the *scheduler's own master* dies
            // twice mid-run (operator restarts follow), on top of a lossy
            // control link. The env runs the leader-elected master pool
            // with durable recovery images: each crash costs a penalty
            // epoch surfaced as `DegradedReason::Failover`, the promoted
            // master resumes from the committed image, and training rides
            // through. Shape-compatible with the cq-small family. No
            // delay/duplicate chaos here: a delayed copy of a solution
            // from an abandoned epoch must not outlive a failover.
            Scenario {
                name: "cq-small-master-crash",
                app: continuous_queries(CqScale::Small),
                cluster: ClusterSpec::homogeneous(4),
                schedule: RateSchedule::constant(),
                faults: Some(FaultPlan::new(vec![
                    FaultEvent::master_crash(20.0),
                    FaultEvent::master_restart(60.0),
                    FaultEvent::master_crash(100.0),
                    FaultEvent::master_restart(140.0),
                ])),
                chaos: Some(ChaosPlan::lossy(0x3A57E6, 0.10)),
            },
        ]
    }

    /// Registry names, in [`Scenario::all`] order.
    pub fn names() -> Vec<&'static str> {
        Self::all().into_iter().map(|s| s.name).collect()
    }

    /// Looks a scenario up by registry name.
    pub fn by_name(name: &str) -> Option<Scenario> {
        Self::all().into_iter().find(|s| s.name == name)
    }

    /// Executors `N`.
    pub fn n_executors(&self) -> usize {
        self.app.topology.n_executors()
    }

    /// Machines `M`.
    pub fn n_machines(&self) -> usize {
        self.cluster.n_machines()
    }

    /// Data sources (spout components with a rate).
    pub fn n_sources(&self) -> usize {
        self.app.workload.rates().len()
    }

    /// State feature width `N·M + sources` of this scenario's problem.
    pub fn state_dim(&self) -> usize {
        SchedState::feature_dim(self.n_executors(), self.n_machines(), self.n_sources())
    }

    /// Action one-hot width `N·M`.
    pub fn action_dim(&self) -> usize {
        self.n_executors() * self.n_machines()
    }

    /// Whether two scenarios share a problem shape — i.e. one agent (and
    /// one collector fleet) can train across both.
    pub fn compatible(&self, other: &Scenario) -> bool {
        self.n_executors() == other.n_executors()
            && self.n_machines() == other.n_machines()
            && self.n_sources() == other.n_sources()
    }

    /// Storm's default round-robin spread — every backend's starting
    /// assignment.
    pub fn initial_assignment(&self) -> Assignment {
        Assignment::round_robin(&self.app.topology, &self.cluster)
    }

    /// This scenario's training environment on a backend chosen at run
    /// time — [`Scenario::analytic_env`], [`Scenario::sim_env`] or
    /// [`Scenario::cluster_env`] behind one type.
    pub fn env(
        &self,
        backend: Backend,
        cfg: &ControlConfig,
        seed: u64,
    ) -> Box<dyn Environment + Send> {
        match backend {
            Backend::Analytic => Box::new(self.analytic_env(cfg, seed)),
            Backend::Sim => Box::new(self.sim_env(cfg, seed)),
            Backend::Cluster => Box::new(self.cluster_env(cfg, seed)),
        }
    }

    /// Analytic-backend environment for this scenario: measurement noise
    /// from `cfg`, the scenario's schedule driving a virtual clock at
    /// `cfg.sim_epoch_s` per decision. `seed` decorrelates parallel
    /// actors.
    pub fn analytic_env(&self, cfg: &ControlConfig, seed: u64) -> AnalyticEnv {
        let model = AnalyticModel::new(
            self.app.topology.clone(),
            self.cluster.clone(),
            SimConfig::steady_state(seed),
        )
        .expect("registry scenarios are valid")
        .with_noise(cfg.measurement_noise);
        AnalyticEnv::new(model).with_schedule(self.schedule.clone(), cfg.sim_epoch_s)
    }

    /// A fresh tuple-level engine for this scenario (schedule installed,
    /// nothing deployed yet) with the full figure-grade transient model
    /// (8 s migration pauses, ~150 s warm-up, 30 s measurement window) —
    /// what deployment curves build on.
    pub fn sim_engine(&self, seed: u64) -> SimEngine {
        self.sim_engine_with(SimConfig {
            seed,
            ..SimConfig::default()
        })
    }

    /// A fresh tuple-level engine for this scenario under an explicit
    /// engine configuration.
    pub fn sim_engine_with(&self, config: SimConfig) -> SimEngine {
        let mut engine = SimEngine::new(
            self.app.topology.clone(),
            self.cluster.clone(),
            self.app.workload.clone(),
            config,
        )
        .expect("registry scenarios are valid");
        engine.set_rate_schedule(self.schedule.clone());
        engine
    }

    /// Tuple-level-backend **training** environment for this scenario:
    /// decisions advance the engine `cfg.sim_epoch_s` simulated seconds
    /// each.
    ///
    /// Training epochs compress the paper's minutes-long decision interval
    /// into seconds of simulated time, so the engine's transient time
    /// constants are scaled to the epoch: the measurement window is one
    /// epoch (the reward reflects *this* decision, not the last thirty),
    /// migration pauses are 5% of an epoch and warm-up decays within a
    /// quarter epoch. Re-deployments therefore still spike the latency the
    /// agent pays for — inside the epoch that caused them — but a single
    /// move cannot poison minutes of subsequent measurements the way the
    /// figure-grade constants ([`Scenario::sim_engine`]) would at this
    /// timescale.
    pub fn sim_env(&self, cfg: &ControlConfig, seed: u64) -> SimEnv {
        let epoch = cfg.sim_epoch_s;
        let defaults = SimConfig::default();
        let engine = self.sim_engine_with(SimConfig {
            seed,
            latency_window_s: epoch,
            migration_pause_s: (0.05 * epoch).min(defaults.migration_pause_s),
            warmup_tau_s: (0.25 * epoch).min(defaults.warmup_tau_s),
            ..defaults
        });
        SimEnv::new(engine, epoch)
    }

    /// Control-plane-backend **training** environment for this scenario:
    /// the same epoch-scaled engine as [`Scenario::sim_env`] (same seed ⇒
    /// bit-identical dynamics when no faults fire), wrapped behind the
    /// Figure-1 control plane over the synchronous in-process channel
    /// transport, with the scenario's [`FaultPlan`] installed.
    pub fn cluster_env(&self, cfg: &ControlConfig, seed: u64) -> ClusterEnv {
        self.cluster_env_with(cfg, seed, ClusterTransport::Channel)
    }

    /// [`Scenario::cluster_env`] with an explicit transport (loopback TCP
    /// gives true process separation, as the paper deploys the agent).
    pub fn cluster_env_with(
        &self,
        cfg: &ControlConfig,
        seed: u64,
        transport: ClusterTransport,
    ) -> ClusterEnv {
        let epoch = cfg.sim_epoch_s;
        let defaults = SimConfig::default();
        let engine = self.sim_engine_with(SimConfig {
            seed,
            latency_window_s: epoch,
            migration_pause_s: (0.05 * epoch).min(defaults.migration_pause_s),
            warmup_tau_s: (0.25 * epoch).min(defaults.warmup_tau_s),
            ..defaults
        });
        let mut env = ClusterEnv::new(engine, epoch).with_transport(transport);
        if let Some(plan) = &self.faults {
            env = env.with_fault_plan(plan.clone());
        }
        if let Some(plan) = &self.chaos {
            // Mix the env seed in so each fleet actor draws its own fault
            // stream, reproducibly.
            env = env.with_chaos_plan(plan.clone().with_seed(plan.seed ^ seed));
        }
        env
    }
}

/// A parallel-actor fleet over the analytic backend, one scenario per
/// actor cycling through `scenarios` (actor `i` ← `scenarios[i % len]`) —
/// pass one scenario for a homogeneous fleet, several compatible ones for
/// domain randomization.
///
/// # Panics
/// Panics when `scenarios` is empty or its members are not mutually
/// [`compatible`](Scenario::compatible).
pub fn analytic_fleet(
    scenarios: &[Scenario],
    cfg: &ControlConfig,
    n_actors: usize,
    shard_capacity: usize,
) -> ParallelCollector<AnalyticEnv> {
    assert_compatible(scenarios);
    ParallelCollector::from_factory(cfg, n_actors, shard_capacity, |i| {
        let sc = &scenarios[i % scenarios.len()];
        ActorSetup {
            env: sc.analytic_env(cfg, cfg.seed.wrapping_add(i as u64)),
            workload: sc.app.workload.clone(),
            initial: sc.initial_assignment(),
        }
    })
}

/// A parallel-actor fleet over the tuple-level backend, one private
/// [`SimEngine`] per actor, scenarios cycling as in [`analytic_fleet`].
///
/// # Panics
/// Panics when `scenarios` is empty or its members are not mutually
/// [`compatible`](Scenario::compatible).
pub fn sim_fleet(
    scenarios: &[Scenario],
    cfg: &ControlConfig,
    n_actors: usize,
    shard_capacity: usize,
) -> ParallelCollector<SimEnv> {
    assert_compatible(scenarios);
    ParallelCollector::from_factory(cfg, n_actors, shard_capacity, |i| {
        let sc = &scenarios[i % scenarios.len()];
        ActorSetup {
            env: sc.sim_env(cfg, cfg.seed.wrapping_add(i as u64)),
            workload: sc.app.workload.clone(),
            initial: sc.initial_assignment(),
        }
    })
}

/// A parallel-actor fleet over the control-plane backend: each actor owns
/// a complete private cluster (master + supervisors + coordination
/// service + engine) paired in-process over the channel transport, so
/// every transition an actor collects travels the full Figure-1 message
/// path. Scenarios cycle as in [`analytic_fleet`]; fault-plan scenarios
/// make recovery transients part of the training distribution.
///
/// # Panics
/// Panics when `scenarios` is empty or its members are not mutually
/// [`compatible`](Scenario::compatible).
pub fn cluster_fleet(
    scenarios: &[Scenario],
    cfg: &ControlConfig,
    n_actors: usize,
    shard_capacity: usize,
) -> ParallelCollector<ClusterEnv> {
    assert_compatible(scenarios);
    ParallelCollector::from_factory(cfg, n_actors, shard_capacity, |i| {
        let sc = &scenarios[i % scenarios.len()];
        ActorSetup {
            env: sc.cluster_env(cfg, cfg.seed.wrapping_add(i as u64)),
            workload: sc.app.workload.clone(),
            initial: sc.initial_assignment(),
        }
    })
}

fn assert_compatible(scenarios: &[Scenario]) {
    assert!(!scenarios.is_empty(), "need at least one scenario");
    for s in &scenarios[1..] {
        assert!(
            scenarios[0].compatible(s),
            "scenarios `{}` and `{}` disagree on the problem shape",
            scenarios[0].name,
            s.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names = Scenario::names();
        assert!(names.len() >= 12, "registry shrank: {}", names.len());
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate scenario names");
        for name in names {
            let sc = Scenario::by_name(name).expect("by_name resolves");
            assert_eq!(sc.name, name);
        }
        assert!(Scenario::by_name("no-such-scenario").is_none());
    }

    #[test]
    fn registry_covers_all_apps_and_schedules() {
        let all = Scenario::all();
        for app in ["continuous-queries", "log-stream", "word-count"] {
            assert!(
                all.iter().any(|s| s.app.topology.name().starts_with(app)),
                "no scenario for {app}"
            );
        }
        assert!(all.iter().any(|s| s.schedule == RateSchedule::constant()));
        assert!(all
            .iter()
            .any(|s| matches!(s.schedule, RateSchedule::Steps { ref steps } if !steps.is_empty())));
        assert!(all
            .iter()
            .any(|s| matches!(s.schedule, RateSchedule::Sinusoid { .. })));
        assert!(all
            .iter()
            .any(|s| matches!(s.schedule, RateSchedule::Bursty { .. })));
        assert!(
            all.iter().any(|s| s
                .cluster
                .machines
                .iter()
                .any(|m| m.cores != s.cluster.machines[0].cores)),
            "no heterogeneous-cluster scenario"
        );
    }

    #[test]
    fn small_scenarios_are_compatible_for_randomization() {
        let set: Vec<Scenario> = Scenario::all()
            .into_iter()
            .filter(|s| s.name.starts_with("cq-small"))
            .collect();
        assert!(set.len() >= 4);
        for s in &set {
            assert!(set[0].compatible(s), "{} incompatible", s.name);
        }
        // Large-scale apps are cross-compatible too (100 executors, 10
        // machines, 1 source each).
        let cq = Scenario::by_name("cq-large-steady").unwrap();
        let ls = Scenario::by_name("log-stream-steady").unwrap();
        let wc = Scenario::by_name("word-count-steady").unwrap();
        assert!(cq.compatible(&ls) && cq.compatible(&wc));
        // And small is not compatible with large.
        assert!(!cq.compatible(&Scenario::by_name("cq-small-steady").unwrap()));
    }

    #[test]
    fn fault_scenarios_ride_the_registry() {
        let crash = Scenario::by_name("cq-small-crash").expect("registered");
        let plan = crash.faults.as_ref().expect("fault plan installed");
        assert!(plan.max_machine().unwrap() < crash.n_machines());
        // Shape-compatible with the healthy sibling: one fleet can mix
        // failing and fault-free clusters.
        assert!(crash.compatible(&Scenario::by_name("cq-small-steady").unwrap()));
        let wc = Scenario::by_name("word-count-crash").expect("registered");
        assert!(wc.compatible(&Scenario::by_name("word-count-steady").unwrap()));
        // The healthy registry stays fault-free.
        assert!(Scenario::by_name("cq-small-steady")
            .unwrap()
            .faults
            .is_none());
    }

    #[test]
    fn chaos_scenarios_ride_the_registry() {
        let lossy = Scenario::by_name("cq-small-lossy").expect("registered");
        let plan = lossy.chaos.as_ref().expect("chaos plan installed");
        assert!(plan.egress.drop > 0.0 && plan.ingress.drop > 0.0);
        assert!(lossy.compatible(&Scenario::by_name("cq-small-steady").unwrap()));
        let part = Scenario::by_name("word-count-partition").expect("registered");
        assert_eq!(part.chaos.as_ref().unwrap().partition_epochs, Some((4, 6)));
        assert!(part.compatible(&Scenario::by_name("word-count-steady").unwrap()));
        // The combo scenario carries both fault kinds.
        let combo = Scenario::by_name("cq-small-crash-lossy").expect("registered");
        assert!(combo.faults.is_some() && combo.chaos.is_some());
        // The healthy registry stays chaos-free.
        assert!(Scenario::by_name("cq-small-steady")
            .unwrap()
            .chaos
            .is_none());
        // Env seeds decorrelate the installed plans deterministically.
        let cfg = ControlConfig::test();
        let e1 = lossy.cluster_env(&cfg, 1);
        let e2 = lossy.cluster_env(&cfg, 2);
        drop((e1, e2)); // unlaunched: construction alone must be cheap+valid
    }

    #[test]
    fn master_crash_scenario_rides_the_registry() {
        let sc = Scenario::by_name("cq-small-master-crash").expect("registered");
        let plan = sc.faults.as_ref().expect("master-fault plan installed");
        assert!(plan.has_master_events());
        // The masters die on top of a lossy control link.
        assert!(sc.chaos.is_some());
        // Two crashes, each followed by an operator restart.
        assert!(sc.compatible(&Scenario::by_name("cq-small-steady").unwrap()));
        let cfg = ControlConfig::test();
        let e = sc.cluster_env(&cfg, 1);
        drop(e); // unlaunched: construction alone must be valid
    }

    #[test]
    fn fleet_scenarios_ride_the_registry() {
        let cq = Scenario::by_name("cq-fleet").expect("registered");
        assert_eq!(cq.n_executors(), 1152);
        assert_eq!(cq.n_machines(), 128);
        assert_eq!(cq.n_sources(), dss_apps::FLEET_SPOUT_LANES);
        assert_eq!(cq.state_dim(), 1152 * 128 + 8);
        let wc = Scenario::by_name("word-count-fleet").expect("registered");
        assert_eq!(wc.n_executors(), 1152);
        assert_eq!(wc.n_machines(), 128);
        // Different source counts: the two fleet scenarios are NOT
        // domain-randomization partners, by design.
        assert!(!cq.compatible(&wc));
        // The fleet cluster is uniform 8-core/12-slot and groups cleanly
        // for the hierarchical mapper.
        assert!(cq.cluster.machines.iter().all(|m| m.cores == 8));
        assert_eq!(cq.cluster.machine_groups(16).len(), 16);
        // Capacity dwarfs demand: round-robin must already be feasible.
        let init = cq.initial_assignment();
        assert_eq!(init.n_executors(), 1152);
    }

    #[test]
    fn envs_agree_on_problem_shape() {
        let cfg = ControlConfig::test();
        let sc = Scenario::by_name("cq-small-diurnal").unwrap();
        let a = sc.analytic_env(&cfg, 1);
        let s = sc.sim_env(&cfg, 1);
        assert_eq!(a.n_executors(), sc.n_executors());
        assert_eq!(s.n_executors(), sc.n_executors());
        assert_eq!(a.n_machines(), sc.n_machines());
        assert_eq!(s.n_machines(), sc.n_machines());
        assert_eq!(sc.state_dim(), 20 * 4 + 1);
        assert_eq!(sc.action_dim(), 20 * 4);
    }

    #[test]
    fn domain_randomized_fleet_mixes_scenarios() {
        let cfg = ControlConfig::test();
        let set: Vec<Scenario> = Scenario::all()
            .into_iter()
            .filter(|s| s.name.starts_with("cq-small"))
            .collect();
        let col = analytic_fleet(&set, &cfg, set.len() + 1, 64);
        assert_eq!(col.n_actors(), set.len() + 1);
        // Actor 0 and the wrap-around actor share scenario 0's schedule.
        assert_eq!(col.env(0).workload_multiplier(), 1.0);
    }

    #[test]
    #[should_panic(expected = "disagree on the problem shape")]
    fn incompatible_fleet_panics() {
        let cfg = ControlConfig::test();
        let set = [
            Scenario::by_name("cq-small-steady").unwrap(),
            Scenario::by_name("cq-large-steady").unwrap(),
        ];
        let _ = analytic_fleet(&set, &cfg, 2, 64);
    }
}
