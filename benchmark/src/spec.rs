//! What the benchmark runs and what it reports: the five workloads and
//! the two metric tables. `BENCHMARK.json` at the repository root names
//! the same workloads and metrics; [`check_manifest`] holds the two in
//! step.

use dss_core::config::ControlConfig;

use crate::json::{self, Value};

/// Which production entry point trains the agent, and against what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `train_method_with` over `AnalyticEnv`.
    Analytic,
    /// `train_method_with` over `SimEnv`.
    Sim,
    /// `train_method_durable_with` over `ClusterEnv` (channel transport,
    /// the scenario's chaos plan), checkpointing every `every` epochs.
    ClusterDurable {
        /// Checkpoint cadence in online epochs.
        every: usize,
    },
    /// `train_async_with`, one rollout worker over loopback TCP, on
    /// `AnalyticEnv`.
    AsyncTcp {
        /// Collection rounds of the worker.
        rounds: usize,
        /// Decision epochs per round.
        steps: usize,
    },
}

/// One benchmark workload: a fixed amount of train-and-deploy work (one
/// *round*) that a run repeats, on one seed, for the requested number of
/// seconds.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Registry scenario.
    pub scenario: &'static str,
    /// Entry point and backend.
    pub driver: Driver,
    /// Offline random-action samples per round.
    pub offline_samples: usize,
    /// Pretraining gradient steps per round.
    pub offline_steps: usize,
    /// Online-learning epochs per round (lockstep drivers).
    pub online_epochs: usize,
    /// Frozen-scheduler control epochs per round of the traced pass (0
    /// where the entry point returns no scheduler).
    pub control_epochs: usize,
    /// Simulated seconds per decision epoch on engine-backed envs.
    pub sim_epoch_s: f64,
    /// `(groups, prune)` mapper knobs; `(0, 0)` is the flat mapper.
    pub mapper: (usize, usize),
    /// Rounds a run makes at least, however long they take (sized so the
    /// traced pass pools the 200 online and control epochs a p95 needs,
    /// where the workload can afford that).
    pub min_rounds: usize,
    /// Simulated minutes of the deployment curve in the traced pass.
    pub curve_minutes: f64,
}

impl Workload {
    /// The training configuration of a run seeded `seed`: the paper's
    /// settings at this workload's budget. Every round of a run trains
    /// this one configuration, so rounds are repeats of the same work and
    /// whatever differs between their timings is the host, not the
    /// program; other seeds are other runs.
    pub fn config(&self, seed: u64) -> ControlConfig {
        let online = match self.driver {
            Driver::AsyncTcp { rounds, .. } => rounds,
            _ => self.online_epochs,
        };
        ControlConfig {
            offline_samples: self.offline_samples,
            offline_steps: self.offline_steps,
            online_epochs: self.online_epochs,
            eps_decay_epochs: (online / 2).max(1),
            sim_epoch_s: self.sim_epoch_s,
            seed,
            ..ControlConfig::paper()
        }
        .with_mapper_knobs(self.mapper.0, self.mapper.1)
    }

    /// Online env-seam calls one round makes.
    pub fn online_calls(&self) -> usize {
        match self.driver {
            Driver::AsyncTcp { rounds, steps } => rounds * steps,
            _ => self.online_epochs,
        }
    }
}

/// The five workloads. Op counts are about a twentieth of the
/// paper-scale budgets so that one round takes 1–1.5 s and a run repeats
/// it a dozen times or more. A fleet-sim round takes ~16 s and is run
/// twice however long that takes: the first round of a process faults in
/// 1.7 GB that the second finds mapped, and the first-touch cost is the
/// noisiest thing the host does (one round: 14–16 % between runs; two,
/// of which the second is the faster: 4–6 %).
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper-analytic",
        scenario: "word-count-steady",
        driver: Driver::Analytic,
        offline_samples: 200,
        offline_steps: 60,
        online_epochs: 40,
        control_epochs: 50,
        sim_epoch_s: 50.0,
        mapper: (0, 0),
        min_rounds: 6,
        curve_minutes: 10.0,
    },
    Workload {
        name: "small-sim",
        scenario: "cq-small-hetero-steady",
        driver: Driver::Sim,
        offline_samples: 80,
        offline_steps: 40,
        online_epochs: 36,
        control_epochs: 50,
        sim_epoch_s: 10.0,
        mapper: (0, 0),
        min_rounds: 6,
        curve_minutes: 20.0,
    },
    Workload {
        name: "lossy-durable",
        scenario: "cq-small-lossy",
        driver: Driver::ClusterDurable { every: 10 },
        offline_samples: 110,
        offline_steps: 60,
        online_epochs: 40,
        control_epochs: 30,
        sim_epoch_s: 1.0,
        mapper: (0, 0),
        min_rounds: 7,
        curve_minutes: 20.0,
    },
    Workload {
        name: "fleet-sim",
        scenario: "cq-fleet",
        driver: Driver::Sim,
        offline_samples: 4,
        offline_steps: 1,
        online_epochs: 3,
        control_epochs: 3,
        sim_epoch_s: 50.0,
        mapper: (16, 2),
        min_rounds: 2,
        curve_minutes: 2.0,
    },
    Workload {
        name: "async-tcp",
        scenario: "word-count-steady",
        driver: Driver::AsyncTcp {
            rounds: 30,
            steps: 8,
        },
        offline_samples: 200,
        offline_steps: 60,
        online_epochs: 0,
        control_epochs: 0,
        sim_epoch_s: 50.0,
        mapper: (0, 0),
        min_rounds: 3,
        curve_minutes: 10.0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A metric the harness reports: `(name, unit)`.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics: what a user of the system waits for or pays.
/// Every workload reports every one of them, untraced, never zero.
pub const END_TO_END: [MetricDef; 4] = [
    ("setup_s", "s"),
    ("train_wall_s", "s"),
    ("online_epoch_ms_p50", "ms"),
    ("peak_rss_mb", "mb"),
];

/// Per-layer metrics from the traced pass. A metric a workload's path
/// never touches reads 0 on that workload.
pub const PER_LAYER: [MetricDef; 70] = [
    // Seam spans: exact, and summing to the epoch by construction.
    ("core.offline_collect_s", "s"),
    ("rl.pretrain_s", "s"),
    ("rl.schedule_ms", "ms"),
    ("rl.observe_ms", "ms"),
    ("core.env_step_ms", "ms"),
    ("core.controller_self_ms", "ms"),
    ("core.checkpoint_save_ms", "ms"),
    ("core.finalize_s", "s"),
    ("trainer.worker_step_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    // Outcomes that cannot carry a bound (see README, "Moved off the
    // end-to-end list").
    ("online_epoch_ms_p95", "ms"),
    ("control_epoch_ms_p50", "ms"),
    ("control_epoch_ms_p95", "ms"),
    ("deployed_latency_ms", "ms"),
    ("default_latency_ms", "ms"),
    ("degraded_share", "ratio"),
    ("rl.critic_reward_corr", "ratio"),
    // Replay probes, by crate.
    ("nn.actor_forward_us", "us"),
    ("nn.critic_forward_us", "us"),
    ("nn.critic_backward_us", "us"),
    ("nn.gemm_gflops", "gflop/s"),
    ("rl.proto_action_us", "us"),
    ("rl.mapper_knn_us", "us"),
    ("rl.select_action_us", "us"),
    ("rl.select_action_sparse_us", "us"),
    ("rl.train_step_ms", "ms"),
    ("rl.replay_push_ns", "ns"),
    ("rl.sharded_push_ns", "ns"),
    ("rl.save_policy_us", "us"),
    ("rl.policy_bytes", "bytes"),
    ("rl.save_state_ms", "ms"),
    ("rl.state_bytes", "bytes"),
    ("miqp.kbest_us", "us"),
    ("sim.analytic_eval_us", "us"),
    ("sim.engine_epoch_ms", "ms"),
    ("sim.snapshot_us", "us"),
    ("sim.snapshot_bytes", "bytes"),
    ("core.featurize_us", "us"),
    ("core.checkpoint_bytes", "bytes"),
    ("core.cluster_overhead_ms", "ms"),
    ("proto.solution_frame_us", "us"),
    ("proto.solution_frame_bytes", "bytes"),
    ("proto.batch_frame_ms", "ms"),
    ("proto.batch_frame_bytes", "bytes"),
    ("proto.weights_frame_ms", "ms"),
    ("proto.tcp_rtt_us", "us"),
    ("proto.chaos_dropped", "count"),
    ("proto.chaos_corrupted", "count"),
    ("proto.chaos_duplicated", "count"),
    ("nimbus.epoch_ms", "ms"),
    ("nimbus.recovery_commit_ms", "ms"),
    ("nimbus.recovery_image_bytes", "bytes"),
    ("nimbus.degraded_epochs", "count"),
    ("nimbus.failovers", "count"),
    ("coord.cas_us", "us"),
    ("coord.heartbeat_us", "us"),
    ("store.log_append_us", "us"),
    ("store.blob_write_ms", "ms"),
    ("trainer.ps_publish_us", "us"),
    ("trainer.ps_pull_ns", "ns"),
    ("trainer.rows_to_message_us", "us"),
    ("trainer.ingest_us", "us"),
    ("trainer.train_once_ms", "ms"),
    ("trainer.train_steps", "count"),
    ("trainer.transitions", "count"),
    ("trainer.dropped_stale", "count"),
    ("trainer.mean_version_lag", "count"),
    ("trainer.pushes_during_train", "count"),
    ("workpool.threads", "count"),
    ("workpool.t1_over_default", "ratio"),
];

/// Checks that `BENCHMARK.json` (its text) names exactly the workloads
/// and metrics above, with the same units. Returns every difference.
pub fn check_manifest(text: &str) -> Vec<String> {
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    let mut problems = Vec::new();
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .map(Value::items)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let mut compare = |key: &str, ours: Vec<(String, String)>, units: bool| {
        let theirs = listed(key);
        for (name, unit) in &ours {
            match theirs.iter().find(|(n, _)| n == name) {
                None => problems.push(format!("{key}: `{name}` missing from BENCHMARK.json")),
                Some((_, u)) if units && u != unit => problems.push(format!(
                    "{key}: `{name}` is `{unit}` here but `{u}` in BENCHMARK.json"
                )),
                Some(_) => {}
            }
        }
        for (name, _) in &theirs {
            if !ours.iter().any(|(n, _)| n == name) {
                problems.push(format!("{key}: `{name}` is not a metric of this harness"));
            }
        }
    };
    let own = |defs: &[MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    compare("end_to_end", own(&END_TO_END), true);
    compare("per_layer", own(&PER_LAYER), true);
    compare(
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), String::new()))
            .collect(),
        false,
    );
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric or workload name");
    }

    #[test]
    fn manifest_check_reports_both_directions() {
        let text = r#"{"workloads": [{"name": "paper-analytic", "why": "x"}],
            "end_to_end": [{"name": "setup_s", "unit": "ms"}, {"name": "bogus", "unit": "s"}],
            "per_layer": []}"#;
        let problems = check_manifest(text);
        assert!(problems
            .iter()
            .any(|p| p.contains("`bogus` is not a metric")));
        assert!(problems.iter().any(|p| p.contains("`setup_s` is `s` here")));
        assert!(problems
            .iter()
            .any(|p| p.contains("`train_wall_s` missing")));
        assert!(problems.iter().any(|p| p.contains("`fleet-sim` missing")));
    }
}
