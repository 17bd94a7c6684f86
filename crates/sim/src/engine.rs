//! The tuple-level discrete-event simulator of the DSDPS.
//!
//! Faithful to the runtime behaviour the paper's scheduler experiences on
//! Storm:
//!
//! * spout executors emit root tuples as Poisson processes at the workload
//!   rate (scaled by the [`RateSchedule`]);
//! * every executor is a FIFO queue + server; service times follow the
//!   component's distribution, inflated by machine CPU contention
//!   (executors sharing a machine's cores) and by post-(re)start warm-up;
//! * processed tuples spawn children along outgoing edges (probabilistic
//!   rounding of the edge selectivity) routed by the edge grouping, paying
//!   intra-process or inter-machine transfer delay (plus a congestion term
//!   driven by the machine's measured cross-traffic);
//! * tuple trees are acked exactly like Storm's acker; the complete latency
//!   feeds a sliding-window average — the paper's "average tuple processing
//!   time";
//! * re-deployments pause only the moved executors (the paper's
//!   minimal-impact custom scheduler) and restart their warm-up, producing
//!   the transient spike-then-stabilize curves of Figures 6–12.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::RngExt;

use crate::assignment::Assignment;
use crate::cluster::ClusterSpec;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::event::{EventKind, EventQueue};
use crate::latency::LatencyTracker;
use crate::rng::{self, sample_count, sample_exponential, ServiceTime, Zipf};
use crate::stats::RuntimeStats;
use crate::topology::{key_to_executor, Grouping, Topology};
use crate::tuple::{AckOutcome, TupleTracker};
use crate::workload::{RateSchedule, Workload};

/// EWMA time constant for the per-machine cross-traffic estimate (s).
const TRAFFIC_TAU_S: f64 = 5.0;

#[derive(Debug)]
pub(crate) struct ExecutorState {
    /// Queued tuples: `(root id, arrived-remote)`.
    pub(crate) queue: VecDeque<(u64, bool)>,
    /// `(root id, machine service started on)` — the machine is recorded
    /// because a re-deployment may move the executor mid-service, and the
    /// busy count must be released on the machine that acquired it.
    pub(crate) in_service: Option<(u64, usize)>,
    pub(crate) started_at: f64,
    pub(crate) paused_until: f64,
    pub(crate) processed: u64,
    pub(crate) arrived: u64,
    /// A spout executor whose emission rate is zero and which has no
    /// pending emission event — it contributes no per-epoch work until a
    /// workload/schedule mutation wakes it. Event-driven backend only; the
    /// dense oracle polls instead.
    pub(crate) parked: bool,
}

impl ExecutorState {
    fn new(now: f64) -> Self {
        Self {
            queue: VecDeque::new(),
            in_service: None,
            started_at: now,
            paused_until: now,
            processed: 0,
            arrived: 0,
            parked: false,
        }
    }

    fn idle(&self) -> bool {
        self.in_service.is_none()
    }

    fn paused(&self, now: f64) -> bool {
        now < self.paused_until
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MachineState {
    pub(crate) busy_executors: usize,
    pub(crate) cross_kib_rate: f64,
    pub(crate) last_traffic_at: f64,
    /// A failed machine stops emitting and serving; tuples routed to its
    /// executors queue up and overflow (Storm's timeout/replay path).
    pub(crate) failed: bool,
}

impl MachineState {
    /// Decays then bumps the outbound cross-traffic EWMA (KiB/s).
    fn note_cross_traffic(&mut self, now: f64, kib: f64) {
        self.decay(now);
        self.cross_kib_rate += kib / TRAFFIC_TAU_S;
    }

    fn decay(&mut self, now: f64) {
        let dt = (now - self.last_traffic_at).max(0.0);
        if dt > 0.0 {
            self.cross_kib_rate *= (-dt / TRAFFIC_TAU_S).exp();
            self.last_traffic_at = now;
        }
    }

    fn cross_rate(&mut self, now: f64) -> f64 {
        self.decay(now);
        self.cross_kib_rate
    }
}

/// The discrete-event DSDPS engine. See the module docs for the model.
///
/// Every mutable field below is captured bit-exactly by
/// [`SimEngine::save_state`] (the `crate::snapshot` codec) so a recovered
/// master can resume the simulation mid-run without perturbing the
/// trajectory.
pub struct SimEngine {
    pub(crate) topology: Topology,
    pub(crate) cluster: ClusterSpec,
    pub(crate) config: SimConfig,
    pub(crate) workload: Workload,
    pub(crate) schedule: RateSchedule,
    pub(crate) assignment: Assignment,
    pub(crate) clock: f64,
    pub(crate) events: EventQueue,
    pub(crate) executors: Vec<ExecutorState>,
    pub(crate) machines: Vec<MachineState>,
    pub(crate) tracker: TupleTracker,
    pub(crate) latency: LatencyTracker,
    pub(crate) arrival_rng: StdRng,
    pub(crate) service_rng: StdRng,
    pub(crate) routing_rng: StdRng,
    pub(crate) fields_keys: Vec<Option<Zipf>>,
    /// Per component: its service-time distribution, parameters computed
    /// once (derived from the topology, like `fields_keys`).
    pub(crate) service: Vec<ServiceTime>,
    pub(crate) events_processed: u64,
    pub(crate) started: bool,
}

impl SimEngine {
    /// Builds an engine; call [`SimEngine::deploy`] to start processing.
    pub fn new(
        topology: Topology,
        cluster: ClusterSpec,
        workload: Workload,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        cluster.validate()?;
        let n = topology.n_executors();
        let fields_keys = topology
            .edges()
            .iter()
            .map(|e| match e.grouping {
                Grouping::Fields { n_keys, skew } => Some(Zipf::new(n_keys, skew)),
                _ => None,
            })
            .collect();
        let service = topology
            .components()
            .iter()
            .map(|c| ServiceTime::new(c.service_mean_ms, c.service_cv))
            .collect();
        Ok(Self {
            executors: (0..n).map(|_| ExecutorState::new(0.0)).collect(),
            machines: vec![MachineState::default(); cluster.n_machines()],
            tracker: TupleTracker::new(),
            latency: LatencyTracker::new(config.latency_window_s),
            arrival_rng: rng::stream(config.seed, 1),
            service_rng: rng::stream(config.seed, 2),
            routing_rng: rng::stream(config.seed, 3),
            fields_keys,
            service,
            events: EventQueue::new(),
            clock: 0.0,
            events_processed: 0,
            started: false,
            // Placeholder until the first deploy.
            assignment: Assignment::round_robin(&topology, &cluster),
            schedule: RateSchedule::constant(),
            workload,
            topology,
            cluster,
            config,
        })
    }

    /// Sets the workload multiplier schedule. Safe to call before, between
    /// or *during* runs: spout emissions re-read the schedule at every
    /// event, so a new schedule takes effect within one inter-arrival gap.
    pub fn set_rate_schedule(&mut self, schedule: RateSchedule) {
        self.schedule = schedule;
        self.wake_parked_spouts();
    }

    /// Selects the dense linear-scan event backend — the correctness
    /// oracle and bench baseline whose per-event cost is O(pending events)
    /// instead of O(log) — or the default 4-ary heap.
    ///
    /// # Panics
    /// Panics after the first deploy: the backend cannot change mid-run.
    pub fn set_dense_events(&mut self, dense: bool) {
        assert!(
            !self.started,
            "event backend must be chosen before the first deploy"
        );
        if dense != self.events.is_dense() {
            self.events = if dense {
                EventQueue::new_dense()
            } else {
                EventQueue::new()
            };
        }
    }

    /// Whether the dense linear-scan event backend is active.
    pub fn dense_events(&self) -> bool {
        self.events.is_dense()
    }

    /// Number of pending events — the quantity the event-driven backend
    /// keeps proportional to *busy* executors while the dense oracle keeps
    /// one permanent poll per idle spout.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// The workload multiplier schedule in effect.
    pub fn rate_schedule(&self) -> &RateSchedule {
        &self.schedule
    }

    /// Replaces the base workload (rates take effect from the current
    /// simulated time onward — the mid-run mutation an online controller
    /// performs when the offered load changes between decision epochs).
    pub fn set_workload(&mut self, workload: Workload) {
        self.workload = workload;
        self.wake_parked_spouts();
    }

    /// The base workload currently driving the spouts (before the
    /// [`RateSchedule`] multiplier).
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Deploys a scheduling solution.
    ///
    /// The first call starts the topology (all executors begin their
    /// warm-up; spouts start emitting). Subsequent calls re-deploy: only
    /// executors whose machine changed are paused for
    /// `config.migration_pause_s` and restart their warm-up, mirroring the
    /// paper's minimal-impact deployment.
    pub fn deploy(&mut self, assignment: Assignment) -> Result<(), SimError> {
        assignment.validate_for(&self.topology, &self.cluster)?;
        if !self.started {
            self.started = true;
            self.assignment = assignment;
            for e in 0..self.topology.n_executors() {
                self.executors[e].started_at = self.clock;
            }
            for spout_comp in self.topology.spouts() {
                for e in self.topology.executors_of(spout_comp) {
                    self.schedule_next_emit(e);
                }
            }
            return Ok(());
        }
        let moved = self.assignment.diff(&assignment);
        for &e in &moved {
            let ex = &mut self.executors[e];
            ex.paused_until = self.clock + self.config.migration_pause_s;
            ex.started_at = self.clock; // warm-up restarts on the new machine
            self.events
                .push(ex.paused_until, EventKind::MigrationDone { executor: e });
        }
        self.assignment = assignment;
        Ok(())
    }

    /// Advances simulated time to `t_end` (seconds), processing all events.
    ///
    /// # Panics
    /// Panics if `t_end` is behind the current clock.
    pub fn run_until(&mut self, t_end: f64) {
        assert!(
            t_end >= self.clock,
            "cannot run backwards: {t_end} < {}",
            self.clock
        );
        while let Some(ev) = self.events.pop_until(t_end) {
            self.clock = ev.time;
            self.events_processed += 1;
            match ev.kind {
                EventKind::SpoutEmit { executor } => self.on_spout_emit(executor),
                EventKind::TupleArrival {
                    executor,
                    root,
                    remote,
                } => self.enqueue_tuple(executor, root, remote),
                EventKind::ServiceComplete { executor, root } => {
                    self.on_service_complete(executor, root)
                }
                EventKind::MigrationDone { executor } => self.try_start_service(executor),
            }
        }
        self.clock = t_end;
    }

    /// Incremental decision-epoch stepping: advances the event loop by
    /// `epoch_s` simulated seconds from the current clock and returns the
    /// sliding-window average tuple processing time at the new clock
    /// (`None` while the window is still empty — e.g. right after the
    /// first deploy, before any tuple tree has completed).
    ///
    /// This is the training-backend API: an RL environment deploys an
    /// assignment ([`SimEngine::deploy`] — a minimal-impact re-deployment
    /// when the topology is already running), steps one epoch, and reads
    /// the latency it observed, without ever restarting the engine.
    ///
    /// # Panics
    /// Panics when `epoch_s` is negative.
    pub fn step_epoch(&mut self, epoch_s: f64) -> Option<f64> {
        assert!(epoch_s >= 0.0, "epoch length must be non-negative");
        let t = self.clock + epoch_s;
        self.run_until(t);
        self.window_avg_latency_ms()
    }

    /// Current simulated time (s).
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// The deployed assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The cluster spec.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The simulation configuration (a recovering master clones it to
    /// rebuild an identical engine before restoring a snapshot).
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Events processed since construction (throughput metric for benches).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Sliding-window average tuple processing time at the current clock.
    pub fn window_avg_latency_ms(&mut self) -> Option<f64> {
        let now = self.clock;
        self.latency.window_avg_ms(now)
    }

    /// The paper's measurement protocol: run on, sampling the window
    /// average `config.measure_samples` times at `config.measure_interval_s`
    /// spacing, and return the mean of the non-empty samples.
    pub fn measure_avg_latency_ms(&mut self) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for _ in 0..self.config.measure_samples {
            let t = self.clock + self.config.measure_interval_s;
            self.run_until(t);
            if let Some(v) = self.window_avg_latency_ms() {
                sum += v;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Snapshot of runtime statistics at the current clock. Executor rates
    /// are lifetime averages (arrivals / elapsed); sojourn estimates are not
    /// tracked per-executor by the engine (the analytic model provides
    /// them), so they are reported as zeros here.
    pub fn stats(&mut self) -> RuntimeStats {
        let elapsed = self.clock.max(1e-9);
        let executor_rates = self
            .executors
            .iter()
            .map(|e| e.arrived as f64 / elapsed)
            .collect();
        let mut machine_cpu = vec![0.0; self.cluster.n_machines()];
        for e in 0..self.topology.n_executors() {
            let comp = &self.topology.components()[self.topology.component_of(e)];
            let rate = self.executors[e].arrived as f64 / elapsed;
            machine_cpu[self.assignment.machine_of(e)] += rate * comp.service_mean_ms / 1000.0;
        }
        let now = self.clock;
        let cross: Vec<f64> = self
            .machines
            .iter_mut()
            .map(|m| m.cross_rate(now))
            .collect();
        RuntimeStats {
            avg_latency_ms: self.latency.window_avg_ms(now).unwrap_or(0.0),
            executor_rates,
            executor_sojourn_ms: vec![0.0; self.topology.n_executors()],
            machine_cpu_cores: machine_cpu,
            machine_cross_kib_s: cross,
            edge_transfer_ms: vec![0.0; self.topology.edges().len()],
            completed: self.tracker.completed(),
            failed: self.tracker.failed(),
        }
    }

    /// Fail a machine: its executors stop emitting and serving from this
    /// instant. Tuples already queued there stay queued; tuples still
    /// routed there accumulate until the queue overflows and the tree is
    /// failed — exactly the back-pressure-then-timeout behaviour a dead
    /// Storm worker causes. In-flight service completes (a tuple being
    /// processed at the instant of death is a coin flip; completing it
    /// keeps the accounting conservative).
    pub fn fail_machine(&mut self, machine: usize) {
        assert!(machine < self.cluster.n_machines(), "machine out of range");
        self.machines[machine].failed = true;
    }

    /// Recover a failed machine: executors still assigned to it resume
    /// serving their queues.
    pub fn recover_machine(&mut self, machine: usize) {
        assert!(machine < self.cluster.n_machines(), "machine out of range");
        if !std::mem::replace(&mut self.machines[machine].failed, false) {
            return;
        }
        for e in 0..self.topology.n_executors() {
            if self.assignment.machine_of(e) == machine {
                self.try_start_service(e);
            }
        }
    }

    /// Whether a machine is currently failed.
    pub fn machine_failed(&self, machine: usize) -> bool {
        self.machines[machine].failed
    }

    /// Tuple trees emitted / completed / failed / in flight.
    pub fn tuple_counts(&self) -> (u64, u64, u64, usize) {
        (
            self.tracker.emitted(),
            self.tracker.completed(),
            self.tracker.failed(),
            self.tracker.in_flight(),
        )
    }

    // ----- event handlers ---------------------------------------------

    fn on_spout_emit(&mut self, executor: usize) {
        // Schedule the next emission first so rate changes apply smoothly
        // (and so emission resumes if the executor later moves off a
        // failed machine).
        let alive = !self.machines[self.assignment.machine_of(executor)].failed;
        let emitting = alive && self.current_rate(executor) > 1e-9;
        self.schedule_next_emit(executor);
        if emitting {
            let root = self.tracker.emit_root(self.clock);
            self.enqueue_tuple(executor, root, false);
        }
    }

    /// Current per-executor emission rate (tuples/s) for a spout executor.
    fn current_rate(&self, executor: usize) -> f64 {
        self.base_rate(executor) * self.schedule.multiplier_at(self.clock)
    }

    /// Per-executor base rate before the schedule multiplier (tuples/s).
    fn base_rate(&self, executor: usize) -> f64 {
        let comp = self.topology.component_of(executor);
        let parallelism = self.topology.components()[comp].parallelism as f64;
        let base_rate: f64 = self
            .workload
            .rates()
            .iter()
            .filter(|&&(c, _)| c == comp)
            .map(|&(_, r)| r)
            .sum();
        base_rate / parallelism
    }

    fn enqueue_tuple(&mut self, executor: usize, root: u64, remote: bool) {
        let ex = &mut self.executors[executor];
        ex.arrived += 1;
        if ex.queue.len() >= self.config.max_queue_len {
            // Overflow: Storm would time the tuple out and replay; the
            // simulator records the failure and drops the tree.
            self.tracker.fail_tree(root);
            return;
        }
        ex.queue.push_back((root, remote));
        self.try_start_service(executor);
    }

    fn try_start_service(&mut self, executor: usize) {
        let now = self.clock;
        if !self.executors[executor].idle()
            || self.executors[executor].paused(now)
            || self.executors[executor].queue.is_empty()
            || self.machines[self.assignment.machine_of(executor)].failed
        {
            return;
        }
        let (root, remote) = self.executors[executor]
            .queue
            .pop_front()
            .expect("non-empty queue");
        let machine = self.assignment.machine_of(executor);
        self.machines[machine].busy_executors += 1;
        let busy = self.machines[machine].busy_executors;
        let cores = self.cluster.machines[machine].cores;
        let slowdown = (busy as f64 / cores as f64).max(1.0);

        let service = self.service[self.topology.component_of(executor)];
        let warmup = self
            .config
            .warmup_multiplier(now - self.executors[executor].started_at);
        // Remote arrivals pay deserialization CPU before user code runs.
        let deser = if remote {
            self.cluster.network.deserialize_ms
        } else {
            0.0
        };
        let service_ms = (service.sample(&mut self.service_rng) + deser) * warmup * slowdown;
        self.executors[executor].in_service = Some((root, machine));
        self.events.push(
            now + service_ms / 1000.0,
            EventKind::ServiceComplete { executor, root },
        );
    }

    fn on_service_complete(&mut self, executor: usize, root: u64) {
        let (taken_root, machine) = self.executors[executor]
            .in_service
            .take()
            .expect("completion without service");
        debug_assert_eq!(taken_root, root);
        debug_assert!(self.machines[machine].busy_executors > 0);
        self.machines[machine].busy_executors -= 1;
        self.executors[executor].processed += 1;

        // Route children along every outgoing edge (by index: routing needs
        // `&mut self`, and copying the edge list would allocate per tuple).
        let comp_idx = self.topology.component_of(executor);
        let mut children = 0u64;
        let mut remote_children = 0u64;
        for i in 0..self.topology.out_edges_of(comp_idx).len() {
            let ei = self.topology.out_edges_of(comp_idx)[i];
            let (sent, remote) = self.route_edge(ei, executor, root);
            children += sent;
            remote_children += remote;
        }
        // Serialization CPU: the executor stays busy while kryo-encoding
        // the tuples it just sent off-machine.
        if remote_children > 0 {
            let ser_ms = self.cluster.network.serialize_ms * remote_children as f64;
            if ser_ms > 0.0 {
                let until = self.clock + ser_ms / 1000.0;
                let ex = &mut self.executors[executor];
                if until > ex.paused_until {
                    ex.paused_until = until;
                    self.events
                        .push(until, EventKind::MigrationDone { executor });
                }
            }
        }
        match self.tracker.complete_one(root, children) {
            AckOutcome::Completed { emitted_at } => {
                let latency_ms = (self.clock - emitted_at) * 1000.0 + self.config.ack_overhead_ms;
                self.latency.record(self.clock, latency_ms);
            }
            AckOutcome::Pending | AckOutcome::Unknown => {}
        }
        self.try_start_service(executor);
    }

    /// Emits this tuple's children on edge `ei`; returns
    /// `(total sent, sent off-machine)`.
    fn route_edge(&mut self, ei: usize, src_executor: usize, root: u64) -> (u64, u64) {
        let edge = self.topology.edges()[ei].clone();
        let dst_parallelism = self.topology.components()[edge.to].parallelism;
        let dst_base = self.topology.executor_base(edge.to);
        let count = sample_count(&mut self.routing_rng, edge.selectivity);
        let mut sent = 0u64;
        let mut remote = 0u64;
        for _ in 0..count {
            match edge.grouping {
                Grouping::Shuffle => {
                    let d = self.routing_rng.random_range(0..dst_parallelism);
                    remote += self.send_tuple(src_executor, dst_base + d, edge.tuple_bytes, root);
                    sent += 1;
                }
                Grouping::Fields { .. } => {
                    let zipf = self.fields_keys[ei].as_ref().expect("fields zipf");
                    let key = zipf.sample(&mut self.routing_rng);
                    let d = key_to_executor(key, dst_parallelism);
                    remote += self.send_tuple(src_executor, dst_base + d, edge.tuple_bytes, root);
                    sent += 1;
                }
                Grouping::All => {
                    for d in 0..dst_parallelism {
                        remote +=
                            self.send_tuple(src_executor, dst_base + d, edge.tuple_bytes, root);
                        sent += 1;
                    }
                }
                Grouping::Global => {
                    remote += self.send_tuple(src_executor, dst_base, edge.tuple_bytes, root);
                    sent += 1;
                }
            }
        }
        (sent, remote)
    }

    /// Sends one tuple; returns 1 when it crossed machines, 0 otherwise.
    fn send_tuple(&mut self, src: usize, dst: usize, bytes: usize, root: u64) -> u64 {
        let is_remote = self.assignment.machine_of(src) != self.assignment.machine_of(dst);
        let ms = self.transfer_delay_ms(src, dst, bytes);
        self.events.push(
            self.clock + ms / 1000.0,
            EventKind::TupleArrival {
                executor: dst,
                root,
                remote: is_remote,
            },
        );
        u64::from(is_remote)
    }

    fn transfer_delay_ms(&mut self, src: usize, dst: usize, bytes: usize) -> f64 {
        let a = self.assignment.machine_of(src);
        let b = self.assignment.machine_of(dst);
        let base = self.cluster.base_transfer_ms(a, b, bytes);
        if a == b {
            return base;
        }
        let now = self.clock;
        self.machines[a].note_cross_traffic(now, bytes as f64 / 1024.0);
        let util = (self.machines[a].cross_rate(now) / self.cluster.network.nic_kib_per_s).min(3.0);
        base * (1.0 + self.cluster.network.congestion * util)
    }

    fn schedule_next_emit(&mut self, executor: usize) {
        let rate = self.current_rate(executor);
        if rate > 1e-9 {
            let gap = sample_exponential(&mut self.arrival_rng, 1.0 / rate);
            self.events
                .push(self.clock + gap, EventKind::SpoutEmit { executor });
            return;
        }
        if self.events.is_dense() {
            // Dense oracle: an idle spout polls for a rate change once a
            // second forever — one permanently pending event per idle
            // spout, exactly the O(cluster-size) per-epoch cost the
            // event-driven path avoids. Polls consume no randomness, so the
            // two backends stay bit-identical wherever both emit.
            self.events
                .push(self.clock + 1.0, EventKind::SpoutEmit { executor });
            return;
        }
        // Event-driven path: a silent spout contributes no events. When
        // the silence comes from the schedule (positive base rate, zero
        // multiplier), sleep until the multiplier next changes; a smooth
        // schedule (sinusoid) has no discrete change point, so keep the
        // 1 Hz poll there. A zero *base* rate can only change through
        // set_workload / set_rate_schedule, which wake parked spouts.
        if self.base_rate(executor) > 1e-9 {
            match self.schedule.next_change_after(self.clock) {
                Some(t) => self.events.push(t, EventKind::SpoutEmit { executor }),
                None if self.schedule.period_s().is_some() => self
                    .events
                    .push(self.clock + 1.0, EventKind::SpoutEmit { executor }),
                None => self.executors[executor].parked = true,
            }
            return;
        }
        self.executors[executor].parked = true;
    }

    /// Re-kicks spout executors parked by a zero emission rate. Workload
    /// and schedule mutations are the only ways a parked spout's rate can
    /// become non-zero, so this runs after both. Spouts are visited in
    /// executor-index order, keeping the wake-up event sequence (and thus
    /// the whole trajectory) deterministic.
    fn wake_parked_spouts(&mut self) {
        if !self.started {
            return;
        }
        for spout_comp in self.topology.spouts() {
            for e in self.topology.executors_of(spout_comp) {
                if self.executors[e].parked {
                    self.executors[e].parked = false;
                    self.schedule_next_emit(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    fn chain_topology() -> Topology {
        let mut b = TopologyBuilder::new("chain");
        let s = b.spout("spout", 2, 0.05);
        let x = b.bolt("worker", 4, 0.3);
        let y = b.bolt("sink", 2, 0.1);
        b.edge(s, x, Grouping::Shuffle, 1.0, 256);
        b.edge(x, y, Grouping::Shuffle, 0.5, 128);
        b.build().unwrap()
    }

    fn engine(seed: u64) -> SimEngine {
        let topo = chain_topology();
        let cluster = ClusterSpec::homogeneous(4);
        let workload = Workload::uniform(&topo, 200.0);
        SimEngine::new(topo, cluster, workload, SimConfig::steady_state(seed)).unwrap()
    }

    #[test]
    fn processes_tuples_and_measures_latency() {
        let mut eng = engine(1);
        let rr = Assignment::round_robin(eng.topology(), eng.cluster());
        eng.deploy(rr).unwrap();
        eng.run_until(30.0);
        let (emitted, completed, failed, _inflight) = eng.tuple_counts();
        assert!(emitted > 4000, "emitted {emitted}");
        assert!(completed > 4000, "completed {completed}");
        assert_eq!(failed, 0);
        let avg = eng.window_avg_latency_ms().expect("latency measured");
        // Chain of ~0.45ms service + transfers: sane range.
        assert!(avg > 0.3 && avg < 10.0, "avg {avg}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut eng = engine(seed);
            let rr = Assignment::round_robin(eng.topology(), eng.cluster());
            eng.deploy(rr).unwrap();
            eng.run_until(20.0);
            let counts = eng.tuple_counts();
            (counts, eng.window_avg_latency_ms())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn tuple_conservation_holds() {
        let mut eng = engine(2);
        let rr = Assignment::round_robin(eng.topology(), eng.cluster());
        eng.deploy(rr).unwrap();
        eng.run_until(15.0);
        let (emitted, completed, failed, in_flight) = eng.tuple_counts();
        assert_eq!(emitted, completed + failed + in_flight as u64);
    }

    #[test]
    fn emission_rate_matches_workload() {
        let mut eng = engine(3);
        let rr = Assignment::round_robin(eng.topology(), eng.cluster());
        eng.deploy(rr).unwrap();
        eng.run_until(50.0);
        let (emitted, ..) = eng.tuple_counts();
        let rate = emitted as f64 / 50.0;
        assert!((rate - 200.0).abs() < 20.0, "rate {rate}");
    }

    #[test]
    fn rate_schedule_scales_emission() {
        let mut eng = engine(4);
        eng.set_rate_schedule(RateSchedule::step_at(25.0, 2.0));
        let rr = Assignment::round_robin(eng.topology(), eng.cluster());
        eng.deploy(rr).unwrap();
        eng.run_until(25.0);
        let (before, ..) = eng.tuple_counts();
        eng.run_until(50.0);
        let (after, ..) = eng.tuple_counts();
        let first_half = before as f64 / 25.0;
        let second_half = (after - before) as f64 / 25.0;
        assert!(
            second_half / first_half > 1.7,
            "{first_half} -> {second_half}"
        );
    }

    #[test]
    fn step_epoch_matches_run_until() {
        // Stepping in epochs is exactly incremental: the trajectory is
        // bit-identical to one long run_until over the same span.
        let mut stepped = engine(11);
        let mut straight = engine(11);
        let rr = Assignment::round_robin(stepped.topology(), stepped.cluster());
        stepped.deploy(rr.clone()).unwrap();
        straight.deploy(rr).unwrap();
        let mut last = None;
        for _ in 0..15 {
            last = stepped.step_epoch(2.0);
        }
        straight.run_until(30.0);
        assert_eq!(stepped.now(), 30.0);
        assert_eq!(stepped.tuple_counts(), straight.tuple_counts());
        // The event trajectory is bit-identical; the window average may
        // differ only by float-summation order of the sliding window.
        let (a, b) = (last.unwrap(), straight.window_avg_latency_ms().unwrap());
        assert!((a - b).abs() < 1e-9 * b.max(1.0), "{a} vs {b}");
        assert!(a > 0.0);
    }

    #[test]
    fn step_epoch_before_completions_is_none() {
        let mut eng = engine(12);
        let rr = Assignment::round_robin(eng.topology(), eng.cluster());
        eng.deploy(rr).unwrap();
        // An epoch far shorter than any service + transfer chain: no tree
        // can have completed yet.
        assert_eq!(eng.step_epoch(1e-7), None);
        assert!(eng.step_epoch(10.0).is_some());
    }

    #[test]
    fn mid_run_workload_mutation_shifts_emission() {
        let mut eng = engine(13);
        let rr = Assignment::round_robin(eng.topology(), eng.cluster());
        eng.deploy(rr).unwrap();
        eng.run_until(25.0);
        let (before, ..) = eng.tuple_counts();
        let doubled = eng.workload().scaled(2.0);
        eng.set_workload(doubled);
        eng.run_until(50.0);
        let (after, ..) = eng.tuple_counts();
        let first_half = before as f64 / 25.0;
        let second_half = (after - before) as f64 / 25.0;
        assert!(
            second_half / first_half > 1.7,
            "{first_half} -> {second_half}"
        );
    }

    #[test]
    fn sinusoid_schedule_modulates_emission() {
        // Peak quarter-period vs trough quarter-period of a ±60% wave:
        // emission counts must differ strongly between the two windows.
        let mut eng = engine(14);
        eng.set_rate_schedule(RateSchedule::sinusoid(1.0, 0.6, 40.0));
        let rr = Assignment::round_robin(eng.topology(), eng.cluster());
        eng.deploy(rr).unwrap();
        eng.run_until(5.0);
        let (t0, ..) = eng.tuple_counts();
        eng.run_until(15.0); // around the t=10 peak
        let (t1, ..) = eng.tuple_counts();
        eng.run_until(25.0);
        let (t2, ..) = eng.tuple_counts();
        eng.run_until(35.0); // around the t=30 trough
        let (t3, ..) = eng.tuple_counts();
        let peak = (t1 - t0) as f64;
        let trough = (t3 - t2) as f64;
        assert!(peak > 2.0 * trough, "peak {peak} vs trough {trough}");
    }

    #[test]
    fn redeploy_pauses_only_moved_executors() {
        let topo = chain_topology();
        let cluster = ClusterSpec::homogeneous(4);
        let workload = Workload::uniform(&topo, 100.0);
        let mut cfg = SimConfig::steady_state(5);
        cfg.migration_pause_s = 5.0;
        let mut eng = SimEngine::new(topo, cluster, workload, cfg).unwrap();
        let rr = Assignment::round_robin(eng.topology(), eng.cluster());
        eng.deploy(rr.clone()).unwrap();
        eng.run_until(20.0);
        let moved = rr.with_move(0, (rr.machine_of(0) + 1) % 4);
        eng.deploy(moved).unwrap();
        // The system keeps processing through the migration.
        let (_, before, ..) = eng.tuple_counts();
        eng.run_until(40.0);
        let (_, after, ..) = eng.tuple_counts();
        assert!(after > before);
    }

    #[test]
    fn warmup_inflates_initial_latency() {
        let topo = chain_topology();
        let cluster = ClusterSpec::homogeneous(4);
        let workload = Workload::uniform(&topo, 100.0);
        let mut cfg = SimConfig::steady_state(6);
        cfg.warmup_amplitude = 2.0;
        cfg.warmup_tau_s = 60.0;
        let mut eng = SimEngine::new(topo, cluster, workload, cfg).unwrap();
        let rr = Assignment::round_robin(eng.topology(), eng.cluster());
        eng.deploy(rr).unwrap();
        eng.run_until(30.0);
        let early = eng.window_avg_latency_ms().unwrap();
        eng.run_until(600.0);
        let late = eng.window_avg_latency_ms().unwrap();
        assert!(
            early > late * 1.3,
            "warm-up should inflate early latency: {early} vs {late}"
        );
    }

    #[test]
    fn overload_drops_instead_of_exploding() {
        let mut b = TopologyBuilder::new("hot");
        let s = b.spout("s", 1, 0.05);
        let x = b.bolt("x", 1, 10.0); // 10 ms service, can do ~100/s
        b.edge(s, x, Grouping::Shuffle, 1.0, 64);
        let topo = b.build().unwrap();
        let cluster = ClusterSpec::homogeneous(1);
        let workload = Workload::uniform(&topo, 500.0); // 5x overload
        let mut cfg = SimConfig::steady_state(7);
        cfg.max_queue_len = 100;
        let mut eng = SimEngine::new(topo, cluster, workload, cfg).unwrap();
        let a = Assignment::new(vec![0, 0], 1).unwrap();
        eng.deploy(a).unwrap();
        eng.run_until(30.0);
        let (_, completed, failed, in_flight) = eng.tuple_counts();
        assert!(failed > 0, "overload must shed load");
        assert!(completed > 0);
        assert!(in_flight < 500, "bounded in-flight, got {in_flight}");
    }

    #[test]
    fn measure_protocol_averages_five_samples() {
        let mut eng = engine(8);
        let rr = Assignment::round_robin(eng.topology(), eng.cluster());
        eng.deploy(rr).unwrap();
        eng.run_until(10.0);
        let t0 = eng.now();
        let m = eng.measure_avg_latency_ms().unwrap();
        assert!((eng.now() - t0 - 50.0).abs() < 1e-9, "5 x 10s samples");
        assert!(m > 0.0);
    }

    #[test]
    fn colocated_chain_beats_scattered_when_lightly_loaded() {
        // With light load, transfer delay dominates: packing the pipeline
        // on few machines must beat maximal spread.
        let topo = chain_topology();
        let cluster = ClusterSpec::homogeneous(8);
        let workload = Workload::uniform(&topo, 100.0);

        let run = |assignment: Assignment| {
            let topo = chain_topology();
            let cluster = ClusterSpec::homogeneous(8);
            let workload = Workload::uniform(&topo, 100.0);
            let mut eng =
                SimEngine::new(topo, cluster, workload, SimConfig::steady_state(9)).unwrap();
            eng.deploy(assignment).unwrap();
            eng.run_until(60.0);
            eng.window_avg_latency_ms().unwrap()
        };

        let packed = Assignment::new(vec![0, 0, 0, 0, 1, 1, 0, 1], 8).unwrap();
        let scattered = Assignment::round_robin(&topo, &cluster);
        drop((topo, cluster, workload));
        let packed_ms = run(packed);
        let scattered_ms = run(scattered);
        assert!(
            packed_ms < scattered_ms,
            "packed {packed_ms} should beat scattered {scattered_ms}"
        );
    }

    #[test]
    fn failed_machine_sheds_tuples_until_recovered() {
        // Small queues so the outage overflows within the test window.
        let topo = chain_topology();
        let cluster = ClusterSpec::homogeneous(4);
        let workload = Workload::uniform(&topo, 200.0);
        let config = SimConfig {
            max_queue_len: 200,
            ..SimConfig::steady_state(21)
        };
        let mut eng = SimEngine::new(topo, cluster, workload, config).unwrap();
        let rr = Assignment::round_robin(eng.topology(), eng.cluster());
        eng.deploy(rr).unwrap();
        eng.run_until(20.0);
        let (_, _, failed_before, _) = eng.tuple_counts();
        assert_eq!(failed_before, 0, "healthy cluster fails nothing");

        // Kill a machine hosting bolt executors; the queues feeding them
        // overflow and trees start failing.
        eng.fail_machine(1);
        assert!(eng.machine_failed(1));
        eng.run_until(60.0);
        let (_, _, failed_during, _) = eng.tuple_counts();
        assert!(failed_during > 0, "dead machine must shed load");

        // Recovery drains the backlog; failure count stops growing.
        eng.recover_machine(1);
        assert!(!eng.machine_failed(1));
        eng.run_until(90.0);
        let (_, _, failed_at_recovery, _) = eng.tuple_counts();
        eng.run_until(140.0);
        let (emitted, completed, failed_end, in_flight) = eng.tuple_counts();
        assert_eq!(emitted, completed + failed_end + in_flight as u64);
        let late_failures = failed_end - failed_at_recovery;
        let during_failures = failed_during - failed_before;
        assert!(
            late_failures < during_failures / 4,
            "failures should taper after recovery: {late_failures} vs {during_failures}"
        );
    }

    #[test]
    fn rescheduling_off_a_dead_machine_restores_service() {
        let mut eng = engine(22);
        let rr = Assignment::round_robin(eng.topology(), eng.cluster());
        eng.deploy(rr.clone()).unwrap();
        eng.run_until(20.0);
        eng.fail_machine(0);
        eng.run_until(40.0);

        // Move everything off machine 0 (what Nimbus's repair does).
        let repaired: Vec<usize> = rr
            .as_slice()
            .iter()
            .map(|&m| if m == 0 { 1 } else { m })
            .collect();
        eng.deploy(Assignment::new(repaired, 4).unwrap()).unwrap();
        let (_, completed_at_repair, failed_at_repair, _) = {
            let c = eng.tuple_counts();
            (c.0, c.1, c.2, c.3)
        };
        eng.run_until(120.0);
        let (_, completed_end, failed_end, _) = {
            let c = eng.tuple_counts();
            (c.0, c.1, c.2, c.3)
        };
        assert!(
            completed_end > completed_at_repair,
            "throughput must resume after repair"
        );
        // New failures after the repair settle to (near) zero.
        let new_failures = failed_end - failed_at_repair;
        assert!(
            new_failures < 50,
            "repair should stop the bleeding, saw {new_failures} new failures"
        );
    }

    #[test]
    fn spouts_on_failed_machines_stop_emitting() {
        let mut eng = engine(23);
        // Pack every spout executor onto machine 3.
        let topo = eng.topology().clone();
        let mut assign = Assignment::round_robin(&topo, eng.cluster())
            .as_slice()
            .to_vec();
        for comp in topo.spouts() {
            for e in topo.executors_of(comp) {
                assign[e] = 3;
            }
        }
        eng.deploy(Assignment::new(assign, 4).unwrap()).unwrap();
        eng.run_until(10.0);
        let (emitted_before, ..) = eng.tuple_counts();
        assert!(emitted_before > 0);
        eng.fail_machine(3);
        eng.run_until(30.0);
        let (emitted_during, ..) = eng.tuple_counts();
        // Emission stops within one inter-arrival gap of the failure.
        assert!(
            emitted_during - emitted_before < 10,
            "spouts kept emitting from a dead machine: {} new",
            emitted_during - emitted_before
        );
        eng.recover_machine(3);
        eng.run_until(50.0);
        let (emitted_after, ..) = eng.tuple_counts();
        assert!(
            emitted_after > emitted_during + 100,
            "emission must resume on recovery"
        );
    }

    /// Two spout lanes feeding one bolt, so per-lane rates can differ.
    fn two_lane_topology() -> Topology {
        let mut b = TopologyBuilder::new("lanes");
        let a = b.spout("lane-a", 2, 0.05);
        let z = b.spout("lane-z", 3, 0.05);
        let x = b.bolt("worker", 2, 0.2);
        b.edge(a, x, Grouping::Shuffle, 1.0, 64);
        b.edge(z, x, Grouping::Shuffle, 1.0, 64);
        b.build().unwrap()
    }

    #[test]
    fn dense_and_heap_backends_are_bit_identical() {
        // Mostly-idle fleet slice: one live lane, one zero-rate lane, plus
        // a schedule step mid-run. The dense oracle polls the idle lane;
        // the heap backend parks it — trajectories must still match
        // exactly, epoch by epoch.
        let run = |dense: bool| {
            let topo = two_lane_topology();
            let cluster = ClusterSpec::homogeneous(4);
            let workload = Workload::new(vec![(0, 150.0), (1, 0.0)], &topo).unwrap();
            let mut eng =
                SimEngine::new(topo, cluster, workload, SimConfig::steady_state(31)).unwrap();
            eng.set_dense_events(dense);
            assert_eq!(eng.dense_events(), dense);
            eng.set_rate_schedule(RateSchedule::step_at(12.0, 1.5));
            let rr = Assignment::round_robin(eng.topology(), eng.cluster());
            eng.deploy(rr).unwrap();
            let mut trajectory = Vec::new();
            for _ in 0..12 {
                trajectory.push(eng.step_epoch(2.0));
            }
            (trajectory, eng.tuple_counts())
        };
        let (dense_traj, dense_counts) = run(true);
        let (event_traj, event_counts) = run(false);
        assert_eq!(
            dense_traj, event_traj,
            "latency trajectories must match bit-for-bit"
        );
        assert_eq!(dense_counts, event_counts);
        assert!(dense_traj.iter().any(|l| l.is_some()));
    }

    #[test]
    fn idle_spouts_park_instead_of_polling() {
        let topo = two_lane_topology();
        let cluster = ClusterSpec::homogeneous(4);
        // Lane z (3 executors) is silent.
        let workload = Workload::new(vec![(0, 50.0), (1, 0.0)], &topo).unwrap();
        let mk = |dense: bool| {
            let mut eng = SimEngine::new(
                two_lane_topology(),
                ClusterSpec::homogeneous(4),
                Workload::new(vec![(0, 50.0), (1, 0.0)], &two_lane_topology()).unwrap(),
                SimConfig::steady_state(32),
            )
            .unwrap();
            eng.set_dense_events(dense);
            let rr = Assignment::round_robin(eng.topology(), eng.cluster());
            eng.deploy(rr).unwrap();
            eng.run_until(5.0);
            eng
        };
        drop((topo, cluster, workload));
        let dense = mk(true);
        let event = mk(false);
        // The dense oracle keeps one poll pending per idle spout executor;
        // the event-driven backend has none of them.
        assert!(
            dense.pending_events() >= event.pending_events() + 3,
            "dense {} vs event {}",
            dense.pending_events(),
            event.pending_events()
        );
    }

    #[test]
    fn parked_spouts_wake_on_workload_change() {
        let topo = two_lane_topology();
        let cluster = ClusterSpec::homogeneous(4);
        let silent = Workload::new(vec![(0, 80.0), (1, 0.0)], &topo).unwrap();
        let mut eng = SimEngine::new(topo, cluster, silent, SimConfig::steady_state(33)).unwrap();
        let rr = Assignment::round_robin(eng.topology(), eng.cluster());
        eng.deploy(rr).unwrap();
        eng.run_until(10.0);
        let (before, ..) = eng.tuple_counts();
        // Wake the silent lane mid-run: emission must resume even though
        // its executors were parked with no pending events.
        let topo = eng.topology().clone();
        eng.set_workload(Workload::new(vec![(0, 80.0), (1, 120.0)], &topo).unwrap());
        eng.run_until(30.0);
        let (after, ..) = eng.tuple_counts();
        let expected = (after - before) as f64 / 20.0;
        assert!(
            (expected - 200.0).abs() < 40.0,
            "woken lane must emit: {expected} tuples/s"
        );
    }

    #[test]
    fn schedule_silenced_spouts_sleep_until_next_change() {
        // Steps to zero at t=10, back to 1 at t=40: the event-driven
        // backend sleeps the spouts across the silent span (no polls) and
        // resumes exactly at the change point.
        let topo = two_lane_topology();
        let cluster = ClusterSpec::homogeneous(4);
        let workload = Workload::new(vec![(0, 100.0), (1, 0.0)], &topo).unwrap();
        let mut eng = SimEngine::new(topo, cluster, workload, SimConfig::steady_state(34)).unwrap();
        eng.set_rate_schedule(
            RateSchedule::constant()
                .with_step(10.0, 0.0)
                .with_step(40.0, 1.0),
        );
        let rr = Assignment::round_robin(eng.topology(), eng.cluster());
        eng.deploy(rr).unwrap();
        eng.run_until(12.0);
        let (at_silence, ..) = eng.tuple_counts();
        eng.run_until(39.9);
        let (still_silent, ..) = eng.tuple_counts();
        assert_eq!(at_silence, still_silent, "no emission while silenced");
        // During the silent span only the sleep-until-change events remain
        // for the live lane (the zero-base lane is parked outright).
        assert!(
            eng.pending_events() <= 4,
            "silent span should hold only wake events, got {}",
            eng.pending_events()
        );
        eng.run_until(70.0);
        let (resumed, ..) = eng.tuple_counts();
        let rate = (resumed - still_silent) as f64 / 30.0;
        assert!((rate - 100.0).abs() < 25.0, "resume rate {rate}");
    }
}
