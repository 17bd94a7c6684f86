//! Bit-exact engine state snapshots — the master-recovery primitive.
//!
//! A Storm master keeps its authoritative state in ZooKeeper so a crashed
//! nimbus can be replaced without losing the topology. The simulated
//! control plane needs the same property for the *engine*: a standby
//! master that takes over mid-run must continue the discrete-event
//! trajectory exactly where the dead leader left it — same pending event
//! queue, same RNG streams, same latency-window accumulators — or the
//! repo-wide bit-reproducibility invariant breaks the moment a failover
//! happens.
//!
//! [`SimEngine::save_state`] serializes every mutable field of the engine
//! into a little-endian, versioned byte image (floats travel as raw
//! `to_bits` words, never through text). [`SimEngine::restore_state`]
//! rebuilds that state onto a freshly constructed engine with the *same*
//! topology, cluster and config; immutable, derivable structures (the
//! topology, the per-edge Zipf tables) are not serialized. The restored
//! engine's future trajectory is bit-identical to the original's — the
//! round-trip tests below run both side by side and compare every epoch.

use crate::assignment::Assignment;
use crate::engine::SimEngine;
use crate::error::SimError;
use crate::event::{Event, EventKind, EventQueue};
use crate::latency::LatencyTracker;
use crate::tuple::TupleTracker;
use crate::workload::{RateSchedule, Workload};
use rand::rngs::StdRng;

/// Image magic: "DSS" + snapshot.
const MAGIC: &[u8; 4] = b"DSSS";
/// Image format version.
const VERSION: u32 = 1;

// ----- little-endian writer ------------------------------------------

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
}

// ----- checked reader ------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SimError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| SimError::InvalidSnapshot("truncated image".into()))?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SimError> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool, SimError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SimError::InvalidSnapshot(format!("bad bool byte {b}"))),
        }
    }
    fn u32(&mut self) -> Result<u32, SimError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SimError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, SimError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn usize(&mut self) -> Result<usize, SimError> {
        usize::try_from(self.u64()?)
            .map_err(|_| SimError::InvalidSnapshot("length overflows usize".into()))
    }
    /// A collection length; bounded so a corrupt image cannot force an
    /// absurd allocation before the data runs out.
    fn len(&mut self) -> Result<usize, SimError> {
        let n = self.usize()?;
        if n > self.buf.len().saturating_sub(self.at) {
            return Err(SimError::InvalidSnapshot(format!(
                "length {n} exceeds remaining image"
            )));
        }
        Ok(n)
    }
    fn done(&self) -> Result<(), SimError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(SimError::InvalidSnapshot("trailing bytes".into()))
        }
    }
}

// ----- field codecs --------------------------------------------------

fn put_rng(w: &mut Writer, rng: &StdRng) {
    for word in rng.state() {
        w.u64(word);
    }
}

fn get_rng(r: &mut Reader<'_>) -> Result<StdRng, SimError> {
    Ok(StdRng::from_state([r.u64()?, r.u64()?, r.u64()?, r.u64()?]))
}

fn put_schedule(w: &mut Writer, s: &RateSchedule) {
    match s {
        RateSchedule::Steps { steps } => {
            w.u8(0);
            w.usize(steps.len());
            for &(t, m) in steps {
                w.f64(t);
                w.f64(m);
            }
        }
        RateSchedule::Sinusoid {
            mean,
            amplitude,
            period_s,
        } => {
            w.u8(1);
            w.f64(*mean);
            w.f64(*amplitude);
            w.f64(*period_s);
        }
        RateSchedule::Bursty {
            base,
            burst,
            period_s,
            burst_len_s,
        } => {
            w.u8(2);
            w.f64(*base);
            w.f64(*burst);
            w.f64(*period_s);
            w.f64(*burst_len_s);
        }
    }
}

fn get_schedule(r: &mut Reader<'_>) -> Result<RateSchedule, SimError> {
    match r.u8()? {
        0 => {
            let n = r.len()?;
            let mut steps = Vec::with_capacity(n);
            for _ in 0..n {
                steps.push((r.f64()?, r.f64()?));
            }
            Ok(RateSchedule::Steps { steps })
        }
        1 => Ok(RateSchedule::Sinusoid {
            mean: r.f64()?,
            amplitude: r.f64()?,
            period_s: r.f64()?,
        }),
        2 => Ok(RateSchedule::Bursty {
            base: r.f64()?,
            burst: r.f64()?,
            period_s: r.f64()?,
            burst_len_s: r.f64()?,
        }),
        t => Err(SimError::InvalidSnapshot(format!("bad schedule tag {t}"))),
    }
}

fn put_event(w: &mut Writer, ev: &Event) {
    w.f64(ev.time);
    w.u64(ev.seq);
    match ev.kind {
        EventKind::SpoutEmit { executor } => {
            w.u8(0);
            w.usize(executor);
        }
        EventKind::TupleArrival {
            executor,
            root,
            remote,
        } => {
            w.u8(1);
            w.usize(executor);
            w.u64(root);
            w.bool(remote);
        }
        EventKind::ServiceComplete { executor, root } => {
            w.u8(2);
            w.usize(executor);
            w.u64(root);
        }
        EventKind::MigrationDone { executor } => {
            w.u8(3);
            w.usize(executor);
        }
    }
}

/// Decodes one pending event. Its time must be finite, not before the
/// clock, and not `-0.0` (the queue stores zero as `+0.0`; its key order
/// relies on it); its seq must be below the queue's `next_seq`.
fn get_event(
    r: &mut Reader<'_>,
    n_executors: usize,
    clock: f64,
    next_seq: u64,
) -> Result<Event, SimError> {
    let time = r.f64()?;
    let seq = r.u64()?;
    if !time.is_finite() || time.is_sign_negative() {
        return Err(SimError::InvalidSnapshot(format!("bad event time {time}")));
    }
    if time < clock {
        return Err(SimError::InvalidSnapshot(format!(
            "event time {time} is before the clock {clock}"
        )));
    }
    if seq >= next_seq {
        return Err(SimError::InvalidSnapshot(format!(
            "event seq {seq} is not below next_seq {next_seq}"
        )));
    }
    let kind = match r.u8()? {
        0 => EventKind::SpoutEmit {
            executor: r.usize()?,
        },
        1 => EventKind::TupleArrival {
            executor: r.usize()?,
            root: r.u64()?,
            remote: r.bool()?,
        },
        2 => EventKind::ServiceComplete {
            executor: r.usize()?,
            root: r.u64()?,
        },
        3 => EventKind::MigrationDone {
            executor: r.usize()?,
        },
        t => return Err(SimError::InvalidSnapshot(format!("bad event tag {t}"))),
    };
    let executor = match kind {
        EventKind::SpoutEmit { executor }
        | EventKind::TupleArrival { executor, .. }
        | EventKind::ServiceComplete { executor, .. }
        | EventKind::MigrationDone { executor } => executor,
    };
    if executor >= n_executors {
        return Err(SimError::InvalidSnapshot(format!(
            "event executor {executor} out of range"
        )));
    }
    Ok(Event { time, seq, kind })
}

impl SimEngine {
    /// Serializes every mutable field of the engine into a versioned byte
    /// image. Floats are captured as raw bits, so a restore is bit-exact.
    /// The topology, cluster and config are *not* serialized — a restore
    /// target must be constructed with the same ones (the image records
    /// the executor/machine counts and refuses a mismatched target).
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.buf.extend_from_slice(MAGIC);
        w.u32(VERSION);
        w.usize(self.topology.n_executors());
        w.usize(self.cluster.n_machines());
        w.bool(self.started);
        w.f64(self.clock);
        w.u64(self.events_processed);

        let rates = self.workload.rates();
        w.usize(rates.len());
        for &(c, r) in rates {
            w.usize(c);
            w.f64(r);
        }
        put_schedule(&mut w, &self.schedule);

        let assign = self.assignment.as_slice();
        w.usize(assign.len());
        for &m in assign {
            w.usize(m);
        }

        put_rng(&mut w, &self.arrival_rng);
        put_rng(&mut w, &self.service_rng);
        put_rng(&mut w, &self.routing_rng);

        let (events, next_seq) = self.events.snapshot();
        w.u64(next_seq);
        w.usize(events.len());
        for ev in &events {
            put_event(&mut w, ev);
        }

        for ex in &self.executors {
            w.usize(ex.queue.len());
            for &(root, remote) in &ex.queue {
                w.u64(root);
                w.bool(remote);
            }
            match ex.in_service {
                None => w.u8(0),
                Some((root, machine)) => {
                    w.u8(1);
                    w.u64(root);
                    w.usize(machine);
                }
            }
            w.f64(ex.started_at);
            w.f64(ex.paused_until);
            w.u64(ex.processed);
            w.u64(ex.arrived);
            w.bool(ex.parked);
        }

        for m in &self.machines {
            w.usize(m.busy_executors);
            w.f64(m.cross_kib_rate);
            w.f64(m.last_traffic_at);
            w.bool(m.failed);
        }

        let (pending, next_root, completed, failed) = self.tracker.snapshot();
        w.u64(next_root);
        w.u64(completed);
        w.u64(failed);
        w.usize(pending.len());
        for (root, emitted_at, outstanding) in pending {
            w.u64(root);
            w.f64(emitted_at);
            w.u64(outstanding);
        }

        let (samples, window_sum, total_count, total_sum) = self.latency.snapshot();
        w.f64(window_sum);
        w.u64(total_count);
        w.f64(total_sum);
        w.usize(samples.len());
        for (t, v) in samples {
            w.f64(t);
            w.f64(v);
        }

        w.buf
    }

    /// Restores a state image captured by [`SimEngine::save_state`] onto
    /// this engine, which must have been constructed with the same
    /// topology, cluster and config. After a successful restore the
    /// engine's future trajectory is bit-identical to what the snapshotted
    /// engine would have produced. The event-queue backend (heap vs
    /// dense) is kept as configured on `self` — both pop in the same
    /// order, so the choice does not affect the trajectory.
    ///
    /// On error the engine is left untouched.
    pub fn restore_state(&mut self, image: &[u8]) -> Result<(), SimError> {
        let mut r = Reader::new(image);
        if r.take(4)? != MAGIC {
            return Err(SimError::InvalidSnapshot("bad magic".into()));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(SimError::InvalidSnapshot(format!(
                "unsupported version {version}"
            )));
        }
        let n_executors = r.usize()?;
        let n_machines = r.usize()?;
        if n_executors != self.topology.n_executors() || n_machines != self.cluster.n_machines() {
            return Err(SimError::InvalidSnapshot(format!(
                "image is for {n_executors} executors / {n_machines} machines, engine has {} / {}",
                self.topology.n_executors(),
                self.cluster.n_machines()
            )));
        }
        let started = r.bool()?;
        let clock = r.f64()?;
        // `-0.0` passes: `run_until(-0.0)` on a fresh engine leaves it there.
        if !(clock.is_finite() && clock >= 0.0) {
            return Err(SimError::InvalidSnapshot(format!("bad clock {clock}")));
        }
        let events_processed = r.u64()?;

        let n_rates = r.len()?;
        let mut rates = Vec::with_capacity(n_rates);
        for _ in 0..n_rates {
            rates.push((r.usize()?, r.f64()?));
        }
        let workload = Workload::new(rates, &self.topology)?;
        let schedule = get_schedule(&mut r)?;

        let n_assign = r.len()?;
        let mut machine_of = Vec::with_capacity(n_assign);
        for _ in 0..n_assign {
            machine_of.push(r.usize()?);
        }
        let assignment = Assignment::new(machine_of, n_machines)?;
        assignment.validate_for(&self.topology, &self.cluster)?;

        let arrival_rng = get_rng(&mut r)?;
        let service_rng = get_rng(&mut r)?;
        let routing_rng = get_rng(&mut r)?;

        let next_seq = r.u64()?;
        let n_events = r.len()?;
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            events.push(get_event(&mut r, n_executors, clock, next_seq)?);
        }
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        if let Some(w) = seqs.windows(2).find(|w| w[0] == w[1]) {
            return Err(SimError::InvalidSnapshot(format!(
                "event seq {} repeats",
                w[0]
            )));
        }

        let mut executors = Vec::with_capacity(n_executors);
        for _ in 0..n_executors {
            let n_queue = r.len()?;
            let mut queue = std::collections::VecDeque::with_capacity(n_queue);
            for _ in 0..n_queue {
                queue.push_back((r.u64()?, r.bool()?));
            }
            let in_service = match r.u8()? {
                0 => None,
                1 => {
                    let root = r.u64()?;
                    let machine = r.usize()?;
                    if machine >= n_machines {
                        return Err(SimError::InvalidSnapshot(
                            "in-service machine out of range".into(),
                        ));
                    }
                    Some((root, machine))
                }
                b => return Err(SimError::InvalidSnapshot(format!("bad in-service tag {b}"))),
            };
            executors.push(crate::engine::ExecutorState {
                queue,
                in_service,
                started_at: r.f64()?,
                paused_until: r.f64()?,
                processed: r.u64()?,
                arrived: r.u64()?,
                parked: r.bool()?,
            });
        }

        let mut machines = Vec::with_capacity(n_machines);
        for _ in 0..n_machines {
            machines.push(crate::engine::MachineState {
                busy_executors: r.usize()?,
                cross_kib_rate: r.f64()?,
                last_traffic_at: r.f64()?,
                failed: r.bool()?,
            });
        }

        let next_root = r.u64()?;
        let completed = r.u64()?;
        let failed = r.u64()?;
        let n_pending = r.len()?;
        let mut pending: Vec<(u64, f64, u64)> = Vec::with_capacity(n_pending);
        for _ in 0..n_pending {
            let root = r.u64()?;
            // Roots are the engine's own sequential ids, saved in ascending
            // order: one out of order, repeated or not yet issued is corrupt
            // (a repeat would merge two trees in the acker's map).
            if root >= next_root || pending.last().is_some_and(|&(prev, ..)| root <= prev) {
                return Err(SimError::InvalidSnapshot(format!(
                    "pending root {root} out of order or not below next_root {next_root}"
                )));
            }
            pending.push((root, r.f64()?, r.u64()?));
        }

        let window_sum = r.f64()?;
        let total_count = r.u64()?;
        let total_sum = r.f64()?;
        let n_samples = r.len()?;
        let mut samples = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            samples.push((r.f64()?, r.f64()?));
        }
        r.done()?;

        // All parsed and validated: commit.
        self.started = started;
        self.clock = clock;
        self.events_processed = events_processed;
        self.workload = workload;
        self.schedule = schedule;
        self.assignment = assignment;
        self.arrival_rng = arrival_rng;
        self.service_rng = service_rng;
        self.routing_rng = routing_rng;
        self.events = EventQueue::restore(self.events.is_dense(), events, next_seq);
        self.executors = executors;
        self.machines = machines;
        self.tracker = TupleTracker::restore(pending, next_root, completed, failed);
        self.latency = LatencyTracker::restore(
            self.config.latency_window_s,
            samples,
            window_sum,
            total_count,
            total_sum,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::{get_event, get_rng, get_schedule, Reader};
    use crate::cluster::ClusterSpec;
    use crate::config::SimConfig;
    use crate::engine::SimEngine;
    use crate::error::SimError;
    use crate::topology::{Grouping, Topology, TopologyBuilder};
    use crate::workload::{RateSchedule, Workload};
    use crate::Assignment;

    fn topo() -> Topology {
        let mut b = TopologyBuilder::new("snap");
        let s = b.spout("spout", 2, 0.05);
        let x = b.bolt("worker", 4, 0.3);
        let y = b.bolt("sink", 2, 0.1);
        b.edge(s, x, Grouping::Shuffle, 1.0, 256);
        b.edge(
            x,
            y,
            Grouping::Fields {
                n_keys: 64,
                skew: 1.1,
            },
            0.5,
            128,
        );
        b.build().unwrap()
    }

    fn engine(seed: u64) -> SimEngine {
        let t = topo();
        let cluster = ClusterSpec::homogeneous(4);
        let workload = Workload::uniform(&t, 200.0);
        let config = SimConfig {
            seed,
            ..SimConfig::default()
        };
        SimEngine::new(t, cluster, workload, config).unwrap()
    }

    /// Step both engines in lockstep and assert every observable matches.
    fn assert_lockstep(a: &mut SimEngine, b: &mut SimEngine, epochs: usize) {
        for i in 0..epochs {
            let la = a.step_epoch(2.0);
            let lb = b.step_epoch(2.0);
            assert_eq!(la, lb, "latency diverged at epoch {i}");
            assert_eq!(a.tuple_counts(), b.tuple_counts(), "counts at epoch {i}");
            assert_eq!(a.events_processed(), b.events_processed());
            assert_eq!(a.now(), b.now());
        }
    }

    #[test]
    fn round_trip_mid_run_is_bit_identical() {
        let mut original = engine(41);
        let rr = Assignment::round_robin(original.topology(), original.cluster());
        original.deploy(rr).unwrap();
        original.set_rate_schedule(RateSchedule::step_at(8.0, 1.5));
        original.run_until(5.0);

        let image = original.save_state();
        let mut restored = engine(41);
        restored.restore_state(&image).unwrap();

        assert_lockstep(&mut original, &mut restored, 10);
    }

    #[test]
    fn restore_survives_redeploy_and_faults_in_flight() {
        let mut original = engine(42);
        let rr = Assignment::round_robin(original.topology(), original.cluster());
        original.deploy(rr.clone()).unwrap();
        original.run_until(4.0);
        // A migration pause and a dead machine are both live state.
        original
            .deploy(rr.with_move(0, (rr.machine_of(0) + 1) % 4))
            .unwrap();
        original.fail_machine(2);
        original.run_until(6.0);

        let image = original.save_state();
        let mut restored = engine(42);
        restored.restore_state(&image).unwrap();
        assert!(restored.machine_failed(2));

        original.recover_machine(2);
        restored.recover_machine(2);
        assert_lockstep(&mut original, &mut restored, 8);
    }

    #[test]
    fn restore_crosses_event_backends() {
        // A heap-engine snapshot restored into a dense-backend engine
        // continues the identical trajectory (shared (time, seq) order).
        let mut original = engine(43);
        let rr = Assignment::round_robin(original.topology(), original.cluster());
        original.deploy(rr).unwrap();
        original.run_until(5.0);
        let image = original.save_state();

        let mut dense = engine(43);
        dense.set_dense_events(true);
        dense.restore_state(&image).unwrap();
        assert!(dense.dense_events());
        assert_lockstep(&mut original, &mut dense, 6);
    }

    #[test]
    fn save_does_not_perturb_the_engine() {
        let run = |snapshot_each_epoch: bool| {
            let mut eng = engine(44);
            let rr = Assignment::round_robin(eng.topology(), eng.cluster());
            eng.deploy(rr).unwrap();
            let mut traj = Vec::new();
            for _ in 0..8 {
                if snapshot_each_epoch {
                    let _ = eng.save_state();
                }
                traj.push(eng.step_epoch(2.0));
            }
            (traj, eng.tuple_counts())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn mismatched_target_is_refused() {
        let mut original = engine(45);
        let rr = Assignment::round_robin(original.topology(), original.cluster());
        original.deploy(rr).unwrap();
        original.run_until(2.0);
        let image = original.save_state();

        let t = topo();
        let mut other = SimEngine::new(
            t.clone(),
            ClusterSpec::homogeneous(7),
            Workload::uniform(&t, 100.0),
            SimConfig::default(),
        )
        .unwrap();
        let err = other.restore_state(&image).unwrap_err();
        assert!(matches!(err, SimError::InvalidSnapshot(_)), "{err}");
        // The failed restore left the target untouched and usable.
        let rr = Assignment::round_robin(other.topology(), other.cluster());
        other.deploy(rr).unwrap();
        assert!(other.step_epoch(5.0).is_some());
    }

    #[test]
    fn corrupt_images_error_instead_of_panicking() {
        let mut eng = engine(46);
        let rr = Assignment::round_robin(eng.topology(), eng.cluster());
        eng.deploy(rr).unwrap();
        eng.run_until(3.0);
        let image = eng.save_state();

        // Truncations at every prefix length.
        for cut in 0..image.len().min(64) {
            let mut target = engine(46);
            assert!(target.restore_state(&image[..cut]).is_err());
        }
        let mut target = engine(46);
        assert!(target.restore_state(&image[..image.len() - 1]).is_err());
        // Flipped magic.
        let mut bad = image.clone();
        bad[0] ^= 0xFF;
        assert!(target.restore_state(&bad).is_err());
        // Trailing garbage.
        let mut long = image.clone();
        long.push(0);
        assert!(target.restore_state(&long).is_err());
        // The pristine image still restores.
        assert!(target.restore_state(&image).is_ok());
    }

    /// Byte offset of the clock in an image.
    const CLOCK_AT: usize = 4 + 4 + 8 + 8 + 1;

    /// Byte offsets of the fields the rejection tests corrupt, found by
    /// decoding the image up to them.
    struct Layout {
        next_seq: usize,
        /// Each pending event (its time; its seq follows).
        events: Vec<usize>,
        next_root: usize,
        /// Each pending tree (its root).
        pending: Vec<usize>,
    }

    fn layout(image: &[u8]) -> Layout {
        let mut r = Reader::new(image);
        r.take(8).unwrap();
        let (n_executors, n_machines) = (r.usize().unwrap(), r.usize().unwrap());
        r.take(1 + 8 + 8).unwrap();
        for _ in 0..r.len().unwrap() {
            r.usize().unwrap();
            r.f64().unwrap();
        }
        get_schedule(&mut r).unwrap();
        for _ in 0..r.len().unwrap() {
            r.usize().unwrap();
        }
        for _ in 0..3 {
            get_rng(&mut r).unwrap();
        }
        let next_seq = r.at;
        r.u64().unwrap();
        let events = (0..r.len().unwrap())
            .map(|_| {
                let at = r.at;
                get_event(&mut r, usize::MAX, 0.0, u64::MAX).unwrap();
                at
            })
            .collect();
        for _ in 0..n_executors {
            let queued = r.len().unwrap();
            r.take(queued * 9).unwrap();
            if r.u8().unwrap() == 1 {
                r.take(16).unwrap();
            }
            r.take(8 * 4 + 1).unwrap();
        }
        r.take(n_machines * (8 * 3 + 1)).unwrap();
        let next_root = r.at;
        r.take(8 * 3).unwrap();
        let pending = (0..r.len().unwrap())
            .map(|_| {
                let at = r.at;
                r.take(8 * 3).unwrap();
                at
            })
            .collect();
        Layout {
            next_seq,
            events,
            next_root,
            pending,
        }
    }

    fn put_u64(image: &mut [u8], at: usize, v: u64) {
        image[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    fn get_u64(image: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(image[at..at + 8].try_into().unwrap())
    }

    /// Restoring `image` fails with an `InvalidSnapshot` naming `what`, and
    /// leaves the target engine untouched and runnable.
    fn assert_refused(image: &[u8], seed: u64, what: &str) {
        let mut target = engine(seed);
        match target.restore_state(image) {
            Err(SimError::InvalidSnapshot(msg)) => {
                assert!(msg.contains(what), "expected `{what}`, got `{msg}`")
            }
            other => panic!("expected InvalidSnapshot({what}), got {other:?}"),
        }
        assert_eq!(target.now(), 0.0);
        let rr = Assignment::round_robin(target.topology(), target.cluster());
        target.deploy(rr).unwrap();
        assert!(target.step_epoch(2.0).is_some());
    }

    fn warm_image(seed: u64, until: f64) -> Vec<u8> {
        let mut eng = engine(seed);
        let rr = Assignment::round_robin(eng.topology(), eng.cluster());
        eng.deploy(rr).unwrap();
        eng.run_until(until);
        eng.save_state()
    }

    #[test]
    fn non_finite_or_negative_clock_is_refused() {
        // A NaN clock used to restore `Ok`, and the next `step_epoch`
        // panicked with "cannot run backwards".
        let image = warm_image(47, 3.0);
        for clock in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let mut bad = image.clone();
            put_u64(&mut bad, CLOCK_AT, clock.to_bits());
            assert_refused(&bad, 47, "bad clock");
        }
    }

    #[test]
    fn events_before_the_clock_are_refused() {
        let mut image = warm_image(48, 3.0);
        let events = layout(&image).events;
        put_u64(&mut image, events[0], 2.5f64.to_bits());
        assert_refused(&image, 48, "before the clock");
    }

    #[test]
    fn event_seqs_at_or_past_next_seq_are_refused() {
        let mut image = warm_image(49, 3.0);
        let at = layout(&image);
        let next_seq = get_u64(&image, at.next_seq);
        put_u64(&mut image, at.events[0] + 8, next_seq);
        assert_refused(&image, 49, "not below next_seq");
    }

    #[test]
    fn repeated_event_seqs_are_refused() {
        let mut image = warm_image(50, 3.0);
        let events = layout(&image).events;
        assert!(events.len() >= 2);
        let seq = get_u64(&image, events[0] + 8);
        put_u64(&mut image, events[events.len() - 1] + 8, seq);
        assert_refused(&image, 50, "repeats");
    }

    #[test]
    fn negative_zero_event_times_are_refused() {
        // At clock 0 a `-0.0` event is not before the clock; it is refused
        // because the queue's key order assumes `+0.0`.
        let mut image = warm_image(51, 0.0);
        let events = layout(&image).events;
        assert!(!events.is_empty());
        put_u64(&mut image, events[0], (-0.0f64).to_bits());
        assert_refused(&image, 51, "bad event time");
    }

    #[test]
    fn pending_roots_out_of_order_or_unissued_are_refused() {
        // A dead machine holds its queued trees in flight.
        let mut eng = engine(52);
        let rr = Assignment::round_robin(eng.topology(), eng.cluster());
        eng.deploy(rr).unwrap();
        eng.run_until(2.0);
        eng.fail_machine(1);
        eng.run_until(3.0);
        let image = eng.save_state();
        let at = layout(&image);
        assert!(at.pending.len() >= 2, "the warm image has trees in flight");
        let next_root = get_u64(&image, at.next_root);
        let first = get_u64(&image, at.pending[0]);
        let second = get_u64(&image, at.pending[1]);
        // Not yet issued, repeated, out of order.
        let last = at.pending.len() - 1;
        for (slot, root) in [(last, next_root), (1, first), (0, second + 1)] {
            let mut bad = image.clone();
            put_u64(&mut bad, at.pending[slot], root);
            assert_refused(&bad, 52, "pending root");
        }
    }
}
