//! The two decorators all timing is taken through.
//!
//! Nothing inside the repository's crates is instrumented: the harness
//! sees the program only at its two public seams. [`TimedEnv`] wraps any
//! [`Environment`] and timestamps entry and exit of every
//! deploy-and-measure (two clock reads per decision epoch, everything
//! else forwarded untouched); it is handed to the production entry
//! points through their `make_env` factories. [`TimedScheduler`] wraps
//! any [`Scheduler`] and is used by the traced pass only.
//!
//! Neither decorator feeds anything back into the program — no RNG draw,
//! no branch on a clock — so a decorated run is bit-identical to an
//! undecorated one (asserted by `tests/transparent.rs`).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dss_core::controller::OfflineDataset;
use dss_core::env::Environment;
use dss_core::scheduler::Scheduler;
use dss_core::state::SchedState;
use dss_sim::{Assignment, RuntimeStats, Workload};

/// Which seam call a [`Span`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// `Environment::deploy_and_measure_stats` (offline collection).
    EnvStats,
    /// `Environment::deploy_and_measure` (online, control, validation).
    EnvStep,
    /// `Scheduler::schedule`.
    Schedule,
    /// `Scheduler::observe`.
    Observe,
    /// `Scheduler::pretrain`.
    Pretrain,
}

impl SpanKind {
    /// Span name as it appears in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::EnvStats => "core.env_step(stats)",
            SpanKind::EnvStep => "core.env_step",
            SpanKind::Schedule => "rl.schedule",
            SpanKind::Observe => "rl.observe",
            SpanKind::Pretrain => "rl.pretrain",
        }
    }
}

/// One timed seam call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which call.
    pub kind: SpanKind,
    /// Clock at entry.
    pub start: Instant,
    /// Clock at exit.
    pub end: Instant,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// Everything one [`TimedEnv`] saw, delivered to the [`EnvSink`] when the
/// environment is dropped (the production drivers build and drop their
/// environments internally, so the log has to outlive them).
#[derive(Debug, Default)]
pub struct EnvLog {
    /// Order in which the factory built this environment (0-based).
    pub instance: usize,
    /// One span per deploy-and-measure, in call order.
    pub calls: Vec<Span>,
    /// Calls whose returned latency was not a finite positive number.
    pub bad_latencies: u64,
    /// Backend counters harvested just before the drop (see
    /// [`TimedEnv::with_epilogue`]).
    pub counters: Vec<(&'static str, f64)>,
}

/// Where dropped [`TimedEnv`]s leave their logs.
pub type EnvSink = Arc<Mutex<Vec<EnvLog>>>;

/// A fresh, empty sink.
pub fn env_sink() -> EnvSink {
    Arc::new(Mutex::new(Vec::new()))
}

/// Takes every log delivered so far, in factory order.
pub fn drain_sink(sink: &EnvSink) -> Vec<EnvLog> {
    let mut logs = std::mem::take(&mut *sink.lock().expect("env sink poisoned"));
    logs.sort_by_key(|l| l.instance);
    logs
}

type Epilogue<E> = Box<dyn Fn(&E) -> Vec<(&'static str, f64)> + Send>;

/// An [`Environment`] that records when each deploy-and-measure entered
/// and returned.
pub struct TimedEnv<E: Environment> {
    inner: E,
    log: EnvLog,
    sink: EnvSink,
    epilogue: Option<Epilogue<E>>,
}

impl<E: Environment> TimedEnv<E> {
    /// Wraps `inner`; the log goes to `sink` on drop. `instance` is the
    /// factory call index.
    pub fn new(inner: E, instance: usize, sink: &EnvSink) -> Self {
        Self {
            inner,
            log: EnvLog {
                instance,
                ..EnvLog::default()
            },
            sink: Arc::clone(sink),
            epilogue: None,
        }
    }

    /// Reads backend-specific counters (degraded epochs, chaos drops, …)
    /// off the wrapped environment right before it is dropped.
    pub fn with_epilogue(
        mut self,
        f: impl Fn(&E) -> Vec<(&'static str, f64)> + Send + 'static,
    ) -> Self {
        self.epilogue = Some(Box::new(f));
        self
    }

    fn record(&mut self, kind: SpanKind, start: Instant, latency_ms: f64) {
        let end = Instant::now();
        self.log.calls.push(Span { kind, start, end });
        if !(latency_ms.is_finite() && latency_ms > 0.0) {
            self.log.bad_latencies += 1;
        }
    }
}

impl<E: Environment> Environment for TimedEnv<E> {
    fn n_executors(&self) -> usize {
        self.inner.n_executors()
    }

    fn n_machines(&self) -> usize {
        self.inner.n_machines()
    }

    fn deploy_and_measure(&mut self, assignment: &Assignment, workload: &Workload) -> f64 {
        let start = Instant::now();
        let ms = self.inner.deploy_and_measure(assignment, workload);
        self.record(SpanKind::EnvStep, start, ms);
        ms
    }

    fn deploy_and_measure_stats(
        &mut self,
        assignment: &Assignment,
        workload: &Workload,
    ) -> (f64, RuntimeStats) {
        let start = Instant::now();
        let (ms, stats) = self.inner.deploy_and_measure_stats(assignment, workload);
        self.record(SpanKind::EnvStats, start, ms);
        (ms, stats)
    }

    fn workload_multiplier(&self) -> f64 {
        self.inner.workload_multiplier()
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, image: &[u8]) -> Result<(), String> {
        self.inner.restore_state(image)
    }
}

impl<E: Environment> Drop for TimedEnv<E> {
    fn drop(&mut self) {
        if let Some(f) = &self.epilogue {
            self.log.counters = f(&self.inner);
        }
        // A poisoned sink means another thread already panicked; losing
        // this log then changes nothing, and `Drop` must not panic.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(std::mem::take(&mut self.log));
        }
    }
}

/// A [`Scheduler`] that records when `schedule`, `observe` and `pretrain`
/// entered and returned (traced pass only).
pub struct TimedScheduler<S: Scheduler> {
    inner: S,
    spans: Vec<Span>,
}

impl<S: Scheduler> TimedScheduler<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            spans: Vec::new(),
        }
    }

    /// The wrapped scheduler (e.g. to `freeze` it — not a trait method).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the scheduler, dropping the recorder.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Takes the recorded spans, leaving the recorder empty.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&mut self, state: &SchedState) -> Assignment {
        let start = Instant::now();
        let action = self.inner.schedule(state);
        self.spans.push(Span {
            kind: SpanKind::Schedule,
            start,
            end: Instant::now(),
        });
        action
    }

    fn observe(
        &mut self,
        state: &SchedState,
        action: &Assignment,
        reward: f64,
        next_state: &SchedState,
    ) {
        let start = Instant::now();
        self.inner.observe(state, action, reward, next_state);
        self.spans.push(Span {
            kind: SpanKind::Observe,
            start,
            end: Instant::now(),
        });
    }

    fn pretrain(&mut self, dataset: &OfflineDataset) {
        let start = Instant::now();
        self.inner.pretrain(dataset);
        self.spans.push(Span {
            kind: SpanKind::Pretrain,
            start,
            end: Instant::now(),
        });
    }
}
