//! Shared service telemetry: weight versions, staleness accounting, and
//! the learner/worker overlap counter — all lock-free atomics, readable
//! from any thread while the service runs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dss_proto::Message;

/// Power-of-two version-lag histogram buckets: bucket 0 is lag 0, bucket
/// `b ≥ 1` covers `[2^(b-1), 2^b)`, and the last bucket absorbs the tail.
pub const LAG_BUCKETS: usize = 8;

/// Which histogram bucket a version lag lands in.
pub fn lag_bucket(lag: u64) -> usize {
    if lag == 0 {
        0
    } else {
        ((64 - lag.leading_zeros()) as usize).min(LAG_BUCKETS - 1)
    }
}

/// Counters every service role updates and any thread may read. Counter
/// loads/stores are `Relaxed` (telemetry, not synchronization); the
/// `learner_training` flag uses `SeqCst` so worker pushes observe the
/// train-step window promptly.
#[derive(Default)]
pub struct SharedStats {
    weight_version: AtomicU64,
    train_steps: AtomicU64,
    transitions: AtomicU64,
    batches: AtomicU64,
    dropped_stale: AtomicU64,
    dropped_misshapen: AtomicU64,
    pushes_during_train: AtomicU64,
    lag_sum: AtomicU64,
    lag_hist: [AtomicU64; LAG_BUCKETS],
    learner_training: AtomicBool,
}

impl SharedStats {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an accepted batch: `rows` transitions collected at
    /// `version_lag` behind the published policy.
    pub fn record_accepted(&self, version_lag: u64, rows: u64) {
        self.transitions.fetch_add(rows, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.lag_sum.fetch_add(version_lag, Ordering::Relaxed);
        self.lag_hist[lag_bucket(version_lag)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a batch dropped by the staleness gate.
    pub fn record_stale(&self, rows: u64) {
        self.dropped_stale.fetch_add(rows, Ordering::Relaxed);
    }

    /// Records a batch dropped because its row widths are not the
    /// learner's (a worker collecting for a differently shaped scenario).
    pub fn record_misshapen(&self, rows: u64) {
        self.dropped_misshapen.fetch_add(rows, Ordering::Relaxed);
    }

    /// Called at enqueue time; counts the push when it lands inside a
    /// learner train step — the overlap the async service exists for.
    pub fn note_push(&self) {
        if self.learner_training.load(Ordering::SeqCst) {
            self.pushes_during_train.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Marks the learner as inside (or outside) a train step.
    pub fn set_training(&self, training: bool) {
        self.learner_training.store(training, Ordering::SeqCst);
    }

    /// Records a freshly published weight version.
    pub fn set_weight_version(&self, version: u64) {
        self.weight_version.store(version, Ordering::Relaxed);
    }

    /// Bumps the train-step counter; returns the new total.
    pub fn add_train_step(&self) -> u64 {
        self.train_steps.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Latest published weight version.
    pub fn weight_version(&self) -> u64 {
        self.weight_version.load(Ordering::Relaxed)
    }

    /// Learner train steps completed.
    pub fn train_steps(&self) -> u64 {
        self.train_steps.load(Ordering::Relaxed)
    }

    /// Transitions accepted into the replay path.
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// Transitions dropped by the staleness gate.
    pub fn dropped_stale(&self) -> u64 {
        self.dropped_stale.load(Ordering::Relaxed)
    }

    /// Transitions dropped for having the wrong row widths.
    pub fn dropped_misshapen(&self) -> u64 {
        self.dropped_misshapen.load(Ordering::Relaxed)
    }

    /// Batch pushes that landed during a learner train step.
    pub fn pushes_during_train(&self) -> u64 {
        self.pushes_during_train.load(Ordering::Relaxed)
    }

    /// Mean version lag over accepted batches (0 when none).
    pub fn mean_version_lag(&self) -> f64 {
        let batches = self.batches.load(Ordering::Relaxed);
        if batches == 0 {
            return 0.0;
        }
        self.lag_sum.load(Ordering::Relaxed) as f64 / batches as f64
    }

    /// The per-batch version-lag histogram (see [`lag_bucket`]).
    pub fn lag_histogram(&self) -> [u64; LAG_BUCKETS] {
        std::array::from_fn(|i| self.lag_hist[i].load(Ordering::Relaxed))
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            weight_version: self.weight_version(),
            train_steps: self.train_steps(),
            transitions: self.transitions(),
            dropped_stale: self.dropped_stale(),
            pushes_during_train: self.pushes_during_train(),
            mean_version_lag: self.mean_version_lag(),
            lag_histogram: self.lag_histogram(),
        }
    }
}

/// A frozen [`SharedStats`] reading (what tests assert on and the
/// [`Message::LearnerStats`] frame reports).
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Latest published weight version.
    pub weight_version: u64,
    /// Learner train steps completed.
    pub train_steps: u64,
    /// Transitions accepted into the replay path.
    pub transitions: u64,
    /// Transitions dropped by the staleness gate.
    pub dropped_stale: u64,
    /// Batch pushes that landed during a learner train step.
    pub pushes_during_train: u64,
    /// Mean version lag over accepted batches.
    pub mean_version_lag: f64,
    /// Per-batch version-lag histogram.
    pub lag_histogram: [u64; LAG_BUCKETS],
}

impl StatsSnapshot {
    /// The wire form of this snapshot.
    pub fn to_message(&self) -> Message {
        Message::LearnerStats {
            weight_version: self.weight_version,
            train_steps: self.train_steps,
            transitions: self.transitions,
            dropped_stale: self.dropped_stale,
            pushes_during_train: self.pushes_during_train,
            mean_version_lag: self.mean_version_lag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_buckets_are_power_of_two_ranges() {
        assert_eq!(lag_bucket(0), 0);
        assert_eq!(lag_bucket(1), 1);
        assert_eq!(lag_bucket(2), 2);
        assert_eq!(lag_bucket(3), 2);
        assert_eq!(lag_bucket(4), 3);
        assert_eq!(lag_bucket(7), 3);
        assert_eq!(lag_bucket(8), 4);
        assert_eq!(lag_bucket(u64::MAX), LAG_BUCKETS - 1);
    }

    #[test]
    fn accepted_batches_shape_the_histogram_and_mean() {
        let stats = SharedStats::new();
        stats.record_accepted(0, 32);
        stats.record_accepted(3, 32);
        stats.record_stale(16);
        assert_eq!(stats.transitions(), 64);
        assert_eq!(stats.dropped_stale(), 16);
        assert_eq!(stats.mean_version_lag(), 1.5);
        let hist = stats.lag_histogram();
        assert_eq!(hist[0], 1);
        assert_eq!(hist[2], 1);
        assert_eq!(hist.iter().sum::<u64>(), 2);
    }

    #[test]
    fn pushes_count_only_inside_train_steps() {
        let stats = SharedStats::new();
        stats.note_push();
        assert_eq!(stats.pushes_during_train(), 0);
        stats.set_training(true);
        stats.note_push();
        stats.set_training(false);
        stats.note_push();
        assert_eq!(stats.pushes_during_train(), 1);
    }

    #[test]
    fn snapshot_round_trips_into_the_wire_frame() {
        let stats = SharedStats::new();
        stats.set_weight_version(4);
        stats.record_accepted(1, 8);
        let snap = stats.snapshot();
        match snap.to_message() {
            Message::LearnerStats {
                weight_version,
                transitions,
                mean_version_lag,
                ..
            } => {
                assert_eq!(weight_version, 4);
                assert_eq!(transitions, 8);
                assert_eq!(mean_version_lag, 1.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
