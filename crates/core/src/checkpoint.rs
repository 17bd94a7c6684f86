//! Durable training checkpoints — the crash-safe half of the control loop.
//!
//! A [`TrainCheckpoint`] captures everything a DRL training run needs to
//! continue after the training process dies between decision epochs: the
//! scheduler's full state (agent networks, optimizer moments, replay ring
//! in slot order, exploration RNG — see the scheduler `save_state`
//! methods), the per-epoch reward series, the online action history, and
//! — when the backend supports direct capture ([`SimEnv`]) — a bit-exact
//! environment image. Backends whose state cannot be captured directly
//! (the analytic evaluator, the out-of-process control plane) recover by
//! *deterministic replay*: the resume path rebuilds a same-seed
//! environment, re-runs the offline collection (identical RNG streams),
//! and replays the recorded action history, which reproduces the exact
//! environment trajectory because every backend is deterministic given
//! its seeds.
//!
//! Checkpoints are written through [`dss_store::blob::write_atomic`]
//! (write-temp + fsync + rename, CRC-validated on read), so a crash
//! *during* a checkpoint write leaves the previous checkpoint intact and
//! a torn file is detected — never silently resumed from.
//!
//! [`SimEnv`]: crate::env::SimEnv

use std::path::Path;

use dss_metrics::TimeSeries;
use dss_sim::Assignment;
use dss_store::StoreError;

use crate::config::ControlConfig;
use crate::experiment::Method;

/// Checkpoint decode/IO failures (typed; foreign bytes never panic).
#[derive(Debug)]
pub enum CheckpointError {
    /// Blob-layer failure (IO, CRC mismatch, torn file).
    Store(StoreError),
    /// Input did not start with the checkpoint magic.
    BadMagic,
    /// Unknown checkpoint format version.
    BadVersion(u16),
    /// Truncated input.
    Truncated,
    /// A length or index field described an impossible structure.
    BadStructure(&'static str),
    /// The checkpoint belongs to a different run (method, seed, epoch
    /// budget or problem shape).
    Mismatch {
        /// What the resuming run expected.
        expected: String,
        /// What the checkpoint recorded.
        found: String,
    },
    /// Embedded scheduler/agent state failed to decode.
    Scheduler(String),
    /// Environment image restore failed.
    Env(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Store(e) => write!(f, "checkpoint store: {e}"),
            CheckpointError::BadMagic => write!(f, "bad checkpoint magic"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "truncated checkpoint"),
            CheckpointError::BadStructure(what) => {
                write!(f, "invalid checkpoint structure: {what}")
            }
            CheckpointError::Mismatch { expected, found } => {
                write!(
                    f,
                    "checkpoint belongs to a different run: expected {expected}, found {found}"
                )
            }
            CheckpointError::Scheduler(e) => write!(f, "scheduler state: {e}"),
            CheckpointError::Env(e) => write!(f, "environment restore: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<StoreError> for CheckpointError {
    fn from(e: StoreError) -> Self {
        CheckpointError::Store(e)
    }
}

const MAGIC: &[u8; 4] = b"DSST";
const VERSION: u16 = 1;

/// Little-endian append-only encoder shared by the checkpoint container
/// and the scheduler `save_state` layouts.
#[derive(Default)]
pub(crate) struct Enc {
    pub buf: Vec<u8>,
}

impl Enc {
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    pub fn f64s(&mut self, xs: &[f64]) {
        self.usize(xs.len());
        for &x in xs {
            self.f64(x);
        }
    }

    pub fn rng(&mut self, state: [u64; 4]) {
        for w in state {
            self.u64(w);
        }
    }

    pub fn assignment(&mut self, a: &Assignment) {
        self.usize(a.n_machines());
        self.usize(a.n_executors());
        for &m in a.as_slice() {
            self.usize(m);
        }
    }
}

/// Little-endian cursor decoder with typed failures.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() < n {
            return Err(CheckpointError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CheckpointError::BadStructure("oversized length"))
    }

    /// A bounded length field: every counted element is ≥ 1 byte on the
    /// wire, so a count beyond the remaining bytes is structurally bad —
    /// rejected before any allocation.
    pub fn len(&mut self, what: &'static str) -> Result<usize, CheckpointError> {
        let n = self.usize()?;
        if n > self.buf.len() {
            return Err(CheckpointError::BadStructure(what));
        }
        Ok(n)
    }

    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.len("byte field")?;
        self.take(n)
    }

    pub fn f64s(&mut self) -> Result<Vec<f64>, CheckpointError> {
        let n = self.len("f64 vector")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    pub fn rng(&mut self) -> Result<[u64; 4], CheckpointError> {
        Ok([self.u64()?, self.u64()?, self.u64()?, self.u64()?])
    }

    pub fn assignment(&mut self) -> Result<Assignment, CheckpointError> {
        let n_machines = self.usize()?;
        let n = self.len("assignment")?;
        let mut machine_of = Vec::with_capacity(n);
        for _ in 0..n {
            machine_of.push(self.usize()?);
        }
        Assignment::new(machine_of, n_machines)
            .map_err(|_| CheckpointError::BadStructure("assignment"))
    }

    /// Whether every byte has been consumed (trailing garbage check).
    pub fn done(&self) -> Result<(), CheckpointError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CheckpointError::BadStructure("trailing bytes"))
        }
    }
}

fn method_tag(m: Method) -> u8 {
    match m {
        Method::Default => 0,
        Method::ModelBased => 1,
        Method::Dqn => 2,
        Method::ActorCritic => 3,
    }
}

fn method_from_tag(tag: u8) -> Result<Method, CheckpointError> {
    Ok(match tag {
        0 => Method::Default,
        1 => Method::ModelBased,
        2 => Method::Dqn,
        3 => Method::ActorCritic,
        _ => return Err(CheckpointError::BadStructure("method tag")),
    })
}

/// One durable training checkpoint: everything needed to continue a DRL
/// training run from the end of online epoch `completed` (see the module
/// docs for the recovery strategies).
#[derive(Debug, Clone)]
pub struct TrainCheckpoint {
    /// The method being trained (resume refuses a different one).
    pub method: Method,
    /// The run's seed (resume refuses a different one).
    pub seed: u64,
    /// Online epochs completed when this checkpoint was taken.
    pub completed: usize,
    /// Per-epoch reward series over those epochs.
    pub rewards: TimeSeries,
    /// The action deployed at each completed online epoch, in order —
    /// the replay script for backends without a direct state image.
    pub actions: Vec<Assignment>,
    /// Direct environment image ([`Environment::save_state`]), when the
    /// backend supports one.
    ///
    /// [`Environment::save_state`]: crate::env::Environment::save_state
    pub env_image: Option<Vec<u8>>,
    /// The scheduler's opaque state image (`save_state` of the concrete
    /// scheduler type).
    pub scheduler_state: Vec<u8>,
}

impl TrainCheckpoint {
    /// Serializes the checkpoint into its versioned byte image.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// [`TrainCheckpoint::encode`] into a caller-owned scratch buffer:
    /// clears `out` and fills it, reusing its capacity. The durable
    /// training loop re-encodes a multi-megabyte image every few epochs;
    /// handing the same scratch back each time drops the per-save
    /// grow-from-empty reallocation churn.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        let mut e = Enc {
            buf: std::mem::take(out),
        };
        e.buf.extend_from_slice(MAGIC);
        e.u16(VERSION);
        e.u8(method_tag(self.method));
        e.u64(self.seed);
        e.usize(self.completed);
        e.f64s(self.rewards.times());
        e.f64s(self.rewards.values());
        e.usize(self.actions.len());
        for a in &self.actions {
            e.assignment(a);
        }
        match &self.env_image {
            None => e.u8(0),
            Some(img) => {
                e.u8(1);
                e.bytes(img);
            }
        }
        e.bytes(&self.scheduler_state);
        *out = e.buf;
    }

    /// Decodes a checkpoint image, validating structure end to end.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut d = Dec::new(bytes);
        if d.take(4)? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = d.u16()?;
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let method = method_from_tag(d.u8()?)?;
        let seed = d.u64()?;
        let completed = d.usize()?;
        let times = d.f64s()?;
        let values = d.f64s()?;
        if times.len() != completed || values.len() != completed {
            return Err(CheckpointError::BadStructure("reward series length"));
        }
        let n_actions = d.len("action history")?;
        if n_actions != completed {
            return Err(CheckpointError::BadStructure("action history length"));
        }
        let mut actions = Vec::with_capacity(n_actions);
        for _ in 0..n_actions {
            actions.push(d.assignment()?);
        }
        let env_image = match d.u8()? {
            0 => None,
            1 => Some(d.bytes()?.to_vec()),
            _ => return Err(CheckpointError::BadStructure("env image flag")),
        };
        let scheduler_state = d.bytes()?.to_vec();
        d.done()?;
        Ok(Self {
            method,
            seed,
            completed,
            rewards: TimeSeries::from_parts(times, values),
            actions,
            env_image,
            scheduler_state,
        })
    }

    /// Writes the checkpoint atomically (temp + fsync + rename + CRC).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut scratch = Vec::new();
        self.save_with(path, &mut scratch)
    }

    /// [`TrainCheckpoint::save`] with a caller-owned encode scratch, for
    /// loops that checkpoint repeatedly: the serialized image is built in
    /// `scratch` (capacity reused across calls) before the atomic write.
    pub fn save_with(&self, path: &Path, scratch: &mut Vec<u8>) -> Result<(), CheckpointError> {
        self.encode_into(scratch);
        Ok(dss_store::blob::write_atomic(path, scratch)?)
    }

    /// Reads and decodes a checkpoint written by [`TrainCheckpoint::save`].
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::decode(&dss_store::blob::read(path)?)
    }

    /// Rejects a checkpoint from a different run before any state is
    /// touched: another method or seed, more epochs completed than `cfg`
    /// trains for, or recorded actions of another problem shape (the
    /// file name carries method and seed only, so a directory reused
    /// across scenarios or budgets offers exactly these).
    pub fn validate_run(
        &self,
        method: Method,
        cfg: &ControlConfig,
        n_executors: usize,
        n_machines: usize,
    ) -> Result<(), CheckpointError> {
        let mismatch =
            |expected: String, found: String| Err(CheckpointError::Mismatch { expected, found });
        if self.method != method || self.seed != cfg.seed {
            return mismatch(
                format!("{}/seed {}", method.label(), cfg.seed),
                format!("{}/seed {}", self.method.label(), self.seed),
            );
        }
        if self.completed > cfg.online_epochs {
            return mismatch(
                format!("at most {} online epochs", cfg.online_epochs),
                format!("{} completed", self.completed),
            );
        }
        let shape = |n: usize, m: usize| format!("{n} executors on {m} machines");
        match self
            .actions
            .iter()
            .find(|a| a.n_executors() != n_executors || a.n_machines() != n_machines)
        {
            Some(a) => mismatch(
                shape(n_executors, n_machines),
                shape(a.n_executors(), a.n_machines()),
            ),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainCheckpoint {
        TrainCheckpoint {
            method: Method::Dqn,
            seed: 9,
            completed: 2,
            rewards: TimeSeries::from_parts(vec![0.0, 1.0], vec![-1.5, -0.75]),
            actions: vec![
                Assignment::new(vec![0, 1, 1], 2).unwrap(),
                Assignment::new(vec![1, 1, 0], 2).unwrap(),
            ],
            env_image: Some(vec![7, 7, 7]),
            scheduler_state: vec![1, 2, 3, 4],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let ckpt = sample();
        let back = TrainCheckpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(back.method, ckpt.method);
        assert_eq!(back.seed, ckpt.seed);
        assert_eq!(back.completed, ckpt.completed);
        assert_eq!(back.rewards, ckpt.rewards);
        assert_eq!(back.actions, ckpt.actions);
        assert_eq!(back.env_image, ckpt.env_image);
        assert_eq!(back.scheduler_state, ckpt.scheduler_state);
    }

    #[test]
    fn save_load_through_blob_layer() {
        let dir = std::env::temp_dir().join(format!("dss-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("train.ckpt");
        let ckpt = sample();
        ckpt.save(&path).unwrap();
        let back = TrainCheckpoint::load(&path).unwrap();
        assert_eq!(back.actions, ckpt.actions);
        // Corruption is caught by the blob CRC, not silently resumed.
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(CheckpointError::Store(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_foreign_and_mismatched_images() {
        assert!(matches!(
            TrainCheckpoint::decode(b"not a checkpoint"),
            Err(CheckpointError::BadMagic | CheckpointError::Truncated)
        ));
        let image = sample().encode();
        for cut in [3, 10, image.len() - 1] {
            assert!(TrainCheckpoint::decode(&image[..cut]).is_err());
        }
        let ckpt = sample();
        let cfg = |seed, online_epochs| ControlConfig {
            seed,
            online_epochs,
            ..ControlConfig::test()
        };
        assert!(ckpt.validate_run(Method::Dqn, &cfg(9, 2), 3, 2).is_ok());
        for (method, cfg, n, m) in [
            (Method::ActorCritic, cfg(9, 2), 3, 2),
            (Method::Dqn, cfg(10, 2), 3, 2),
            (Method::Dqn, cfg(9, 1), 3, 2),
            (Method::Dqn, cfg(9, 2), 4, 2),
            (Method::Dqn, cfg(9, 2), 3, 3),
        ] {
            assert!(matches!(
                ckpt.validate_run(method, &cfg, n, m),
                Err(CheckpointError::Mismatch { .. })
            ));
        }
    }
}
