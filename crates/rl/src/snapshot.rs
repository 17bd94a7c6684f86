//! Bit-exact agent state snapshots — the crash-safe-training primitive.
//!
//! [`crate::DdpgAgent::save_state`] and [`crate::DqnAgent::save_state`]
//! serialize everything mutable about an agent — network parameters for
//! all online *and* target nets, the Adam optimizers' per-block moments,
//! the replay ring **in slot order** (index-based minibatch sampling
//! addresses storage slots, so layout is part of the trajectory), and the
//! train-step counter — into a versioned little-endian byte image. The
//! matching `restore_state` constructors rebuild an agent whose future
//! training trajectory is bit-identical to what the snapshotted agent
//! would have produced, given the same RNG stream.
//!
//! Floats travel as `f64` bits (widening is exact for every [`Scalar`]
//! element type), mirroring `dss-nn`'s network wire format, so an
//! f32-trained agent round-trips losslessly.
//!
//! This module owns the shared low-level codec; the agent-specific field
//! layout lives next to each agent (`ddpg.rs`, `dqn.rs`).

use dss_nn::{decode_mlp, encode_mlp, Adam, DecodeError, Mlp, Scalar};

use crate::replay::ReplayBuffer;
use crate::transition::Transition;

/// Agent snapshot decode failures (typed, never panics on foreign bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Input did not start with the expected magic bytes.
    BadMagic,
    /// Unknown snapshot format version.
    BadVersion(u16),
    /// The image is for a different agent kind (DDPG vs DQN).
    WrongKind(u8),
    /// Truncated input.
    Truncated,
    /// A length or index field described an impossible structure.
    BadStructure(&'static str),
    /// An embedded network image failed to decode.
    Net(DecodeError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "bad agent snapshot magic"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::WrongKind(k) => write!(f, "snapshot is for agent kind {k}"),
            SnapshotError::Truncated => write!(f, "truncated agent snapshot"),
            SnapshotError::BadStructure(what) => write!(f, "invalid snapshot structure: {what}"),
            SnapshotError::Net(e) => write!(f, "embedded network: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Net(e)
    }
}

/// Snapshot magic ("DSS" + agent).
pub(crate) const MAGIC: &[u8; 4] = b"DSSG";
/// Snapshot format version.
pub(crate) const VERSION: u16 = 1;
/// Agent kind tags.
pub(crate) const KIND_DDPG: u8 = 1;
pub(crate) const KIND_DQN: u8 = 2;
/// A *policy-only* DDPG image ([`crate::DdpgAgent::save_policy`]): just the
/// online actor and critic — what a rollout worker needs to act. Target
/// nets, optimizer moments and the replay ring stay learner-side, so the
/// blob a parameter server republishes every few train steps is a fraction
/// of the full [`crate::DdpgAgent::save_state`] checkpoint.
pub(crate) const KIND_POLICY: u8 = 3;
/// A *quantized* policy image ([`crate::QuantPolicy`]): the online actor
/// and critic compressed to i8 or bf16 weights (see `dss_nn::quant` for
/// the scheme). Same role as [`KIND_POLICY`] — what a rollout worker
/// pulls from the parameter server — at a fraction of the bytes; floats
/// that are natively f32 travel as f32 bits here, not widened f64.
pub(crate) const KIND_QUANT_POLICY: u8 = 4;

/// Little-endian append-only writer.
#[derive(Default)]
pub(crate) struct Writer {
    pub buf: Vec<u8>,
}

impl Writer {
    pub fn header(kind: u8) -> Self {
        Self::header_in(Vec::new(), kind)
    }

    /// A writer that appends to `buf` without discarding its capacity (or
    /// its existing contents — callers reusing a scratch clear it first).
    /// This is the allocation-reuse seam: a periodic checkpoint loop hands
    /// the same multi-megabyte buffer back every save instead of growing a
    /// fresh one from empty each time.
    pub fn header_in(buf: Vec<u8>, kind: u8) -> Self {
        let mut w = Writer { buf };
        w.buf.extend_from_slice(MAGIC);
        w.u16(VERSION);
        w.u8(kind);
        w
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
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

    /// An f32 as its own 4-byte bits — used by the quantized policy
    /// image, where the whole point is byte economy (the full-precision
    /// formats keep widening to f64).
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// A network as an embedded length-prefixed `dss-nn` image.
    pub fn net<S: Scalar>(&mut self, net: &Mlp<S>) {
        self.bytes(&encode_mlp(net));
    }

    /// An Adam optimizer's per-block moments.
    pub fn adam<S: Scalar>(&mut self, opt: &Adam<S>) {
        let blocks = opt.export_moments();
        self.usize(blocks.len());
        for (key, m, v, t) in blocks {
            self.usize(key);
            self.u64(t);
            self.usize(m.len());
            for x in m {
                self.f64(x);
            }
            for x in v {
                self.f64(x);
            }
        }
    }

    /// A scalar row of known width.
    pub fn row<S: Scalar>(&mut self, row: &[S]) {
        for &x in row {
            self.f64(x.to_f64());
        }
    }
}

/// Little-endian cursor reader with typed failures.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Validates magic/version/kind and positions the cursor after them.
    pub fn open(bytes: &'a [u8], kind: u8) -> Result<Self, SnapshotError> {
        let mut r = Reader { buf: bytes };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let k = r.u8()?;
        if k != kind {
            return Err(SnapshotError::WrongKind(k));
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() < n {
            return Err(SnapshotError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::BadStructure("oversized length"))
    }

    /// A bounded length field: caps structure sizes against corrupt
    /// images allocating absurd buffers before the data runs out.
    pub fn len(&mut self, what: &'static str) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        // Every element of every counted structure is ≥ 1 byte on the
        // wire, so a count beyond the remaining bytes is structurally bad.
        if n > self.buf.len() {
            return Err(SnapshotError::BadStructure(what));
        }
        Ok(n)
    }

    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_bits(self.u32()?))
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.len("byte field")?;
        self.take(n)
    }

    pub fn net<S: Scalar>(&mut self) -> Result<Mlp<S>, SnapshotError> {
        Ok(decode_mlp(self.bytes()?)?)
    }

    /// Rebuilds an Adam optimizer from `lr` plus serialized moments.
    pub fn adam<S: Scalar>(&mut self, lr: f64) -> Result<Adam<S>, SnapshotError> {
        let n_blocks = self.len("adam blocks")?;
        let mut blocks = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let key = self.usize()?;
            let t = self.u64()?;
            let len = self.len("adam block")?;
            let mut m = Vec::with_capacity(len);
            for _ in 0..len {
                m.push(self.f64()?);
            }
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push(self.f64()?);
            }
            blocks.push((key, m, v, t));
        }
        let mut opt = Adam::new(lr);
        opt.import_moments(blocks);
        Ok(opt)
    }

    pub fn row<S: Scalar>(&mut self, width: usize) -> Result<Vec<S>, SnapshotError> {
        let mut out = Vec::with_capacity(width);
        for _ in 0..width {
            out.push(S::from_f64(self.f64()?));
        }
        Ok(out)
    }

    /// Whether every byte has been consumed (trailing garbage check).
    pub fn done(&self) -> Result<(), SnapshotError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::BadStructure("trailing bytes"))
        }
    }
}

/// Whether `a` and `b` have the same depth and the same `(input, output)`
/// widths layer by layer — what copying parameters between them needs.
/// Equal parameter counts are not enough: 3→5→3→2 and 3→4→4→2 both hold
/// 46.
pub(crate) fn same_layers<S: Scalar>(a: &Mlp<S>, b: &Mlp<S>) -> bool {
    a.layers().len() == b.layers().len()
        && a.layers()
            .iter()
            .zip(b.layers())
            .all(|(x, y)| (x.input_size(), x.output_size()) == (y.input_size(), y.output_size()))
}

/// Serializes a replay ring (slot order + head) with `action` rows encoded
/// by `put_action`.
pub(crate) fn put_replay<A: Clone, S: Scalar>(
    w: &mut Writer,
    replay: &ReplayBuffer<A, S>,
    mut put_action: impl FnMut(&mut Writer, &A),
) {
    let (slots, head) = replay.ring();
    w.usize(replay.capacity());
    w.usize(head);
    w.usize(slots.len());
    for t in slots {
        w.row(&t.state);
        put_action(w, &t.action);
        w.f64(t.reward.to_f64());
        w.row(&t.next_state);
    }
}

/// Rebuilds a replay ring serialized by [`put_replay`]; `state_dim` fixes
/// the row widths.
pub(crate) fn get_replay<A: Clone, S: Scalar>(
    r: &mut Reader<'_>,
    state_dim: usize,
    mut get_action: impl FnMut(&mut Reader<'_>) -> Result<A, SnapshotError>,
) -> Result<ReplayBuffer<A, S>, SnapshotError> {
    let capacity = r.usize()?;
    let head = r.usize()?;
    let n = r.len("replay slots")?;
    if capacity == 0 || n > capacity {
        return Err(SnapshotError::BadStructure("replay shape"));
    }
    if (n < capacity && head != 0) || (n == capacity && head >= capacity) {
        return Err(SnapshotError::BadStructure("replay head"));
    }
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        let state = r.row(state_dim)?;
        let action = get_action(r)?;
        let reward = S::from_f64(r.f64()?);
        let next_state = r.row(state_dim)?;
        slots.push(Transition::new(state, action, reward, next_state));
    }
    Ok(ReplayBuffer::from_ring(capacity, slots, head))
}
