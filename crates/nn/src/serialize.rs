//! Compact binary serialization for trained networks.
//!
//! Format (little-endian):
//!
//! ```text
//! magic "DSSN" (4 bytes) | version u16 | n_layers u16
//! per layer: in u32 | out u32 | activation u8 | W (out*in f64) | b (out f64)
//! ```
//!
//! The framework persists trained actor/critic pairs with this so the "hot
//! swapping of control algorithms" feature from the paper (§3.1, feature 4)
//! can load a replacement agent without retraining.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::activation::Activation;
use crate::layer::Dense;
use crate::matrix::Matrix;
use crate::mlp::Mlp;
use crate::scalar::Scalar;

const MAGIC: &[u8; 4] = b"DSSN";
const VERSION: u16 = 1;

/// Serialization failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input did not start with the expected magic bytes.
    BadMagic,
    /// Unknown format version.
    BadVersion(u16),
    /// Truncated input.
    Truncated,
    /// Invalid activation tag.
    BadActivation(u8),
    /// A layer header described an impossible shape.
    BadShape,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad magic bytes"),
            DecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::Truncated => write!(f, "truncated input"),
            DecodeError::BadActivation(t) => write!(f, "unknown activation tag {t}"),
            DecodeError::BadShape => write!(f, "invalid layer shape"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes a network to bytes. The wire format stores `f64` parameters
/// regardless of the in-memory element type — widening is exact, so an
/// f32-trained network round-trips bit-for-bit and stays loadable by
/// either instantiation.
pub fn encode_mlp<S: Scalar>(net: &Mlp<S>) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + net.param_count() * 8);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(net.layers().len() as u16);
    for layer in net.layers() {
        buf.put_u32_le(layer.input_size() as u32);
        buf.put_u32_le(layer.output_size() as u32);
        buf.put_u8(layer.activation().tag());
        for &v in layer.weights().data() {
            buf.put_f64_le(v.to_f64());
        }
        for &v in layer.bias() {
            buf.put_f64_le(v.to_f64());
        }
    }
    buf.freeze()
}

/// Decodes a network from bytes produced by [`encode_mlp`], narrowing
/// the stored `f64` parameters to the requested element type.
pub fn decode_mlp<S: Scalar>(mut bytes: &[u8]) -> Result<Mlp<S>, DecodeError> {
    if bytes.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    let mut magic = [0u8; 4];
    bytes.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = bytes.get_u16_le();
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let n_layers = bytes.get_u16_le() as usize;
    if n_layers == 0 {
        return Err(DecodeError::BadShape);
    }
    // The smallest layer is a 9-byte header plus one weight and one bias.
    if bytes.remaining() < n_layers * (9 + 16) {
        return Err(DecodeError::Truncated);
    }
    let mut layers = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        if bytes.remaining() < 9 {
            return Err(DecodeError::Truncated);
        }
        let input = bytes.get_u32_le() as usize;
        let output = bytes.get_u32_le() as usize;
        let act_tag = bytes.get_u8();
        let activation =
            Activation::from_tag(act_tag).ok_or(DecodeError::BadActivation(act_tag))?;
        if input == 0 || output == 0 {
            return Err(DecodeError::BadShape);
        }
        // Checked: a 32-bit header can describe more bytes than `usize`
        // holds, and a wrapped size would pass the bound check below.
        let n_w = input.checked_mul(output).ok_or(DecodeError::BadShape)?;
        let size = n_w
            .checked_add(output)
            .and_then(|n| n.checked_mul(8))
            .ok_or(DecodeError::BadShape)?;
        if bytes.remaining() < size {
            return Err(DecodeError::Truncated);
        }
        let mut w = Vec::with_capacity(n_w);
        for _ in 0..n_w {
            w.push(S::from_f64(bytes.get_f64_le()));
        }
        let mut b = Vec::with_capacity(output);
        for _ in 0..output {
            b.push(S::from_f64(bytes.get_f64_le()));
        }
        layers.push(Dense::from_parts(
            Matrix::from_vec(output, input, w),
            b,
            activation,
        ));
    }
    // from_layers validates chaining; surface that as BadShape instead of a
    // panic so corrupted files fail gracefully.
    let chains = layers
        .windows(2)
        .all(|p| p[0].output_size() == p[1].input_size());
    if !chains {
        return Err(DecodeError::BadShape);
    }
    Ok(Mlp::from_layers(layers))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_net() -> Mlp<f64> {
        Mlp::new(
            &[3, 8, 4, 2],
            &[Activation::Tanh, Activation::Tanh, Activation::Sigmoid],
            42,
        )
    }

    #[test]
    fn round_trip_preserves_inference() {
        let net = sample_net();
        let bytes = encode_mlp(&net);
        let decoded: Mlp<f64> = decode_mlp(&bytes).unwrap();
        let x = [0.1, -0.9, 0.5];
        assert_eq!(net.infer_one(&x), decoded.infer_one(&x));
    }

    #[test]
    fn f32_round_trip_is_exact_and_cross_loadable() {
        // f32 → f64 widening is lossless, so an f32 net round-trips
        // bit-for-bit through the f64 wire format...
        let net: Mlp<f32> = Mlp::new(&[3, 6, 2], &[Activation::Tanh, Activation::Sigmoid], 9);
        let bytes = encode_mlp(&net);
        let decoded: Mlp<f32> = decode_mlp(&bytes).unwrap();
        let x = [0.1f32, -0.9, 0.5];
        assert_eq!(net.infer_one(&x), decoded.infer_one(&x));
        // ...and the same bytes load as an f64 network for debugging.
        let wide: Mlp<f64> = decode_mlp(&bytes).unwrap();
        assert_eq!(wide.param_count(), net.param_count());
        for (l32, l64) in net.layers().iter().zip(wide.layers()) {
            for (a, b) in l32.weights().data().iter().zip(l64.weights().data()) {
                assert_eq!(*a as f64, *b);
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            decode_mlp::<f64>(b"nope").unwrap_err(),
            DecodeError::Truncated
        );
        assert_eq!(
            decode_mlp::<f64>(b"XXXX\x01\x00\x01\x00").unwrap_err(),
            DecodeError::BadMagic
        );
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = encode_mlp(&sample_net());
        for cut in [5, 9, 20, bytes.len() - 1] {
            assert!(
                decode_mlp::<f64>(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn rejects_a_layer_header_whose_size_overflows() {
        // (u32::MAX · 2^29 + 2^29) · 8 wraps to 0 in 64-bit arithmetic.
        let mut bytes = b"DSSN\x01\x00\x01\x00".to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&(1u32 << 29).to_le_bytes());
        bytes.push(Activation::Tanh.tag());
        bytes.extend_from_slice(&[0; 16]);
        assert_eq!(
            decode_mlp::<f64>(&bytes).unwrap_err(),
            DecodeError::BadShape
        );
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = encode_mlp(&sample_net()).to_vec();
        bytes[4] = 99;
        assert_eq!(
            decode_mlp::<f64>(&bytes).unwrap_err(),
            DecodeError::BadVersion(99)
        );
    }

    #[test]
    fn size_is_header_plus_params() {
        let net = sample_net();
        let bytes = encode_mlp(&net);
        let per_layer_header = 9;
        let expected = 8 + 3 * per_layer_header + net.param_count() * 8;
        assert_eq!(bytes.len(), expected);
    }
}
