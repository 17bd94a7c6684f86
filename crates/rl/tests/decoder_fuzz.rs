//! The decoders a rollout worker and a resuming trainer read survive
//! arbitrary input: `decode_mlp`, `DdpgAgent::apply_policy`,
//! `DdpgAgent::restore_state` and `DqnAgent::restore_state` each return
//! `Ok` or a typed error — never a panic, never an allocation abort.
//!
//! Inputs are arbitrary bytes (bare, or behind a valid header so they reach
//! the field decoders) and valid images with the tail cut off, one byte
//! flipped, or one u32 or u64 field overwritten. `apply_policy` must also
//! leave the agent unmodified whenever it fails.

use std::sync::OnceLock;

use dss_nn::{decode_mlp, encode_mlp, Activation, Elem, Mlp, Scalar};
use dss_rl::{DdpgAgent, DdpgConfig, DqnAgent, DqnConfig, KBestMapper, Transition};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Valid images of every format under test, in [`decode`]'s order: a
/// network, a DDPG checkpoint, a DDPG policy frame, a DQN checkpoint.
struct Images([Vec<u8>; 4]);

fn ddpg_config() -> DdpgConfig {
    DdpgConfig {
        replay_capacity: 8,
        batch: 4,
        k: 2,
        hidden: [3, 3],
        seed: 11,
        ..DdpgConfig::default()
    }
}

/// A trained-for-a-few-steps agent of each kind, so the images carry Adam
/// moments and a replay ring: wrapped for DDPG, partly filled for DQN.
fn images() -> &'static Images {
    static IMAGES: OnceLock<Images> = OnceLock::new();
    IMAGES.get_or_init(|| {
        let e = Elem::from_f64;
        let mut rng = StdRng::seed_from_u64(3);
        let mut ddpg: DdpgAgent = DdpgAgent::new(4, 4, ddpg_config());
        let mut mapper = KBestMapper::new(2, 2);
        let mut dqn: DqnAgent = DqnAgent::new(
            2,
            3,
            DqnConfig {
                replay_capacity: 16,
                batch: 4,
                hidden: [3, 3],
                seed: 7,
                ..DqnConfig::default()
            },
        );
        for i in 0..12 {
            let mut state = vec![e(0.0); 4];
            state[i % 4] = e(1.0);
            let mut onehot = vec![e(0.0); 4];
            onehot[(i + 1) % 4] = e(1.0);
            ddpg.store(Transition::new(state.clone(), onehot, e(-1.0), state));
            ddpg.train_step(&mut mapper, &mut rng);
            dqn.store(Transition::new(
                vec![e(0.5), e(i as f64)],
                i % 3,
                e(-0.5),
                vec![e(0.5), e(0.0)],
            ));
            dqn.train_step(&mut rng);
        }
        let mlp: Mlp<f64> = Mlp::new(&[3, 4, 2], &[Activation::Tanh, Activation::Sigmoid], 5);
        Images([
            encode_mlp(&mlp).to_vec(),
            ddpg.save_state(),
            ddpg.save_policy(),
            dqn.save_state(),
        ])
    })
}

/// Field values on the edges of every length and shape check.
const EDGES: [u64; 9] = [
    0,
    1,
    2,
    1 << 29,
    u32::MAX as u64,
    1 << 32,
    1 << 61,
    i64::MAX as u64,
    u64::MAX,
];

/// Feeds `bytes` to decoder `which` (see [`Images`]).
fn decode(which: usize, bytes: &[u8]) -> Result<(), TestCaseError> {
    match which {
        0 => {
            let _ = decode_mlp::<f64>(bytes);
            let _ = decode_mlp::<f32>(bytes);
        }
        1 => {
            let _ = DdpgAgent::<Elem>::restore_state(bytes);
        }
        2 => {
            let mut replica: DdpgAgent = DdpgAgent::new(4, 4, ddpg_config());
            let before = replica.save_policy();
            if replica.apply_policy(bytes).is_err() {
                prop_assert!(
                    replica.save_policy() == before,
                    "a failed apply_policy modified the agent"
                );
            }
        }
        _ => {
            let _ = DqnAgent::<Elem>::restore_state(bytes);
        }
    }
    Ok(())
}

/// Feeds `bytes` to every decoder under test.
fn decode_all(bytes: &[u8]) -> Result<(), TestCaseError> {
    (0..4).try_for_each(|which| decode(which, bytes))
}

/// Every image cut at every length, and every offset flipped (one bit,
/// all bits) and overwritten with every [`EDGES`] value as a u32 and as a
/// u64 — a sweep that reaches each length and shape field, which random
/// offsets rarely hit.
#[test]
fn decoders_survive_every_truncation_flip_and_field_overwrite() {
    for (which, image) in images().0.iter().enumerate() {
        for at in 0..image.len() {
            decode(which, &image[..at]).unwrap();
            for mask in [0x01, 0xFF] {
                let mut flipped = image.clone();
                flipped[at] ^= mask;
                decode(which, &flipped).unwrap();
            }
            for &edge in &EDGES {
                for width in [4, 8] {
                    if at + width <= image.len() {
                        let mut bytes = image.clone();
                        bytes[at..at + width].copy_from_slice(&edge.to_le_bytes()[..width]);
                        decode(which, &bytes).unwrap();
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn decoders_survive_arbitrary_bytes(
        header in 0u8..5,
        tail in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Bare bytes stop at the magic; a valid header lets the tail reach
        // the length and shape fields.
        let mut bytes = match header {
            0 => Vec::new(),
            1 => b"DSSN\x01\x00".to_vec(),
            k => [&b"DSSG\x01\x00"[..], &[k - 1]].concat(),
        };
        bytes.extend_from_slice(&tail);
        decode_all(&bytes)?;
    }
}
