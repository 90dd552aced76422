//! The embedding backend's checkpoint decoder on untrusted bytes. A
//! checkpoint payload is read at boot and fetched by every replica, so a
//! hostile or damaged one must decode to a typed error, never a panic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use viralnews::viralcast::model::{decode_model, CascadeModel, EmbeddingBackend};
use viralnews::viralcast::prelude::*;

/// The encoded payload of a model fitted on a small SBM world.
fn fitted_payload() -> Vec<u8> {
    let experiment = SbmExperiment::build(
        &SbmExperimentConfig {
            sbm: SbmConfig {
                nodes: 40,
                community_size: 10,
                intra_prob: 0.3,
                inter_prob: 0.01,
            },
            cascades: 30,
            ..SbmExperimentConfig::default()
        },
        5,
    );
    let fit = infer_embeddings(experiment.train(), &InferOptions::default());
    EmbeddingBackend::new(fit.embeddings).encode()
}

/// A shape whose body size, `16·n·k` bytes, wraps to the 32 bytes that
/// follow it: `n·k = 2⁶⁰ + 2` fits a `u64`, and sixteen times it does not.
#[test]
fn a_shape_whose_body_size_overflows_is_an_error() {
    let (n, k) = (315_916_329u32, 3_649_452_082u32);
    assert_eq!(u64::from(n) * u64::from(k), (1 << 60) + 2);
    let mut payload = Vec::new();
    payload.extend_from_slice(&n.to_le_bytes());
    payload.extend_from_slice(&k.to_le_bytes());
    payload.extend_from_slice(&[0u8; 32]);
    let err =
        decode_model(EmbeddingBackend::ID, &payload).expect_err("an overflowing shape decoded");
    assert!(err.contains("disagrees"), "{err}");
}

/// A fitted model's payload cut at every byte, with every header bit
/// flipped and with 512 seeded bit flips in the body: each decodes to an
/// error or to a model that encodes back to exactly those bytes.
#[test]
fn every_cut_and_flip_of_a_fitted_payload_never_panics() {
    let valid = fitted_payload();
    let decode = |bytes: &[u8]| decode_model(EmbeddingBackend::ID, bytes);
    assert_eq!(decode(&valid).unwrap().encode(), valid);
    for cut in 0..valid.len() {
        assert!(decode(&valid[..cut]).is_err(), "cut {cut}");
    }
    let mut rng = StdRng::seed_from_u64(47);
    let header = (0..64).map(|bit| (bit / 8, bit % 8));
    let body = (0..512).map(|_| (rng.gen_range(8..valid.len()), rng.gen_range(0..8usize)));
    for (at, bit) in header.chain(body) {
        let mut flipped = valid.clone();
        flipped[at] ^= 1 << bit;
        match decode(&flipped) {
            Ok(model) => assert_eq!(model.encode(), flipped, "flip {at}.{bit}"),
            Err(_) => assert!(at < 8, "flip {at}.{bit}: a body flip is still a model"),
        }
    }
}
