//! The backends' checkpoint decoders on untrusted bytes. A checkpoint
//! payload is read at boot and fetched by every replica, so a hostile or
//! damaged one must decode to a typed error, never a panic and never an
//! allocation its own bytes do not bound.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use viralnews::viralcast::model::{decode_model, CascadeModel, EmbeddingBackend, NetInfBackend};
use viralnews::viralcast::prelude::*;

/// A small SBM world to fit on.
fn world() -> SbmExperiment {
    SbmExperiment::build(
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
    )
}

/// The encoded payload of an embedding model fitted on [`world`].
fn fitted_payload() -> Vec<u8> {
    let fit = infer_embeddings(world().train(), &InferOptions::default());
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

/// A netinf header — 32 bytes, no edges — declaring 2³² − 1 nodes. The
/// decoder sized one row per declared node before it read an edge, so
/// these bytes asked for ≈ 96 GiB; now the count is refused.
#[test]
fn a_netinf_header_declaring_u32_max_nodes_is_an_error() {
    let mut payload = Vec::new();
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    payload.extend_from_slice(&4u32.to_le_bytes());
    payload.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
    payload.extend_from_slice(&1e-6f64.to_bits().to_le_bytes());
    payload.extend_from_slice(&2048u32.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(payload.len(), 32);
    let err = decode_model(NetInfBackend::ID, &payload).expect_err("2³² − 1 nodes decoded");
    assert!(err.contains("past the cap"), "{err}");
}

/// A netinf model's payload cut at every byte, with every header bit
/// flipped and with 512 seeded bit flips in the edge list: each decodes
/// to an error or to a model of at most `MAX_NODES` nodes whose own
/// encoding decodes back to itself. A flip may move an edge to another
/// row, which the model re-encodes in row order, so the flipped bytes
/// themselves need not come back.
#[test]
fn every_cut_and_flip_of_a_netinf_payload_never_panics() {
    let valid = NetInfBackend::fit(world().train(), Default::default()).encode();
    let decode = |bytes: &[u8]| decode_model(NetInfBackend::ID, bytes);
    assert_eq!(decode(&valid).unwrap().encode(), valid);
    assert!(valid.len() > 32 + 16 * 20, "{} bytes", valid.len());
    for cut in 0..valid.len() {
        assert!(decode(&valid[..cut]).is_err(), "cut {cut}");
    }
    let mut rng = StdRng::seed_from_u64(49);
    let header = (0..256).map(|bit| (bit / 8, bit % 8));
    let body = (0..512).map(|_| (rng.gen_range(32..valid.len()), rng.gen_range(0..8usize)));
    let (mut models, mut errors) = (0, 0);
    for (at, bit) in header.chain(body) {
        let mut flipped = valid.clone();
        flipped[at] ^= 1 << bit;
        match decode(&flipped) {
            Ok(model) => {
                assert!(
                    model.node_count() <= NetInfBackend::MAX_NODES,
                    "flip {at}.{bit}"
                );
                let again = model.encode();
                assert_eq!(decode(&again).unwrap().encode(), again, "flip {at}.{bit}");
                models += 1;
            }
            Err(_) => errors += 1,
        }
    }
    assert!(models > 0 && errors > 0, "{models} models, {errors} errors");
}
