//! Property tests for the fused batch-seal path: a [`AesGcm::seal_batch`]
//! over N messages must be **bit-identical** — ciphertext, tag, and IV
//! sequence — to N individual seals, on the hardware path (AES-NI/VAES
//! where present), on the software path, and through the ganged grouping
//! (forced gang width + floored crossover, so the grouped submission runs
//! even on a single-core host). The channel-level batch must consume
//! consecutive IVs all-or-nothing, and a corrupted message mid-batch must
//! sentinel cleanly without desyncing its neighbours.

use pipellm_crypto::channel::{ChannelKeys, SecureChannel, SENTINEL_BYTE};
use pipellm_crypto::engine::CryptoEngine;
use pipellm_crypto::gcm::{AesGcm, BatchSealMsg};
use proptest::prelude::*;
use std::sync::Arc;

/// Per-message inputs: payload plus AAD.
fn messages(max: usize) -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(any::<u8>(), 0..300),
            proptest::collection::vec(any::<u8>(), 0..24),
        ),
        1..max,
    )
}

/// Distinct nonce for message `i` of a run (counter-IV shape: tag || BE
/// counter, as the channel layer builds them).
fn nonce_at(i: usize) -> [u8; 12] {
    let mut n = [0u8; 12];
    n[..4].copy_from_slice(b"prop");
    n[4..].copy_from_slice(&(i as u64).to_be_bytes());
    n
}

/// Seals `msgs` twice — individually and as one batch — on the given
/// context pair and asserts bit-identical `ciphertext || tag` per message.
fn assert_batch_identical(individual: &AesGcm, batched: &AesGcm, msgs: &[(Vec<u8>, Vec<u8>)]) {
    let mut expect: Vec<Vec<u8>> = Vec::with_capacity(msgs.len());
    for (i, (pt, aad)) in msgs.iter().enumerate() {
        let mut buf = pt.clone();
        individual.seal_vec(&nonce_at(i), aad, &mut buf);
        expect.push(buf);
    }
    let mut bufs: Vec<Vec<u8>> = msgs.iter().map(|(pt, _)| pt.clone()).collect();
    let mut batch: Vec<BatchSealMsg> = bufs
        .iter_mut()
        .zip(msgs)
        .enumerate()
        .map(|(i, (buf, (_, aad)))| BatchSealMsg {
            nonce: nonce_at(i),
            aad,
            buf,
        })
        .collect();
    batched.seal_batch(&mut batch);
    for (i, (got, want)) in bufs.iter().zip(&expect).enumerate() {
        prop_assert_eq!(got, want, "message {} diverged", i);
    }
}

fn key_of(seed: u64) -> [u8; 32] {
    let mut key = [0u8; 32];
    for (i, b) in key.iter_mut().enumerate() {
        *b = (seed.rotate_left((i % 64) as u32) as u8) ^ i as u8;
    }
    key
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fused batch == N individual seals on the dispatched (hardware
    /// where available) path, with the gang forced on so the grouped
    /// submission really runs.
    #[test]
    fn batch_is_bit_identical_on_the_dispatched_path(
        seed in any::<u64>(),
        msgs in messages(12),
    ) {
        let key = key_of(seed);
        let individual = AesGcm::new(&key).expect("32-byte key");
        let engine = Arc::new(CryptoEngine::with_gang_width(3, 3));
        let mut batched = AesGcm::new(&key).expect("32-byte key").with_engine(engine);
        batched.set_par_threshold(1); // gang even tiny batches
        assert_batch_identical(&individual, &batched, &msgs);
    }

    /// Fused batch == N individual seals on the portable software path.
    #[test]
    fn batch_is_bit_identical_on_the_software_path(
        seed in any::<u64>(),
        msgs in messages(8),
    ) {
        let key = key_of(seed);
        let individual = AesGcm::new(&key).expect("32-byte key").software_only();
        let engine = Arc::new(CryptoEngine::with_gang_width(2, 2));
        let mut batched = AesGcm::new(&key)
            .expect("32-byte key")
            .software_only()
            .with_engine(engine);
        batched.set_par_threshold(1);
        assert_batch_identical(&individual, &batched, &msgs);
    }

    /// Channel-level batch: `seal_batch_prepared` emits the same frames
    /// at the same consecutive IVs as N sequential `seal_prepared` calls,
    /// and the receiver opens them in lockstep.
    #[test]
    fn channel_batch_matches_sequential_seals_and_iv_sequence(
        seed in any::<u64>(),
        msgs in messages(8),
    ) {
        let mut one = SecureChannel::new(ChannelKeys::from_seed(seed));
        let mut many = SecureChannel::new(ChannelKeys::from_seed(seed));
        let mut expect = Vec::with_capacity(msgs.len());
        for (pt, aad) in &msgs {
            let aad: Arc<[u8]> = aad.clone().into();
            expect.push(one.host_mut().tx_mut().seal_prepared(aad, pt.clone()).expect("seal"));
        }
        let prepared: Vec<(Arc<[u8]>, Vec<u8>)> = msgs
            .iter()
            .map(|(pt, aad)| (aad.clone().into(), pt.clone()))
            .collect();
        let start = many.host().tx().next_iv();
        let sealed = many
            .host_mut()
            .tx_mut()
            .seal_batch_prepared(prepared)
            .expect("batch seal");
        prop_assert_eq!(sealed.len(), expect.len());
        for (i, (got, want)) in sealed.iter().zip(&expect).enumerate() {
            prop_assert_eq!(got.iv, want.iv, "IV sequence diverged at {}", i);
            prop_assert_eq!(got.iv, start + i as u64, "IVs must be consecutive");
            prop_assert_eq!(&got.bytes, &want.bytes, "frame {} diverged", i);
        }
        prop_assert_eq!(
            many.host().tx().next_iv(),
            start + msgs.len() as u64,
            "batch consumes exactly its run of IVs"
        );
        // The receiver walks the batch in lockstep.
        for (sealed, (pt, _)) in sealed.iter().zip(&msgs) {
            let opened = many.device_mut().open(sealed).expect("authentic");
            prop_assert_eq!(&opened, pt);
        }
    }

    /// A frame corrupted mid-batch sentinels cleanly: earlier and later
    /// messages of the same batch still authenticate, the damaged one
    /// scrubs to sentinel bytes, and the IV stream never desyncs.
    #[test]
    fn corrupted_message_mid_batch_sentinels_without_desync(
        seed in any::<u64>(),
        msgs in messages(8),
        victim in any::<prop::sample::Index>(),
        flip_at in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut ch = SecureChannel::new(ChannelKeys::from_seed(seed));
        let prepared: Vec<(Arc<[u8]>, Vec<u8>)> = msgs
            .iter()
            .map(|(pt, aad)| (aad.clone().into(), pt.clone()))
            .collect();
        let mut sealed = ch
            .host_mut()
            .tx_mut()
            .seal_batch_prepared(prepared)
            .expect("batch seal");
        let v = victim.index(sealed.len());
        let idx = flip_at.index(sealed[v].bytes.len());
        sealed[v].bytes[idx] ^= 1 << bit;
        let rx_start = ch.device().rx().next_iv();
        for (i, frame) in sealed.into_iter().enumerate() {
            let mut buf = frame.bytes;
            let outcome = ch.device_mut().rx_mut().open_in_place_or_sentinel(&frame.aad, &mut buf);
            if i == v {
                prop_assert!(outcome.is_err(), "damaged frame must be rejected");
                prop_assert!(
                    buf.iter().all(|&b| b == SENTINEL_BYTE),
                    "damaged frame must scrub to sentinel bytes"
                );
            } else {
                prop_assert!(outcome.is_ok(), "sibling frame {} must authenticate", i);
                prop_assert_eq!(&buf, &msgs[i].0, "sibling frame {} payload", i);
            }
            prop_assert_eq!(
                ch.device().rx().next_iv(),
                rx_start + i as u64 + 1,
                "every frame — damaged or not — consumes exactly its IV"
            );
        }
    }
}
