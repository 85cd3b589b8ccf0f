//! Property-based tests of the cryptographic substrate: AES-GCM roundtrip
//! and tamper detection, equivalence of the multi-block / in-place fast
//! paths with their retained reference implementations, and the
//! incrementing-IV channel discipline under arbitrary operation
//! interleavings.

use pipellm_repro::crypto::aes::Aes;
use pipellm_repro::crypto::channel::{staging_buffer, ChannelKeys, SecureChannel};
use pipellm_repro::crypto::gcm::AesGcm;
use pipellm_repro::crypto::CryptoError;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// seal ∘ open is the identity for any key, nonce, AAD, and plaintext.
    #[test]
    fn gcm_roundtrip(
        key in proptest::array::uniform32(any::<u8>()),
        nonce in proptest::array::uniform12(any::<u8>()),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        plaintext in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let gcm = AesGcm::new(&key).expect("32-byte key");
        let sealed = gcm.seal(&nonce, &aad, &plaintext);
        prop_assert_eq!(gcm.open(&nonce, &aad, &sealed).expect("authentic"), plaintext);
    }

    /// Flipping any single bit of the ciphertext (or tag) fails
    /// authentication.
    #[test]
    fn gcm_detects_any_single_bit_flip(
        key in proptest::array::uniform32(any::<u8>()),
        nonce in proptest::array::uniform12(any::<u8>()),
        plaintext in proptest::collection::vec(any::<u8>(), 1..128),
        flip_at in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let gcm = AesGcm::new(&key).expect("32-byte key");
        let mut sealed = gcm.seal(&nonce, b"aad", &plaintext);
        let idx = flip_at.index(sealed.len());
        sealed[idx] ^= 1 << bit;
        let tampered = gcm.open(&nonce, b"aad", &sealed);
        let rejected = matches!(tampered, Err(CryptoError::AuthenticationFailed { .. }));
        prop_assert!(rejected, "tampered ciphertext must be rejected: {:?}", tampered);
    }

    /// The multi-block AES path (hardware-dispatched *and* forced-software)
    /// is byte-identical to the byte-oriented FIPS-197 reference for any
    /// key and block count.
    #[test]
    fn multi_block_aes_matches_reference(
        key in proptest::array::uniform32(any::<u8>()),
        data in proptest::collection::vec(any::<u8>(), 0..640),
    ) {
        let whole_blocks = data.len() - data.len() % 16;
        let cipher = Aes::new(&key).expect("32-byte key");
        let soft = Aes::new(&key).expect("32-byte key").software_only();
        let mut fast = data[..whole_blocks].to_vec();
        let mut tables = fast.clone();
        let mut reference = fast.clone();
        cipher.encrypt_blocks(&mut fast);
        soft.encrypt_blocks(&mut tables);
        for block in reference.chunks_exact_mut(16) {
            let block: &mut [u8; 16] = block.try_into().expect("exact chunk");
            cipher.encrypt_block_reference(block);
        }
        prop_assert_eq!(&fast, &reference);
        prop_assert_eq!(&tables, &reference);
    }

    /// The batched fast seal (multi-block CTR + aggregated GHASH) equals
    /// the retained single-block reference seal for any key and input.
    #[test]
    fn fast_seal_matches_single_block_reference(
        key in proptest::array::uniform32(any::<u8>()),
        nonce in proptest::array::uniform12(any::<u8>()),
        aad in proptest::collection::vec(any::<u8>(), 0..48),
        plaintext in proptest::collection::vec(any::<u8>(), 0..700),
    ) {
        let gcm = AesGcm::new(&key).expect("32-byte key");
        let soft = AesGcm::new(&key).expect("32-byte key").software_only();
        let reference = soft.seal_reference(&nonce, &aad, &plaintext);
        prop_assert_eq!(gcm.seal(&nonce, &aad, &plaintext), reference.clone());
        prop_assert_eq!(soft.seal(&nonce, &aad, &plaintext), reference);
    }

    /// Detached-tag in-place sealing agrees with the allocating API and
    /// roundtrips through `open_in_place`.
    #[test]
    fn in_place_seal_matches_allocating_seal(
        key in proptest::array::uniform32(any::<u8>()),
        nonce in proptest::array::uniform12(any::<u8>()),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
        plaintext in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let gcm = AesGcm::new(&key).expect("32-byte key");
        let sealed = gcm.seal(&nonce, &aad, &plaintext);
        let mut buf = plaintext.clone();
        let tag = gcm.seal_in_place(&nonce, &aad, &mut buf);
        prop_assert_eq!(&sealed[..plaintext.len()], &buf[..]);
        prop_assert_eq!(&sealed[plaintext.len()..], &tag[..]);
        gcm.open_in_place(&nonce, &aad, &mut buf, &tag).expect("authentic");
        prop_assert_eq!(buf, plaintext);
    }

    /// Opening under different AAD fails authentication.
    #[test]
    fn gcm_binds_aad(
        key in proptest::array::uniform32(any::<u8>()),
        nonce in proptest::array::uniform12(any::<u8>()),
        plaintext in proptest::collection::vec(any::<u8>(), 0..64),
        aad in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let gcm = AesGcm::new(&key).expect("32-byte key");
        let sealed = gcm.seal(&nonce, &aad, &plaintext);
        let mut other = aad.clone();
        other[0] ^= 0xff;
        prop_assert!(gcm.open(&nonce, &other, &sealed).is_err());
    }

    /// In-order channel traffic always roundtrips; the sender counter
    /// advances exactly once per message; speculative messages commit iff
    /// the counter reaches their IV exactly.
    #[test]
    fn channel_iv_discipline(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..64), 1..20),
        spec_ahead in 0u64..6,
    ) {
        let mut ch = SecureChannel::new(ChannelKeys::from_seed(7));
        // Speculate a message `spec_ahead` transfers into the future.
        let spec_iv = ch.host().tx().next_iv() + spec_ahead;
        let spec = ch.host().tx()
            .seal_speculative_prepared(spec_iv, Arc::from(&[][..]), staging_buffer(b"spec"))
            .expect("future IV is legal");

        let mut sent = 0u64;
        for payload in &payloads {
            if ch.host().tx().next_iv() == spec_iv {
                // Counter reached the speculated IV: the commit must work.
                ch.host_mut().tx_mut().commit(&spec).expect("exact IV");
                prop_assert_eq!(ch.device_mut().open(&spec).expect("lockstep"), b"spec");
            } else if ch.host().tx().next_iv() > spec_iv {
                // Overshot: committing is nonce reuse and must fail.
                let late = ch.host_mut().tx_mut().commit(&spec);
                let refused = matches!(late, Err(CryptoError::IvReused { .. }));
                prop_assert!(refused, "late commit must be nonce reuse: {:?}", late);
            }
            let before = ch.host().tx().next_iv();
            let sealed = ch.host_mut().seal(payload).expect("counter is fresh");
            prop_assert_eq!(sealed.iv, before);
            prop_assert_eq!(ch.host().tx().next_iv(), before + 1);
            prop_assert_eq!(&ch.device_mut().open(&sealed).expect("in order"), payload);
            sent += 1;
        }
        prop_assert_eq!(ch.host().tx().next_iv(), 1 + sent + u64::from(ch.host().tx().next_iv() > spec_iv && spec_ahead < sent));
    }
}

/// NOP padding — a committed batch of 1-byte messages — advances both
/// endpoints and never breaks the stream.
#[test]
fn nops_interleave_freely_with_data() {
    let mut ch = SecureChannel::new(ChannelKeys::from_seed(3));
    for round in 0..10u8 {
        let tx = ch.host_mut().tx_mut();
        let pad = (0..round % 3).map(|_| tx.nop_message(Vec::new())).collect();
        for nop in tx.seal_batch_prepared(pad).unwrap() {
            ch.device_mut().open(&nop).expect("nop authentic");
        }
        let sealed = ch.host_mut().seal(&[round]).expect("fresh");
        assert_eq!(
            ch.device_mut().open(&sealed).expect("in order"),
            vec![round]
        );
    }
}
