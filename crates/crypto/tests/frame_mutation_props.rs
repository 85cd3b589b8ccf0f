//! Property tests for frame mangling: any mutation of a sealed frame —
//! bit flips at arbitrary positions (ciphertext, tag), truncation at any
//! length, AAD tampering — must be rejected as a clean `CryptoError`,
//! never a panic, and must never leave plaintext (or ciphertext) bytes in
//! a buffer the caller can read. Under the sentinel discipline the failed
//! frame still consumes its IV, so an arbitrary fault stream never breaks
//! lockstep and never reuses an IV.

use pipellm_crypto::channel::{staging_buffer, ChannelKeys, SecureChannel, SENTINEL_BYTE};
use pipellm_crypto::CryptoError;
use proptest::prelude::*;

/// True if any 8-byte window of `needle` appears in `haystack` — the
/// "plaintext escaped" detector. Windowed rather than whole-slice so even
/// partial leaks trip it.
fn leaks_window_of(haystack: &[u8], needle: &[u8]) -> bool {
    needle
        .windows(8.min(needle.len().max(1)))
        .any(|w| !w.is_empty() && haystack.windows(w.len()).any(|h| h == w))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any bit of the sealed frame makes the in-place open fail
    /// cleanly with the receiver's counter untouched and the frame's buffer
    /// byte-identical (nothing decrypted into it).
    #[test]
    fn any_bit_flip_is_rejected_without_output(
        seed in any::<u64>(),
        plaintext in proptest::collection::vec(any::<u8>(), 1..256),
        flip_at in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut ch = SecureChannel::new(ChannelKeys::from_seed(seed));
        let mut sealed = ch.host_mut().seal(&plaintext).expect("seal");
        let idx = flip_at.index(sealed.bytes.len());
        sealed.bytes[idx] ^= 1 << bit;
        let mut buf = sealed.bytes.clone();
        let err = ch.device_mut().rx_mut().open_in_place(&sealed.aad, &mut buf);
        prop_assert!(matches!(err, Err(CryptoError::AuthenticationFailed { expected_iv: 1 })));
        prop_assert_eq!(ch.device().rx().next_iv(), 1, "plain open must not advance");
        prop_assert_eq!(&buf, &sealed.bytes, "failed open must not touch the buffer");
    }

    /// Truncating the frame at any length — above or below the tag size —
    /// fails cleanly, and the sentinel open leaves zero plaintext bytes
    /// behind while still consuming the IV.
    #[test]
    fn any_truncation_is_rejected_and_sentinelled(
        seed in any::<u64>(),
        plaintext in proptest::collection::vec(any::<u8>(), 24..256),
        cut_at in any::<prop::sample::Index>(),
    ) {
        let mut ch = SecureChannel::new(ChannelKeys::from_seed(seed));
        let sealed = ch.host_mut().seal(&plaintext).expect("seal");
        let mut buf = sealed.bytes;
        buf.truncate(cut_at.index(buf.len())); // strictly shorter
        let outcome = ch.device_mut().rx_mut().open_in_place_or_sentinel(&sealed.aad, &mut buf);
        prop_assert!(outcome.is_err(), "truncated frame must be rejected");
        prop_assert!(buf.iter().all(|&b| b == SENTINEL_BYTE), "buffer must be scrubbed");
        prop_assert!(!leaks_window_of(&buf, &plaintext), "plaintext escaped");
        prop_assert_eq!(ch.device().rx().next_iv(), 2, "sentinel open consumes the IV");
    }

    /// Tampering with the associated data (any byte, any bit) is rejected
    /// even when ciphertext and tag are untouched.
    #[test]
    fn aad_tampering_is_rejected(
        seed in any::<u64>(),
        aad in proptest::collection::vec(any::<u8>(), 1..48),
        plaintext in proptest::collection::vec(any::<u8>(), 1..128),
        flip_at in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut ch = SecureChannel::new(ChannelKeys::from_seed(seed));
        let mut sealed = ch
            .host_mut()
            .tx_mut()
            .seal_prepared(aad.clone().into(), staging_buffer(&plaintext))
            .expect("seal");
        let mut tampered = aad.clone();
        let idx = flip_at.index(tampered.len());
        tampered[idx] ^= 1 << bit;
        sealed.aad = tampered.into();
        let err = ch.device_mut().open(&sealed);
        prop_assert!(matches!(err, Err(CryptoError::AuthenticationFailed { .. })));
    }

    /// Sentinel opens under an arbitrary corrupt/truncate/drop/deliver
    /// fault stream: the channel never panics, never reuses an IV, stays
    /// in lockstep (a clean frame after any prefix of faults opens fine),
    /// and no faulted frame's plaintext ever escapes.
    #[test]
    fn fault_streams_preserve_lockstep_and_leak_nothing(
        seed in any::<u64>(),
        faults in proptest::collection::vec(0u8..4, 1..40),
    ) {
        let mut ch = SecureChannel::new(ChannelKeys::from_seed(seed));
        let mut consumed_ivs = std::collections::HashSet::new();
        for (i, &fault) in faults.iter().enumerate() {
            let secret = vec![i as u8 ^ 0x5A; 64];
            let mut sealed = ch.host_mut().seal(&secret).expect("seal");
            let sent_iv = sealed.iv;
            prop_assert!(consumed_ivs.insert(sent_iv), "sender reused IV {}", sent_iv);
            match fault {
                0 => {
                    // Delivered intact.
                    let opened = ch.device_mut().open(&sealed).expect("authentic frame");
                    prop_assert_eq!(opened, secret);
                }
                1 | 2 => {
                    // Corrupted (1) or truncated (2) in flight.
                    if fault == 1 {
                        let idx = (seed as usize + i) % sealed.bytes.len();
                        sealed.bytes[idx] ^= 1 << (i % 8);
                    } else {
                        let keep = (seed as usize + i) % sealed.bytes.len();
                        sealed.bytes.truncate(keep);
                    }
                    let mut buf = sealed.bytes;
                    let outcome =
                        ch.device_mut().rx_mut().open_in_place_or_sentinel(&sealed.aad, &mut buf);
                    prop_assert!(outcome.is_err());
                    prop_assert!(!leaks_window_of(&buf, &secret), "plaintext escaped");
                }
                _ => {
                    // Dropped on the wire: receiver burns the IV.
                    let skipped = ch.device_mut().rx_mut().skip();
                    prop_assert_eq!(skipped, sent_iv);
                }
            }
            prop_assert_eq!(
                ch.host().tx().next_iv(),
                ch.device().rx().next_iv(),
                "endpoints fell out of lockstep"
            );
        }
        // After the whole fault stream, ordinary traffic still flows.
        let finale = ch.host_mut().seal(b"after the storm").expect("seal");
        prop_assert_eq!(
            ch.device_mut().open(&finale).expect("lockstep held"),
            b"after the storm"
        );
    }
}
