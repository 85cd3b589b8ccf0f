//! Security analysis tests (paper §8.1 and §8.2).
//!
//! The reproduction's secure channel must uphold the NVIDIA-CC guarantees
//! PipeLLM claims to preserve — replay rejection, reorder rejection, tamper
//! rejection, ciphertext unlinkability — while the §8.2 ciphertext-reuse
//! strawman demonstrably loses them. NOP padding must leak only its
//! *presence* (the §8.1 side channel the paper acknowledges), never data.

use pipellm_repro::crypto::channel::{ChannelKeys, SecureChannel};
use pipellm_repro::crypto::reuse::StaticSealer;
use pipellm_repro::crypto::CryptoError;
use pipellm_repro::gpu::memory::Payload;
use pipellm_repro::gpu::runtime::GpuRuntime;
use pipellm_repro::runtime::{PipeLlmConfig, PipeLlmRuntime};
use pipellm_repro::sim::time::SimTime;

/// The incrementing-IV discipline rejects a replayed swap chunk.
#[test]
fn channel_rejects_replayed_swap_data() {
    let mut ch = SecureChannel::new(ChannelKeys::from_seed(1));
    let v1 = ch.host_mut().seal(b"weights v1").expect("fresh");
    ch.device_mut().open(&v1).expect("first delivery");
    let v2 = ch.host_mut().seal(b"weights v2").expect("fresh");
    // Host-level attacker substitutes the captured v1 ciphertext.
    let replay = ch.device_mut().open(&v1);
    assert!(
        matches!(replay, Err(CryptoError::AuthenticationFailed { .. })),
        "replay must fail: {replay:?}"
    );
    // The legitimate message still goes through afterwards.
    assert_eq!(ch.device_mut().open(&v2).expect("fresh IV"), b"weights v2");
}

/// The reuse strawman accepts the identical attack — the paper's argument
/// for keeping re-encryption.
#[test]
fn reuse_strawman_accepts_the_replay_the_channel_rejects() {
    let sealer = StaticSealer::new(&[7u8; 32]).expect("32-byte key");
    let chunk_tag = 0x4000;
    let captured_v1 = sealer.seal(chunk_tag, b"weights v1");
    let _v2_in_flight = sealer.seal(chunk_tag, b"weights v2");
    // Attacker swaps in the stale ciphertext; the receiver cannot tell.
    let rolled_back = sealer
        .open(chunk_tag, &captured_v1)
        .expect("replay accepted");
    assert_eq!(
        rolled_back, b"weights v1",
        "the GPU now computes on stale weights"
    );
}

/// Identical plaintext produces different ciphertext on the channel
/// (IV-fresh) but identical ciphertext under reuse (linkable).
#[test]
fn channel_is_unlinkable_reuse_is_linkable() {
    let mut ch = SecureChannel::new(ChannelKeys::from_seed(5));
    let a = ch.host_mut().seal(b"same kv block").expect("fresh");
    let b = ch.host_mut().seal(b"same kv block").expect("fresh");
    assert_ne!(a.bytes, b.bytes, "fresh IVs decorrelate equal plaintexts");

    let sealer = StaticSealer::new(&[9u8; 32]).expect("32-byte key");
    assert_eq!(
        sealer.seal(1, b"same kv block"),
        sealer.seal(1, b"same kv block"),
        "static nonces make repeated transfers observable"
    );
}

/// PipeLLM's speculation must never put unvalidated or stale ciphertext on
/// the wire: after an in-place plaintext update, the bytes that reach the
/// device are the new ones, not the speculatively sealed old ones.
#[test]
fn speculation_never_ships_stale_ciphertext() {
    const CHUNK: u64 = 256 * 1024;
    let mut rt = PipeLlmRuntime::new(PipeLlmConfig {
        device_capacity: 1 << 30,
        ..PipeLlmConfig::default()
    });
    // Teach the predictor a repetitive single-chunk pattern so the chunk is
    // certainly pre-encrypted.
    let layer = rt.alloc_host(Payload::Real(vec![1u8; CHUNK as usize]));
    let mut now = SimTime::ZERO;
    for _ in 0..4 {
        let dev = rt.alloc_device(CHUNK).expect("capacity");
        now = rt.memcpy_htod(now, dev, layer).expect("swap");
        now = rt.synchronize(now);
        rt.free_device(dev).expect("live");
    }
    assert!(
        rt.queue_len() > 0,
        "the chunk should be speculatively sealed"
    );
    // The application updates the plaintext in place…
    now = rt.host_touch(now, layer.addr).expect("live chunk");
    // …and the very next swap-in must carry the update.
    let dev = rt.alloc_device(CHUNK).expect("capacity");
    now = rt.memcpy_htod(now, dev, layer).expect("swap");
    rt.synchronize(now);
    let Payload::Real(bytes) = rt.context().device_memory().get(dev).expect("stored") else {
        panic!("real payload expected");
    };
    assert_eq!(bytes[0], 1 ^ 0xff, "device must see the mutated plaintext");
    assert!(rt.spec_stats().write_invalidations >= 1);
}

/// §8.1: NOP padding is attacker-visible (the acknowledged side channel)
/// but carries only a fixed dummy byte — no data-dependent content.
#[test]
fn nops_are_visible_but_content_free() {
    let mut ch = SecureChannel::new(ChannelKeys::from_seed(11));
    let tx = ch.host_mut().tx_mut();
    let pad = vec![tx.nop_message(Vec::new()), tx.nop_message(Vec::new())];
    let [n1, n2]: [_; 2] = tx.seal_batch_prepared(pad).unwrap().try_into().unwrap();
    // Visible: NOPs are distinct wire messages with 1-byte payloads.
    assert_eq!(n1.plaintext_len(), 1);
    assert_ne!(n1.bytes, n2.bytes, "fresh IVs still decorrelate NOPs");
    // Content-free: both decrypt to the same constant dummy.
    assert_eq!(ch.device_mut().open(&n1).expect("authentic"), vec![0u8]);
    assert_eq!(ch.device_mut().open(&n2).expect("authentic"), vec![0u8]);
}

/// Cross-direction reflection is rejected (directions are separate keys and
/// nonce spaces).
#[test]
fn reflection_across_directions_is_rejected() {
    let mut ch = SecureChannel::new(ChannelKeys::from_seed(13));
    let h2d = ch.host_mut().seal(b"host to device").expect("fresh");
    assert!(
        ch.host_mut().open(&h2d).is_err(),
        "reflected message must not authenticate"
    );
}
