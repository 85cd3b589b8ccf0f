//! The NVIDIA-CC wire protocol in isolation: AES-GCM with implicitly
//! synchronized, strictly incrementing IVs (the paper's Figure 1), and why
//! speculation needs an error handler.
//!
//! Run with: `cargo run --example secure_channel`

use pipellm_crypto::channel::{staging_buffer, ChannelKeys, SecureChannel};
use pipellm_crypto::CryptoError;
use std::sync::Arc;

fn main() {
    let mut ch = SecureChannel::new(ChannelKeys::from_seed(2024));

    // 1. Normal transfers: the IV is never transmitted; both sides advance
    //    their counters in lockstep.
    let a = ch
        .host_mut()
        .seal(b"layer 17 weights")
        .expect("fresh counter");
    let b = ch
        .host_mut()
        .seal(b"layer 18 weights")
        .expect("fresh counter");
    println!("sealed message A at IV={}, B at IV={}", a.iv, b.iv);
    assert_eq!(
        ch.device_mut().open(&a).expect("in order"),
        b"layer 17 weights"
    );

    // 2. Out-of-order delivery fails authentication — the replay protection
    //    that makes speculative encryption hard.
    let replay = ch.device_mut().open(&a).expect_err("replay must fail");
    println!("replaying A: {replay}");
    assert!(matches!(replay, CryptoError::AuthenticationFailed { .. }));
    ch.device_mut().open(&b).expect("correct order still works");

    // 3. Speculative pre-encryption: seal at a *future* IV without
    //    advancing the counter (what PipeLLM's predictor does).
    //    The plaintext is staged once; the buffer becomes the ciphertext.
    let future_iv = ch.host().tx().next_iv() + 2;
    let spec = ch
        .host()
        .tx()
        .seal_speculative_prepared(
            future_iv,
            Arc::from(&[][..]),
            staging_buffer(b"predicted KV block"),
        )
        .expect("future IV");
    println!(
        "speculatively sealed at IV={future_iv} while counter is {}",
        ch.host().tx().next_iv()
    );

    // Committing too early is a recoverable IV mismatch…
    let early = ch
        .host_mut()
        .tx_mut()
        .commit(&spec)
        .expect_err("counter is behind");
    println!("early commit: {early}");

    // …fixed by NOP padding (§5.3): 1-byte dummies, sealed like any other
    // committed transfer, that advance both sides.
    while ch.host().tx().next_iv() < future_iv {
        let tx = ch.host_mut().tx_mut();
        let (aad, buf) = tx.nop_message(Vec::new());
        let nop = tx.seal_prepared(aad, buf).expect("IVs not exhausted");
        ch.device_mut().open(&nop).expect("nop is authentic");
    }
    ch.host_mut()
        .tx_mut()
        .commit(&spec)
        .expect("counters aligned");
    let plain = ch
        .device_mut()
        .open(&spec)
        .expect("device counter caught up");
    assert_eq!(plain, b"predicted KV block");
    println!(
        "committed speculative ciphertext after NOP padding: {:?}",
        String::from_utf8(plain)
    );

    // 4. A stale speculation (its IV consumed by other traffic) is
    //    irrecoverable: sealing below the counter would reuse a GCM nonce.
    let stale = ch.host().tx().seal_speculative_prepared(
        1,
        Arc::from(&[][..]),
        staging_buffer(b"too late"),
    );
    println!(
        "sealing at a consumed IV: {}",
        stale.expect_err("nonce reuse refused")
    );
}
