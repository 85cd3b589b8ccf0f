//! Property tests for the AEAD-sealed recovery checkpoints
//! (`pipellm_net::checkpoint`): seal/open round-trip identity over
//! arbitrary states, clean rejection (no panic, no plaintext escape) of
//! truncated/bit-flipped/tampered blobs, refusal of stale blobs — the
//! per-`(stage, barrier)` one-shot key schedule means a checkpoint sealed
//! at one barrier can never satisfy a restore claiming another — and the
//! constant size: what a worker seals does not grow with the run.

use pipellm_net::checkpoint::{open_checkpoint, seal_checkpoint, CheckpointState};
use pipellm_net::proto::RekeyEdge;
use proptest::prelude::*;

/// Splits a `u64` into four derived `u32` lanes, the same trick
/// `proto_props` uses to stretch the vendored shim's 4-tuple cap.
fn quarters(x: u64) -> [u32; 4] {
    [
        (x & 0xFFFF) as u32,
        ((x >> 16) & 0xFFFF) as u32,
        ((x >> 32) & 0xFFFF) as u32,
        ((x >> 48) & 0xFFFF) as u32,
    ]
}

/// A state as a worker would seal it: its in and out edge (one edge for
/// a single-stage deployment), any epochs, any watermark.
fn state_from(a: u64, b: u64, prefix: u64) -> CheckpointState {
    let [stage, barrier, edges, _] = quarters(a);
    let [e_in, e_out, _, _] = quarters(b);
    let stage = stage % 8;
    let edges = (0..=(edges % 2))
        .map(|i| RekeyEdge {
            a: stage + i,
            b: if i == 0 { u32::MAX } else { stage },
            epoch: if i == 0 { e_in } else { e_out },
        })
        .collect();
    CheckpointState {
        stage,
        barrier: u64::from(barrier % 64),
        prefix,
        edges,
    }
}

fn state_strategy() -> impl Strategy<Value = CheckpointState> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, prefix)| state_from(a, b, prefix))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Sealing then opening under the same seed/stage/barrier is the
    /// identity on every reachable state.
    #[test]
    fn seal_open_roundtrips(state in state_strategy(), seed in any::<u64>()) {
        let sealed = seal_checkpoint(seed, &state).expect("seal succeeds");
        let opened = open_checkpoint(seed, state.stage, state.barrier, &sealed)
            .expect("own blob opens");
        prop_assert_eq!(opened, state);
    }

    /// Any truncation fails authentication cleanly — an error, never a
    /// panic, never a partial state.
    #[test]
    fn truncation_rejects_cleanly(
        state in state_strategy(),
        seed in any::<u64>(),
        cut in any::<prop::sample::Index>(),
    ) {
        let sealed = seal_checkpoint(seed, &state).expect("seal succeeds");
        let cut = cut.index(sealed.len());
        prop_assert!(open_checkpoint(seed, state.stage, state.barrier, &sealed[..cut]).is_err());
    }

    /// Any single bit flip anywhere in the blob fails authentication.
    #[test]
    fn bit_flip_rejects_cleanly(
        state in state_strategy(),
        seed in any::<u64>(),
        pos in any::<prop::sample::Index>(),
        bit in 0u32..8,
    ) {
        let sealed = seal_checkpoint(seed, &state).expect("seal succeeds");
        let mut bad = sealed.clone();
        let pos = pos.index(bad.len());
        bad[pos] ^= 1 << bit;
        prop_assert!(open_checkpoint(seed, state.stage, state.barrier, &bad).is_err());
    }

    /// Nothing of the state shows through the seal: the watermark's bytes
    /// never appear in the blob, and the empty "no checkpoint yet" blob a
    /// restore may carry opens as nothing.
    #[test]
    fn no_plaintext_escape(state in state_strategy(), seed in any::<u64>()) {
        let sealed = seal_checkpoint(seed, &state).expect("seal succeeds");
        prop_assert!(!sealed.windows(8).any(|w| w == state.prefix.to_le_bytes()));
        prop_assert!(open_checkpoint(seed, state.stage, state.barrier, &[]).is_err());
    }

    /// Tampering with the tag alone — the last 16 bytes — is refused too.
    #[test]
    fn tag_tamper_rejects_cleanly(
        state in state_strategy(),
        seed in any::<u64>(),
        byte in 0usize..16,
        bit in 0u32..8,
    ) {
        let mut bad = seal_checkpoint(seed, &state).expect("seal succeeds");
        let pos = bad.len() - 16 + byte;
        bad[pos] ^= 1 << bit;
        prop_assert!(open_checkpoint(seed, state.stage, state.barrier, &bad).is_err());
    }

    /// The sealed length is a constant of the topology — two edges per
    /// stage — and never of the run: the same bytes whether the barrier
    /// commits session 4 or session 4 billion, whatever the admission
    /// window or the activation size (neither is in the state at all).
    #[test]
    fn sealed_length_is_constant(
        a in state_strategy(),
        b in state_strategy(),
        seed in any::<u64>(),
    ) {
        let len = |state: &CheckpointState| {
            seal_checkpoint(seed, state).expect("seal succeeds").len()
        };
        prop_assert!(len(&a) <= 64 && len(&b) <= 64);
        if a.edges.len() == b.edges.len() {
            prop_assert_eq!(len(&a), len(&b));
        }
    }

    /// Stale (or future) blobs are refused on restore: a checkpoint
    /// sealed at barrier `b` never opens under a restore claiming any
    /// other barrier, any other stage, or any other cluster seed.
    #[test]
    fn stale_checkpoint_refused(
        state in state_strategy(),
        seed in any::<u64>(),
        skew in 1u64..16,
    ) {
        let sealed = seal_checkpoint(seed, &state).expect("seal succeeds");
        prop_assert!(
            open_checkpoint(seed, state.stage, state.barrier + skew, &sealed).is_err()
        );
        if state.barrier >= skew {
            prop_assert!(
                open_checkpoint(seed, state.stage, state.barrier - skew, &sealed).is_err()
            );
        }
        prop_assert!(
            open_checkpoint(seed, state.stage + skew as u32, state.barrier, &sealed).is_err()
        );
        prop_assert!(
            open_checkpoint(seed ^ (skew << 32 | 1), state.stage, state.barrier, &sealed).is_err()
        );
    }
}
