//! AEAD-sealed worker recovery checkpoints.
//!
//! Recovery is by recomputation, so a checkpoint carries only *where the
//! run stands*: at every barrier (see [`crate::proto::CheckpointReq`]) a
//! worker seals the committed-prefix watermark the barrier announced and
//! the epoch of each of its edges — 64 bytes whatever the run length,
//! admission window or activation size, and never an activation — and
//! ships the blob to the orchestrator. IV positions are deliberately not
//! part of it: the dead incarnation may have burned counters past the seal
//! point, so a restore is always followed by a forced rekey (epoch + 1,
//! IVs back to 1) and no position inside an epoch is ever resumed. The orchestrator is outside the
//! trust boundary: it stores and relays the checkpoint but cannot read or
//! forge it, because the sealing key is derived from the cluster seed,
//! which workers derive locally and never put on the wire.
//!
//! # Key schedule
//!
//! Each checkpoint is sealed under a **one-shot** channel whose key root
//! is `derive_subseed(derive_subseed(derive_subseed(cluster_seed,
//! CHECKPOINT_TAG), stage), barrier)`. Folding the barrier number into
//! the key gives every checkpoint a fresh key stream (no IV management
//! across seals — each blob is IV 1 of its own key), and makes staleness
//! self-enforcing: a blob sealed at barrier 4 cannot be opened by a
//! restore claiming barrier 5, and vice versa, because the keys differ.
//!
//! # Failure behaviour
//!
//! Truncation, bit flips, tag tampering, or a barrier/stage mismatch all
//! fail authentication (or the post-open validation) and return a clean
//! [`NetError`] — no panic, and under the sentinel discipline of the
//! crypto layer no plaintext or decryption intermediate ever escapes a
//! failed open.

use crate::error::{NetError, NetResult};
use crate::frame::{Reader, Writer};
use crate::proto::RekeyEdge;
use pipellm_crypto::channel::{ChannelKeys, SealedMessage, SecureChannel};
use pipellm_crypto::session::derive_subseed;
use std::sync::Arc;

/// Domain-separation tag of the checkpoint key schedule ("ckpt").
const CHECKPOINT_TAG: u64 = 0x636B_7074;

/// Upper bound on edges in one checkpoint; a stage touches at most two.
const MAX_EDGES: usize = 16;

/// The global completion index of one output: barriers, admission windows
/// and checkpoint garbage collection all order work by this.
pub fn global_index(iteration: u32, micro_batch: u32, micro_batches: u32) -> u64 {
    u64::from(iteration) * u64::from(micro_batches.max(1)) + u64::from(micro_batch)
}

/// One worker's recovery state at a checkpoint barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointState {
    /// The checkpointing stage.
    pub stage: u32,
    /// The barrier this state belongs to.
    pub barrier: u64,
    /// The committed-prefix watermark the barrier announced: every output
    /// with a [`global_index`] below it is committed at the orchestrator.
    pub prefix: u64,
    /// The epoch each of the stage's edges stood at when sealed — what a
    /// replacement fast-forwards to before the post-restore rekey.
    pub edges: Vec<RekeyEdge>,
}

impl CheckpointState {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.u32(self.stage);
        w.u64(self.barrier);
        w.u64(self.prefix);
        w.u32(self.edges.len() as u32);
        for e in &self.edges {
            w.u32(e.a);
            w.u32(e.b);
            w.u32(e.epoch);
        }
        w.0
    }

    fn decode(payload: &[u8]) -> NetResult<CheckpointState> {
        let mut r = Reader::new(payload);
        let stage = r.u32()?;
        let barrier = r.u64()?;
        let prefix = r.u64()?;
        let n = r.u32()? as usize;
        if n > MAX_EDGES {
            return Err(NetError::Malformed {
                what: "checkpoint with absurd edge count",
            });
        }
        let mut edges = Vec::with_capacity(n);
        for _ in 0..n {
            edges.push(RekeyEdge {
                a: r.u32()?,
                b: r.u32()?,
                epoch: r.u32()?,
            });
        }
        r.finish()?;
        Ok(CheckpointState {
            stage,
            barrier,
            prefix,
            edges,
        })
    }
}

/// The one-shot channel sealing/opening checkpoints of `(stage, barrier)`.
fn checkpoint_channel(cluster_seed: u64, stage: u32, barrier: u64) -> SecureChannel {
    let root = derive_subseed(cluster_seed, CHECKPOINT_TAG);
    let per_stage = derive_subseed(root, u64::from(stage));
    let per_barrier = derive_subseed(per_stage, barrier);
    SecureChannel::new(ChannelKeys::from_seed(per_barrier))
}

/// The AAD binding a checkpoint to its stage and barrier.
fn checkpoint_aad(stage: u32, barrier: u64) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(0x434B_5054); // "CKPT"
    w.u32(stage);
    w.u64(barrier);
    w.0
}

/// Seals `state` into an opaque blob only a holder of the cluster seed
/// can open.
///
/// # Errors
///
/// [`NetError::Crypto`] if sealing fails (practically unreachable: the
/// one-shot channel starts at IV 1).
pub fn seal_checkpoint(cluster_seed: u64, state: &CheckpointState) -> NetResult<Vec<u8>> {
    let mut channel = checkpoint_channel(cluster_seed, state.stage, state.barrier);
    let aad = checkpoint_aad(state.stage, state.barrier);
    let sealed = channel
        .host_mut()
        .tx_mut()
        .seal_with_aad(&aad, &state.encode())?;
    Ok(sealed.bytes)
}

/// Opens and validates a sealed checkpoint for exactly `(stage,
/// barrier)`.
///
/// # Errors
///
/// - [`NetError::Crypto`] if authentication fails — truncation, bit
///   flips, a tampered tag, or a blob sealed for any other stage or
///   barrier (their keys and AAD differ);
/// - [`NetError::Malformed`] / [`NetError::Truncated`] if the plaintext
///   does not decode exactly;
/// - [`NetError::Protocol`] if the decoded state contradicts the claimed
///   stage or barrier.
pub fn open_checkpoint(
    cluster_seed: u64,
    stage: u32,
    barrier: u64,
    sealed: &[u8],
) -> NetResult<CheckpointState> {
    let mut channel = checkpoint_channel(cluster_seed, stage, barrier);
    let aad = checkpoint_aad(stage, barrier);
    let message = SealedMessage {
        iv: channel.device().rx().next_iv(),
        aad: Arc::from(aad.into_boxed_slice()),
        bytes: sealed.to_vec(),
    };
    let plain = channel.device_mut().rx_mut().open(&message)?;
    let state = CheckpointState::decode(&plain)?;
    if state.stage != stage || state.barrier != barrier {
        return Err(NetError::Protocol {
            detail: format!(
                "checkpoint body claims stage {} barrier {}, envelope says stage {stage} barrier {barrier}",
                state.stage, state.barrier
            ),
        });
    }
    Ok(state)
}
