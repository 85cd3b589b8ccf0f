//! Multi-block sealing for the encrypted paged KV cache.
//!
//! A paged KV cache evicts a request's KV blocks as a *group*: N blocks
//! sealed back to back under the owning session's channel keys, each block
//! at its own IV drawn from the channel counter — consecutive, in eviction
//! order. The associated data binds every block to the group id, its index
//! within the group, the group size, and a caller-chosen kind byte, so
//! blocks cannot be dropped, reordered, truncated, or spliced between
//! groups (or between sessions — the keys differ) without failing
//! authentication.
//!
//! Opening supports the PipeLLM §5.4 discipline through
//! [`crate::channel::RxContext::defer_open`]: each block's IV is reserved
//! at the receiver in wire order while the actual decryptions
//! ([`crate::channel::DeferredOpen::open_in_place`]) run later, off the
//! critical path and possibly out of order with one another.

use crate::channel::{RxContext, SealedMessage, TxContext};
use crate::Result;
use std::sync::Arc;

/// Byte length of [`kv_block_aad`]'s output.
pub const KV_AAD_LEN: usize = 25;

/// Builds the associated data sealed with one KV block: the caller's kind
/// byte first (so transfer descriptors stay self-identifying), then the
/// group id, the block index, the block count, and the block's logical
/// payload length, all big-endian.
pub fn kv_block_aad(kind: u8, group: u64, index: u32, count: u32, len: u64) -> Arc<[u8]> {
    let mut aad = Vec::with_capacity(KV_AAD_LEN);
    aad.push(kind);
    aad.extend_from_slice(&group.to_be_bytes());
    aad.extend_from_slice(&index.to_be_bytes());
    aad.extend_from_slice(&count.to_be_bytes());
    aad.extend_from_slice(&len.to_be_bytes());
    aad.into()
}

/// One evicted KV group: every block's ciphertext, in eviction order, each
/// sealed at its own consecutive channel IV.
#[derive(Debug, Clone)]
pub struct SealedKvGroup {
    /// Group id the blocks are bound to.
    pub group: u64,
    /// Sealed blocks in eviction order (`blocks[i]` carries index `i`).
    pub blocks: Vec<SealedMessage>,
}

impl SealedKvGroup {
    /// Number of blocks in the group.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the group holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// Seals `blocks` (plaintexts in eviction order) as one KV group at
/// consecutive committed IVs from `tx`, staging each ciphertext in a
/// buffer drawn from `pool` — real AES-GCM over the staging pool, so
/// steady-state eviction allocates nothing once the pool is warm.
///
/// All blocks share `kind` (the caller's payload descriptor byte).
///
/// # Errors
///
/// [`crate::CryptoError::IvExhausted`] if the group would run the channel
/// into its IV headroom. The check covers the whole group before any IV
/// is consumed, so a failed group leaves the counter untouched (the
/// caller's session layer rekeys on this signal).
pub fn seal_kv_group(
    tx: &mut TxContext,
    kind: u8,
    group: u64,
    blocks: &[&[u8]],
    pool: &mut Vec<Vec<u8>>,
) -> Result<SealedKvGroup> {
    let count = blocks.len() as u32;
    // Stage every block, then seal the whole group as ONE fused batch
    // submission ([`TxContext::seal_batch_prepared`]) instead of one
    // engine dispatch per block — bit-identical messages at the same
    // consecutive IVs, and the group's exhaustion check becomes
    // all-or-nothing (no partially consumed IV run on failure).
    let mut msgs = Vec::with_capacity(blocks.len());
    for (index, plaintext) in blocks.iter().enumerate() {
        let mut buf = pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(plaintext);
        let aad = kv_block_aad(kind, group, index as u32, count, plaintext.len() as u64);
        msgs.push((aad, buf));
    }
    let sealed = tx.seal_batch_prepared(msgs)?;
    Ok(SealedKvGroup {
        group,
        blocks: sealed,
    })
}

/// Opens every block of `sealed` in wire order at `rx`'s counter, each in
/// its own ciphertext buffer, returning the plaintexts (the synchronous
/// path — native CC semantics).
///
/// # Errors
///
/// [`crate::CryptoError::AuthenticationFailed`] on the first block that
/// does not verify; earlier blocks have advanced the counter.
pub fn open_kv_group(rx: &mut RxContext, sealed: SealedKvGroup) -> Result<Vec<Vec<u8>>> {
    sealed
        .blocks
        .into_iter()
        .map(|block| {
            let mut buf = block.bytes;
            rx.open_in_place(&block.aad, &mut buf).map(|()| buf)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelKeys, SecureChannel};
    use crate::CryptoError;

    fn channel(seed: u64) -> SecureChannel {
        SecureChannel::new(ChannelKeys::from_seed(seed))
    }

    fn group_plaintexts() -> Vec<Vec<u8>> {
        (0..4u8).map(|i| vec![0x40 + i; 96]).collect()
    }

    #[test]
    fn group_roundtrips_bit_exact_with_consecutive_ivs() {
        let mut ch = channel(9);
        let blocks = group_plaintexts();
        let refs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
        let mut pool = Vec::new();
        let sealed = seal_kv_group(ch.device_mut().tx_mut(), 0, 7, &refs, &mut pool).unwrap();
        assert_eq!(sealed.len(), 4);
        // Per-block IVs are consecutive counter values, in eviction order.
        let ivs: Vec<u64> = sealed.blocks.iter().map(|b| b.iv).collect();
        assert_eq!(ivs, vec![1, 2, 3, 4]);
        // Ciphertext is genuine: every block differs from its plaintext.
        for (block, plain) in sealed.blocks.iter().zip(&blocks) {
            assert_ne!(&block.bytes[..plain.len()], plain.as_slice());
        }
        let opened = open_kv_group(ch.host_mut().rx_mut(), sealed).unwrap();
        assert_eq!(opened, blocks);
    }

    #[test]
    fn cross_session_open_fails() {
        let mut a = channel(1);
        let mut b = channel(2);
        let blocks = group_plaintexts();
        let refs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
        let sealed = seal_kv_group(a.device_mut().tx_mut(), 0, 1, &refs, &mut Vec::new()).unwrap();
        // Session B's keys cannot open session A's swapped-out KV.
        assert!(matches!(
            open_kv_group(b.host_mut().rx_mut(), sealed.clone()),
            Err(CryptoError::AuthenticationFailed { .. })
        ));
        // Session A still can: B's failed attempt never advanced B's state
        // into A's stream.
        assert_eq!(
            open_kv_group(a.host_mut().rx_mut(), sealed).unwrap(),
            blocks
        );
    }

    #[test]
    fn reordered_blocks_fail_authentication() {
        let mut ch = channel(4);
        let blocks = group_plaintexts();
        let refs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
        let mut sealed =
            seal_kv_group(ch.device_mut().tx_mut(), 0, 3, &refs, &mut Vec::new()).unwrap();
        sealed.blocks.swap(0, 1);
        assert!(open_kv_group(ch.host_mut().rx_mut(), sealed).is_err());
    }

    #[test]
    fn aad_binds_group_identity() {
        let mut ch = channel(5);
        let blocks = group_plaintexts();
        let refs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
        let mut sealed =
            seal_kv_group(ch.device_mut().tx_mut(), 0, 10, &refs, &mut Vec::new()).unwrap();
        // Claiming the block belongs to another group flips the AAD.
        sealed.blocks[0].aad = kv_block_aad(0, 11, 0, 4, 96);
        assert!(matches!(
            open_kv_group(ch.host_mut().rx_mut(), sealed),
            Err(CryptoError::AuthenticationFailed { expected_iv: 1 })
        ));
    }

    #[test]
    fn deferred_opens_work_out_of_order() {
        let mut ch = channel(6);
        let blocks = group_plaintexts();
        let refs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
        let sealed = seal_kv_group(ch.device_mut().tx_mut(), 0, 2, &refs, &mut Vec::new()).unwrap();
        // The host accepts the group in wire order, reserving every IV now.
        let rx = ch.host_mut().rx_mut();
        let mut deferred: Vec<_> = sealed
            .blocks
            .into_iter()
            .map(|block| (rx.defer_open(), block))
            .collect();
        // The counter advanced at arrival time: both endpoints agree.
        assert_eq!(ch.host().rx().next_iv(), ch.device().tx().next_iv());
        // Open in scrambled order; every block still authenticates.
        deferred.reverse();
        deferred.swap(0, 2);
        for (open, block) in deferred {
            let mut buf = block.bytes;
            open.open_in_place(&block.aad, &mut buf).unwrap();
            assert_eq!(buf, blocks[open.iv() as usize - 1]);
        }
        // Later traffic on the channel proceeds undisturbed.
        let next = ch.device_mut().seal(b"post-group traffic").unwrap();
        assert_eq!(ch.host_mut().open(&next).unwrap(), b"post-group traffic");
    }

    #[test]
    fn deferred_open_rejects_tampering() {
        let mut ch = channel(8);
        let sealed = seal_kv_group(
            ch.device_mut().tx_mut(),
            0,
            1,
            &[&[9u8; 64][..]],
            &mut Vec::new(),
        )
        .unwrap();
        let open = ch.host_mut().rx_mut().defer_open();
        let mut buf = sealed.blocks[0].bytes.clone();
        buf[0] ^= 1;
        assert!(matches!(
            open.open_in_place(&sealed.blocks[0].aad, &mut buf),
            Err(CryptoError::AuthenticationFailed { expected_iv: 1 })
        ));
    }

    #[test]
    fn sealing_reuses_pooled_buffers() {
        let mut ch = channel(12);
        let mut pool: Vec<Vec<u8>> = vec![Vec::with_capacity(256), Vec::with_capacity(256)];
        let ptrs: Vec<*const u8> = pool.iter().map(|b| b.as_ptr()).collect();
        let blocks = [&[1u8; 128][..], &[2u8; 128][..]];
        let sealed = seal_kv_group(ch.device_mut().tx_mut(), 0, 4, &blocks, &mut pool).unwrap();
        assert!(pool.is_empty(), "both staged buffers were consumed");
        let mut sealed_ptrs: Vec<*const u8> =
            sealed.blocks.iter().map(|b| b.bytes.as_ptr()).collect();
        sealed_ptrs.sort_unstable();
        let mut expected = ptrs;
        expected.sort_unstable();
        assert_eq!(sealed_ptrs, expected, "ciphertext lives in pooled buffers");
    }
}
