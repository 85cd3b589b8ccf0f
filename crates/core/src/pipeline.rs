//! The speculative encryption queue and its validation state.
//!
//! Each entry is a chunk pre-encrypted at a specific future IV, with:
//!
//! - `ready_at`: when the crypto worker finishes producing the ciphertext
//!   (the pipeline's timing contribution);
//! - a *validation cookie* tying the entry to the write-protection placed
//!   on its plaintext pages (paper §5.2): a write fault invalidates the
//!   entry, so stale ciphertext is never transmitted;
//! - the plaintext length, needed for wire-time accounting of virtual
//!   payloads.
//!
//! Entries are strictly IV-ordered. IVs are assigned in increasing order
//! from the speculation head, optionally leaving per-entry gaps — the §5.1
//! slack that absorbs interleaved small I/O. The error handler (in
//! [`crate::runtime`]) consumes entries in order, NOP-padding over gaps
//! and over invalidated or skipped entries.

use pipellm_crypto::channel::SealedMessage;
use pipellm_gpu::memory::HostRegion;
use pipellm_sim::time::SimTime;
use std::collections::VecDeque;

/// One pre-encrypted chunk.
#[derive(Debug, Clone)]
pub struct SpecEntry {
    /// The chunk this ciphertext encodes.
    pub chunk: HostRegion,
    /// The IV the ciphertext was sealed under.
    pub iv: u64,
    /// The ciphertext (with tag).
    pub sealed: SealedMessage,
    /// Plaintext length in bytes.
    pub len: u64,
    /// When the crypto pipeline finishes producing this ciphertext.
    pub ready_at: SimTime,
    /// Cookie correlating page-protection faults to this entry.
    pub cookie: u64,
    /// Whether the ciphertext is still consistent with the plaintext.
    pub valid: bool,
}

impl SpecEntry {
    /// Consumes the entry, returning its ciphertext buffer for reuse in
    /// the runtime's staging pool (see `PipeLlmRuntime`): committed,
    /// pruned, and relinquished entries all hand their allocation to the
    /// next speculative seal.
    pub fn into_ciphertext_buffer(self) -> Vec<u8> {
        self.sealed.bytes
    }
}

/// IV-ordered queue of speculative ciphertext.
///
/// Validation cookies are *not* allocated here: the page registry and its
/// fault queue are shared across sessions, so cookies come from the
/// runtime's global `CookieCounter` — per-queue counters would collide
/// between sessions and misroute faults.
#[derive(Debug, Default)]
pub struct SpeculationQueue {
    entries: VecDeque<SpecEntry>,
}

impl SpeculationQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        SpeculationQueue::default()
    }

    /// Number of queued entries (valid or not).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The IV one past the last queued entry, or `fallback` if empty.
    pub fn next_iv_after(&self, fallback: u64) -> u64 {
        self.entries.back().map(|e| e.iv + 1).unwrap_or(fallback)
    }

    /// Pushes an entry. IVs must be strictly increasing; gaps are allowed —
    /// they are the slack reserved for interleaved small I/O (§5.1), closed
    /// by NOP padding if no small transfer consumes them.
    ///
    /// # Panics
    ///
    /// Panics if the entry's IV does not exceed the queue tail's.
    pub fn push(&mut self, entry: SpecEntry) {
        if let Some(back) = self.entries.back() {
            assert!(
                entry.iv > back.iv,
                "speculative IVs must be strictly increasing"
            );
        }
        self.entries.push_back(entry);
    }

    /// Chunks currently queued (for predictor exclusion), valid entries
    /// only.
    pub fn queued_chunks(&self) -> Vec<HostRegion> {
        self.entries
            .iter()
            .filter(|e| e.valid)
            .map(|e| e.chunk)
            .collect()
    }

    /// Finds the earliest valid entry for `chunk`.
    pub fn find(&self, chunk: &HostRegion) -> Option<&SpecEntry> {
        self.entries.iter().find(|e| e.valid && &e.chunk == chunk)
    }

    /// Removes and returns the earliest valid entry for `chunk`.
    pub fn take(&mut self, chunk: &HostRegion) -> Option<SpecEntry> {
        let idx = self
            .entries
            .iter()
            .position(|e| e.valid && &e.chunk == chunk)?;
        self.entries.remove(idx)
    }

    /// Invalidates the entry carrying `cookie` (a write fault fired).
    /// Returns the invalidated chunk if found.
    pub fn invalidate_cookie(&mut self, cookie: u64) -> Option<HostRegion> {
        let entry = self.entries.iter_mut().find(|e| e.cookie == cookie)?;
        entry.valid = false;
        Some(entry.chunk)
    }

    /// Invalidates every valid entry whose plaintext overlaps `region`
    /// (the plaintext was mutated, so *all* ciphertexts of it are stale).
    /// Returns the number of entries newly invalidated.
    pub fn invalidate_overlapping(&mut self, region: HostRegion) -> usize {
        let mut count = 0;
        for entry in self.entries.iter_mut() {
            if entry.valid && entry.chunk.overlaps(&region) {
                entry.valid = false;
                count += 1;
            }
        }
        count
    }

    /// Drops every entry with `iv < min_iv` (consumed or skipped by NOP
    /// padding); returns the dropped entries for unprotection.
    pub fn drop_below(&mut self, min_iv: u64) -> Vec<SpecEntry> {
        let below = self
            .entries
            .iter()
            .position(|e| e.iv >= min_iv)
            .unwrap_or(self.entries.len());
        self.entries.drain(..below).collect()
    }

    /// Clears the whole queue (pipeline relinquish); returns the entries
    /// for unprotection.
    pub fn relinquish(&mut self) -> Vec<SpecEntry> {
        self.entries.drain(..).collect()
    }

    /// Iterates entries in IV order.
    pub fn iter(&self) -> impl Iterator<Item = &SpecEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipellm_crypto::channel::{staging_buffer, ChannelKeys, SecureChannel};
    use pipellm_gpu::memory::HostAddr;
    use std::sync::Arc;

    fn chunk(n: u64) -> HostRegion {
        HostRegion {
            addr: HostAddr(0x1000 * n),
            len: 4096,
        }
    }

    fn entry(iv: u64, chunk_id: u64, cookie: u64) -> SpecEntry {
        let ch = SecureChannel::new(ChannelKeys::from_seed(1));
        let sealed = ch
            .host()
            .tx()
            .seal_speculative_prepared(iv, Arc::from(&[][..]), staging_buffer(b"x"))
            .unwrap();
        SpecEntry {
            chunk: chunk(chunk_id),
            iv,
            sealed,
            len: 4096,
            ready_at: SimTime::ZERO,
            cookie,
            valid: true,
        }
    }

    #[test]
    fn push_requires_increasing_ivs() {
        let mut q = SpeculationQueue::new();
        q.push(entry(5, 1, 1));
        q.push(entry(6, 2, 2));
        q.push(entry(9, 3, 3)); // gap: slack for small I/O
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_iv_after(0), 10);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_iv_panics() {
        let mut q = SpeculationQueue::new();
        q.push(entry(5, 1, 1));
        q.push(entry(5, 2, 2));
    }

    #[test]
    fn find_and_take_earliest_valid() {
        let mut q = SpeculationQueue::new();
        q.push(entry(1, 7, 1));
        q.push(entry(2, 8, 2));
        q.push(entry(3, 7, 3)); // same chunk queued again later
        assert_eq!(q.find(&chunk(7)).unwrap().iv, 1);
        let taken = q.take(&chunk(7)).unwrap();
        assert_eq!(taken.iv, 1);
        assert_eq!(
            q.find(&chunk(7)).unwrap().iv,
            3,
            "second occurrence remains"
        );
    }

    #[test]
    fn invalidation_hides_entries() {
        let mut q = SpeculationQueue::new();
        q.push(entry(1, 7, 41));
        assert_eq!(q.invalidate_cookie(41), Some(chunk(7)));
        assert!(q.find(&chunk(7)).is_none());
        assert!(q.take(&chunk(7)).is_none());
        assert_eq!(q.invalidate_cookie(99), None);
        // Invalid entries do not appear in the exclusion list.
        assert!(q.queued_chunks().is_empty());
        assert_eq!(q.len(), 1, "entry still occupies its IV slot");
    }

    #[test]
    fn drop_below_prunes_consumed_ivs() {
        let mut q = SpeculationQueue::new();
        for iv in 1..=5 {
            q.push(entry(iv, iv, iv));
        }
        let dropped = q.drop_below(4);
        assert_eq!(dropped.len(), 3);
        assert_eq!(q.len(), 2);
        assert_eq!(q.iter().next().unwrap().iv, 4);
    }

    #[test]
    fn relinquish_empties_queue() {
        let mut q = SpeculationQueue::new();
        q.push(entry(1, 1, 1));
        q.push(entry(2, 2, 2));
        let dropped = q.relinquish();
        assert_eq!(dropped.len(), 2);
        assert!(q.is_empty());
        // After a relinquish, IVs restart from the fallback.
        assert_eq!(q.next_iv_after(10), 10);
    }
}
