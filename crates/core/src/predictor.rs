//! The PipeLLM predictor: guessing the future swap-in sequence.
//!
//! Formally (paper §5.1), the predictor is a function
//! `f([B0..Bn], {Ci..Cj}, IVcur) → (Cnext, IVnext)`: from the batch history
//! of past swap-ins and the set of chunks currently swapped out, produce
//! the next chunk to pre-encrypt. Today's systems exhibit three patterns:
//!
//! - **Repetitive** (model offloading, FlexGen/PEFT): the same chunks recur
//!   in the same cyclic order; predict the successor of the most recent
//!   chunk as seen in the previous cycle (paper Figure 5a).
//! - **FIFO** (layer-wise KV swapping): chunks return in swap-out order.
//! - **LIFO** (request-wise KV swapping, vLLM): the first chunk evicted is
//!   the last reloaded (paper Figure 5b).
//!
//! The predictor scores all three policies online against observed
//! swap-ins and elects the best; ties favour the policy that most recently
//! hit. This keeps it workload-agnostic, as required by user transparency.
//!
//! It also keeps score of *itself*: a rolling window of whether its own
//! guesses named the chunks that actually came back
//! ([`Predictor::shadow_hits`]). Nothing has to be sealed to learn that, so
//! the runtime uses it to decide how deep to speculate (see
//! `SessionState::effective_depth`).

use pipellm_gpu::memory::HostRegion;
use std::collections::VecDeque;

/// A chunk identity: host region of the swapped data. Two swaps of the
/// same region are the same logical chunk.
pub type ChunkId = HostRegion;

/// The swap patterns PipeLLM recognizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Cyclic repetition (model offloading).
    Repetitive,
    /// First swapped out, first swapped in (layer-wise KV).
    Fifo,
    /// Last swapped out, first swapped in (request-wise KV).
    Lifo,
}

/// Online pattern-electing predictor.
#[derive(Debug, Clone)]
pub struct Predictor {
    /// Swap-in history, most recent last (bounded).
    history: VecDeque<ChunkId>,
    /// Chunks currently swapped out to host memory, in swap-out order.
    outstanding: VecDeque<ChunkId>,
    /// Exponential scores per pattern.
    score_rep: f64,
    score_fifo: f64,
    score_lifo: f64,
    /// History capacity.
    capacity: usize,
    /// Score decay per observation.
    decay: f64,
    /// Context length used to disambiguate repetitive successors
    /// (0 = unigram, 1 = bigram, …).
    context_depth: usize,
    /// Shadow score: one bit per scored swap-in, most recent in bit 0, set
    /// when the predictor had named that chunk in advance. Starts all-ones
    /// — a predictor that has not been wrong yet is trusted.
    shadow: u64,
    /// The swap-ins since the last [`Predictor::end_batch`], not yet
    /// folded into `shadow`.
    batch: Batch,
}

/// Shadow-score bookkeeping for one batch of swap-ins (the swap-ins
/// between two synchronizations).
#[derive(Debug, Clone, Default)]
struct Batch {
    /// Swap-ins so far.
    len: usize,
    /// Swap-ins the predictor had named as exactly the next chunk.
    hits: usize,
    /// Swap-ins of a chunk it had not named at all.
    misses: usize,
    /// The outstanding chunks in the order it named them when the batch
    /// began, each marked when it came back out of that order: a hit if
    /// the batch turns out to reach as far down the order as its rank.
    forecast: Vec<(ChunkId, bool)>,
}

impl Default for Predictor {
    fn default() -> Self {
        Predictor::new(512)
    }
}

impl Predictor {
    /// Creates a predictor remembering up to `capacity` past swap-ins.
    pub fn new(capacity: usize) -> Self {
        Predictor {
            history: VecDeque::with_capacity(capacity.max(4)),
            outstanding: VecDeque::new(),
            score_rep: 0.0,
            score_fifo: 0.0,
            score_lifo: 0.0,
            capacity: capacity.max(4),
            decay: 0.9,
            context_depth: 1,
            shadow: u64::MAX,
            batch: Batch::default(),
        }
    }

    /// Sets the n-gram context length for repetitive-pattern prediction.
    ///
    /// Depth 0 is the paper's plain successor heuristic (Figure 5a); depth
    /// 1 (the default) disambiguates forward/backward traversals like
    /// PEFT's training passes; larger depths resolve longer repeated
    /// prefixes — a non-ML instance of the paper's "learn the predictor f"
    /// future work.
    pub fn with_context_depth(mut self, depth: usize) -> Self {
        self.context_depth = depth;
        self
    }

    /// The configured n-gram context length.
    pub fn context_depth(&self) -> usize {
        self.context_depth
    }

    /// The currently elected pattern.
    pub fn pattern(&self) -> Pattern {
        // Ties: prefer Lifo (vLLM's default policy) over Fifo over
        // Repetitive, but only when scores are actually tied.
        let best = self.score_rep.max(self.score_fifo).max(self.score_lifo);
        if best <= 0.0 {
            // No evidence yet: repetitive covers the cold-start case where
            // chunks recur without ever being swapped out (model offload);
            // if chunks are outstanding, LIFO is vLLM's default.
            return if self.outstanding.is_empty() {
                Pattern::Repetitive
            } else {
                Pattern::Lifo
            };
        }
        if self.score_lifo >= best {
            Pattern::Lifo
        } else if self.score_fifo >= best {
            Pattern::Fifo
        } else {
            Pattern::Repetitive
        }
    }

    /// Records a swap-out (device→host) of `chunk`.
    pub fn observe_swap_out(&mut self, chunk: ChunkId) {
        // Re-swapped chunks move to the tail of the outstanding order.
        self.outstanding.retain(|c| c != &chunk);
        self.outstanding.push_back(chunk);
    }

    /// Records an actual swap-in (host→device) of `chunk`, scoring each
    /// policy on whether it would have predicted it — and the predictor as
    /// a whole on whether its own guess, made before the swap-in is folded
    /// in, named the chunk.
    pub fn observe_swap_in(&mut self, chunk: ChunkId) {
        // `predict_next(&[])`, sharing the repetitive walk with the policy
        // scores below.
        let repetitive = self.predict_repetitive(&[]);
        let guess = match self.pattern() {
            Pattern::Repetitive => repetitive,
            Pattern::Fifo => self.outstanding.front().copied(),
            Pattern::Lifo => self.outstanding.back().copied(),
        };
        if self.batch.len == 0 {
            let named = self.predict_sequence(self.outstanding.len(), &[]);
            self.batch.forecast = named.into_iter().map(|c| (c, false)).collect();
        }
        let batch = &mut self.batch;
        batch.len += 1;
        if guess == Some(chunk) {
            batch.hits += 1;
        } else if let Some(slot) = batch
            .forecast
            .iter_mut()
            .find(|(c, seen)| *c == chunk && !seen)
        {
            slot.1 = true;
        } else if guess.is_some() {
            // A predictor with no guess at all (cold start) abstains: it
            // would have sealed nothing, so nothing is held against it.
            batch.misses += 1;
        }
        let rep_hit = repetitive == Some(chunk);
        let fifo_hit = self.outstanding.front() == Some(&chunk);
        let lifo_hit = self.outstanding.back() == Some(&chunk);
        self.score_rep = self.score_rep * self.decay + f64::from(u8::from(rep_hit));
        self.score_fifo = self.score_fifo * self.decay + f64::from(u8::from(fifo_hit));
        self.score_lifo = self.score_lifo * self.decay + f64::from(u8::from(lifo_hit));
        self.outstanding.retain(|c| c != &chunk);
        if self.history.len() == self.capacity {
            self.history.pop_front();
        }
        self.history.push_back(chunk);
    }

    /// Closes the current batch of swap-ins (the application synchronized)
    /// and folds it into the shadow score. A swap-in is a hit when the
    /// predictor had named exactly that chunk next, or — order within a
    /// batch being free, because requests are re-ordered against the queue
    /// (§5.3) — had named it among the batch's first *n* outstanding
    /// chunks, *n* being the batch's size. With a synchronization after
    /// every swap-in the two are the same rule.
    pub fn end_batch(&mut self) {
        let Batch {
            len,
            mut hits,
            mut misses,
            forecast,
        } = std::mem::take(&mut self.batch);
        for (rank, _) in forecast.iter().enumerate().filter(|(_, (_, seen))| *seen) {
            if rank < len {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        for i in 0..(hits + misses).min(64) {
            self.shadow = self.shadow << 1 | u64::from(i < hits);
        }
    }

    /// How many of the last `window` (≤ 64) scored swap-ins the predictor
    /// had named in advance. Nothing is sealed to learn this: it is the
    /// accuracy speculation *would* have, whether or not any is running.
    pub fn shadow_hits(&self, window: u32) -> u32 {
        (self.shadow & (u64::MAX >> (64 - window.clamp(1, 64)))).count_ones()
    }

    /// Removes a chunk from tracking entirely (freed host memory).
    pub fn forget(&mut self, chunk: &ChunkId) {
        self.outstanding.retain(|c| c != chunk);
    }

    /// Predicts the next swap-in chunk, skipping chunks in `exclude`
    /// (already speculatively queued).
    pub fn predict_next(&self, exclude: &[ChunkId]) -> Option<ChunkId> {
        match self.pattern() {
            Pattern::Repetitive => self.predict_repetitive(exclude),
            Pattern::Fifo => self
                .outstanding
                .iter()
                .find(|c| !exclude.contains(c))
                .copied(),
            Pattern::Lifo => self
                .outstanding
                .iter()
                .rev()
                .find(|c| !exclude.contains(c))
                .copied(),
        }
    }

    /// Predicts a whole lookahead sequence of up to `depth` chunks using
    /// the elected pattern, continuing from the most recent observation.
    ///
    /// For FIFO/LIFO the sequence drains the outstanding set (minus
    /// `exclude`); a chunk cannot be reloaded twice. For the repetitive
    /// pattern the sequence *walks the cycle* and may legitimately repeat a
    /// chunk (the same layer streams in again next pass), so `exclude` is
    /// not applied there.
    pub fn predict_sequence(&self, depth: usize, exclude: &[ChunkId]) -> Vec<ChunkId> {
        self.predict_sequence_from(self.pattern(), depth, exclude, None)
    }

    /// Like [`Predictor::predict_sequence`] but with an explicit pattern
    /// (used by the misprediction ablation) and an optional `anchor`: the
    /// last chunk already speculatively queued, from which a repetitive
    /// walk continues instead of restarting at the last observation.
    pub fn predict_sequence_from(
        &self,
        pattern: Pattern,
        depth: usize,
        exclude: &[ChunkId],
        anchor: Option<(Option<ChunkId>, ChunkId)>,
    ) -> Vec<ChunkId> {
        match pattern {
            Pattern::Repetitive => {
                let mut picked = Vec::with_capacity(depth);
                let len = self.history.len();
                let history_anchor = || {
                    self.history.back().map(|&c| {
                        (
                            if len >= 2 {
                                self.history.get(len - 2).copied()
                            } else {
                                None
                            },
                            c,
                        )
                    })
                };
                let (prev, mut cursor) = match anchor.or_else(history_anchor) {
                    Some(pair) => pair,
                    None => return picked,
                };
                let mut context: Vec<ChunkId> = prev.into_iter().collect();
                for _ in 0..depth {
                    let Some(next) = self.successor_of(&context, cursor, &[]) else {
                        break;
                    };
                    picked.push(next);
                    context.push(cursor);
                    if context.len() > self.context_depth.max(1) {
                        context.remove(0);
                    }
                    cursor = next;
                }
                picked
            }
            Pattern::Fifo => self
                .outstanding
                .iter()
                .filter(|c| !exclude.contains(c))
                .take(depth)
                .copied()
                .collect(),
            Pattern::Lifo => self
                .outstanding
                .iter()
                .rev()
                .filter(|c| !exclude.contains(c))
                .take(depth)
                .copied()
                .collect(),
        }
    }

    /// Repetitive prediction: the chunk that followed the most recent
    /// chunk's previous occurrence (paper Figure 5a), disambiguated by up
    /// to [`Predictor::context_depth`] preceding chunks when one chunk has
    /// several successors in history.
    fn predict_repetitive(&self, exclude: &[ChunkId]) -> Option<ChunkId> {
        let mut cursor = *self.history.back()?;
        let mut context: Vec<ChunkId> = self
            .history
            .iter()
            .rev()
            .skip(1)
            .take(self.context_depth)
            .rev()
            .copied()
            .collect();
        // Follow the successor chain past excluded chunks, visiting each
        // chunk at most once to stay finite on cyclic histories.
        let mut visited: Vec<ChunkId> = Vec::new();
        loop {
            let next = self.successor_of(&context, cursor, exclude)?;
            if !exclude.contains(&next) {
                return Some(next);
            }
            if visited.contains(&next) {
                return None;
            }
            visited.push(next);
            context.push(cursor);
            if context.len() > self.context_depth {
                context.remove(0);
            }
            cursor = next;
        }
    }

    /// The chunk that followed `of`'s most recent *completed* occurrence in
    /// history (an occurrence at the very tail has no successor yet and is
    /// skipped in favour of an earlier one).
    ///
    /// Occurrences are ranked by how much of `context` (the chunks that
    /// preceded `of`, oldest first) they match: an n-gram model with
    /// longest-context-wins backoff. Model-offload traversals that visit a
    /// layer in several contexts — e.g. PEFT's forward-then-backward pass
    /// walks the same layers in both directions — are only predictable
    /// with context.
    fn successor_of(
        &self,
        context: &[ChunkId],
        of: ChunkId,
        prefer_not: &[ChunkId],
    ) -> Option<ChunkId> {
        let items: Vec<&ChunkId> = self.history.iter().collect();
        // best[m] holds candidates matching m context chunks.
        let mut best: Option<(usize, ChunkId)> = None; // preferred candidates
        let mut fallback: Option<(usize, ChunkId)> = None; // dispreferred
        for idx in (0..items.len()).rev() {
            if *items[idx] != of {
                continue;
            }
            let Some(next) = items.get(idx + 1) else {
                continue; // tail occurrence: no successor yet
            };
            // Length of the context suffix this occurrence matches.
            let mut matched = 0usize;
            for (k, want) in context.iter().rev().enumerate() {
                match idx.checked_sub(k + 1).and_then(|i| items.get(i)) {
                    Some(got) if **got == *want => matched += 1,
                    _ => break,
                }
            }
            let slot = if prefer_not.contains(next) {
                &mut fallback
            } else {
                &mut best
            };
            // Later occurrences (scanned first) win ties, so only strictly
            // longer matches replace the incumbent.
            if slot.is_none_or(|(m, _)| matched > m) {
                *slot = Some((matched, **next));
            }
            if matched == context.len() && !prefer_not.contains(next) {
                // A full-context match from the most recent occurrence
                // cannot be beaten.
                return Some(**next);
            }
        }
        match (best, fallback) {
            (Some((bm, b)), Some((fm, f))) => Some(if fm > bm { f } else { b }),
            (Some((_, b)), None) => Some(b),
            (None, Some((_, f))) => Some(f),
            (None, None) => None,
        }
    }

    /// Chunks currently swapped out, oldest first.
    pub fn outstanding(&self) -> impl Iterator<Item = &ChunkId> {
        self.outstanding.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipellm_gpu::memory::HostAddr;

    fn chunk(n: u64) -> ChunkId {
        HostRegion {
            addr: HostAddr(0x1000 * n),
            len: 1 << 20,
        }
    }

    #[test]
    fn repetitive_cycle_is_learned() {
        let mut p = Predictor::default();
        // Figure 5a: layers 1, 3, 4 cycle.
        for _ in 0..3 {
            for layer in [1u64, 3, 4] {
                p.observe_swap_in(chunk(layer));
            }
        }
        // Most recent is 4 → predict 1 (start of next cycle).
        assert_eq!(p.pattern(), Pattern::Repetitive);
        assert_eq!(p.predict_next(&[]), Some(chunk(1)));
        p.observe_swap_in(chunk(1));
        assert_eq!(p.predict_next(&[]), Some(chunk(3)));
    }

    #[test]
    fn repetitive_sequence_walks_the_cycle() {
        let mut p = Predictor::default();
        for _ in 0..3 {
            for layer in [1u64, 2, 3, 4] {
                p.observe_swap_in(chunk(layer));
            }
        }
        let seq = p.predict_sequence(6, &[]);
        assert_eq!(
            seq,
            vec![chunk(1), chunk(2), chunk(3), chunk(4), chunk(1), chunk(2)],
            "wraps around the cycle"
        );
    }

    #[test]
    fn lifo_pattern_wins_for_vllm_style_swaps() {
        let mut p = Predictor::default();
        // Repeated evict-reload episodes, always reloading the newest.
        for round in 0..5u64 {
            let a = chunk(round * 10 + 1);
            let b = chunk(round * 10 + 2);
            p.observe_swap_out(a);
            p.observe_swap_out(b);
            p.observe_swap_in(b); // LIFO
            p.observe_swap_in(a);
        }
        assert_eq!(p.pattern(), Pattern::Lifo);
        p.observe_swap_out(chunk(100));
        p.observe_swap_out(chunk(101));
        assert_eq!(p.predict_next(&[]), Some(chunk(101)));
        assert_eq!(
            p.predict_sequence(2, &[]),
            vec![chunk(101), chunk(100)],
            "LIFO sequence pops the stack"
        );
    }

    #[test]
    fn fifo_pattern_wins_for_layerwise_swaps() {
        let mut p = Predictor::default();
        for round in 0..5u64 {
            let a = chunk(round * 10 + 1);
            let b = chunk(round * 10 + 2);
            p.observe_swap_out(a);
            p.observe_swap_out(b);
            p.observe_swap_in(a); // FIFO
            p.observe_swap_in(b);
        }
        assert_eq!(p.pattern(), Pattern::Fifo);
        p.observe_swap_out(chunk(100));
        p.observe_swap_out(chunk(101));
        assert_eq!(p.predict_sequence(2, &[]), vec![chunk(100), chunk(101)]);
    }

    #[test]
    fn cold_start_with_outstanding_chunks_defaults_to_lifo() {
        let mut p = Predictor::default();
        p.observe_swap_out(chunk(1));
        p.observe_swap_out(chunk(2));
        assert_eq!(p.pattern(), Pattern::Lifo);
        assert_eq!(p.predict_next(&[]), Some(chunk(2)));
    }

    #[test]
    fn cold_start_with_no_history_predicts_nothing() {
        let p = Predictor::default();
        assert_eq!(p.predict_next(&[]), None);
        assert!(p.predict_sequence(4, &[]).is_empty());
    }

    #[test]
    fn exclusion_skips_queued_chunks() {
        let mut p = Predictor::default();
        for _ in 0..3 {
            for layer in [1u64, 2, 3] {
                p.observe_swap_in(chunk(layer));
            }
        }
        // 1 is already queued: predict its successor 2 instead.
        assert_eq!(p.predict_next(&[chunk(1)]), Some(chunk(2)));
    }

    #[test]
    fn forget_removes_outstanding_chunk() {
        let mut p = Predictor::default();
        p.observe_swap_out(chunk(1));
        p.forget(&chunk(1));
        assert_eq!(p.predict_next(&[]), None);
    }

    /// PEFT-style palindrome: forward 1..4 then backward 4..1 each epoch.
    fn palindrome_predictor(depth: usize) -> Predictor {
        let mut p = Predictor::new(256).with_context_depth(depth);
        for _ in 0..4 {
            for layer in [1u64, 2, 3, 4, 4, 3, 2, 1] {
                p.observe_swap_in(chunk(layer));
            }
        }
        p
    }

    #[test]
    fn palindromes_need_context_depth_one() {
        // After "... 3 4": forward pass just ended, next is 4 (backward
        // start). A unigram predictor sees 4 follow 3 *and* 2 follow 3.
        let mut uni = palindrome_predictor(0);
        let mut bi = palindrome_predictor(1);
        for p in [&mut uni, &mut bi] {
            for layer in [1u64, 2, 3] {
                p.observe_swap_in(chunk(layer));
            }
        }
        // Bigram context (2, 3) → 4 unambiguously.
        assert_eq!(bi.predict_next(&[]), Some(chunk(4)));
        // And the whole backward walk is predicted correctly.
        assert_eq!(
            bi.predict_sequence(5, &[]),
            vec![chunk(4), chunk(4), chunk(3), chunk(2), chunk(1)]
        );
    }

    #[test]
    fn repeated_prefixes_need_deeper_context() {
        // Cycle "A A B A A C": the successor of (A, A) depends on what
        // preceded the pair — only a depth-2 context resolves it.
        let feed = |p: &mut Predictor| {
            for _ in 0..4 {
                for id in [10u64, 10, 20, 10, 10, 30] {
                    p.observe_swap_in(chunk(id));
                }
            }
            // Mid-cycle: "… 30 | 10 10" → next must be 20.
            p.observe_swap_in(chunk(10));
            p.observe_swap_in(chunk(10));
        };
        let mut deep = Predictor::new(256).with_context_depth(2);
        feed(&mut deep);
        assert_eq!(deep.context_depth(), 2);
        assert_eq!(deep.predict_next(&[]), Some(chunk(20)));
    }

    /// Swaps out `base..base + 4`, then swaps them back in in `order`,
    /// closing a batch after every `batch` swap-ins.
    fn shadow_episode(p: &mut Predictor, base: u64, order: [u64; 4], batch: usize) {
        for i in 0..4 {
            p.observe_swap_out(chunk(base + i));
        }
        for (n, i) in order.into_iter().enumerate() {
            p.observe_swap_in(chunk(base + i));
            if (n + 1) % batch == 0 {
                p.end_batch();
            }
        }
    }

    #[test]
    fn shadow_score_rolls_over_the_predictors_own_guesses() {
        let mut p = Predictor::default();
        assert_eq!(p.shadow_hits(16), 16, "never wrong yet: trusted");
        // Cold start names nothing, so there is nothing to score.
        p.observe_swap_in(chunk(1));
        p.end_batch();
        assert_eq!(p.shadow_hits(16), 16);
        // LIFO reloads the predictor names in advance keep the window full;
        // the forecast is taken *before* the swap-in is folded in — it is
        // the guess a refill would have sealed.
        shadow_episode(&mut p, 10, [3, 2, 1, 0], 1);
        shadow_episode(&mut p, 20, [3, 2, 1, 0], 1);
        assert_eq!(p.shadow_hits(16), 16);
        // An episode reloaded oldest-first while LIFO is elected: three
        // wrong guesses, then the last outstanding chunk — a certain hit.
        shadow_episode(&mut p, 30, [0, 1, 2, 3], 1);
        assert_eq!(p.pattern(), Pattern::Lifo);
        assert_eq!(p.shadow_hits(4), 1);
        assert_eq!(p.shadow_hits(16), 13);
        // Sixteen right guesses later the misses have rolled out.
        for round in 4..8 {
            shadow_episode(&mut p, round * 10, [3, 2, 1, 0], 1);
        }
        assert_eq!(p.shadow_hits(16), 16);
        assert_eq!(p.shadow_hits(64), 61, "a longer window still sees them");
    }

    #[test]
    fn shadow_score_forgives_order_within_a_batch() {
        let mut p = Predictor::default();
        for round in 0..4 {
            shadow_episode(&mut p, round * 10, [3, 2, 1, 0], 1);
        }
        assert_eq!(p.pattern(), Pattern::Lifo);
        // The same wrong order as above, but submitted as one batch: the
        // predictor named this set of four, and re-ordering serves it.
        shadow_episode(&mut p, 40, [0, 1, 2, 3], 4);
        assert_eq!(p.shadow_hits(16), 16);
        // Two batches of two: {0, 1} is not the pair LIFO named first
        // ({3, 2}); {2, 3} is what is left, so it is.
        shadow_episode(&mut p, 50, [0, 1, 2, 3], 2);
        assert_eq!(p.shadow_hits(4), 2);
        assert_eq!(p.shadow_hits(16), 14);
    }

    #[test]
    fn policy_election_adapts_to_shifts() {
        let mut p = Predictor::default();
        // First a FIFO phase...
        for round in 0..4u64 {
            let a = chunk(round * 10 + 1);
            let b = chunk(round * 10 + 2);
            p.observe_swap_out(a);
            p.observe_swap_out(b);
            p.observe_swap_in(a);
            p.observe_swap_in(b);
        }
        assert_eq!(p.pattern(), Pattern::Fifo);
        // ...then a sustained LIFO phase takes over.
        for round in 10..20u64 {
            let a = chunk(round * 10 + 1);
            let b = chunk(round * 10 + 2);
            p.observe_swap_out(a);
            p.observe_swap_out(b);
            p.observe_swap_in(b);
            p.observe_swap_in(a);
        }
        assert_eq!(p.pattern(), Pattern::Lifo);
    }
}
