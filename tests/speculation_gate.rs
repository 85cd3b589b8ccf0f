//! The speculation gate: a session seals ahead only while its predictor's
//! recent shadow accuracy is at or above break-even, so speculation is an
//! optimisation that degrades to on-demand service and never below native
//! CC.
//!
//! 1. **Never worse** — over seeded traces (LIFO, FIFO, uniformly random,
//!    per-episode mixes, phase shifts between them; 2–10 chunks), PipeLLM's
//!    virtual completion time is at most native CC's on the same trace plus
//!    [`WARM_UP_SEALS`] chunk seals, every reload is bit-exact, and the
//!    channel endpoints end in IV lockstep.
//! 2. **Reopens** — one window after a random trace turns LIFO, reloads
//!    hit pre-sealed ciphertext again.
//! 3. **Per session** — a random tenant on the same runtime does not change
//!    what a LIFO tenant speculates or hits.

use pipellm_repro::gpu::context::CudaContext;
use pipellm_repro::gpu::memory::Payload;
use pipellm_repro::gpu::runtime::{CcNativeRuntime, GpuRuntime, SessionedRuntime};
use pipellm_repro::runtime::session::SHADOW_WINDOW;
use pipellm_repro::runtime::{PipeLlmConfig, PipeLlmRuntime, PipeLlmStats};
use pipellm_repro::sim::rng::SimRng;
use pipellm_repro::sim::time::SimTime;
use proptest::prelude::*;

/// Just above the 128 KiB swap threshold: the smallest chunk the pipeline
/// speculates on, where fixed per-operation costs weigh the most. Traces
/// at this size carry real bytes.
const SMALL: usize = 132 * 1024;

/// The benchmark's chunk size, where a wasted seal costs the most. Traces
/// at this size are length-only: sizes alone enter the timing model.
const LARGE: usize = 1 << 20;

/// ε of the never-worse invariant, in single-worker seals of one chunk. The
/// gate closes after `SHADOW_WINDOW - SHADOW_BREAK_EVEN + 1` = 5 wrong
/// guesses, and until then each wrong guess can cost a queue's worth of
/// crypto-pool time; a trace that ends right there has nothing to win it
/// back with.
const WARM_UP_SEALS: u32 = 8;

/// How one episode's chunks come back.
#[derive(Debug, Clone, Copy)]
enum Policy {
    Lifo,
    Fifo,
    Random,
    /// One of the three above, drawn afresh for every episode.
    Mixed,
}

/// Reload orders for `phases` of `(policy, episodes)` over `chunks` chunks.
fn orders(seed: u64, chunks: usize, phases: &[(Policy, usize)]) -> Vec<Vec<usize>> {
    let mut rng = SimRng::seed_from(seed);
    let mut out = Vec::new();
    for &(policy, episodes) in phases {
        for _ in 0..episodes {
            let policy = match policy {
                Policy::Mixed => {
                    [Policy::Lifo, Policy::Fifo, Policy::Random][rng.next_below(3) as usize]
                }
                fixed => fixed,
            };
            let mut order: Vec<usize> = (0..chunks).collect();
            match policy {
                Policy::Lifo => order.reverse(),
                Policy::Fifo => {}
                Policy::Random | Policy::Mixed => rng.shuffle(&mut order),
            }
            out.push(order);
        }
    }
    out
}

/// What the trace driver needs beyond [`GpuRuntime`]: the simulated
/// device's memory, to play the kernel that produces a chunk and to read a
/// reload back.
trait Device: GpuRuntime {
    fn ctx(&mut self) -> &mut CudaContext;
}

impl Device for PipeLlmRuntime {
    fn ctx(&mut self) -> &mut CudaContext {
        self.context_mut()
    }
}

impl Device for CcNativeRuntime {
    fn ctx(&mut self) -> &mut CudaContext {
        self.context_mut()
    }
}

/// The bytes chunk `i` of episode `tag` holds on the device.
fn chunk_bytes(len: usize, tag: u64, i: usize) -> Vec<u8> {
    let mut bytes = vec![(tag as u8).wrapping_mul(31).wrapping_add(i as u8); len];
    bytes[..8].copy_from_slice(&(tag << 8 | i as u64).to_le_bytes());
    bytes
}

/// One episode: every chunk is swapped out, then reloaded in `order`. With
/// `real` bytes each chunk is produced on the device first and each reload
/// is compared with what was swapped out.
fn episode<R: Device>(
    rt: &mut R,
    mut now: SimTime,
    (len, real): (usize, bool),
    tag: u64,
    order: &[usize],
) -> SimTime {
    let mut hosts = Vec::with_capacity(order.len());
    for i in 0..order.len() {
        let dev = rt.alloc_device(len as u64).unwrap();
        let host = if real {
            let produced = Payload::Real(chunk_bytes(len, tag, i));
            rt.ctx().device_memory_mut().store(dev, produced).unwrap();
            rt.alloc_host(Payload::Real(vec![0u8; len]))
        } else {
            rt.alloc_host(Payload::virtual_of(len as u64))
        };
        now = rt.memcpy_dtoh(now, host, dev).unwrap();
        rt.free_device(dev).unwrap();
        hosts.push(host);
    }
    now = rt.synchronize(now);
    for &i in order {
        let dev = rt.alloc_device(len as u64).unwrap();
        now = rt.memcpy_htod(now, dev, hosts[i]).unwrap();
        now = rt.synchronize(now);
        if real {
            assert_eq!(
                rt.ctx().device_memory().get(dev).unwrap(),
                &Payload::Real(chunk_bytes(len, tag, i)),
                "episode {tag} chunk {i} reloaded wrong bytes"
            );
        }
        rt.free_device(dev).unwrap();
    }
    for host in hosts {
        rt.free_host(host.addr).unwrap();
    }
    now
}

/// Virtual completion time of the whole trace on `rt`.
fn trace<R: Device>(rt: &mut R, bytes: (usize, bool), orders: &[Vec<usize>]) -> SimTime {
    let mut now = SimTime::ZERO;
    for (tag, order) in orders.iter().enumerate() {
        now = episode(rt, now, bytes, tag as u64, order);
    }
    now
}

fn runtime() -> PipeLlmRuntime {
    PipeLlmRuntime::new(PipeLlmConfig {
        device_capacity: 1 << 30,
        ..PipeLlmConfig::default()
    })
}

fn native_cc() -> CcNativeRuntime {
    let cfg = PipeLlmConfig::default();
    CcNativeRuntime::new(cfg.timing, 1 << 30, cfg.crypto_threads)
}

fn in_lockstep(rt: &PipeLlmRuntime) -> bool {
    rt.session_ids()
        .into_iter()
        .all(|sid| rt.session_counters(sid).is_some_and(|c| c.in_lockstep()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pipellm_is_never_worse_than_native_cc(
        chunks in 2usize..11,
        phases in proptest::collection::vec((0usize..4, 1usize..7), 1..5),
        seed in any::<u64>(),
    ) {
        let phases: Vec<(Policy, usize)> = phases
            .into_iter()
            .map(|(p, n)| ([Policy::Lifo, Policy::Fifo, Policy::Random, Policy::Mixed][p], n))
            .collect();
        let orders = orders(seed, chunks, &phases);
        for bytes in [(SMALL, true), (LARGE, false)] {
            let mut rt = runtime();
            let pipellm = trace(&mut rt, bytes, &orders);
            prop_assert!(in_lockstep(&rt), "IV lockstep lost: {phases:?}");
            let cc = trace(&mut native_cc(), (bytes.0, false), &orders);
            let seal = PipeLlmConfig::default().timing.crypto.seal_time(bytes.0 as u64);
            prop_assert!(
                pipellm <= cc + seal * WARM_UP_SEALS,
                "PipeLLM {pipellm} > native CC {cc} + {WARM_UP_SEALS} x {seal:?} on {chunks} \
                 chunks of {} bytes x {phases:?} (seed {seed}): {}",
                bytes.0,
                rt.spec_stats()
            );
        }
    }
}

#[test]
fn a_random_trace_turning_lifo_reopens_within_one_window() {
    const CHUNKS: usize = 8;
    let window_episodes = SHADOW_WINDOW as usize / CHUNKS;
    let lifo_episodes = 12;
    let trace = orders(
        41,
        CHUNKS,
        &[
            (Policy::Random, 24),
            (Policy::Lifo, window_episodes + lifo_episodes),
        ],
    );
    let mut rt = runtime();
    let mut now = SimTime::ZERO;
    let mut at_shift = PipeLlmStats::default();
    let mut reopened = PipeLlmStats::default();
    for (tag, order) in trace.iter().enumerate() {
        if tag == 24 {
            at_shift = rt.spec_stats();
        }
        if tag == 24 + window_episodes {
            reopened = rt.spec_stats();
        }
        now = episode(&mut rt, now, (SMALL, true), tag as u64, order);
    }
    let done = rt.spec_stats();
    // While random, the gate held: far fewer seals than swap-ins, few wasted.
    let random_swap_ins = 24 * CHUNKS as u64;
    assert!(
        at_shift.speculated < random_swap_ins / 2 && at_shift.wasted_entries * 4 < random_swap_ins,
        "gate must hold on a random trace: {at_shift}"
    );
    assert!(at_shift.on_demand > random_swap_ins / 2, "{at_shift}");
    // One window after the shift, LIFO reloads hit again.
    let served = (lifo_episodes * CHUNKS) as u64;
    let hits = done.spec_hits - reopened.spec_hits;
    assert!(
        hits * 10 >= served * 9,
        "{hits} of {served} reloads hit after the window: {done}"
    );
    assert_eq!(done.wasted_entries, reopened.wasted_entries, "{done}");
    assert!(in_lockstep(&rt));
}

#[test]
fn a_random_tenant_does_not_move_a_lifo_tenants_counters() {
    const CHUNKS: usize = 6;
    const EPISODES: usize = 16;
    let lifo = orders(1, CHUNKS, &[(Policy::Lifo, EPISODES)]);
    let random = orders(2, CHUNKS, &[(Policy::Random, EPISODES)]);

    let mut alone = runtime();
    let mut now = SimTime::ZERO;
    for (tag, order) in lifo.iter().enumerate() {
        now = episode(&mut alone, now, (SMALL, true), tag as u64, order);
    }
    let single = alone.spec_stats();
    assert!(
        single.spec_hits as usize >= (EPISODES - 1) * CHUNKS,
        "{single}"
    );

    let mut shared = runtime();
    let a = shared.active_session();
    let b = shared.open_session();
    let mut now = SimTime::ZERO;
    for tag in 0..EPISODES {
        shared.set_session(a).unwrap();
        now = episode(
            &mut shared,
            now,
            (SMALL, true),
            100 + tag as u64,
            &random[tag],
        );
        shared.set_session(b).unwrap();
        now = episode(&mut shared, now, (SMALL, true), tag as u64, &lifo[tag]);
    }
    let noisy = shared.session_spec_stats(a).unwrap();
    let quiet = shared.session_spec_stats(b).unwrap();
    assert_eq!(
        (quiet.spec_hits, quiet.speculated, quiet.wasted_entries),
        (single.spec_hits, single.speculated, single.wasted_entries),
        "the gate is per-session state: {quiet} vs alone {single}"
    );
    assert!(
        noisy.on_demand > noisy.spec_hits,
        "tenant A is gated: {noisy}"
    );
    assert!(in_lockstep(&shared));
}
