//! The six workloads: what each runs, at which size, and how `--seed`
//! becomes its inputs.
//!
//! All six are closed, offline-batch loads: the program is handed every
//! micro-batch (or the whole swap trace) up front and the harness waits for
//! the last result. Sizes are part of the workload definition; changing one
//! makes numbers incomparable with earlier runs.

use crate::sut::{NetPipelineSpec, SupervisedOptions};
use std::time::Duration;

/// Full sizes for measurement, or a seconds-long pass for the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    NetSmall,
    NetLarge,
    NetSupervised,
    NetFailover,
    SwapLifo,
    SwapRandom,
}

/// A workload's name and the reason it exists (the same line
/// `BENCHMARK.json` carries).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        kind: Kind::NetSmall,
        name: "net_small",
        why: "closed batch, 2-stage TCP, 4 KiB x 8192, resend sweep off: per-frame machinery (pumps, event loops, acks, relay, in-flight bookkeeping) is >90% of wall; net-layer work shows here only",
    },
    Workload {
        kind: Kind::NetLarge,
        name: "net_large",
        why: "closed batch, 2-stage TCP, 1 MiB x 256, resend sweep off: per-byte cost dominates (seal/open, Vec copies in encode/decode/relay, socket bandwidth, memory per in-flight frame)",
    },
    Workload {
        kind: Kind::NetSupervised,
        name: "net_supervised",
        why: "closed batch, supervised 2-stage TCP at default NetTuning, admission window 32, 64 KiB x 2048, no faults: the production configuration; shows the supervision tax",
    },
    Workload {
        kind: Kind::NetFailover,
        name: "net_failover",
        why: "net_supervised (64 KiB x 2048) with two seeded worker hangs, one per stage: detection, readmission, checkpoint restore, rekey, redial; a fast-path gain that costs recovery shows here",
    },
    Workload {
        kind: Kind::SwapLifo,
        name: "swap_lifo",
        why: "closed trace, PipeLlmRuntime with 2 crypto threads, real 1 MiB chunks, 8 swapped out then reloaded LIFO x 200 episodes: speculation hits ~100%, wall is crypto-bound, net untouched",
    },
    Workload {
        kind: Kind::SwapRandom,
        name: "swap_random",
        why: "swap_lifo with the reload order shuffled by the seeded RNG: misprediction path (NOP padding, relinquish, wasted pre-seals); speculating less to buy wall time shows here",
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64 finalizer: decorrelates the sub-seeds drawn from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic generator for harness-side choices (swap order, chunk
/// bytes); the program never sees it, only what it generated.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0, 0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

const STAGES: u32 = 2;

/// Parameters of a `net_*` workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetParams {
    pub micro_batches: u32,
    pub activation_bytes: usize,
    pub supervised: bool,
    /// Minimal (N = 1) lifecycles each run times for `fixed_ms`, about 200 ms
    /// apiece; 0 on the workloads that do not report it.
    pub fixed_lifecycles: usize,
    /// Per-fresh-frame worker fault probability (`net_failover` only).
    pub worker_fault_rate: f64,
    /// How many stages, from stage 0 up, hang once (`net_failover` only).
    pub hung_stages: u32,
}

/// Parameters of a `swap_*` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapParams {
    pub episodes: u32,
    pub chunks: usize,
    pub chunk_bytes: usize,
    pub shuffled: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Params {
    Net(NetParams),
    Swap(SwapParams),
}

impl Kind {
    pub fn params(self, scale: Scale) -> Params {
        let full = scale == Scale::Full;
        let net = |micro_batches, activation_bytes, supervised| NetParams {
            micro_batches,
            activation_bytes,
            supervised,
            fixed_lifecycles: 0,
            worker_fault_rate: 0.0,
            hung_stages: 0,
        };
        let fixed_lifecycles = if full { 4 } else { 1 };
        let swap = |shuffled| {
            Params::Swap(SwapParams {
                episodes: if full { 200 } else { 6 },
                chunks: if full { 8 } else { 4 },
                chunk_bytes: if full { 1 << 20 } else { 64 << 10 },
                shuffled,
            })
        };
        Params::Net(match (self, full) {
            (Kind::NetSmall, true) => NetParams {
                fixed_lifecycles,
                ..net(8192, 4 << 10, false)
            },
            (Kind::NetSmall, false) => NetParams {
                fixed_lifecycles,
                ..net(32, 4 << 10, false)
            },
            (Kind::NetLarge, true) => net(256, 1 << 20, false),
            (Kind::NetLarge, false) => net(8, 64 << 10, false),
            (Kind::NetSupervised, true) => NetParams {
                fixed_lifecycles,
                ..net(2048, 64 << 10, true)
            },
            (Kind::NetSupervised, false) => NetParams {
                fixed_lifecycles,
                ..net(32, 8 << 10, true)
            },
            (Kind::NetFailover, true) => NetParams {
                worker_fault_rate: 0.002,
                hung_stages: 2,
                ..net(2048, 64 << 10, true)
            },
            // One hang keeps the unit tests short (detection takes 600 ms
            // and a hung thread lingers 1.2 s); 32 frames need a higher rate
            // for it to land.
            (Kind::NetFailover, false) => NetParams {
                worker_fault_rate: 0.1,
                hung_stages: 1,
                ..net(32, 8 << 10, true)
            },
            (Kind::SwapLifo, _) => return swap(false),
            (Kind::SwapRandom, _) => return swap(true),
        })
    }
}

impl Params {
    /// Operations one run attempts: micro-batches, or swap-out/reload pairs.
    pub fn attempted(&self) -> u64 {
        match self {
            Params::Net(p) => u64::from(p.micro_batches),
            Params::Swap(p) => u64::from(p.episodes) * p.chunks as u64,
        }
    }

    /// Payload bytes a fully correct run delivers: each activation once
    /// end to end, or each chunk once out and once back in.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Params::Net(p) => u64::from(p.micro_batches) * p.activation_bytes as u64,
            Params::Swap(p) => 2 * u64::from(p.episodes) * (p.chunks * p.chunk_bytes) as u64,
        }
    }

    /// The exact parameters, for the `--json` artifact.
    pub fn describe(&self) -> Vec<(&'static str, f64)> {
        match self {
            Params::Net(p) => vec![
                ("stages", f64::from(STAGES)),
                ("layers", f64::from(STAGES)),
                ("micro_batches", f64::from(p.micro_batches)),
                ("activation_bytes", p.activation_bytes as f64),
                ("supervised", f64::from(u8::from(p.supervised))),
                ("admission_window", if p.supervised { 32.0 } else { 0.0 }),
                ("fixed_lifecycles", p.fixed_lifecycles as f64),
                ("worker_fault_rate", p.worker_fault_rate),
                ("hung_stages", f64::from(p.hung_stages)),
            ],
            Params::Swap(p) => vec![
                ("episodes", f64::from(p.episodes)),
                ("chunks", p.chunks as f64),
                ("chunk_bytes", p.chunk_bytes as f64),
                ("crypto_threads", CRYPTO_THREADS as f64),
                ("shuffled", f64::from(u8::from(p.shuffled))),
            ],
        }
    }
}

/// Crypto worker threads of the swap runtime (the paper's vLLM setting).
pub const CRYPTO_THREADS: usize = 2;

/// A deployment phase that makes no progress for this long is wedged: the
/// run fails instead of hanging the benchmark (full-size runs take 2-5 s).
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// The deployment spec of a `net_*` workload with `micro_batches` inputs
/// (the workload's own count, 1 for a fixed-cost lifecycle, N/4 for the
/// scaling probe). Faults are off; see [`with_faults`].
pub fn net_spec(p: &NetParams, micro_batches: u32, seed: u64) -> NetPipelineSpec {
    let mut spec = NetPipelineSpec {
        stages: STAGES,
        layers: STAGES,
        iterations: 1,
        micro_batches,
        activation_bytes: p.activation_bytes,
        seed: mix(seed, 1),
        chaos_seed: mix(seed, 2),
        op_timeout: OP_TIMEOUT,
        ..NetPipelineSpec::default()
    };
    if !p.supervised {
        // Nothing bounds the in-flight list of an unsupervised run, so at
        // the default 300 ms resend threshold any run longer than ~0.6 s
        // retransmits frames that are merely queued, and the storm feeds
        // itself until the process is OOM-killed. Supervised runs keep the
        // default: their admission window bounds what is in flight.
        spec.resend_after = spec.op_timeout;
    }
    spec
}

/// Supervision options of the supervised workloads: default tuning, 32
/// sessions in flight.
pub fn supervised_options() -> SupervisedOptions {
    SupervisedOptions {
        admission_window: Some(32),
        ..SupervisedOptions::default()
    }
}

/// Per stage, the `(fresh-frame index, fault label)` of its first worker
/// fault, predicted by rolling fresh copies of the injectors the program
/// will build from the same spec. Only a stage's first incarnation runs
/// with chaos, so the first fault is the only one.
pub fn predict_faults(spec: &NetPipelineSpec) -> Vec<Option<(u32, &'static str)>> {
    (0..spec.stages)
        .map(|stage| {
            let injector = spec.injector_for(stage)?;
            (0..spec.micro_batches)
                .find_map(|frame| injector.roll_worker().map(|f| (frame, f.kind.label())))
        })
        .collect()
}

/// Chaos seeds [`with_faults`] tries before it gives up; a full-size search
/// needs a few hundred.
const SEED_SEARCH_LIMIT: u64 = 100_000;

/// Turns worker faults on and picks the chaos seed. Which frame a fault
/// lands on and whether it is a kill (detected at once through the dead
/// control link) or a hang (detected by the 600 ms heartbeat deadline)
/// changes a 3 s run by up to a second, so a schedule drawn freely from
/// `--seed` would measure the draw, not the program. The harness instead
/// walks seeds derived from `--seed` until the predicted schedule is: each
/// of the first `hung_stages` stages hangs once, stage `s` in eighth
/// `2s + 1` of the run (stage 0 in the second eighth, stage 1 in the
/// fourth), and no other stage is hit. The failovers cannot overlap (stage
/// 1 receives nothing while stage 0 is down) and are early enough that the
/// hung threads, which sleep 1.2 s before they exit and are joined at the
/// end, are gone before a full-size run is. `--seed` still moves each hang
/// within its window.
///
/// Hangs, not the issue's kills: at this commit a killed worker's
/// replacement can receive a `CheckpointReq` while it is still in its
/// handshake, which fails the whole run (1 run in 4 with stage 0 killed
/// mid-run, 1 in 24 with the last stage killed), and the acceptance driver
/// wants workloads on which no operation fails. By the time a hang is
/// detected the data plane has drained, no barrier is broadcast, and the
/// run completes. README.md records the kill failure as a finding.
///
/// # Errors
///
/// No seed within [`SEED_SEARCH_LIMIT`] attempts gives that schedule.
pub fn with_faults(
    mut spec: NetPipelineSpec,
    p: &NetParams,
    seed: u64,
) -> Result<NetPipelineSpec, String> {
    spec.worker_fault_rate = p.worker_fault_rate;
    let n = spec.micro_batches;
    let as_wanted = |stage: u32, fault: &Option<(u32, &'static str)>| match fault {
        Some((at, "stage_hang")) => {
            stage < p.hung_stages && ((2 * stage + 1) * n / 8..(2 * stage + 2) * n / 8).contains(at)
        }
        Some(_) => false,
        None => stage >= p.hung_stages,
    };
    for attempt in 0..SEED_SEARCH_LIMIT {
        spec.chaos_seed = mix(mix(seed, 2), attempt);
        let faults = predict_faults(&spec);
        if (0..)
            .zip(&faults)
            .all(|(stage, fault)| as_wanted(stage, fault))
        {
            return Ok(spec);
        }
    }
    Err(format!(
        "none of {SEED_SEARCH_LIMIT} chaos seeds hangs exactly the first {} stages in their windows",
        p.hung_stages
    ))
}

/// Per-episode reload orders of a swap workload: LIFO, or a seeded shuffle
/// of it.
pub fn swap_orders(p: &SwapParams, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(mix(seed, 3));
    (0..p.episodes)
        .map(|_| {
            let mut order: Vec<usize> = (0..p.chunks).rev().collect();
            if p.shuffled {
                rng.shuffle(&mut order);
            }
            order
        })
        .collect()
}

/// The chunk contents of a swap workload.
pub fn swap_chunks(p: &SwapParams, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(mix(seed, 4));
    (0..p.chunks)
        .map(|_| {
            let mut bytes = Vec::with_capacity(p.chunk_bytes + 8);
            while bytes.len() < p.chunk_bytes {
                bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            bytes.truncate(p.chunk_bytes);
            bytes
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net_params(kind: Kind, scale: Scale) -> NetParams {
        match kind.params(scale) {
            Params::Net(p) => p,
            Params::Swap(_) => panic!("{kind:?} is a net workload"),
        }
    }

    fn swap_params(kind: Kind, scale: Scale) -> SwapParams {
        match kind.params(scale) {
            Params::Swap(p) => p,
            Params::Net(_) => panic!("{kind:?} is a swap workload"),
        }
    }

    #[test]
    fn names_are_unique_and_findable() {
        for w in WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.kind), Some(w.kind));
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn same_seed_gives_same_spec_and_orders() {
        let p = net_params(Kind::NetSmall, Scale::Full);
        let (a, b) = (net_spec(&p, 8192, 7), net_spec(&p, 8192, 7));
        assert_eq!((a.seed, a.chaos_seed), (b.seed, b.chaos_seed));
        assert_eq!(a.micro_batches, 8192);
        assert_eq!(a.resend_after, a.op_timeout, "sweep off when unsupervised");
        assert_ne!(net_spec(&p, 8192, 8).seed, a.seed);

        let sup = net_params(Kind::NetSupervised, Scale::Full);
        let spec = net_spec(&sup, 2048, 7);
        assert_eq!(spec.resend_after, NetPipelineSpec::default().resend_after);

        let s = swap_params(Kind::SwapRandom, Scale::Full);
        assert_eq!(swap_orders(&s, 7), swap_orders(&s, 7));
        assert_ne!(swap_orders(&s, 7), swap_orders(&s, 8));
        assert_eq!(swap_chunks(&s, 7), swap_chunks(&s, 7));
        assert_ne!(swap_chunks(&s, 7), swap_chunks(&s, 8));
    }

    #[test]
    fn lifo_order_ignores_the_seed_and_shuffles_are_permutations() {
        let lifo = swap_params(Kind::SwapLifo, Scale::Full);
        let orders = swap_orders(&lifo, 1);
        assert_eq!(orders, swap_orders(&lifo, 2));
        assert!(orders.iter().all(|o| *o == [7, 6, 5, 4, 3, 2, 1, 0]));

        let random = swap_params(Kind::SwapRandom, Scale::Full);
        let orders = swap_orders(&random, 1);
        assert!(orders.iter().any(|o| *o != [7, 6, 5, 4, 3, 2, 1, 0]));
        for order in orders {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn failover_schedule_is_one_hang_per_faulted_stage_at_every_seed() {
        for scale in [Scale::Full, Scale::Smoke] {
            let p = net_params(Kind::NetFailover, scale);
            let n = p.micro_batches;
            for seed in 0..6 {
                let spec = with_faults(net_spec(&p, n, seed), &p, seed).unwrap();
                let again = with_faults(net_spec(&p, n, seed), &p, seed).unwrap();
                assert_eq!(spec.chaos_seed, again.chaos_seed);
                let faults = predict_faults(&spec);
                assert_eq!(faults.len(), 2);
                for (stage, fault) in (0..).zip(faults) {
                    if stage >= p.hung_stages {
                        assert_eq!(fault, None, "seed {seed} stage {stage}");
                        continue;
                    }
                    let (at, kind) = fault.expect("a faulted stage is hit");
                    assert_eq!(kind, "stage_hang");
                    let window = (2 * stage + 1) * n / 8..(2 * stage + 2) * n / 8;
                    assert!(window.contains(&at), "seed {seed} stage {stage}: {at}");
                }
            }
        }
    }

    #[test]
    fn a_fault_schedule_no_seed_gives_is_an_error() {
        // A zero rate never faults, so no seed can hang a stage.
        let p = NetParams {
            worker_fault_rate: 0.0,
            ..net_params(Kind::NetFailover, Scale::Smoke)
        };
        assert!(with_faults(net_spec(&p, 32, 1), &p, 1).is_err());
    }

    #[test]
    fn payload_accounting() {
        let net = Kind::NetLarge.params(Scale::Full);
        assert_eq!(net.attempted(), 256);
        assert_eq!(net.payload_bytes(), 256 << 20);
        let swap = Kind::SwapLifo.params(Scale::Full);
        assert_eq!(swap.attempted(), 1600);
        assert_eq!(swap.payload_bytes(), 3200 << 20);
    }
}
