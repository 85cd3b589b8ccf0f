//! The `swap_*` workloads: the paper's mechanism on real bytes. Episodes of
//! chunks are swapped out of the device and reloaded through
//! `PipeLlmRuntime`; every reloaded chunk is byte-compared with what was
//! swapped out, outside the measured time.

use crate::run::{peak_rss_kib, process_cpu_ms, RunResult};
use crate::stats::Dist;
use crate::sut::{
    CcNativeRuntime, CcOffRuntime, ChannelKeys, DevicePtr, GpuRuntime, Payload, PipeLlmConfig,
    PipeLlmRuntime, SecureChannel, SessionedRuntime, SimTime,
};
use crate::trace::Recorder;
use crate::workload::{swap_chunks, swap_orders, SwapParams, CRYPTO_THREADS};
use std::time::{Duration, Instant};

fn config(seed: u64) -> PipeLlmConfig {
    PipeLlmConfig {
        crypto_threads: CRYPTO_THREADS,
        seed,
        ..PipeLlmConfig::default()
    }
}

/// What the swap loop measured besides the runtime's own counters.
struct Swapped {
    /// Loop wall minus the harness's own fill and verify time.
    wall: Duration,
    /// Simulated completion time of the trace.
    virt: SimTime,
    /// Reloads whose device bytes differed from what was swapped out, plus
    /// operations the runtime refused.
    wrong: u64,
    error: Option<String>,
}

/// Runs the swap trace on `rt`: per episode, every chunk is placed on the
/// device and swapped out, then the chunks are reloaded in `orders`'
/// sequence. With `chunks` the payloads are real and each reload is
/// compared; without, they are length-only (the virtual-time twins).
fn swap_trace<R: GpuRuntime>(
    rt: &mut R,
    chunk_bytes: usize,
    chunks: Option<&[Vec<u8>]>,
    orders: &[Vec<usize>],
    mut store: impl FnMut(&mut R, DevicePtr, &[u8]) -> Result<(), String>,
    holds: impl Fn(&R, DevicePtr, &[u8]) -> bool,
    rec: &mut Recorder,
) -> Swapped {
    let len = chunk_bytes as u64;
    let count = orders.first().map_or(0, Vec::len);
    let mut now = SimTime::ZERO;
    let mut harness = Duration::ZERO;
    let mut wrong = 0;
    let mut op = 0u64;
    let start = Instant::now();
    let outcome = (|| -> Result<(), String> {
        for order in orders {
            let mut hosts = Vec::with_capacity(count);
            for i in 0..count {
                let fill = Instant::now();
                let dev = rt.alloc_device(len).map_err(|e| e.to_string())?;
                let host = match chunks {
                    Some(chunks) => {
                        store(rt, dev, &chunks[i])?;
                        rt.alloc_host(Payload::Real(vec![0u8; chunk_bytes]))
                    }
                    None => rt.alloc_host(Payload::virtual_of(len)),
                };
                harness += fill.elapsed();
                let span = rec.begin("core", "dtoh", op + i as u64);
                let returned = rt.memcpy_dtoh(now, host, dev);
                rec.end(span);
                now = returned.map_err(|e| e.to_string())?;
                rt.free_device(dev).map_err(|e| e.to_string())?;
                hosts.push(host);
            }
            let span = rec.begin("core", "sync", op);
            now = rt.synchronize(now);
            rec.end(span);
            for &i in order {
                let id = op + i as u64;
                let dev = rt.alloc_device(len).map_err(|e| e.to_string())?;
                let span = rec.begin("core", "htod", id);
                let returned = rt.memcpy_htod(now, dev, hosts[i]);
                rec.end(span);
                now = returned.map_err(|e| e.to_string())?;
                let span = rec.begin("core", "sync", id);
                now = rt.synchronize(now);
                rec.end(span);
                if let Some(chunks) = chunks {
                    let verify = Instant::now();
                    if !holds(rt, dev, &chunks[i]) {
                        wrong += 1;
                    }
                    harness += verify.elapsed();
                }
                rt.free_device(dev).map_err(|e| e.to_string())?;
            }
            for host in hosts {
                rt.free_host(host.addr).map_err(|e| e.to_string())?;
            }
            op += count as u64;
        }
        Ok(())
    })();
    Swapped {
        wall: start.elapsed().saturating_sub(harness),
        virt: now,
        wrong,
        error: outcome.err(),
    }
}

/// Places `bytes` on the device, as if a kernel had produced them.
fn store_on_device(rt: &mut PipeLlmRuntime, dev: DevicePtr, bytes: &[u8]) -> Result<(), String> {
    rt.context_mut()
        .device_memory_mut()
        .store(dev, Payload::Real(bytes.to_vec()))
        .map_err(|e| e.to_string())
}

/// Whether the device buffer holds exactly `bytes`.
fn device_holds(rt: &PipeLlmRuntime, dev: DevicePtr, bytes: &[u8]) -> bool {
    matches!(
        rt.context().device_memory().get(dev),
        Ok(Payload::Real(on_device)) if on_device == bytes
    )
}

/// The trace on the real runtime, real bytes, every reload compared.
fn swap_real(
    rt: &mut PipeLlmRuntime,
    p: &SwapParams,
    chunks: &[Vec<u8>],
    orders: &[Vec<usize>],
    rec: &mut Recorder,
) -> Swapped {
    swap_trace(
        rt,
        p.chunk_bytes,
        Some(chunks),
        orders,
        store_on_device,
        device_holds,
        rec,
    )
}

/// Simulated completion time of the identical trace on a runtime without
/// speculation; payloads are length-only because only sizes enter the
/// timing model.
fn virtual_twin<R: GpuRuntime>(mut rt: R, p: &SwapParams, orders: &[Vec<usize>]) -> SimTime {
    swap_trace(
        &mut rt,
        p.chunk_bytes,
        None,
        orders,
        |_, _, _| Ok(()),
        |_, _, _| true,
        &mut Recorder::new(false),
    )
    .virt
}

fn in_lockstep(rt: &PipeLlmRuntime) -> bool {
    rt.session_counters(rt.active_session())
        .is_some_and(|c| c.in_lockstep())
}

/// One chunk out and back in on a runtime of its own: absorbs CPU-feature
/// detection and gang calibration before anything is timed.
fn warm_up(p: &SwapParams, chunk: &[Vec<u8>], seed: u64) -> Result<(), String> {
    let mut rt = PipeLlmRuntime::new(config(seed));
    let one = SwapParams {
        episodes: 1,
        chunks: 1,
        ..*p
    };
    let swapped = swap_real(&mut rt, &one, chunk, &[vec![0]], &mut Recorder::new(false));
    match swapped.error {
        Some(e) => Err(e),
        None if swapped.wrong > 0 || !in_lockstep(&rt) => {
            Err("reloaded wrong bytes or lost lockstep".to_string())
        }
        None => Ok(()),
    }
}

pub fn run(p: &SwapParams, seed: u64, rec: &mut Recorder, result: &mut RunResult) {
    // --- Set-up (untimed): warm-up, inputs, runtime construction --------
    let span = rec.begin("harness", "setup", 0);
    let start = Instant::now();
    let chunks = swap_chunks(p, seed);
    let orders = swap_orders(p, seed);
    let warm = warm_up(p, &chunks[..1], seed);
    let mut rt = PipeLlmRuntime::new(config(seed));
    result.setup_s = start.elapsed().as_secs_f64();
    rec.end(span);
    if let Err(e) = warm {
        result.fail(result.attempted, format!("warm-up: {e}"));
        return;
    }

    // --- The timed loop -------------------------------------------------
    let cpu = process_cpu_ms();
    let span = rec.begin("core", "run", 0);
    let swapped = swap_real(&mut rt, p, &chunks, &orders, rec);
    rec.end(span);
    result.wall_s = swapped.wall.as_secs_f64();
    result.cpu_ms = process_cpu_ms() - cpu;
    result.peak_rss_kib = peak_rss_kib();

    // --- Verification (clock stopped) -----------------------------------
    if swapped.wrong > 0 {
        let wrong = swapped.wrong;
        result.fail(
            wrong,
            format!("{wrong} reloaded chunks differ from the original"),
        );
    }
    if let Some(e) = &swapped.error {
        result.fail(result.attempted, format!("swap trace aborted: {e}"));
    }
    if !in_lockstep(&rt) {
        result.fail(1, "session IV counters out of lockstep");
    }

    // --- Simulated clock: the same trace with CC off and native CC ------
    let cfg = config(seed);
    let cc_off = virtual_twin(
        CcOffRuntime::new(cfg.timing, cfg.device_capacity, CRYPTO_THREADS),
        p,
        &orders,
    );
    let t_off = cc_off.as_secs_f64();
    let t_pipe = swapped.virt.as_secs_f64();
    if t_off > 0.0 {
        result.virt_overhead_pct = Some(100.0 * (t_pipe - t_off) / t_off);
    }

    if !rec.enabled() {
        return;
    }
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));
    let spans = rec.families();
    for call in ["core.htod", "core.dtoh", "core.sync"] {
        let d = Dist::of(spans.get(call).map_or(&[], Vec::as_slice));
        put(&format!("{call}_call_us_p50"), d.p50);
        put(&format!("{call}_call_us_p95"), d.p95);
    }
    let stats = rt.spec_stats();
    put("core.spec_hit_ratio", stats.success_rate());
    put("core.speculated", stats.speculated as f64);
    put("core.nop_recoveries", stats.nop_recoveries as f64);
    put("core.relinquishes", stats.relinquishes as f64);
    put("core.wasted_entries", stats.wasted_entries as f64);
    put(
        "core.wasted_seal_ratio",
        stats.wasted_entries as f64 / stats.speculated.max(1) as f64,
    );
    put("core.pre_decrypt_ratio", stats.pre_decrypt_rate());
    put("core.decrypt_faults", stats.decrypt_faults as f64);

    // The channel on its own, at chunk size, on the runtime's own engine.
    let mut channel =
        SecureChannel::new(ChannelKeys::from_seed(seed)).with_engine(rt.context().crypto_engine());
    let (mut seal_s, mut open_s) = (0.0, 0.0);
    let probes = 32usize.min(p.episodes as usize * p.chunks);
    for i in 0..probes {
        let plain = &chunks[i % chunks.len()];
        let t = Instant::now();
        let sealed = channel.host_mut().seal(plain);
        seal_s += t.elapsed().as_secs_f64();
        let opened = sealed.and_then(|sealed| {
            let t = Instant::now();
            let opened = channel.device_mut().open(&sealed);
            open_s += t.elapsed().as_secs_f64();
            opened
        });
        if opened.as_deref().ok() != Some(plain.as_slice()) {
            result.fail(1, "channel probe round trip returned wrong bytes");
            break;
        }
    }
    let probed_mib = (probes * p.chunk_bytes) as f64 / (1u64 << 20) as f64;
    let (seal_rate, open_rate) = (probed_mib / seal_s, probed_mib / open_s);
    put("crypto.channel_seal_mib_s", seal_rate);
    put("crypto.channel_open_mib_s", open_rate);
    // Every payload byte is sealed once and opened once.
    let moved_mib = 2.0 * result.attempted as f64 * p.chunk_bytes as f64 / (1u64 << 20) as f64;
    put(
        "crypto.floor_share",
        moved_mib * (1.0 / seal_rate + 1.0 / open_rate) / result.wall_s,
    );

    let cc_native = virtual_twin(
        CcNativeRuntime::new(cfg.timing, cfg.device_capacity, CRYPTO_THREADS),
        p,
        &orders,
    );
    put("gpu.virt_total_ms", t_pipe * 1e3);
    put("gpu.virt_total_ms_ccoff", t_off * 1e3);
    put("gpu.virt_total_ms_cc", cc_native.as_secs_f64() * 1e3);
    put(
        "gpu.virt_io_stall_ms",
        rt.gpu_io_stall().as_secs_f64() * 1e3,
    );
    put(
        "proc.cpu_ms_per_op",
        result.cpu_ms / result.attempted as f64,
    );
    result.layer = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Kind, Params, Scale};

    fn smoke(kind: Kind) -> SwapParams {
        match kind.params(Scale::Smoke) {
            Params::Swap(p) => p,
            Params::Net(_) => panic!("{kind:?} is a swap workload"),
        }
    }

    #[test]
    fn a_reload_compared_against_the_wrong_bytes_is_a_failure() {
        let p = smoke(Kind::SwapLifo);
        let chunks = swap_chunks(&p, 5);
        let orders = swap_orders(&p, 5);
        let mut rt = PipeLlmRuntime::new(config(5));
        let good = swap_real(&mut rt, &p, &chunks, &orders, &mut Recorder::new(false));
        assert_eq!((good.wrong, good.error), (0, None));
        assert!(in_lockstep(&rt));

        // Same trace, but the harness stores chunk bytes with one bit
        // flipped: every reload must now be counted.
        let mut rt = PipeLlmRuntime::new(config(5));
        let bad = swap_trace(
            &mut rt,
            p.chunk_bytes,
            Some(&chunks),
            &orders,
            |rt, dev, bytes| {
                let mut flipped = bytes.to_vec();
                flipped[0] ^= 1;
                store_on_device(rt, dev, &flipped)
            },
            device_holds,
            &mut Recorder::new(false),
        );
        assert_eq!(bad.wrong, u64::from(p.episodes) * p.chunks as u64);
    }

    #[test]
    fn twins_share_the_trace_and_order_the_three_systems() {
        let p = smoke(Kind::SwapRandom);
        let orders = swap_orders(&p, 9);
        let cfg = config(9);
        let off = virtual_twin(
            CcOffRuntime::new(cfg.timing, cfg.device_capacity, CRYPTO_THREADS),
            &p,
            &orders,
        );
        let again = virtual_twin(
            CcOffRuntime::new(cfg.timing, cfg.device_capacity, CRYPTO_THREADS),
            &p,
            &orders,
        );
        let native = virtual_twin(
            CcNativeRuntime::new(cfg.timing, cfg.device_capacity, CRYPTO_THREADS),
            &p,
            &orders,
        );
        assert_eq!(off, again, "simulated time is deterministic");
        assert!(SimTime::ZERO < off && off < native);
    }
}
