//! Integration tests of the encrypted paged KV cache, end to end: the
//! acceptance criteria of the sealed-swap refactor.
//!
//! Swapped-out KV must be genuine AES-GCM ciphertext (bit-exact round
//! trips per session, cross-session opens fail), the speculative
//! pre-decryption pipeline must show a measurable hit rate, and PipeLLM
//! must match or beat native CC at every arrival rate of the vLLM panel.

use pipellm_repro::bench::kvcache;
use pipellm_repro::crypto::channel::{ChannelKeys, SecureChannel};
use pipellm_repro::crypto::kv::{open_kv_group, seal_kv_group};
use pipellm_repro::gpu::memory::Payload;
use pipellm_repro::gpu::runtime::{GpuRuntime, SessionedRuntime};
use pipellm_repro::runtime::{PipeLlmConfig, PipeLlmRuntime};
use pipellm_repro::serving::{MultiTenantDriver, TenantSpec};
use pipellm_repro::sim::time::SimTime;

const CHUNK: u64 = 256 * 1024;

fn pipellm(capacity: u64) -> PipeLlmRuntime {
    PipeLlmRuntime::new(PipeLlmConfig {
        device_capacity: capacity,
        crypto_threads: 2,
        ..PipeLlmConfig::default()
    })
}

#[test]
fn swapped_out_kv_is_genuine_ciphertext_and_roundtrips_per_session() {
    let mut rt = pipellm(1 << 30);
    let mut pairs = Vec::new();
    let mut originals = Vec::new();
    for i in 0..3u8 {
        let dev = rt.alloc_device(CHUNK).unwrap();
        let data = vec![0x30 + i; CHUNK as usize];
        rt.context_mut()
            .device_memory_mut()
            .store(dev, Payload::Real(data.clone()))
            .unwrap();
        let host = rt.alloc_host(Payload::Real(vec![0u8; CHUNK as usize]));
        pairs.push((host, dev));
        originals.push((host, data));
    }
    let now = rt.kv_swap_out(SimTime::ZERO, &pairs).unwrap();
    // Every page's at-rest bytes are ciphertext, not the KV plaintext.
    for (host, data) in &originals {
        let ct = rt
            .active_state()
            .kv_pipeline()
            .ciphertext_of(*host)
            .expect("page pending");
        assert_eq!(ct.len() as u64, CHUNK + 16, "ciphertext plus GCM tag");
        assert_ne!(&ct[..CHUNK as usize], data.as_slice());
    }
    // Round trip is bit-exact once the opens land (forced by reads here).
    for (host, data) in originals {
        rt.host_read(now, host).unwrap();
        assert_eq!(
            rt.context().host().get(host.addr).unwrap().payload(),
            &Payload::Real(data)
        );
    }
    let counters = rt.session_counters(rt.active_session()).unwrap();
    assert!(counters.in_lockstep(), "{counters:?}");
}

#[test]
fn cross_session_kv_open_fails_authentication() {
    // Two tenants' channel keys must not open each other's swapped KV.
    let mut a = SecureChannel::new(ChannelKeys::from_seed(101));
    let mut b = SecureChannel::new(ChannelKeys::from_seed(202));
    let blocks: Vec<Vec<u8>> = (0..2).map(|i| vec![0x60 + i; 512]).collect();
    let refs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
    let sealed = seal_kv_group(a.device_mut().tx_mut(), 0, 9, &refs, &mut Vec::new()).unwrap();
    assert!(open_kv_group(b.host_mut().rx_mut(), sealed.clone()).is_err());
    assert_eq!(
        open_kv_group(a.host_mut().rx_mut(), sealed).unwrap(),
        blocks
    );
}

#[test]
fn pre_decryption_shows_a_measurable_hit_rate_under_swapping() {
    let (rows, rates) = (kvcache::run(&[0.8], 90.0), [0.8]);
    for &rate in &rates {
        let pipellm = rows
            .iter()
            .find(|r| r.rate_rps == rate && r.system == "PipeLLM")
            .expect("PipeLLM row");
        assert!(pipellm.preemptions > 0, "panel must swap at {rate} req/s");
        assert!(
            pipellm.pre_decrypt_rate.unwrap() > 0.5,
            "pre-decryption must dominate: {pipellm:?}"
        );
        assert!(pipellm.sealed_pages.unwrap() > 0);
        assert_eq!(pipellm.lockstep, Some(true));
    }
}

#[test]
fn pipellm_matches_or_beats_native_cc_at_every_rate() {
    let rates = [0.4, 0.8];
    let rows = kvcache::run(&rates, 90.0);
    for &rate in &rates {
        let norm = |label: &str| {
            rows.iter()
                .find(|r| r.rate_rps == rate && r.system == label)
                .map(|r| r.norm_latency_s_per_token)
                .expect("row")
        };
        assert!(
            norm("PipeLLM") <= norm("CC"),
            "PipeLLM lost to CC at {rate} req/s: {} vs {}",
            norm("PipeLLM"),
            norm("CC")
        );
    }
}

#[test]
fn tenants_swap_through_isolated_sealed_pipelines() {
    // Each MultiTenantDriver tenant's swap-outs run through its own
    // session's KV pipeline: per-session sealed pages and pre-decryption
    // accounting, with every channel in lockstep at the end.
    let mut driver = MultiTenantDriver::new(pipellm(8_000_000_000));
    for i in 0..3u64 {
        driver.add_tenant(TenantSpec::new(4.0).requests(16).seed(31 + i));
    }
    let report = driver.run().expect("run completes");
    report.verify_lockstep().expect("lockstep");
    let rt = driver.into_runtime();
    for tenant in &report.tenants {
        let stats = rt
            .session_spec_stats(tenant.session)
            .expect("session stats");
        assert!(
            stats.async_decrypts > 0,
            "{}: every tenant swaps out sealed pages: {stats}",
            tenant.session
        );
        assert!(
            stats.pre_decrypts + stats.decrypt_faults > 0,
            "{}: opens finalize through the pipeline: {stats}",
            tenant.session
        );
    }
}
