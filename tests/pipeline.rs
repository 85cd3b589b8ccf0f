//! Acceptance tests for the multi-GPU pipeline-parallel subsystem: N-stage
//! bit-exactness, per-edge channel security, PipeLLM's throughput claim on
//! encrypted inter-stage links, and composability of the cluster with the
//! multi-tenant driver.

use pipellm_repro::crypto::edge::WireEdge;
use pipellm_repro::gpu::cluster::{ClusterConfig, ClusterContext, ClusterRuntime};
use pipellm_repro::gpu::memory::Payload;
use pipellm_repro::gpu::{CcMode, SessionId};
use pipellm_repro::serving::multitenant::{MultiTenantDriver, TenantSpec};
use pipellm_repro::serving::pipeline::{PipelineConfig, PipelineEngine, PipelineSystem};
use pipellm_repro::serving::ServingEngine;
use pipellm_repro::sim::time::SimTime;

fn config(stages: usize, system: PipelineSystem) -> PipelineConfig {
    PipelineConfig {
        stages,
        system,
        micro_batches: 3,
        iterations: 2,
        ..PipelineConfig::default()
    }
}

fn run(config: PipelineConfig) -> (PipelineEngine, pipellm_repro::serving::ServingReport) {
    let mut engine = PipelineEngine::new(config);
    let report = engine.run_to_completion().expect("pipeline run");
    (engine, report)
}

/// Acceptance: the N-stage pipeline output is bit-exact with the
/// single-GPU run for the same seed and workload, for every system and
/// both schedules.
#[test]
fn n_stage_pipeline_is_bit_exact_with_single_gpu() {
    let (single, _) = run(config(1, PipelineSystem::CcNative));
    assert_eq!(single.outputs().len(), 6);
    for stages in [2usize, 4] {
        for system in [
            PipelineSystem::CcOff,
            PipelineSystem::CcNative,
            PipelineSystem::PipeLlm,
        ] {
            let (engine, _) = run(config(stages, system));
            assert_eq!(
                engine.outputs(),
                single.outputs(),
                "{stages}-stage {:?} output must match single-GPU",
                system
            );
        }
    }
}

/// Acceptance: PipeLLM throughput ≥ native CC at every tested stage count
/// (the full 1/2/4/8 sweep is the committed `BENCH_pipeline.json`).
#[test]
fn pipellm_throughput_at_least_native_cc_at_every_stage_count() {
    for stages in [1usize, 2, 4] {
        let (_, cc) = run(config(stages, PipelineSystem::CcNative));
        let (engine, pipellm) = run(config(stages, PipelineSystem::PipeLlm));
        assert!(
            pipellm.tokens_per_sec + 1e-9 >= cc.tokens_per_sec,
            "{stages} stages: PipeLLM {} vs CC {}",
            pipellm.tokens_per_sec,
            cc.tokens_per_sec
        );
        if stages > 1 {
            assert!(
                pipellm.tokens_per_sec > cc.tokens_per_sec,
                "{stages} stages: hiding the per-hop seals must win outright"
            );
        }
        engine.verify_edges().expect("edges in lockstep");
    }
}

/// Acceptance: every device-to-device edge gets its own keys per session,
/// and every (edge, session) IV stream is gapless and in lockstep.
#[test]
fn per_edge_channels_have_distinct_keys_and_gapless_ivs() {
    let (e01, e12) = (WireEdge::between(0, 1), WireEdge::between(1, 2));
    let config = ClusterConfig {
        devices: 3,
        cc: CcMode::On,
        device_capacity: 1 << 30,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterContext::new(config.clone());
    let tenant = cluster.open_session();
    const LEN: u64 = 192 * 1024;

    // Drive both sessions over both chain edges, different op counts per
    // (edge, session, direction).
    let mut bufs = Vec::new();
    for dev in 0..3 {
        let ptr = cluster.device_mut(dev).alloc_device(LEN).unwrap();
        cluster
            .device_mut(dev)
            .device_memory_mut()
            .store(ptr, Payload::Real(vec![dev as u8; LEN as usize]))
            .unwrap();
        bufs.push(ptr);
    }
    let mut ops = std::collections::BTreeMap::new();
    for (session, rounds) in [(SessionId::DEFAULT, 2u64), (tenant, 3u64)] {
        cluster.set_session(session).unwrap();
        for _ in 0..rounds {
            cluster
                .memcpy_dtod_async(SimTime::ZERO, 0, bufs[0], 1, bufs[1])
                .unwrap();
            cluster
                .memcpy_dtod_async(SimTime::ZERO, 1, bufs[1], 2, bufs[2])
                .unwrap();
            cluster
                .memcpy_dtod_async(SimTime::ZERO, 2, bufs[2], 1, bufs[1])
                .unwrap();
        }
        ops.insert(session, rounds);
    }

    for (&session, &rounds) in &ops {
        cluster.set_session(session).unwrap();
        for edge in [e01, e12] {
            let [a, b] = cluster.edge(edge).unwrap();
            assert!(a.mirrors(b), "{edge} {session}: ends out of lockstep");
            // Gapless: the sender counter advanced by exactly the number
            // of transfers this session pushed through this direction.
            assert_eq!(a.tx_iv(), 1 + rounds, "{edge} {session} fwd");
            let expected_back = if edge == e12 { rounds } else { 0 };
            assert_eq!(b.tx_iv(), 1 + expected_back, "{edge} {session} back");
        }
    }

    // Distinct keys per link per session: ciphertext sealed on one
    // (edge, session, epoch) channel opens at that channel's other end
    // and nowhere else. Every probe's receive counter sits at the sealed
    // IV, so only the keys can tell them apart.
    let mut cluster = ClusterContext::new(config);
    let tenant = cluster.open_session();
    let sealed = cluster.edge_mut(e01).unwrap()[0]
        .seal(b"hop", b"activation bytes")
        .unwrap();
    let opens_at_b = |cluster: &mut ClusterContext, edge: WireEdge, session: SessionId| {
        cluster.set_session(session).unwrap();
        let receiver = &mut cluster.edge_mut(edge).unwrap()[1];
        receiver.endpoint_mut().unwrap().open(&sealed).is_ok()
    };
    let probes = [(e01, tenant), (e12, SessionId::DEFAULT)];
    for (i, (edge, session)) in probes.into_iter().enumerate() {
        assert!(!opens_at_b(&mut cluster, edge, session), "probe {i}");
    }
    assert!(opens_at_b(&mut cluster, e01, SessionId::DEFAULT));
    for end in cluster.edge_mut(e01).unwrap() {
        end.rekey_to(1);
    }
    assert!(
        !opens_at_b(&mut cluster, e01, SessionId::DEFAULT),
        "next epoch"
    );
}

/// The cluster composes with the multi-tenant driver: tenants' sessions
/// span every device and every edge, and the per-tenant lockstep
/// verification passes over the cluster runtime.
#[test]
fn cluster_runtime_composes_with_the_multitenant_driver() {
    let cluster = ClusterContext::new(ClusterConfig {
        devices: 2,
        cc: CcMode::On,
        device_capacity: 4_000_000_000,
        ..ClusterConfig::default()
    });
    let mut driver = MultiTenantDriver::new(ClusterRuntime::new(cluster));
    for i in 0..3u64 {
        driver.add_tenant(TenantSpec::new(4.0).requests(6).seed(500 + i));
    }
    let sessions = driver.sessions();
    let report = driver.run().expect("multi-tenant run over the cluster");
    report.verify_lockstep().expect("host channels in lockstep");
    assert_eq!(report.tenants.len(), 3);
    for t in &report.tenants {
        assert_eq!(t.completed, 6);
    }
    // Every tenant session also exists on the inter-GPU edge, untouched
    // (host traffic does not cross it) but keyed and ready.
    let mut rt = driver.into_runtime();
    for session in sessions {
        let cluster = rt.cluster_mut();
        cluster
            .set_session(session)
            .expect("session spans the edge");
        let [a, b] = cluster.edge(WireEdge::between(0, 1)).unwrap();
        assert_eq!((a.tx_iv(), b.tx_iv()), (1, 1));
        assert!(a.mirrors(b));
    }
}
