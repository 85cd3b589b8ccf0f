//! Ablations beyond the paper's figures, probing the design choices
//! DESIGN.md calls out:
//!
//! - **speculation depth**: how many pre-encrypted chunks in flight are
//!   needed before the pipeline saturates;
//! - **crypto threads**: ciphertext production rate vs the PCIe ceiling
//!   for offloading-heavy workloads (the §7.1 discussion);
//! - **speculation off**: the value of pre-encryption with asynchronous
//!   decryption alone (isolates §5.4 from §4.3);
//! - **IV slack**: tolerance to interleaved small I/O (§5.1's "predict a
//!   larger IV" observation).

use crate::runners::{run_flexgen, Scale};
use crate::systems::{System, H100_BYTES};
use crate::table::Table;
use pipellm::{PipeLlmConfig, PipeLlmRuntime, ReuseConfig, ReuseRuntime, SpecFailureMode};
use pipellm_gpu::memory::Payload;
use pipellm_gpu::runtime::GpuRuntime;
use pipellm_llm::ModelSpec;
use pipellm_serving::{
    FlexGenConfig, FlexGenEngine, PeftConfig, PeftEngine, SwapPolicy, VllmConfig, VllmEngine,
};
use pipellm_sim::time::SimTime;
use pipellm_workloads::{ultrachat_like, Dataset, TraceConfig};

/// Sweeps the speculation depth on FlexGen OPT-66B.
pub fn run_depth_sweep(scale: Scale) -> Table {
    let mut table = Table::new(
        "Ablation: speculation depth (FlexGen OPT-66B 32/32, 8 threads)",
        &["spec_depth", "tokens/s", "stall"],
    );
    for depth in [1usize, 2, 4, 6, 12] {
        let rt = PipeLlmRuntime::new(PipeLlmConfig {
            device_capacity: H100_BYTES,
            crypto_threads: 8,
            spec_depth: depth,
            ..PipeLlmConfig::default()
        });
        let mut config = FlexGenConfig::opt_66b(32, 32);
        config.requests = scale.flexgen_requests();
        let mut engine = FlexGenEngine::load(rt, config).expect("config fits");
        let report = engine.run().expect("run");
        table.push(vec![
            depth.to_string(),
            format!("{:.2}", report.tokens_per_sec),
            format!("{:.1?}", report.gpu_io_stall),
        ]);
    }
    table
}

/// Sweeps PipeLLM's crypto thread count on FlexGen OPT-66B.
pub fn run_thread_sweep(scale: Scale) -> Table {
    let mut table = Table::new(
        "Ablation: crypto threads (FlexGen OPT-66B 32/32)",
        &["threads", "tokens/s", "stall"],
    );
    for threads in [1usize, 2, 4, 8, 16] {
        let report = run_flexgen(
            &System::pipellm(threads),
            FlexGenConfig::opt_66b(32, 32),
            scale,
        );
        table.push(vec![
            threads.to_string(),
            format!("{:.2}", report.tokens_per_sec),
            format!("{:.1?}", report.gpu_io_stall),
        ]);
    }
    table
}

/// Compares full PipeLLM against speculation-disabled (async decryption
/// only) and the baselines, on FlexGen OPT-66B.
pub fn run_speculation_value(scale: Scale) -> Table {
    let mut table = Table::new(
        "Ablation: value of speculative pre-encryption (FlexGen OPT-66B 32/32)",
        &["system", "tokens/s", "stall"],
    );
    let mut push = |label: &str, rt: Box<dyn GpuRuntime>| {
        let mut config = FlexGenConfig::opt_66b(32, 32);
        config.requests = scale.flexgen_requests();
        let mut engine = FlexGenEngine::load(rt, config).expect("config fits");
        let report = engine.run().expect("run");
        table.push(vec![
            label.to_string(),
            format!("{:.2}", report.tokens_per_sec),
            format!("{:.1?}", report.gpu_io_stall),
        ]);
    };
    push("w/o CC", System::cc_off().build(H100_BYTES));
    push("CC", System::cc().build(H100_BYTES));
    push(
        "async-decrypt only",
        Box::new(PipeLlmRuntime::new(PipeLlmConfig {
            device_capacity: H100_BYTES,
            crypto_threads: 8,
            failure_mode: SpecFailureMode::Disabled,
            ..PipeLlmConfig::default()
        })),
    );
    push("PipeLLM", System::pipellm(8).build(H100_BYTES));
    table
}

/// Measures IV-slack tolerance to interleaved small I/O: a synthetic loop
/// that swap-streams two chunks per iteration with `smalls` token-sized
/// transfers interleaved, under varying slack.
pub fn run_slack_sweep() -> Table {
    const CHUNK: u64 = 4 << 20;
    let mut table = Table::new(
        "Ablation: IV slack vs interleaved small I/O (2 swaps + 2 smalls per iter)",
        &["iv_slack", "relinquishes", "nops", "spec hits", "success"],
    );
    for slack in [0u64, 1, 2, 4] {
        let mut rt = PipeLlmRuntime::new(PipeLlmConfig {
            device_capacity: 1 << 32,
            iv_slack: slack,
            ..PipeLlmConfig::default()
        });
        let layers: Vec<_> = (0..2)
            .map(|_| rt.alloc_host(Payload::virtual_of(CHUNK)))
            .collect();
        let token_buf = rt.alloc_host(Payload::virtual_of(64));
        let token_dev = rt.alloc_device(64).expect("capacity");
        let staging: Vec<_> = (0..2)
            .map(|_| rt.alloc_device(CHUNK).expect("capacity"))
            .collect();
        let mut now = SimTime::ZERO;
        for _iter in 0..40 {
            for (slot, layer) in staging.iter().zip(&layers) {
                // A small token transfer sneaks in before each swap.
                now = rt
                    .memcpy_htod(now, token_dev, token_buf)
                    .expect("small transfer");
                now = rt.memcpy_htod(now, *slot, *layer).expect("swap transfer");
                now = rt.synchronize(now);
                now = rt.launch_compute(now, std::time::Duration::from_micros(700));
            }
        }
        let stats = rt.spec_stats();
        let io = rt.io_stats();
        table.push(vec![
            slack.to_string(),
            stats.relinquishes.to_string(),
            io.nops.to_string(),
            stats.spec_hits.to_string(),
            format!("{:.0}%", stats.success_rate() * 100.0),
        ]);
    }
    table
}

/// Quantifies the §8.2 ciphertext-reuse strawman against PipeLLM on
/// FlexGen: what the replay-attack surface would buy in throughput.
pub fn run_reuse_tradeoff(scale: Scale) -> Table {
    let mut table = Table::new(
        "Ablation: §8.2 ciphertext reuse (insecure) vs PipeLLM (FlexGen OPT-66B 32/32)",
        &["system", "tokens/s", "stall", "security"],
    );
    let mut push = |label: &str, security: &str, rt: Box<dyn GpuRuntime>| {
        let mut config = FlexGenConfig::opt_66b(32, 32);
        config.requests = scale.flexgen_requests();
        let mut engine = FlexGenEngine::load(rt, config).expect("config fits");
        let report = engine.run().expect("run");
        table.push(vec![
            label.to_string(),
            format!("{:.2}", report.tokens_per_sec),
            format!("{:.1?}", report.gpu_io_stall),
            security.to_string(),
        ]);
    };
    push("w/o CC", "none", System::cc_off().build(H100_BYTES));
    push("CC", "replay-safe", System::cc().build(H100_BYTES));
    push(
        "PipeLLM",
        "replay-safe",
        System::pipellm(8).build(H100_BYTES),
    );
    push(
        "Reuse",
        "REPLAYABLE",
        Box::new(ReuseRuntime::new(ReuseConfig {
            device_capacity: H100_BYTES,
            crypto_threads: 8,
            ..ReuseConfig::default()
        })),
    );
    table
}

/// The paper's §5.1 generality claim: PipeLLM also tracks the layer-wise
/// (FIFO) KV-swap policy, not just vLLM's default request-wise LIFO.
pub fn run_swap_policy(scale: Scale) -> Table {
    let mut table = Table::new(
        "Ablation: KV swap policy — LIFO (request-wise) vs FIFO (layer-wise),          vLLM OPT-30B ShareGPT p=6 @ 0.8 r/s",
        &["policy", "system", "norm latency s/tok", "nops", "preemptions"],
    );
    for policy in [SwapPolicy::RequestLifo, SwapPolicy::LayerFifo] {
        for system in [System::cc_off(), System::cc(), System::pipellm(2)] {
            let trace = TraceConfig::new(Dataset::ShareGpt, 0.8)
                .duration_secs(scale.vllm_duration_secs())
                .parallel(6)
                .max_requests(scale.vllm_max_requests())
                .seed(0xf00)
                .generate();
            let rt = system.build(H100_BYTES);
            let config = VllmConfig {
                policy,
                ..VllmConfig::new(ModelSpec::opt_30b())
            };
            let mut engine = VllmEngine::load(rt, config, "policy ablation").expect("model fits");
            let report = engine.serve(&trace).expect("serve");
            table.push(vec![
                policy.to_string(),
                system.label(),
                format!("{:.4}", report.norm_latency_s_per_token),
                report.io.nops.to_string(),
                report.preemptions.to_string(),
            ]);
        }
    }
    table
}

/// Sweeps the predictor's n-gram context depth on PEFT fine-tuning, whose
/// forward-then-backward layer walk is a palindrome that a context-free
/// successor heuristic cannot disambiguate (the paper's "learn the
/// predictor" future work, §5.1).
pub fn run_context_sweep(scale: Scale) -> Table {
    let mut table = Table::new(
        "Ablation: predictor context depth (PEFT OPT-30B, fwd+bwd layer walk)",
        &["context", "seq/s", "pre-sealed", "relinquishes"],
    );
    let samples = ultrachat_like(scale.peft_samples().min(128), 5);
    for depth in [0usize, 1, 2] {
        let rt = PipeLlmRuntime::new(PipeLlmConfig {
            device_capacity: H100_BYTES,
            crypto_threads: 8,
            spec_depth: 16,
            context_depth: depth,
            ..PipeLlmConfig::default()
        });
        let mut engine =
            PeftEngine::load(rt, PeftConfig::new(ModelSpec::opt_30b())).expect("config fits");
        let report = engine.train(&samples).expect("train");
        let stats = engine.runtime().spec_stats();
        // Over *all* swap-ins: a gated predictor stops guessing rather
        // than guessing wrong, so a weaker one shows in what it leaves to
        // the on-demand path, not in `success_rate()`.
        let in_order = stats.spec_hits + stats.reorders;
        let swap_ins = in_order + stats.nop_recoveries + stats.relinquishes + stats.on_demand;
        table.push(vec![
            depth.to_string(),
            format!("{:.3}", report.sequences_per_sec),
            format!("{:.0}%", in_order as f64 * 100.0 / swap_ins.max(1) as f64),
            stats.relinquishes.to_string(),
        ]);
    }
    table
}

/// Runs every ablation.
pub fn run(scale: Scale) -> Vec<Table> {
    vec![
        run_depth_sweep(scale),
        run_thread_sweep(scale),
        run_speculation_value(scale),
        run_slack_sweep(),
        run_reuse_tradeoff(scale),
        run_swap_policy(scale),
        run_context_sweep(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_threads_do_not_hurt_flexgen() {
        let one = run_flexgen(
            &System::pipellm(1),
            FlexGenConfig::opt_66b(32, 8),
            Scale::Quick,
        );
        let eight = run_flexgen(
            &System::pipellm(8),
            FlexGenConfig::opt_66b(32, 8),
            Scale::Quick,
        );
        assert!(
            eight.tokens_per_sec >= one.tokens_per_sec,
            "8t {:.2} vs 1t {:.2}",
            eight.tokens_per_sec,
            one.tokens_per_sec
        );
    }

    #[test]
    fn context_depth_rescues_palindromic_offloading() {
        let t = run_context_sweep(Scale::Quick);
        let success: Vec<f64> = t
            .rows()
            .iter()
            .map(|r| r[2].trim_end_matches('%').parse().expect("percentage"))
            .collect();
        assert!(
            success[1] > success[0] + 5.0,
            "bigram context must improve on the fwd+bwd walk: {success:?}"
        );
        assert!(
            success[2] >= success[1] - 5.0,
            "deeper context must not regress: {success:?}"
        );
    }

    #[test]
    fn reuse_buys_little_over_pipellm() {
        // The §8.2 argument: the insecure design's win over PipeLLM is
        // modest because PipeLLM already hides almost all encryption.
        let t = run_reuse_tradeoff(Scale::Quick);
        let tok =
            |row: &str| -> f64 { t.cell(row, "tokens/s").expect("row").parse().expect("f64") };
        let off = tok("w/o CC");
        let pipellm = tok("PipeLLM");
        let reuse = tok("Reuse");
        assert!(
            reuse >= pipellm * 0.98,
            "reuse {reuse:.1} ≥ PipeLLM {pipellm:.1}"
        );
        assert!(
            reuse - pipellm < (off - pipellm) * 1.2,
            "the reuse win stays within the staging-bound residual:              off {off:.1} pipellm {pipellm:.1} reuse {reuse:.1}"
        );
    }

    #[test]
    fn fifo_policy_is_also_predicted() {
        let t = run_swap_policy(Scale::Quick);
        // For both policies, PipeLLM must sit below CC.
        for policy in ["request-wise (LIFO)", "layer-wise (FIFO)"] {
            let rows: Vec<_> = t
                .rows()
                .iter()
                .filter(|r| r[0] == policy)
                .map(|r| (r[1].clone(), r[2].parse::<f64>().expect("latency")))
                .collect();
            let cc = rows.iter().find(|(s, _)| s == "CC").expect("CC row").1;
            let pipe = rows
                .iter()
                .find(|(s, _)| s == "PipeLLM")
                .expect("PipeLLM row")
                .1;
            assert!(
                pipe < cc,
                "{policy}: PipeLLM {pipe:.4} must beat CC {cc:.4}"
            );
        }
    }

    #[test]
    fn slack_restores_success_under_small_io() {
        let t = run_slack_sweep();
        let success: Vec<f64> = t
            .rows()
            .iter()
            .map(|r| r[4].trim_end_matches('%').parse().expect("percentage"))
            .collect();
        assert!(
            success[0] < 50.0,
            "without slack, interleaved small I/O stales the pipeline: {success:?}"
        );
        assert!(
            success.last().expect("rows") > &80.0,
            "slack must absorb the small I/O: {success:?}"
        );
    }
}
