//! The `net_*` workloads: a whole deployment lifecycle on localhost TCP,
//! timed from outside, verified after the clock stops.

use crate::replay::{probe_rtt_us, probe_stream_us, replay};
use crate::run::{digest, peak_rss_kib, timed, RunResult};
use crate::stats::{median, Dist};
use crate::sut::{
    apply_stage, iteration_input, run_supervised_tcp_threads, run_tcp_threads, NetPipelineSpec,
    NetReport, StagePartition, SupervisionStats,
};
use crate::trace::Recorder;
use crate::workload::{net_spec, supervised_options, with_faults, NetParams};

/// What a completed deployment hands back.
struct Deployed {
    report: NetReport,
    supervision: Option<SupervisionStats>,
}

/// Stands the deployment up, serves every micro-batch, tears it down.
fn deploy(spec: &NetPipelineSpec, supervised: bool) -> Result<Deployed, String> {
    if supervised {
        run_supervised_tcp_threads(spec, &supervised_options())
            .map(|r| Deployed {
                report: r.net,
                supervision: Some(r.stats),
            })
            .map_err(|e| e.to_string())
    } else {
        run_tcp_threads(spec)
            .map(|report| Deployed {
                report,
                supervision: None,
            })
            .map_err(|e| e.to_string())
    }
}

/// Digests of the reference outputs, computed one micro-batch at a time
/// from the same two functions `NetPipelineSpec::expected_outputs` uses, so
/// the reference never holds more than one activation in memory.
pub fn expected_digests(spec: &NetPipelineSpec) -> Vec<u64> {
    let partition = StagePartition::balanced(spec.layers, spec.stages as usize);
    let mut digests = Vec::with_capacity((spec.iterations * spec.micro_batches) as usize);
    for iteration in 0..spec.iterations as usize {
        for mb in 0..spec.micro_batches as usize {
            let mut bytes = iteration_input(spec.seed, iteration, mb, spec.activation_bytes);
            for stage in 0..spec.stages as usize {
                apply_stage(partition.layers_of(stage), &mut bytes);
            }
            digests.push(digest(&bytes));
        }
    }
    digests
}

/// How many reference outputs `outputs` gets wrong: a differing digest, a
/// missing output, or an output nobody asked for each count once.
pub fn count_wrong(outputs: &[Vec<u8>], expected: &[u64]) -> u64 {
    let mismatched = expected
        .iter()
        .enumerate()
        .filter(|(i, want)| outputs.get(*i).map(|o| digest(o)) != Some(**want))
        .count();
    (mismatched + outputs.len().saturating_sub(expected.len())) as u64
}

/// Wall (ms) of one minimal lifecycle: handshake, one micro-batch, drain,
/// quiet window, audit, shutdown, joins — what every run pays besides
/// serving.
fn lifecycle_ms(p: &NetParams, seed: u64) -> Result<f64, String> {
    let spec = net_spec(p, 1, seed);
    let (deployed, wall_s, _) = timed(|| deploy(&spec, p.supervised));
    let deployed = deployed?;
    match count_wrong(&deployed.report.outputs, &expected_digests(&spec)) {
        0 => Ok(wall_s * 1e3),
        _ => Err("minimal lifecycle produced wrong bytes".to_string()),
    }
}

pub fn run(p: &NetParams, seed: u64, rec: &mut Recorder, result: &mut RunResult) {
    // --- Set-up (untimed): warm-up lifecycle, reference digests ---------
    let span = rec.begin("harness", "setup", 0);
    let (prepared, setup_s, _) = timed(|| {
        let spec = net_spec(p, p.micro_batches, seed);
        let spec = if p.hung_stages > 0 {
            with_faults(spec, p, seed)?
        } else {
            spec
        };
        // Absorbs CPU-feature detection and gang calibration.
        lifecycle_ms(p, seed).map_err(|e| format!("warm-up lifecycle: {e}"))?;
        let expected = expected_digests(&spec);
        Ok::<_, String>((spec, expected))
    });
    rec.end(span);
    result.setup_s = setup_s;
    let (spec, expected) = match prepared {
        Ok(prepared) => prepared,
        Err(e) => {
            result.fail(result.attempted, e);
            return;
        }
    };

    // --- Fixed cost -----------------------------------------------------
    // A traced run needs it on every workload: the twin runs below subtract
    // it from their wall.
    let lifecycles = if rec.enabled() {
        p.fixed_lifecycles.max(1)
    } else {
        p.fixed_lifecycles
    };
    for _ in 0..lifecycles {
        let span = rec.begin("orchestrator", "lifecycle_n1", 0);
        let wall = lifecycle_ms(p, seed);
        rec.end(span);
        match wall {
            Ok(ms) => result.fixed_ms.push(ms),
            Err(e) => result.fail(1, format!("fixed-cost lifecycle: {e}")),
        }
    }

    // --- The timed call -------------------------------------------------
    let span = rec.begin("orchestrator", "run", 0);
    let (deployed, wall_s, cpu_ms) = timed(|| deploy(&spec, p.supervised));
    rec.end(span);
    result.wall_s = wall_s;
    result.cpu_ms = cpu_ms;
    result.peak_rss_kib = peak_rss_kib();

    // --- Verification (clock stopped) -----------------------------------
    let span = rec.begin("harness", "verify", 0);
    let deployed = match deployed {
        Ok(deployed) => {
            let wrong = count_wrong(&deployed.report.outputs, &expected);
            if wrong > 0 {
                result.fail(wrong, format!("{wrong} outputs differ from the reference"));
            }
            if !deployed.report.lockstep_ok {
                result.fail(1, "edge counters out of lockstep");
            }
            let failovers = deployed.supervision.as_ref().map_or(0, |s| s.failovers);
            if p.hung_stages > 0 && failovers == 0 {
                result.fail(1, "no failover happened: the workload did not run");
            }
            Some(deployed)
        }
        Err(e) => {
            result.fail(result.attempted, format!("deployment failed: {e}"));
            None
        }
    };
    rec.end(span);

    if let (true, Some(deployed)) = (rec.enabled(), deployed) {
        let traced = Traced {
            p,
            seed,
            spec: &spec,
            expected: &expected,
            wall_s,
            cpu_ms,
            fixed_s: median(&result.fixed_ms) / 1e3,
        };
        traced.layers(&deployed, rec, result);
    }
}

/// The traced run's context for the per-layer measurements.
struct Traced<'a> {
    p: &'a NetParams,
    seed: u64,
    spec: &'a NetPipelineSpec,
    expected: &'a [u64],
    wall_s: f64,
    cpu_ms: f64,
    fixed_s: f64,
}

/// At most this many micro-batches are replayed: enough samples for a p95
/// of every span, without replaying all 8192 of `net_small`.
const REPLAY_LIMIT: usize = 1024;

impl Traced<'_> {
    /// Serving cost per micro-batch (ms) of a twin run of `micro_batches`
    /// inputs with faults off: wall minus the fixed lifecycle cost.
    fn twin_ms_per_mb(
        &self,
        micro_batches: u32,
        supervised: bool,
        result: &mut RunResult,
    ) -> Option<(f64, f64)> {
        let twin = NetParams {
            supervised,
            ..*self.p
        };
        let spec = net_spec(&twin, micro_batches, self.seed);
        let (deployed, wall_s, _) = timed(|| deploy(&spec, supervised));
        // Same seed and activation size: a twin's reference outputs are a
        // prefix of the workload's own.
        let expected = &self.expected[..micro_batches as usize];
        match deployed {
            Ok(d) if count_wrong(&d.report.outputs, expected) == 0 => Some((
                (wall_s - self.fixed_s).max(0.0) * 1e3 / f64::from(micro_batches),
                wall_s,
            )),
            Ok(_) => {
                result.fail(1, "twin run produced wrong bytes");
                None
            }
            Err(e) => {
                result.fail(1, format!("twin run failed: {e}"));
                None
            }
        }
    }

    fn layers(&self, deployed: &Deployed, rec: &mut Recorder, result: &mut RunResult) {
        let n = f64::from(self.p.micro_batches);
        let mut out: Vec<(String, f64)> = Vec::new();
        let mut put = |name: &str, value: f64| out.push((name.to_string(), value));

        // --- Counters the program already exposes -----------------------
        let report = &deployed.report;
        let hops = f64::from(self.spec.stages + 1);
        let sealed: u64 = report
            .worker_reports
            .iter()
            .chain(std::iter::once(&report.host_report))
            .flat_map(|r| &r.edges)
            .map(|e| e.tx_iv.saturating_sub(1))
            .sum();
        put("link.ivs_per_mb", sealed as f64 / n);
        put("link.retransmits", report.retransmits as f64);
        put(
            "link.retransmit_ratio",
            report.retransmits as f64 / (n * hops),
        );
        put("link.sentinels", report.sentinels as f64);
        put("link.reconnects", report.reconnects as f64);
        put("link.rekeys", report.rekeys as f64);
        put("orchestrator.relayed_frames", report.relayed_frames as f64);
        put(
            "orchestrator.relay_per_mb",
            report.relayed_frames as f64 / n,
        );
        put("proc.cpu_ms_per_op", self.cpu_ms / n);
        if let Some(s) = &deployed.supervision {
            put("supervisor.heartbeats", s.heartbeats as f64);
            put("supervisor.barriers", s.barriers as f64);
            put("supervisor.checkpoints_stored", s.checkpoints_stored as f64);
            put(
                "supervisor.backpressure_events",
                s.backpressure_events as f64,
            );
            put("supervisor.detections", s.detections as f64);
            put("supervisor.failovers", s.failovers as f64);
            put("supervisor.restores_sent", s.restores_sent as f64);
            put("supervisor.stale_rejects", s.stale_rejects as f64);
            put(
                "supervisor.stale_rejects_per_failover",
                s.stale_rejects as f64 / (s.failovers.max(1)) as f64,
            );
        }

        // --- The sequential floor ---------------------------------------
        let replayed = &self.expected[..self.expected.len().min(REPLAY_LIMIT)];
        match replay(self.spec, replayed, rec) {
            Ok(0) => {}
            Ok(wrong) => result.fail(wrong, format!("replay got {wrong} outputs wrong")),
            Err(e) => result.fail(1, format!("replay failed: {e}")),
        }
        let spans = rec.families();
        let dist = |family: &str| Dist::of(spans.get(family).map_or(&[], Vec::as_slice));
        let (seal, open) = (dist("link.seal"), dist("link.open"));
        let (encode, decode) = (dist("proto.encode"), dist("proto.decode"));
        let socket = dist("transport.socket");
        let (apply, input) = (dist("partition.apply_stage"), dist("partition.input_gen"));
        let mib_s = |d: &Dist| {
            d.n as f64 * self.p.activation_bytes as f64 / (1u64 << 20) as f64 / (d.sum / 1e6)
        };
        put("link.seal_us_p50", seal.p50);
        put("link.seal_us_p95", seal.p95);
        put("link.open_us_p50", open.p50);
        put("link.open_us_p95", open.p95);
        put("link.seal_mib_s", mib_s(&seal));
        put("link.open_mib_s", mib_s(&open));
        put("proto.encode_us_p50", encode.p50);
        put("proto.decode_us_p50", decode.p50);
        put("partition.apply_stage_us_p50", apply.p50);
        put("partition.input_gen_us_p50", input.p50);

        let per_mb_ms = |sum_us: f64| sum_us / 1e3 / replayed.len().max(1) as f64;
        let crypto = per_mb_ms(seal.sum + open.sum);
        let codec = per_mb_ms(encode.sum + decode.sum);
        let compute = per_mb_ms(apply.sum + input.sum);
        let socket = per_mb_ms(socket.sum);
        let floor = crypto + codec + compute + socket;
        let measured = self.wall_s * 1e3 / n;
        put("ledger.crypto_ms_per_mb", crypto);
        put("ledger.codec_ms_per_mb", codec);
        put("ledger.compute_ms_per_mb", compute);
        put("ledger.socket_ms_per_mb", socket);
        put("ledger.floor_ms_per_mb", floor);
        put("ledger.measured_ms_per_mb", measured);
        put("ledger.floor_share", floor / measured);

        // --- The transport on its own -----------------------------------
        let frames = (self.p.micro_batches as usize).clamp(16, 2048);
        let frames = frames.min((256 << 20) / self.p.activation_bytes.max(1));
        match probe_stream_us(self.p.activation_bytes, frames) {
            Ok(gaps) => {
                let d = Dist::of(&gaps);
                put("transport.tcp_frame_us_p50", d.p50);
                put("transport.tcp_frame_us_p95", d.p95);
            }
            Err(e) => result.fail(1, format!("transport stream probe: {e}")),
        }
        match probe_rtt_us(2000) {
            Ok(rtts) => put("transport.tcp_rtt_us_p50", Dist::of(&rtts).p50),
            Err(e) => result.fail(1, format!("transport rtt probe: {e}")),
        }

        // --- Twin runs: scaling, supervision tax, recovery --------------
        // All with faults off, so they compare like with like; the faulty
        // run only enters `recovery_ms_per_failover`.
        let n_u32 = self.p.micro_batches;
        let full = if self.p.hung_stages > 0 {
            self.twin_ms_per_mb(n_u32, self.p.supervised, result)
        } else {
            Some(((self.wall_s - self.fixed_s).max(0.0) * 1e3 / n, self.wall_s))
        };
        let quarter = self.twin_ms_per_mb((n_u32 / 4).max(1), self.p.supervised, result);
        if let (Some((full_ms, _)), Some((quarter_ms, _))) = (full, quarter) {
            put("orchestrator.scaling_ratio", full_ms / quarter_ms);
        }
        if let (true, Some((supervised_ms, fault_free_wall_s))) = (self.p.supervised, full) {
            if let Some((plain_ms, _)) = self.twin_ms_per_mb(n_u32, false, result) {
                put("supervisor.tax_ratio", supervised_ms / plain_ms);
            }
            let failovers = deployed.supervision.as_ref().map_or(0, |s| s.failovers);
            if failovers > 0 {
                put(
                    "supervisor.recovery_ms_per_failover",
                    (self.wall_s - fault_free_wall_s) * 1e3 / failovers as f64,
                );
            }
        }

        result.layer = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Kind, Params, Scale};

    #[test]
    fn streaming_reference_matches_the_programs_own() {
        let Params::Net(p) = Kind::NetSmall.params(Scale::Smoke) else {
            panic!("net workload")
        };
        let spec = net_spec(&p, 5, 3);
        let reference: Vec<u64> = spec.expected_outputs().iter().map(|o| digest(o)).collect();
        assert_eq!(expected_digests(&spec), reference);
    }

    #[test]
    fn corrupted_missing_and_surplus_outputs_are_failures() {
        let outputs = vec![vec![1u8; 64], vec![2u8; 64], vec![3u8; 64]];
        let expected: Vec<u64> = outputs.iter().map(|o| digest(o)).collect();
        assert_eq!(count_wrong(&outputs, &expected), 0);

        let mut corrupted = outputs.clone();
        corrupted[1][63] ^= 0x80;
        assert_eq!(count_wrong(&corrupted, &expected), 1);

        assert_eq!(count_wrong(&outputs[..2], &expected), 1, "one missing");
        assert_eq!(count_wrong(&[], &expected), 3, "all missing");

        let mut surplus = outputs.clone();
        surplus.push(vec![4u8; 64]);
        assert_eq!(count_wrong(&surplus, &expected), 1, "one unasked-for");

        let mut swapped = outputs;
        swapped.swap(0, 2);
        assert_eq!(count_wrong(&swapped, &expected), 2, "order matters");
    }
}
