//! Repository-level acceptance tests for the supervision layer: a
//! worker killed mid-run must be detected by heartbeat silence, failed
//! over (respawn, readmit, force-rekey, sealed-checkpoint restore) and
//! the run must still finish **bit-identical** to the fault-free
//! reference — also when the worker dies mid-drain, after ingress was
//! closed; drains must complete in-flight work and shed the queue;
//! superseded incarnations must not be able to redial into a live link;
//! and the supervisor failover model must explore every schedule with
//! zero IV-reuse / lost-session violations.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pipellm_repro::analysis::interleave::supervisor_model::{SupervisorBug, SupervisorModel};
use pipellm_repro::analysis::interleave::{Explorer, Violation};
use pipellm_repro::chaos::FaultKind;
use pipellm_repro::net::checkpoint::{open_checkpoint, seal_checkpoint, CheckpointState};
use pipellm_repro::net::transport::{duplex_pair, DuplexActive, Reattach};
use pipellm_repro::net::{deploy, NetPipelineSpec, SupervisedOptions, Wire};

/// The small-but-nontrivial pipeline every test here runs: 3 stages,
/// deterministic seed, generous op timeout so CI-load stalls never
/// masquerade as protocol failures.
fn spec() -> NetPipelineSpec {
    NetPipelineSpec {
        stages: 3,
        layers: 6,
        iterations: 3,
        micro_batches: 2,
        activation_bytes: 256,
        seed: 0xBEEF,
        op_timeout: Duration::from_secs(60),
        ..NetPipelineSpec::default()
    }
}

/// Tight failure-detector timings so detection/failover happens within a
/// test-sized run instead of the production 250ms/600ms defaults.
fn tight() -> SupervisedOptions {
    SupervisedOptions {
        heartbeat_interval: Duration::from_millis(10),
        suspect_after: Duration::from_millis(60),
        dead_after: Duration::from_millis(150),
        checkpoint_every: 2,
        ..SupervisedOptions::default()
    }
}

#[test]
fn supervised_faultless_run_matches_the_plain_pipeline() {
    let spec = spec();
    let plain = deploy(&spec, Wire::Duplex, None)
        .expect("plain duplex run")
        .net;
    let supervised = deploy(&spec, Wire::Duplex, Some(&tight())).expect("supervised run");
    assert_eq!(supervised.net.outputs, spec.expected_outputs());
    assert_eq!(
        supervised.net.outputs, plain.outputs,
        "supervision must be invisible to a healthy pipeline"
    );
    assert_eq!(supervised.stats.failovers, 0);
    assert_eq!(supervised.stats.detections, 0);
    assert!(supervised.stats.heartbeats > 0, "beacons must flow");
    assert!(supervised.stats.checkpoints_stored > 0);
    assert_eq!(supervised.completed.len(), 6);
    assert!(supervised.shed.is_empty());
}

#[test]
fn worker_kill_mid_run_fails_over_bit_identically() {
    let spec = NetPipelineSpec {
        worker_fault_rate: 0.2,
        ..spec()
    };
    let report = deploy(&spec, Wire::Duplex, Some(&tight())).expect("supervised chaos run");
    assert_eq!(
        report.net.outputs,
        spec.expected_outputs(),
        "failover must keep the run bit-identical to the fault-free reference"
    );
    assert!(
        report.stats.failovers > 0,
        "the seeded 20% kill rate must actually fire: {:?}",
        report.stats
    );
    assert_eq!(report.stats.failovers, report.stats.detections);
    assert_eq!(
        report.stats.restores_sent, report.stats.failovers,
        "every readmitted incarnation is handed the latest sealed checkpoint"
    );
    assert!(report.net.rekeys > 0, "every failover force-rekeys");
    assert_eq!(report.completed.len(), 6);
}

#[test]
fn worker_kill_mid_run_fails_over_over_real_tcp() {
    // Same kill schedule, but over real localhost TCP with the worker's
    // event loop torn down abruptly (sockets die with it) — the
    // in-process analogue of SIGKILLing a stage-worker process. The
    // multi-process version of this test is the CI smoke job.
    let spec = NetPipelineSpec {
        worker_fault_rate: 0.2,
        ..spec()
    };
    let report = deploy(&spec, Wire::TcpThreads, Some(&tight())).expect("supervised tcp run");
    assert_eq!(report.net.outputs, spec.expected_outputs());
    assert!(report.stats.failovers > 0, "{:?}", report.stats);
    assert_eq!(report.stats.failovers, report.stats.detections);
    assert!(report.net.rekeys > 0);
}

/// `spec` with worker faults on and the chaos seed walked until the
/// schedule — predicted by rolling fresh copies of the injectors the run
/// will build — is exactly one fault: a kill of `victim` in the middle
/// third of its fresh frames, with a full admission window in flight and
/// several barriers behind it.
fn killing_only(mut spec: NetPipelineSpec, victim: u32) -> NetPipelineSpec {
    spec.worker_fault_rate = 0.02;
    let sessions = spec.iterations * spec.micro_batches;
    for chaos_seed in 0..100_000 {
        spec.chaos_seed = chaos_seed;
        let as_wanted = (0..spec.stages).all(|stage| {
            let injector = spec.injector_for(stage).expect("worker faults are on");
            let first = (0..sessions).find_map(|frame| Some((frame, injector.roll_worker()?.kind)));
            match first {
                Some((at, FaultKind::StageKill)) => {
                    stage == victim && (sessions / 3..2 * sessions / 3).contains(&at)
                }
                Some(_) => false,
                None => stage != victim,
            }
        });
        if as_wanted {
            return spec;
        }
    }
    panic!("no chaos seed kills only stage {victim} mid-run");
}

#[test]
fn a_kill_with_a_full_window_in_flight_is_recovered_by_recomputation() {
    // 64 KiB activations, 32 sessions admitted at once, a barrier every 4
    // outputs: the dead worker takes up to a window of uncommitted work
    // with it, nobody retained a byte of it, and the run is still
    // bit-identical — on both transports, whichever end of the pipeline
    // dies.
    let base = NetPipelineSpec {
        iterations: 12,
        micro_batches: 8,
        activation_bytes: 64 * 1024,
        ..spec()
    };
    // A kill is detected through the dead control link, not a deadline:
    // generous deadlines keep a starved runner from adding failovers.
    let options = SupervisedOptions {
        checkpoint_every: 4,
        suspect_after: Duration::from_secs(5),
        dead_after: Duration::from_secs(10),
        admission_window: Some(32),
        ..SupervisedOptions::default()
    };
    let expected = base.expected_outputs();
    for victim in [0, base.stages - 1] {
        let spec = killing_only(base.clone(), victim);
        for (transport, wire) in [("duplex", Wire::Duplex), ("tcp", Wire::TcpThreads)] {
            let report = deploy(&spec, wire, Some(&options))
                .unwrap_or_else(|e| panic!("stage {victim} killed over {transport}: {e}"));
            assert!(
                report.net.outputs == expected,
                "stage {victim} killed over {transport}: outputs diverged"
            );
            assert_eq!(report.stats.failovers, 1, "{transport}: {:?}", report.stats);
            assert_eq!(report.stats.restores_sent, 1);
            assert!(report.stats.checkpoints_stored > 0);
            assert!(report.net.retransmits > 0, "lost work is re-driven");
        }
    }
}

#[test]
fn a_stage_killed_mid_drain_is_failed_over_and_the_run_completes() {
    // Each victim dies the moment its in edge's Fin arrives: after the
    // orchestrator closed ingress, on the drain's own progress rather than
    // a timer. The replacement is handed the resent Fin like any other
    // unacknowledged frame and the drain finishes. The kill is detected
    // through the dead control link, so generous deadlines keep a starved
    // runner from adding failovers.
    let options = SupervisedOptions {
        suspect_after: Duration::from_secs(5),
        dead_after: Duration::from_secs(10),
        ..tight()
    };
    for victim in 0..spec().stages {
        let spec = NetPipelineSpec {
            kill_at_drain: Some(victim),
            ..spec()
        };
        for (transport, wire) in [("duplex", Wire::Duplex), ("tcp", Wire::TcpThreads)] {
            let report = deploy(&spec, wire, Some(&options)).unwrap_or_else(|e| {
                panic!("stage {victim} killed mid-drain over {transport}: {e}")
            });
            assert_eq!(report.net.outputs, spec.expected_outputs());
            assert_eq!(
                (report.stats.detections, report.stats.failovers),
                (1, 1),
                "stage {victim} over {transport}: {:?}",
                report.stats
            );
            assert!(report.net.rekeys > 0, "every failover force-rekeys");
            assert!(report.net.lockstep_ok);
        }
    }
}

#[test]
fn an_unsupervised_run_losing_a_stage_mid_drain_fails_fast_naming_it() {
    for victim in 0..spec().stages {
        let spec = NetPipelineSpec {
            kill_at_drain: Some(victim),
            op_timeout: Duration::from_secs(10),
            ..spec()
        };
        let started = Instant::now();
        let err = match deploy(&spec, Wire::Duplex, None) {
            Ok(_) => panic!("losing stage {victim} without supervision must fail the run"),
            Err(err) => err.to_string(),
        };
        // The orchestrator fails at once; the in-process deployment then
        // joins its worker threads, whose data pumps may each sit out one
        // reattach attempt (2 s) first. Nothing waits for a phase deadline.
        assert!(
            started.elapsed() < spec.op_timeout / 2,
            "stage {victim}: failed only after {:?}: {err}",
            started.elapsed()
        );
        let orchestrator = err.split("; worker:").next().unwrap_or_default();
        assert!(
            orchestrator.contains(&format!("stage {victim} control link")),
            "the error must name stage {victim}: {err}"
        );
    }
}

#[test]
fn checkpoint_restore_roundtrips_and_stale_blobs_are_refused() {
    let state = CheckpointState {
        stage: 1,
        barrier: 4,
        prefix: 8,
        edges: Vec::new(),
    };
    let seed = 0x5EED_CAFE;
    let sealed = seal_checkpoint(seed, &state).expect("seal");
    let opened = open_checkpoint(seed, 1, 4, &sealed).expect("own blob restores");
    assert_eq!(opened, state);
    // The per-(stage, barrier) one-shot key schedule makes staleness
    // self-enforcing: a blob sealed at barrier 4 satisfies no restore
    // claiming any other barrier, stage or cluster seed.
    assert!(
        open_checkpoint(seed, 1, 3, &sealed).is_err(),
        "stale barrier"
    );
    assert!(
        open_checkpoint(seed, 1, 5, &sealed).is_err(),
        "future barrier"
    );
    assert!(open_checkpoint(seed, 2, 4, &sealed).is_err(), "wrong stage");
    assert!(
        open_checkpoint(seed ^ 1, 1, 4, &sealed).is_err(),
        "wrong seed"
    );
}

#[test]
fn graceful_drain_completes_in_flight_and_sheds_the_queue() {
    let spec = NetPipelineSpec {
        iterations: 4,
        ..spec()
    };
    let options = SupervisedOptions {
        admission_window: Some(2),
        drain_after: Some(3),
        ..tight()
    };
    let report = deploy(&spec, Wire::Duplex, Some(&options)).expect("drained run");
    let expected = spec.expected_outputs();
    assert!(report.completed.len() >= 3, "drain finishes in-flight work");
    assert!(!report.shed.is_empty(), "drain sheds the queued remainder");
    assert_eq!(
        report.completed.len() + report.shed.len(),
        8,
        "every admitted session is either served or accounted shed"
    );
    // What WAS served is still bit-exact against the reference.
    for (key, out) in report.completed.iter().zip(&report.net.outputs) {
        let index = (key.0 * spec.micro_batches + key.1) as usize;
        assert_eq!(out, &expected[index], "session {key:?}");
    }
    assert_eq!(report.stats.shed_sessions, report.shed.len() as u64);
}

#[test]
fn redial_from_a_superseded_incarnation_is_refused() {
    // Regression test for the redial race: a hung worker incarnation
    // waking up after the supervisor admitted its replacement must not
    // be able to reset the replacement's live link.
    let (_a, _b, core) = duplex_pair("redial");
    let admitted = Arc::new(AtomicBool::new(true));
    let gate = Arc::clone(&admitted);
    let mut provider = DuplexActive::pinned(
        Arc::clone(&core),
        0,
        "redial-a",
        Box::new(move || gate.load(Ordering::SeqCst)),
    );
    // While current, the incarnation may redial freely.
    provider
        .reattach(Duration::from_secs(1))
        .expect("admitted incarnation reattaches");
    let generation_before = core.reset();
    // The supervisor moves admission past this incarnation…
    admitted.store(false, Ordering::SeqCst);
    let err = match provider.reattach(Duration::from_secs(1)) {
        Err(err) => err,
        Ok(_) => panic!("superseded incarnation must be refused"),
    };
    assert!(
        err.to_string().contains("stale generation"),
        "refusal must name the cause: {err}"
    );
    // …and the refusal must not have touched the live link: the next
    // legitimate reset continues the generation sequence.
    assert_eq!(core.reset(), generation_before + 1);
}

#[test]
fn resend_sweep_fires_at_the_configured_interval() {
    // Workers refuse a manifest with a zero resend-after, so the spec
    // does too; the smallest threshold it takes, one nanosecond, means
    // every frame still unacked at a sweep is retransmitted — the sweep
    // provably runs at the configured knob, and duplicates are absorbed
    // without corrupting the run.
    let zero = NetPipelineSpec {
        resend_after: Duration::ZERO,
        ..spec()
    };
    assert!(zero.validate().is_err(), "a zero resend-after is refused");
    let eager = NetPipelineSpec {
        resend_after: Duration::from_nanos(1),
        ..spec()
    };
    let report = deploy(&eager, Wire::Duplex, Some(&tight())).expect("eager-resend run");
    assert!(
        report.net.retransmits > 0,
        "a zero threshold must retransmit: {:?}",
        report.net
    );
    assert_eq!(report.net.outputs, eager.expected_outputs());
    // A threshold longer than the whole run means the sweep never fires.
    let patient = NetPipelineSpec {
        resend_after: Duration::from_secs(120),
        ..spec()
    };
    let report = deploy(&patient, Wire::Duplex, Some(&tight())).expect("patient run");
    assert_eq!(report.net.retransmits, 0);
    assert_eq!(report.net.outputs, patient.expected_outputs());
}

#[test]
fn supervisor_interleave_model_has_no_violating_schedule() {
    let explorer = Explorer::default();
    let stats = explorer
        .explore(&SupervisorModel::faithful(3))
        .unwrap_or_else(|v| panic!("{}", v.render_trace()));
    assert!(
        stats.schedules >= 1_000,
        "exploration must be nontrivial: {stats:?}"
    );
    // The model has teeth: dropping the force-rekey reuses an IV across
    // a failover.
    match explorer.explore(&SupervisorModel::with_bug(
        3,
        SupervisorBug::FailoverWithoutRekey,
    )) {
        Err(Violation::Invariant { message, .. }) => {
            assert!(message.contains("IV reuse"), "{message}");
        }
        other => panic!("rekey bug must be caught as an invariant: {other:?}"),
    }
    // Dropping replay strands an admitted session, and so does a
    // replacement that believes a checkpointed processed set nobody holds
    // the outputs of any more.
    for bug in [
        SupervisorBug::FailoverWithoutReplay,
        SupervisorBug::RestoreTrustsUncommitted,
    ] {
        match explorer.explore(&SupervisorModel::with_bug(3, bug)) {
            Err(Violation::Deadlock { .. }) => {}
            other => panic!("{bug:?}: a lost session must surface as a deadlock: {other:?}"),
        }
    }
}
