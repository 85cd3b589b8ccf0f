//! Fresh process per run: the harness re-executes itself with `--child`, so
//! peak RSS is per run and no thread, port or warm cache leaks from one run
//! into the next. A child is reaped, and killed if it outlives its limit,
//! so a wedged deployment fails the run instead of hanging the benchmark.

use crate::json;
use crate::run::{run_once, RunResult};
use crate::trace::Recorder;
use crate::workload::{Scale, Workload};
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Hard limit on one child. A full-size run takes 5-15 s with its set-up,
/// twins and replay; the program's own phase timeout is 30 s.
pub const CHILD_LIMIT: Duration = Duration::from_secs(90);

/// The child side: run once, print the result as one JSON line, write the
/// Chrome trace if asked to.
pub fn child_main(
    workload: Workload,
    scale: Scale,
    seed: u64,
    traced: bool,
    trace_out: Option<&Path>,
) -> i32 {
    let mut rec = Recorder::new(traced);
    let result = run_once(workload, scale, seed, &mut rec);
    if let Some(path) = trace_out {
        let trace = rec.chrome_trace(workload.name).to_string();
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("bench_e2e: cannot write trace {}: {e}", path.display());
            return 2;
        }
    }
    println!("{}", result.to_json());
    0
}

/// The parent side: one run of `workload` in a child process.
///
/// # Errors
///
/// The child could not be started, outlived [`CHILD_LIMIT`] (and was
/// killed), exited non-zero, or printed no parsable result.
pub fn spawn_run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    traced: bool,
    trace_out: Option<&Path>,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--child", "--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--scale", scale.name()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(path) = trace_out {
        command.arg("--trace-out").arg(path);
    }
    let mut child = command.spawn().map_err(|e| format!("spawn child: {e}"))?;
    let mut stdout = child.stdout.take().ok_or("child stdout was not piped")?;
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });

    let deadline = Instant::now() + CHILD_LIMIT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => {
                // kill() only fails if the child already exited.
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("child exceeded {CHILD_LIMIT:?} and was killed"));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("wait for child: {e}"));
            }
        }
    };
    // The pipe closes when the child is gone, which ends the reader.
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?
        .map_err(|e| format!("read child stdout: {e}"))?;
    let status = status?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    RunResult::from_json(&json::parse(line)?)
}
