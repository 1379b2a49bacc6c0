//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay|cityday|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! The process renders the workload's input from `--seed` into files
//! next to its executable, then measures in a child process of its own,
//! so the input's buffers stay out of the child's peak RSS and the
//! process-global metrics registry starts clean. The child prints an
//! `info` line, the traced run's profile tables, and last the result
//! line: `{"correct", "attempted", "failed", "metrics"}` with every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). An output check that fails exits non-zero. See
//! `README.md` for the workloads and metrics.

mod common;
mod input;
mod intake;
mod oracle;
mod profile;
mod report;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use input::{Size, Workload};

/// A run's arguments.
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input size ([`Size::full`] unless `--tiny`, which tests use).
    pub size: Size,
    /// Set in the measuring child: the directory holding the input.
    pub child: Option<PathBuf>,
}

const USAGE: &str =
    "usage: perfbench --workload replay|cityday|serve --seed N --seconds S --trace 0|1 [--tiny]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut child = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                })
            }
            "--tiny" => tiny = true,
            "--child" => child = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: if tiny { Size::tiny(workload) } else { Size::full(workload) },
        child,
    })
}

/// Longest a measuring child may run before it is killed.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);

/// Renders the input, runs the measuring child, relays its exit status.
fn parent(argv: &[String], args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("perfbench-input")
        .join(format!("{}-{}-{}", args.workload.name(), args.seed, std::process::id()));
    let t0 = Instant::now();
    let render = |seed, dir: &std::path::Path| {
        input::render(args.workload, seed, args.size, dir)
            .map_err(|e| format!("rendering input into {}: {e}", dir.display()))
    };
    let records = render(args.seed, &dir)?;
    render(input::REFERENCE_SEED, &dir.join(input::REFERENCE_DIR))?;
    eprintln!(
        "perfbench: rendered {} records for {} seed {} in {:.2} s",
        records,
        args.workload.name(),
        args.seed,
        t0.elapsed().as_secs_f64()
    );
    let mut child = Command::new(&exe)
        .args(argv)
        .arg("--child")
        .arg(&dir)
        .spawn()
        .map_err(|e| format!("starting the measuring process: {e}"))?;
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break Some(status);
        }
        if started.elapsed() > CHILD_DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let _ = std::fs::remove_dir_all(&dir);
    match status {
        Some(s) if s.success() => Ok(ExitCode::SUCCESS),
        Some(s) => Err(format!("measuring process failed: {s}")),
        None => Err(format!("measuring process exceeded {} s", CHILD_DEADLINE.as_secs())),
    }
}

/// Measures in this process and prints the result line.
fn child(args: &Args, dir: &std::path::Path) -> ExitCode {
    let report = match args.workload {
        Workload::Replay | Workload::CityDay => intake::run(args, dir),
        Workload::Serve => serve::run(args, dir),
    };
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let catalogue: &[(&str, &str)] =
        if args.trace { &report::PER_LAYER } else { &report::END_TO_END };
    match report.to_json(catalogue) {
        Ok(line) => {
            println!("{line}");
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.child {
        Some(dir) => child(&args, dir),
        None => parent(&argv, &args).unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }),
    }
}
