//! End-to-end, stage-resolved benchmark of the VW-SDK reproduction.
//!
//! ```text
//! vwsdk-e2ebench --workload sweep-cold|sweep-warm|simulate|serve-mix
//!                --seed N --seconds S --trace 0|1
//!                [--vwsdk PATH] [--rate REQ_PER_S]
//! ```
//!
//! `--trace 0` times each workload's user operations through the one
//! public call users make and prints the end-to-end metrics named in
//! `BENCHMARK.json`. `--trace 1` rebuilds each operation from public
//! pieces, wraps every piece in a span, checks the rebuilt output is
//! identical to the one-call output, prints the per-layer metrics and
//! writes a Chrome trace-event file under `.bench_trace/`. The last
//! stdout line is always one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. See `e2ebench/README.md` for what each workload
//! and metric means.

mod outcome;
mod procfs;
mod rng;
mod serve;
mod simulate;
mod stats;
mod sweep;
mod trace;

use outcome::Outcome;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `vwsdk` binary the serve-mix workload launches.
    pub vwsdk: String,
    /// Overrides serve-mix's fixed offered rate (capacity probing only).
    pub rate: Option<f64>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut vwsdk = None;
        let mut rate = None;
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                    })
                }
                "--vwsdk" => vwsdk = Some(value()?),
                "--rate" => rate = Some(value()?.parse().map_err(|e| format!("--rate: {e}"))?),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        let seconds: f64 = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err("--seconds must be in (0, 120]".into());
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            vwsdk: vwsdk.unwrap_or_else(|| {
                let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
                format!("{target}/release/vwsdk")
            }),
            rate,
        })
    }
}

/// Worker/connection budget: every workload is sized for the cores the
/// process may use, and no more.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "sweep-cold" => sweep::sweep_cold(args),
        "sweep-warm" => sweep::sweep_warm(args),
        "simulate" => simulate::run(args),
        "serve-mix" => serve::run(args),
        other => Err(format!(
            "unknown workload {other:?}; expected sweep-cold, sweep-warm, simulate or serve-mix"
        )),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let declared = match outcome::Declared::load("BENCHMARK.json") {
        Ok(declared) => declared,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", outcome::env_line(&args));
    let steal = procfs::StealMonitor::global();
    let started = std::time::Instant::now();
    let result = run(&args).map(|mut outcome| {
        // CPU time the hypervisor gave to other tenants during the run:
        // the first thing to check when a result moves for no reason.
        steal.read_now();
        let frac = steal.steal_frac(started, std::time::Instant::now());
        outcome.note(format!("host steal_frac {frac:.4}"));
        outcome
    });
    steal.stop();
    match result.and_then(|outcome| outcome.render(&declared, args.trace)) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
