//! The telemetry-overhead gate; see `vw_sdk_bench::overhead`. Prints
//! the probe and exits nonzero when the enabled registry costs
//! `OVERHEAD_GATE_PCT` or more on the cached sweep.

use std::process::ExitCode;
use vw_sdk_bench::overhead::{measure_overhead, OVERHEAD_GATE_PCT};

fn main() -> ExitCode {
    let probe = match measure_overhead() {
        Ok(probe) => probe,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "telemetry overhead on cached sweep: {:+.2}% \
         (enabled {:.4}s vs stubbed {:.4}s, {} iters x {} paired blocks)",
        probe.overhead_pct,
        probe.enabled_seconds,
        probe.disabled_seconds,
        probe.iterations,
        probe.pairs,
    );
    if probe.overhead_pct >= OVERHEAD_GATE_PCT {
        eprintln!(
            "error: telemetry overhead {:.2}% >= {OVERHEAD_GATE_PCT}% on the cached sweep",
            probe.overhead_pct
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
