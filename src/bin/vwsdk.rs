//! The `vwsdk` command-line tool; see `vw_sdk_repro::cli` for the
//! commands and options.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match vw_sdk_repro::cli::parse_invocation(&args) {
        Ok(invocation) => invocation,
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!("{}", vw_sdk_repro::cli::USAGE);
            return ExitCode::FAILURE;
        }
    };
    if invocation.trace {
        pim_telemetry::trace_to_stderr();
    }
    match vw_sdk_repro::cli::run(&invocation.command) {
        Ok(output) => {
            print!("{output}");
            if invocation.metrics_dump {
                // The same api::metrics_json structure the wire serves
                // for GET /v1/metrics?format=json, byte for byte.
                println!("{}", vw_sdk_serve::api::metrics_json().render());
            }
            ExitCode::SUCCESS
        }
        Err(err) => {
            // Unlike parse errors, execution failures (a failed
            // `verify` or `simulate`, lint violations from `vwsdk
            // check`) don't re-print the usage text — it would drown
            // the report.
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}
