//! The `microfaas` binary: parse the command line and dispatch.

use std::process::ExitCode;

use microfaas_cli::args::Args;
use microfaas_cli::commands::{dispatch, usage};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    match Args::parse(argv).and_then(|args| dispatch(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
