//! The `spotverse` binary: parse argv, dispatch, print.

use std::process::ExitCode;

use spotverse_cli::CliError;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match spotverse_cli::run(argv) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            if let CliError::FailedCells { output, .. } = &e {
                // The table stays on stdout, failed rows and all.
                print!("{output}");
            }
            eprintln!("error: {e}");
            // Only argv and flag errors are fixed by reading the usage.
            if matches!(e, CliError::Args(_) | CliError::BadInput(_)) {
                eprintln!("run `spotverse help` for usage");
            }
            ExitCode::FAILURE
        }
    }
}
