//! The `spotverse` binary: parse argv, dispatch, print.

use std::io::{self, Write};
use std::process::ExitCode;

use spotverse_cli::CliError;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match spotverse_cli::run(argv) {
        Ok(output) => match print(&output) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: writing stdout: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            if let CliError::FailedCells { output, .. } = &e {
                // The table stays on stdout, failed rows and all. A reader
                // that stopped early still gets the failure below.
                if let Err(w) = print(output) {
                    eprintln!("error: writing stdout: {w}");
                }
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

/// Writes `output` to stdout. A reader that closed the pipe early
/// (`spotverse traces | head`) is not an error: the rest is dropped.
fn print(output: &str) -> io::Result<()> {
    let mut stdout = io::stdout().lock();
    let written = stdout.write_all(output.as_bytes());
    match written.and_then(|()| stdout.flush()) {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        result => result,
    }
}
