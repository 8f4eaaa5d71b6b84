//! `ctup` — command-line front-end for Continuous Top-k Unsafe Places
//! monitoring. See `ctup help` / [`args::usage`].

mod args;
mod commands;
mod trace;

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let Some(command) = args::Command::from_name(&name) else {
        if matches!(name.as_str(), "help" | "--help" | "-h") {
            println!("{}", args::usage());
            return ExitCode::SUCCESS;
        }
        if !name.is_empty() {
            eprintln!("unknown subcommand {name:?}\n");
        }
        eprintln!("{}", args::usage());
        return ExitCode::from(2);
    };
    match commands::dispatch(command, argv.collect(), &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
