//! `ledger` — run, trace and diff the ctup benchmark.

use ctup_ledger::cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::main(&args) {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("ledger: {message}");
            std::process::exit(2);
        }
    }
}
