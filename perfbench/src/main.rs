//! Entry point; see the library documentation for the interface.

use perfbench::cli::{self, Command};

fn main() {
    let command = match cli::parse(std::env::args().skip(1)) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let outcome = match command {
        Command::Bench(args) => {
            perfbench::run(&args).map(|report| println!("{}", report.to_json()))
        }
        Command::ShardWorker(args) => perfbench::sweep::worker_main(&args),
        Command::Reference { seed } => perfbench::sweep::reference_main(seed),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
