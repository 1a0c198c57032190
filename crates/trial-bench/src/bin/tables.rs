//! Prints the experiment tables that regenerate the paper's checkable claims
//! (`e1` … `e15`; see the `trial_bench` crate docs).
//!
//! Usage:
//!
//! ```text
//! cargo run -p trial-bench --bin tables --release -- all
//! cargo run -p trial-bench --bin tables --release -- e3 e5
//! ```

use trial_bench::{run_experiment, ALL_EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    for id in ids {
        match run_experiment(&id) {
            Some(report) => println!("{report}"),
            None => {
                eprintln!(
                    "unknown experiment `{id}` (known: {})",
                    ALL_EXPERIMENTS.join(", ")
                );
                std::process::exit(1);
            }
        }
    }
}
