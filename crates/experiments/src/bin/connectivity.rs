//! E18 — validation: measured directional connectivity (mean out-degree,
//! isolation probability) vs the closed-form theory on Poisson fields.
//!
//! Usage: `connectivity [--quick | --large] [--nodes 2000] [--n 6]
//!                      [--trials 8] [--seed S]`

use dirca_experiments::cli::{Flags, UsageError};
use dirca_experiments::connectivity::{large, quick, render, Connectivity};

fn main() {
    let flags = Flags::from_env();
    let mut config = if flags.has("quick") {
        quick()
    } else if flags.has("large") {
        large()
    } else {
        Connectivity::default()
    };
    config.nodes = flags.get_count("nodes", config.nodes);
    config.n_avg = flags.get_density("n", config.n_avg);
    config.trials = flags.get_count("trials", config.trials);
    config.seed = flags.get_u64("seed", config.seed);
    if config.nodes as f64 <= config.n_avg {
        // No node of the field would lie a full range inside its border.
        UsageError {
            flag: "nodes".into(),
            expected: "more nodes than the density --n",
            got: config.nodes.to_string(),
        }
        .exit();
    }
    println!("{}", render(&config));
}
