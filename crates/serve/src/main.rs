//! The `dirca-serve` binary: a crash-tolerant scenario service.
//!
//! ```text
//! dirca-serve [--listen ADDR] [--state-dir DIR] [--queue-cap K]
//!             [--threads T] [--io-timeout-ms MS]
//! ```
//!
//! Prints `listening on ADDR` on stdout once bound (with `--listen
//! 127.0.0.1:0` this reveals the ephemeral port), then serves until a
//! client sends `SHUTDOWN`, exiting 0. Checkpoints live under
//! `--state-dir`, one file per grid fingerprint: kill the process at any
//! point, restart it on the same state dir, resubmit the same spec, and
//! the report comes back byte-identical with the finished cells restored
//! instead of re-run.

use std::io::Write;
use std::path::PathBuf;

use dirca_experiments::cli::Flags;
use dirca_serve::{Duration, Server, ServerConfig};

fn main() {
    let flags = Flags::from_env();
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        listen: flags.get("listen").unwrap_or("127.0.0.1:0").to_string(),
        state_dir: flags
            .get("state-dir")
            .map_or(defaults.state_dir, PathBuf::from),
        queue_cap: flags.get_usize("queue-cap", defaults.queue_cap),
        threads: flags.get_threads(),
        io_timeout: Duration::from_millis(flags.get_u64("io-timeout-ms", 10_000)),
    };
    let mut server = Server::bind(config).unwrap_or_else(|e| {
        eprintln!("cannot start server: {e}");
        std::process::exit(1);
    });
    let addr = server.local_addr().unwrap_or_else(|e| {
        eprintln!("cannot read bound address: {e}");
        std::process::exit(1);
    });
    println!("listening on {addr}");
    let _ = std::io::stdout().flush();
    if let Err(e) = server.run() {
        eprintln!("server failed: {e}");
        std::process::exit(1);
    }
}
