//! E1 — regenerates Fig. 5: analytical maximum throughput vs beamwidth.
//!
//! Usage: `fig5 [--n 5] [--all] [--with-p] [--svg DIR]`
//!
//! `--n` selects a single density; `--all` prints N = 3, 5, and 8;
//! `--with-p` also prints the optimal attempt probabilities; `--svg DIR`
//! also draws each density's chart as `DIR/fig5_n{N}.svg`. A directory
//! that cannot be created or written exits with status 1.

use dirca_experiments::cli::Flags;
use dirca_experiments::fig5;
use dirca_experiments::plot::write_svgs;

fn main() {
    let flags = Flags::from_env();
    let svg_dir = flags.try_get_path("svg").unwrap_or_else(|e| e.exit());
    let densities: Vec<f64> = if flags.has("all") {
        vec![3.0, 5.0, 8.0]
    } else {
        vec![flags.get_density("n", 5.0)]
    };
    let mut svgs = Vec::new();
    for n in densities {
        let rows = fig5::compute(n);
        println!("{}", fig5::render(n, &rows));
        if flags.has("with-p") {
            println!("{}", fig5::render_optimal_p(n));
        }
        if svg_dir.is_some() {
            svgs.push((format!("fig5_n{n:.0}.svg"), fig5::svg(n, &rows)));
        }
    }
    if let Some(dir) = svg_dir {
        write_svgs(dir, &svgs).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
    }
}
