//! Figure 21: eviction policies under various storage settings.
//!
//! Pass `--window-sweep` for the extra look-ahead-horizon ablation.

use bench_suite::experiments::fig21;
use bench_suite::{Args, Scale};

fn main() {
    let scale = Scale::from_args();
    println!("{}", fig21::run(scale));
    if Args::from_env().has("--window-sweep") {
        println!("{}", fig21::window_sweep(scale));
    }
}
