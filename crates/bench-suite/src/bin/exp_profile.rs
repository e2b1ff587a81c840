//! Span-profile bench: per-turn critical paths for the canonical
//! scenario matrix, plus the perf-regression gate.
//!
//! ```text
//! exp_profile [--out PATH]        # write BENCH_profile.json-style JSON
//!             [--baseline PATH]   # diff against a committed profile;
//!                                 # exit 1 on any regression
//!             [--tolerance F]     # fractional band (default 0.05)
//! ```
//!
//! With no flags it runs the 13 golden scenarios traced, folds each
//! trace into a span forest, and prints the TTFT/stall/overlap table —
//! the quickest way to see CachedAttention's §3.2 overlap (CA DramDisk
//! hides most of its KV transfer; Recompute has nothing to hide).

use bench_suite::profile::{collect_profile, compare, render_table, DEFAULT_TOLERANCE};
use bench_suite::Args;
use serde::{Serialize, Value};
use std::path::PathBuf;

fn main() {
    let args = Args::from_env();
    let out = args.value("--out").map(PathBuf::from);
    let baseline = args.value("--baseline").map(PathBuf::from);
    let tolerance = args
        .parse::<f64>("--tolerance")
        .unwrap_or(DEFAULT_TOLERANCE);

    let profile = collect_profile();
    println!("exp_profile: span profile of the 13 canonical scenarios");
    print!("{}", render_table(&profile));

    if let Some(path) = &out {
        let mut json = serde_json::to_string_pretty(&profile).expect("profiles always serialize");
        json.push('\n');
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("[exp_profile] wrote {}", path.display());
    }

    if let Some(path) = &baseline {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", path.display()));
        let base: Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("parse baseline {}: {e}", path.display()));
        let fails = compare(&base, &profile.to_value(), tolerance);
        if fails.is_empty() {
            println!(
                "regression gate: PASS vs {} (tolerance {:.0}%)",
                path.display(),
                tolerance * 100.0
            );
        } else {
            eprintln!(
                "regression gate: FAIL vs {} (tolerance {:.0}%)",
                path.display(),
                tolerance * 100.0
            );
            for f in &fails {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
    }
}
