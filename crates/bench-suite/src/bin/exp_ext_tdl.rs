//! Extension: TDL-based selective KV preservation (§3.4's compression hook).

fn main() {
    let quick = bench_suite::Args::from_env().has("--quick");
    let (steps, episodes) = if quick { (1_600, 24) } else { (4_000, 60) };
    println!(
        "{}",
        bench_suite::experiments::ext_tdl::run(steps, episodes)
    );
}
