//! Table 1: perplexity of CA / TT / NKVT on trained tiny RoPE LMs.

fn main() {
    let quick = bench_suite::Args::from_env().has("--quick");
    let (steps, episodes) = if quick { (700, 8) } else { (2_000, 24) };
    println!(
        "{}",
        bench_suite::experiments::tab12::table1(steps, episodes)
    );
}
