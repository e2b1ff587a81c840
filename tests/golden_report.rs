//! Golden-report regression tests: pin the serving simulator's exact
//! behavior, bit for bit, across refactors.
//!
//! Each scenario runs a fixed-seed workload through the engine and
//! serializes the full [`RunReport`] to JSON. Because the simulator is
//! deterministic and the JSON writer prints floats with their shortest
//! round-trip representation, any behavioral change — a reordered
//! bandwidth charge, a different admission decision, an off-by-one in
//! the eviction window — shows up as a byte-level diff against the
//! committed fixture in `tests/golden/`.
//!
//! To regenerate fixtures after an *intentional* behavior change:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test golden_report
//! ```
//!
//! and commit the diff together with an explanation of why the numbers
//! moved.

use bench_suite::profile::{golden_scenarios, pressured, MEDIUMS, MODES};
use cachedattention::engine::{run_trace, EngineConfig};
use cachedattention::workload::{Generator, ShareGptProfile};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Runs one scenario over the goldens' 20-session, seed-7 trace and
/// checks (or regenerates) its fixture.
fn check(name: &str, cfg: EngineConfig) {
    let trace = Generator::new(ShareGptProfile::default(), 7).trace(20);
    let report = run_trace(cfg, trace);
    let mut json = serde_json::to_string_pretty(&report).expect("report serializes");
    json.push('\n');

    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, &json).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected, json,
        "report for scenario `{name}` diverged from its golden fixture; \
         if the change is intentional, regenerate with REGEN_GOLDEN=1 and \
         commit the diff"
    );
}

/// Checks the canonical matrix's scenario named `name`.
fn check_named(name: &str) {
    let cfg = golden_scenarios()
        .into_iter()
        .find_map(|(n, cfg)| (n == name).then_some(cfg))
        .unwrap_or_else(|| panic!("no golden scenario named `{name}`"));
    check(name, cfg);
}

/// Every mode on every medium under the [`pressured`] store, which
/// overflows DRAM and spills to the slow tier, exercising eviction,
/// prefetch and both transfer links.
#[test]
fn golden_modes_by_mediums() {
    for mode in MODES {
        for (medium, label) in MEDIUMS {
            let name = format!("{}_{label}", mode.label().to_lowercase());
            check(&name, pressured(mode, medium));
        }
    }
}

/// Chunked prefill exercises the chunk issue/complete path in the
/// execution stage.
#[test]
fn golden_chunked_prefill() {
    check_named("ca_dramdisk_chunked");
}

/// KV compression scales stored bytes and transfer times but not
/// compute; pins the compression-aware accounting in the transfer plan.
#[test]
fn golden_kv_compression() {
    check_named("ca_dramdisk_int4");
}

/// The ablations from Fig 19/20: no layer-wise preload, no async save.
#[test]
fn golden_ablations() {
    check_named("ca_dramdisk_no_preload");
    check_named("ca_dramdisk_no_async_save");
}
