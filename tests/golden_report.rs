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

use bench_suite::profile::{golden_scenarios, mediums, pressured, MODES};
use cachedattention::engine::{run_trace, EngineConfig, Mode, RunReport};
use cachedattention::workload::{Generator, ShareGptProfile};
use std::collections::HashMap;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Runs one scenario over the goldens' 20-session, seed-7 trace,
/// checks (or regenerates) its fixture and returns the report.
fn check(name: &str, cfg: EngineConfig) -> RunReport {
    let trace = Generator::new(ShareGptProfile::default(), 7).trace(20);
    let report = run_trace(cfg, trace);
    let mut json = serde_json::to_string_pretty(&report).expect("report serializes");
    json.push('\n');

    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, &json).expect("write fixture");
        return report;
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
    report
}

/// Checks the canonical matrix's scenario named `name`.
fn check_named(name: &str) {
    let cfg = golden_scenarios()
        .into_iter()
        .find_map(|(n, cfg)| (n == name).then_some(cfg))
        .unwrap_or_else(|| panic!("no golden scenario named `{name}`"));
    check(name, cfg);
}

/// Every mode on every tier stack of [`mediums`] under the
/// [`pressured`] engine, whose 8 GB tier 0 overflows into the tier
/// below, exercising eviction, prefetch and both transfer links.
#[test]
fn golden_modes_by_mediums() {
    let mut reports = HashMap::new();
    for mode in MODES {
        for (tiers, label) in mediums() {
            let name = format!("{}_{label}", mode.label().to_lowercase());
            let device_tier0 = tiers[0].is_device_memory();
            let mut cfg = pressured(mode);
            cfg.store.tiers = tiers;
            let report = check(&name, cfg);
            // Reused KV crosses the host→device link only from a host
            // tier 0, and RE reuses nothing.
            assert_eq!(
                report.h2d_bytes == 0,
                device_tier0 || mode == Mode::Recompute,
                "{name}: h2d_bytes {}",
                report.h2d_bytes
            );
            let json = serde_json::to_string(&report).expect("report serializes");
            reports.insert(name, json);
        }
    }
    // HBM-only keeps nothing below tier 0, so the modes with a store
    // lose KV the HBM+DRAM stack keeps; RE has no store at all.
    for mode in ["ca", "of"] {
        assert_ne!(
            reports[&format!("{mode}_hbmonly")],
            reports[&format!("{mode}_hbmdram")],
            "{mode}: HBM-only must differ from HBM+DRAM"
        );
    }
    assert_eq!(reports["re_dramdisk"], reports["re_hbmdram"]);
    assert_eq!(reports["re_hbmdram"], reports["re_hbmonly"]);
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
