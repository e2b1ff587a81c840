//! GPU and cluster hardware descriptions, including the storage tier
//! stack backing the AttentionStore.

use serde::{Deserialize, Error, Serialize, Value};

/// One GPU's compute and memory characteristics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GpuSpec {
    /// Display name.
    pub name: &'static str,
    /// Peak FP16 tensor throughput, FLOP/s.
    pub flops_f16: f64,
    /// HBM capacity in bytes.
    pub hbm_bytes: u64,
    /// HBM bandwidth, bytes/s.
    pub hbm_bw: f64,
}

impl GpuSpec {
    /// NVIDIA A100-80G: 312 TFLOP/s FP16, 80 GB HBM2e at ~2 TB/s.
    pub fn a100_80g() -> Self {
        GpuSpec {
            name: "A100-80G",
            flops_f16: 312e12,
            hbm_bytes: 80_000_000_000,
            hbm_bw: 2.0e12,
        }
    }
}

/// One storage tier of the KV-cache hierarchy, ordered fastest first in a
/// [`TierStack`] (index 0 is the staging tier the engine reads from).
///
/// Tiers are *data, not code*: the paper's DRAM/SSD pair is just the
/// default two-element stack, and deeper hierarchies (remote pooled
/// memory, object storage) are extra entries with their own bandwidths,
/// per-hop latency and rental price.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TierSpec {
    /// Display name; keys telemetry counters and Chrome-trace tracks.
    pub name: &'static str,
    /// Capacity available to the store, bytes.
    pub capacity: u64,
    /// Read (promotion) bandwidth when fetching *from* this tier, bytes/s.
    pub read_bw: f64,
    /// Write (demotion/spill) bandwidth into this tier, bytes/s.
    pub write_bw: f64,
    /// Fixed per-transfer setup latency when crossing into or out of this
    /// tier, seconds. The paper's DRAM/SSD model folds latency into
    /// bandwidth, so both default tiers use 0.0 (keeping the golden
    /// fixtures bit-identical); remote tiers model their RTT here.
    pub latency: f64,
    /// Rental price, $ per GB per hour (the §4.2 cost-analysis inputs).
    pub dollars_per_gb: f64,
}

impl TierSpec {
    /// Spare GPU memory: the A100's ~2 TB/s HBM. Free per GB because its
    /// GPU is billed as compute. As tier 0 it is device memory, so reused
    /// KV needs no host→device load.
    pub fn hbm(capacity: u64) -> Self {
        TierSpec {
            name: "hbm",
            capacity,
            read_bw: 2.0e12,
            write_bw: 2.0e12,
            latency: 0.0,
            dollars_per_gb: 0.0,
        }
    }

    /// Host DRAM at the paper's EC2 price ($0.0088/GB·h). Bandwidth is
    /// the effective host-link rate (PCIe Gen4 ×16); tier-0 bandwidths
    /// are only consulted when a *deeper* tier stages through this one.
    pub fn dram(capacity: u64) -> Self {
        TierSpec {
            name: "dram",
            capacity,
            read_bw: 26e9,
            write_bw: 26e9,
            latency: 0.0,
            dollars_per_gb: 0.0088,
        }
    }

    /// Remote pooled memory: an RDMA-class link (~12.5 GB/s, a few µs of
    /// RTT) between host DRAM and SSD, priced at half the DRAM rate.
    pub fn pooled_memory(capacity: u64) -> Self {
        TierSpec {
            name: "pooled",
            capacity,
            read_bw: 12.5e9,
            write_bw: 12.5e9,
            latency: 3e-6,
            dollars_per_gb: 0.0044,
        }
    }

    /// Local SSD matching the paper's testbed: 4 GB/s read, 3 GB/s write,
    /// $0.000082/GB·h.
    pub fn ssd(capacity: u64) -> Self {
        TierSpec {
            name: "disk",
            capacity,
            read_bw: 4.0e9,
            write_bw: 3.0e9,
            latency: 0.0,
            dollars_per_gb: 0.000082,
        }
    }

    /// Object storage below SSD: ~1 GB/s streaming reads, tens of ms of
    /// first-byte latency, S3-class pricing (~$0.023/GB·month).
    pub fn object_store(capacity: u64) -> Self {
        TierSpec {
            name: "object",
            capacity,
            read_bw: 1.0e9,
            write_bw: 0.5e9,
            latency: 0.05,
            dollars_per_gb: 0.000032,
        }
    }

    /// Whether this is GPU device memory (the `hbm` tier): KV staged
    /// here needs no host→device load before a prefill reuses it.
    pub fn is_device_memory(&self) -> bool {
        self.name == "hbm"
    }

    /// Returns a copy with a different capacity.
    pub fn with_capacity(mut self, bytes: u64) -> Self {
        self.capacity = bytes;
        self
    }

    /// Hourly rental cost of the whole tier, dollars.
    pub fn dollars_per_hour(&self) -> f64 {
        self.capacity as f64 / 1e9 * self.dollars_per_gb
    }
}

/// Interns a deserialized tier name: well-known names map to their static
/// labels, novel ones are leaked once (tier vocabularies are tiny and
/// config-lifetime, so the leak is bounded and intentional).
fn intern_tier_name(name: &str) -> &'static str {
    match name {
        "dram" => "dram",
        "pooled" => "pooled",
        "disk" => "disk",
        "object" => "object",
        "hbm" => "hbm",
        other => Box::leak(other.to_string().into_boxed_str()),
    }
}

impl Deserialize for TierSpec {
    /// Hand-written because `name` is a `&'static str`: well-known names
    /// resolve to their static labels, unknown ones are interned.
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |key: &str| {
            v.get(key)
                .ok_or_else(|| Error::custom(format!("TierSpec missing field `{key}`")))
        };
        let name = match field("name")? {
            Value::Str(s) => intern_tier_name(s),
            other => {
                return Err(Error::custom(format!(
                    "TierSpec name must be a string, got {}",
                    other.kind()
                )))
            }
        };
        Ok(TierSpec {
            name,
            capacity: u64::from_value(field("capacity")?)?,
            read_bw: f64::from_value(field("read_bw")?)?,
            write_bw: f64::from_value(field("write_bw")?)?,
            latency: f64::from_value(field("latency")?)?,
            dollars_per_gb: f64::from_value(field("dollars_per_gb")?)?,
        })
    }
}

/// An ordered stack of storage tiers, fastest first.
///
/// Index 0 is the staging tier the serving engine reads KV from; every
/// deeper tier is reached hop-by-adjacent-hop (tier `t` only ever
/// exchanges data with tiers `t±1`). The paper's hierarchy is
/// [`TierStack::paper_two_tier`]; [`TierStack::push`] grows it downward.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierStack(pub Vec<TierSpec>);

impl TierStack {
    /// Builds a stack from tiers ordered fastest first.
    ///
    /// # Panics
    ///
    /// Panics on an empty tier list.
    pub fn new(tiers: Vec<TierSpec>) -> Self {
        assert!(!tiers.is_empty(), "a tier stack needs at least one tier");
        TierStack(tiers)
    }

    /// The paper's §4.1 hierarchy: 128 GB host DRAM over 10 TB SSD.
    pub fn paper_two_tier() -> Self {
        TierStack::two_tier(128_000_000_000, 10_000_000_000_000)
    }

    /// A DRAM/SSD pair with explicit capacities (the pre-refactor
    /// `dram_bytes`/`disk_bytes` shape).
    pub fn two_tier(dram_bytes: u64, disk_bytes: u64) -> Self {
        TierStack(vec![TierSpec::dram(dram_bytes), TierSpec::ssd(disk_bytes)])
    }

    /// Number of tiers.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Always `false` (construction rejects empty stacks); provided for
    /// clippy's `len_without_is_empty`.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The tier at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<&TierSpec> {
        self.0.get(index)
    }

    /// Iterates tiers fastest first.
    pub fn iter(&self) -> std::slice::Iter<'_, TierSpec> {
        self.0.iter()
    }

    /// Appends a tier below the current bottom and returns the stack.
    pub fn push(mut self, tier: TierSpec) -> Self {
        self.0.push(tier);
        self
    }

    /// Total capacity across every tier, bytes.
    pub fn total_capacity(&self) -> u64 {
        self.0.iter().map(|t| t.capacity).sum()
    }

    /// Capacity below tier 0 (everything that must be staged up), bytes.
    pub fn slow_capacity(&self) -> u64 {
        self.0.iter().skip(1).map(|t| t.capacity).sum()
    }

    /// Hourly rental cost of the whole stack, dollars.
    pub fn dollars_per_hour(&self) -> f64 {
        self.0.iter().map(TierSpec::dollars_per_hour).sum()
    }
}

impl std::ops::Index<usize> for TierStack {
    type Output = TierSpec;

    fn index(&self, index: usize) -> &TierSpec {
        &self.0[index]
    }
}

impl std::ops::IndexMut<usize> for TierStack {
    fn index_mut(&mut self, index: usize) -> &mut TierSpec {
        &mut self.0[index]
    }
}

impl<'a> IntoIterator for &'a TierStack {
    type Item = &'a TierSpec;
    type IntoIter = std::slice::Iter<'a, TierSpec>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// The serving node: GPUs and their host link.
///
/// Defaults mirror the paper's testbed (§4.1): 4×A100-80G and PCIe Gen4
/// ×16 at ~26 GB/s effective.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterSpec {
    /// Per-GPU characteristics.
    pub gpu: GpuSpec,
    /// Number of GPUs the model is sharded across.
    pub n_gpus: u32,
    /// Effective host↔device bandwidth per direction, bytes/s.
    pub pcie_bw: f64,
    /// The paper testbed's storage tiers, fastest first. The simulator
    /// does not read this field: the store's stack is the engine's
    /// `StoreConfig::tiers`. It stays only because `perfbench` assigns
    /// it.
    pub tiers: TierStack,
}

impl ClusterSpec {
    /// The paper's testbed: 4×A100-80G, 128 GB DRAM, 10 TB SSD.
    pub fn paper_testbed() -> Self {
        ClusterSpec {
            gpu: GpuSpec::a100_80g(),
            n_gpus: 4,
            pcie_bw: 26e9,
            tiers: TierStack::paper_two_tier(),
        }
    }

    /// Returns a copy running on `n` GPUs (LLaMA-13B uses 2 in §4.1).
    pub fn with_gpus(mut self, n: u32) -> Self {
        assert!(n > 0, "need at least one GPU");
        self.n_gpus = n;
        self
    }

    /// Aggregate FP16 throughput across GPUs, FLOP/s.
    pub fn total_flops(&self) -> f64 {
        self.gpu.flops_f16 * self.n_gpus as f64
    }

    /// Aggregate HBM bandwidth across GPUs, bytes/s.
    pub fn total_hbm_bw(&self) -> f64 {
        self.gpu.hbm_bw * self.n_gpus as f64
    }

    /// Aggregate HBM capacity across GPUs, bytes.
    pub fn total_hbm_bytes(&self) -> u64 {
        self.gpu.hbm_bytes * self.n_gpus as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_matches_section_4_1() {
        let c = ClusterSpec::paper_testbed();
        assert_eq!(c.n_gpus, 4);
        assert!((c.pcie_bw - 26e9).abs() < 1.0);
        let stack = TierStack::paper_two_tier();
        assert_eq!(c.tiers, stack);
        assert_eq!(stack[0].capacity, 128_000_000_000);
        assert_eq!(stack.slow_capacity(), 10_000_000_000_000);
        // Pins the *preset* only: configured stacks are free to use
        // faster tiers (pooled memory, NVMe-oF, ...).
        assert!(
            stack[1].read_bw < 5e9,
            "paper preset: testbed disks under 5 GB/s"
        );
    }

    #[test]
    fn builders_override_fields() {
        let c = ClusterSpec::paper_testbed().with_gpus(2);
        assert_eq!(c.n_gpus, 2);
    }

    #[test]
    fn aggregates_scale_with_gpu_count() {
        let c = ClusterSpec::paper_testbed();
        assert_eq!(c.total_flops(), 4.0 * 312e12);
        assert_eq!(c.total_hbm_bytes(), 320_000_000_000);
    }

    #[test]
    fn four_tier_stack_orders_fastest_first() {
        let stack = TierStack::new(vec![
            TierSpec::dram(64_000_000_000),
            TierSpec::pooled_memory(256_000_000_000),
            TierSpec::ssd(2_000_000_000_000),
            TierSpec::object_store(100_000_000_000_000),
        ]);
        assert_eq!(stack.len(), 4);
        assert_eq!(stack[1].name, "pooled");
        assert_eq!(
            stack.total_capacity(),
            64_000_000_000 + 256_000_000_000 + 2_000_000_000_000 + 100_000_000_000_000
        );
        assert_eq!(
            stack.slow_capacity(),
            stack.total_capacity() - stack[0].capacity
        );
        // Bandwidths decrease and prices decrease going down the stack.
        for pair in stack.0.windows(2) {
            assert!(pair[0].read_bw >= pair[1].read_bw);
            assert!(pair[0].dollars_per_gb >= pair[1].dollars_per_gb);
        }
    }

    #[test]
    fn stack_pricing_sums_tier_rentals() {
        let stack = TierStack::paper_two_tier();
        let expected = 128.0 * 0.0088 + 10_000.0 * 0.000082;
        assert!((stack.dollars_per_hour() - expected).abs() < 1e-9);
    }

    #[test]
    fn tier_specs_round_trip_through_serde() {
        let stack = TierStack::paper_two_tier().push(TierSpec::object_store(5_000_000_000_000));
        let v = stack.to_value();
        let back = TierStack::from_value(&v).expect("round-trips");
        assert_eq!(back, stack);
    }
}
