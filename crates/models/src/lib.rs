#![warn(missing_docs)]

//! Model and hardware descriptions plus the analytic GPU cost model.
//!
//! The CachedAttention paper evaluates on real A100 clusters; this crate is
//! the substitution: [`ModelSpec`] captures the architecture parameters that
//! determine KV cache footprints, [`ClusterSpec`] captures the hardware
//! bandwidths/capacities, and [`CostModel`] turns (model, cluster, token
//! counts) into prefill/decode latencies.
//!
//! The cost model is calibrated against the paper's own anchor numbers
//! (§2.4): LLaMA-65B on 4×A100 prefills 2K tokens in ~360 ms, producing
//! 5 GB of KV cache (2.5 MB/token) at ~13.9 GB/s, while PCIe Gen4 ×16 moves
//! ~26 GB/s. Unit tests pin those anchors.

mod cost;
mod hw;
mod spec;

pub use cost::{CostModel, DecodeCost};
pub use hw::{ClusterSpec, GpuSpec, TierSpec, TierStack};
pub use spec::{Dtype, ModelSpec};

/// Returns the four models used in the paper's end-to-end evaluation
/// (Figures 13–17, 22, 24): LLaMA-2-13B, LLaMA-1-65B, LLaMA-2-70B and
/// Falcon-40B.
pub fn evaluation_models() -> Vec<ModelSpec> {
    vec![
        ModelSpec::llama2_13b(),
        ModelSpec::llama1_65b(),
        ModelSpec::llama2_70b(),
        ModelSpec::falcon_40b(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_set_matches_paper() {
        let names: Vec<&str> = evaluation_models().iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            vec!["LLaMA-13B", "LLaMA-65B", "LLaMA-70B", "Falcon-40B"]
        );
    }
}
