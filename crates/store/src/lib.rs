#![warn(missing_docs)]

//! AttentionStore: the hierarchical KV caching system of CachedAttention.
//!
//! When a conversation session goes inactive, the serving engine hands its
//! KV cache to this store; when the session resumes, the engine asks for it
//! back. Internally the store manages a configurable stack of tiers (the
//! paper's §4.1 testbed is host DRAM over SSD; deeper stacks add pooled
//! memory and object storage) in fixed-size blocks, at *session
//! granularity*: a session's KV is either all useful or not at all
//! (§3.3.2), so sessions move between adjacent tiers whole, hop by hop.
//!
//! The two placement schemes from §3.3:
//!
//! - **Scheduler-aware fetching**: a look-ahead prefetch window over the
//!   job scheduler's queue, sized `C_mem / S_kv`, pulls slow-tier KV
//!   into tier 0 before its job runs.
//! - **Scheduler-aware eviction**: a look-ahead eviction window sized by
//!   the stack's total capacity over `S_kv` (the paper's
//!   `(C_mem + C_disk) / S_kv`). Chunks a session in the window will
//!   read are exempt where possible; when every candidate has such a
//!   next use, the one whose next use is furthest away (Belady with a
//!   horizon) goes first. Victims demote one hop down; bottom-tier
//!   victims leave the system.
//!
//! LRU and FIFO baselines ([`PolicyKind`], Figure 21) share the same tiers
//! but see no queue and never prefetch.
//!
//! The store is *pure bookkeeping*: methods take the current virtual time
//! and return adjacent-tier [`Transfer`] hops; the serving engine charges
//! those hops on the simulated per-boundary links.

mod block;
mod chain;
mod entry;
mod events;
mod policy;
#[allow(clippy::module_inception)]
mod store;

pub use block::{BlockId, BlockPool};
pub use chain::{ChunkKey, ContentKey, DedupStats, KeyingMode, CHAIN_SEED};
pub use entry::{SessionId, TierId};
pub use events::{FetchKind, StoreEvent};
pub use policy::{PolicyKind, QueueView};
pub use store::{
    AttentionStore, DegradeReason, FaultStats, Lookup, PrefetchOutcome, PrefixMatch, PrefixOutcome,
    SaveOutcome, StoreConfig, StoreStats, Transfer,
};
