//! Content-addressed chunk chains: the keying layer of block-granular
//! cross-session KV dedup.
//!
//! The store's unit of storage is a *chunk* of KV, addressed by the hash
//! of everything up to and including it. Under
//! [`KeyingMode::ContentAddressed`] chunks are `block_tokens` long;
//! under [`KeyingMode::PerSession`] a session is one chunk. Two sessions whose token streams share a prefix produce
//! identical chain hashes for the shared chunks and therefore resolve to
//! the *same* stored nodes — a million users on one system prompt store
//! its KV once.
//!
//! The chain hash doubles as the radix-tree lookup: because chunk `k`'s
//! hash folds in chunk `k-1`'s, the map `chain_hash → node` *is* the
//! prefix trie, and longest-prefix match is a walk of successive chain
//! hashes until the first miss (the same trick vLLM's prefix caching
//! uses). No explicit tree needs maintaining.
//!
//! Token content is abstracted by seeds: the simulator never materializes
//! tokens, so a [`ContentKey`] describes a session's stream as a shared
//! prefix (`shared_seed` for the first `shared_tokens` tokens — the
//! system prompt, parent agent context or RAG document all sessions in a
//! pool present verbatim) followed by private tokens (`private_seed`).
//! Chunks fully inside the shared span hash from the shared seed alone,
//! so they collide — deliberately — across the pool; chunks touching
//! private tokens fold the private seed in and never collide across
//! sessions. Context truncation rewrites history in place, so it bumps
//! `generation`, which poisons every chunk hash and forks the session
//! onto a fresh private chain (copy-on-divergence, observable as a
//! `block_diverged` event).

use serde::{Deserialize, Serialize};

/// How the store keys saved KV.
///
/// Both modes store chunk chains in the same ledger; the mode decides
/// only the chunk size (a whole session, or `block_tokens`) and whether the
/// `block_*` dedup events are emitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeyingMode {
    /// One session = one private chunk, no cross-session sharing — the
    /// paper's session-granular scheme.
    #[default]
    PerSession,
    /// Fixed-size chunks content-addressed by prefix chain hash, shared
    /// across sessions, refcount-evicted.
    ContentAddressed,
}

impl KeyingMode {
    /// Tokens per chunk: unbounded under per-session keying (a session
    /// is one chunk, however long), `block_tokens` under
    /// content-addressed keying.
    pub(crate) fn chunk_tokens(self, block_tokens: u64) -> u64 {
        match self {
            KeyingMode::PerSession => u64::MAX,
            KeyingMode::ContentAddressed => block_tokens,
        }
    }

    /// Lowercase label used in configs and tables.
    pub fn label(self) -> &'static str {
        match self {
            KeyingMode::PerSession => "per_session",
            KeyingMode::ContentAddressed => "content_addressed",
        }
    }
}

/// splitmix64 finalizer: the same mixer the fault dice and entry
/// checksums use, so one u64 in, one well-distributed u64 out.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Folds `b` into running hash `a`.
fn fold(a: u64, b: u64) -> u64 {
    mix(a ^ b.wrapping_mul(0x9e3779b97f4a7c15))
}

/// Describes one session's token content for chunk hashing.
///
/// The engine registers a key per session before its first save (from
/// the workload's `PrefixContent`, when present); sessions without one
/// get [`ContentKey::private`], whose chunks never collide with anyone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentKey {
    /// Seed of the shared prefix content (pool/document/parent id).
    pub shared_seed: u64,
    /// Length of the shared prefix in tokens; 0 = fully private.
    pub shared_tokens: u64,
    /// Seed of the session-private tokens after the shared prefix.
    pub private_seed: u64,
    /// Bumped on truncation: history was rewritten in place, so every
    /// chunk of the old chain is invalid for matching.
    pub generation: u64,
}

impl ContentKey {
    /// A fully private key for a session with no declared shared prefix.
    pub fn private(session: u64) -> Self {
        ContentKey {
            shared_seed: 0,
            shared_tokens: 0,
            private_seed: mix(session ^ 0xa076_1d64_78bd_642f),
            generation: 0,
        }
    }

    /// Hash of chunk `index` covering tokens `[start, start + n)`.
    ///
    /// Chunks fully inside the shared span (generation 0) hash from the
    /// shared seed alone — identical across every session of the pool.
    /// A chunk straddling the shared/private boundary folds both seeds
    /// (still deterministic, but private). Anything past the boundary,
    /// or any chunk of a truncated (generation > 0) session, is private.
    pub fn chunk_hash(&self, index: u64, start: u64, n: u64) -> u64 {
        let span = fold(index, n);
        if self.is_shared(start, n) {
            fold(self.shared_seed, span)
        } else if self.generation == 0 && start < self.shared_tokens {
            fold(fold(self.shared_seed, self.private_seed), span)
        } else {
            fold(fold(self.private_seed, self.generation), span)
        }
    }

    /// Whether the chunk covering tokens `[start, start + n)` lies wholly
    /// inside the shared span of an untruncated session, so that every
    /// session of the pool hashes it alike. Any other chunk is private:
    /// only this session can produce its hash.
    pub(crate) fn is_shared(&self, start: u64, n: u64) -> bool {
        self.generation == 0 && start + n <= self.shared_tokens
    }

    /// Extends chain hash `prev` (use [`CHAIN_SEED`] for chunk 0) with
    /// chunk hash `h`.
    pub fn chain_hash(prev: u64, h: u64) -> u64 {
        fold(prev, h)
    }

    /// The chain hashes of the first `tokens` tokens chunked every
    /// `block_tokens`, in order. The last chunk may be partial; its
    /// token count is folded into the hash, so a partial tail only
    /// matches a chunk of exactly the same extent.
    pub fn chain(&self, tokens: u64, block_tokens: u64) -> Vec<ChunkKey> {
        let b = block_tokens.max(1);
        let mut out = Vec::with_capacity(tokens.div_ceil(b) as usize);
        let mut prev = CHAIN_SEED;
        let mut start = 0;
        let mut index = 0;
        while start < tokens {
            let n = b.min(tokens - start);
            let h = self.chunk_hash(index, start, n);
            prev = ContentKey::chain_hash(prev, h);
            out.push(ChunkKey {
                chain_hash: prev,
                tokens: n,
            });
            start += n;
            index += 1;
        }
        out
    }
}

/// Root of every chunk chain.
pub const CHAIN_SEED: u64 = 0x4b56_6368_6169_6e00; // "KVchain"

/// One chunk's identity in a chain: the cumulative chain hash plus the
/// chunk's token extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkKey {
    /// Cumulative hash of everything up to and including this chunk.
    pub chain_hash: u64,
    /// Tokens this chunk covers (partial tails < `block_tokens`).
    pub tokens: u64,
}

/// Cumulative dedup statistics of the content-addressed ledger.
///
/// Kept separate from [`crate::StoreStats`], which is embedded in the
/// golden-pinned run reports and must not gain fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DedupStats {
    /// Consults that matched at least one stored block.
    pub lookup_hits: u64,
    /// Blocks matched across all consults.
    pub matched_blocks: u64,
    /// Save-side chunks that resolved to an already-stored node.
    pub dedup_blocks: u64,
    /// Save-side chunks written fresh.
    pub new_blocks: u64,
    /// Bytes *not* written because the chunk already existed.
    pub bytes_saved: u64,
    /// Bytes physically written by saves.
    pub bytes_written: u64,
    /// Sessions that forked off a shared chain (copy-on-divergence).
    pub divergences: u64,
    /// Unreferenced nodes reclaimed (the refcounted eviction path).
    pub refcounted_evictions: u64,
    /// Chains released because a bottom-tier node they reference was
    /// evicted (or a node that could not demote was dropped).
    pub session_releases: u64,
}

impl DedupStats {
    /// Fraction of saved chunks that were dedup hits.
    pub fn dedup_ratio(&self) -> f64 {
        let total = self.dedup_blocks + self.new_blocks;
        if total == 0 {
            return 0.0;
        }
        self.dedup_blocks as f64 / total as f64
    }

    /// Logical bytes stored per physical byte written — the effective
    /// capacity multiplier dedup buys.
    pub fn effective_capacity_factor(&self) -> f64 {
        if self.bytes_written == 0 {
            return 1.0;
        }
        (self.bytes_written + self.bytes_saved) as f64 / self.bytes_written as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_prefix_chunks_collide_private_tails_do_not() {
        let a = ContentKey {
            shared_seed: 7,
            shared_tokens: 256,
            private_seed: 1,
            generation: 0,
        };
        let b = ContentKey {
            shared_seed: 7,
            shared_tokens: 256,
            private_seed: 2,
            generation: 0,
        };
        let ca = a.chain(512, 128);
        let cb = b.chain(512, 128);
        assert_eq!(ca.len(), 4);
        // First two chunks are fully inside the shared 256 tokens.
        assert_eq!(ca[0], cb[0]);
        assert_eq!(ca[1], cb[1]);
        // Past the boundary the private seeds fork the chains.
        assert_ne!(ca[2], cb[2]);
        assert_ne!(ca[3], cb[3]);
    }

    #[test]
    fn straddling_chunk_is_deterministic_but_private() {
        let a = ContentKey {
            shared_seed: 7,
            shared_tokens: 100,
            private_seed: 1,
            generation: 0,
        };
        let b = ContentKey {
            private_seed: 2,
            ..a
        };
        // Chunk [64, 128) straddles the 100-token boundary.
        assert_eq!(a.chain(128, 64)[1], a.chain(128, 64)[1]);
        assert_ne!(a.chain(128, 64)[1], b.chain(128, 64)[1]);
    }

    #[test]
    fn growth_extends_the_chain_in_place() {
        let k = ContentKey::private(9);
        let short = k.chain(300, 128);
        let long = k.chain(600, 128);
        // Full chunks of the shorter chain are a prefix of the longer.
        assert_eq!(short[0], long[0]);
        assert_eq!(short[1], long[1]);
        // The partial 44-token tail is replaced, not extended.
        assert_eq!(short[2].tokens, 44);
        assert_eq!(long[2].tokens, 128);
        assert_ne!(short[2].chain_hash, long[2].chain_hash);
    }

    #[test]
    fn generation_bump_forks_everything() {
        let k = ContentKey {
            shared_seed: 7,
            shared_tokens: 256,
            private_seed: 1,
            generation: 0,
        };
        let bumped = ContentKey { generation: 1, ..k };
        let a = k.chain(256, 128);
        let b = bumped.chain(256, 128);
        assert_ne!(a[0], b[0]);
        assert_ne!(a[1], b[1]);
    }

    #[test]
    fn dedup_stats_ratios() {
        let mut d = DedupStats::default();
        assert_eq!(d.dedup_ratio(), 0.0);
        assert_eq!(d.effective_capacity_factor(), 1.0);
        d.dedup_blocks = 3;
        d.new_blocks = 1;
        d.bytes_saved = 300;
        d.bytes_written = 100;
        assert!((d.dedup_ratio() - 0.75).abs() < 1e-12);
        assert!((d.effective_capacity_factor() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn per_session_keying_is_a_one_chunk_chain() {
        let k = ContentKey::private(3);
        let chunk = KeyingMode::PerSession.chunk_tokens(128);
        let chain = k.chain(1_000_000, chunk);
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].tokens, 1_000_000);
        assert_eq!(KeyingMode::ContentAddressed.chunk_tokens(128), 128);
        assert!(k.chain(0, chunk).is_empty());
    }

    #[test]
    fn keying_labels() {
        assert_eq!(KeyingMode::default(), KeyingMode::PerSession);
        assert_eq!(KeyingMode::PerSession.label(), "per_session");
        assert_eq!(KeyingMode::ContentAddressed.label(), "content_addressed");
    }
}
