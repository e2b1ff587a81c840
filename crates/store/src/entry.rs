//! Session and tier identifiers.

use serde::{Deserialize, Serialize};

/// Identifier of a conversation session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Index of a storage tier in the configured
/// [`TierStack`](models::TierStack), fastest first: tier 0 is the
/// staging tier the engine reads KV from (host DRAM in the paper's
/// stack), higher indices are progressively slower and cheaper.
///
/// This is the one canonical tier vocabulary: stored chunks record where
/// they live as a `TierId`, trace events carry `TierId`s, and telemetry maps
/// them back to [`TierSpec::name`](models::TierSpec) labels. It replaces
/// the old `Placement { Dram, Disk }` / `events::Tier { Dram, Disk }`
/// pair of two-variant enums.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TierId(pub usize);

impl TierId {
    /// The staging tier the engine reads from (DRAM in the paper stack).
    pub const FAST: TierId = TierId(0);

    /// Whether this is the fast staging tier (tier 0).
    pub fn is_fast(self) -> bool {
        self.0 == 0
    }

    /// The adjacent slower tier.
    pub fn below(self) -> TierId {
        TierId(self.0 + 1)
    }

    /// The adjacent faster tier, if any.
    pub fn above(self) -> Option<TierId> {
        self.0.checked_sub(1).map(TierId)
    }
}

impl std::fmt::Display for TierId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_id_displays_compactly() {
        assert_eq!(SessionId(42).to_string(), "s42");
    }

    #[test]
    fn tier_ids_order_fastest_first() {
        assert_eq!(TierId::FAST, TierId(0));
        assert!(TierId(0).is_fast());
        assert!(!TierId(1).is_fast());
        assert!(TierId(0) < TierId(1));
        assert_eq!(TierId(1).below(), TierId(2));
        assert_eq!(TierId(1).above(), Some(TierId(0)));
        assert_eq!(TierId(0).above(), None);
        assert_eq!(TierId(3).to_string(), "t3");
    }

    #[test]
    fn tier_id_serializes_as_bare_index() {
        assert_eq!(serde_json::to_string(&TierId(2)).unwrap(), "2");
    }
}
