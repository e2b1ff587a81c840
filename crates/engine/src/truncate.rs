//! Truncation stage: the context-overflow policy (§3.4).
//!
//! When a session's history plus the new prompt no longer fits the model's
//! context window, the engine drops leading history in fixed-ratio slices
//! until the prompt fits. What happens to the *stored* KV then depends on
//! the positional-encoding scheme: decoupled encodings (CachedAttention)
//! let the cached KV be truncated in place and stay valid; coupled
//! encodings (the OF baseline) scramble positions, so the whole cache is
//! invalidated; the recompute baseline has no cache to worry about.
//!
//! [`truncate_history`] is the pure arithmetic; [`apply_store_effect`]
//! is the per-mode store side effect.

use store::{SessionId, StorePlanner};

use crate::Mode;

/// Outcome of the overflow check for one arriving turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncation {
    /// History length after truncation (unchanged when it already fit).
    pub new_hist: u64,
    /// Whether any history was dropped.
    pub truncated: bool,
}

/// Drops leading history in `⌈window · ratio⌉`-token slices until
/// `hist + user` fits in `window`. Prompts longer than the window are
/// clamped to it first (the engine never presents more than one window
/// of prompt).
///
/// The post-condition `new_hist + min(user, window) <= window` always
/// holds: the slice size is at least one token, so the loop either fits
/// the prompt or exhausts the history.
pub fn truncate_history(window: u64, ratio: f64, hist: u64, user: u64) -> Truncation {
    let user = user.min(window);
    if hist + user <= window {
        return Truncation {
            new_hist: hist,
            truncated: false,
        };
    }
    let drop = ((window as f64) * ratio).max(1.0) as u64;
    let mut h = hist;
    while h + user > window {
        let cut = drop.min(h);
        h -= cut;
        if cut == 0 {
            break;
        }
    }
    Truncation {
        new_hist: h,
        truncated: true,
    }
}

/// Applies the per-mode store side effect of a truncation: CA truncates
/// the cached KV in place (decoupled positional encoding, §3.4), OF
/// invalidates it wholesale (§4.3.4), RE has no store.
pub fn apply_store_effect(
    mode: Mode,
    store: Option<&mut dyn StorePlanner>,
    sid: SessionId,
    new_bytes: u64,
    new_tokens: u64,
) {
    match mode {
        Mode::CachedAttention => {
            if let Some(store) = store {
                store.truncate(sid, new_bytes, new_tokens);
            }
        }
        Mode::CoupledOverflow => {
            if let Some(store) = store {
                store.invalidate(sid);
            }
        }
        Mode::Recompute => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Time;
    use store::{AttentionStore, Lookup, QueueView, StoreConfig, TierId};

    #[test]
    fn no_truncation_when_context_fits() {
        let t = truncate_history(2048, 0.5, 1000, 500);
        assert_eq!(
            t,
            Truncation {
                new_hist: 1000,
                truncated: false
            }
        );
    }

    #[test]
    fn drops_in_ratio_slices() {
        // window 2048, ratio 0.5 → 1024-token slices. 2000 + 500 > 2048,
        // one slice leaves 976 + 500 <= 2048.
        let t = truncate_history(2048, 0.5, 2000, 500);
        assert_eq!(
            t,
            Truncation {
                new_hist: 976,
                truncated: true
            }
        );
    }

    #[test]
    fn oversized_prompt_exhausts_history() {
        // The prompt alone fills the window: all history goes.
        let t = truncate_history(2048, 0.5, 4000, 5000);
        assert!(t.truncated);
        assert_eq!(t.new_hist, 0);
    }

    /// The invariant the admission path relies on: the presented context
    /// (post-truncation history + clamped prompt) never exceeds the
    /// model window, across the whole parameter grid.
    #[test]
    fn result_never_exceeds_the_window() {
        for window in [1u64, 7, 64, 2048, 4096] {
            for ratio in [0.01, 0.25, 0.5, 0.99] {
                for hist in [0u64, 1, 63, 64, 1000, 2048, 10_000] {
                    for user in [0u64, 1, 64, 2048, 9999] {
                        let t = truncate_history(window, ratio, hist, user);
                        assert!(
                            t.new_hist + user.min(window) <= window,
                            "w={window} r={ratio} h={hist} u={user} -> {t:?}"
                        );
                        assert!(t.new_hist <= hist);
                        assert_eq!(t.truncated, hist + user.min(window) > window);
                    }
                }
            }
        }
    }

    #[test]
    fn store_effects_follow_the_mode() {
        let sid = SessionId(9);
        let view = QueueView::empty();
        let mk = || {
            let mut s = AttentionStore::new(StoreConfig::default());
            s.save(sid, 1_000_000, 100, Time::ZERO, &view);
            s
        };

        let mut ca = mk();
        apply_store_effect(Mode::CachedAttention, Some(&mut ca), sid, 400_000, 40);
        assert_eq!(StorePlanner::cached_tokens(&ca, sid), Some(40));

        let mut of = mk();
        apply_store_effect(Mode::CoupledOverflow, Some(&mut of), sid, 400_000, 40);
        assert_eq!(StorePlanner::cached_tokens(&of, sid), None);

        let mut re = mk();
        apply_store_effect(Mode::Recompute, Some(&mut re), sid, 400_000, 40);
        let m = re.load_prefix(sid, 100, Time::ZERO, &view);
        assert_eq!(m.lookup, Lookup::Hit(TierId(0)));
    }
}
