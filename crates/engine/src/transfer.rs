//! Transfer stage: every byte that moves between tiers, on one link pair
//! per tier boundary.
//!
//! [`TransferPlan`] owns the simulated interconnects of one run:
//!
//! - `h2d` — host→device PCIe stream carrying reused KV into HBM for
//!   layer-wise pre-loading (§3.2.1);
//! - `d2h` — device→host PCIe stream flushing fresh KV through the HBM
//!   write buffer (§3.2.2);
//! - one read/write link pair per *boundary* of the store's tier stack:
//!   boundary `b` sits between tier `b` and tier `b+1`. The paper's
//!   two-tier stack has a single boundary, whose links keep their
//!   historical names `slow-rd`/`slow-wr` (SSD for the DRAM+Disk medium;
//!   a second PCIe hop for the HBM-fronted mediums). Deeper stacks add
//!   `slow-rd2`/`slow-wr2` and so on.
//!
//! The store plans tier movements as [`Transfer`] values — a promotion
//! from tier `f` arrives as the hop chain `(f→f-1), …, (1→0)` — and this
//! stage charges each hop on its boundary's link, serializing the hops of
//! one session so the shallow hop starts when the deep one delivered
//! ([`TransferPlan::charge`]). It tracks when each session's KV finishes
//! staging into the fast tier (`fast_ready_at`), gates admission on
//! write-buffer drain ([`TransferPlan::write_gate`]), and classifies
//! store consultations ([`TransferPlan::consult`]).

use std::collections::HashMap;

use sim::{BandwidthLink, Dur, FaultPlan, Time};
use store::{AttentionStore, DegradeReason, Lookup, QueueView, SessionId, TierId, Transfer};

use crate::events::ConsultClass;
use crate::{EngineConfig, Medium};

/// Link names per boundary, fixed so [`FaultPlan`] link faults can target
/// them by name. Boundary 0 keeps the historical `slow-rd`/`slow-wr`.
const SLOW_RD_NAMES: [&str; 8] = [
    "slow-rd", "slow-rd2", "slow-rd3", "slow-rd4", "slow-rd5", "slow-rd6", "slow-rd7", "slow-rd8",
];
const SLOW_WR_NAMES: [&str; 8] = [
    "slow-wr", "slow-wr2", "slow-wr3", "slow-wr4", "slow-wr5", "slow-wr6", "slow-wr7", "slow-wr8",
];

/// Outcome of consulting the store for a resuming job.
#[derive(Debug, Clone, Copy)]
pub struct Consult {
    /// Tokens of cached history the prefill can reuse.
    pub reused: u64,
    /// When the reused KV is staged in the fast tier (never before `now`
    /// for hits; `now` itself for misses).
    pub staged: Time,
    /// Hit/miss classification (one of `Miss`, `HitFast`, `HitSlow`).
    pub class: ConsultClass,
    /// Tier the cached KV was found in (`None` on a miss).
    pub tier: Option<TierId>,
}

/// A [`Consult`] plus whether the store's fault layer abandoned the
/// cached KV (never in fault-free runs).
#[derive(Debug, Clone, Copy)]
pub struct FaultedConsult {
    /// The classification and staging outcome (backoff included in
    /// `staged`).
    pub consult: Consult,
    /// Why the cached KV was abandoned, when it was.
    pub degraded: Option<DegradeReason>,
}

/// The read/write links of one tier boundary plus the access latency of
/// the tier below it.
#[derive(Debug)]
struct SlowBoundary {
    rd: BandwidthLink,
    wr: BandwidthLink,
    /// Fixed access latency of the deeper tier, charged before every read
    /// crossing this boundary (zero for DRAM and the paper's SSD).
    read_latency: Dur,
}

/// The bandwidth links of a serving run — two device streams plus one
/// pair per tier boundary — and the fast-tier staging clock, unified
/// behind one planning interface.
#[derive(Debug)]
pub struct TransferPlan {
    h2d: BandwidthLink,
    d2h: BandwidthLink,
    /// `slow[b]` carries traffic across the boundary between tier `b`
    /// and tier `b+1` of the store's stack.
    slow: Vec<SlowBoundary>,
    /// When each session's KV finishes staging into the fast tier.
    fast_ready_at: HashMap<u64, Time>,
    async_save: bool,
    write_buffer_bytes: u64,
}

impl TransferPlan {
    /// Builds the links for `cfg`: PCIe for both device streams, and one
    /// link pair per boundary of the store's tier stack. Boundary 0's
    /// bandwidth follows the medium (the configured tier-1 device, or
    /// PCIe again when DRAM is the slow tier behind an HBM fast tier);
    /// deeper boundaries always use the deeper tier's rated bandwidth.
    pub fn new(cfg: &EngineConfig) -> Self {
        let pcie = cfg.cluster.pcie_bw;
        let tiers = &cfg.store.tiers;
        let n_boundaries = tiers.len().saturating_sub(1);
        assert!(
            n_boundaries <= SLOW_RD_NAMES.len(),
            "tier stacks deeper than {} are not supported",
            SLOW_RD_NAMES.len() + 1
        );
        let slow = (0..n_boundaries)
            .map(|b| {
                let deep = &tiers[b + 1];
                let (rd_bw, wr_bw) = if b == 0 {
                    match cfg.medium {
                        Medium::DramDisk => (deep.read_bw, deep.write_bw),
                        // Fast tier is HBM; the first slow tier is host
                        // DRAM behind PCIe.
                        Medium::HbmDram | Medium::HbmOnly => (pcie, pcie),
                    }
                } else {
                    (deep.read_bw, deep.write_bw)
                };
                SlowBoundary {
                    rd: BandwidthLink::new(SLOW_RD_NAMES[b], rd_bw),
                    wr: BandwidthLink::new(SLOW_WR_NAMES[b], wr_bw),
                    read_latency: Dur::from_secs_f64(deep.latency),
                }
            })
            .collect();
        TransferPlan {
            h2d: BandwidthLink::new("h2d", pcie),
            d2h: BandwidthLink::new("d2h", pcie),
            slow,
            fast_ready_at: HashMap::new(),
            async_save: cfg.async_save,
            write_buffer_bytes: cfg.write_buffer_bytes,
        }
    }

    /// Installs the link-fault windows of `plan` that target `instance`
    /// (faults with `instance: None` apply to every instance). Link names
    /// match the stream labels: `"h2d"`, `"d2h"`, `"slow-rd"`/`"slow-wr"`
    /// for boundary 0 and `"slow-rd2"`/`"slow-wr2"` … for deeper
    /// boundaries. Unknown names are ignored so plans can name links a
    /// medium (or a shallower stack) does not have.
    pub fn install_faults(&mut self, plan: &FaultPlan, instance: u32) {
        for f in &plan.link_faults {
            if f.instance.is_some_and(|i| i != instance) {
                continue;
            }
            let link = if f.link == "h2d" {
                Some(&mut self.h2d)
            } else if f.link == "d2h" {
                Some(&mut self.d2h)
            } else {
                self.slow.iter_mut().enumerate().find_map(|(b, s)| {
                    if f.link == SLOW_RD_NAMES[b] {
                        Some(&mut s.rd)
                    } else if f.link == SLOW_WR_NAMES[b] {
                        Some(&mut s.wr)
                    } else {
                        None
                    }
                })
            };
            let Some(link) = link else { continue };
            link.add_fault_window(f.window, f.kind);
        }
    }

    /// Charges store transfers on the boundary links. A promotion hop
    /// from tier `b+1` to tier `b` rides boundary `b`'s read link, a
    /// demotion hop the write link. The hops of one session's multi-hop
    /// promotion are chained within a call — each starts when the deeper
    /// hop delivered — and the hop landing in tier 0 updates the
    /// session's fast-tier staging time.
    pub fn charge(&mut self, now: Time, transfers: &[Transfer]) {
        // Per-call chain: when the deeper hop of this session delivered.
        let mut chained: HashMap<u64, Time> = HashMap::new();
        for t in transfers {
            if t.is_promotion() {
                let start = chained.get(&t.session.0).copied().unwrap_or(now);
                let boundary = &mut self.slow[t.to.0];
                let done = boundary.rd.transfer(start + boundary.read_latency, t.bytes);
                chained.insert(t.session.0, done);
                if t.to.is_fast() {
                    let e = self.fast_ready_at.entry(t.session.0).or_insert(done);
                    *e = (*e).max(done);
                }
            } else {
                self.slow[t.from.0].wr.transfer(now, t.bytes);
            }
        }
    }

    /// Streams `bytes` straight out of `tier` without staging them in
    /// tier 0 (rare pathological sizing): charges every read link on the
    /// way up, deepest boundary first, and returns the delivery time.
    fn stream_from(&mut self, now: Time, tier: TierId, bytes: u64) -> Time {
        let mut done = now;
        for b in (0..tier.0).rev() {
            let boundary = &mut self.slow[b];
            done = boundary.rd.transfer(done + boundary.read_latency, bytes);
        }
        done
    }

    /// Time before which the next prefill may not start because the HBM
    /// write buffer is still draining (§3.2.2). With synchronous saving
    /// the stall is charged at retirement instead, so the gate is open.
    pub fn write_gate(&self, now: Time) -> Time {
        if !self.async_save {
            return now;
        }
        let buffer_drain = self.d2h.duration_of(self.write_buffer_bytes);
        let backlog = self.d2h.backlog_at(now);
        if backlog > buffer_drain {
            now + (backlog - buffer_drain)
        } else {
            now
        }
    }

    /// Consults the store for a job whose next context is `ctx_tokens`
    /// (history plus the arriving input) and classifies the access: the
    /// longest stored prefix of that context is pinned and staged, and
    /// only the unmatched tail is prefilled. `stored_bytes_of` maps
    /// matched tokens to their on-store byte size (compression
    /// included).
    ///
    /// The consult goes through the store's fallible path, which is the
    /// infallible one verbatim when no fault plan is installed. Injected
    /// read retries cost backoff wall time, so the transfers (and the
    /// job's staging) start after it; an abandoned read degrades the
    /// access to a miss-classified full re-prefill.
    pub fn consult(
        &mut self,
        now: Time,
        store: &mut AttentionStore,
        sid: SessionId,
        ctx_tokens: u64,
        queue: &QueueView,
        stored_bytes_of: impl Fn(u64) -> u64,
    ) -> FaultedConsult {
        let outcome = store.try_load_prefix(sid, ctx_tokens, now, queue);
        let m = &outcome.prefix;
        let had_promotion = m
            .transfers
            .iter()
            .any(|t| t.session == sid && t.is_promotion());
        let start = now + outcome.backoff;
        self.charge(start, &m.transfers);
        let consult = match m.lookup {
            Lookup::Miss => Consult {
                reused: 0,
                staged: start,
                class: ConsultClass::Miss,
                tier: None,
            },
            Lookup::Hit(tier) if tier.is_fast() => {
                let staged = self
                    .fast_ready_at
                    .get(&sid.0)
                    .copied()
                    .unwrap_or(start)
                    .max(start);
                Consult {
                    reused: m.matched_tokens,
                    staged,
                    class: ConsultClass::HitFast,
                    tier: Some(tier),
                }
            }
            Lookup::Hit(tier) => {
                let staged = if had_promotion {
                    self.fast_ready_at.get(&sid.0).copied().unwrap_or(start)
                } else {
                    // Tier 0 could not stage the matched chunks (rare
                    // pathological sizing): stream them straight from
                    // the deepest matched tier.
                    self.stream_from(start, tier, stored_bytes_of(m.matched_tokens))
                };
                Consult {
                    reused: m.matched_tokens,
                    staged: staged.max(start),
                    class: ConsultClass::HitSlow,
                    tier: Some(tier),
                }
            }
        };
        FaultedConsult {
            consult,
            degraded: outcome.degraded,
        }
    }

    /// When `session`'s KV finishes staging into the fast tier, if a
    /// promotion was ever charged for it.
    pub fn fast_ready(&self, session: u64) -> Option<Time> {
        self.fast_ready_at.get(&session).copied()
    }

    /// Transfer time of `bytes` on the host→device stream.
    pub fn h2d_duration_of(&self, bytes: u64) -> Dur {
        self.h2d.duration_of(bytes)
    }

    /// When the host→device stream frees up.
    pub fn h2d_busy_until(&self) -> Time {
        self.h2d.busy_until()
    }

    /// Marks the host→device stream busy through `until` for `bytes`
    /// (the pre-loading schedule computes its own completion time).
    pub fn h2d_occupy(&mut self, until: Time, bytes: u64) {
        self.h2d.occupy(until, bytes);
    }

    /// Queues `bytes` on the device→host write stream; returns the
    /// completion time.
    pub fn d2h_transfer(&mut self, now: Time, bytes: u64) -> Time {
        self.d2h.transfer(now, bytes)
    }

    /// Total bytes moved host→device.
    pub fn h2d_bytes(&self) -> u64 {
        self.h2d.total_bytes()
    }

    /// Total bytes moved device→host.
    pub fn d2h_bytes(&self) -> u64 {
        self.d2h.total_bytes()
    }

    /// Total bytes read upward across all tier boundaries.
    pub fn slow_read_bytes(&self) -> u64 {
        self.slow.iter().map(|b| b.rd.total_bytes()).sum()
    }

    /// Total bytes written downward across all tier boundaries.
    pub fn slow_write_bytes(&self) -> u64 {
        self.slow.iter().map(|b| b.wr.total_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;
    use models::{ModelSpec, TierSpec, TierStack};
    use sim::{FaultWindow, LinkFault, LinkFaultKind};

    fn plan() -> TransferPlan {
        TransferPlan::new(&EngineConfig::paper(
            Mode::CachedAttention,
            ModelSpec::llama2_13b(),
        ))
    }

    fn hop(sid: u64, bytes: u64, from: usize, to: usize) -> Transfer {
        Transfer {
            session: SessionId(sid),
            bytes,
            from: TierId(from),
            to: TierId(to),
        }
    }

    fn promote(sid: u64, bytes: u64) -> Transfer {
        hop(sid, bytes, 1, 0)
    }

    fn demote(sid: u64, bytes: u64) -> Transfer {
        hop(sid, bytes, 0, 1)
    }

    /// Promotions serialize on the boundary-0 read link in charge order:
    /// the second session's staging time includes the first's transfer.
    #[test]
    fn charge_serializes_promotions_in_order() {
        let mut p = plan();
        let gb = 1_000_000_000;
        p.charge(Time::ZERO, &[promote(1, gb), promote(2, gb)]);
        let t1 = p.fast_ready_at[&1];
        let t2 = p.fast_ready_at[&2];
        assert!(t1 > Time::ZERO);
        // Same payload, FIFO link: session 2 finishes one transfer later.
        assert_eq!(t2.as_secs_f64(), 2.0 * t1.as_secs_f64());
        assert_eq!(p.slow_read_bytes(), 2 * gb);
        assert_eq!(p.slow_write_bytes(), 0);
    }

    /// Demotions ride the write channel and never touch staging times.
    #[test]
    fn demotions_use_the_write_channel() {
        let mut p = plan();
        p.charge(Time::ZERO, &[demote(3, 500_000_000)]);
        assert_eq!(p.slow_write_bytes(), 500_000_000);
        assert_eq!(p.slow_read_bytes(), 0);
        assert!(p.fast_ready_at.is_empty());
    }

    /// Re-promoting a session keeps the *latest* staging completion.
    #[test]
    fn repeated_promotions_keep_the_max() {
        let mut p = plan();
        p.charge(Time::ZERO, &[promote(7, 1_000_000_000)]);
        let first = p.fast_ready_at[&7];
        p.charge(Time::ZERO, &[promote(7, 1_000_000_000)]);
        assert!(p.fast_ready_at[&7] > first);
    }

    /// A four-tier stack gets three boundary link pairs, and a promotion
    /// journey from the bottom tier chains its hops: each shallower hop
    /// starts when the deeper one delivered (plus the deeper tier's
    /// access latency), and only the final hop sets `fast_ready`.
    #[test]
    fn deep_promotions_chain_hop_by_hop() {
        let mut cfg = EngineConfig::paper(Mode::CachedAttention, ModelSpec::llama2_13b());
        cfg.store.tiers = TierStack::new(vec![
            TierSpec::dram(16_000_000_000),
            TierSpec::pooled_memory(64_000_000_000),
            TierSpec::ssd(1_000_000_000_000),
            TierSpec::object_store(10_000_000_000_000),
        ]);
        let mut p = TransferPlan::new(&cfg);
        let gb: u64 = 1_000_000_000;
        // The store reports a bottom-tier promotion as the chain
        // (3→2), (2→1), (1→0).
        p.charge(
            Time::ZERO,
            &[hop(5, gb, 3, 2), hop(5, gb, 2, 1), hop(5, gb, 1, 0)],
        );
        let tiers = &cfg.store.tiers;
        let expect = tiers[3].latency
            + gb as f64 / tiers[3].read_bw
            + tiers[2].latency
            + gb as f64 / tiers[2].read_bw
            + tiers[1].latency
            + gb as f64 / tiers[1].read_bw;
        let ready = p.fast_ready(5).expect("final hop landed in tier 0");
        assert!((ready.as_secs_f64() - expect).abs() < 1e-6);
        // Every boundary read link carried the payload exactly once.
        assert_eq!(p.slow_read_bytes(), 3 * gb);
        // An intermediate hop alone must not mark the session staged.
        p.charge(Time::ZERO, &[hop(6, gb, 3, 2)]);
        assert!(p.fast_ready(6).is_none());
    }

    /// Link faults target deep boundaries by their numbered names.
    #[test]
    fn faults_reach_deep_boundary_links() {
        let mut cfg = EngineConfig::paper(Mode::CachedAttention, ModelSpec::llama2_13b());
        cfg.store.tiers = TierStack::new(vec![
            TierSpec::dram(16_000_000_000),
            TierSpec::pooled_memory(64_000_000_000),
            TierSpec::ssd(1_000_000_000_000),
        ]);
        let mut p = TransferPlan::new(&cfg);
        let mut fp = FaultPlan::default();
        fp.link_faults.push(LinkFault {
            link: "slow-rd2",
            instance: None,
            window: FaultWindow::new(Time::ZERO, Time::from_secs_f64(100.0)),
            kind: LinkFaultKind::Slowdown(2.0),
        });
        p.install_faults(&fp, 0);
        let gb: u64 = 1_000_000_000;
        // Boundary 1 (tiers 1↔2) is slowed to half speed.
        let done = p.slow[1].rd.transfer(Time::ZERO, gb);
        let nominal = gb as f64 / cfg.store.tiers[2].read_bw;
        assert!((done.as_secs_f64() - 2.0 * nominal).abs() < 1e-6);
        // Boundary 0 is untouched.
        let done0 = p.slow[0].rd.transfer(Time::ZERO, gb);
        let nominal0 = gb as f64 / cfg.store.tiers[1].read_bw;
        assert!((done0.as_secs_f64() - nominal0).abs() < 1e-6);
    }

    /// The write gate only closes once the d2h backlog exceeds the
    /// configured buffer's drain time, and then by exactly the excess.
    #[test]
    fn write_gate_tracks_buffer_excess() {
        let mut p = plan();
        let now = Time::ZERO;
        assert_eq!(p.write_gate(now), now);
        // Fill well past the 2 GB buffer.
        p.d2h_transfer(now, 10_000_000_000);
        let gate = p.write_gate(now);
        let drain = p.d2h.duration_of(p.write_buffer_bytes);
        let backlog = p.d2h.backlog_at(now);
        assert_eq!(gate, now + (backlog - drain));
        assert!(gate > now);
    }

    /// With async saving off the gate never closes (the stall is charged
    /// synchronously at retirement instead).
    #[test]
    fn sync_save_leaves_the_gate_open() {
        let mut cfg = EngineConfig::paper(Mode::CachedAttention, ModelSpec::llama2_13b());
        cfg.async_save = false;
        let mut p = TransferPlan::new(&cfg);
        p.d2h_transfer(Time::ZERO, 50_000_000_000);
        assert_eq!(p.write_gate(Time::ZERO), Time::ZERO);
    }
}
