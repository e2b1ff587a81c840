//! A tour of AttentionStore used directly: saves, tiered placement,
//! scheduler-aware prefetching and eviction, TTL expiry.
//!
//! Run: `cargo run --release --example attention_store_tour`

use cachedattention::models::TierStack;
use cachedattention::sim::{Dur, Time};
use cachedattention::store::{
    AttentionStore, Lookup, PolicyKind, QueueView, SessionId, StoreConfig, TierId,
};

const GB: u64 = 1_000_000_000;

fn show(store: &AttentionStore, label: &str) {
    println!(
        "{label:<38} dram {:>5.1} GB  disk {:>6.1} GB  sessions {}",
        store.dram_used_bytes() as f64 / GB as f64,
        store.disk_used_bytes() as f64 / GB as f64,
        store.len()
    );
}

fn main() {
    // A small two-tier store: 8 GB DRAM over 40 GB SSD.
    let mut store = AttentionStore::new(StoreConfig {
        tiers: TierStack::two_tier(8 * GB, 40 * GB),
        block_bytes: 64 * 1024 * 1024,
        policy: PolicyKind::SchedulerAware,
        ttl: Some(Dur::from_secs_f64(3600.0)),
        dram_reserve_fraction: 0.1,
        default_session_bytes: 2 * GB,
        ..StoreConfig::default()
    });
    let empty = QueueView::empty();

    // Saving sessions fills DRAM first, then demotes the coldest to SSD.
    for i in 0..10u64 {
        let (transfers, ok) = store.save(
            SessionId(i),
            2 * GB,
            2_500,
            Time::from_secs_f64(i as f64),
            &empty,
        );
        assert!(ok);
        for t in &transfers {
            println!(
                "  save {} demoted {} ({} GB) to disk",
                i,
                t.session,
                t.bytes / GB
            );
        }
    }
    show(&store, "after 10 saves of 2 GB:");

    // Sessions 0..6 went to disk; the scheduler's queue says sessions 1
    // and 2 run next, so the prefetcher pulls them up.
    assert_eq!(store.lookup(SessionId(1)), Lookup::Hit(TierId(1)));
    let queue = QueueView::new(&[SessionId(1), SessionId(2)]);
    let fetched = store.prefetch(Time::from_secs_f64(20.0), &queue);
    let promoted: Vec<u64> = fetched
        .iter()
        .filter(|t| t.is_promotion())
        .map(|t| t.session.0)
        .collect();
    println!("prefetched from disk: {promoted:?}");
    assert_eq!(store.lookup(SessionId(1)), Lookup::Hit(TierId(0)));

    // Demand access (history plus the new turn's input) pins the stored
    // prefix; saving the grown KV replaces it.
    let m = store.load_prefix(SessionId(1), 2_600, Time::from_secs_f64(21.0), &queue);
    assert_eq!(m.lookup, Lookup::Hit(TierId(0)));
    store.save(
        SessionId(1),
        2 * GB + GB / 2,
        3_100,
        Time::from_secs_f64(25.0),
        &queue,
    );
    show(&store, "after session 1 grew by 0.5 GB:");

    // Decoupled-PE truncation shrinks an entry in place.
    store.truncate(SessionId(1), GB, 1_250);
    println!(
        "truncated session 1 to {} GB / {} tokens",
        store.cached_bytes(SessionId(1)).unwrap() / GB,
        store.cached_tokens(SessionId(1)).unwrap()
    );

    // TTL expiry drops sessions idle for over an hour.
    let expired = store.expire(Time::from_secs_f64(3700.0));
    show(&store, &format!("after TTL sweep ({expired} expired):"));
    println!("\nstats: {:?}", store.stats());
}
