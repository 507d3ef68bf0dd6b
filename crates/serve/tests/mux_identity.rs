//! The serving rung's non-negotiable contract, pinned: for any LRU
//! budget (including evict-on-every-feed), any eviction/interleaving
//! order, and any worker count, the mux engine's per-session verdicts
//! and metering are `==`-identical to uninterrupted
//! `run_decider_stream` — for all seven deciders, with the quantum ones
//! on all four backends (the full 16-kind catalog).

use oqsc_machine::{run_decider_stream, CheckpointStore, RunOutcome};
use oqsc_serve::{demo_fleet, AnyDecider, MuxConfig, MuxEngine};
use std::sync::Mutex;

/// How one worker walks its sessions each round — three different LRU
/// churn patterns over the same per-session token order.
#[derive(Clone, Copy, Debug)]
enum Order {
    /// Round-robin in fleet order.
    Forward,
    /// Round-robin in reverse fleet order.
    Reversed,
    /// Fleet order rotated by one more slot every round.
    Rotating,
}

/// The reference table: direct uninterrupted runs, no engine.
fn reference(base_seed: u64) -> Vec<(u64, RunOutcome)> {
    demo_fleet(base_seed)
        .into_iter()
        .map(|(id, kind, seed, word)| (id, run_decider_stream(kind.build(seed), word)))
        .collect()
}

/// Drives the demo fleet through `engine` on `workers` threads, feeding
/// `chunk`-token slices in the given walk order, and returns the
/// outcomes sorted by id.
fn run_interleaved(
    engine: &MuxEngine<AnyDecider>,
    base_seed: u64,
    chunk: usize,
    workers: usize,
    order: Order,
) -> Vec<(u64, RunOutcome)> {
    let fleet = demo_fleet(base_seed);
    let mut lanes: Vec<Vec<_>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, entry) in fleet.into_iter().enumerate() {
        lanes[i % workers].push(entry);
    }
    let rows = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for lane in lanes {
            scope.spawn(|| {
                for (id, kind, seed, _) in &lane {
                    engine.open(*id, kind.build(*seed)).expect("open");
                }
                let mut cursors: Vec<(u64, Vec<_>, usize)> = lane
                    .into_iter()
                    .map(|(id, _, _, word)| (id, word, 0))
                    .collect();
                let n = cursors.len();
                let mut round = 0usize;
                loop {
                    let mut progressed = false;
                    for slot in 0..n {
                        let idx = match order {
                            Order::Forward => slot,
                            Order::Reversed => n - 1 - slot,
                            Order::Rotating => (slot + round) % n,
                        };
                        let (id, word, pos) = &mut cursors[idx];
                        if *pos < word.len() {
                            let end = (*pos + chunk).min(word.len());
                            engine.feed(*id, &word[*pos..end]).expect("feed");
                            *pos = end;
                            progressed = true;
                        }
                    }
                    if !progressed {
                        break;
                    }
                    round += 1;
                }
                let mut local = Vec::with_capacity(n);
                for (id, _, _) in cursors {
                    local.push((id, engine.finish(id).expect("finish")));
                }
                rows.lock().expect("rows").extend(local);
            });
        }
    });
    let mut rows = rows.into_inner().expect("rows");
    rows.sort_unstable_by_key(|(id, _)| *id);
    rows
}

#[test]
fn mux_matches_direct_runs_across_budgets_orders_and_workers() {
    const SEED: u64 = 0x5E21E;
    let expected = reference(SEED);
    // Budget axis: evict-on-every-feed (0), a tight budget that keeps a
    // handful of sessions live, and an effectively unlimited one.
    for live_budget in [0usize, 4 << 10, 1 << 30] {
        for workers in [1usize, 2, 8] {
            for order in [Order::Forward, Order::Reversed, Order::Rotating] {
                // The pathological budget also gets the pathological
                // chunk size: one token per feed, every feed a full
                // evict + rehydrate cycle.
                let chunk = if live_budget == 0 { 1 } else { 5 };
                let engine = MuxEngine::new(MuxConfig {
                    live_bytes_budget: live_budget,
                    warm_bytes_budget: 1 << 30,
                    shards: 4,
                });
                let got = run_interleaved(&engine, SEED, chunk, workers, order);
                assert_eq!(
                    got, expected,
                    "budget {live_budget}, workers {workers}, order {order:?}"
                );
                let stats = engine.stats();
                assert_eq!(stats.finished, expected.len() as u64);
                if live_budget == 0 {
                    // Every feed after open really did evict.
                    assert!(
                        stats.evictions >= stats.tokens,
                        "budget 0 must evict on every feed: {stats:?}"
                    );
                }
            }
        }
    }
}

/// The batched-feed (`FEEDS` → one `feed` call) identity, at *every*
/// cut point: each session's word is split into a head batch and a tail
/// batch at every position, and the outcome must equal the
/// uninterrupted run. At budget 0 every batch straddles a full evict +
/// rehydrate cycle — the "batch straddling an eviction" case.
#[test]
fn batched_feeds_at_every_cut_point_match_direct_runs() {
    const SEED: u64 = 0xFEED5;
    let fleet = demo_fleet(SEED);
    let expected = reference(SEED);
    for live_budget in [0usize, 4 << 10] {
        for workers in [1usize, 8] {
            let engine = MuxEngine::<AnyDecider>::new(MuxConfig {
                live_bytes_budget: live_budget,
                warm_bytes_budget: 1 << 30,
                shards: 4,
            });
            // One fresh session per (fleet entry, cut point); ids are
            // single-use, so each job gets its own.
            let jobs: Vec<(u64, usize, usize)> = fleet
                .iter()
                .enumerate()
                .flat_map(|(slot, (id, _, _, word))| {
                    (0..=word.len()).map(move |cut| (id * 4096 + cut as u64, slot, cut))
                })
                .collect();
            let mut lanes: Vec<Vec<(u64, usize, usize)>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (i, job) in jobs.into_iter().enumerate() {
                lanes[i % workers].push(job);
            }
            std::thread::scope(|scope| {
                for lane in lanes {
                    scope.spawn(|| {
                        for (uid, slot, cut) in lane {
                            let (_, kind, seed, word) = &fleet[slot];
                            engine.open(uid, kind.build(*seed)).expect("open");
                            if cut > 0 {
                                engine.feed(uid, &word[..cut]).expect("head batch");
                            }
                            if cut < word.len() {
                                engine.feed(uid, &word[cut..]).expect("tail batch");
                            }
                            let got = engine.finish(uid).expect("finish");
                            assert_eq!(
                                got, expected[slot].1,
                                "budget {live_budget}, workers {workers}, \
                                 session {slot}, cut {cut}"
                            );
                        }
                    });
                }
            });
            if live_budget == 0 {
                let stats = engine.stats();
                assert!(
                    stats.evictions > 0 && stats.hydrations > 0,
                    "budget 0 batches must straddle evictions: {stats:?}"
                );
            }
        }
    }
}

#[test]
fn mux_matches_direct_runs_through_the_spill_store() {
    const SEED: u64 = 0xCA7;
    let expected = reference(SEED);
    let path = std::env::temp_dir().join(format!(
        "oqsc-mux-identity-spill-{}.cps",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let store = CheckpointStore::create_for::<AnyDecider>(&path).expect("create");
    // Live and warm budgets both zero: every suspended session round
    // trips through the store's append + latest read-back path.
    let engine = MuxEngine::with_spill(
        MuxConfig {
            live_bytes_budget: 0,
            warm_bytes_budget: 0,
            shards: 2,
        },
        store,
    );
    let got = run_interleaved(&engine, SEED, 3, 2, Order::Forward);
    assert_eq!(got, expected);
    let stats = engine.stats();
    assert!(stats.spills > 0, "spill tier never engaged: {stats:?}");
    assert!(stats.spill_hydrations > 0, "never read back: {stats:?}");
    let _ = std::fs::remove_file(&path);
}
