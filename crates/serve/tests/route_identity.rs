//! The router's contract, pinned in-process: a fleet driven through a
//! consistent-hash router over 1, 2 or 4 backend engines produces
//! byte-identical per-session transcripts — the same `OUTCOME` lines a
//! single direct engine (and a direct run) produces. Plus the fan-out
//! verbs: summed `STATS`, broadcast `SHUTDOWN`.

use oqsc_serve::{
    direct_outcome_lines, drive_fleet, parse_stats_line, shutdown_socket, stats_socket, DrivePhase,
    FeedMode, MuxConfig, Router, RouterConfig, Server, ServerConfig,
};

fn socket_path(name: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "oqsc-route-test-{}-{name}.sock",
            std::process::id()
        ))
        .display()
        .to_string()
}

fn tight_config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        mux: MuxConfig {
            live_bytes_budget: 2 << 10,
            warm_bytes_budget: 1 << 30,
            shards: 4,
        },
        ..ServerConfig::default()
    }
}

#[test]
fn routed_fleets_match_direct_runs_at_any_engine_count() {
    const SEED: u64 = 0xD21F7;
    let direct = direct_outcome_lines(SEED);
    // Session ids are single-use per engine, so each scenario gets a
    // fresh stack; between them the grid covers 1/2/4 engines and both
    // feed shapes.
    for (scenario, (engine_count, mode)) in [
        (1usize, FeedMode::Chunks),
        (2, FeedMode::Chunks),
        (2, FeedMode::Batched),
        (4, FeedMode::Batched),
    ]
    .into_iter()
    .enumerate()
    {
        let mut engine_addrs = Vec::new();
        let mut engine_handles = Vec::new();
        for e in 0..engine_count {
            let path = socket_path(&format!("eng-{scenario}-{e}"));
            let server = Server::bind(&path, tight_config()).expect("bind engine");
            engine_addrs.push(path);
            engine_handles.push(std::thread::spawn(move || server.run().expect("engine")));
        }
        let front = socket_path(&format!("front-{scenario}"));
        let router = Router::bind(&front, engine_addrs.clone(), RouterConfig::default())
            .expect("bind router");
        let router_handle = std::thread::spawn(move || router.run().expect("router"));

        let served = drive_fleet(&front, SEED, mode, DrivePhase::Full).expect("drive");
        assert_eq!(served, direct, "{engine_count} engines, {mode:?}");

        // Routed STATS is the field-wise sum over the fleet, spread
        // across engines.
        let stats = parse_stats_line(&stats_socket(&front).expect("stats")).expect("parse");
        assert_eq!(stats.finished, direct.len() as u64);
        if engine_count > 1 {
            let per_engine: Vec<u64> = engine_addrs
                .iter()
                .map(|addr| {
                    parse_stats_line(&stats_socket(addr).expect("engine stats"))
                        .expect("parse")
                        .finished
                })
                .collect();
            assert_eq!(per_engine.iter().sum::<u64>(), stats.finished);
            assert!(
                per_engine.iter().filter(|&&n| n > 0).count() > 1,
                "sessions must actually spread: {per_engine:?}"
            );
        }

        // One SHUTDOWN at the router drains every engine behind it.
        shutdown_socket(&front).expect("broadcast shutdown");
        router_handle.join().expect("router thread");
        for handle in engine_handles {
            handle.join().expect("engine thread");
        }
    }
}
