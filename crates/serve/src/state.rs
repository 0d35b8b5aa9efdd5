//! Process-wide state shared by every connection.

use pim_mapping::MappingAlgorithm;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use vw_sdk::{EngineStats, PlanningEngine};

/// State shared (behind an `Arc`) across the server's shard and worker
/// threads: one [`PlanningEngine`] whose Algorithm 1 search memo is
/// the process's single single-flight coalescing domain — identical
/// cold shapes arriving on any connection trigger exactly one search.
/// Shards are only I/O threads; they share everything here.
///
/// The engine is configured with *every* implemented algorithm and
/// plans inline (`jobs = 1`): parallelism comes from serving many
/// connections at once, and inline planning keeps each response's
/// bytes independent of worker scheduling.
#[derive(Debug)]
pub struct ServerState {
    engine: PlanningEngine,
    shards: usize,
    requests: AtomicU64,
    pool_size: usize,
    access_log: AtomicBool,
}

impl ServerState {
    /// State for a server with `pool_size` connection workers and one
    /// event-loop shard (the embedded-server default).
    pub fn new(pool_size: usize) -> Self {
        Self::with_shards(pool_size, 1)
    }

    /// State for a server whose event loop runs `shards` I/O threads,
    /// as reported by `/healthz`. Both arguments are clamped to ≥ 1.
    pub fn with_shards(pool_size: usize, shards: usize) -> Self {
        Self {
            engine: PlanningEngine::with_algorithms(&MappingAlgorithm::all()),
            shards: shards.max(1),
            requests: AtomicU64::new(0),
            pool_size: pool_size.max(1),
            access_log: AtomicBool::new(false),
        }
    }

    /// Enables or disables one-line structured access logs on stderr.
    /// Off by default so servers embedded in tests stay quiet;
    /// the `vwsdk serve` daemon turns it on.
    pub fn set_access_log(&self, enabled: bool) {
        self.access_log.store(enabled, Ordering::Relaxed);
    }

    /// Whether access logging is on.
    pub fn access_log(&self) -> bool {
        self.access_log.load(Ordering::Relaxed)
    }

    /// The planning engine every request runs on.
    pub fn engine(&self) -> &PlanningEngine {
        &self.engine
    }

    /// Number of event-loop shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The engine's cache counters.
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Connection workers serving this state.
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Requests handled so far (any status).
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Counts one handled request.
    pub fn count_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Caps the engine's cache footprint. Called after every planning
    /// request: clients may iterate over arbitrarily many distinct
    /// shapes, and an unbounded memo table would grow until OOM.
    pub fn trim_caches(&self) {
        /// Generous for real workloads (the whole zoo × the Fig. 8(b)
        /// sweep stores < 1k searches) while bounding hostile traffic.
        const MAX_CACHE_ENTRIES: usize = 65_536;
        self.engine.shed_caches_over(MAX_CACHE_ENTRIES);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero_and_advance() {
        let state = ServerState::new(0);
        assert_eq!(state.pool_size(), 1);
        assert_eq!(state.requests_served(), 0);
        state.count_request();
        state.count_request();
        assert_eq!(state.requests_served(), 2);
    }

    #[test]
    fn engine_compares_every_algorithm() {
        let state = ServerState::new(4);
        assert_eq!(state.engine().algorithms().len(), 7);
        assert_eq!(state.engine().jobs(), 1);
        assert_eq!(ServerState::with_shards(2, 3).shards(), 3);
        assert_eq!(ServerState::with_shards(2, 0).shards(), 1);
    }
}
