//! Shape-keyed memoization of the Algorithm 1 window search, with
//! single-flight coalescing.
//!
//! The search result for a layer depends only on the layer's *shape*
//! ([`pim_nets::LayerShape`]), the array geometry and the
//! [`SearchOptions`] — never on the layer's name. Networks repeat shapes
//! heavily (half of VGG-13's convolutions share a shape with a
//! neighbour), and design-space sweeps re-plan the same shapes across
//! array after array, so caching turns the `O(layers × candidates)`
//! search cost into hash lookups.
//!
//! # Single-flight coalescing
//!
//! A thundering herd of identical cold lookups — N connections asking
//! the serving tier to plan the same hot layer at once — must cost one
//! search, not N. The table therefore stores either a **ready** result
//! or an **in-flight** marker: the first thread to miss becomes the
//! *leader* and runs the search outside any lock; every other thread
//! that arrives meanwhile becomes a *follower* and parks on the
//! flight's condvar until the leader publishes. Followers count as
//! cache hits and additionally advance the process-wide
//! `pim_plan_coalesced_total` counter. If the leader panics, its
//! unwind guard marks the flight aborted and wakes all followers; one
//! of them retries the lookup and becomes the new leader, so a
//! poisoned flight never wedges the key.
//!
//! [`SearchCache`] is thread-safe (`RwLock` + atomic counters) and is
//! shared by reference across the planning engine's worker threads —
//! and, through the serving tier's one engine, by every connection.
//!
//! # Example
//!
//! ```
//! use pim_arch::PimArray;
//! use pim_cost::memo::SearchCache;
//! use pim_cost::search::SearchOptions;
//! use pim_nets::ConvLayer;
//!
//! let cache = SearchCache::new();
//! let array = PimArray::new(512, 512)?;
//! let conv_b = ConvLayer::square("conv_b", 14, 3, 256, 256)?;
//! let conv_c = ConvLayer::square("conv_c", 14, 3, 256, 256)?; // same shape
//!
//! let first = cache.optimal_window_with(&conv_b, array, SearchOptions::paper());
//! let second = cache.optimal_window_with(&conv_c, array, SearchOptions::paper());
//! assert_eq!(first, second);
//! assert_eq!((cache.hits(), cache.misses()), (1, 1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::search::{self, SearchOptions, SearchResult};
use crate::window::CandidateTable;
use pim_arch::PimArray;
use pim_nets::{ConvLayer, LayerShape};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// Memo key: everything [`search::optimal_window_with`] depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SearchKey {
    shape: LayerShape,
    array: PimArray,
    options: SearchOptions,
}

/// What a flight has resolved to so far.
#[derive(Debug, Clone)]
enum FlightOutcome {
    /// The leader is still searching.
    Pending,
    /// The leader published its result.
    Done(Arc<SearchResult>),
    /// The leader panicked; a follower must retry.
    Aborted,
}

/// One in-flight search: followers park here until the leader finishes.
#[derive(Debug)]
struct Flight {
    outcome: Mutex<FlightOutcome>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Self {
            outcome: Mutex::new(FlightOutcome::Pending),
            cv: Condvar::new(),
        }
    }

    /// Publishes the terminal outcome and wakes every follower.
    fn finish(&self, outcome: FlightOutcome) {
        let mut slot = self.outcome.lock().expect("flight lock poisoned");
        *slot = outcome;
        self.cv.notify_all();
    }

    /// Parks until the leader publishes [`FlightOutcome::Done`] or
    /// [`FlightOutcome::Aborted`].
    fn wait(&self) -> FlightOutcome {
        let mut slot = self.outcome.lock().expect("flight lock poisoned");
        loop {
            match &*slot {
                FlightOutcome::Pending => {
                    slot = self.cv.wait(slot).expect("flight lock poisoned");
                }
                done => return done.clone(),
            }
        }
    }
}

/// A table slot: either a memoized result or the flight computing it.
#[derive(Debug)]
enum Slot {
    Ready(Arc<SearchResult>),
    InFlight(Arc<Flight>),
}

/// Unwind guard armed while the leader searches: dropped during a panic
/// it removes the in-flight slot and wakes followers so one of them
/// retries, instead of leaving every waiter parked forever.
struct AbortOnUnwind<'a> {
    cache: &'a SearchCache,
    key: SearchKey,
    flight: &'a Arc<Flight>,
    armed: bool,
}

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut results = self
            .cache
            .results
            .write()
            .expect("search cache lock poisoned");
        if let Some(Slot::InFlight(current)) = results.get(&self.key) {
            if Arc::ptr_eq(current, self.flight) {
                results.remove(&self.key);
            }
        }
        drop(results);
        self.flight.finish(FlightOutcome::Aborted);
    }
}

/// Thread-safe, single-flight memo table for the Algorithm 1 search.
///
/// See the [module docs](self) for semantics and an example.
#[derive(Debug, Default)]
pub struct SearchCache {
    results: RwLock<HashMap<SearchKey, Slot>>,
    /// Per-shape candidate tables: the array-*independent* half of a
    /// search, shared across every array geometry that re-searches the
    /// shape (deploy optimizer, `sweep_arrays`). Keyed by shape only —
    /// a much coarser key than `results`.
    tables: RwLock<HashMap<LayerShape, Arc<CandidateTable>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SearchCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached [`search::optimal_window_with`]: returns the memoized
    /// result for the layer's shape, computing and storing it on first
    /// use. Concurrent lookups of one cold key coalesce onto a single
    /// leader computation (see the [module docs](self)).
    ///
    /// Results are shared behind an [`Arc`] — a `SearchResult` can carry
    /// a full candidate trace, so hits hand out a reference instead of
    /// deep-cloning it. Pruned searches reuse the shape's
    /// [`CandidateTable`] across array geometries; only the leader of a
    /// cold key fetches it, so a hit costs one read lock.
    pub fn optimal_window_with(
        &self,
        layer: &ConvLayer,
        array: PimArray,
        options: SearchOptions,
    ) -> Arc<SearchResult> {
        let key = SearchKey {
            shape: layer.shape(),
            array,
            options,
        };
        self.get_or_compute(key, &|| {
            let table = options.pruned.then(|| self.table_for(layer));
            search::optimal_window_with_table(layer, array, options, table.as_deref())
        })
    }

    /// The memoized per-shape [`CandidateTable`], created on first use.
    fn table_for(&self, layer: &ConvLayer) -> Arc<CandidateTable> {
        let shape = layer.shape();
        {
            let tables = self.tables.read().expect("candidate tables lock poisoned");
            if let Some(table) = tables.get(&shape) {
                return Arc::clone(table);
            }
        }
        let mut tables = self.tables.write().expect("candidate tables lock poisoned");
        Arc::clone(
            tables
                .entry(shape)
                .or_insert_with(|| Arc::new(CandidateTable::for_layer(layer))),
        )
    }

    /// Returns the memoized result for the key if it is already
    /// published, without counting a hit or waiting on a flight.
    /// Reporting paths (sweep JSON's per-layer search stats) use this so
    /// reading the stats never perturbs them.
    pub fn peek(
        &self,
        layer: &ConvLayer,
        array: PimArray,
        options: SearchOptions,
    ) -> Option<Arc<SearchResult>> {
        let key = SearchKey {
            shape: layer.shape(),
            array,
            options,
        };
        let results = self.results.read().expect("search cache lock poisoned");
        match results.get(&key) {
            Some(Slot::Ready(result)) => Some(Arc::clone(result)),
            _ => None,
        }
    }

    /// The single-flight engine behind [`optimal_window_with`]
    /// (parameterized over the computation so the abort/retry machinery
    /// is testable with an injected panic).
    fn get_or_compute(
        &self,
        key: SearchKey,
        compute: &dyn Fn() -> SearchResult,
    ) -> Arc<SearchResult> {
        loop {
            // Fast path: a read lock resolves hits and finds flights.
            let flight = {
                let results = self.results.read().expect("search cache lock poisoned");
                match results.get(&key) {
                    Some(Slot::Ready(result)) => {
                        let result = Arc::clone(result);
                        drop(results);
                        self.count_hit();
                        return result;
                    }
                    Some(Slot::InFlight(flight)) => Some(Arc::clone(flight)),
                    None => None,
                }
            };
            let flight = match flight {
                Some(flight) => flight,
                // Cold: race for leadership under the write lock.
                None => {
                    let mut results = self.results.write().expect("search cache lock poisoned");
                    match results.get(&key) {
                        Some(Slot::Ready(result)) => {
                            let result = Arc::clone(result);
                            drop(results);
                            self.count_hit();
                            return result;
                        }
                        Some(Slot::InFlight(flight)) => Arc::clone(flight),
                        None => {
                            let flight = Arc::new(Flight::new());
                            results.insert(key, Slot::InFlight(Arc::clone(&flight)));
                            drop(results);
                            return self.lead(key, compute, &flight);
                        }
                    }
                }
            };
            // Follower: park until the leader publishes or aborts.
            match flight.wait() {
                FlightOutcome::Done(result) => {
                    self.count_hit();
                    telemetry_coalesced().inc();
                    return result;
                }
                FlightOutcome::Aborted => {
                    // The leader panicked. Its guard already removed the
                    // slot; loop to retry (becoming the new leader if no
                    // one beat us to it).
                    continue;
                }
                FlightOutcome::Pending => unreachable!("wait() only returns terminal outcomes"),
            }
        }
    }

    /// Runs the search as the flight's leader and publishes the result.
    fn lead(
        &self,
        key: SearchKey,
        compute: &dyn Fn() -> SearchResult,
        flight: &Arc<Flight>,
    ) -> Arc<SearchResult> {
        let mut guard = AbortOnUnwind {
            cache: self,
            key,
            flight,
            armed: true,
        };
        let started = std::time::Instant::now();
        let result = Arc::new(compute());
        guard.armed = false;
        telemetry_search_seconds().observe(started.elapsed().as_secs_f64());
        self.misses.fetch_add(1, Ordering::Relaxed);
        telemetry_counter("misses").inc();
        // Candidate effort is only spent on cold searches, so the
        // counters advance on misses and stay flat on warm plans.
        telemetry_candidates("evaluated").add(result.evaluated() as u64);
        telemetry_candidates("pruned").add(result.pruned() as u64);
        telemetry_candidates("feasible").add(result.feasible() as u64);
        {
            let mut results = self.results.write().expect("search cache lock poisoned");
            match results.get_mut(&key) {
                // The expected case: our own flight still occupies the slot.
                Some(slot @ Slot::InFlight(_)) => {
                    if matches!(slot, Slot::InFlight(f) if Arc::ptr_eq(f, flight)) {
                        *slot = Slot::Ready(Arc::clone(&result));
                    }
                }
                // `clear()` ran mid-flight: reinsert so the work is kept.
                None => {
                    results.insert(key, Slot::Ready(Arc::clone(&result)));
                }
                // Someone else already published an identical result.
                Some(Slot::Ready(_)) => {}
            }
        }
        flight.finish(FlightOutcome::Done(Arc::clone(&result)));
        result
    }

    fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        telemetry_counter("hits").inc();
    }

    /// Cached search under the paper's default options.
    pub fn optimal_window(&self, layer: &ConvLayer, array: PimArray) -> Arc<SearchResult> {
        self.optimal_window_with(layer, array, SearchOptions::paper())
    }

    /// Number of lookups answered from the cache (including coalesced
    /// followers of an in-flight leader).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that ran the search.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct (shape, array, options) keys stored or in
    /// flight.
    pub fn len(&self) -> usize {
        self.results
            .read()
            .expect("search cache lock poisoned")
            .len()
    }

    /// Whether the cache holds no entries yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every stored result (hit/miss counters are kept).
    ///
    /// Long-lived consumers — the serving tier plans arbitrary
    /// user-supplied shapes for the lifetime of the process — use this
    /// to bound memory: results are recomputable, so wholesale clearing
    /// trades a few re-searches for a hard cap. A leader whose slot is
    /// cleared mid-flight simply reinserts its result when it finishes;
    /// its followers are unaffected (they wait on the flight, not the
    /// table).
    pub fn clear(&self) {
        let mut results = self.results.write().expect("search cache lock poisoned");
        let dropped = results.len() as u64;
        results.clear();
        drop(results);
        // Candidate tables are recomputable scratch too; clearing them
        // keeps the memory cap meaningful for arbitrary shape streams.
        self.tables
            .write()
            .expect("candidate tables lock poisoned")
            .clear();
        if dropped > 0 {
            telemetry_counter("evictions").add(dropped);
        }
    }

    /// Number of distinct layer shapes with a memoized candidate table.
    #[cfg(test)]
    fn table_shapes(&self) -> usize {
        self.tables
            .read()
            .expect("candidate tables lock poisoned")
            .len()
    }
}

/// Process-wide cache counters: every `SearchCache` instance reports
/// into the same `pim_search_cache_*_total` families, so the metrics
/// endpoint sees aggregate search-cache behaviour regardless of how
/// many engines a process holds.
/// Handles are registered once and kept in a static: the hit path runs
/// on every warm plan of a search-based algorithm, so it must cost one
/// atomic add, not a registry lookup.
fn telemetry_counter(event: &str) -> &'static pim_telemetry::Counter {
    static HANDLES: std::sync::OnceLock<[pim_telemetry::Counter; 3]> = std::sync::OnceLock::new();
    let [hits, misses, evictions] = HANDLES.get_or_init(|| {
        [
            "pim_search_cache_hits_total",
            "pim_search_cache_misses_total",
            "pim_search_cache_evictions_total",
        ]
        .map(|name| {
            pim_telemetry::global().counter(
                name,
                "Window-search memo cache events, aggregated over all caches in the process.",
                &[],
            )
        })
    });
    match event {
        "hits" => hits,
        "misses" => misses,
        _ => evictions,
    }
}

/// Candidate-window effort of cold searches, labelled by what happened
/// to the candidate: `evaluated` (full eq. (8) cost computed), `pruned`
/// (skipped by the capacity bound before evaluation) or `feasible`
/// (evaluated and mappable). Pruning effectiveness on a live process is
/// `pruned / (evaluated + pruned)`.
fn telemetry_candidates(outcome: &str) -> &'static pim_telemetry::Counter {
    static HANDLES: std::sync::OnceLock<[pim_telemetry::Counter; 3]> = std::sync::OnceLock::new();
    let [evaluated, pruned, feasible] = HANDLES.get_or_init(|| {
        ["evaluated", "pruned", "feasible"].map(|o| {
            pim_telemetry::global().counter(
                "pim_search_candidates_total",
                "Candidate windows of cold Algorithm 1 searches by outcome.",
                &[("outcome", o)],
            )
        })
    });
    match outcome {
        "evaluated" => evaluated,
        "pruned" => pruned,
        _ => feasible,
    }
}

/// Lookups that coalesced onto another thread's in-flight search — the
/// single-flight counter the serving tier's thundering-herd guarantee
/// is measured by.
fn telemetry_coalesced() -> &'static pim_telemetry::Counter {
    static HANDLE: std::sync::OnceLock<pim_telemetry::Counter> = std::sync::OnceLock::new();
    HANDLE.get_or_init(|| {
        pim_telemetry::global().counter(
            "pim_plan_coalesced_total",
            "Concurrent identical plan searches answered by one in-flight leader computation.",
            &[],
        )
    })
}

/// Wall time of cache-miss window searches (the only place the
/// Algorithm 1 search actually runs in a cached engine).
fn telemetry_search_seconds() -> &'static pim_telemetry::Histogram {
    static HANDLE: std::sync::OnceLock<pim_telemetry::Histogram> = std::sync::OnceLock::new();
    HANDLE.get_or_init(|| {
        pim_telemetry::global().histogram(
            "pim_search_seconds",
            "Wall time of uncached Algorithm 1 window searches.",
            &[],
            pim_telemetry::Buckets::latency(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> PimArray {
        PimArray::new(512, 512).unwrap()
    }

    #[test]
    fn cached_result_equals_direct_search() {
        let cache = SearchCache::new();
        let layer = ConvLayer::square("c", 56, 3, 128, 256).unwrap();
        let direct = search::optimal_window(&layer, arr());
        let cached_cold = cache.optimal_window(&layer, arr());
        let cached_warm = cache.optimal_window(&layer, arr());
        assert_eq!(&direct, cached_cold.as_ref());
        assert_eq!(&direct, cached_warm.as_ref());
        // Hits share the stored allocation rather than deep-cloning it.
        assert!(Arc::ptr_eq(&cached_cold, &cached_warm));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn name_does_not_split_the_key() {
        let cache = SearchCache::new();
        let a = ConvLayer::square("first", 14, 3, 256, 256).unwrap();
        let b = ConvLayer::square("second", 14, 3, 256, 256).unwrap();
        cache.optimal_window(&a, arr());
        cache.optimal_window(&b, arr());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn options_and_array_split_the_key() {
        let cache = SearchCache::new();
        let layer = ConvLayer::square("c", 14, 3, 256, 256).unwrap();
        cache.optimal_window_with(&layer, arr(), SearchOptions::paper());
        cache.optimal_window_with(&layer, arr(), SearchOptions::pruned());
        cache.optimal_window_with(
            &layer,
            PimArray::new(256, 256).unwrap(),
            SearchOptions::paper(),
        );
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn telemetry_families_registered() {
        let cache = SearchCache::new();
        let layer = ConvLayer::square("c", 14, 3, 64, 64).unwrap();
        cache.optimal_window(&layer, arr()); // miss
        cache.optimal_window(&layer, arr()); // hit
        cache.clear(); // eviction
        let snap = pim_telemetry::global().snapshot();
        for family in [
            "pim_search_cache_hits_total",
            "pim_search_cache_misses_total",
            "pim_search_cache_evictions_total",
        ] {
            let sample = snap
                .counters
                .iter()
                .find(|c| c.name == family)
                .unwrap_or_else(|| panic!("{family} missing"));
            assert!(sample.value >= 1, "{family}={}", sample.value);
        }
        assert!(
            snap.histograms
                .iter()
                .any(|h| h.name == "pim_search_seconds" && h.count >= 1),
            "search timing histogram missing"
        );
    }

    #[test]
    fn candidate_table_is_shared_across_array_geometries() {
        let cache = SearchCache::new();
        let layer = ConvLayer::square("c", 56, 3, 128, 256).unwrap();
        let first = cache.optimal_window_with(&layer, arr(), SearchOptions::pruned());
        let table = cache.table_for(&layer);
        assert!(!table.is_empty(), "pruned search must populate the table");
        let grown = table.len();
        // Re-searching the same shape on another geometry reuses the
        // same table object and gives the same answer as a direct search.
        let other = PimArray::new(256, 256).unwrap();
        let second = cache.optimal_window_with(&layer, other, SearchOptions::pruned());
        assert!(Arc::ptr_eq(&table, &cache.table_for(&layer)));
        assert_eq!(cache.table_shapes(), 1);
        assert!(table.len() >= grown);
        assert_eq!(
            first.as_ref(),
            &search::optimal_window_with(&layer, arr(), SearchOptions::pruned())
        );
        assert_eq!(
            second.as_ref(),
            &search::optimal_window_with(&layer, other, SearchOptions::pruned())
        );
        // Exhaustive searches never touch the table layer.
        let fresh = SearchCache::new();
        fresh.optimal_window_with(&layer, arr(), SearchOptions::paper());
        assert_eq!(fresh.table_shapes(), 0);
        // clear() drops the tables along with the results.
        cache.clear();
        assert_eq!(cache.table_shapes(), 0);
    }

    #[test]
    fn peek_returns_published_results_without_counting() {
        let cache = SearchCache::new();
        let layer = ConvLayer::square("c", 14, 3, 64, 64).unwrap();
        assert!(cache.peek(&layer, arr(), SearchOptions::pruned()).is_none());
        let computed = cache.optimal_window_with(&layer, arr(), SearchOptions::pruned());
        let peeked = cache
            .peek(&layer, arr(), SearchOptions::pruned())
            .expect("published result is peekable");
        assert!(Arc::ptr_eq(&computed, &peeked));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }

    #[test]
    fn candidate_counters_advance_on_cold_searches_only() {
        let snapshot_total = || {
            pim_telemetry::global()
                .snapshot()
                .counters
                .iter()
                .filter(|c| c.name == "pim_search_candidates_total")
                .map(|c| c.value)
                .sum::<u64>()
        };
        let cache = SearchCache::new();
        let layer = ConvLayer::square("cold", 56, 3, 64, 128).unwrap();
        let before = snapshot_total();
        let result = cache.optimal_window_with(&layer, arr(), SearchOptions::pruned());
        let after_cold = snapshot_total();
        assert_eq!(
            after_cold - before,
            (result.evaluated() + result.pruned() + result.feasible()) as u64
        );
        cache.optimal_window_with(&layer, arr(), SearchOptions::pruned());
        assert_eq!(snapshot_total(), after_cold, "warm hits must stay flat");
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache = SearchCache::new();
        let layer = ConvLayer::square("c", 28, 3, 128, 128).unwrap();
        let expected = search::optimal_window(&layer, arr());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        assert_eq!(cache.optimal_window(&layer, arr()).as_ref(), &expected);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits() + cache.misses(), 32);
    }

    #[test]
    fn cold_herd_coalesces_onto_one_search() {
        let cache = SearchCache::new();
        // A shape expensive enough that the herd really overlaps.
        let layer = ConvLayer::square("herd", 56, 3, 256, 256).unwrap();
        let threads = 8;
        let barrier = std::sync::Barrier::new(threads);
        let expected = search::optimal_window(&layer, arr());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    barrier.wait();
                    assert_eq!(cache.optimal_window(&layer, arr()).as_ref(), &expected);
                });
            }
        });
        // Exactly one leader ran the search; everyone else hit.
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), threads as u64 - 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits() + cache.misses(), threads as u64);
    }

    #[test]
    fn a_panicking_leader_is_retried_by_a_follower() {
        use std::sync::atomic::AtomicUsize;
        let cache = SearchCache::new();
        let layer = ConvLayer::square("c", 28, 3, 64, 64).unwrap();
        let key = SearchKey {
            shape: layer.shape(),
            array: arr(),
            options: SearchOptions::paper(),
        };
        let expected = search::optimal_window(&layer, arr());
        let attempts = AtomicUsize::new(0);
        let compute = |panic_first: bool| {
            let attempts = &attempts;
            let layer = &layer;
            move || {
                let attempt = attempts.fetch_add(1, Ordering::SeqCst);
                if panic_first && attempt == 0 {
                    // Park long enough that followers really queue up
                    // behind this flight before it aborts.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    panic!("injected leader panic");
                }
                search::optimal_window(layer, arr())
            }
        };
        std::thread::scope(|scope| {
            let doomed = scope.spawn(|| {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_compute(key, &compute(true))
                }));
                assert!(result.is_err(), "injected panic must propagate");
            });
            // Followers arrive while the doomed leader sleeps; after it
            // aborts, one of them re-runs the search and all resolve.
            std::thread::sleep(std::time::Duration::from_millis(10));
            for _ in 0..4 {
                scope.spawn(|| {
                    assert_eq!(
                        cache.get_or_compute(key, &compute(false)).as_ref(),
                        &expected
                    );
                });
            }
            doomed.join().expect("doomed thread observed its panic");
        });
        // The key is usable again afterwards and holds the real result.
        assert_eq!(cache.optimal_window(&layer, arr()).as_ref(), &expected);
        assert!(
            attempts.load(Ordering::SeqCst) >= 2,
            "a follower must have retried after the abort"
        );
    }

    #[test]
    fn clearing_mid_flight_keeps_the_leader_result() {
        let cache = SearchCache::new();
        let layer = ConvLayer::square("c", 28, 3, 128, 128).unwrap();
        let expected = search::optimal_window(&layer, arr());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..50 {
                    cache.clear();
                    std::thread::yield_now();
                }
            });
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        assert_eq!(cache.optimal_window(&layer, arr()).as_ref(), &expected);
                    }
                });
            }
        });
        // Whatever the interleaving, every lookup resolved.
        assert_eq!(cache.hits() + cache.misses(), 100);
    }
}
