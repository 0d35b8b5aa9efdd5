//! Losslessness property: the bound-pruned Algorithm-1 search is
//! byte-identical to the exhaustive paper-form scan — same winning
//! candidate with the same full cost record, same im2col fallback, same
//! reported window and tie-breaks — across the full zoo on four array
//! geometries (and VGG-13 on an oversized array), under every
//! `SearchOptions` variant, and over a proptest sweep of random layers
//! and arrays.
//!
//! This is the safety net under the pruned cold path: the bound may
//! only ever change *how many* candidates are evaluated (and every
//! skipped one must still be accounted for in `pruned()`), never what
//! the search returns or what plan is built from it. The saving itself
//! is pinned as a count: over the zoo, the pruned scan evaluates at
//! most a tenth of the candidates the exhaustive scan does.

use proptest::prelude::*;
use vw_sdk_repro::pim_arch::PimArray;
use vw_sdk_repro::pim_cost::memo::SearchCache;
use vw_sdk_repro::pim_cost::search::{self, SearchOptions, SearchResult};
use vw_sdk_repro::pim_cost::window::CandidateTable;
use vw_sdk_repro::pim_mapping::MappingAlgorithm;
use vw_sdk_repro::pim_nets::{zoo, ConvLayer};

/// The exhaustive/pruned pair for every search-space variant.
fn option_pairs() -> [(SearchOptions, SearchOptions); 3] {
    [
        (SearchOptions::paper(), SearchOptions::pruned()),
        (
            SearchOptions::square_windows_only(),
            SearchOptions {
                pruned: true,
                ..SearchOptions::square_windows_only()
            },
        ),
        (
            SearchOptions::no_channel_tiling(),
            SearchOptions {
                pruned: true,
                ..SearchOptions::no_channel_tiling()
            },
        ),
    ]
}

/// Byte-identical outcome plus candidate accounting: nothing the
/// exhaustive scan saw may silently vanish under pruning.
fn assert_equivalent(
    layer: &ConvLayer,
    array: PimArray,
    exhaustive: &SearchResult,
    pruned: &SearchResult,
) {
    let context = format!("{layer} on {array}");
    assert_eq!(exhaustive.im2col(), pruned.im2col(), "{context}");
    assert_eq!(exhaustive.best(), pruned.best(), "{context}");
    assert_eq!(exhaustive.best_cycles(), pruned.best_cycles(), "{context}");
    assert_eq!(
        pruned.evaluated() + pruned.pruned(),
        exhaustive.evaluated(),
        "candidate accounting broke for {context}"
    );
    assert_eq!(exhaustive.pruned(), 0, "{context}");
    assert!(pruned.feasible() <= exhaustive.feasible(), "{context}");
}

/// Full zoo × four array geometries × every search-space variant:
/// pruned outcomes and the plans built from them are byte-identical to
/// the exhaustive ones. VGG-13's layers also run on a 2048x2048 array,
/// where the scan's later rows prune against the best window of its
/// earlier rows. Over the four geometries, the paper / pruned pair
/// accounts for every candidate and skips at least nine in ten.
#[test]
fn zoo_outcomes_and_plans_are_byte_identical_under_pruning() {
    let arrays = [
        PimArray::new(512, 512).expect("positive"),
        PimArray::new(512, 256).expect("positive"),
        PimArray::new(256, 256).expect("positive"),
        PimArray::new(128, 128).expect("positive"),
    ];
    let oversized = PimArray::new(2048, 2048).expect("positive");
    let variants = [
        MappingAlgorithm::VwSdk,
        MappingAlgorithm::VwSdkSquare,
        MappingAlgorithm::VwSdkFullChannel,
    ];
    // (exhaustive evaluated, pruned evaluated, pruned skipped) of the
    // paper / pruned pair, summed over the zoo on `arrays`.
    let mut saving = (0, 0, 0);
    for network in zoo::all() {
        let is_vgg13 = network.name() == zoo::vgg13().name();
        for layer in network.layers() {
            for array in arrays.into_iter().chain(is_vgg13.then_some(oversized)) {
                for (exhaustive_options, pruned_options) in option_pairs() {
                    let exhaustive = search::optimal_window_with(layer, array, exhaustive_options);
                    let pruned = search::optimal_window_with(layer, array, pruned_options);
                    assert_equivalent(layer, array, &exhaustive, &pruned);
                    if exhaustive_options == SearchOptions::paper() && array != oversized {
                        saving.0 += exhaustive.evaluated();
                        saving.1 += pruned.evaluated();
                        saving.2 += pruned.pruned();
                    }
                }
                // The production algorithms (pruned by default since
                // they route through `search_options()`) must build
                // the same plan bytes an exhaustive search feeds them.
                for algorithm in variants {
                    let options = algorithm
                        .search_options()
                        .expect("variable-window algorithms are search-based");
                    let exhaustive_result = search::optimal_window_with(
                        layer,
                        array,
                        SearchOptions {
                            pruned: false,
                            ..options
                        },
                    );
                    let from_exhaustive = algorithm
                        .plan_with_search(layer, array, &exhaustive_result)
                        .expect("plannable zoo layer");
                    let from_pruned = algorithm.plan(layer, array).expect("plannable zoo layer");
                    assert_eq!(
                        from_exhaustive, from_pruned,
                        "{algorithm:?} plan diverged for {layer} on {array}"
                    );
                }
            }
        }
    }
    let (exhaustive, evaluated, skipped) = saving;
    assert_eq!(
        evaluated + skipped,
        exhaustive,
        "the pruned scan lost candidates"
    );
    assert!(
        evaluated <= exhaustive / 10,
        "the pruned scan evaluated {evaluated} of {exhaustive} candidates, more than a tenth"
    );
}

/// The shared candidate table is a pure accelerator: with or without
/// the memo's table, the scan returns identical results and identical
/// counters.
#[test]
fn worker_count_and_candidate_table_do_not_change_results() {
    let arrays = [
        PimArray::new(512, 512).expect("positive"),
        PimArray::new(256, 128).expect("positive"),
    ];
    for network in [zoo::vgg13(), zoo::resnet18_table1()] {
        for layer in network.layers() {
            let table = CandidateTable::for_layer(layer);
            for &array in &arrays {
                let baseline = search::optimal_window_with(layer, array, SearchOptions::pruned());
                let tabled = search::optimal_window_with_table(
                    layer,
                    array,
                    SearchOptions::pruned(),
                    Some(&table),
                );
                assert_eq!(baseline.best(), tabled.best());
                assert_eq!(baseline.im2col(), tabled.im2col());
                assert_eq!(baseline.evaluated(), tabled.evaluated());
                assert_eq!(baseline.pruned(), tabled.pruned());
                assert_eq!(baseline.feasible(), tabled.feasible());
            }
        }
    }
}

/// The memoized engine path: a shared cache reusing one candidate
/// table across array geometries answers exactly like direct,
/// cache-free searches.
#[test]
fn search_cache_with_shared_tables_matches_direct_search() {
    let cache = SearchCache::new();
    let arrays = [
        PimArray::new(512, 512).expect("positive"),
        PimArray::new(512, 256).expect("positive"),
        PimArray::new(128, 128).expect("positive"),
    ];
    for layer in zoo::vgg13().layers() {
        for &array in &arrays {
            let cached = cache.optimal_window_with(layer, array, SearchOptions::pruned());
            let direct = search::optimal_window_with(layer, array, SearchOptions::pruned());
            assert_eq!(cached.best(), direct.best());
            assert_eq!(cached.evaluated(), direct.evaluated());
            assert_eq!(cached.pruned(), direct.pruned());
        }
    }
}

fn layer_strategy() -> impl Strategy<Value = ConvLayer> {
    (1usize..8, 3usize..40, 1usize..300, 1usize..300).prop_flat_map(|(k, extra, ic, oc)| {
        let input = k + extra;
        (Just(k), Just(input), Just(ic), Just(oc)).prop_map(|(k, input, ic, oc)| {
            ConvLayer::square("prop", input, k, ic, oc).expect("valid by construction")
        })
    })
}

fn array_strategy() -> impl Strategy<Value = PimArray> {
    (
        prop_oneof![Just(64usize), Just(128), Just(256), Just(512), 16usize..600],
        prop_oneof![Just(64usize), Just(128), Just(256), Just(512), 16usize..600],
    )
        .prop_map(|(r, c)| PimArray::new(r, c).expect("positive"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random layers × random arrays × every variant: pruning is
    /// lossless and accounts for every skipped candidate.
    #[test]
    fn random_layers_are_searched_identically(
        layer in layer_strategy(),
        array in array_strategy(),
    ) {
        for (exhaustive_options, pruned_options) in option_pairs() {
            let exhaustive = search::optimal_window_with(&layer, array, exhaustive_options);
            let pruned = search::optimal_window_with(&layer, array, pruned_options);
            assert_equivalent(&layer, array, &exhaustive, &pruned);
            // Scanning through the candidate table changes nothing either.
            let table = CandidateTable::for_layer(&layer);
            let tabled = search::optimal_window_with_table(
                &layer, array, pruned_options, Some(&table));
            prop_assert_eq!(pruned.best(), tabled.best());
            prop_assert_eq!(pruned.evaluated(), tabled.evaluated());
            prop_assert_eq!(pruned.pruned(), tabled.pruned());
        }
    }
}
