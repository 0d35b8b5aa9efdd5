//! Property-based tests for the analytical cycle model.

use pim_arch::PimArray;
use pim_cost::model;
use pim_cost::search::{self, SearchOptions};
use pim_cost::window::{Candidates, ParallelWindow};
use pim_nets::ConvLayer;
use proptest::prelude::*;

fn layer_strategy() -> impl Strategy<Value = ConvLayer> {
    (1usize..8, 3usize..40, 1usize..300, 1usize..300).prop_flat_map(|(k, extra, ic, oc)| {
        let input = k + extra;
        (Just(k), Just(input), Just(ic), Just(oc)).prop_map(|(k, input, ic, oc)| {
            ConvLayer::square("prop", input, k, ic, oc).expect("valid by construction")
        })
    })
}

/// Layers of every supported kind: rectangular inputs and kernels,
/// stride, padding, dilation and channel groups.
fn general_layer_strategy() -> impl Strategy<Value = ConvLayer> {
    (
        (1usize..8, 1usize..8),
        (0usize..48, 0usize..48),
        1usize..4,
        0usize..3,
        1usize..3,
        (1usize..5, 1usize..96, 1usize..96),
    )
        .prop_map(
            |((kh, kw), (extra_h, extra_w), stride, padding, dilation, (groups, icg, ocg))| {
                let effective = |k: usize| (k - 1) * dilation + 1;
                ConvLayer::builder("prop")
                    .input(effective(kh) + extra_h, effective(kw) + extra_w)
                    .kernel(kh, kw)
                    .stride(stride)
                    .padding(padding)
                    .dilation(dilation)
                    .channels(groups * icg, groups * ocg)
                    .groups(groups)
                    .build()
                    .expect("valid by construction")
            },
        )
}

fn array_strategy() -> impl Strategy<Value = PimArray> {
    (
        prop_oneof![Just(64usize), Just(128), Just(256), Just(512), 16usize..600],
        prop_oneof![Just(64usize), Just(128), Just(256), Just(512), 16usize..600],
    )
        .prop_map(|(r, c)| PimArray::new(r, c).expect("positive"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Algorithm 1 initializes with im2col, so it can never do worse.
    #[test]
    fn vw_never_exceeds_im2col(layer in layer_strategy(), array in array_strategy()) {
        let r = search::optimal_window(&layer, array);
        prop_assert!(r.best_cycles() <= r.im2col().cycles);
    }

    /// The SDK rule only accepts duplications whose AR/AC do not exceed
    /// im2col's, and duplication cannot increase the parallel-window
    /// count, so SDK never exceeds im2col either.
    #[test]
    fn sdk_never_exceeds_im2col(layer in layer_strategy(), array in array_strategy()) {
        let sdk = model::sdk_cost(&layer, array);
        let im2col = model::im2col_cost(&layer, array);
        prop_assert!(sdk.cycles <= im2col.cycles,
            "sdk {} > im2col {} for {layer} on {array}", sdk.cycles, im2col.cycles);
    }

    /// SMD is also never worse than im2col.
    #[test]
    fn smd_never_exceeds_im2col(layer in layer_strategy(), array in array_strategy()) {
        let smd = model::smd_cost(&layer, array);
        let im2col = model::im2col_cost(&layer, array);
        prop_assert!(smd.cycles <= im2col.cycles);
    }

    /// Restricting the search space can only hurt (ablation sanity).
    #[test]
    fn restricted_searches_are_never_better(layer in layer_strategy(), array in array_strategy()) {
        let free = search::optimal_window(&layer, array).best_cycles();
        let square = search::optimal_window_with(&layer, array, SearchOptions::square_windows_only()).best_cycles();
        let full = search::optimal_window_with(&layer, array, SearchOptions::no_channel_tiling()).best_cycles();
        prop_assert!(free <= square);
        prop_assert!(free <= full);
    }

    /// Every feasible candidate provides at least enough window slots to
    /// cover all kernel windows of the layer.
    #[test]
    fn parallel_windows_cover_all_windows(layer in layer_strategy(), array in array_strategy()) {
        for pw in Candidates::for_layer(&layer).take(200) {
            if let Some(cost) = model::vw_cost(&layer, array, pw) {
                prop_assert!(cost.n_parallel_windows * cost.windows_in_pw as u64 >= layer.n_windows());
            }
        }
    }

    /// Tiled channels never overflow the physical array.
    #[test]
    fn tiles_respect_array_bounds(layer in layer_strategy(), array in array_strategy()) {
        for pw in Candidates::for_layer(&layer).take(200) {
            if let Some(cost) = model::vw_cost(&layer, array, pw) {
                prop_assert!(cost.tiled_ic * pw.area() <= array.rows());
                prop_assert!(cost.tiled_oc * cost.windows_in_pw <= array.cols());
                prop_assert!(cost.ar_cycles >= 1 && cost.ac_cycles >= 1);
                // AR tiles suffice for all channels.
                prop_assert!(cost.ar_cycles * cost.tiled_ic as u64 >= layer.in_channels() as u64);
                prop_assert!(cost.ac_cycles * cost.tiled_oc as u64 >= layer.out_channels() as u64);
            }
        }
    }

    /// The literal eq. (3) and the generalized form agree at unit stride.
    #[test]
    fn eq3_identity(layer in layer_strategy()) {
        for pw in Candidates::for_layer(&layer).take(300) {
            let lit = model::n_parallel_windows_eq3(
                layer.input_w(), layer.input_h(), layer.kernel_w(), layer.kernel_h(), pw);
            let gen = model::n_parallel_windows(&layer, pw);
            prop_assert_eq!(lit, gen);
        }
    }

    /// The search result equals the brute-force minimum over the full
    /// candidate set plus the im2col initialization.
    #[test]
    fn search_is_brute_force_optimal(
        k in 1usize..5,
        extra in 1usize..14,
        ic in 1usize..80,
        oc in 1usize..80,
        array in array_strategy(),
    ) {
        let layer = ConvLayer::square("bf", k + extra, k, ic, oc).unwrap();
        let result = search::optimal_window(&layer, array);
        let brute = Candidates::for_layer(&layer)
            .filter_map(|pw| model::vw_cost(&layer, array, pw))
            .map(|c| c.cycles)
            .chain(std::iter::once(model::im2col_cost(&layer, array).cycles))
            .min()
            .unwrap();
        prop_assert_eq!(result.best_cycles(), brute);
    }

    /// Pruning the search space never changes the optimum, only the
    /// number of evaluated candidates: every skipped candidate is still
    /// accounted for in `pruned()`, and because the bound also skips
    /// feasible-but-hopeless candidates the evaluated-feasible count can
    /// only shrink.
    #[test]
    fn pruned_search_is_equivalent(layer in layer_strategy(), array in array_strategy()) {
        let full = search::optimal_window(&layer, array);
        let pruned = search::optimal_window_with(&layer, array, SearchOptions::pruned());
        prop_assert_eq!(full.best_cycles(), pruned.best_cycles());
        prop_assert_eq!(full.best(), pruned.best());
        prop_assert!(pruned.evaluated() <= full.evaluated());
        prop_assert_eq!(pruned.evaluated() + pruned.pruned(), full.evaluated());
        prop_assert!(pruned.feasible() <= full.feasible());
    }

    /// SDK-opt's early stop is lossless: it picks the same duplication
    /// as scanning every `d` until the window leaves the input.
    #[test]
    fn sdk_min_cycles_equals_the_full_scan(
        layer in general_layer_strategy(),
        array in array_strategy(),
    ) {
        let mut full = model::sdk_cost_for(&layer, array, 1).expect("d=1 always fits");
        let mut d = 2;
        while let Some(candidate) = model::sdk_cost_for(&layer, array, d) {
            if candidate.cycles < full.cycles {
                full = candidate;
            }
            d += 1;
        }
        prop_assert_eq!(model::sdk_min_cycles(&layer, array), full);
    }

    /// The kernel-sized "parallel window" evaluated through the VW
    /// equations has NWP = 1 and NPW = Nwin (the degenerate im2col shape,
    /// paper §II-B).
    #[test]
    fn kernel_sized_window_degenerates_to_im2col_shape(layer in layer_strategy(), array in array_strategy()) {
        let pw = ParallelWindow::kernel_sized(&layer);
        if let Some(cost) = model::vw_cost(&layer, array, pw) {
            prop_assert_eq!(cost.windows_in_pw, 1);
            prop_assert_eq!(cost.n_parallel_windows, layer.n_windows());
        }
    }
}
