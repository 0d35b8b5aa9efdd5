//! Budget-optimizing deployment: per-layer algorithm choice + array split.
//!
//! [`crate::allocate::deploy`] maps every layer with one algorithm and
//! spreads the arrays greedily. At chip scale that leaves throughput on
//! the table: im2col needs the fewest resident tiles (good when arrays
//! are scarce), VW-SDK the fewest per-stage cycles (good once resident),
//! and the best chip fills in between — a mixed deployment that picks
//! each layer's mapping *and* array share jointly.
//!
//! [`optimize_allocation`] searches exactly that space. For a candidate
//! bottleneck bound `B`, each layer independently needs some minimal
//! number of arrays to bring one of its candidate plans' stage time
//! under `B` (stage time is non-increasing in granted arrays, so the
//! minimum is well-defined and binary-searchable). The bound is feasible
//! when those minima fit the chip's budget; the smallest feasible `B` —
//! found by an outer binary search — is the **globally minimal pipeline
//! bottleneck** over every per-layer algorithm choice and array split.
//! Ties are then broken by granting leftover arrays where they cut
//! single-image latency the most, and finally by leaving arrays unused
//! rather than spending them for no gain.
//!
//! Because every single-algorithm deployment is a point in the searched
//! space, the optimizer's bottleneck is never worse than the best
//! [`crate::allocate::deploy`] result for any one algorithm — the
//! workspace test suite asserts this on VGG-13 and ResNet-18.

use crate::allocate::{Deployment, LayerAllocation};
use crate::{ChipConfig, ChipError, Result};
use pim_mapping::{MappingAlgorithm, MappingPlan};
use pim_nets::Network;

/// One candidate mapping of a layer, reduced to what allocation needs.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Weight tiles the plan keeps resident (`AR × AC`).
    tiles: u64,
    /// Parallel-window positions per tile pair (`NPW`).
    npw: u64,
}

impl Candidate {
    fn of(plan: &MappingPlan) -> Self {
        Self {
            tiles: plan.ar_cycles() * plan.ac_cycles(),
            npw: plan.n_parallel_windows(),
        }
    }

    /// Stage cycles with `arrays` granted — the one cost model shared
    /// with [`LayerAllocation::stage_cycles`](crate::allocate::LayerAllocation::stage_cycles).
    fn stage_cycles(&self, arrays: usize, reprogram: u64) -> u64 {
        crate::allocate::stage_cycles_for(self.tiles, self.npw, arrays, reprogram)
    }

    /// Smallest array count in `1..=cap` whose stage time is `≤ bound`,
    /// if any (stage time is non-increasing in the array count).
    fn min_arrays(&self, bound: u64, cap: usize, reprogram: u64) -> Option<usize> {
        if self.npw > bound || self.stage_cycles(cap, reprogram) > bound {
            return None;
        }
        let (mut lo, mut hi) = (1usize, cap);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.stage_cycles(mid, reprogram) <= bound {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }
}

/// Per-layer candidate set.
struct LayerCandidates {
    cands: Vec<Candidate>,
}

impl LayerCandidates {
    /// Best (smallest) stage time achievable with `arrays` granted.
    fn best_stage(&self, arrays: usize, reprogram: u64) -> u64 {
        self.cands
            .iter()
            .map(|c| c.stage_cycles(arrays, reprogram))
            .min()
            .expect("candidate sets are non-empty")
    }

    /// Index of the first candidate achieving [`Self::best_stage`].
    fn best_index(&self, arrays: usize, reprogram: u64) -> usize {
        let best = self.best_stage(arrays, reprogram);
        self.cands
            .iter()
            .position(|c| c.stage_cycles(arrays, reprogram) == best)
            .expect("best_stage came from this set")
    }

    /// Smallest array count meeting `bound` under *any* candidate.
    fn min_arrays(&self, bound: u64, cap: usize, reprogram: u64) -> Option<usize> {
        self.cands
            .iter()
            .filter_map(|c| c.min_arrays(bound, cap, reprogram))
            .min()
    }
}

/// Plans every layer under every algorithm in `algorithms` and returns
/// the bottleneck-optimal mixed deployment (see the [module docs](self)).
///
/// This is the sequential reference path; the planning engine's
/// `deploy_network` reaches the same [`optimize_allocation`] through its
/// shape-keyed search memo and produces a byte-identical deployment.
/// Either way, each VW-SDK candidate plan routes through the
/// bound-pruned Algorithm 1 scan, so cold deploys pay a fraction of the
/// exhaustive search cost for identical plans; on the engine path a
/// repeated (shape, array) pair is searched once.
///
/// # Errors
///
/// Returns [`ChipError`] for an empty network or algorithm set, a chip
/// with fewer arrays than the network has layers, or a planning failure.
pub fn deploy_mixed(
    network: &Network,
    algorithms: &[MappingAlgorithm],
    chip: &ChipConfig,
) -> Result<Deployment> {
    if algorithms.is_empty() {
        return Err(ChipError::new(
            "cannot optimize a deployment over an empty algorithm set",
        ));
    }
    let mut candidates = Vec::with_capacity(network.len());
    for layer in network {
        let mut plans = Vec::with_capacity(algorithms.len());
        for &algorithm in algorithms {
            plans.push(algorithm.plan(layer, chip.array())?);
        }
        candidates.push(plans);
    }
    optimize_allocation(&candidates, chip)
}

/// Picks, for each layer, one of its candidate plans and an array count
/// so that the pipeline bottleneck is minimal within the chip's budget
/// (tie-break: single-image latency, then arrays used).
///
/// `candidates[i]` holds the plans considered for layer `i`, in
/// preference order (earlier wins ties). The candidate plans are
/// typically one per algorithm, produced by [`deploy_mixed`] or the
/// planning engine's memoized cache.
///
/// # Errors
///
/// Returns [`ChipError`] when `candidates` is empty, any layer has no
/// candidate plan, or the chip has fewer arrays than layers.
pub fn optimize_allocation(
    candidates: &[Vec<MappingPlan>],
    chip: &ChipConfig,
) -> Result<Deployment> {
    if candidates.is_empty() {
        return Err(ChipError::new("cannot deploy an empty network"));
    }
    if candidates.iter().any(Vec::is_empty) {
        return Err(ChipError::new(
            "every layer needs at least one candidate plan",
        ));
    }
    let n_layers = candidates.len();
    if chip.n_arrays() < n_layers {
        return Err(ChipError::new(format!(
            "chip has {} arrays but the network has {} layers",
            chip.n_arrays(),
            n_layers
        )));
    }
    let reprogram = chip.reprogram_cycles();
    let budget = chip.n_arrays();
    // With every other layer holding its mandatory array, no layer can
    // ever receive more than this.
    let cap = budget - (n_layers - 1);

    let layers: Vec<LayerCandidates> = candidates
        .iter()
        .map(|plans| LayerCandidates {
            cands: plans.iter().map(Candidate::of).collect(),
        })
        .collect();

    // Binary-search the smallest feasible bottleneck bound. One array
    // per layer is always feasible, so the upper bound is achievable.
    let mut lo = layers
        .iter()
        .map(|l| l.cands.iter().map(|c| c.npw).min().unwrap_or(0))
        .max()
        .unwrap_or(0);
    let mut hi = layers
        .iter()
        .map(|l| l.best_stage(1, reprogram))
        .max()
        .unwrap_or(0);
    let feasible = |bound: u64| -> bool {
        let mut needed = 0usize;
        for layer in &layers {
            match layer.min_arrays(bound, cap, reprogram) {
                Some(a) => needed += a,
                None => return false,
            }
            if needed > budget {
                return false;
            }
        }
        true
    };
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let bottleneck_bound = lo;

    // Minimal split meeting the optimal bound.
    let mut arrays: Vec<usize> = layers
        .iter()
        .map(|layer| {
            layer
                .min_arrays(bottleneck_bound, cap, reprogram)
                .expect("the bound was proven feasible")
        })
        .collect();

    // Tie-break 1: spend spare arrays where they cut latency the most
    // per array granted (never raising the bottleneck — stage time is
    // non-increasing in arrays). Jumps, not single steps: a stage can
    // plateau for a while before an algorithm switch or a residency
    // threshold pays off, so each layer offers its first improving step
    // *and* every candidate's full-residency point as jump targets.
    // Tie-break 2: stop at zero gain, leaving arrays unused rather than
    // spent for nothing.
    let mut spare = budget - arrays.iter().sum::<usize>();
    let mut exhausted = vec![false; layers.len()];
    while spare > 0 {
        // (layer, extra arrays, cycles saved): best saving per array,
        // ties to the cheaper jump, then the earlier layer.
        let mut best: Option<(usize, usize, u64)> = None;
        let better = |saving: u64, extra: usize, best: &Option<(usize, usize, u64)>| match *best {
            None => true,
            Some((_, best_extra, best_saving)) => {
                let lhs = saving as u128 * best_extra as u128;
                let rhs = best_saving as u128 * extra as u128;
                lhs > rhs || (lhs == rhs && extra < best_extra)
            }
        };
        for (i, layer) in layers.iter().enumerate() {
            if exhausted[i] {
                continue;
            }
            let current = layer.best_stage(arrays[i], reprogram);
            let mut improved = false;
            // First strictly improving step within the spare window.
            for extra in 1..=spare {
                let then = layer.best_stage(arrays[i] + extra, reprogram);
                if then < current {
                    improved = true;
                    if better(current - then, extra, &best) {
                        best = Some((i, extra, current - then));
                    }
                    break;
                }
            }
            // Residency jumps: land any candidate entirely on-chip.
            for cand in &layer.cands {
                if cand.npw >= current {
                    continue;
                }
                let Ok(tiles) = usize::try_from(cand.tiles) else {
                    continue;
                };
                if tiles > arrays[i] && tiles - arrays[i] <= spare {
                    let extra = tiles - arrays[i];
                    let then = layer.best_stage(arrays[i] + extra, reprogram);
                    if then < current {
                        improved = true;
                        if better(current - then, extra, &best) {
                            best = Some((i, extra, current - then));
                        }
                    }
                }
            }
            // Spare only shrinks, so a layer that cannot improve now
            // never will; skip it in later rounds.
            exhausted[i] = !improved;
        }
        match best {
            Some((i, extra, _)) => {
                arrays[i] += extra;
                spare -= extra;
                // A jump can overshoot: the best stage at the new count
                // may come from a candidate with fewer tiles than the
                // jump targeted. Trim to what the winner actually needs
                // and return the overshoot to the pool (stage time is
                // unchanged — the winner is resident either way).
                let chosen = layers[i].cands[layers[i].best_index(arrays[i], reprogram)];
                let need = usize::try_from(chosen.tiles.max(1)).unwrap_or(usize::MAX);
                if need < arrays[i] {
                    spare += arrays[i] - need;
                    arrays[i] = need;
                    // The pool grew, so previously hopeless layers may
                    // have options again.
                    exhausted.fill(false);
                }
            }
            None => break,
        }
    }

    let allocations = layers
        .iter()
        .zip(candidates)
        .zip(&arrays)
        .map(|((layer, plans), &granted)| {
            let chosen = layer.best_index(granted, reprogram);
            LayerAllocation::from_parts(plans[chosen].clone(), layer.cands[chosen].tiles, granted)
        })
        .collect();
    Ok(Deployment::from_parts(*chip, allocations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::deploy;
    use crate::pipeline::PipelineReport;
    use pim_arch::PimArray;
    use pim_nets::zoo;

    fn chip(n: usize) -> ChipConfig {
        ChipConfig::new(n, PimArray::new(512, 512).unwrap(), 2_000).unwrap()
    }

    fn bottleneck(d: &Deployment) -> u64 {
        PipelineReport::new(d).bottleneck_cycles()
    }

    #[test]
    fn mixed_never_loses_to_any_single_algorithm() {
        for network in [zoo::resnet18_table1(), zoo::vgg13()] {
            for n in [network.len(), 16, 24, 32, 64, 128] {
                let chip = chip(n);
                let mixed = deploy_mixed(&network, &MappingAlgorithm::paper_trio(), &chip).unwrap();
                for alg in MappingAlgorithm::paper_trio() {
                    let single = deploy(&network, alg, &chip).unwrap();
                    assert!(
                        bottleneck(&mixed) <= bottleneck(&single),
                        "{} on {n} arrays: mixed {} > {} {}",
                        network.name(),
                        bottleneck(&mixed),
                        alg.label(),
                        bottleneck(&single)
                    );
                }
            }
        }
    }

    #[test]
    fn budget_and_minimums_are_respected() {
        for n in [5, 8, 23, 64, 200] {
            let d = deploy_mixed(
                &zoo::resnet18_table1(),
                &MappingAlgorithm::paper_trio(),
                &chip(n),
            )
            .unwrap();
            assert!(d.arrays_used() <= n);
            for a in d.allocations() {
                assert!(a.arrays() >= 1);
                assert!((a.arrays() as u64) <= a.tiles().max(1));
            }
        }
    }

    #[test]
    fn optimizer_is_deterministic() {
        let run =
            || deploy_mixed(&zoo::vgg13(), &MappingAlgorithm::paper_trio(), &chip(32)).unwrap();
        assert_eq!(run(), run());
    }

    #[test]
    fn single_candidate_set_reduces_to_the_given_algorithm() {
        // With only one algorithm offered, every chosen plan is that
        // algorithm's, and the bottleneck matches the exhaustive optimum
        // for that algorithm (<= the greedy deploy's).
        let c = chip(16);
        let mixed = deploy_mixed(&zoo::resnet18_table1(), &[MappingAlgorithm::VwSdk], &c).unwrap();
        for a in mixed.allocations() {
            assert_eq!(a.plan().algorithm(), MappingAlgorithm::VwSdk);
        }
        let single = deploy(&zoo::resnet18_table1(), MappingAlgorithm::VwSdk, &c).unwrap();
        assert!(bottleneck(&mixed) <= bottleneck(&single));
    }

    #[test]
    fn resident_budget_reaches_the_best_npw_bottleneck() {
        // With plenty of arrays the bottleneck is the largest per-layer
        // minimum NPW across algorithms.
        let mixed = deploy_mixed(
            &zoo::resnet18_table1(),
            &MappingAlgorithm::paper_trio(),
            &chip(512),
        )
        .unwrap();
        let expected = zoo::resnet18_table1()
            .layers()
            .iter()
            .map(|layer| {
                MappingAlgorithm::paper_trio()
                    .iter()
                    .map(|alg| {
                        alg.plan(layer, PimArray::new(512, 512).unwrap())
                            .unwrap()
                            .n_parallel_windows()
                    })
                    .min()
                    .unwrap()
            })
            .max()
            .unwrap();
        assert_eq!(bottleneck(&mixed), expected);
    }

    #[test]
    fn errors_are_typed_and_descriptive() {
        let err = deploy_mixed(
            &Network::new("empty"),
            &MappingAlgorithm::paper_trio(),
            &chip(8),
        )
        .unwrap_err();
        assert!(err.to_string().contains("empty network"), "{err}");
        let err = deploy_mixed(&zoo::resnet18_table1(), &[], &chip(8)).unwrap_err();
        assert!(err.to_string().contains("algorithm set"), "{err}");
        let err = deploy_mixed(
            &zoo::resnet18_table1(),
            &MappingAlgorithm::paper_trio(),
            &chip(4),
        )
        .unwrap_err();
        assert!(err.to_string().contains("4 arrays"), "{err}");
    }

    #[test]
    fn optimize_allocation_rejects_empty_candidate_rows() {
        let err = optimize_allocation(&[Vec::new()], &chip(8)).unwrap_err();
        assert!(err.to_string().contains("candidate plan"), "{err}");
        let err = optimize_allocation(&[], &chip(8)).unwrap_err();
        assert!(err.to_string().contains("empty network"), "{err}");
    }
}
