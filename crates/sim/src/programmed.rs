//! Programmed-state reuse: split plan execution into a one-time
//! **program phase** and a reusable per-IFM **stream phase**.
//!
//! The paper's throughput argument rests on amortization — crossbars are
//! programmed once and then reused across every input window. Rebuilding
//! and reprogramming every tile per input would make a batch of N inputs
//! pay the layout/programming cost N times. A [`ProgrammedStage`]
//! captures the post-programming state of one mapping plan (tiles,
//! crossbars, schedule) so that:
//!
//! * [`ProgrammedStage::program`] runs once per deployment, recording
//!   one `array_programmings` count per tile. It numbers each windowed
//!   tile's crossbar columns window-major, by `(wy, wx, oc)`, so a row's
//!   cells form a few long runs of adjacent columns (see [`Crossbar`]);
//!   the tile layout itself keeps its `oc`-major order;
//! * [`ProgrammedStage::stream_batch`] pushes any number of input
//!   feature maps through the programmed pipeline, using batched MVMs
//!   ([`Crossbar::mvm_batch_into`]) so each programmed row is read once
//!   per batch rather than once per input;
//! * [`ProgrammedStage::stream_stats`] reports the per-input execution
//!   counters analytically (they depend only on the plan geometry, never
//!   on input values), which keeps batch reports deterministic and
//!   independent of worker sharding.
//!
//! Bit-exactness is preserved: for every output element the partial sums
//! accumulate in the same order for every batch element (tiles in
//! (AR, AC) order, positions in schedule order, rows ascending), so a
//! batched stream is bit-identical to N one-element streams even for
//! floating-point scalars. The column renumbering changes no order
//! either: an output receives one column's sum per tile and position.

use crate::crossbar::Crossbar;
use crate::metrics::RunStats;
use crate::{Result, SimError};
use pim_arch::energy::EnergyModel;
use pim_mapping::layout::{CellAssignment, ColSink, RowSource, SmdLayout, TileLayout};
use pim_mapping::schedule::{pw_positions, windows_per_pw, PwPosition};
use pim_mapping::{MappingAlgorithm, MappingPlan};
use pim_nets::ConvLayer;
use pim_tensor::{Scalar, Tensor3, Tensor4};

/// One (AR, AC) tile: the input element each row reads, the output
/// each column feeds, and the crossbar programmed from the tile's
/// layout. The layout's cell list is not kept: the crossbar holds the
/// cells.
#[derive(Debug, Clone, PartialEq)]
struct WindowedTile<T> {
    row_sources: Vec<RowSource>,
    col_sinks: Vec<ColSink>,
    used_cells: usize,
    xbar: Crossbar<T>,
}

impl<T: Scalar> WindowedTile<T> {
    /// Programs a tile with its columns renumbered window-major, by
    /// `(wy, wx, oc)`. The layout numbers them `oc`-major, which puts one
    /// window's cells `NWP` columns apart; window-major, a row's cells
    /// for one window are one run of the tile's output channels, and
    /// neighbouring windows merge. Each output still receives one
    /// column's sum per tile and position, so no sum changes order.
    fn program(layout: &TileLayout, weights: &Tensor4<T>) -> Result<Self> {
        let sinks = layout.col_sinks();
        let mut order: Vec<usize> = (0..sinks.len()).collect();
        order.sort_unstable_by_key(|&c| (sinks[c].wy, sinks[c].wx, sinks[c].oc));
        let mut rank = vec![0; sinks.len()];
        for (new, &old) in order.iter().enumerate() {
            rank[old] = new;
        }
        let cells = layout.cells().iter().map(|cell| CellAssignment {
            col: rank[cell.col],
            ..*cell
        });
        Ok(Self {
            row_sources: layout.row_sources().to_vec(),
            col_sinks: order.iter().map(|&old| sinks[old]).collect(),
            used_cells: layout.used_cells(),
            xbar: Crossbar::program_from(layout.rows_used(), sinks.len(), cells, weights)?,
        })
    }
}

/// The programmed state behind one plan, by mapping flavour.
#[derive(Debug, Clone, PartialEq)]
enum StageKind<T> {
    /// Window-parallel mappings (im2col, SDK, VW-SDK, non-duplicated
    /// SMD): one crossbar per (AR, AC) tile, streamed over the
    /// parallel-window schedule.
    Windowed {
        tiles: Vec<WindowedTile<T>>,
        positions: Vec<PwPosition>,
        /// Owning position index per output window (clamped edge
        /// positions re-cover windows; the first claimant accumulates).
        owner: Vec<usize>,
        windows_per_pw: (usize, usize),
    },
    /// Duplicated SMD: one crossbar holding `d` kernel copies.
    Smd {
        layout: SmdLayout,
        xbar: Crossbar<T>,
    },
    /// Grouped convolution: one programmed sub-stage per channel group.
    Grouped { groups: Vec<ProgrammedStage<T>> },
}

/// A mapping plan programmed into reusable crossbar state; see the
/// [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgrammedStage<T> {
    plan: MappingPlan,
    kind: StageKind<T>,
}

impl<T: Scalar> ProgrammedStage<T> {
    /// Programs `plan`'s tiles with `weights`, recording one programming
    /// per tile into `stats`. The returned stage borrows nothing — it
    /// can be streamed any number of times, shared across threads
    /// read-only.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if `weights` does not match the layer's
    /// kernel shape, the plan has no cell-level layout, or (grouped
    /// layers) the per-group plan disagrees with the grouped
    /// prediction.
    pub fn program(plan: &MappingPlan, weights: &Tensor4<T>, stats: &mut RunStats) -> Result<Self> {
        let layer = plan.layer();
        if weights.dims()
            != (
                layer.out_channels(),
                layer.in_channels_per_group(),
                layer.kernel_h(),
                layer.kernel_w(),
            )
        {
            return Err(SimError::new(format!(
                "weights {:?} do not match layer kernel {:?}",
                weights.dims(),
                (
                    layer.out_channels(),
                    layer.in_channels_per_group(),
                    layer.kernel_h(),
                    layer.kernel_w()
                )
            )));
        }
        if layer.groups() > 1 {
            return Self::program_grouped(plan, weights, stats);
        }
        plan.check_layout_supported()?;
        let kind = if plan.algorithm() == MappingAlgorithm::Smd && plan.duplication() > 1 {
            let layout = SmdLayout::build(plan)?;
            let xbar = Crossbar::program(
                layout.rows_used(),
                layout.cols_used(),
                layout.cells(),
                weights,
            )?;
            stats.record_programming();
            StageKind::Smd { layout, xbar }
        } else {
            let mut tiles = Vec::new();
            for t in 0..plan.ar_cycles() {
                for u in 0..plan.ac_cycles() {
                    tiles.push(WindowedTile::program(
                        &TileLayout::build(plan, t, u)?,
                        weights,
                    )?);
                    stats.record_programming();
                }
            }
            let (oh, ow) = plan.layer().output_dims();
            let positions = pw_positions(plan);
            let wpp = windows_per_pw(plan);
            let mut owner = vec![usize::MAX; oh * ow];
            for (pidx, pos) in positions.iter().enumerate() {
                for wy in 0..wpp.1 {
                    for wx in 0..wpp.0 {
                        let slot = &mut owner[(pos.first_win_y + wy) * ow + pos.first_win_x + wx];
                        if *slot == usize::MAX {
                            *slot = pidx;
                        }
                    }
                }
            }
            StageKind::Windowed {
                tiles,
                positions,
                owner,
                windows_per_pw: wpp,
            }
        };
        Ok(Self {
            plan: plan.clone(),
            kind,
        })
    }

    /// Grouped layers program one independent sub-stage per channel
    /// group: the per-group plan is the dense plan of the per-group
    /// shape (guarded against the grouped prediction, as in the cost
    /// model), programmed with that group's slice of the weight bank.
    fn program_grouped(
        plan: &MappingPlan,
        weights: &Tensor4<T>,
        stats: &mut RunStats,
    ) -> Result<Self> {
        let layer = plan.layer();
        let groups = layer.groups();
        let icg = layer.in_channels_per_group();
        let ocg = layer.out_channels_per_group();
        let sub_layer = ConvLayer::builder(layer.name())
            .input(layer.input_h(), layer.input_w())
            .kernel(layer.kernel_h(), layer.kernel_w())
            .channels(icg, ocg)
            .stride(layer.stride())
            .padding(layer.padding())
            .dilation(layer.dilation())
            .build()
            .map_err(|e| SimError::new(e.to_string()))?;
        let sub_plan = plan.algorithm().plan(&sub_layer, plan.array())?;
        if sub_plan.cycles() * groups as u64 != plan.cycles() {
            return Err(SimError::new(format!(
                "grouped plan predicts {} cycles but {} groups x {} per-group cycles disagree",
                plan.cycles(),
                groups,
                sub_plan.cycles()
            )));
        }
        let (kh, kw) = (layer.kernel_h(), layer.kernel_w());
        let mut stages = Vec::with_capacity(groups);
        for g in 0..groups {
            let mut gw = Tensor4::zeros(ocg, icg, kh, kw);
            for o in 0..ocg {
                for c in 0..icg {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            gw.set(o, c, ky, kx, weights.get(g * ocg + o, c, ky, kx));
                        }
                    }
                }
            }
            stages.push(Self::program(&sub_plan, &gw, stats)?);
        }
        Ok(Self {
            plan: plan.clone(),
            kind: StageKind::Grouped { groups: stages },
        })
    }

    /// The plan this stage was programmed from.
    pub fn plan(&self) -> &MappingPlan {
        &self.plan
    }

    /// Replays the per-input execution counters (cycles, MACs, ADC/DAC
    /// conversions, energy) into `stats` — once per streamed input
    /// feature map. The counters depend only on the programmed geometry,
    /// so one replay per batch element reproduces exactly what streaming
    /// N inputs one at a time would record.
    pub fn stream_stats(&self, energy: &EnergyModel, stats: &mut RunStats) {
        match &self.kind {
            StageKind::Windowed {
                tiles, positions, ..
            } => {
                for tile in tiles {
                    for _ in 0..positions.len() {
                        stats.record_cycle(
                            energy,
                            tile.xbar.rows(),
                            tile.xbar.cols(),
                            tile.used_cells,
                        );
                    }
                }
            }
            StageKind::Smd { layout, .. } => {
                let (oh, ow) = self.plan.layer().output_dims();
                let cycles = (oh * ow).div_ceil(layout.duplication());
                for _ in 0..cycles {
                    stats.record_cycle(
                        energy,
                        layout.rows_used(),
                        layout.cols_used(),
                        layout.used_cells(),
                    );
                }
            }
            StageKind::Grouped { groups } => {
                for group in groups {
                    group.stream_stats(energy, stats);
                }
            }
        }
    }

    /// Streams a batch of input feature maps through the programmed
    /// pipeline, returning one output feature map per input (same
    /// order). Pure compute: no programming happens here, and the stage
    /// is immutable, so concurrent calls from several threads are safe.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the batch is empty or any input's
    /// dimensions disagree with the layer.
    pub fn stream_batch(&self, ifms: &[Tensor3<T>]) -> Result<Vec<Tensor3<T>>> {
        if ifms.is_empty() {
            return Err(SimError::new("cannot stream an empty batch"));
        }
        let layer = self.plan.layer();
        for ifm in ifms {
            if ifm.dims() != (layer.in_channels(), layer.input_h(), layer.input_w()) {
                return Err(SimError::new(format!(
                    "input {:?} does not match layer {:?}",
                    ifm.dims(),
                    (layer.in_channels(), layer.input_h(), layer.input_w())
                )));
            }
        }
        match &self.kind {
            StageKind::Windowed {
                tiles,
                positions,
                owner,
                ..
            } => self.stream_windowed(tiles, positions, owner, ifms),
            StageKind::Smd { layout, xbar } => self.stream_smd(layout, xbar, ifms),
            StageKind::Grouped { groups } => self.stream_grouped(groups, ifms),
        }
    }

    fn stream_windowed(
        &self,
        tiles: &[WindowedTile<T>],
        positions: &[PwPosition],
        owner: &[usize],
        ifms: &[Tensor3<T>],
    ) -> Result<Vec<Tensor3<T>>> {
        let layer = self.plan.layer();
        let (oh, ow) = layer.output_dims();
        let pad = layer.padding() as isize;
        let b = ifms.len();
        let mut outs: Vec<Tensor3<T>> = (0..b)
            .map(|_| Tensor3::zeros(layer.out_channels(), oh, ow))
            .collect();
        let mut inputs: Vec<T> = Vec::new();
        let mut result: Vec<T> = Vec::new();
        for tile in tiles {
            let rows = tile.xbar.rows();
            let cols = tile.xbar.cols();
            for (pidx, pos) in positions.iter().enumerate() {
                inputs.clear();
                inputs.resize(b * rows, T::ZERO);
                for (r, src) in tile.row_sources.iter().enumerate() {
                    let iy = pos.origin_y as isize + src.dy as isize - pad;
                    let ix = pos.origin_x as isize + src.dx as isize - pad;
                    for (bi, ifm) in ifms.iter().enumerate() {
                        inputs[bi * rows + r] = ifm.get_padded(src.ic, iy, ix);
                    }
                }
                tile.xbar.mvm_batch_into(&inputs, b, &mut result)?;
                for (col, sink) in tile.col_sinks.iter().enumerate() {
                    let gy = pos.first_win_y + sink.wy;
                    let gx = pos.first_win_x + sink.wx;
                    if owner[gy * ow + gx] == pidx {
                        for (bi, out) in outs.iter_mut().enumerate() {
                            out.add_assign_at(sink.oc, gy, gx, result[bi * cols + col]);
                        }
                    }
                }
            }
        }
        Ok(outs)
    }

    fn stream_smd(
        &self,
        layout: &SmdLayout,
        xbar: &Crossbar<T>,
        ifms: &[Tensor3<T>],
    ) -> Result<Vec<Tensor3<T>>> {
        let layer = self.plan.layer();
        let (oh, ow) = layer.output_dims();
        let pad = layer.padding() as isize;
        let stride = layer.stride();
        let b = ifms.len();
        let mut outs: Vec<Tensor3<T>> = (0..b)
            .map(|_| Tensor3::zeros(layer.out_channels(), oh, ow))
            .collect();
        let d = layout.duplication();
        let rows = layout.rows_used();
        let cols = layout.cols_used();
        let n_windows = (oh * ow) as u64;
        let (kw, kh) = (layer.kernel_w(), layer.kernel_h());
        let ic = layer.in_channels();
        let oc = layer.out_channels();
        let mut inputs: Vec<T> = Vec::new();
        let mut result: Vec<T> = Vec::new();
        let mut cycle_start = 0u64;
        while cycle_start < n_windows {
            inputs.clear();
            inputs.resize(b * rows, T::ZERO);
            for copy in 0..d {
                let w_idx = cycle_start + copy as u64;
                if w_idx >= n_windows {
                    continue;
                }
                let gy = (w_idx as usize) / ow;
                let gx = (w_idx as usize) % ow;
                let mut row = copy * layout.kernel_rows();
                for c in 0..ic {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let iy = (gy * stride + ky * layer.dilation()) as isize - pad;
                            let ix = (gx * stride + kx * layer.dilation()) as isize - pad;
                            for (bi, ifm) in ifms.iter().enumerate() {
                                inputs[bi * rows + row] = ifm.get_padded(c, iy, ix);
                            }
                            row += 1;
                        }
                    }
                }
            }
            xbar.mvm_batch_into(&inputs, b, &mut result)?;
            for copy in 0..d {
                let w_idx = cycle_start + copy as u64;
                if w_idx >= n_windows {
                    continue;
                }
                let gy = (w_idx as usize) / ow;
                let gx = (w_idx as usize) % ow;
                for o in 0..oc {
                    for (bi, out) in outs.iter_mut().enumerate() {
                        out.add_assign_at(o, gy, gx, result[bi * cols + copy * oc + o]);
                    }
                }
            }
            cycle_start += d as u64;
        }
        Ok(outs)
    }

    fn stream_grouped(
        &self,
        groups: &[ProgrammedStage<T>],
        ifms: &[Tensor3<T>],
    ) -> Result<Vec<Tensor3<T>>> {
        let layer = self.plan.layer();
        let icg = layer.in_channels_per_group();
        let ocg = layer.out_channels_per_group();
        let (oh, ow) = layer.output_dims();
        let (h, w) = (layer.input_h(), layer.input_w());
        let b = ifms.len();
        let mut outs: Vec<Tensor3<T>> = (0..b)
            .map(|_| Tensor3::zeros(layer.out_channels(), oh, ow))
            .collect();
        for (g, stage) in groups.iter().enumerate() {
            let gins: Vec<Tensor3<T>> = ifms
                .iter()
                .map(|ifm| {
                    let mut gin = Tensor3::zeros(icg, h, w);
                    for c in 0..icg {
                        for y in 0..h {
                            for x in 0..w {
                                gin.set(c, y, x, ifm.get(g * icg + c, y, x));
                            }
                        }
                    }
                    gin
                })
                .collect();
            let gouts = stage.stream_batch(&gins)?;
            for (out, gout) in outs.iter_mut().zip(&gouts) {
                for o in 0..ocg {
                    for y in 0..oh {
                        for x in 0..ow {
                            out.set(g * ocg + o, y, x, gout.get(o, y, x));
                        }
                    }
                }
            }
        }
        Ok(outs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_arch::PimArray;
    use pim_nets::Network;
    use pim_tensor::forward::{forward, ExecMode};
    use pim_tensor::gen;

    /// The reference convolution of `layer`: a one-layer forward pass.
    fn reference<T: Scalar>(
        layer: &ConvLayer,
        ifm: &Tensor3<T>,
        weights: &Tensor4<T>,
    ) -> Tensor3<T> {
        let network = Network::from_layers("reference", vec![layer.clone()]);
        forward(
            &network,
            ifm,
            std::slice::from_ref(weights),
            ExecMode::Exact,
        )
        .unwrap()
    }

    fn check_batched(plan: &MappingPlan, seed: u64) {
        let layer = plan.layer();
        let weights = gen::random4::<i64>(
            layer.out_channels(),
            layer.in_channels_per_group(),
            layer.kernel_h(),
            layer.kernel_w(),
            seed ^ 0xbeef,
        );
        let ifms: Vec<_> = (0..3)
            .map(|i| {
                gen::random3::<i64>(
                    layer.in_channels(),
                    layer.input_h(),
                    layer.input_w(),
                    seed + i,
                )
            })
            .collect();
        let mut stats = RunStats::new();
        let stage = ProgrammedStage::program(plan, &weights, &mut stats).unwrap();
        let outs = stage.stream_batch(&ifms).unwrap();
        let mut solo_stats = RunStats::new();
        let solo_stage = ProgrammedStage::program(plan, &weights, &mut solo_stats).unwrap();
        for (ifm, out) in ifms.iter().zip(&outs) {
            let solo = solo_stage.stream_batch(std::slice::from_ref(ifm)).unwrap();
            assert_eq!(&solo[0], out, "{} batched mismatch", plan.algorithm());
            assert_eq!(
                &reference(layer, ifm, &weights),
                out,
                "{} reference mismatch",
                plan.algorithm()
            );
        }
        // Programming happened once per tile, not once per input.
        assert_eq!(stats.array_programmings, solo_stats.array_programmings);
    }

    #[test]
    fn batched_windowed_stream_matches_single_runs() {
        let l = ConvLayer::square("c", 10, 3, 4, 6).unwrap();
        let plan = MappingAlgorithm::VwSdk
            .plan(&l, PimArray::new(64, 48).unwrap())
            .unwrap();
        check_batched(&plan, 31);
    }

    #[test]
    fn batched_smd_stream_matches_single_runs() {
        let l = ConvLayer::square("c", 8, 3, 2, 3).unwrap();
        let plan = MappingAlgorithm::Smd
            .plan(&l, PimArray::new(64, 64).unwrap())
            .unwrap();
        assert!(plan.duplication() > 1);
        check_batched(&plan, 32);
    }

    #[test]
    fn batched_grouped_stream_matches_single_runs() {
        let l = ConvLayer::builder("dw")
            .input(8, 8)
            .kernel(3, 3)
            .channels(4, 4)
            .groups(4)
            .build()
            .unwrap();
        let plan = MappingAlgorithm::Im2col
            .plan(&l, PimArray::new(32, 32).unwrap())
            .unwrap();
        check_batched(&plan, 33);
    }

    #[test]
    fn program_rejects_a_bad_weight_bank() {
        let l = ConvLayer::square("c", 8, 3, 2, 3).unwrap();
        let plan = MappingAlgorithm::Im2col
            .plan(&l, PimArray::new(32, 32).unwrap())
            .unwrap();
        let bad_w = gen::random4::<i64>(3, 2, 5, 5, 2);
        assert!(ProgrammedStage::program(&plan, &bad_w, &mut RunStats::new()).is_err());
    }

    #[test]
    fn stream_rejects_bad_batches() {
        let l = ConvLayer::square("c", 8, 3, 2, 3).unwrap();
        let plan = MappingAlgorithm::Im2col
            .plan(&l, PimArray::new(32, 32).unwrap())
            .unwrap();
        let weights = gen::random4::<i64>(3, 2, 3, 3, 2);
        let mut stats = RunStats::new();
        let stage = ProgrammedStage::program(&plan, &weights, &mut stats).unwrap();
        assert!(stage.stream_batch(&[]).is_err());
        let wrong = gen::random3::<i64>(3, 8, 8, 1);
        assert!(stage.stream_batch(std::slice::from_ref(&wrong)).is_err());
    }

    #[test]
    fn stats_count_programmings_and_conversions() {
        let l = ConvLayer::square("c", 6, 3, 3, 4).unwrap();
        let plan = MappingAlgorithm::Im2col
            .plan(&l, PimArray::new(16, 8).unwrap())
            .unwrap();
        let weights = gen::random4::<i64>(4, 3, 3, 3, 4);
        let mut s = RunStats::new();
        let stage = ProgrammedStage::program(&plan, &weights, &mut s).unwrap();
        stage.stream_stats(&EnergyModel::default(), &mut s);
        assert_eq!(s.array_programmings, plan.ar_cycles() * plan.ac_cycles());
        assert_eq!(s.computing_cycles, plan.cycles());
        assert!(s.adc_conversions > 0);
        assert!(s.dac_conversions > 0);
        assert!(s.energy_pj() > 0.0);
    }

    #[test]
    fn float_stream_is_close_to_reference() {
        let l = ConvLayer::square("c", 8, 3, 2, 3).unwrap();
        let plan = MappingAlgorithm::VwSdk
            .plan(&l, PimArray::new(64, 64).unwrap())
            .unwrap();
        let ifm = gen::random3::<f64>(2, 8, 8, 5);
        let weights = gen::random4::<f64>(3, 2, 3, 3, 6);
        let stage = ProgrammedStage::program(&plan, &weights, &mut RunStats::new()).unwrap();
        let out = stage.stream_batch(std::slice::from_ref(&ifm)).unwrap();
        let expected = reference(&l, &ifm, &weights);
        for (a, b) in out[0].as_slice().iter().zip(expected.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn window_major_tiles_store_at_most_one_run_per_kernel_row() {
        // Window-major, a row's cells for one window are one run of the
        // tile's output channels and neighbouring windows merge, so a
        // row holds at most one run per window row that covers it.
        let net = pim_nets::zoo::resnet18_sim();
        let conv1 = &net.layers()[0];
        let plan = MappingAlgorithm::VwSdk
            .plan(conv1, PimArray::new(512, 512).unwrap())
            .unwrap();
        let weights = gen::random4::<i32>(8, 3, 7, 7, 1);
        let stage = ProgrammedStage::program(&plan, &weights, &mut RunStats::new()).unwrap();
        let StageKind::Windowed { tiles, .. } = &stage.kind else {
            panic!("VW-SDK programs windowed tiles");
        };
        assert_eq!(tiles.len(), 1);
        let xbar = &tiles[0].xbar;
        assert_eq!(xbar.programmed_cells(), 51_744);
        let most = (0..xbar.rows()).map(|r| xbar.runs_in_row(r)).max();
        assert!(most <= Some(conv1.kernel_h()), "{most:?} runs in one row");
    }

    #[test]
    fn programmed_cells_reproduce_eq_9_utilization_at_paper_scale() {
        // Fig. 9's eq. (9), read back from the programmed crossbars: VGG-13
        // conv5 and ResNet-18's five Table I layers under the paper trio on
        // 512x512. A tile's crossbar keeps one entry per distinct cell, so
        // equal counts also show that no layout cell is written twice.
        let array = PimArray::new(512, 512).unwrap();
        let total = (array.rows() * array.cols()) as f64;
        let vgg13 = pim_nets::zoo::vgg13();
        let resnet18 = pim_nets::zoo::resnet18_table1();
        let vgg13_conv5 = std::iter::once((true, &vgg13.layers()[4]));
        for (is_vgg13_conv5, layer) in
            vgg13_conv5.chain(resnet18.layers().iter().map(|l| (false, l)))
        {
            let (oc, ic, kh, kw) = (
                layer.out_channels(),
                layer.in_channels(),
                layer.kernel_h(),
                layer.kernel_w(),
            );
            let weights = gen::random4::<i32>(oc, ic, kh, kw, 9);
            for algorithm in MappingAlgorithm::paper_trio() {
                let plan = algorithm.plan(layer, array).unwrap();
                let stage =
                    ProgrammedStage::program(&plan, &weights, &mut RunStats::new()).unwrap();
                let StageKind::Windowed { tiles, .. } = &stage.kind else {
                    panic!("{algorithm} programs windowed tiles");
                };
                let mut cells = Vec::with_capacity(tiles.len());
                for tile in tiles {
                    assert_eq!(tile.xbar.programmed_cells(), tile.used_cells);
                    cells.push(tile.xbar.programmed_cells());
                }
                let mean = cells.iter().map(|&c| c as f64 / total).sum::<f64>()
                    / tiles.len() as f64
                    * 100.0;
                let peak = cells.iter().copied().max().unwrap();
                let expected = pim_mapping::utilization::utilization(&plan).unwrap();
                let context = format!("{} {algorithm}", layer.name());
                assert!((mean - expected.mean_nonzero).abs() < 1e-9, "{context}");
                assert!(
                    (peak as f64 / total * 100.0 - expected.peak_nonzero).abs() < 1e-9,
                    "{context}"
                );
                if is_vgg13_conv5 && algorithm == MappingAlgorithm::VwSdk {
                    // The paper's "up to 73.8 %": 9·42·512 / 512².
                    assert_eq!(peak, 9 * 42 * 512, "{context}");
                }
            }
        }
    }
}
