//! Cell-level layouts: which crossbar cell holds which weight.
//!
//! One *tile layout* describes one programming of the physical array — the
//! combination of one AR tile (a slice of input channels or logical rows)
//! and one AC tile (a slice of output columns). The layout is the contract
//! between the planner and the functional simulator:
//!
//! * every physical **row** carries one input element, identified by a
//!   [`RowSource`] (channel + offset inside the parallel window);
//! * every physical **column** produces one output contribution,
//!   identified by a [`ColSink`] (output channel + window offset inside
//!   the parallel window);
//! * every programmed **cell** holds one kernel weight ([`WeightCoord`]).
//!
//! The same generator covers im2col (`PW = K`, one window), SDK (square
//! `PW`, dense row packing) and VW-SDK (rectangular `PW`, channel-granular
//! packing). Sub-matrix duplication has a block-diagonal structure of its
//! own, [`SmdLayout`].

use crate::plan::{MappingPlan, RowPacking};
use crate::Result;

/// Identifies one weight element `W[oc][ic][ky][kx]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WeightCoord {
    /// Output channel.
    pub oc: usize,
    /// Input channel.
    pub ic: usize,
    /// Kernel row.
    pub ky: usize,
    /// Kernel column.
    pub kx: usize,
}

/// The input element a physical row carries: channel `ic`, at offset
/// `(dy, dx)` inside the parallel-window patch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowSource {
    /// Global input-channel index.
    pub ic: usize,
    /// Vertical offset within the parallel window.
    pub dy: usize,
    /// Horizontal offset within the parallel window.
    pub dx: usize,
}

/// The output a physical column contributes to: output channel `oc`, for
/// the kernel window at offset `(wy, wx)` (in window-index units) inside
/// the parallel window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColSink {
    /// Global output-channel index.
    pub oc: usize,
    /// Vertical window index within the parallel window.
    pub wy: usize,
    /// Horizontal window index within the parallel window.
    pub wx: usize,
}

/// One programmed cell: `(row, col)` holds `weight`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellAssignment {
    /// Physical row (0-based).
    pub row: usize,
    /// Physical column (0-based).
    pub col: usize,
    /// The weight element stored in the cell.
    pub weight: WeightCoord,
}

/// The layout of one (AR tile, AC tile) array programming.
#[derive(Debug, Clone, PartialEq)]
pub struct TileLayout {
    ar_index: u64,
    ac_index: u64,
    rows_used: usize,
    cols_used: usize,
    row_sources: Vec<RowSource>,
    col_sinks: Vec<ColSink>,
    cells: Vec<CellAssignment>,
}

impl TileLayout {
    /// Builds the layout of tile `(ar_index, ac_index)` of a plan.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MappingError`] if the tile indices are out of
    /// range or the plan's layer is not layout-supported (grouped).
    ///
    /// # Panics
    ///
    /// Panics if an internal bound is violated — the property tests treat
    /// any such panic as a planner bug.
    pub fn build(plan: &MappingPlan, ar_index: u64, ac_index: u64) -> Result<TileLayout> {
        plan.check_layout_supported()?;
        if ar_index >= plan.ar_cycles() || ac_index >= plan.ac_cycles() {
            return Err(crate::MappingError::new(format!(
                "tile ({ar_index},{ac_index}) out of range {}x{}",
                plan.ar_cycles(),
                plan.ac_cycles()
            )));
        }
        let layer = plan.layer();
        let pw = plan.window();
        let pw_area = pw.area();
        let stride = layer.stride();
        let dilation = layer.dilation();
        let (kw, kh) = (layer.kernel_w(), layer.kernel_h());
        let wpp_w =
            pim_cost::model::windows_per_pw_axis(pw.width(), layer.effective_kernel_w(), stride);
        let nwp = plan.windows_in_pw();
        let ic = layer.in_channels();
        let oc = layer.out_channels();
        // Dense plans whose window *is* the raw kernel (im2col and the
        // degenerate SDK/SMD/VW fallbacks) use a compact kernel-grid row
        // space: one row per weight position, gathered at dilated input
        // offsets. Every other plan's rows are a literal input patch.
        let kernel_grid = nwp == 1 && pw.width() == kw && pw.height() == kh;

        // Row range: list of (global ic, dy, dx) per physical row.
        let mut row_sources = Vec::new();
        let (lr_base, lr_count) = match plan.row_packing() {
            RowPacking::Dense => {
                let total = ic * pw_area;
                let base = (ar_index as usize) * plan.array().rows();
                let count = plan.array().rows().min(total - base);
                (base, count)
            }
            RowPacking::ChannelGranular => {
                let ic_base = (ar_index as usize) * plan.tiled_ic();
                let ic_count = plan.tiled_ic().min(ic - ic_base);
                (ic_base * pw_area, ic_count * pw_area)
            }
        };
        for lr in lr_base..lr_base + lr_count {
            let c = lr / pw_area;
            let pos = lr % pw_area;
            let (dy, dx) = if kernel_grid {
                ((pos / kw) * dilation, (pos % kw) * dilation)
            } else {
                (pos / pw.width(), pos % pw.width())
            };
            row_sources.push(RowSource { ic: c, dy, dx });
        }

        // Column range: list of (global oc, wy, wx) per physical column.
        let mut col_sinks = Vec::new();
        let (lc_base, lc_count) = match plan.row_packing() {
            RowPacking::Dense => {
                let total = oc * nwp;
                let base = (ac_index as usize) * plan.array().cols();
                let count = plan.array().cols().min(total - base);
                (base, count)
            }
            RowPacking::ChannelGranular => {
                let oc_base = (ac_index as usize) * plan.tiled_oc();
                let oc_count = plan.tiled_oc().min(oc - oc_base);
                (oc_base * nwp, oc_count * nwp)
            }
        };
        for lc in lc_base..lc_base + lc_count {
            let o = lc / nwp;
            let win = lc % nwp;
            col_sinks.push(ColSink {
                oc: o,
                wy: win / wpp_w.max(1),
                wx: win % wpp_w.max(1),
            });
        }

        // Cells: for each column, place its kernel at the window offset,
        // for every channel whose rows fall inside this tile.
        let mut cells = Vec::new();
        for (col, sink) in col_sinks.iter().enumerate() {
            for ky in 0..kh {
                for kx in 0..kw {
                    let pos = if kernel_grid {
                        ky * kw + kx
                    } else {
                        let dy = sink.wy * stride + ky * dilation;
                        let dx = sink.wx * stride + kx * dilation;
                        dy * pw.width() + dx
                    };
                    // All channels present in this tile's row range.
                    let first_c = lr_base / pw_area;
                    let last_c = (lr_base + lr_count - 1) / pw_area;
                    for c in first_c..=last_c {
                        let lr = c * pw_area + pos;
                        if lr < lr_base || lr >= lr_base + lr_count {
                            continue;
                        }
                        cells.push(CellAssignment {
                            row: lr - lr_base,
                            col,
                            weight: WeightCoord {
                                oc: sink.oc,
                                ic: c,
                                ky,
                                kx,
                            },
                        });
                    }
                }
            }
        }

        Ok(TileLayout {
            ar_index,
            ac_index,
            rows_used: lr_count,
            cols_used: lc_count,
            row_sources,
            col_sinks,
            cells,
        })
    }

    /// AR tile index of this layout.
    fn ar_index(&self) -> u64 {
        self.ar_index
    }

    /// AC tile index of this layout.
    fn ac_index(&self) -> u64 {
        self.ac_index
    }

    /// Physical rows driven in this tile.
    pub fn rows_used(&self) -> usize {
        self.rows_used
    }

    /// Physical columns read in this tile.
    pub fn cols_used(&self) -> usize {
        self.cols_used
    }

    /// Input element of each physical row (length [`Self::rows_used`]).
    pub fn row_sources(&self) -> &[RowSource] {
        &self.row_sources
    }

    /// Output contribution of each physical column (length
    /// [`Self::cols_used`]).
    pub fn col_sinks(&self) -> &[ColSink] {
        &self.col_sinks
    }

    /// All programmed cells.
    pub fn cells(&self) -> &[CellAssignment] {
        &self.cells
    }

    /// Number of cells holding a mapped weight (the paper's "used memory
    /// cells" under the nonzero interpretation).
    pub fn used_cells(&self) -> usize {
        self.cells.len()
    }

    /// Cells of the allocated bounding rectangle (`rows_used × cols_used`).
    pub fn rect_cells(&self) -> usize {
        self.rows_used * self.cols_used
    }
}

/// Block-diagonal layout of sub-matrix duplication: `d` copies of the
/// full kernel matrix, each paired with one disjoint kernel window.
#[derive(Debug, Clone, PartialEq)]
pub struct SmdLayout {
    duplication: usize,
    kernel_rows: usize,
    out_channels: usize,
    rows_used: usize,
    cols_used: usize,
    cells: Vec<CellAssignment>,
}

impl SmdLayout {
    /// Builds the SMD layout for a plan produced by
    /// [`crate::MappingAlgorithm::Smd`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::MappingError`] for grouped layers, or when the
    /// plan degenerated to im2col (`duplication = 1` with row tiling) —
    /// use [`TileLayout`] in that case.
    pub fn build(plan: &MappingPlan) -> Result<SmdLayout> {
        plan.check_layout_supported()?;
        let layer = plan.layer();
        let d = plan.duplication();
        let kernel_rows = layer.kernel_rows();
        if d * kernel_rows > plan.array().rows() {
            return Err(crate::MappingError::new(
                "SMD plan degenerated to im2col; use TileLayout",
            ));
        }
        let (kw, kh) = (layer.kernel_w(), layer.kernel_h());
        let ic = layer.in_channels();
        let oc = layer.out_channels();
        let mut cells = Vec::with_capacity(d * oc * ic * kh * kw);
        for copy in 0..d {
            for o in 0..oc {
                let col = copy * oc + o;
                for c in 0..ic {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let row = copy * kernel_rows + c * (kh * kw) + ky * kw + kx;
                            cells.push(CellAssignment {
                                row,
                                col,
                                weight: WeightCoord {
                                    oc: o,
                                    ic: c,
                                    ky,
                                    kx,
                                },
                            });
                        }
                    }
                }
            }
        }
        Ok(SmdLayout {
            duplication: d,
            kernel_rows,
            out_channels: oc,
            rows_used: d * kernel_rows,
            cols_used: d * oc,
            cells,
        })
    }

    /// Number of block-diagonal copies.
    pub fn duplication(&self) -> usize {
        self.duplication
    }

    /// Rows of one copy (`K·K·IC`).
    pub fn kernel_rows(&self) -> usize {
        self.kernel_rows
    }

    /// Output channels per copy.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Total rows driven.
    pub fn rows_used(&self) -> usize {
        self.rows_used
    }

    /// Total columns read.
    pub fn cols_used(&self) -> usize {
        self.cols_used
    }

    /// All programmed cells.
    pub fn cells(&self) -> &[CellAssignment] {
        &self.cells
    }

    /// Number of cells holding a mapped weight.
    pub fn used_cells(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MappingAlgorithm;
    use pim_arch::PimArray;
    use pim_nets::ConvLayer;

    fn layer(input: usize, kernel: usize, ic: usize, oc: usize) -> ConvLayer {
        ConvLayer::square("t", input, kernel, ic, oc).unwrap()
    }

    fn arr(r: usize, c: usize) -> PimArray {
        PimArray::new(r, c).unwrap()
    }

    #[test]
    fn im2col_layout_is_dense_kernel_columns() {
        let l = layer(6, 3, 2, 4);
        let p = MappingAlgorithm::Im2col.plan(&l, arr(64, 64)).unwrap();
        let t = TileLayout::build(&p, 0, 0).unwrap();
        assert_eq!(t.rows_used(), 18); // 3*3*2
        assert_eq!(t.cols_used(), 4);
        assert_eq!(t.used_cells(), 18 * 4); // fully dense
        assert_eq!(t.rect_cells(), 18 * 4);
        // Row 0 is channel 0, window origin.
        assert_eq!(
            t.row_sources()[0],
            RowSource {
                ic: 0,
                dy: 0,
                dx: 0
            }
        );
        // Every column covers the single window (0,0).
        assert!(t.col_sinks().iter().all(|s| s.wy == 0 && s.wx == 0));
    }

    #[test]
    fn im2col_dense_row_tiling_straddles_channels() {
        // Kernel rows 3*3*8 = 72 on a 64-row array: AR = 2, the first tile
        // ends mid-channel.
        let l = layer(6, 3, 8, 4);
        let p = MappingAlgorithm::Im2col.plan(&l, arr(64, 64)).unwrap();
        assert_eq!(p.ar_cycles(), 2);
        let t0 = TileLayout::build(&p, 0, 0).unwrap();
        let t1 = TileLayout::build(&p, 1, 0).unwrap();
        assert_eq!(t0.rows_used(), 64);
        assert_eq!(t1.rows_used(), 8);
        assert_eq!(t0.used_cells() + t1.used_cells(), 72 * 4);
        // First row of tile 1 picks up inside channel 7.
        assert_eq!(t1.row_sources()[0].ic, 7);
    }

    #[test]
    fn vw_layout_duplicates_kernels_at_window_offsets() {
        // 4x3 window over a 3x3 kernel: 2 windows, kernels shifted by one
        // column.
        let l = layer(8, 3, 2, 3);
        let pw = pim_cost::window::ParallelWindow::new(4, 3).unwrap();
        let p = crate::plan::plan_with_window(&l, arr(24, 64), pw).unwrap();
        assert_eq!(p.window().to_string(), "4x3");
        assert_eq!(p.tiled_ic(), 2);
        let t = TileLayout::build(&p, 0, 0).unwrap();
        assert_eq!(t.rows_used(), 2 * 12);
        assert_eq!(t.cols_used(), 3 * 2);
        // Each column holds one 3x3 kernel per channel: 9*2 cells.
        assert_eq!(t.used_cells(), 6 * 18);
        // Column 0: window (0,0); column 1: window (0,1) shifted right.
        assert_eq!(
            t.col_sinks()[0],
            ColSink {
                oc: 0,
                wy: 0,
                wx: 0
            }
        );
        assert_eq!(
            t.col_sinks()[1],
            ColSink {
                oc: 0,
                wy: 0,
                wx: 1
            }
        );
        let col1_min_dx = t
            .cells()
            .iter()
            .filter(|c| c.col == 1)
            .map(|c| t.row_sources()[c.row].dx)
            .min()
            .unwrap();
        assert_eq!(col1_min_dx, 1);
    }

    #[test]
    fn vw_channel_granular_tiles_leave_rows_unused() {
        // ResNet conv4 plan: 4x3 window, ICt=42 of 256 -> last AR tile has
        // 256 - 6*42 = 4 channels.
        let l = layer(14, 3, 256, 256);
        let p = MappingAlgorithm::VwSdk.plan(&l, arr(512, 512)).unwrap();
        assert_eq!(p.ar_cycles(), 7);
        let full = TileLayout::build(&p, 0, 0).unwrap();
        assert_eq!(full.rows_used(), 42 * 12);
        let last = TileLayout::build(&p, 6, 0).unwrap();
        assert_eq!(last.rows_used(), 4 * 12);
        // Nonzero cells per full tile: 2 windows * 256 oc columns... the
        // AC tile holds all 256 OC (OCt=256): cols = 512.
        assert_eq!(full.cols_used(), 512);
        assert_eq!(full.used_cells(), 512 * 9 * 42);
    }

    #[test]
    fn tile_cells_are_distinct_and_inside_the_array() {
        let l = layer(10, 3, 3, 5);
        let array = arr(48, 40);
        for alg in [
            MappingAlgorithm::Im2col,
            MappingAlgorithm::VwSdk,
            MappingAlgorithm::Sdk,
        ] {
            let p = alg.plan(&l, array).unwrap();
            for t in 0..p.ar_cycles() {
                for u in 0..p.ac_cycles() {
                    let layout = TileLayout::build(&p, t, u).unwrap();
                    let distinct: std::collections::HashSet<(usize, usize)> =
                        layout.cells().iter().map(|c| (c.row, c.col)).collect();
                    assert_eq!(distinct.len(), layout.used_cells(), "{alg} tile {t},{u}");
                    assert!(
                        distinct
                            .iter()
                            .all(|&(r, c)| r < array.rows() && c < array.cols()),
                        "{alg} tile {t},{u} leaves the array"
                    );
                }
            }
        }
    }

    #[test]
    fn layout_rejects_out_of_range_tiles() {
        let l = layer(6, 3, 2, 4);
        let p = MappingAlgorithm::Im2col.plan(&l, arr(64, 64)).unwrap();
        assert!(TileLayout::build(&p, 1, 0).is_err());
        assert!(TileLayout::build(&p, 0, 1).is_err());
    }

    #[test]
    fn smd_layout_is_block_diagonal() {
        let l = layer(8, 3, 2, 3);
        let p = MappingAlgorithm::Smd.plan(&l, arr(64, 64)).unwrap();
        let d = p.duplication();
        assert!(d > 1);
        let s = SmdLayout::build(&p).unwrap();
        assert_eq!(s.rows_used(), d * 18);
        assert_eq!(s.cols_used(), d * 3);
        assert_eq!(s.used_cells(), d * 3 * 18);
        // No cell may fall outside its diagonal block.
        for cell in s.cells() {
            let row_copy = cell.row / s.kernel_rows();
            let col_copy = cell.col / s.out_channels();
            assert_eq!(row_copy, col_copy);
        }
    }

    #[test]
    fn smd_build_rejects_degenerate_plans() {
        let big = layer(14, 3, 512, 512);
        let p = MappingAlgorithm::Smd.plan(&big, arr(512, 512)).unwrap();
        assert_eq!(p.duplication(), 1);
        assert!(SmdLayout::build(&p).is_err());
    }

    #[test]
    fn sdk_layout_fits_array_columns() {
        let l = layer(112, 7, 3, 64);
        let p = MappingAlgorithm::Sdk.plan(&l, arr(512, 512)).unwrap();
        let t = TileLayout::build(&p, 0, 0).unwrap();
        assert!(t.cols_used() <= 512);
        assert!(t.rows_used() <= 512);
        // 8x8 window, 3 channels: rows = 192 dense.
        assert_eq!(t.rows_used(), 192);
        assert_eq!(t.cols_used(), 4 * 64);
    }
}

/// Renders a tile layout as ASCII art: `#` for cells holding a weight,
/// `.` for unused cells inside the allocated region, blank outside.
///
/// Large tiles are downsampled to at most `max_rows × max_cols`
/// characters (each character then represents a block of cells and is
/// `#` if any cell in the block is programmed).
///
/// Useful for eyeballing how SDK/VW-SDK shift kernels inside window
/// columns — the structure of the paper's Fig. 2.
pub fn render_ascii(layout: &TileLayout, max_rows: usize, max_cols: usize) -> String {
    let rows = layout.rows_used().max(1);
    let cols = layout.cols_used().max(1);
    let row_step = rows.div_ceil(max_rows.max(1));
    let col_step = cols.div_ceil(max_cols.max(1));
    let grid_h = rows.div_ceil(row_step);
    let grid_w = cols.div_ceil(col_step);
    let mut grid = vec![vec!['.'; grid_w]; grid_h];
    for cell in layout.cells() {
        grid[cell.row / row_step][cell.col / col_step] = '#';
    }
    let mut out = format!(
        "tile ({}, {}): {} rows x {} cols used, {} weights ({}x{} per character)\n",
        layout.ar_index(),
        layout.ac_index(),
        layout.rows_used(),
        layout.cols_used(),
        layout.used_cells(),
        row_step,
        col_step,
    );
    for row in grid {
        out.push_str(&row.into_iter().collect::<String>());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod ascii_tests {
    use super::*;
    use crate::MappingAlgorithm;
    use pim_arch::PimArray;
    use pim_nets::ConvLayer;

    #[test]
    fn ascii_shows_kernel_shifts() {
        let layer = ConvLayer::square("t", 8, 3, 1, 2).unwrap();
        let pw = pim_cost::window::ParallelWindow::new(4, 3).unwrap();
        let plan =
            crate::plan::plan_with_window(&layer, PimArray::new(16, 16).unwrap(), pw).unwrap();
        let layout = TileLayout::build(&plan, 0, 0).unwrap();
        let art = render_ascii(&layout, 64, 64);
        // 12 rows x 4 cols fully rendered; shifted kernels leave holes.
        assert!(art.contains('#'));
        assert!(art.contains('.'));
        let lines: Vec<&str> = art.lines().skip(1).collect();
        assert_eq!(lines.len(), 12);
        assert!(lines.iter().all(|l| l.len() == 4));
        // Column 0 (window 0) and column 1 (window shifted right by one)
        // must differ in at least one row.
        assert!(lines.iter().any(|l| {
            let b = l.as_bytes();
            b[0] != b[1]
        }));
    }

    #[test]
    fn ascii_downsamples_large_tiles() {
        let layer = ConvLayer::square("big", 56, 3, 128, 256).unwrap();
        let plan = MappingAlgorithm::VwSdk
            .plan(&layer, PimArray::new(512, 512).unwrap())
            .unwrap();
        let layout = TileLayout::build(&plan, 0, 0).unwrap();
        let art = render_ascii(&layout, 32, 80);
        let lines: Vec<&str> = art.lines().skip(1).collect();
        assert!(lines.len() <= 32);
        assert!(lines.iter().all(|l| l.len() <= 80));
    }

    #[test]
    fn dense_im2col_tile_renders_solid() {
        let layer = ConvLayer::square("d", 6, 3, 2, 3).unwrap();
        let plan = MappingAlgorithm::Im2col
            .plan(&layer, PimArray::new(32, 32).unwrap())
            .unwrap();
        let layout = TileLayout::build(&plan, 0, 0).unwrap();
        let art = render_ascii(&layout, 64, 64);
        // im2col columns are dense: no '.' inside the used region.
        assert!(!art.lines().skip(1).any(|l| l.contains('.')));
    }
}
