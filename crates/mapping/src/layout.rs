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
//! A layout keeps no cell list. Its cells come from one walk,
//! [`TileLayout::runs`], which lists them row-major — rows ascending and,
//! within a row, columns ascending — as [`CellRun`]s: adjacent cells of
//! one row holding one kernel tap for consecutive output channels. The
//! layout numbers a tile's columns window-major, by `(wy, wx, oc)`, so a
//! row's cells for one window are one run. The simulator programs its
//! crossbars from the walk, [`crate::utilization`] counts it and
//! [`render_ascii`] draws it, so only the walk says where a weight goes.
//!
//! The same generator covers im2col (`PW = K`, one window), SDK (square
//! `PW`, dense row packing) and VW-SDK (rectangular `PW`, channel-granular
//! packing). Sub-matrix duplication has a block-diagonal structure of its
//! own, [`SmdLayout`].

use crate::plan::{MappingPlan, RowPacking};
use crate::Result;
use pim_cost::model::windows_per_pw_axis;

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

/// `len` adjacent programmed cells of one row: cell `(row, col + j)`
/// holds `W[weight.oc + j][weight.ic][weight.ky][weight.kx]`, one kernel
/// tap for `len` consecutive output channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellRun {
    /// Physical row (0-based).
    pub row: usize,
    /// Physical column of the first cell (0-based).
    pub col: usize,
    /// Number of cells.
    pub len: usize,
    /// The weight element stored in the first cell.
    pub weight: WeightCoord,
}

/// The layout of one (AR tile, AC tile) array programming.
#[derive(Debug, Clone, PartialEq)]
pub struct TileLayout {
    row_sources: Vec<RowSource>,
    col_sinks: Vec<ColSink>,
    /// Window `w`'s columns are `window_cols[w]..window_cols[w + 1]`.
    window_cols: Vec<usize>,
    /// Along x, then y: for each patch offset, the windows whose kernel
    /// reads it (ascending, y's scaled to a window-index step) and the
    /// kernel tap that reads it.
    taps: [Vec<Vec<(usize, usize)>>; 2],
}

impl TileLayout {
    /// Builds the layout of tile `(ar_index, ac_index)` of a plan.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MappingError`] if the tile indices are out of
    /// range, the plan's layer is not layout-supported (grouped), or the
    /// plan duplicates the kernel matrix (use [`SmdLayout`]).
    pub fn build(plan: &MappingPlan, ar_index: u64, ac_index: u64) -> Result<TileLayout> {
        plan.check_layout_supported()?;
        if plan.is_block_diagonal() {
            return Err(crate::MappingError::new(
                "SMD plan duplicates the kernel matrix; use SmdLayout",
            ));
        }
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
        let nwp = plan.windows_in_pw();
        let ic = layer.in_channels();
        let oc = layer.out_channels();
        // Dense plans whose window *is* the raw kernel (im2col and the
        // degenerate SDK/SMD/VW fallbacks) use a compact kernel-grid row
        // space: one row per weight position, gathered at dilated input
        // offsets. Every other plan's rows are a literal input patch.
        let kernel_grid = nwp == 1 && pw.width() == kw && pw.height() == kh;
        // Window `w` reads offset `w·stride + k·dilation` with tap `k`.
        let axis = |patch: usize, effective: usize, kernel: usize, step: usize| {
            let (extent, windows) = if kernel_grid {
                (effective, 1)
            } else {
                (patch, windows_per_pw_axis(patch, effective, stride))
            };
            let taps = |offset: usize| {
                (0..windows).filter_map(move |w| {
                    let tap = offset.checked_sub(w * stride)?;
                    let hit = tap % dilation == 0 && tap / dilation < kernel;
                    hit.then_some((w * step, tap / dilation))
                })
            };
            ((0..extent).map(|o| taps(o).collect()).collect(), windows)
        };
        let (taps_x, windows_x) = axis(pw.width(), layer.effective_kernel_w(), kw, 1);
        let (taps_y, _) = axis(pw.height(), layer.effective_kernel_h(), kh, windows_x);

        // Row range: list of (global ic, dy, dx) per physical row.
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
        let row_sources = (lr_base..lr_base + lr_count)
            .map(|lr| {
                let pos = lr % pw_area;
                let (dy, dx) = if kernel_grid {
                    ((pos / kw) * dilation, (pos % kw) * dilation)
                } else {
                    (pos / pw.width(), pos % pw.width())
                };
                RowSource {
                    ic: lr / pw_area,
                    dy,
                    dx,
                }
            })
            .collect();

        // Column range, as logical columns `oc * NWP + window`.
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
        // Physical columns number the logical ones window-major: window
        // `w` holds, in ascending order, the output channels whose logical
        // column falls in the tile. A Dense tile may cut one channel's
        // windows, so its first and last windows can hold one fewer.
        let lc_end = lc_base + lc_count;
        let mut col_sinks = Vec::with_capacity(lc_count);
        let mut window_cols = Vec::with_capacity(nwp + 1);
        for w in 0..nwp {
            window_cols.push(col_sinks.len());
            let first = (lc_base + nwp - 1 - w) / nwp;
            let end = (lc_end + nwp - 1 - w) / nwp;
            col_sinks.extend((first..end).map(|oc| ColSink {
                oc,
                wy: w / windows_x,
                wx: w % windows_x,
            }));
        }
        window_cols.push(col_sinks.len());

        Ok(TileLayout {
            row_sources,
            col_sinks,
            window_cols,
            taps: [taps_x, taps_y],
        })
    }

    /// Physical rows driven in this tile.
    pub fn rows_used(&self) -> usize {
        self.row_sources.len()
    }

    /// Physical columns read in this tile.
    pub fn cols_used(&self) -> usize {
        self.col_sinks.len()
    }

    /// Input element of each physical row (length [`Self::rows_used`]).
    pub fn row_sources(&self) -> &[RowSource] {
        &self.row_sources
    }

    /// Output contribution of each physical column (length
    /// [`Self::cols_used`]), window-major: by `(wy, wx, oc)`.
    pub fn col_sinks(&self) -> &[ColSink] {
        &self.col_sinks
    }

    /// The tile's programmed cells, row-major: rows ascending and, within
    /// a row, columns ascending.
    ///
    /// Row `(ic, dy, dx)` holds a weight for every window `(wy, wx)`
    /// whose kernel reads it: `dy = wy·s + ky·d` and `dx = wx·s + kx·d`
    /// for a kernel tap `(ky, kx)`. That window's columns hold
    /// `W[oc][ic][ky][kx]` for each of its output channels, one run.
    /// Windows ascend in window-major column order, so consecutive
    /// windows' runs may abut.
    pub fn runs(&self) -> impl Iterator<Item = CellRun> + '_ {
        let [x, y] = &self.taps;
        let reads = self
            .row_sources
            .iter()
            .enumerate()
            .flat_map(move |(row, src)| {
                let along_x = &x[src.dx];
                y[src.dy].iter().flat_map(move |&(wy, ky)| {
                    along_x
                        .iter()
                        .map(move |&(wx, kx)| (row, src.ic, wy + wx, ky, kx))
                })
            });
        reads.filter_map(move |(row, ic, w, ky, kx)| {
            let (col, end) = (self.window_cols[w], self.window_cols[w + 1]);
            (end > col).then(|| CellRun {
                row,
                col,
                len: end - col,
                weight: WeightCoord {
                    oc: self.col_sinks[col].oc,
                    ic,
                    ky,
                    kx,
                },
            })
        })
    }

    /// Number of cells holding a mapped weight (the paper's "used memory
    /// cells" under the nonzero interpretation): the walk's count.
    pub fn used_cells(&self) -> usize {
        self.runs().map(|run| run.len).sum()
    }
}

/// Block-diagonal layout of sub-matrix duplication: `d` copies of the
/// full kernel matrix, each paired with one disjoint kernel window.
#[derive(Debug, Clone, PartialEq)]
pub struct SmdLayout {
    duplication: usize,
    /// Kernel width and height.
    kernel: (usize, usize),
    kernel_rows: usize,
    out_channels: usize,
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
        Ok(SmdLayout {
            duplication: d,
            kernel: (layer.kernel_w(), layer.kernel_h()),
            kernel_rows,
            out_channels: layer.out_channels(),
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
        self.duplication * self.kernel_rows
    }

    /// Total columns read.
    pub fn cols_used(&self) -> usize {
        self.duplication * self.out_channels
    }

    /// The programmed cells, row-major. Row `copy·KH·KW·IC + (ic·KH +
    /// ky)·KW + kx` holds tap `(ic, ky, kx)` of every output channel, one
    /// run in the copy's columns `copy·OC..(copy + 1)·OC`.
    pub fn runs(&self) -> impl Iterator<Item = CellRun> + '_ {
        let (kw, kh) = self.kernel;
        (0..self.rows_used()).map(move |row| {
            let tap = row % self.kernel_rows;
            CellRun {
                row,
                col: row / self.kernel_rows * self.out_channels,
                len: self.out_channels,
                weight: WeightCoord {
                    oc: 0,
                    ic: tap / (kh * kw),
                    ky: tap / kw % kh,
                    kx: tap % kw,
                },
            }
        })
    }

    /// Number of cells holding a mapped weight: the walk's count.
    pub fn used_cells(&self) -> usize {
        self.runs().map(|run| run.len).sum()
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
        // Window-major columns: 0..3 are window (0,0) for output channels
        // 0..3, and 3..6 window (0,1), shifted right.
        let sink = |oc, wx| ColSink { oc, wy: 0, wx };
        assert_eq!(
            t.col_sinks(),
            [
                sink(0, 0),
                sink(1, 0),
                sink(2, 0),
                sink(0, 1),
                sink(1, 1),
                sink(2, 1)
            ]
        );
        let min_dx = |col| {
            t.runs()
                .filter(|run| (run.col..run.col + run.len).contains(&col))
                .map(|run| t.row_sources()[run.row].dx)
                .min()
        };
        assert_eq!(min_dx(0), Some(0));
        assert_eq!(min_dx(3), Some(1));
        // A row both windows read lists one run per window; the two abut.
        assert_eq!(
            t.runs().filter(|run| run.row == 1).collect::<Vec<_>>(),
            [
                CellRun {
                    row: 1,
                    col: 0,
                    len: 3,
                    weight: WeightCoord {
                        oc: 0,
                        ic: 0,
                        ky: 0,
                        kx: 1
                    }
                },
                CellRun {
                    row: 1,
                    col: 3,
                    len: 3,
                    weight: WeightCoord {
                        oc: 0,
                        ic: 0,
                        ky: 0,
                        kx: 0
                    }
                }
            ]
        );
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
    fn tile_walks_are_row_major_and_inside_the_array() {
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
                    // Each run starts past the previous one's last cell, so
                    // no cell is listed twice.
                    let mut next = (0, 0);
                    for run in layout.runs() {
                        assert!(
                            run.len > 0 && (run.row, run.col) >= next,
                            "{alg} tile {t},{u}"
                        );
                        next = (run.row, run.col + run.len);
                        assert!(
                            run.row < layout.rows_used() && next.1 <= layout.cols_used(),
                            "{alg} tile {t},{u} leaves the layout"
                        );
                    }
                    assert!(layout.rows_used() <= array.rows());
                    assert!(layout.cols_used() <= array.cols());
                }
            }
        }
    }

    #[test]
    fn layout_rejects_out_of_range_tiles_and_duplicated_smd() {
        let l = layer(6, 3, 2, 4);
        let p = MappingAlgorithm::Im2col.plan(&l, arr(64, 64)).unwrap();
        assert!(TileLayout::build(&p, 1, 0).is_err());
        assert!(TileLayout::build(&p, 0, 1).is_err());
        let smd = MappingAlgorithm::Smd.plan(&l, arr(64, 64)).unwrap();
        assert!(smd.is_block_diagonal());
        assert!(TileLayout::build(&smd, 0, 0).is_err());
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
        for run in s.runs() {
            let row_copy = run.row / s.kernel_rows();
            assert_eq!(run.col, row_copy * s.out_channels());
            assert_eq!(run.len, s.out_channels());
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

/// Renders tile (0, 0) of a plan as ASCII art: `#` for cells holding a
/// weight, `.` for unused cells inside the allocated region, blank
/// outside. Sub-matrix duplication draws its block-diagonal layout.
///
/// Large tiles are downsampled to at most `max_rows × max_cols`
/// characters (each character then represents a block of cells and is
/// `#` if any cell in the block is programmed).
///
/// Columns are drawn `oc`-major, each output channel's windows side by
/// side, so SDK/VW-SDK's kernel shifts show as in the paper's Fig. 2.
///
/// # Errors
///
/// Returns [`crate::MappingError`] if the plan has no cell-level layout
/// (grouped layers).
pub fn render_ascii(plan: &MappingPlan, max_rows: usize, max_cols: usize) -> Result<String> {
    let max = (max_rows, max_cols);
    let cells = |run: CellRun| (run.col..run.col + run.len).map(move |col| (run.row, col));
    if plan.is_block_diagonal() {
        let layout = SmdLayout::build(plan)?;
        let used = (layout.rows_used(), layout.cols_used());
        return Ok(draw(used, max, layout.runs().flat_map(cells)));
    }
    let layout = TileLayout::build(plan, 0, 0)?;
    let sinks = layout.col_sinks();
    let mut order: Vec<usize> = (0..sinks.len()).collect();
    order.sort_unstable_by_key(|&col| (sinks[col].oc, sinks[col].wy, sinks[col].wx));
    let mut shown = vec![0; sinks.len()];
    for (position, &col) in order.iter().enumerate() {
        shown[col] = position;
    }
    let used = (layout.rows_used(), layout.cols_used());
    let cells = layout
        .runs()
        .flat_map(cells)
        .map(|(row, col)| (row, shown[col]));
    Ok(draw(used, max, cells))
}

/// Draws `cells` of a `rows × cols` region on at most `max_rows ×
/// max_cols` characters, under a header that counts them.
fn draw(
    (rows_used, cols_used): (usize, usize),
    (max_rows, max_cols): (usize, usize),
    cells: impl Iterator<Item = (usize, usize)>,
) -> String {
    let rows = rows_used.max(1);
    let cols = cols_used.max(1);
    let row_step = rows.div_ceil(max_rows.max(1));
    let col_step = cols.div_ceil(max_cols.max(1));
    let mut grid = vec![vec!['.'; cols.div_ceil(col_step)]; rows.div_ceil(row_step)];
    let mut weights = 0;
    for (row, col) in cells {
        grid[row / row_step][col / col_step] = '#';
        weights += 1;
    }
    let mut out = format!(
        "tile (0, 0): {rows_used} rows x {cols_used} cols used, {weights} weights \
         ({row_step}x{col_step} per character)\n"
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
        let art = render_ascii(&plan, 64, 64).unwrap();
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
        let art = render_ascii(&plan, 32, 80).unwrap();
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
        let art = render_ascii(&plan, 64, 64).unwrap();
        // im2col columns are dense: no '.' inside the used region.
        assert!(!art.lines().skip(1).any(|l| l.contains('.')));
    }

    #[test]
    fn smd_renders_its_block_diagonal_copies() {
        let layer = ConvLayer::square("s", 8, 3, 2, 3).unwrap();
        let plan = MappingAlgorithm::Smd
            .plan(&layer, PimArray::new(64, 64).unwrap())
            .unwrap();
        let d = plan.duplication();
        assert!(d > 1);
        let art = render_ascii(&plan, 64, 64).unwrap();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(
            lines[0],
            format!(
                "tile (0, 0): {} rows x {} cols used, {} weights (1x1 per character)",
                d * 18,
                d * 3,
                d * 18 * 3
            )
        );
        // Row r of copy r / 18 is programmed in that copy's 3 columns only.
        for (r, line) in lines[1..].iter().enumerate() {
            let expected: String = (0..d * 3)
                .map(|c| if c / 3 == r / 18 { '#' } else { '.' })
                .collect();
            assert_eq!(*line, expected, "row {r}");
        }
    }
}
