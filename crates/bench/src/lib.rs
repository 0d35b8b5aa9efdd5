//! Experiment harness regenerating every table and figure of the VW-SDK
//! paper, plus extension experiments and the telemetry-overhead gate.
//!
//! Each module corresponds to one artifact of the paper's evaluation and
//! exposes a `report()` function returning the printable result; the
//! binaries in `src/bin/` are thin wrappers. docs/EXPERIMENTS.md is the
//! index recording the paper-vs-measured comparison for each. The
//! exception is [`overhead`], the telemetry-overhead gate that the
//! `overhead` binary runs; all other timing lives in the end-to-end
//! benchmark (`e2ebench/`).
//!
//! | module | paper artifact |
//! |---|---|
//! | [`table1`] | Table I (per-layer windows and total cycles) |
//! | [`fig4`] | Fig. 4 (computable channels per array size) |
//! | [`fig5`] | Fig. 5(a) worked example + Fig. 5(b) window sweep |
//! | [`fig7`] | Fig. 7(a) tiled ICs, Fig. 7(b) tiled OCs |
//! | [`fig8`] | Fig. 8(a) per-layer speedups, Fig. 8(b) array sweep |
//! | [`fig9`] | Fig. 9(a)/(b) array utilization |
//! | [`ablation`] | A1–A3: search-space ablations and pruning |
//! | [`energy`] | A5: energy/conversion accounting |
//! | [`chip`] | A7: chip-scale pipelined deployment |
//! | [`sweep`] | A4: extra networks × array sizes (via the parallel, memoized `PlanningEngine`) |
//! | [`overhead`] | the telemetry-overhead gate (enabled vs stubbed registry on a cached sweep, < 2 %) |
//!
//! A6, the device-precision sweep, is retired: no simulation executed
//! its cycle counts. Restore it from git commit `2ddb935`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ablation;
pub mod chip;
pub mod energy;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod overhead;
pub mod sweep;
pub mod table1;

use pim_arch::PimArray;

/// The paper's headline array: 512×512.
pub fn array512() -> PimArray {
    PimArray::new(512, 512).expect("positive dimensions")
}

/// The Fig. 5 array: 512 rows × 256 columns.
pub fn array512x256() -> PimArray {
    PimArray::new(512, 256).expect("positive dimensions")
}
