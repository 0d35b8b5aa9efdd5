//! Processing-in-memory (PIM) crossbar architecture models.
//!
//! The VW-SDK paper evaluates weight-mapping algorithms against crossbar
//! arrays of several published sizes. This crate captures the hardware side
//! of that evaluation:
//!
//! * [`PimArray`] — array geometry (`rows × cols`) with the size presets the
//!   paper cites: 128×128 and 256×256 (Zhu et al., ICCAD'18 \[5\]), 512×512
//!   (Zhang et al., TCAD'20 \[2\]) and 512×256 (Kang et al., JSSC'18 \[8\]);
//! * [`device`] — data-converter specifications (ADC/DAC resolution);
//! * [`energy`] — a per-cycle energy model in which analog↔digital
//!   conversions dominate, following Xia et al., DAC'16 \[3\] (">98 % of the
//!   total PIM energy consumption");
//! * [`latency`] — cycle-time model turning computing-cycle counts into
//!   wall-clock estimates.
//!
//! # Example
//!
//! ```
//! use pim_arch::{presets, PimArray};
//!
//! let array = PimArray::new(512, 512)?;
//! assert_eq!(array.cells(), 262_144);
//! assert!(presets::fig8b_sweep().iter().any(|p| p.array == array));
//! # Ok::<(), pim_arch::ArchError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod device;
pub mod energy;
pub mod latency;
pub mod presets;

use std::error::Error;
use std::fmt;

/// Error raised for invalid architecture descriptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchError {
    message: String,
}

impl ArchError {
    /// Creates an architecture error with the given description.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid architecture: {}", self.message)
    }
}

impl Error for ArchError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ArchError>;

/// Geometry of one PIM crossbar array: `rows × cols` memory cells.
///
/// Rows carry input activations (driven by DACs), columns accumulate
/// currents into ADCs; one analog matrix-vector multiply over the whole
/// array is one *computing cycle* in the paper's terminology. The paper
/// writes the dimensions as `2X` (rows) and `2Y` (columns).
///
/// # Example
///
/// ```
/// use pim_arch::PimArray;
///
/// let a = PimArray::new(512, 256)?;
/// assert_eq!((a.rows(), a.cols()), (512, 256));
/// assert_eq!(a.to_string(), "512x256");
/// # Ok::<(), pim_arch::ArchError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PimArray {
    rows: usize,
    cols: usize,
}

impl PimArray {
    /// Creates an array with the given number of rows and columns.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError`] if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(ArchError::new(format!(
                "array dimensions must be positive, got {rows}x{cols}"
            )));
        }
        Ok(Self { rows, cols })
    }

    /// Number of rows (input ports / word lines); the paper's `2X`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (output ports / bit lines); the paper's `2Y`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of memory cells.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }
}

impl fmt::Display for PimArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_dimensions() {
        assert!(PimArray::new(0, 128).is_err());
        assert!(PimArray::new(128, 0).is_err());
        assert!(PimArray::new(1, 1).is_ok());
    }

    #[test]
    fn accessors_and_cells() {
        let a = PimArray::new(512, 256).unwrap();
        assert_eq!(a.rows(), 512);
        assert_eq!(a.cols(), 256);
        assert_eq!(a.cells(), 131_072);
    }

    #[test]
    fn display_matches_paper_notation() {
        let a = PimArray::new(128, 256).unwrap();
        assert_eq!(a.to_string(), "128x256");
    }

    #[test]
    fn error_messages_are_lowercase_and_specific() {
        let e = PimArray::new(0, 0).unwrap_err();
        let text = e.to_string();
        assert!(text.contains("0x0"));
        assert!(text.starts_with("invalid architecture"));
    }
}
