//! Per-cycle energy model.
//!
//! The paper's argument that fewer computing cycles mean lower energy rests
//! on Xia et al., DAC 2016 (ref. \[3\]): analog↔digital conversions account
//! for **more than 98 %** of RRAM-PIM energy. We model each computing cycle
//! as
//!
//! ```text
//! E_cycle = rows·E_dac + cols·E_adc + cells·E_cell + cols·E_digital
//! ```
//!
//! with defaults chosen so the conversion share lands in the >98 % regime.
//! Absolute joules are *synthetic* (we have no silicon); what the
//! experiments use are ratios between mappings, which depend only on cycle
//! counts and active row/column counts.

use crate::device::{AdcSpec, DacSpec};

/// Energy cost constants, in picojoules per event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy of one ADC conversion (pJ).
    pub adc_pj: f64,
    /// Energy of one DAC conversion / row drive (pJ).
    pub dac_pj: f64,
    /// Energy of one cell read during an MVM (pJ).
    pub cell_pj: f64,
    /// Energy of digital accumulation per column result (pJ).
    pub digital_pj: f64,
    /// ADC configuration (affects conversion counts).
    pub adc: AdcSpec,
    /// DAC configuration (affects drive counts for multi-bit inputs).
    pub dac: DacSpec,
}

impl EnergyModel {
    /// ISAAC-class RRAM defaults: 2 pJ/ADC conversion, 0.15 pJ/DAC drive,
    /// 0.05 fJ/cell read, 0.01 pJ digital accumulation.
    ///
    /// With a 512×512 array fully active, conversions contribute ≈ 98.4 %
    /// of cycle energy — matching the ">98 %" claim of paper ref. \[3\].
    pub fn isaac_like() -> Self {
        Self {
            adc_pj: 2.0,
            dac_pj: 0.15,
            cell_pj: 0.00005,
            digital_pj: 0.01,
            adc: AdcSpec::isaac_like(),
            dac: DacSpec::bit_serial(),
        }
    }

    /// Energy of one computing cycle with the given numbers of active rows,
    /// active columns and programmed (used) cells, in picojoules.
    pub fn cycle_energy_pj(
        &self,
        active_rows: usize,
        active_cols: usize,
        used_cells: usize,
    ) -> f64 {
        let conversions = self.conversion_energy_pj(active_rows, active_cols);
        conversions + used_cells as f64 * self.cell_pj + active_cols as f64 * self.digital_pj
    }

    /// The conversion-only share of one cycle (pJ).
    fn conversion_energy_pj(&self, active_rows: usize, active_cols: usize) -> f64 {
        active_cols as f64 * self.adc_pj + active_rows as f64 * self.dac_pj
    }

    /// Fraction of cycle energy spent on conversions, in `[0, 1]`.
    pub fn conversion_fraction(
        &self,
        active_rows: usize,
        active_cols: usize,
        used_cells: usize,
    ) -> f64 {
        let total = self.cycle_energy_pj(active_rows, active_cols, used_cells);
        if total == 0.0 {
            0.0
        } else {
            self.conversion_energy_pj(active_rows, active_cols) / total
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::isaac_like()
    }
}

/// Accumulated energy of a full layer execution, split by component.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Total ADC energy (pJ).
    pub adc_pj: f64,
    /// Total DAC energy (pJ).
    pub dac_pj: f64,
    /// Total cell-read energy (pJ).
    pub cell_pj: f64,
    /// Total digital accumulation energy (pJ).
    pub digital_pj: f64,
}

impl EnergyBreakdown {
    /// Creates an empty (all-zero) breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one computing cycle's worth of energy.
    pub fn add_cycle(
        &mut self,
        model: &EnergyModel,
        active_rows: usize,
        active_cols: usize,
        used_cells: usize,
    ) {
        self.adc_pj += active_cols as f64 * model.adc_pj;
        self.dac_pj += active_rows as f64 * model.dac_pj;
        self.cell_pj += used_cells as f64 * model.cell_pj;
        self.digital_pj += active_cols as f64 * model.digital_pj;
    }

    /// Total energy across all components (pJ).
    pub fn total_pj(&self) -> f64 {
        self.adc_pj + self.dac_pj + self.cell_pj + self.digital_pj
    }

    /// Conversion (ADC+DAC) share of the total, in `[0, 1]`.
    pub fn conversion_fraction(&self) -> f64 {
        let total = self.total_pj();
        if total == 0.0 {
            0.0
        } else {
            (self.adc_pj + self.dac_pj) / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_put_conversions_above_98_percent() {
        let m = EnergyModel::isaac_like();
        let f = m.conversion_fraction(512, 512, 512 * 512);
        assert!(f > 0.98, "conversion fraction was {f}");
    }

    #[test]
    fn cycle_energy_scales_with_active_columns() {
        let m = EnergyModel::isaac_like();
        let half = m.cycle_energy_pj(512, 256, 512 * 256);
        let full = m.cycle_energy_pj(512, 512, 512 * 512);
        assert!(full > half);
    }

    #[test]
    fn breakdown_accumulates_cycles() {
        let m = EnergyModel::isaac_like();
        let mut b = EnergyBreakdown::new();
        b.add_cycle(&m, 100, 200, 100 * 200);
        b.add_cycle(&m, 100, 200, 100 * 200);
        let direct = 2.0 * m.cycle_energy_pj(100, 200, 100 * 200);
        assert!((b.total_pj() - direct).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_has_zero_fraction() {
        assert_eq!(EnergyBreakdown::new().conversion_fraction(), 0.0);
        assert_eq!(EnergyBreakdown::new().total_pj(), 0.0);
    }

    #[test]
    fn conversion_energy_is_additive_in_rows_and_cols() {
        let m = EnergyModel::isaac_like();
        let a = m.conversion_energy_pj(10, 0);
        let b = m.conversion_energy_pj(0, 10);
        let both = m.conversion_energy_pj(10, 10);
        assert!((a + b - both).abs() < 1e-12);
    }
}
