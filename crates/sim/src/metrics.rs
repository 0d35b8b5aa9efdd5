//! Execution statistics gathered by the engine.

use pim_arch::energy::{EnergyBreakdown, EnergyModel};

/// Counters accumulated over one simulated layer execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunStats {
    /// Analog matrix-vector multiplies performed (= computing cycles).
    pub computing_cycles: u64,
    /// Multiply-accumulate operations across all programmed cells.
    pub macs: u64,
    /// Column reads — one ADC conversion each (per paper ref. \[3\] these
    /// dominate PIM energy).
    pub adc_conversions: u64,
    /// Row drives — one DAC conversion each.
    pub dac_conversions: u64,
    /// Crossbar reprogrammings (one per (AR, AC) tile pair).
    pub array_programmings: u64,
    /// Energy accumulated under the configured [`EnergyModel`].
    pub energy: EnergyBreakdown,
}

impl RunStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one computing cycle with the given activity.
    pub fn record_cycle(
        &mut self,
        model: &EnergyModel,
        active_rows: usize,
        active_cols: usize,
        used_cells: usize,
    ) {
        self.computing_cycles += 1;
        self.macs += used_cells as u64;
        self.adc_conversions += active_cols as u64;
        self.dac_conversions += active_rows as u64;
        self.energy
            .add_cycle(model, active_rows, active_cols, used_cells);
    }

    /// Records one array reprogramming.
    pub fn record_programming(&mut self) {
        self.array_programmings += 1;
    }

    /// Total energy in picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.energy.total_pj()
    }

    /// Fraction of energy spent in ADC/DAC conversions.
    pub fn conversion_fraction(&self) -> f64 {
        self.energy.conversion_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_cycle_accumulates_all_counters() {
        let model = EnergyModel::isaac_like();
        let mut s = RunStats::new();
        s.record_cycle(&model, 100, 50, 900);
        s.record_cycle(&model, 100, 50, 900);
        assert_eq!(s.computing_cycles, 2);
        assert_eq!(s.macs, 1800);
        assert_eq!(s.adc_conversions, 100);
        assert_eq!(s.dac_conversions, 200);
        assert!(s.energy_pj() > 0.0);
    }

    #[test]
    fn conversion_fraction_tracks_energy_model() {
        let model = EnergyModel::isaac_like();
        let mut s = RunStats::new();
        s.record_cycle(&model, 512, 512, 512 * 512);
        assert!(s.conversion_fraction() > 0.98);
    }

    #[test]
    fn programmings_counted_separately() {
        let mut s = RunStats::new();
        s.record_programming();
        s.record_programming();
        assert_eq!(s.array_programmings, 2);
        assert_eq!(s.computing_cycles, 0);
    }
}
