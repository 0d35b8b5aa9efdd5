//! Cycle-time model.
//!
//! The paper reports *speedup* as a ratio of computing-cycle counts, which
//! implicitly assumes a constant time per cycle. This module makes that
//! assumption explicit and lets the extension experiments attach a concrete
//! cycle time (array read + conversion latency) to produce wall-clock
//! estimates.

/// Time cost of one computing cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Analog MVM settle-and-read time per cycle, in nanoseconds.
    pub array_read_ns: f64,
    /// Conversion (ADC scan) time per cycle, in nanoseconds.
    pub conversion_ns: f64,
}

impl LatencyModel {
    /// ISAAC-class default: 100 ns per crossbar read including conversions.
    pub fn isaac_like() -> Self {
        Self {
            array_read_ns: 30.0,
            conversion_ns: 70.0,
        }
    }

    /// Time of one computing cycle (ns).
    fn cycle_ns(&self) -> f64 {
        self.array_read_ns + self.conversion_ns
    }

    /// Wall-clock estimate for `cycles` computing cycles, in microseconds.
    pub fn total_us(&self, cycles: u64) -> f64 {
        self.cycle_ns() * cycles as f64 / 1_000.0
    }

    /// Throughput in cycles per second implied by the cycle time.
    pub fn cycles_per_second(&self) -> f64 {
        1e9 / self.cycle_ns()
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::isaac_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_time_is_sum_of_parts() {
        let m = LatencyModel::isaac_like();
        assert_eq!(m.cycle_ns(), 100.0);
    }

    #[test]
    fn total_scales_linearly() {
        let m = LatencyModel::isaac_like();
        assert_eq!(m.total_us(10_000), 1_000.0);
        assert_eq!(m.total_us(0), 0.0);
    }

    #[test]
    fn speedup_between_mappings_equals_cycle_ratio() {
        // Constant cycle time means latency ratio == cycle ratio, which is
        // exactly how the paper converts cycles into "computing speed".
        let m = LatencyModel::isaac_like();
        let im2col_cycles = 20_041u64; // ResNet-18 total (im2col)
        let vw_cycles = 4_294u64; // ResNet-18 total (VW-SDK)
        let ratio = m.total_us(im2col_cycles) / m.total_us(vw_cycles);
        assert!((ratio - im2col_cycles as f64 / vw_cycles as f64).abs() < 1e-12);
        assert!((ratio - 4.67).abs() < 0.01);
    }

    #[test]
    fn throughput_is_inverse_of_cycle_time() {
        let m = LatencyModel::isaac_like();
        assert!((m.cycles_per_second() - 1e7).abs() < 1e-3);
    }
}
