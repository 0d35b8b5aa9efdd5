//! Data-converter specifications.
//!
//! These types parameterize the energy model ([`crate::energy`]). The
//! paper itself reasons only in computing cycles; converter specifics are
//! the substrate we must supply to put a cost on those cycles. Defaults
//! follow the RRAM configurations common to the papers cited by VW-SDK
//! (ISAAC-class arrays: 8-bit ADCs, 1-bit DACs with bit-serial inputs).

use crate::{ArchError, Result};

/// Analog-to-digital converter at the foot of each column (or shared by a
/// group of columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdcSpec {
    /// Converter resolution in bits.
    pub bits: u8,
    /// Number of columns sharing one converter (≥ 1). Sharing multiplies
    /// the column-readout time but divides converter area/energy.
    pub columns_per_adc: usize,
}

impl AdcSpec {
    /// Creates an ADC spec.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError`] if `bits` is zero or `columns_per_adc` is zero.
    pub fn new(bits: u8, columns_per_adc: usize) -> Result<Self> {
        if bits == 0 {
            return Err(ArchError::new("ADC resolution must be >= 1 bit"));
        }
        if columns_per_adc == 0 {
            return Err(ArchError::new("columns_per_adc must be >= 1"));
        }
        Ok(Self {
            bits,
            columns_per_adc,
        })
    }

    /// The 8-bit per-column ADC typical of the cited RRAM accelerators.
    pub fn isaac_like() -> Self {
        Self {
            bits: 8,
            columns_per_adc: 1,
        }
    }

    /// Distinct output levels (`2^bits`).
    pub fn levels(&self) -> u64 {
        1u64 << self.bits.min(63)
    }
}

/// Digital-to-analog converter driving each row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DacSpec {
    /// Converter resolution in bits; 1 means bit-serial input streaming.
    pub bits: u8,
}

impl DacSpec {
    /// Creates a DAC spec.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError`] if `bits` is zero.
    pub fn new(bits: u8) -> Result<Self> {
        if bits == 0 {
            return Err(ArchError::new("DAC resolution must be >= 1 bit"));
        }
        Ok(Self { bits })
    }

    /// 1-bit (bit-serial) input driver, the common RRAM-accelerator choice.
    pub fn bit_serial() -> Self {
        Self { bits: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc_validation_and_levels() {
        assert!(AdcSpec::new(0, 1).is_err());
        assert!(AdcSpec::new(8, 0).is_err());
        let adc = AdcSpec::new(8, 1).unwrap();
        assert_eq!(adc.levels(), 256);
    }

    #[test]
    fn dac_validation() {
        assert!(DacSpec::new(0).is_err());
        assert_eq!(DacSpec::new(4).unwrap().bits, 4);
        assert_eq!(DacSpec::bit_serial().bits, 1);
    }
}
