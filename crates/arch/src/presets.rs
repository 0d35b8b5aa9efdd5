//! Published crossbar configurations used by the paper's evaluation.
//!
//! Fig. 4 and Fig. 8(b) of the paper sweep over the array sizes proposed in
//! the PIM literature it cites. Each preset carries its provenance so
//! experiment output can label series exactly as the paper does.

use crate::{PimArray, Result};

/// A published array size together with its literature source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayPreset {
    /// The array geometry.
    pub array: PimArray,
    /// Short citation label as used in the paper's reference list.
    pub source: &'static str,
}

impl ArrayPreset {
    const fn new(array: PimArray, source: &'static str) -> Self {
        Self { array, source }
    }
}

fn array(rows: usize, cols: usize) -> PimArray {
    // Preset dimensions are compile-time constants and always positive.
    PimArray::new(rows, cols).expect("preset dimensions are positive")
}

/// 128×128 RRAM crossbar (Zhu et al., ICCAD 2018 — paper ref. \[5\]).
fn p128x128() -> ArrayPreset {
    ArrayPreset::new(array(128, 128), "Zhu et al., ICCAD'18 [5]")
}

/// 256×256 RRAM crossbar (Zhu et al., ICCAD 2018 — paper ref. \[5\]).
fn p256x256() -> ArrayPreset {
    ArrayPreset::new(array(256, 256), "Zhu et al., ICCAD'18 [5]")
}

/// 512×512 RRAM crossbar (Zhang et al., IEEE TCAD 2020 — paper ref. \[2\]).
///
/// This is the headline configuration of the paper's Table I.
pub fn p512x512() -> ArrayPreset {
    ArrayPreset::new(array(512, 512), "Zhang et al., TCAD'20 [2]")
}

/// 512×256 6T-SRAM in-memory processor (Kang et al., JSSC 2018 — paper
/// ref. \[8\]); also the array used by the Fig. 5 worked example.
fn p512x256() -> ArrayPreset {
    ArrayPreset::new(array(512, 256), "Kang et al., JSSC'18 [8]")
}

/// 128×256 array — included in the paper's Fig. 8(b) sweep.
fn p128x256() -> ArrayPreset {
    ArrayPreset::new(array(128, 256), "Fig. 8(b) sweep point")
}

/// The five array sizes of the paper's Fig. 8(b), in presentation order:
/// 128×128, 128×256, 256×256, 512×256, 512×512.
pub fn fig8b_sweep() -> Vec<ArrayPreset> {
    vec![p128x128(), p128x256(), p256x256(), p512x256(), p512x512()]
}

/// The four published sizes shown in Fig. 4 (no 128×256).
pub fn fig4_sizes() -> Vec<ArrayPreset> {
    vec![p128x128(), p256x256(), p512x512(), p512x256()]
}

/// Parses an `"RxC"` string (e.g. `"512x256"`) into an array geometry.
///
/// Handy for experiment binaries that accept array sizes on the command
/// line.
///
/// # Errors
///
/// Returns [`crate::ArchError`] if the string is not two positive integers
/// separated by `x`.
pub fn parse_array(text: &str) -> Result<PimArray> {
    let mut it = text.trim().split(['x', 'X']);
    let rows = it
        .next()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .ok_or_else(|| crate::ArchError::new(format!("cannot parse rows in {text:?}")))?;
    let cols = it
        .next()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .ok_or_else(|| crate::ArchError::new(format!("cannot parse cols in {text:?}")))?;
    if it.next().is_some() {
        return Err(crate::ArchError::new(format!("expected RxC, got {text:?}")));
    }
    PimArray::new(rows, cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_preset_is_512x512() {
        let p = p512x512();
        assert_eq!(p.array.rows(), 512);
        assert_eq!(p.array.cols(), 512);
        assert!(p.source.contains("[2]"));
    }

    #[test]
    fn fig8b_sweep_matches_paper_order() {
        let labels: Vec<String> = fig8b_sweep().iter().map(|p| p.array.to_string()).collect();
        assert_eq!(
            labels,
            vec!["128x128", "128x256", "256x256", "512x256", "512x512"]
        );
    }

    #[test]
    fn fig4_has_four_published_sizes() {
        assert_eq!(fig4_sizes().len(), 4);
    }

    #[test]
    fn parse_round_trips_display() {
        for preset in fig8b_sweep() {
            let text = preset.array.to_string();
            assert_eq!(parse_array(&text).unwrap(), preset.array);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_array("512").is_err());
        assert!(parse_array("ax b").is_err());
        assert!(parse_array("512x512x512").is_err());
        assert!(parse_array("0x512").is_err());
    }

    #[test]
    fn parse_accepts_uppercase_and_spaces() {
        assert_eq!(
            parse_array(" 128X256 ").unwrap(),
            PimArray::new(128, 256).unwrap()
        );
    }
}
