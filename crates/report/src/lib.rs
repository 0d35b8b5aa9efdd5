//! Plain-text experiment output — aligned tables and ASCII charts —
//! plus the workspace's [`json`] subsystem.
//!
//! The experiment binaries in `vw-sdk-bench` regenerate every table and
//! figure of the paper; this crate renders their data. Everything is
//! hand-rolled on purpose — the workspace's dependency policy (DESIGN.md
//! §6) avoids serialization frameworks, so the [`json`] module carries
//! its own parser and serializer, shared by the network-spec loader in
//! `pim-nets`, the `vw-sdk-serve` HTTP daemon and the `vwsdk` CLI.
//!
//! # Example
//!
//! ```
//! use pim_report::table::TextTable;
//!
//! let mut t = TextTable::new(&["layer", "cycles"]);
//! t.add_row(&["conv1", "6216"]);
//! let text = t.render();
//! assert!(text.contains("conv1"));
//! assert!(text.starts_with("layer"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chart;
pub mod json;
pub mod table;

/// Formats a float with the given number of decimals, trimming `-0.00`.
pub fn fmt_f64(value: f64, decimals: usize) -> String {
    let s = format!("{value:.decimals$}");
    if s.starts_with("-0.") && s[1..].parse::<f64>() == Ok(0.0) {
        s[1..].to_string()
    } else {
        s
    }
}

/// Formats a speedup ratio like the paper does (`4.67x`).
pub fn fmt_speedup(ratio: f64) -> String {
    format!("{}x", fmt_f64(ratio, 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_f64_trims_negative_zero() {
        assert_eq!(fmt_f64(-0.0001, 2), "0.00");
        assert_eq!(fmt_f64(-0.5, 2), "-0.50");
        assert_eq!(fmt_f64(1.005, 1), "1.0");
    }

    #[test]
    fn fmt_speedup_matches_paper_style() {
        assert_eq!(fmt_speedup(4.6673), "4.67x");
        assert_eq!(fmt_speedup(1.0), "1.00x");
    }
}
