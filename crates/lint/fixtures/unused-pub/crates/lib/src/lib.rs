//! Seeded violation: `only_tested` is public, but only a test, a
//! comment, a string and a `pub use` name it.
#![forbid(unsafe_code)]

/// Called by the app crate: a real use.
pub fn used_by_app() -> u32 {
    1
}

/// The one finding.
pub fn only_tested() -> u32 {
    2
}

/// Kept public for an integration test.
// lint:allow(unused-pub) seam: tests/seam.rs calls it directly
pub fn seam() -> u32 {
    3
}

/// Read by the benchmark.
pub const BENCH_LIMIT: usize = 4;

/// Read by an example.
pub static EXAMPLE_NAME: &str = "demo";

/// Visible to this crate only, so never reported.
pub(crate) fn internal() -> u32 {
    used_by_app() + only_tested()
}

#[cfg(test)]
mod tests {
    /// Test code is never reported.
    pub fn helper() -> u32 {
        super::internal()
    }
}
