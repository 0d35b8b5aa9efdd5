//! Seeded violation: a crate root with no `#![forbid(unsafe_code)]`.

/// Adds one.
fn bump(x: u32) -> u32 {
    x + 1
}
