//! Seeded violation: an `unsafe` block outside crates/netpoll.

/// Reads through a raw pointer — not allowed in this crate.
fn peek(ptr: *const u8) -> u8 {
    unsafe { *ptr }
}
