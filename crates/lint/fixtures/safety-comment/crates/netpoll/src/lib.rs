//! Seeded violation: `unsafe` in the netpoll crate without a
//! `// SAFETY:` justification.

/// Writes through a raw pointer with no safety argument.
fn poke(ptr: *mut u8) {
    unsafe {
        *ptr = 0;
    }
}
