//! Clean fixture: every would-be violation below carries a
//! `// lint:allow(<rule>)` suppression, so the tree must scan clean.
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

/// Not implemented, and saying so is explicitly allowed here.
fn later() {
    // lint:allow(banned-macro) — fixture exercising suppression
    todo!("suppressed");
}

/// A strong ordering suppressed on the same line.
fn flip(flag: &AtomicBool) {
    flag.store(true, Ordering::SeqCst); // lint:allow(ordering-comment)
}
