//! Seeded violation: a SeqCst store with no `// ORDERING:` comment.
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

/// Flips the flag with an unjustified strong ordering.
fn flip(flag: &AtomicBool) {
    flag.store(true, Ordering::SeqCst);
}
