//! A stand-in for an external crate: its API mirrors the outside one,
//! so its unused items are never reported.
#![forbid(unsafe_code)]

/// Nothing calls this.
pub fn shim_only() {}
