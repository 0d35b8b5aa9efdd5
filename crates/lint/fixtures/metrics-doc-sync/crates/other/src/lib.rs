//! Seeded violation: metric drift in both directions — this name is
//! registered but undocumented, and the doc table promises another.
#![forbid(unsafe_code)]

/// The counter name this fixture registers.
const COUNTER: &str = "pim_fixture_registered_total";
