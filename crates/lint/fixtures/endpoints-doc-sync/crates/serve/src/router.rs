//! Seeded violation: endpoint drift in both directions — this path is
//! routed but undocumented, and the doc table promises another.

/// The path this fixture serves.
const ROUTE: &str = "/v1/fixture-registered";
