//! The benchmark uses library items; its own items are never reported.

/// Nothing calls this either.
pub fn bench_only() -> usize {
    lib::BENCH_LIMIT
}

fn main() {}
