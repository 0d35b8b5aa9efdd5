//! Seeded violation: a stub macro left in non-test code.
#![forbid(unsafe_code)]

/// Never finished.
fn later() {
    todo!("finish the fixture");
}

#[cfg(test)]
mod tests {
    /// Allowed here: the rule skips `#[cfg(test)]` spans, so this one
    /// must NOT be reported.
    #[test]
    fn in_test_code_the_macro_is_fine() {
        if false {
            unimplemented!();
        }
    }
}
