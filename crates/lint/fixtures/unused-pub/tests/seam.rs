//! Integration tests are no users: their calls clear nothing.

#[test]
fn seam_and_only_tested() {
    assert_eq!(lib::seam() + lib::only_tested(), 5);
}
