//! Every rule in the catalog must fire on its seeded fixture — a
//! miniature repo tree under `fixtures/<rule-name>/` holding exactly
//! one violation of that rule (the doc-sync fixtures seed drift in
//! both directions, so they yield one finding per direction). A final
//! fixture proves `// lint:allow(<rule>)` suppression scans clean.
//!
//! The fixtures directory is excluded from the real repo walk, so the
//! intentionally violating sources here can never fail the
//! workspace's own `vwsdk check` gate.

use std::path::PathBuf;

fn check_fixture(name: &str) -> pim_lint::CheckReport {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    pim_lint::check_repo(&dir).expect("fixture tree is readable")
}

/// Asserts the fixture yields exactly `expected` findings, every one
/// of them from `rule`, and returns them for site-level checks.
fn expect_only(name: &str, rule: &str, expected: usize) -> Vec<pim_lint::Violation> {
    let report = check_fixture(name);
    let listing: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert_eq!(
        report.violations.len(),
        expected,
        "fixture `{name}`: expected {expected} finding(s), got:\n{}",
        listing.join("\n")
    );
    for violation in &report.violations {
        assert_eq!(
            violation.rule, rule,
            "fixture `{name}` fired the wrong rule: {violation}"
        );
    }
    report.violations
}

#[test]
fn unsafe_outside_netpoll_fires_on_its_fixture() {
    let violations = expect_only("unsafe-outside-netpoll", "unsafe-outside-netpoll", 1);
    assert_eq!(violations[0].file, "crates/other/src/worker.rs");
    assert_eq!(violations[0].line, 5);
}

#[test]
fn safety_comment_fires_on_its_fixture() {
    let violations = expect_only("safety-comment", "safety-comment", 1);
    assert_eq!(violations[0].file, "crates/netpoll/src/lib.rs");
    assert_eq!(violations[0].line, 6);
}

#[test]
fn forbid_unsafe_code_fires_on_its_fixture() {
    let violations = expect_only("forbid-unsafe-code", "forbid-unsafe-code", 1);
    assert_eq!(violations[0].file, "crates/other/src/lib.rs");
    assert_eq!(violations[0].line, 1);
}

#[test]
fn ordering_comment_fires_on_its_fixture() {
    let violations = expect_only("ordering-comment", "ordering-comment", 1);
    assert_eq!(violations[0].file, "crates/other/src/lib.rs");
    assert_eq!(violations[0].line, 8);
}

#[test]
fn banned_macro_fires_on_its_fixture_but_not_in_its_test_module() {
    let violations = expect_only("banned-macro", "banned-macro", 1);
    assert_eq!(violations[0].file, "crates/other/src/lib.rs");
    assert_eq!(
        violations[0].line, 6,
        "the cfg(test) unimplemented! must not fire"
    );
}

#[test]
fn metrics_doc_sync_fires_in_both_directions() {
    let violations = expect_only("metrics-doc-sync", "metrics-doc-sync", 2);
    let messages: Vec<&str> = violations.iter().map(|v| v.message.as_str()).collect();
    assert!(
        messages
            .iter()
            .any(|m| m.contains("pim_fixture_registered_total") && m.contains("not documented")),
        "missing code→doc direction: {messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("pim_fixture_documented_total") && m.contains("never appears")),
        "missing doc→code direction: {messages:?}"
    );
}

#[test]
fn endpoints_doc_sync_fires_in_both_directions() {
    let violations = expect_only("endpoints-doc-sync", "endpoints-doc-sync", 2);
    let messages: Vec<&str> = violations.iter().map(|v| v.message.as_str()).collect();
    assert!(
        messages
            .iter()
            .any(|m| m.contains("/v1/fixture-registered") && m.contains("not documented")),
        "missing code→doc direction: {messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("/v1/fixture-documented") && m.contains("never appears")),
        "missing doc→code direction: {messages:?}"
    );
}

#[test]
fn unused_pub_fires_only_on_the_item_no_other_file_uses() {
    // `used_by_app` is cleared by the app crate, `BENCH_LIMIT` by the
    // benchmark and `EXAMPLE_NAME` by an example; `seam` is suppressed;
    // the shim's and the benchmark's own items are never candidates.
    // `only_tested` is named only by a test file, a `#[cfg(test)]`
    // module, a comment, a string and a `pub use`.
    let violations = expect_only("unused-pub", "unused-pub", 1);
    assert_eq!(violations[0].file, "crates/lib/src/lib.rs");
    assert_eq!(violations[0].line, 11);
    assert!(violations[0].message.contains("`only_tested`"));
}

#[test]
fn non_test_lines_are_counted_per_crate() {
    // Blank lines, the `#[cfg(test)]` modules and `tests/` and
    // `examples/` files do not count.
    let report = check_fixture("unused-pub");
    let lines: Vec<(&str, usize)> = report
        .lines
        .iter()
        .map(|(krate, &count)| (krate.as_str(), count))
        .collect();
    assert_eq!(
        lines,
        [
            ("crates/app", 8),
            ("crates/lib", 24),
            ("crates/shims/fake", 5),
            ("e2ebench", 6)
        ]
    );
    assert_eq!((report.library_lines(), report.total_lines()), (37, 43));
}

#[test]
fn lint_allow_suppressions_scan_clean() {
    let report = check_fixture("suppression");
    let listing: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(
        report.is_clean(),
        "suppressed fixture still fired:\n{}",
        listing.join("\n")
    );
    assert!(report.files_scanned > 0);
}

#[test]
fn every_rule_in_the_catalog_has_a_fixture_directory() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    for rule in pim_lint::RULES {
        assert!(
            fixtures.join(rule.name).is_dir(),
            "rule `{}` has no fixture under crates/lint/fixtures/",
            rule.name
        );
    }
}
