//! Repo traversal and rule orchestration — the engine behind
//! `vwsdk check`.
//!
//! The walker visits every `.rs` file in the workspace (skipping
//! `target/`, `.git/` and the lint crate's own seeded-violation
//! `fixtures/`), classifies each file's [`FileRole`] from its path,
//! runs the file-local rules, and accumulates the evidence the
//! repo-level rules compare: metric and route names against the two
//! documentation tables, and each library's public items against the
//! identifiers every other file uses. It also counts each crate's
//! non-test lines.

use crate::rules::{self, FileRole, NameSites, Violation};
use crate::scan;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

/// Path (from the repo root) of the crate allowed to contain `unsafe`.
const UNSAFE_CRATE: &str = "crates/netpoll";
/// Stand-ins for external crates: they count as lines and as users, but
/// their public items mirror an outside API and are never reported.
const SHIMS_DIR: &str = "crates/shims/";
/// Path of the router whose endpoints the doc-sync rule reads.
const ROUTER_FILE: &str = "crates/serve/src/router.rs";
/// Doc table the metric names are checked against.
const METRICS_DOC: &str = "docs/OBSERVABILITY.md";
/// Doc table the endpoints are checked against.
const ENDPOINTS_DOC: &str = "docs/HTTP_API.md";
/// The lint's own rule fixtures: intentionally violating sources that
/// must never be scanned as part of the repo.
const FIXTURES_DIR: &str = "crates/lint/fixtures";
/// The end-to-end benchmark's crate: its files use library items and
/// count as lines, but its own items are never reported.
const E2EBENCH: &str = "e2ebench";

/// The outcome of one `vwsdk check` run.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// How many `.rs` files the walker scanned.
    pub files_scanned: usize,
    /// Every finding, sorted by file, then line, then rule.
    pub violations: Vec<Violation>,
    /// Non-test lines per crate directory (`crates/arch`,
    /// `crates/shims/rand`, `e2ebench`, `src`): the non-blank lines of
    /// its `.rs` files outside `tests/`, `benches/` and `#[cfg(test)]`
    /// items.
    pub lines: BTreeMap<String, usize>,
}

impl CheckReport {
    /// Whether the run found nothing.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Non-test lines of the library and binary code: `crates/` and
    /// `src/`, without the benchmark.
    pub fn library_lines(&self) -> usize {
        self.lines
            .iter()
            .filter(|(krate, _)| krate.as_str() != E2EBENCH)
            .map(|(_, count)| count)
            .sum()
    }

    /// Non-test lines of every counted crate.
    pub fn total_lines(&self) -> usize {
        self.lines.values().sum()
    }
}

/// Finds the workspace root by walking up from `start` until a
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_repo_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(current) = dir {
        let manifest = current.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(current);
            }
        }
        dir = current.parent().map(Path::to_path_buf);
    }
    None
}

/// Runs every rule over the workspace rooted at `root`.
///
/// # Errors
///
/// Propagates I/O failures reading the tree. A missing doc file is a
/// *violation*, not an error — CI must fail loudly, not crash.
pub fn check_repo(root: &Path) -> io::Result<CheckReport> {
    let mut rs_files: Vec<PathBuf> = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    collect(root, root, &mut rs_files, &mut crate_dirs)?;
    rs_files.sort();

    let crate_roots: Vec<PathBuf> = crate_dirs
        .iter()
        .map(|dir| dir.join("src").join("lib.rs"))
        .collect();

    let mut report = CheckReport::default();
    let mut metric_sites = NameSites::new();
    let mut route_sites = NameSites::new();
    let mut items: Vec<(String, String, usize)> = Vec::new();
    let mut users: Vec<(String, BTreeSet<String>)> = Vec::new();

    for path in &rs_files {
        let label = relative_label(root, path);
        let source = std::fs::read_to_string(path)?;
        let scanned = scan::scan(&source);
        let role = FileRole {
            crate_root: crate_roots.iter().any(|r| r == path),
            unsafe_allowed: label.starts_with(UNSAFE_CRATE),
            test_file: is_test_path(&label),
        };
        report.files_scanned += 1;
        report
            .violations
            .extend(rules::check_file(&label, &source, &scanned, &role));
        rules::collect_metric_names(&label, &scanned, &role, &mut metric_sites);
        if label == ROUTER_FILE {
            rules::collect_route_paths(&label, &scanned, &mut route_sites);
        }
        if role.test_file {
            continue;
        }
        let top = label.split('/').next().unwrap_or_default();
        if (top == "crates" && !label.starts_with(SHIMS_DIR)) || top == "src" {
            for (name, line) in rules::pub_items(&source, &scanned) {
                items.push((name, label.clone(), line));
            }
        }
        if matches!(top, "crates" | "src" | "examples" | E2EBENCH) {
            users.push((label.clone(), rules::used_idents(&scanned)));
        }
        if let Some(krate) = counted_crate(&label) {
            *report.lines.entry(krate).or_default() += rules::non_test_lines(&source, &scanned);
        }
    }
    report
        .violations
        .extend(rules::check_unused_pub(items, &users));

    report.violations.extend(doc_sync(
        root,
        METRICS_DOC,
        rules::METRICS_DOC_SYNC,
        "metric",
        rules::doc_metric_names,
        &metric_sites,
    ));
    report.violations.extend(doc_sync(
        root,
        ENDPOINTS_DOC,
        rules::ENDPOINTS_DOC_SYNC,
        "endpoint",
        rules::doc_endpoint_paths,
        &route_sites,
    ));

    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

fn doc_sync(
    root: &Path,
    doc_label: &str,
    rule: &'static str,
    what: &str,
    parse: fn(&str) -> NameSites,
    code_sites: &NameSites,
) -> Vec<Violation> {
    match std::fs::read_to_string(root.join(doc_label)) {
        Ok(doc) => rules::check_doc_sync(rule, what, doc_label, &parse(&doc), code_sites),
        Err(err) => vec![Violation {
            rule,
            file: doc_label.to_string(),
            line: 1,
            message: format!("cannot read {doc_label}: {err}"),
        }],
    }
}

/// Recursively gathers `.rs` files and crate directories (those
/// holding a `Cargo.toml`), skipping build output, VCS internals and
/// the lint fixtures.
fn collect(
    root: &Path,
    dir: &Path,
    rs_files: &mut Vec<PathBuf>,
    crate_dirs: &mut Vec<PathBuf>,
) -> io::Result<()> {
    if dir.join("Cargo.toml").is_file() {
        crate_dirs.push(dir.to_path_buf());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            if relative_label(root, &path) == FIXTURES_DIR {
                continue;
            }
            collect(root, &path, rs_files, crate_dirs)?;
        } else if name.ends_with(".rs") {
            rs_files.push(path);
        }
    }
    Ok(())
}

fn relative_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// The crate directory whose line count a file adds to: `crates/<name>`
/// (`crates/shims/<name>` for a shim), `src` or `e2ebench`; `None` for
/// files outside those trees.
fn counted_crate(label: &str) -> Option<String> {
    let parts: Vec<&str> = label.split('/').collect();
    let depth = match parts.as_slice() {
        ["crates", "shims", ..] => 3,
        ["crates", ..] => 2,
        ["src" | E2EBENCH, ..] => 1,
        _ => return None,
    };
    (parts.len() > depth).then(|| parts[..depth].join("/"))
}

/// Whether a repo-relative path is test/bench code by location.
fn is_test_path(label: &str) -> bool {
    let mut components: Vec<&str> = label.split('/').collect();
    components.pop(); // directory components only
    components.iter().any(|c| *c == "tests" || *c == "benches")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_paths_are_recognized_by_directory() {
        assert!(is_test_path("crates/sim/tests/batch_equivalence.rs"));
        assert!(is_test_path("crates/bench/benches/batch_sim.rs"));
        assert!(is_test_path("tests/engine_equivalence.rs"));
        assert!(!is_test_path("crates/sim/src/tests.rs"));
        assert!(!is_test_path("src/cli.rs"));
    }

    #[test]
    fn lines_count_toward_their_crate_directory() {
        assert_eq!(
            counted_crate("crates/sim/src/lib.rs").as_deref(),
            Some("crates/sim")
        );
        assert_eq!(
            counted_crate("crates/shims/rand/src/lib.rs").as_deref(),
            Some("crates/shims/rand")
        );
        assert_eq!(counted_crate("src/bin/vwsdk.rs").as_deref(), Some("src"));
        assert_eq!(
            counted_crate("e2ebench/src/main.rs").as_deref(),
            Some("e2ebench")
        );
        assert_eq!(counted_crate("examples/quickstart.rs"), None);
        assert_eq!(counted_crate("build.rs"), None);
    }

    #[test]
    fn the_workspace_root_is_found_from_a_nested_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_repo_root(here).expect("workspace root");
        assert!(root.join("Cargo.toml").is_file());
        assert!(root.join(METRICS_DOC).is_file());
    }
}
