//! The lint rules behind `vwsdk check`.
//!
//! Two shapes of rule exist. **File-local** rules run over one scanned
//! source file at a time (`unsafe` placement, `// SAFETY:` and
//! `// ORDERING:` justifications, `#![forbid(unsafe_code)]` on crate
//! roots, banned debug macros). **Repo-level** rules compare what the
//! code registers against what the documentation tables promise
//! (metric names vs `docs/OBSERVABILITY.md`, router endpoints vs
//! `docs/HTTP_API.md`) — drift in *either* direction is a violation.
//!
//! One repo-level rule reads every file's identifiers instead: a
//! bare-`pub` item of a library crate that no other non-test file names
//! is dead public surface (`unused-pub`).
//!
//! File-local findings and `unused-pub` can be suppressed with a
//! `// lint:allow(<rule>)` comment on the offending line or in the
//! comment block directly above it. The doc-sync rules cannot be
//! suppressed — the fix is to update the code or the table.

use crate::scan::{Scan, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// One rule finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule that fired (a name from [`RULES`]).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line the finding anchors to.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A catalog entry describing one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    /// The rule's name, as used in `// lint:allow(<name>)`.
    pub name: &'static str,
    /// One-line summary, printed by `vwsdk check --list-rules`.
    pub summary: &'static str,
    /// Whether `// lint:allow(<name>)` can suppress it.
    pub suppressible: bool,
}

/// Every rule `vwsdk check` runs, in execution order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: UNSAFE_OUTSIDE,
        summary: "the `unsafe` keyword is allowed only in crates/netpoll, \
                  the workspace's single unsafe crate",
        suppressible: true,
    },
    RuleInfo {
        name: SAFETY_COMMENT,
        summary: "every `unsafe` block in crates/netpoll must carry a \
                  `// SAFETY:` justification on or directly above it",
        suppressible: true,
    },
    RuleInfo {
        name: FORBID_UNSAFE,
        summary: "every crate root except pim-netpoll must declare \
                  #![forbid(unsafe_code)]",
        suppressible: false,
    },
    RuleInfo {
        name: ORDERING_COMMENT,
        summary: "every atomic `Ordering::` use stronger than Relaxed in \
                  non-test code must carry an `// ORDERING:` justification",
        suppressible: true,
    },
    RuleInfo {
        name: BANNED_MACRO,
        summary: "no todo!/unimplemented!/dbg! in non-test code",
        suppressible: true,
    },
    RuleInfo {
        name: METRICS_DOC_SYNC,
        summary: "metric names registered in code and the table in \
                  docs/OBSERVABILITY.md must match exactly, both directions",
        suppressible: false,
    },
    RuleInfo {
        name: ENDPOINTS_DOC_SYNC,
        summary: "router endpoint paths and the route table in \
                  docs/HTTP_API.md must match exactly, both directions",
        suppressible: false,
    },
    RuleInfo {
        name: UNUSED_PUB,
        summary: "every bare-`pub` fn, const or static of a library crate \
                  must be named by another non-test file under crates/, \
                  src/, examples/ or e2ebench/",
        suppressible: true,
    },
];

/// Rule name: `unsafe` outside the netpoll crate.
const UNSAFE_OUTSIDE: &str = "unsafe-outside-netpoll";
/// Rule name: `unsafe` without a `// SAFETY:` comment.
const SAFETY_COMMENT: &str = "safety-comment";
/// Rule name: crate root missing `#![forbid(unsafe_code)]`.
const FORBID_UNSAFE: &str = "forbid-unsafe-code";
/// Rule name: non-Relaxed `Ordering::` without `// ORDERING:`.
const ORDERING_COMMENT: &str = "ordering-comment";
/// Rule name: `todo!`/`unimplemented!`/`dbg!` in non-test code.
const BANNED_MACRO: &str = "banned-macro";
/// Rule name: code metric names vs docs/OBSERVABILITY.md.
pub const METRICS_DOC_SYNC: &str = "metrics-doc-sync";
/// Rule name: router paths vs docs/HTTP_API.md.
pub const ENDPOINTS_DOC_SYNC: &str = "endpoints-doc-sync";
/// Rule name: a library's public item that no other non-test file names.
const UNUSED_PUB: &str = "unused-pub";

/// How a file participates in the rules — decided by the walker from
/// the file's path, passed in so rules stay path-agnostic.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileRole {
    /// The file is a crate root (`src/lib.rs` next to a `Cargo.toml`).
    pub crate_root: bool,
    /// The file belongs to the designated unsafe crate (netpoll).
    pub unsafe_allowed: bool,
    /// The whole file is test/bench code (`tests/`, `benches/`).
    pub test_file: bool,
}

const NON_RELAXED: &[&str] = &["Acquire", "Release", "AcqRel", "SeqCst"];
const BANNED_MACROS: &[&str] = &["todo", "unimplemented", "dbg"];

/// Runs every file-local rule over one scanned file.
pub fn check_file(label: &str, source: &str, scan: &Scan, role: &FileRole) -> Vec<Violation> {
    let mut out = Vec::new();
    let source_lines: Vec<&str> = source.lines().collect();
    let spans = test_spans(scan);
    let in_test = |line: usize| role.test_file || in_spans(&spans, line);

    // Rules 1 and 2: `unsafe` placement and SAFETY justification.
    for token in &scan.tokens {
        if token.kind != TokenKind::Ident("unsafe".to_string()) {
            continue;
        }
        if !role.unsafe_allowed {
            push_unless_allowed(
                &mut out,
                scan,
                &source_lines,
                UNSAFE_OUTSIDE,
                label,
                token.line,
                "`unsafe` is only allowed in crates/netpoll (the workspace's \
                 single unsafe crate); see docs/STATIC_ANALYSIS.md"
                    .to_string(),
            );
        } else if !has_marker(scan, &source_lines, token.line, "SAFETY:") {
            push_unless_allowed(
                &mut out,
                scan,
                &source_lines,
                SAFETY_COMMENT,
                label,
                token.line,
                "`unsafe` without a `// SAFETY:` justification on or directly \
                 above it"
                    .to_string(),
            );
        }
    }

    // Rule 3: crate roots must forbid unsafe code.
    if role.crate_root && !role.unsafe_allowed && !forbids_unsafe(scan) {
        out.push(Violation {
            rule: FORBID_UNSAFE,
            file: label.to_string(),
            line: 1,
            message: "crate root is missing #![forbid(unsafe_code)]".to_string(),
        });
    }

    // Rule 4: non-Relaxed atomic orderings need an ORDERING: comment.
    for window in scan.tokens.windows(4) {
        let [a, b, c, d] = window else { continue };
        let (TokenKind::Ident(head), TokenKind::Ident(variant)) = (&a.kind, &d.kind) else {
            continue;
        };
        if head != "Ordering"
            || b.kind != TokenKind::Punct(':')
            || c.kind != TokenKind::Punct(':')
            || !NON_RELAXED.contains(&variant.as_str())
        {
            continue;
        }
        if in_test(d.line) {
            continue;
        }
        if !has_marker(scan, &source_lines, d.line, "ORDERING:") {
            push_unless_allowed(
                &mut out,
                scan,
                &source_lines,
                ORDERING_COMMENT,
                label,
                d.line,
                format!(
                    "Ordering::{variant} without an `// ORDERING:` comment \
                     justifying why Relaxed is not enough"
                ),
            );
        }
    }

    // Rule 5: no debug/stub macros in non-test code.
    for (i, token) in scan.tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &token.kind else {
            continue;
        };
        if !BANNED_MACROS.contains(&name.as_str()) || in_test(token.line) {
            continue;
        }
        let bang = scan.tokens.get(i + 1).map(|t| &t.kind) == Some(&TokenKind::Punct('!'));
        let opens = matches!(
            scan.tokens.get(i + 2).map(|t| &t.kind),
            Some(TokenKind::Punct('(' | '[' | '{'))
        );
        if bang && opens {
            push_unless_allowed(
                &mut out,
                scan,
                &source_lines,
                BANNED_MACRO,
                label,
                token.line,
                format!("{name}! must not appear in non-test code"),
            );
        }
    }

    out
}

/// Records `violation` unless a `// lint:allow(<rule>)` comment covers
/// the line (same line, or the comment block directly above).
fn push_unless_allowed(
    out: &mut Vec<Violation>,
    scan: &Scan,
    source_lines: &[&str],
    rule: &'static str,
    file: &str,
    line: usize,
    message: String,
) {
    let marker = format!("lint:allow({rule})");
    if has_marker(scan, source_lines, line, &marker) {
        return;
    }
    out.push(Violation {
        rule,
        file: file.to_string(),
        line,
        message,
    });
}

/// Whether a comment containing `marker` covers `line`: on the line
/// itself, or in the contiguous run of comment-only / attribute-only /
/// blank lines directly above it.
fn has_marker(scan: &Scan, source_lines: &[&str], line: usize, marker: &str) -> bool {
    if scan.comment_on(line).contains(marker) {
        return true;
    }
    let mut current = line.saturating_sub(1);
    let mut budget = 50usize;
    while current >= 1 && budget > 0 {
        if scan.is_comment_only(current) {
            if scan.comment_on(current).contains(marker) {
                return true;
            }
        } else if !scan.is_blank(current) {
            // A code line ends the search — unless it is only an
            // attribute (`#[...]`), which justification comments
            // conventionally sit above.
            let trimmed = source_lines.get(current - 1).map_or("", |l| l.trim_start());
            if !(trimmed.starts_with("#[") || trimmed.starts_with("#![")) {
                return false;
            }
        }
        current -= 1;
        budget -= 1;
    }
    false
}

/// Whether the token stream carries `forbid(...)` naming `unsafe_code`
/// (the `#![forbid(unsafe_code)]` crate attribute; string occurrences
/// cannot match because strings are not identifier tokens).
fn forbids_unsafe(scan: &Scan) -> bool {
    let mut i = 0;
    while i < scan.tokens.len() {
        if scan.tokens[i].kind == TokenKind::Ident("forbid".to_string())
            && scan.tokens.get(i + 1).map(|t| &t.kind) == Some(&TokenKind::Punct('('))
        {
            let mut j = i + 2;
            while let Some(token) = scan.tokens.get(j) {
                match &token.kind {
                    TokenKind::Punct(')') => break,
                    TokenKind::Ident(name) if name == "unsafe_code" => return true,
                    _ => j += 1,
                }
            }
        }
        i += 1;
    }
    false
}

/// Line spans `(first, last)` covered by `#[cfg(test)]` items — the
/// attribute's line through the closing brace of the item it gates.
fn test_spans(scan: &Scan) -> Vec<(usize, usize)> {
    let tokens = &scan.tokens;
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 6 < tokens.len() {
        let is_cfg_test = tokens[i].kind == TokenKind::Punct('#')
            && tokens[i + 1].kind == TokenKind::Punct('[')
            && tokens[i + 2].kind == TokenKind::Ident("cfg".to_string())
            && tokens[i + 3].kind == TokenKind::Punct('(')
            && tokens[i + 4].kind == TokenKind::Ident("test".to_string())
            && tokens[i + 5].kind == TokenKind::Punct(')')
            && tokens[i + 6].kind == TokenKind::Punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        // Find the gated item's body: the first `{` afterwards (a `;`
        // first means an out-of-line item — nothing to span).
        let mut j = i + 7;
        let mut body = None;
        while let Some(token) = tokens.get(j) {
            match token.kind {
                TokenKind::Punct('{') => {
                    body = Some(j);
                    break;
                }
                TokenKind::Punct(';') => break,
                _ => j += 1,
            }
        }
        let Some(open) = body else {
            i += 7;
            continue;
        };
        let mut depth = 0usize;
        let mut end_line = tokens[open].line;
        let mut k = open;
        while let Some(token) = tokens.get(k) {
            match token.kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = token.line;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        spans.push((start_line, end_line));
        i = k.max(i + 7);
    }
    spans
}

/// A name → first definition site map, used by the doc-sync rules.
pub type NameSites = BTreeMap<String, (String, usize)>;

const METRIC_PREFIX: &str = "pim_";

/// Collects metric-name string literals (`pim_*`) from non-test code
/// into `sites`. A literal counts when its *entire* contents look like
/// a metric name — prefix `pim_`, then lowercase/digits/underscores.
pub fn collect_metric_names(label: &str, scan: &Scan, role: &FileRole, sites: &mut NameSites) {
    if role.test_file {
        return;
    }
    let spans = test_spans(scan);
    for token in &scan.tokens {
        let TokenKind::Str(text) = &token.kind else {
            continue;
        };
        if !is_metric_name(text) || in_spans(&spans, token.line) {
            continue;
        }
        sites
            .entry(text.clone())
            .or_insert_with(|| (label.to_string(), token.line));
    }
}

fn is_metric_name(text: &str) -> bool {
    text.strip_prefix(METRIC_PREFIX).is_some_and(|rest| {
        !rest.is_empty()
            && rest
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    })
}

/// Collects HTTP route paths (string literals shaped like `/…`) from
/// the router's non-test code into `sites`.
pub fn collect_route_paths(label: &str, scan: &Scan, sites: &mut NameSites) {
    let spans = test_spans(scan);
    for token in &scan.tokens {
        let TokenKind::Str(text) = &token.kind else {
            continue;
        };
        if !is_route_path(text) || in_spans(&spans, token.line) {
            continue;
        }
        sites
            .entry(text.clone())
            .or_insert_with(|| (label.to_string(), token.line));
    }
}

fn is_route_path(text: &str) -> bool {
    text.starts_with('/')
        && text.len() > 1
        && text.bytes().all(|b| {
            b.is_ascii_lowercase() || b.is_ascii_digit() || matches!(b, b'/' | b'_' | b'-' | b'.')
        })
}

/// Metric names promised by a markdown doc: every backticked `pim_*`
/// token in the **first cell** of a table row.
pub fn doc_metric_names(doc: &str) -> NameSites {
    let mut names = NameSites::new();
    for (index, line) in doc.lines().enumerate() {
        let trimmed = line.trim_start();
        if !trimmed.starts_with('|') {
            continue;
        }
        let Some(first_cell) = trimmed.trim_start_matches('|').split('|').next() else {
            continue;
        };
        for token in backticked(first_cell) {
            if is_metric_name(token) {
                names
                    .entry(token.to_string())
                    .or_insert_with(|| (String::new(), index + 1));
            }
        }
    }
    names
}

/// Endpoint paths promised by a markdown doc: rows whose first cell is
/// an HTTP method and whose second cell carries a backticked `/…` path.
pub fn doc_endpoint_paths(doc: &str) -> NameSites {
    let mut names = NameSites::new();
    for (index, line) in doc.lines().enumerate() {
        let trimmed = line.trim_start();
        if !trimmed.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = trimmed.trim_matches('|').split('|').collect();
        if cells.len() < 2 {
            continue;
        }
        let method = cells[0].trim().trim_matches('`');
        if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
            continue;
        }
        for token in backticked(cells[1]) {
            if is_route_path(token) {
                names
                    .entry(token.to_string())
                    .or_insert_with(|| (String::new(), index + 1));
            }
        }
    }
    names
}

/// Backtick-quoted tokens inside a markdown fragment.
fn backticked(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else { break };
        out.push(&after[..close]);
        rest = &after[close + 1..];
    }
    out
}

/// Compares code-registered names against a doc table, both directions.
pub fn check_doc_sync(
    rule: &'static str,
    what: &str,
    doc_label: &str,
    doc_names: &NameSites,
    code_names: &NameSites,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (name, (file, line)) in code_names {
        if !doc_names.contains_key(name) {
            out.push(Violation {
                rule,
                file: file.clone(),
                line: *line,
                message: format!("{what} `{name}` is not documented in {doc_label}"),
            });
        }
    }
    for (name, (_, line)) in doc_names {
        if !code_names.contains_key(name) {
            out.push(Violation {
                rule,
                file: doc_label.to_string(),
                line: *line,
                message: format!("{what} `{name}` is documented but never appears in code"),
            });
        }
    }
    out
}

/// Whether `line` falls inside one of `spans` (see [`test_spans`]).
fn in_spans(spans: &[(usize, usize)], line: usize) -> bool {
    spans.iter().any(|&(a, b)| a <= line && line <= b)
}

/// The bare-`pub` `fn`, `const` and `static` items of one file, as
/// `(name, line)`: outside `#[cfg(test)]` items and not suppressed by an
/// `unused-pub` allow comment. Restricted visibility
/// (`pub(crate)`, `pub(super)`) keeps an item inside its crate, so such
/// items are never listed.
pub fn pub_items(source: &str, scan: &Scan) -> Vec<(String, usize)> {
    let source_lines: Vec<&str> = source.lines().collect();
    let spans = test_spans(scan);
    let marker = format!("lint:allow({UNUSED_PUB})");
    let tokens = &scan.tokens;
    let ident = |i: usize| match tokens.get(i).map(|t| &t.kind) {
        Some(TokenKind::Ident(name)) => Some(name.as_str()),
        _ => None,
    };
    let mut out = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        if ident(i) != Some("pub") || in_spans(&spans, token.line) {
            continue;
        }
        // Step over the qualifiers between `pub` and the item keyword
        // (`pub const unsafe fn`).
        let mut j = i + 1;
        let name = loop {
            match ident(j) {
                Some("async" | "unsafe") => j += 1,
                Some("const") if matches!(ident(j + 1), Some("fn" | "async" | "unsafe")) => j += 1,
                Some("fn" | "const") => break ident(j + 1),
                Some("static") if ident(j + 1) == Some("mut") => break ident(j + 2),
                Some("static") => break ident(j + 1),
                _ => break None,
            }
        };
        let Some(name) = name.filter(|name| *name != "_") else {
            continue;
        };
        if !has_marker(scan, &source_lines, token.line, &marker) {
            out.push((name.to_string(), token.line));
        }
    }
    out
}

/// The identifiers one file uses: every identifier token outside
/// `#[cfg(test)]` items and outside `pub use` re-exports, which name an
/// item without using it. Comments and string contents are not tokens,
/// so they never count.
pub fn used_idents(scan: &Scan) -> BTreeSet<String> {
    let spans = test_spans(scan);
    let tokens = &scan.tokens;
    let mut out = BTreeSet::new();
    let mut i = 0;
    while let Some(token) = tokens.get(i) {
        i += 1;
        let TokenKind::Ident(name) = &token.kind else {
            continue;
        };
        if name == "pub" {
            // `pub use …;` and `pub(crate) use …;`: skip to the `;`.
            let mut j = i;
            if tokens.get(j).map(|t| &t.kind) == Some(&TokenKind::Punct('(')) {
                while tokens
                    .get(j)
                    .is_some_and(|t| t.kind != TokenKind::Punct(')'))
                {
                    j += 1;
                }
                j += 1;
            }
            if tokens.get(j).map(|t| &t.kind) == Some(&TokenKind::Ident("use".to_string())) {
                while tokens
                    .get(j)
                    .is_some_and(|t| t.kind != TokenKind::Punct(';'))
                {
                    j += 1;
                }
                i = j;
            }
            continue;
        }
        if !in_spans(&spans, token.line) {
            out.insert(name.clone());
        }
    }
    out
}

/// Reports each public item (`(name, file, line)`, from [`pub_items`])
/// whose name no *other* file in `users` (`(file, identifiers)`, from
/// [`used_idents`]) uses.
pub fn check_unused_pub(
    items: Vec<(String, String, usize)>,
    users: &[(String, BTreeSet<String>)],
) -> Vec<Violation> {
    items
        .into_iter()
        .filter(|(name, file, _)| {
            !users
                .iter()
                .any(|(user, idents)| user != file && idents.contains(name))
        })
        .map(|(name, file, line)| Violation {
            rule: UNUSED_PUB,
            file,
            line,
            message: format!(
                "`{name}` is public, but no other non-test file under crates/, \
                 src/, examples/ or e2ebench/ names it: delete it or narrow its \
                 visibility"
            ),
        })
        .collect()
}

/// Non-blank lines of one file outside `#[cfg(test)]` items.
pub fn non_test_lines(source: &str, scan: &Scan) -> usize {
    let spans = test_spans(scan);
    source
        .lines()
        .enumerate()
        .filter(|(index, line)| !line.trim().is_empty() && !in_spans(&spans, index + 1))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn check(source: &str, role: FileRole) -> Vec<Violation> {
        check_file("test.rs", source, &scan(source), &role)
    }

    #[test]
    fn cfg_test_spans_cover_module_bodies() {
        let source = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let spans = test_spans(&scan(source));
        assert_eq!(spans, vec![(2, 5)]);
    }

    #[test]
    fn unsafe_in_a_forbidden_crate_fires() {
        let violations = check("unsafe { work(); }", FileRole::default());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, UNSAFE_OUTSIDE);
    }

    #[test]
    fn safety_comment_satisfies_the_netpoll_rule() {
        let role = FileRole {
            unsafe_allowed: true,
            ..FileRole::default()
        };
        let ok = "// SAFETY: checked above.\nunsafe { work(); }";
        assert!(check(ok, role).is_empty());
        let bad = "let x = 1;\nunsafe { work(); }";
        let violations = check(bad, role);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, SAFETY_COMMENT);
    }

    #[test]
    fn ordering_rule_skips_relaxed_and_cmp_variants() {
        let source = "x.store(1, Ordering::Relaxed);\nlet o = std::cmp::Ordering::Less;";
        assert!(check(source, FileRole::default()).is_empty());
    }

    #[test]
    fn doc_sync_flags_both_directions() {
        let mut code = NameSites::new();
        code.insert("pim_x_total".into(), ("a.rs".into(), 3));
        let doc = "| `pim_y_total` | counter |\n";
        let violations = check_doc_sync(
            METRICS_DOC_SYNC,
            "metric",
            "docs/OBSERVABILITY.md",
            &doc_metric_names(doc),
            &code,
        );
        assert_eq!(violations.len(), 2);
    }

    #[test]
    fn pub_items_read_through_qualifiers_and_skip_restricted_ones() {
        let source = "pub fn a() {}\npub const fn b() {}\npub(crate) fn c() {}\n\
                      pub static mut D: u8 = 0;\npub const E: u8 = 1;\npub const _: () = ();\n\
                      pub struct F;\npub unsafe fn g() {}\n\
                      // lint:allow(unused-pub) seam for a test\npub fn h() {}\n\
                      #[cfg(test)]\nmod tests {\n    pub fn i() {}\n}\n";
        let names: Vec<String> = pub_items(source, &scan(source))
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(names, ["a", "b", "D", "E", "g"]);
    }

    #[test]
    fn used_idents_skip_reexports_comments_strings_and_tests() {
        let source = "pub use a::b;\npub(crate) use c::{d, e};\nuse f::g;\n\
                      // h\nlet x = \"i\";\n#[cfg(test)]\nmod tests { fn j() {} }\n";
        let idents = used_idents(&scan(source));
        for name in ["use", "f", "g", "let", "x"] {
            assert!(idents.contains(name), "{name}");
        }
        for name in ["b", "d", "e", "h", "i", "j"] {
            assert!(!idents.contains(name), "{name}");
        }
    }

    #[test]
    fn non_test_lines_skip_blanks_and_test_items() {
        let source = "fn a() {}\n\n   \n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        assert_eq!(non_test_lines(source, &scan(source)), 2);
    }

    #[test]
    fn doc_endpoint_rows_require_a_method_cell() {
        let doc = "| GET | `/healthz` | liveness |\n| `400` | `/not/a/route` bad row |\n";
        let names = doc_endpoint_paths(doc);
        assert!(names.contains_key("/healthz"));
        assert!(!names.contains_key("/not/a/route"));
    }
}
