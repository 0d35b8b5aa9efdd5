//! **In-tree static analysis** — the source/invariant linter behind
//! `vwsdk check`.
//!
//! The workspace's headline guarantee (mappings and simulations
//! byte-identical to the sequential VW-SDK paper algorithms) rests on
//! cross-cutting conventions: one unsafe crate, justified `unsafe`
//! blocks, justified non-Relaxed atomics, documentation tables that
//! match the code. This crate turns those conventions into
//! machine-checked rules:
//!
//! 1. `unsafe-outside-netpoll` — `unsafe` only in `crates/netpoll`;
//! 2. `safety-comment` — every `unsafe` there carries a `// SAFETY:`
//!    justification;
//! 3. `forbid-unsafe-code` — every other crate root declares
//!    `#![forbid(unsafe_code)]`;
//! 4. `ordering-comment` — every `Ordering::` stronger than `Relaxed`
//!    in non-test code carries an `// ORDERING:` comment;
//! 5. `banned-macro` — no `todo!`/`unimplemented!`/`dbg!` outside
//!    tests;
//! 6. `metrics-doc-sync` — registered metric names match the table in
//!    `docs/OBSERVABILITY.md`, both directions;
//! 7. `endpoints-doc-sync` — router endpoints match the route table in
//!    `docs/HTTP_API.md`, both directions;
//! 8. `unused-pub` — every bare-`pub` `fn`, `const` or `static` of a
//!    library crate is named by another non-test file.
//!
//! The same walk counts each crate's non-test lines
//! ([`CheckReport::lines`]), the size `vwsdk check` prints.
//!
//! Everything is hand-rolled on purpose (std only, per the workspace
//! dependency policy): [`scan`] is a small Rust lexer that gets
//! comments, raw strings and lifetimes right, [`rules`] runs over its
//! token stream, and [`walk`] orchestrates a whole-repo check. See
//! `docs/STATIC_ANALYSIS.md` for the rule catalog and the
//! `// lint:allow(<rule>)` suppression syntax.
//!
//! # Example
//!
//! ```
//! use pim_lint::rules::{check_file, FileRole};
//! use pim_lint::scan::scan;
//!
//! let source = "fn main() { let x = 1; }";
//! let findings = check_file("main.rs", source, &scan(source), &FileRole::default());
//! assert!(findings.is_empty());
//!
//! let bad = "unsafe { steal(); }";
//! let findings = check_file("main.rs", bad, &scan(bad), &FileRole::default());
//! assert_eq!(findings[0].rule, "unsafe-outside-netpoll");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod rules;
pub mod scan;
pub mod walk;

pub use rules::{RuleInfo, Violation, RULES};
pub use walk::{check_repo, find_repo_root, CheckReport};
