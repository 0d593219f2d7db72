#![warn(missing_docs)]
//! # ft2-analyze
//!
//! In-tree static analysis for the FT2 reproduction, exposed as
//! `ft2-repro lint [--json]`. It keeps only the rules that need its own
//! source model — a lexical scanner ([`lexer`]) that splits code, comments
//! and string literals, and a guard-scope model ([`model`]) of lock
//! acquisitions — and leaves every type-level rule to clippy (see
//! DESIGN.md §3f for where each rule lives):
//!
//! * [`lints`] — `zero-skip` (no `== 0.0` guard in kernel code without
//!   `// ft2: zero-ok`) and `env-knob` (every `FT2_*` literal is a
//!   registered knob, and every registered knob has a README row whose
//!   default matches the registry);
//! * [`concurrency`] — `lock-order` (no lock taken while a different one
//!   is held, without `// ft2: lock-ok`) and `hold-across-blocking` (no
//!   guard live across a blocking call, without `// ft2: blocking-ok`).
//!
//! The crate depends on nothing: the harness, which *consumes* it, passes
//! the knob registry in through [`LintConfig`].

pub mod concurrency;
pub mod lexer;
pub mod lints;
pub mod model;
pub mod report;

pub use lints::{collect_rs_files, run_lints, Knob, LintConfig, ZERO_SKIP_MODULES};
pub use model::{scan_tree, ScannedTree};
pub use report::{AnalysisReport, Finding, LintKind, LINT_SCHEMA_VERSION};

/// Run every lint over one scan of `cfg.root`.
pub fn analyze(cfg: &LintConfig) -> Result<AnalysisReport, String> {
    let tree = model::scan_tree(&cfg.root)?;
    let mut findings = lints::run_source_lints(&tree, cfg);
    findings.extend(concurrency::run_concurrency(&tree));
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint))
    });
    Ok(AnalysisReport { findings })
}
