#![warn(missing_docs)]
//! # ft2-analyze
//!
//! In-tree static analysis for the FT2 reproduction, exposed as
//! `ft2-repro lint [--json]`. Two layers, both std-only:
//!
//! 1. **Source lints** ([`lints`]) — a lightweight lexical scanner
//!    ([`lexer`]) enforcing repo-specific invariants the stock toolchain
//!    cannot: `unsafe` requires a written `// SAFETY:` invariant;
//!    NaN-swallowing comparisons (`f32::min`/`max`/`partial_cmp`) in
//!    detection-critical modules require a `// ft2: nan-ok` audit note;
//!    every `FT2_*` env-knob literal must resolve to the central registry
//!    in `ft2-harness::settings` and be documented in README; zero-skip
//!    guards (`== 0.0` around multiply-accumulates) are banned in kernel
//!    code unless annotated `// ft2: zero-ok`.
//! 2. **Protection-coverage proof** ([`coverage`]) — builds all seven zoo
//!    configs' layer graphs *without executing them*, runs the Fig. 1a/1b
//!    critical-layer classifier, and probes the real FT2 tap wiring so
//!    that "every critical layer has a registered clamp tap" is a
//!    CI-enforced theorem rather than a hope; plus exhaustive
//!    [`ft2_fault::Outcome`] pricing against the cost model and checkpoint
//!    version-compatibility probes.
//!
//! The crate deliberately depends only on sibling workspace crates (the
//! offline-build constraint) and never on the harness, which *consumes* it
//! — the knob registry is passed in by name through [`LintConfig`].

pub mod concurrency;
pub mod coverage;
pub mod lexer;
pub mod lints;
pub mod model;
pub mod report;
pub mod shutdown;

pub use concurrency::{ConcurrencyReport, LockEdge, RankedLock, DETERMINISM_MODULES};
pub use coverage::{analyse as analyse_coverage, CoverageReport};
pub use lints::{collect_rs_files, run_lints, LintConfig, NAN_CRITICAL_MODULES, ZERO_SKIP_MODULES};
pub use model::{scan_tree, ScannedTree};
pub use report::{AnalysisReport, Finding, LintKind, LINT_SCHEMA_VERSION};
pub use shutdown::ShutdownReport;

/// Run the full analysis: source lints and concurrency lints over one
/// scan of `cfg.root`, the (tree-independent) protection-coverage proof,
/// and the shutdown proof.
pub fn analyze(cfg: &LintConfig) -> Result<AnalysisReport, String> {
    let tree = model::scan_tree(&cfg.root)?;
    let mut findings = lints::run_source_lints(&tree, cfg);
    let (concurrency_findings, concurrency) = concurrency::run_concurrency(&tree, cfg);
    findings.extend(concurrency_findings);
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint))
    });
    Ok(AnalysisReport {
        findings,
        coverage: coverage::analyse(),
        concurrency,
    })
}
