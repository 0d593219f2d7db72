//! The four repo-specific source lints.
//!
//! Each lint matches against the channel the pattern belongs to (see
//! [`crate::lexer`]): code patterns against the comment/string-blanked code
//! channel, annotations against the comment channel, knob names against
//! string-literal contents. The annotation grammar is documented in
//! DESIGN.md §3f:
//!
//! * `// SAFETY: <invariant>` within 6 lines before (or 2 lines after, for
//!   comments placed just inside the block) an `unsafe` token; `unsafe fn`
//!   may use a `/// # Safety` doc section instead.
//! * `// ft2: nan-ok (<one-line proof>)` on, or up to 2 lines above, a
//!   comparison call in a detection-critical module.
//! * `// ft2: zero-ok (<reason>)` on, or up to 3 lines above, a zero-skip
//!   guard — the only thing that licenses one.

use crate::concurrency::{RankedLock, DETERMINISM_MODULES};
use crate::lexer::{Line, ScannedFile};
use crate::model::ScannedTree;
use crate::report::{Finding, LintKind};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Detection-critical modules where NaN-swallowing comparisons must carry
/// an audit annotation: the FT2 detector itself (`bounds`, `protect`,
/// `integrity`) and the `ft2-fault` paths that classify or detect faults.
pub const NAN_CRITICAL_MODULES: &[&str] = &[
    "crates/core/src/bounds.rs",
    "crates/core/src/protect.rs",
    "crates/core/src/integrity.rs",
    "crates/fault/src/model.rs",
    "crates/fault/src/dmr.rs",
    "crates/fault/src/watchdog.rs",
    "crates/fault/src/trace.rs",
];

/// Kernel code where `== 0.0` zero-skip guards are banned (skipping a
/// `0.0 * x` term masks the NaN/Inf that an injected fault put in `x` — the
/// PR 4 bug class).
pub const ZERO_SKIP_MODULES: &[&str] = &["crates/tensor/src/", "crates/model/src/"];

/// How many lines above an `unsafe` token a `SAFETY` comment may sit.
const UNSAFE_WINDOW_BEFORE: usize = 6;
/// How many lines below (for comments just inside the block).
const UNSAFE_WINDOW_AFTER: usize = 2;
/// Annotation window for `ft2: nan-ok`.
const NAN_WINDOW: usize = 2;
/// Annotation window for `ft2: zero-ok`.
const ZERO_WINDOW: usize = 3;

/// What to lint and against which knob registry.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Directory to scan recursively for `.rs` files.
    pub root: PathBuf,
    /// The registered knob names (from the harness knob registry).
    pub knobs: Vec<String>,
    /// README to check knob documentation against (`None` = skip the
    /// documentation direction of the env-knob lint).
    pub readme: Option<PathBuf>,
    /// Path substrings selecting detection-critical modules.
    pub nan_modules: Vec<String>,
    /// Path substrings selecting kernel modules for the zero-skip lint.
    pub zero_skip_modules: Vec<String>,
    /// Require every registered knob to be read somewhere in the scanned
    /// sources (only meaningful when scanning the full workspace).
    pub check_knob_used: bool,
    /// The declared lock-order registry (from
    /// `ft2_parallel::LOCK_REGISTRY` for the real tree; fixture trees
    /// declare their own).
    pub locks: Vec<RankedLock>,
    /// Path substrings selecting bit-identity-critical modules for the
    /// nondeterminism lint.
    pub det_modules: Vec<String>,
    /// Run the shutdown proof (only meaningful when the scanned tree
    /// contains the serving topology).
    pub check_shutdown: bool,
}

impl LintConfig {
    /// The configuration for linting this repository's own tree.
    pub fn for_tree(root: impl Into<PathBuf>, knobs: Vec<String>) -> LintConfig {
        let root = root.into();
        LintConfig {
            readme: Some(root.join("README.md")),
            // Only demand knob usage when the scanned tree contains the
            // registry's own crate; a fixture tree can't read every knob.
            check_knob_used: root.join("crates/harness").is_dir(),
            // The shutdown proof needs the whole serving topology.
            check_shutdown: root.join("crates/serve").is_dir()
                && root.join("crates/parallel").is_dir()
                && root.join("crates/harness").is_dir(),
            root,
            knobs,
            nan_modules: NAN_CRITICAL_MODULES.iter().map(|s| s.to_string()).collect(),
            zero_skip_modules: ZERO_SKIP_MODULES.iter().map(|s| s.to_string()).collect(),
            locks: ft2_parallel::LOCK_REGISTRY
                .iter()
                .map(|l| RankedLock {
                    name: l.name.to_string(),
                    rank: l.rank,
                    site: l.site.to_string(),
                })
                .collect(),
            det_modules: DETERMINISM_MODULES.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// Recursively collect the `.rs` files under `root`, deterministically
/// ordered, skipping build output, VCS internals, lint fixtures, and
/// `benchmark/` — a standalone package with its own workspace, lock file
/// and documented environment, outside the registries these lints check
/// the workspace's crates against.
pub fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        let mut entries: Vec<_> = rd.flatten().map(|e| e.path()).collect();
        entries.sort();
        for p in entries {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if p.is_dir() {
                if matches!(
                    name,
                    "target" | ".git" | "results" | "fixtures" | "snapshots" | "benchmark"
                ) {
                    continue;
                }
                walk(&p, out);
            } else if name.ends_with(".rs") {
                out.push(p);
            }
        }
    }
    let mut v = Vec::new();
    walk(root, &mut v);
    v
}

/// Run every source lint over the tree. `Err` is reserved for environment
/// problems (unreadable root); lint violations come back as findings.
/// Scans the tree itself; [`crate::analyze`] scans once and uses
/// [`run_source_lints`] directly.
pub fn run_lints(cfg: &LintConfig) -> Result<Vec<Finding>, String> {
    let tree = crate::model::scan_tree(&cfg.root)?;
    Ok(run_source_lints(&tree, cfg))
}

/// The four PR 5 source lints over an already-scanned tree.
pub fn run_source_lints(tree: &ScannedTree, cfg: &LintConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut used_knobs: BTreeSet<String> = BTreeSet::new();
    for file in &tree.files {
        let rel = &file.rel;
        let scanned = &file.scanned;
        lint_unsafe(rel, scanned, &mut findings);
        if matches_any(rel, &cfg.nan_modules) {
            lint_nan_comparison(rel, scanned, &mut findings);
        }
        if matches_any(rel, &cfg.zero_skip_modules) {
            lint_zero_skip(rel, scanned, &mut findings);
        }
        lint_knob_literals(rel, scanned, &cfg.knobs, &mut used_knobs, &mut findings);
    }
    lint_knob_registry(cfg, &used_knobs, &mut findings);
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint))
    });
    findings
}

/// `root`-relative path with forward slashes (stable across platforms).
pub(crate) fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn matches_any(rel: &str, needles: &[String]) -> bool {
    needles.iter().any(|n| rel.contains(n.as_str()))
}

/// Does `code` contain `word` as a standalone token?
pub(crate) fn contains_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let pre_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let post_ok = end == bytes.len() || !is_ident_byte(bytes[end]);
        if pre_ok && post_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Does any comment in `lines[lo..=hi]` contain `needle`?
fn comment_window_contains(lines: &[Line], lo: usize, hi: usize, needle: &str) -> bool {
    lines[lo..=hi.min(lines.len() - 1)]
        .iter()
        .any(|l| l.comment.contains(needle))
}

fn window_lo(i: usize, before: usize) -> usize {
    i.saturating_sub(before)
}

/// Lint 1: every `unsafe` token needs a written safety argument nearby.
fn lint_unsafe(rel: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    for (i, line) in scanned.lines.iter().enumerate() {
        if !contains_word(&line.code, "unsafe") {
            continue;
        }
        let lo = window_lo(i, UNSAFE_WINDOW_BEFORE);
        let hi = i + UNSAFE_WINDOW_AFTER;
        let justified = comment_window_contains(&scanned.lines, lo, hi, "SAFETY:")
            || comment_window_contains(&scanned.lines, lo, hi, "# Safety");
        if !justified {
            findings.push(Finding {
                lint: LintKind::UnsafeSafety,
                file: rel.to_string(),
                line: i + 1,
                message: "`unsafe` without a `// SAFETY:` comment (or `/// # Safety` \
                          doc section) stating the upheld invariant"
                    .to_string(),
            });
        }
    }
}

/// Comparison calls that silently drop NaN operands (`f32::min`/`max`
/// return the non-NaN operand; `partial_cmp` returns `None`).
const NAN_PATTERNS: &[&str] = &[
    ".min(",
    ".max(",
    ".clamp(",
    "partial_cmp",
    "total_cmp",
    "f32::min",
    "f32::max",
];

/// Lint 2: in detection-critical modules, every ordering/clamp call site
/// must be audited for NaN behaviour and annotated.
fn lint_nan_comparison(rel: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    for (i, line) in scanned.lines.iter().enumerate() {
        let Some(pat) = NAN_PATTERNS.iter().find(|p| line.code.contains(**p)) else {
            continue;
        };
        let lo = window_lo(i, NAN_WINDOW);
        if comment_window_contains(&scanned.lines, lo, i, "ft2: nan-ok") {
            continue;
        }
        findings.push(Finding {
            lint: LintKind::NanComparison,
            file: rel.to_string(),
            line: i + 1,
            message: format!(
                "`{}` in a detection-critical module swallows NaN operands; \
                 audit the site and annotate `// ft2: nan-ok (<proof>)` or \
                 rewrite with an explicit NaN guard",
                pat.trim_matches(['.', '('])
            ),
        });
    }
}

/// Lint 3: a zero-skip guard is only legal under a `ft2: zero-ok` annotation.
fn lint_zero_skip(rel: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    for (i, line) in scanned.lines.iter().enumerate() {
        let code = &line.code;
        let has_cmp = code.contains("== 0.0") || code.contains("!= 0.0");
        let guardish = ["if ", "while ", "&&", "||"].iter().any(|g| code.contains(g));
        if !(has_cmp && guardish) {
            continue;
        }
        let lo = window_lo(i, ZERO_WINDOW);
        if !comment_window_contains(&scanned.lines, lo, i, "ft2: zero-ok") {
            findings.push(Finding {
                lint: LintKind::ZeroSkip,
                file: rel.to_string(),
                line: i + 1,
                message: "zero-skip guard in kernel code: skipping a `0.0` multiplier \
                          masks the NaN/Inf an injected fault put in the other operand; \
                          accumulate every term, or annotate \
                          `// ft2: zero-ok (<reason>)` if nothing is skipped"
                    .to_string(),
            });
        }
    }
}

/// Extract `FT2_*` knob tokens from one string-literal content.
fn knob_tokens(s: &str) -> Vec<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = s[from..].find("FT2_") {
        let start = from + pos;
        if start > 0 && is_knob_byte(bytes[start - 1]) {
            from = start + 1;
            continue;
        }
        let mut end = start + 4;
        while end < bytes.len() && is_knob_byte(bytes[end]) {
            end += 1;
        }
        if end > start + 4 {
            out.push(s[start..end].to_string());
        }
        from = end;
    }
    out
}

fn is_knob_byte(b: u8) -> bool {
    b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_'
}

/// Lint 4a: every `FT2_*` string literal must name a registered knob.
fn lint_knob_literals(
    rel: &str,
    scanned: &ScannedFile,
    knobs: &[String],
    used: &mut BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    for (i, line) in scanned.lines.iter().enumerate() {
        for lit in &line.strings {
            for token in knob_tokens(lit) {
                if knobs.contains(&token) {
                    used.insert(token);
                } else {
                    findings.push(Finding {
                        lint: LintKind::EnvKnob,
                        file: rel.to_string(),
                        line: i + 1,
                        message: format!(
                            "env knob `{token}` is not in the central registry; \
                             add a `KnobSpec` entry in crates/harness/src/settings.rs \
                             (and a README row)"
                        ),
                    });
                }
            }
        }
    }
}

/// Lint 4b (registry-wide): each registered knob must be documented in
/// README and actually read somewhere in the tree.
fn lint_knob_registry(cfg: &LintConfig, used: &BTreeSet<String>, findings: &mut Vec<Finding>) {
    let readme_text = cfg
        .readme
        .as_ref()
        .map(|p| std::fs::read_to_string(p).unwrap_or_default());
    for knob in &cfg.knobs {
        if let Some(text) = &readme_text {
            if !contains_knob_token(text, knob) {
                findings.push(Finding {
                    lint: LintKind::EnvKnob,
                    file: "README.md".to_string(),
                    line: 0,
                    message: format!("registered env knob `{knob}` is not documented in README"),
                });
            }
        }
        if cfg.check_knob_used && !used.contains(knob) {
            findings.push(Finding {
                lint: LintKind::EnvKnob,
                file: "crates/harness/src/settings.rs".to_string(),
                line: 0,
                message: format!(
                    "registered env knob `{knob}` is never read in the scanned sources; \
                     drop the registry entry or wire the knob up"
                ),
            });
        }
    }
}

/// Does `text` contain `knob` as a whole token (not as a substring of a
/// longer knob name)?
fn contains_knob_token(text: &str, knob: &str) -> bool {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = text[from..].find(knob) {
        let start = from + pos;
        let end = start + knob.len();
        let pre_ok = start == 0 || !is_knob_byte(bytes[start - 1]);
        let post_ok = end == bytes.len() || !is_knob_byte(bytes[end]);
        if pre_ok && post_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_str(src: &str) -> ScannedFile {
        crate::lexer::scan(src)
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let mut f = Vec::new();
        lint_unsafe("x.rs", &scan_str("fn f() { unsafe { g() } }\n"), &mut f);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);

        let mut f = Vec::new();
        lint_unsafe(
            "x.rs",
            &scan_str("// SAFETY: g has no preconditions.\nfn f() { unsafe { g() } }\n"),
            &mut f,
        );
        assert!(f.is_empty());
    }

    #[test]
    fn unsafe_fn_doc_safety_section_counts() {
        let src = "/// # Safety\n/// Caller guarantees `p` is valid.\npub unsafe fn f(p: *const u8) {}\n";
        let mut f = Vec::new();
        lint_unsafe("x.rs", &scan_str(src), &mut f);
        assert!(f.is_empty());
    }

    #[test]
    fn unsafe_in_comment_or_string_is_ignored() {
        let src = "// this mentions unsafe code\nlet s = \"unsafe\";\n";
        let mut f = Vec::new();
        lint_unsafe("x.rs", &scan_str(src), &mut f);
        assert!(f.is_empty());
    }

    #[test]
    fn nan_comparison_needs_annotation() {
        let mut f = Vec::new();
        lint_nan_comparison("b.rs", &scan_str("let c = v.min(hi).max(lo);\n"), &mut f);
        assert_eq!(f.len(), 1);

        let mut f = Vec::new();
        lint_nan_comparison(
            "b.rs",
            &scan_str("// ft2: nan-ok (NaN handled upstream)\nlet c = v.min(hi).max(lo);\n"),
            &mut f,
        );
        assert!(f.is_empty());
    }

    #[test]
    fn zero_skip_requires_an_annotation() {
        let mut f = Vec::new();
        lint_zero_skip("g.rs", &scan_str("if aval == 0.0 { continue; }\n"), &mut f);
        assert_eq!(f.len(), 1);

        // Naming a kernel policy on the guard licenses nothing.
        let mut f = Vec::new();
        lint_zero_skip(
            "g.rs",
            &scan_str("if policy == KernelPolicy::Strict && aval == 0.0 { continue; }\n"),
            &mut f,
        );
        assert_eq!(f.len(), 1);

        let mut f = Vec::new();
        lint_zero_skip(
            "g.rs",
            &scan_str("// ft2: zero-ok (a sparsity count, nothing is skipped)\nif aval == 0.0 { zeros += 1; }\n"),
            &mut f,
        );
        assert!(f.is_empty());

        // A bare equality test that is not a control-flow guard passes.
        let mut f = Vec::new();
        lint_zero_skip("g.rs", &scan_str("assert!(diff == 0.0);\n"), &mut f);
        assert!(f.is_empty());
    }

    #[test]
    fn knob_tokens_split_multi_knob_strings() {
        assert_eq!(
            knob_tokens("FT2_INPUTS=50 FT2_TRIALS=500"),
            vec!["FT2_INPUTS".to_string(), "FT2_TRIALS".to_string()]
        );
        assert!(knob_tokens("XFT2_FOO").is_empty()); // not a token start
        assert!(knob_tokens("FT2_").is_empty()); // bare prefix
    }

    #[test]
    fn knob_literal_must_be_registered() {
        // Knob names assembled at runtime so this test's own source does
        // not trip the lint it is testing.
        let registered = format!("FT2_{}", "SEED");
        let bogus = format!("FT2_{}", "BOGUS");
        let knobs = vec![registered.clone()];
        let mut used = BTreeSet::new();
        let mut f = Vec::new();
        let src = format!(
            "let a = std::env::var(\"{registered}\");\nlet b = std::env::var(\"{bogus}\");\n"
        );
        lint_knob_literals("s.rs", &scan_str(&src), &knobs, &mut used, &mut f);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains(&bogus));
        assert!(used.contains(&registered));
    }

    #[test]
    fn knob_token_containment_respects_boundaries() {
        let knob = format!("FT2_{}", "SEED");
        assert!(contains_knob_token(&format!("knob `{knob}` here"), &knob));
        assert!(!contains_knob_token(&format!("only {knob}_EXTRA here"), &knob));
    }
}
