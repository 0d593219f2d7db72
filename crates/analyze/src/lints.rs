//! The two repo-specific source lints.
//!
//! Each lint matches against the channel the pattern belongs to (see
//! [`crate::lexer`]): code patterns against the comment/string-blanked code
//! channel, annotations against the comment channel, knob names against
//! string-literal contents. The annotation grammar is documented in
//! DESIGN.md §3f:
//!
//! * `// ft2: zero-ok (<reason>)` on, or up to 3 lines above, a zero-skip
//!   guard — the only thing that licenses one.
//! * The knob table in README is the documentation of record: a
//!   registered knob needs a row whose default cell starts with the first
//!   word of the registry's default.

use crate::lexer::ScannedFile;
use crate::model::ScannedTree;
use crate::report::{Finding, LintKind};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Kernel code where `== 0.0` zero-skip guards are banned (skipping a
/// `0.0 * x` term masks the NaN/Inf that an injected fault put in `x` — the
/// PR 4 bug class).
pub const ZERO_SKIP_MODULES: &[&str] = &["crates/tensor/src/", "crates/model/src/"];

/// Annotation window for `ft2: zero-ok`.
const ZERO_WINDOW: usize = 3;

/// One registered env knob, as the `env-knob` lint sees it.
#[derive(Clone, Debug)]
pub struct Knob {
    /// The environment variable name.
    pub name: String,
    /// The registry's human-readable default; its first word must open
    /// the README row's default cell.
    pub default: String,
}

/// What to lint and against which knob registry.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Directory to scan recursively for `.rs` files.
    pub root: PathBuf,
    /// The registered knobs (from the harness knob registry).
    pub knobs: Vec<Knob>,
    /// README to check knob documentation against (`None` = skip the
    /// documentation direction of the env-knob lint).
    pub readme: Option<PathBuf>,
    /// Path substrings selecting kernel modules for the zero-skip lint.
    pub zero_skip_modules: Vec<String>,
    /// Require every registered knob to be read somewhere in the scanned
    /// sources (only meaningful when scanning the full workspace).
    pub check_knob_used: bool,
}

impl LintConfig {
    /// The configuration for linting this repository's own tree.
    pub fn for_tree(root: impl Into<PathBuf>, knobs: Vec<Knob>) -> LintConfig {
        let root = root.into();
        LintConfig {
            readme: Some(root.join("README.md")),
            // Only demand knob usage when the scanned tree contains the
            // registry's own crate; a fixture tree can't read every knob.
            check_knob_used: root.join("crates/harness").is_dir(),
            root,
            knobs,
            zero_skip_modules: ZERO_SKIP_MODULES.iter().map(|s| s.to_string()).collect(),
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
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
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

/// The source lints over an already-scanned tree.
pub fn run_source_lints(tree: &ScannedTree, cfg: &LintConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut used_knobs: BTreeSet<String> = BTreeSet::new();
    for file in &tree.files {
        let rel = &file.rel;
        let scanned = &file.scanned;
        if matches_any(rel, &cfg.zero_skip_modules) {
            lint_zero_skip(rel, scanned, &mut findings);
        }
        lint_knob_literals(rel, scanned, &cfg.knobs, &mut used_knobs, &mut findings);
    }
    lint_knob_registry(cfg, &used_knobs, &mut findings);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
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

/// Lint 1: a zero-skip guard is only legal under a `ft2: zero-ok` annotation.
fn lint_zero_skip(rel: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    for (i, line) in scanned.lines.iter().enumerate() {
        let code = &line.code;
        let has_cmp = code.contains("== 0.0") || code.contains("!= 0.0");
        let guardish = ["if ", "while ", "&&", "||"]
            .iter()
            .any(|g| code.contains(g));
        if !(has_cmp && guardish) {
            continue;
        }
        let window = &scanned.lines[i.saturating_sub(ZERO_WINDOW)..=i];
        if !window.iter().any(|l| l.comment.contains("ft2: zero-ok")) {
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

/// Lint 2a: every `FT2_*` string literal must name a registered knob.
fn lint_knob_literals(
    rel: &str,
    scanned: &ScannedFile,
    knobs: &[Knob],
    used: &mut BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    for (i, line) in scanned.lines.iter().enumerate() {
        for lit in &line.strings {
            for token in knob_tokens(lit) {
                if knobs.iter().any(|k| k.name == token) {
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

/// Lint 2b (registry-wide): each registered knob must be documented in
/// README — with the registry's default, where README has a table row
/// for it — and actually read somewhere in the tree.
fn lint_knob_registry(cfg: &LintConfig, used: &BTreeSet<String>, findings: &mut Vec<Finding>) {
    let readme_text = cfg
        .readme
        .as_ref()
        .map(|p| std::fs::read_to_string(p).unwrap_or_default());
    for Knob {
        name: knob,
        default,
    } in &cfg.knobs
    {
        if let Some(text) = &readme_text {
            if !contains_knob_token(text, knob) {
                findings.push(Finding {
                    lint: LintKind::EnvKnob,
                    file: "README.md".to_string(),
                    line: 0,
                    message: format!("registered env knob `{knob}` is not documented in README"),
                });
            }
            let want = default.split_whitespace().next().unwrap_or("");
            for (line, cell) in readme_default_cells(text, knob) {
                if cell.split_whitespace().next().unwrap_or("") != want {
                    findings.push(Finding {
                        lint: LintKind::EnvKnob,
                        file: "README.md".to_string(),
                        line,
                        message: format!(
                            "README gives `{knob}` the default `{cell}`, but the registry \
                             says `{default}`; make the row match KnobSpec.default"
                        ),
                    });
                }
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

/// `(1-based line, default cell)` of every README table row
/// `| `knob` | default | purpose |`, with backticks stripped from the cell.
/// Two-column rows (description tables) have no default cell.
fn readme_default_cells(text: &str, knob: &str) -> Vec<(usize, String)> {
    let first = format!("`{knob}`");
    text.lines()
        .enumerate()
        .filter_map(|(i, l)| {
            let cells: Vec<&str> = l
                .trim()
                .strip_prefix('|')?
                .split('|')
                .map(str::trim)
                .collect();
            // `| a | b | c |` splits into [a, b, c, ""].
            (cells.len() >= 4 && cells[0] == first).then(|| (i + 1, cells[1].replace('`', "")))
        })
        .collect()
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
        let knobs = vec![Knob {
            name: registered.clone(),
            default: "0xF72025".to_string(),
        }];
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
        assert!(!contains_knob_token(
            &format!("only {knob}_EXTRA here"),
            &knob
        ));
    }

    #[test]
    fn readme_default_cells_read_three_column_rows_only() {
        let knob = format!("FT2_{}", "SEED");
        let text = format!(
            "| `{knob}` | seeds the RNG |\n| Knob | Default | Purpose |\n| `{knob}` | `0x5EED` | campaign seed |\n"
        );
        assert_eq!(
            readme_default_cells(&text, &knob),
            vec![(3, "0x5EED".to_string())]
        );
    }
}
