//! Finding types and the machine-readable analysis report.
//!
//! The JSON document is schema-stable: `scripts/verify.sh` greps its keys,
//! so renaming or dropping one is a CI-visible change, not a silent one.

use crate::concurrency::ConcurrencyReport;
use crate::coverage::CoverageReport;
use std::fmt::Write as _;

/// Report schema version, bumped on any key rename/removal.
pub const LINT_SCHEMA_VERSION: u32 = 1;

/// The nine source-lint classes: the four PR 5 source lints plus the
/// five concurrency-soundness lints (see [`crate::concurrency`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LintKind {
    /// `unsafe` without a `// SAFETY:` (or `# Safety`) justification.
    UnsafeSafety,
    /// NaN-swallowing comparison (`.min`/`.max`/`partial_cmp`/…) in a
    /// detection-critical module without a `// ft2: nan-ok` audit note.
    NanComparison,
    /// `FT2_*` string literal missing from the central knob registry, or a
    /// registered knob missing from README / never read.
    EnvKnob,
    /// `== 0.0` zero-skip guard in kernel code without a `// ft2: zero-ok`
    /// audit note.
    ZeroSkip,
    /// Nested lock acquisition violating the `LOCK_REGISTRY` rank order,
    /// an unregistered lock in a nested acquisition, or a cycle in the
    /// acquisition graph (potential deadlock).
    LockOrder,
    /// A mutex guard live across a blocking call (`recv`/`join`/socket
    /// write/sleep) without a `// ft2: blocking-ok` justification.
    HoldAcrossBlocking,
    /// A spawned thread never joined in its file and not annotated
    /// `// ft2: detached`, or a failed shutdown-proof obligation.
    ThreadLifecycle,
    /// `lock().unwrap()`-style poison-aborting acquisition without a
    /// `// ft2: poison-fatal` justification (use `lock_clean`).
    PoisonedLock,
    /// Unordered `HashMap`/`HashSet`, wall-clock input, or unordered
    /// float reduction in a bit-identity-critical module.
    Nondeterminism,
}

impl LintKind {
    /// Every lint class, in report order.
    pub const ALL: [LintKind; 9] = [
        LintKind::UnsafeSafety,
        LintKind::NanComparison,
        LintKind::EnvKnob,
        LintKind::ZeroSkip,
        LintKind::LockOrder,
        LintKind::HoldAcrossBlocking,
        LintKind::ThreadLifecycle,
        LintKind::PoisonedLock,
        LintKind::Nondeterminism,
    ];

    /// Stable kebab-case lint name (appears in reports and annotations).
    pub const fn name(self) -> &'static str {
        match self {
            LintKind::UnsafeSafety => "unsafe-safety",
            LintKind::NanComparison => "nan-comparison",
            LintKind::EnvKnob => "env-knob",
            LintKind::ZeroSkip => "zero-skip",
            LintKind::LockOrder => "lock-order",
            LintKind::HoldAcrossBlocking => "hold-across-blocking",
            LintKind::ThreadLifecycle => "thread-lifecycle",
            LintKind::PoisonedLock => "poisoned-lock",
            LintKind::Nondeterminism => "nondeterminism",
        }
    }
}

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which lint fired.
    pub lint: LintKind,
    /// Path relative to the analysis root, `/`-separated.
    pub file: String,
    /// 1-based source line, or 0 for workspace-level findings (e.g. a
    /// registry entry missing from README).
    pub line: usize,
    /// Human-readable description with the expected fix.
    pub message: String,
}

/// The complete analysis result: source-lint findings plus the
/// protection-coverage proof and the concurrency pass (lock graph +
/// shutdown proof).
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// Source-lint findings, sorted by (file, line, lint).
    pub findings: Vec<Finding>,
    /// The coverage / pricing / checkpoint cross-checks.
    pub coverage: CoverageReport,
    /// The lock-acquisition graph and the shutdown proof.
    pub concurrency: ConcurrencyReport,
}

impl AnalysisReport {
    /// Did the whole analysis pass (no findings, no coverage gaps, no
    /// lock cycles, shutdown proof intact)?
    pub fn ok(&self) -> bool {
        self.findings.is_empty() && self.coverage.ok() && self.concurrency.ok()
    }

    /// Findings of one lint class.
    pub fn count(&self, lint: LintKind) -> usize {
        self.findings.iter().filter(|f| f.lint == lint).count()
    }

    /// Human-readable rendering (the default CLI output).
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            if f.line == 0 {
                let _ = writeln!(s, "{}: [{}] {}", f.file, f.lint.name(), f.message);
            } else {
                let _ = writeln!(s, "{}:{}: [{}] {}", f.file, f.line, f.lint.name(), f.message);
            }
        }
        if !self.findings.is_empty() {
            s.push('\n');
        }
        s.push_str(&self.coverage.render_text());
        s.push('\n');
        s.push_str(&self.concurrency.render_text());
        let _ = writeln!(
            s,
            "\nlint: {} finding(s); coverage: {}; concurrency: {}",
            self.findings.len(),
            if self.coverage.ok() { "proved" } else { "GAPS FOUND" },
            if self.concurrency.ok() { "proved" } else { "GAPS FOUND" }
        );
        s
    }

    /// The schema-stable JSON document (`ft2-repro lint --json`).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {LINT_SCHEMA_VERSION},");
        let _ = writeln!(s, "  \"ok\": {},", self.ok());
        let _ = writeln!(s, "  \"finding_count\": {},", self.findings.len());
        s.push_str("  \"lints\": {");
        for (i, lint) in LintKind::ALL.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}: {}", json_quote(lint.name()), self.count(*lint));
        }
        s.push_str("},\n");
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"lint\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_quote(f.lint.name()),
                json_quote(&f.file),
                f.line,
                json_quote(&f.message)
            );
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");
        s.push_str("  \"coverage\": ");
        s.push_str(&indent_tail(&self.coverage.to_json(), 2));
        s.push_str(",\n");
        s.push_str("  \"concurrency\": ");
        s.push_str(&indent_tail(&self.concurrency.to_json(), 2));
        s.push('\n');
        s.push_str("}\n");
        s
    }
}

/// JSON string quoting.
pub fn json_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Re-indent every line but the first by `by` spaces (for nesting one
/// pretty-printed JSON document inside another).
pub(crate) fn indent_tail(doc: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    let mut lines = doc.trim_end().lines();
    let mut out = String::new();
    if let Some(first) = lines.next() {
        out.push_str(first);
    }
    for l in lines {
        out.push('\n');
        out.push_str(&pad);
        out.push_str(l);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_quote_escapes() {
        assert_eq!(json_quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_quote("plain"), "\"plain\"");
    }

    #[test]
    fn lint_names_are_kebab_case() {
        for lint in LintKind::ALL {
            let n = lint.name();
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }
}
