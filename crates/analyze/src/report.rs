//! Finding types and the machine-readable analysis report.
//!
//! The JSON document is schema-stable: `scripts/verify.sh` greps its keys,
//! so renaming or dropping one is a CI-visible change, not a silent one.

use std::fmt::Write as _;

/// Report schema version, bumped on any key rename/removal.
pub const LINT_SCHEMA_VERSION: u32 = 2;

/// The four lint classes: two source lints (see [`crate::lints`]) and two
/// lock lints (see [`crate::concurrency`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LintKind {
    /// `FT2_*` string literal missing from the central knob registry, or a
    /// registered knob missing from README, documented with another
    /// default, or never read.
    EnvKnob,
    /// `== 0.0` zero-skip guard in kernel code without a `// ft2: zero-ok`
    /// audit note.
    ZeroSkip,
    /// A lock acquired while a different lock is held, without a
    /// `// ft2: lock-ok` justification.
    LockOrder,
    /// A mutex guard live across a blocking call (`recv`/`join`/socket
    /// write/sleep) without a `// ft2: blocking-ok` justification.
    HoldAcrossBlocking,
}

impl LintKind {
    /// Every lint class, in report order.
    pub const ALL: [LintKind; 4] = [
        LintKind::EnvKnob,
        LintKind::ZeroSkip,
        LintKind::LockOrder,
        LintKind::HoldAcrossBlocking,
    ];

    /// Stable kebab-case lint name (appears in reports and annotations).
    pub const fn name(self) -> &'static str {
        match self {
            LintKind::EnvKnob => "env-knob",
            LintKind::ZeroSkip => "zero-skip",
            LintKind::LockOrder => "lock-order",
            LintKind::HoldAcrossBlocking => "hold-across-blocking",
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

/// The complete analysis result.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// Findings, sorted by (file, line, lint).
    pub findings: Vec<Finding>,
}

impl AnalysisReport {
    /// Did the analysis pass (no findings)?
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
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
                let _ = writeln!(
                    s,
                    "{}:{}: [{}] {}",
                    f.file,
                    f.line,
                    f.lint.name(),
                    f.message
                );
            }
        }
        let _ = writeln!(s, "lint: {} finding(s)", self.findings.len());
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
        s.push_str("]\n");
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
