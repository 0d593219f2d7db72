//! Fixture golden tests: every lint class fires on the seeded-violation
//! tree (`fixtures/bad_tree`) and stays silent on the annotated twin
//! (`fixtures/good_tree`). The seeded violations are counted exactly, not
//! as lower bounds.

use ft2_analyze::{analyze, run_lints, Knob, LintConfig, LintKind};
use std::path::PathBuf;

fn fixture_config(name: &str) -> LintConfig {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    LintConfig {
        readme: Some(root.join("README.md")),
        root,
        // FT2_SEED is the one registered knob in fixture world; both
        // fixture READMEs have a table row for it.
        knobs: vec![Knob {
            name: "FT2_SEED".to_string(),
            default: "0xF72025".to_string(),
        }],
        zero_skip_modules: vec!["crates/tensor/src/".to_string()],
        check_knob_used: false,
    }
}

#[test]
fn every_lint_class_fires_on_the_seeded_tree() {
    let report = analyze(&fixture_config("bad_tree")).expect("bad_tree scans");
    let findings = &report.findings;
    let count = |k: LintKind| findings.iter().filter(|f| f.lint == k).count();
    // The unregistered literal and the README default drift.
    assert_eq!(count(LintKind::EnvKnob), 2, "findings: {findings:?}");
    assert_eq!(count(LintKind::ZeroSkip), 1, "findings: {findings:?}");
    assert_eq!(count(LintKind::LockOrder), 1, "findings: {findings:?}");
    assert_eq!(count(LintKind::HoldAcrossBlocking), 1, "findings: {findings:?}");
    assert_eq!(findings.len(), 5);
    assert!(!report.ok());

    // Each finding points at the seeded file and line.
    let at = |k: LintKind, file: &str| {
        findings
            .iter()
            .find(|f| f.lint == k && f.file == file)
            .map(|f| f.line)
            .unwrap_or_else(|| panic!("no {} finding in {file}: {findings:?}", k.name()))
    };
    assert_eq!(at(LintKind::EnvKnob, "src/main.rs"), 5);
    assert_eq!(at(LintKind::EnvKnob, "README.md"), 10);
    assert_eq!(at(LintKind::ZeroSkip, "crates/tensor/src/kernel.rs"), 7);
    assert_eq!(at(LintKind::LockOrder, "crates/core/src/sync.rs"), 12);
    assert_eq!(at(LintKind::HoldAcrossBlocking, "crates/core/src/sync.rs"), 19);
    let drift = findings.iter().find(|f| f.file == "README.md").unwrap();
    assert!(drift.message.contains("`0x5EED`") && drift.message.contains("`0xF72025`"));
}

#[test]
fn annotated_twin_tree_is_clean() {
    let report = analyze(&fixture_config("good_tree")).expect("good_tree scans");
    assert!(
        report.findings.is_empty(),
        "unexpected findings: {:?}",
        report.findings
    );
    let json = report.to_json();
    for key in ["\"schema\": 2", "\"ok\": true", "\"finding_count\": 0"] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn undocumented_registered_knob_is_a_workspace_finding() {
    // Same tree, but the registry claims a knob the fixture README does
    // not document (name assembled at runtime so this test's own source
    // does not trip the env-knob lint).
    let mut cfg = fixture_config("good_tree");
    cfg.knobs.push(Knob {
        name: format!("FT2_{}", "UNDOCUMENTED"),
        default: "off".to_string(),
    });
    let findings = run_lints(&cfg).expect("good_tree scans");
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].lint, LintKind::EnvKnob);
    assert_eq!(findings[0].file, "README.md");
    assert_eq!(findings[0].line, 0, "workspace-level findings use line 0");
    assert!(findings[0].message.contains("not documented in README"));
}
