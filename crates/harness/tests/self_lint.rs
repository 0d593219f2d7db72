//! The repository lints itself: the tree this crate was built from must
//! be finding-free. This is the same analysis `ft2-repro lint` (and CI)
//! runs.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = ft2_harness::lint::analyze_tree(&root).expect("analysis runs");
    assert!(
        report.findings.is_empty(),
        "lint findings on the workspace tree:\n{}",
        report.render_text()
    );
}
