//! The `ft2-repro lint` driver: wires the harness knob registry into
//! `ft2-analyze` and renders the result.

use crate::settings::KNOB_REGISTRY;
use ft2_analyze::{Knob, LintConfig};
use std::path::{Path, PathBuf};

/// Parsed `lint` subcommand options.
#[derive(Clone, Debug)]
pub struct LintArgs {
    /// Emit the schema-stable JSON document instead of text.
    pub json: bool,
    /// Tree to scan (defaults to the enclosing workspace root).
    pub root: Option<PathBuf>,
}

impl LintArgs {
    /// Parse `lint` CLI arguments.
    pub fn parse(args: &[String]) -> Result<LintArgs, String> {
        let mut out = LintArgs {
            json: false,
            root: None,
        };
        let mut rest = args.iter();
        while let Some(key) = rest.next() {
            match key.as_str() {
                "--json" => out.json = true,
                "--root" => {
                    out.root = Some(PathBuf::from(
                        rest.next().ok_or("option --root needs a value")?,
                    ));
                }
                other => return Err(format!("unknown lint option {other}")),
            }
        }
        Ok(out)
    }
}

/// Locate the workspace root: the nearest ancestor of the current
/// directory holding a `Cargo.toml` with a `[workspace]` table.
pub fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the current directory \
                        (pass --root explicitly)"
                .to_string());
        }
    }
}

/// Run the full analysis and print it; returns the process exit code
/// (0 = clean, 1 = findings).
pub fn run(args: &LintArgs) -> Result<i32, String> {
    let root = match &args.root {
        Some(r) => r.clone(),
        None => find_workspace_root()?,
    };
    let report = analyze_tree(&root)?;
    if args.json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    Ok(if report.ok() { 0 } else { 1 })
}

/// Lint a specific tree with the harness registry (test/CI entry point).
pub fn analyze_tree(root: &Path) -> Result<ft2_analyze::AnalysisReport, String> {
    let knobs = KNOB_REGISTRY
        .iter()
        .map(|k| Knob {
            name: k.name.to_string(),
            default: k.default.to_string(),
        })
        .collect();
    ft2_analyze::analyze(&LintConfig::for_tree(root.to_path_buf(), knobs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_lint_args() {
        let args = LintArgs::parse(&["--json".to_string()]).unwrap();
        assert!(args.json && args.root.is_none());
        let args = LintArgs::parse(&["--root".to_string(), "/tmp/x".to_string()]).unwrap();
        assert_eq!(args.root.as_deref(), Some(Path::new("/tmp/x")));
        assert!(LintArgs::parse(&["--bogus".to_string()]).is_err());
        assert!(LintArgs::parse(&["--root".to_string()]).is_err());
    }
}
