//! A lightweight item/expression model over the channel-split lexer.
//!
//! The lock lints ([`crate::concurrency`]) need slightly more than
//! per-line channels: which lock an expression acquires and how long the
//! resulting guard lives. This module extracts exactly that — nothing
//! more — from the [`crate::lexer`] code channel:
//!
//! * **Acquisitions.** `lock_clean(&path.to.lock)` and `path.to.lock
//!   .lock()` both acquire the lock named by the *last field segment* of
//!   the receiver with index brackets removed (`lock_clean(&self.state
//!   .queues[slot])` acquires `queues`).
//! * **Guard scopes.** A `let [mut] name = …` acquisition produces a
//!   *named* guard that stays live until its enclosing brace block closes,
//!   an explicit `drop(name)` at the binding depth, or the end of file.
//!   Any other acquisition — including a value copied or called out of
//!   the guard on its `let` line (`*lock_clean(…)`, `lock_clean(…).len()`)
//!   — is a *temporary* live only on its own line.
//!   This is a deliberate line-granular approximation: pre-2024 temporary
//!   scopes in `if let` scrutinees extend to the end of the statement, so
//!   the model under-approximates liveness there — acceptable because the
//!   lints' job is what happens while a *held* guard is live, and every
//!   such region in this workspace uses a named guard.
//!
//! The tree is scanned once per [`crate::analyze`] run.

use crate::lexer::{scan, ScannedFile};
use crate::lints::collect_rs_files;
use std::path::Path;

/// One scanned source file with its root-relative path.
pub struct SourceFile {
    /// `/`-separated path relative to the analysis root.
    pub rel: String,
    /// The channel-split lines.
    pub scanned: ScannedFile,
}

/// Every `.rs` file under the analysis root, scanned once.
pub struct ScannedTree {
    /// Files in deterministic (sorted-path) order.
    pub files: Vec<SourceFile>,
}

/// Scan every `.rs` file under `root`. `Err` is reserved for environment
/// problems (unreadable root / file).
pub fn scan_tree(root: &Path) -> Result<ScannedTree, String> {
    if !root.is_dir() {
        return Err(format!("lint root {} is not a directory", root.display()));
    }
    let paths = collect_rs_files(root);
    if paths.is_empty() {
        return Err(format!("no .rs files under {}", root.display()));
    }
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        files.push(SourceFile {
            rel: crate::lints::rel_path(root, &path),
            scanned: scan(&src),
        });
    }
    Ok(ScannedTree { files })
}

/// One lock acquisition extracted from a line of code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Acquisition {
    /// Field name of the acquired lock (`queues`, `state`, …).
    pub lock: String,
    /// Guard binding name for `let [mut] name = …` acquisitions; `None`
    /// for temporaries that die on their own line.
    pub guard: Option<String>,
}

/// Extract every lock acquisition on one line of the code channel.
pub fn acquisitions_on(code: &str) -> Vec<Acquisition> {
    let mut out = Vec::new();
    let guard = binding_name(code);
    // `lock_clean(&<expr>)` — the canonical acquisition form.
    let mut from = 0;
    while let Some(pos) = code[from..].find("lock_clean(") {
        let start = from + pos;
        // Reject `.lock_clean(`-style method calls and longer identifiers.
        let pre_ok = start == 0 || !is_ident_byte(code.as_bytes()[start - 1]);
        let args_at = start + "lock_clean(".len();
        if pre_ok {
            if let Some(arg) = balanced_argument(&code[args_at..]) {
                if let Some(name) = last_field_segment(arg) {
                    // `let v = *lock_clean(&m);` and `let n = lock_clean(&m)
                    // .len();` bind a value read out of a temporary guard.
                    let copied = code[..start]
                        .trim_end()
                        .strip_suffix('*')
                        .is_some_and(|pre| pre.trim_end().ends_with('='));
                    let called = code[args_at + arg.len()..].starts_with(").");
                    out.push(Acquisition {
                        lock: name,
                        guard: guard.clone().filter(|_| !copied && !called),
                    });
                }
            }
        }
        from = args_at;
    }
    // Raw `<receiver>.lock()` — clippy bans it outside `lock_clean`, but
    // an allowed site still holds a lock.
    let mut from = 0;
    while let Some(pos) = code[from..].find(".lock()") {
        let start = from + pos;
        if let Some(name) = receiver_field(&code[..start]) {
            out.push(Acquisition {
                lock: name,
                guard: guard.clone(),
            });
        }
        from = start + ".lock()".len();
    }
    out
}

/// `let [mut] name =` / `let [mut] name:` binding name of a line, if the
/// pattern is a plain identifier (destructuring and `if let` bind
/// temporaries as far as the guard model is concerned).
pub fn binding_name(code: &str) -> Option<String> {
    let t = code.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    let after = rest[end..].trim_start();
    if after.starts_with('=') || after.starts_with(':') {
        Some(rest[..end].to_string())
    } else {
        None
    }
}

/// The expression up to the matching close paren (argument of a call).
fn balanced_argument(s: &str) -> Option<&str> {
    let mut depth = 0usize;
    for (i, b) in s.bytes().enumerate() {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' if depth == 0 => return Some(&s[..i]),
            b')' | b']' => depth -= 1,
            b',' if depth == 0 => return Some(&s[..i]),
            _ => {}
        }
    }
    None
}

/// Last field segment of a lock expression: strip `&`/`mut`, drop index
/// brackets, take the final `.`-separated identifier.
/// `&self.state.queues[slot]` → `queues`; `&b.partial` → `partial`.
fn last_field_segment(expr: &str) -> Option<String> {
    let e = expr.trim().trim_start_matches('&').trim_start();
    let e = e.strip_prefix("mut ").unwrap_or(e);
    let mut cleaned = String::with_capacity(e.len());
    let mut depth = 0usize;
    for c in e.chars() {
        match c {
            '[' | '(' => depth += 1,
            ']' | ')' => depth = depth.saturating_sub(1),
            c if depth == 0 => cleaned.push(c),
            _ => {}
        }
    }
    let last = cleaned.rsplit('.').next()?.trim();
    let ident: String = last
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(ident)
    }
}

/// Receiver field of a `<receiver>.lock()` call: walk the receiver
/// backwards from the `.lock()` and reuse the field-segment rule.
fn receiver_field(before: &str) -> Option<String> {
    let bytes = before.as_bytes();
    let mut i = before.len();
    let mut depth = 0usize;
    while i > 0 {
        let b = bytes[i - 1];
        match b {
            b']' | b')' => depth += 1,
            b'[' | b'(' if depth > 0 => depth -= 1,
            b'[' | b'(' => break,
            b'.' | b':' | b'&' if depth == 0 => {
                i -= 1;
                continue;
            }
            _ if depth == 0 && !is_ident_byte(b) => break,
            _ => {}
        }
        i -= 1;
    }
    last_field_segment(&before[i..])
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Net brace-depth delta of one line of the code channel.
pub fn depth_delta(code: &str) -> i32 {
    let mut d = 0i32;
    for b in code.bytes() {
        match b {
            b'{' => d += 1,
            b'}' => d -= 1,
            _ => {}
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    #[test]
    fn acquisition_names_strip_receivers_and_indices() {
        let a = acquisitions_on("let mut g = lock_clean(&self.state.queues[slot]);");
        assert_eq!(
            a,
            vec![Acquisition {
                lock: "queues".into(),
                guard: Some("g".into())
            }]
        );
        let a = acquisitions_on("if let Some(b) = lock_clean(&self.queues[own]).pop_back() {");
        assert_eq!(a[0].lock, "queues");
        assert_eq!(a[0].guard, None, "if-let binds a temporary");
        let a = acquisitions_on("self.bufs.iter().map(|b| lock_clean(&b.partial)).collect();");
        assert_eq!(a[0].lock, "partial");
    }

    #[test]
    fn a_value_read_out_of_a_guard_is_not_a_guard() {
        for line in [
            "let b = *lock_clean(&s.b_lock);",
            "let n = lock_clean(&self.queues[i]).len();",
            "let job = lock_clean(&state.job).clone();",
        ] {
            let a = acquisitions_on(line);
            assert_eq!(a.len(), 1, "{line}");
            assert_eq!(a[0].guard, None, "{line}");
        }
        // A reborrow extends the guard; a collection of guards holds them.
        for line in [
            "let r = &*lock_clean(&s.b_lock);",
            "let gs: Vec<_> = bufs.iter().map(|b| lock_clean(&b.partial)).collect();",
        ] {
            assert!(acquisitions_on(line)[0].guard.is_some(), "{line}");
        }
    }

    #[test]
    fn raw_lock_calls_are_modelled_too() {
        let a = acquisitions_on("let st = shared.state.lock().unwrap();");
        assert_eq!(a[0].lock, "state");
        assert_eq!(a[0].guard.as_deref(), Some("st"));
        let a = acquisitions_on("self.queues[victim].lock().expect(\"q\").pop_front()");
        assert_eq!(a[0].lock, "queues");
    }

    #[test]
    fn binding_names_require_plain_identifiers() {
        assert_eq!(binding_name("let mut st = x;").as_deref(), Some("st"));
        assert_eq!(binding_name("let guards: Vec<G> = y;").as_deref(), Some("guards"));
        assert_eq!(binding_name("if let Some(b) = y {"), None);
        assert_eq!(binding_name("let (a, b) = y;"), None);
        assert_eq!(binding_name("st.completed += 1;"), None);
    }

    #[test]
    fn depth_delta_counts_braces_in_code_only() {
        let f = scan("fn f() { // {not code}\n}\n");
        assert_eq!(depth_delta(&f.lines[0].code), 1);
        assert_eq!(depth_delta(&f.lines[1].code), -1);
    }
}
