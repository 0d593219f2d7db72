//! The two lock lints over the scanned tree.
//!
//! FT2's recovery ladder runs concurrently with serving, so a deadlock or a
//! guard held across a blocking call is itself a DUE the fault injector
//! never prices. Both lints read the guard-scope model of [`crate::model`],
//! which is what a type checker does not give:
//!
//! * **lock-order** — no lock is taken while a *different* lock is held.
//!   The workspace has no nested acquisition, so there is no order to
//!   declare; a deliberate one carries `// ft2: lock-ok (<why>)` on, or up
//!   to three lines above, the inner acquisition, and the note says why
//!   no path takes the two locks the other way round. Same-name siblings
//!   (the per-worker `queues` deques) are taken one at a time by
//!   convention and are not compared.
//! * **hold-across-blocking** — a live guard across `.recv()`/`.join()`/
//!   socket writes/`thread::sleep` stalls every sibling of that lock;
//!   `Condvar::wait` on the *guard's own* mutex is exempt (it releases
//!   the lock), others need `// ft2: blocking-ok (<why>)` at the
//!   acquisition.

use crate::lexer::Line;
use crate::lints::contains_word;
use crate::model::{acquisitions_on, binding_name, depth_delta, ScannedTree, SourceFile};
use crate::report::{Finding, LintKind};

/// Annotation window (lines above, inclusive of the site line) for the
/// `lock-ok` / `blocking-ok` escapes.
const ANNOTATION_WINDOW: usize = 3;

/// A guard currently live while walking a file.
struct LiveGuard {
    lock: String,
    name: String,
    depth: i32,
    /// Acquisition carried `// ft2: blocking-ok`.
    blocking_ok: bool,
}

/// Calls that park the current thread. `Condvar::wait` is handled
/// separately (it releases the waited-on guard's own lock).
const BLOCKING_PATTERNS: &[&str] = &[
    ".recv()",
    ".recv_timeout(",
    ".join()",
    ".write_all(",
    ".flush()",
    ".read_line(",
    ".read_exact(",
    ".read_to_string(",
    "thread::sleep",
    ".accept()",
    "TcpStream::connect",
];

/// `Condvar` wait forms: blocking for every live guard *except* the one
/// being waited on (which the wait releases).
const WAIT_PATTERNS: &[&str] = &[".wait(", ".wait_timeout(", "wait_clean("];

/// Run both lock lints over the scanned tree.
pub fn run_concurrency(tree: &ScannedTree) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &tree.files {
        lint_file(file, &mut findings);
    }
    findings
}

fn annotated(lines: &[Line], i: usize, needle: &str) -> bool {
    let lo = i.saturating_sub(ANNOTATION_WINDOW);
    lines[lo..=i].iter().any(|l| l.comment.contains(needle))
}

fn lint_file(file: &SourceFile, findings: &mut Vec<Finding>) {
    let rel = &file.rel;
    let lines = &file.scanned.lines;
    let mut live: Vec<LiveGuard> = Vec::new();
    let mut depth: i32 = 0;
    for (i, line) in lines.iter().enumerate() {
        let code = &line.code;

        // --- lock-order: no acquisition under a different held lock. ---
        let acqs = acquisitions_on(code);
        for (ai, acq) in acqs.iter().enumerate() {
            // Several temporaries on one line nest left-to-right.
            let held = live
                .iter()
                .map(|g| g.lock.as_str())
                .chain(acqs[..ai].iter().map(|a| a.lock.as_str()))
                .find(|held| *held != acq.lock);
            if let Some(held) = held {
                if !annotated(lines, i, "ft2: lock-ok") {
                    findings.push(Finding {
                        lint: LintKind::LockOrder,
                        file: rel.clone(),
                        line: i + 1,
                        message: format!(
                            "lock `{}` acquired while `{held}` is held: release \
                             `{held}` first, or annotate `// ft2: lock-ok (<why>)` \
                             saying why no path nests them the other way round",
                            acq.lock
                        ),
                    });
                }
            }
        }

        // --- guard bookkeeping: new named guards become live. ---
        let blocking_ok = annotated(lines, i, "ft2: blocking-ok");
        for acq in &acqs {
            if let Some(name) = &acq.guard {
                live.retain(|g| g.name != *name); // shadowing rebind
                live.push(LiveGuard {
                    lock: acq.lock.clone(),
                    name: name.clone(),
                    depth,
                    blocking_ok,
                });
            }
        }

        // --- hold-across-blocking. ---
        let wait_here = WAIT_PATTERNS.iter().any(|p| code.contains(p));
        let blocked = BLOCKING_PATTERNS.iter().find(|p| code.contains(**p));
        if blocked.is_some() || wait_here {
            let temp_held = acqs.iter().any(|a| a.guard.is_none());
            for g in &live {
                if g.blocking_ok {
                    continue;
                }
                // A wait releases the guard it is given; exempt guards
                // named on the line (the waited-on one).
                if wait_here && blocked.is_none() && contains_word(code, &g.name) {
                    continue;
                }
                findings.push(Finding {
                    lint: LintKind::HoldAcrossBlocking,
                    file: rel.clone(),
                    line: i + 1,
                    message: format!(
                        "guard `{}` (lock `{}`) is live across a blocking call \
                         (`{}`): every sibling of that lock stalls behind it; \
                         release the guard first or annotate the acquisition \
                         `// ft2: blocking-ok (<why>)`",
                        g.name,
                        g.lock,
                        blocked.copied().unwrap_or(".wait(")
                    ),
                });
            }
            if temp_held && blocked.is_some() && !blocking_ok {
                findings.push(Finding {
                    lint: LintKind::HoldAcrossBlocking,
                    file: rel.clone(),
                    line: i + 1,
                    message: format!(
                        "temporary lock guard on the same line as a blocking call \
                         (`{}`); split the statement or annotate \
                         `// ft2: blocking-ok (<why>)`",
                        blocked.copied().unwrap_or("")
                    ),
                });
            }
        }

        // --- scope bookkeeping. ---
        if let Some(rest) = code.trim_start().strip_prefix("drop(") {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            let d = depth;
            live.retain(|g| !(g.name == name && g.depth == d));
        }
        // A plain `let name = …;` rebinding (without an acquisition)
        // shadows and thereby drops a live guard of the same name.
        if let Some(name) = binding_name(code) {
            if acqs.iter().all(|a| a.guard.as_deref() != Some(&name)) {
                live.retain(|g| g.name != name);
            }
        }
        depth += depth_delta(code);
        live.retain(|g| g.depth <= depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn run(src: &str) -> Vec<Finding> {
        run_concurrency(&ScannedTree {
            files: vec![SourceFile {
                rel: "x.rs".to_string(),
                scanned: scan(src),
            }],
        })
    }

    #[test]
    fn acquisition_cycle_is_a_deadlock_finding() {
        // Each half of an a→b / b→a cycle nests two locks, so each is a
        // finding of its own: the cycle cannot form unannotated.
        let src = "fn f(s: &S) {\n    let a = lock_clean(&s.a_lock);\n    let b = lock_clean(&s.b_lock);\n    drop(a);\n    drop(b);\n}\nfn g(s: &S) {\n    let b = lock_clean(&s.b_lock);\n    let a = lock_clean(&s.a_lock);\n    h(*a, *b);\n}\n";
        let f = run(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.lint == LintKind::LockOrder));
        assert_eq!((f[0].line, f[1].line), (3, 9));
    }

    #[test]
    fn guard_scope_ends_with_its_block_and_on_drop() {
        // b_lock taken after a_lock's block closed: no nesting.
        let src = "fn f(s: &S) {\n    {\n        let a = lock_clean(&s.a_lock);\n        g(*a);\n    }\n    let b = lock_clean(&s.b_lock);\n    g(*b);\n}\n";
        assert!(run(src).is_empty());

        let src = "fn f(s: &S) {\n    let b = lock_clean(&s.b_lock);\n    drop(b);\n    let a = lock_clean(&s.a_lock);\n    g(*a);\n}\n";
        let f = run(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn conditional_drop_at_deeper_depth_keeps_the_guard_live() {
        let src = "fn f(s: &S) {\n    let b = lock_clean(&s.b_lock);\n    if cond {\n        drop(b);\n    }\n    let a = lock_clean(&s.a_lock);\n    g(*a);\n}\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "conditional drop must not end liveness: {f:?}");
        assert_eq!(f[0].lint, LintKind::LockOrder);
    }

    #[test]
    fn nested_unregistered_lock_needs_lock_ok() {
        let src = "fn f(s: &S) {\n    let a = lock_clean(&s.a_lock);\n    let m = lock_clean(&s.mystery);\n    g(*a, *m);\n}\n";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
        assert!(f[0]
            .message
            .contains("`mystery` acquired while `a_lock` is held"));

        let src = "fn f(s: &S) {\n    let a = lock_clean(&s.a_lock);\n    // ft2: lock-ok (mystery is task-local)\n    let m = lock_clean(&s.mystery);\n    g(*a, *m);\n}\n";
        let f = run(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn lone_unregistered_lock_is_fine() {
        let src =
            "fn f() {\n    let m = Mutex::new(0);\n    let g = lock_clean(&m);\n    h(*g);\n}\n";
        let f = run(src);
        assert!(f.is_empty(), "{f:?}");
        // Same-name siblings taken one after the other are not compared.
        let src = "fn f(s: &S) {\n    let a = lock_clean(&s.queues[0]);\n    let b = lock_clean(&s.queues[1]);\n    h(*a, *b);\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn guard_across_recv_is_flagged_unless_annotated() {
        let src = "fn f(s: &S, rx: &Receiver<u32>) {\n    let g = lock_clean(&s.a_lock);\n    let v = rx.recv().unwrap_or(0);\n    h(*g + v);\n}\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, LintKind::HoldAcrossBlocking);
        assert_eq!(f[0].line, 3);

        let src = "fn f(s: &S, rx: &Receiver<u32>) {\n    // ft2: blocking-ok (receiver is pre-filled)\n    let g = lock_clean(&s.a_lock);\n    let v = rx.recv().unwrap_or(0);\n    h(*g + v);\n}\n";
        let f = run(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn condvar_wait_on_own_guard_is_exempt() {
        let src = "fn f(s: &S) {\n    let mut g = lock_clean(&s.a_lock);\n    while !*g {\n        g = wait_clean(&s.cv, g);\n    }\n    h(*g);\n}\n";
        let f = run(src);
        assert!(f.is_empty(), "{f:?}");
    }
}
