//! The five concurrency-soundness lints over the scanned tree.
//!
//! FT2's recovery ladder runs concurrently with serving, so a deadlock, a
//! guard held across a blocking call, a leaked thread, a poison-aborted
//! lock, or silently nondeterministic iteration is itself a DUE the fault
//! injector never prices. These lints make the concurrency invariants
//! CI-enforced theorems over the [`crate::model`] source model:
//!
//! * **lock-order** — every nested lock acquisition is an edge in the
//!   cross-crate lock-acquisition graph; edges must be strictly
//!   rank-increasing per the central `ft2_parallel::LOCK_REGISTRY`
//!   (passed in through [`crate::lints::LintConfig::locks`]), nested
//!   acquisitions of unregistered locks need `// ft2: lock-ok (<why>)`,
//!   and any cycle in the graph is a potential deadlock — not
//!   annotatable away.
//! * **hold-across-blocking** — a live guard across `.recv()`/`.join()`/
//!   socket writes/`thread::sleep` stalls every sibling of that lock;
//!   `Condvar::wait` on the *guard's own* mutex is exempt (it releases
//!   the lock), others need `// ft2: blocking-ok (<why>)` at the
//!   acquisition.
//! * **thread-lifecycle** — every `thread::spawn`/`Builder::spawn` site
//!   must have a `.join()` in the same file (drain/shutdown joins it) or
//!   carry `// ft2: detached (<reason>)`; scoped spawns join
//!   structurally and are exempt.
//! * **poisoned-lock** — `lock().unwrap()`-style sites abort the process
//!   once any batchmate panicked inside the critical section; use
//!   `ft2_parallel::lock_clean`/`wait_clean` or justify with
//!   `// ft2: poison-fatal (<why>)`.
//! * **nondeterminism** — unordered `HashMap`/`HashSet` iteration and
//!   wall-clock (`SystemTime::now`) logic are banned in
//!   decode/campaign/replay modules ([`DETERMINISM_MODULES`]):
//!   bit-identity is a detection primitive here, so iteration order is
//!   correctness, not style. `Instant::now` (monotonic, metrics-only) is
//!   allowed. Escape hatch: `// ft2: det-ok (<why>)`.

use crate::lexer::Line;
use crate::lints::LintConfig;
use crate::model::{acquisitions_on, binding_name, depth_delta, is_spawn_line, ScannedTree};
use crate::report::{json_quote, Finding, LintKind};
use crate::shutdown::{prove_shutdown, ShutdownReport};
use std::fmt::Write as _;

/// Decode/campaign/replay path prefixes where the nondeterminism lint
/// applies: everything whose output feeds token bit-identity, fault
/// classification, or replay.
pub const DETERMINISM_MODULES: &[&str] = &[
    "crates/tensor/src/",
    "crates/model/src/",
    "crates/core/src/",
    "crates/fault/src/",
    "crates/serve/src/",
];

/// Annotation window (lines above, inclusive of the site line) for the
/// `lock-ok` / `blocking-ok` / `poison-fatal` / `det-ok` escapes.
const ANNOTATION_WINDOW: usize = 3;
/// How far below a spawn the `// ft2: detached` annotation may sit.
const DETACHED_WINDOW_AFTER: usize = 1;
/// How many lines back a `thread::Builder` makes a `.spawn(` a thread
/// spawn.
const BUILDER_LOOKBACK: usize = 3;

/// A registered lock with its global acquisition rank (the analyzer-side
/// mirror of one `ft2_parallel::LockSpec` row, kept as owned data so
/// fixture trees can declare their own registries).
#[derive(Clone, Debug)]
pub struct RankedLock {
    /// Lock field name (the key acquisitions resolve to).
    pub name: String,
    /// Acquisition rank; nested acquisitions must strictly increase.
    pub rank: u32,
    /// Defining module, for the report.
    pub site: String,
}

/// One edge of the lock-acquisition graph: `to` acquired while `from` was
/// held, first observed at `file:line`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock already held.
    pub from: String,
    /// Lock acquired under it.
    pub to: String,
    /// File of the first observed acquisition.
    pub file: String,
    /// 1-based line of the first observed acquisition.
    pub line: usize,
}

/// The machine-readable half of the concurrency pass: the acquisition
/// graph plus the shutdown proof.
#[derive(Clone, Debug)]
pub struct ConcurrencyReport {
    /// The declared registry (name, rank, site), rank-sorted.
    pub nodes: Vec<RankedLock>,
    /// Observed nested acquisitions, deduplicated by (from, to).
    pub edges: Vec<LockEdge>,
    /// Cycles in the acquisition graph (potential deadlocks).
    pub cycles: usize,
    /// The no-execution shutdown proof.
    pub shutdown: ShutdownReport,
}

impl ConcurrencyReport {
    /// No deadlock potential and the shutdown proof holds.
    pub fn ok(&self) -> bool {
        self.cycles == 0 && self.shutdown.ok()
    }

    /// Human-readable summary (appended to the CLI lint output).
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "lock graph: {} registered lock(s), {} nested-acquisition edge(s), {} cycle(s)",
            self.nodes.len(),
            self.edges.len(),
            self.cycles
        );
        for e in &self.edges {
            let _ = writeln!(s, "  {} -> {}  ({}:{})", e.from, e.to, e.file, e.line);
        }
        s.push_str(&self.shutdown.render_text());
        s
    }

    /// The `"concurrency"` section of the schema-stable JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"lock_nodes\": [");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"name\": {}, \"rank\": {}, \"site\": {}}}",
                json_quote(&n.name),
                n.rank,
                json_quote(&n.site)
            );
        }
        if !self.nodes.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");
        s.push_str("  \"lock_edges\": [");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"from\": {}, \"to\": {}, \"file\": {}, \"line\": {}}}",
                json_quote(&e.from),
                json_quote(&e.to),
                json_quote(&e.file),
                e.line
            );
        }
        if !self.edges.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");
        let _ = writeln!(s, "  \"lock_cycles\": {},", self.cycles);
        s.push_str("  \"shutdown\": ");
        s.push_str(&crate::report::indent_tail(&self.shutdown.to_json(), 2));
        s.push('\n');
        s.push('}');
        s
    }
}

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

/// Poison-aborting lock/wait forms.
const POISON_PATTERNS: &[&str] = &[
    ".lock().unwrap()",
    ".lock().expect(",
    ".read().unwrap()",
    ".read().expect(",
    ".write().unwrap()",
    ".write().expect(",
];

/// Nondeterminism sources banned in [`DETERMINISM_MODULES`]. Checked as
/// whole words except the call forms.
const NONDET_WORDS: &[&str] = &["HashMap", "HashSet"];
const NONDET_CALLS: &[&str] = &["SystemTime::now"];

/// Run all five lints plus the shutdown proof over the scanned tree.
pub fn run_concurrency(tree: &ScannedTree, cfg: &LintConfig) -> (Vec<Finding>, ConcurrencyReport) {
    let mut findings = Vec::new();
    let mut edges: Vec<LockEdge> = Vec::new();
    for file in &tree.files {
        lint_file(file, cfg, &mut findings, &mut edges);
    }
    let cycle_list = cycle_descriptions(&edges);
    let cycles = cycle_list.len();
    for cyc in cycle_list {
        findings.push(Finding {
            lint: LintKind::LockOrder,
            file: cyc.1,
            line: cyc.2,
            message: format!(
                "potential deadlock: lock-acquisition cycle {} — no rank assignment \
                 can order it; restructure so one lock is released first",
                cyc.0
            ),
        });
    }
    let shutdown = prove_shutdown(tree, cfg.check_shutdown, &mut findings);
    let report = ConcurrencyReport {
        nodes: cfg.locks.clone(),
        edges,
        cycles,
        shutdown,
    };
    (findings, report)
}

fn annotated(lines: &[Line], i: usize, needle: &str) -> bool {
    let lo = i.saturating_sub(ANNOTATION_WINDOW);
    lines[lo..=i].iter().any(|l| l.comment.contains(needle))
}

fn rank_of(cfg: &LintConfig, name: &str) -> Option<u32> {
    cfg.locks.iter().find(|l| l.name == name).map(|l| l.rank)
}

fn lint_file(
    file: &crate::model::SourceFile,
    cfg: &LintConfig,
    findings: &mut Vec<Finding>,
    edges: &mut Vec<LockEdge>,
) {
    let rel = &file.rel;
    let lines = &file.scanned.lines;
    let det_module = cfg.det_modules.iter().any(|m| rel.contains(m.as_str()));
    let file_has_join = lines.iter().any(|l| l.code.contains(".join()"));

    let mut live: Vec<LiveGuard> = Vec::new();
    let mut depth: i32 = 0;
    for (i, line) in lines.iter().enumerate() {
        let code = &line.code;

        // --- lock-order: nested acquisitions form graph edges. ---
        let acqs = acquisitions_on(code);
        for (ai, acq) in acqs.iter().enumerate() {
            let mut holders: Vec<&str> = live.iter().map(|g| g.lock.as_str()).collect();
            // Several temporaries on one line nest left-to-right.
            holders.extend(acqs[..ai].iter().map(|a| a.lock.as_str()));
            for held in holders {
                if held == acq.lock {
                    continue; // same-rank siblings, index-ordered by convention
                }
                if !edges.iter().any(|e| e.from == held && e.to == acq.lock) {
                    edges.push(LockEdge {
                        from: held.to_string(),
                        to: acq.lock.clone(),
                        file: rel.clone(),
                        line: i + 1,
                    });
                }
                match (rank_of(cfg, held), rank_of(cfg, &acq.lock)) {
                    (Some(rf), Some(rt)) => {
                        if rf >= rt {
                            findings.push(Finding {
                                lint: LintKind::LockOrder,
                                file: rel.clone(),
                                line: i + 1,
                                message: format!(
                                    "lock `{}` (rank {rt}) acquired while `{held}` (rank {rf}) \
                                     is held — violates the declared LOCK_REGISTRY order; \
                                     acquire in increasing rank or release `{held}` first",
                                    acq.lock
                                ),
                            });
                        }
                    }
                    _ => {
                        if !annotated(lines, i, "ft2: lock-ok") {
                            findings.push(Finding {
                                lint: LintKind::LockOrder,
                                file: rel.clone(),
                                line: i + 1,
                                message: format!(
                                    "nested acquisition of unregistered lock(s) \
                                     (`{held}` -> `{}`): declare both in \
                                     ft2_parallel::LOCK_REGISTRY or annotate \
                                     `// ft2: lock-ok (<why>)`",
                                    acq.lock
                                ),
                            });
                        }
                    }
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
                if wait_here && blocked.is_none() && word_on_line(code, &g.name) {
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

        // --- thread-lifecycle. ---
        if is_spawn_line(lines, i, BUILDER_LOOKBACK) {
            let lo = i.saturating_sub(ANNOTATION_WINDOW);
            let hi = i + DETACHED_WINDOW_AFTER;
            let detached = lines[lo..=hi.min(lines.len() - 1)]
                .iter()
                .any(|l| l.comment.contains("ft2: detached"));
            if !file_has_join && !detached {
                findings.push(Finding {
                    lint: LintKind::ThreadLifecycle,
                    file: rel.clone(),
                    line: i + 1,
                    message: "spawned thread is never joined in this file: join it on \
                              drain/shutdown (the no-thread-leak guarantee) or annotate \
                              `// ft2: detached (<reason>)`"
                        .to_string(),
                });
            }
        }

        // --- poisoned-lock. ---
        let wait_poison =
            wait_here && (code.contains(").unwrap()") || code.contains(").expect("));
        let mut poison_hit = POISON_PATTERNS.iter().find(|p| code.contains(**p)).copied();
        if poison_hit.is_none() && wait_poison {
            poison_hit = Some(".wait(...).unwrap()");
        }
        if let Some(pat) = poison_hit {
            if !annotated(lines, i, "ft2: poison-fatal") {
                findings.push(Finding {
                    lint: LintKind::PoisonedLock,
                    file: rel.clone(),
                    line: i + 1,
                    message: format!(
                        "`{pat}` aborts on a poisoned lock, turning one panicked \
                         batchmate into a whole-runtime outage; use \
                         ft2_parallel::lock_clean/wait_clean or annotate \
                         `// ft2: poison-fatal (<why>)`"
                    ),
                });
            }
        }

        // --- nondeterminism. ---
        if det_module {
            let hit = NONDET_WORDS
                .iter()
                .find(|w| crate::lints::contains_word(code, w))
                .or_else(|| NONDET_CALLS.iter().find(|c| code.contains(**c)));
            if let Some(hit) = hit {
                if !annotated(lines, i, "ft2: det-ok") {
                    findings.push(Finding {
                        lint: LintKind::Nondeterminism,
                        file: rel.clone(),
                        line: i + 1,
                        message: format!(
                            "`{}` in a bit-identity-critical module: unordered \
                             iteration / wall-clock input makes decode, campaign, \
                             and replay paths nondeterministic; use an ordered \
                             structure (BTreeMap/BTreeSet), a seeded source, or \
                             annotate `// ft2: det-ok (<why>)`",
                            hit.trim_end_matches('(')
                        ),
                    });
                }
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

/// Is `word` present as a standalone identifier on the line?
fn word_on_line(code: &str, word: &str) -> bool {
    crate::lints::contains_word(code, word)
}

/// `(description, file, line)` per cycle found, deterministic order.
/// Self-edges are never created, so every cycle involves ≥ 2 locks.
fn cycle_descriptions(edges: &[LockEdge]) -> Vec<(String, String, usize)> {
    let mut nodes: Vec<&str> = Vec::new();
    for e in edges {
        for n in [e.from.as_str(), e.to.as_str()] {
            if !nodes.contains(&n) {
                nodes.push(n);
            }
        }
    }
    // Tiny graphs: simple DFS cycle detection per node, reporting each
    // cycle once by its lexicographically-smallest member.
    let mut out = Vec::new();
    let mut reported: Vec<String> = Vec::new();
    for &start in &nodes {
        let mut stack = vec![(start, vec![start.to_string()])];
        let mut found: Option<Vec<String>> = None;
        while let Some((cur, path)) = stack.pop() {
            for e in edges.iter().filter(|e| e.from == cur) {
                if e.to == start {
                    let mut cyc = path.clone();
                    cyc.push(start.to_string());
                    if found.is_none() {
                        found = Some(cyc);
                    }
                } else if !path.contains(&e.to) {
                    let mut p = path.clone();
                    p.push(e.to.clone());
                    stack.push((e.to.as_str(), p));
                }
            }
        }
        if let Some(cyc) = found {
            let mut members = cyc.clone();
            members.sort();
            members.dedup();
            let key = members.join(",");
            if !reported.contains(&key) {
                reported.push(key);
                let site = edges
                    .iter()
                    .find(|e| e.from == cyc[0] && e.to == cyc[1])
                    .map(|e| (e.file.clone(), e.line))
                    .unwrap_or_default();
                out.push((cyc.join(" -> "), site.0, site.1));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::model::{ScannedTree, SourceFile};

    fn tree_of(rel: &str, src: &str) -> ScannedTree {
        ScannedTree {
            files: vec![SourceFile {
                rel: rel.to_string(),
                scanned: scan(src),
            }],
        }
    }

    fn cfg() -> LintConfig {
        LintConfig {
            root: std::path::PathBuf::from("."),
            knobs: vec![],
            readme: None,
            nan_modules: vec![],
            zero_skip_modules: vec![],
            check_knob_used: false,
            locks: vec![
                RankedLock {
                    name: "a_lock".into(),
                    rank: 1,
                    site: "a.rs".into(),
                },
                RankedLock {
                    name: "b_lock".into(),
                    rank: 2,
                    site: "b.rs".into(),
                },
            ],
            det_modules: vec!["crates/core/src/".into()],
            check_shutdown: false,
        }
    }

    fn run(rel: &str, src: &str) -> (Vec<Finding>, ConcurrencyReport) {
        run_concurrency(&tree_of(rel, src), &cfg())
    }

    #[test]
    fn rank_ordered_nesting_passes_and_builds_the_graph() {
        let src = "fn f(s: &S) {\n    let a = lock_clean(&s.a_lock);\n    let b = lock_clean(&s.b_lock);\n    g(*a, *b);\n}\n";
        let (f, rep) = run("x.rs", src);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(rep.edges.len(), 1);
        assert_eq!(rep.edges[0].from, "a_lock");
        assert_eq!(rep.edges[0].to, "b_lock");
        assert_eq!(rep.cycles, 0);
    }

    #[test]
    fn rank_inversion_is_a_lock_order_finding() {
        let src = "fn f(s: &S) {\n    let b = lock_clean(&s.b_lock);\n    let a = lock_clean(&s.a_lock);\n    g(*a, *b);\n}\n";
        let (f, _) = run("x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, LintKind::LockOrder);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn acquisition_cycle_is_a_deadlock_finding() {
        let src = "fn f(s: &S) {\n    let a = lock_clean(&s.a_lock);\n    let b = lock_clean(&s.b_lock);\n    drop(a);\n    drop(b);\n}\nfn g(s: &S) {\n    // ft2: lock-ok (test)\n    let b = lock_clean(&s.b_lock);\n    // ft2: lock-ok (test)\n    let a = lock_clean(&s.a_lock);\n    h(*a, *b);\n}\n";
        let (f, rep) = run("x.rs", src);
        assert_eq!(rep.cycles, 1);
        assert!(f
            .iter()
            .any(|x| x.lint == LintKind::LockOrder && x.message.contains("cycle")));
    }

    #[test]
    fn guard_scope_ends_with_its_block_and_on_drop() {
        // b_lock taken after a_lock's block closed: no nesting, no edge.
        let src = "fn f(s: &S) {\n    {\n        let a = lock_clean(&s.a_lock);\n        g(*a);\n    }\n    let b = lock_clean(&s.b_lock);\n    g(*b);\n}\n";
        let (f, rep) = run("x.rs", src);
        assert!(f.is_empty());
        assert!(rep.edges.is_empty());

        let src = "fn f(s: &S) {\n    let b = lock_clean(&s.b_lock);\n    drop(b);\n    let a = lock_clean(&s.a_lock);\n    g(*a);\n}\n";
        let (f, rep) = run("x.rs", src);
        assert!(f.is_empty(), "{f:?}");
        assert!(rep.edges.is_empty());
    }

    #[test]
    fn conditional_drop_at_deeper_depth_keeps_the_guard_live() {
        let src = "fn f(s: &S) {\n    let b = lock_clean(&s.b_lock);\n    if cond {\n        drop(b);\n    }\n    let a = lock_clean(&s.a_lock);\n    g(*a);\n}\n";
        let (f, _) = run("x.rs", src);
        assert_eq!(f.len(), 1, "conditional drop must not end liveness: {f:?}");
        assert_eq!(f[0].lint, LintKind::LockOrder);
    }

    #[test]
    fn nested_unregistered_lock_needs_lock_ok() {
        let src = "fn f(s: &S) {\n    let a = lock_clean(&s.a_lock);\n    let m = lock_clean(&s.mystery);\n    g(*a, *m);\n}\n";
        let (f, _) = run("x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("unregistered"));

        let src = "fn f(s: &S) {\n    let a = lock_clean(&s.a_lock);\n    // ft2: lock-ok (mystery is task-local)\n    let m = lock_clean(&s.mystery);\n    g(*a, *m);\n}\n";
        let (f, _) = run("x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn lone_unregistered_lock_is_fine() {
        let src = "fn f() {\n    let m = Mutex::new(0);\n    let g = lock_clean(&m);\n    h(*g);\n}\n";
        let (f, rep) = run("x.rs", src);
        assert!(f.is_empty(), "{f:?}");
        assert!(rep.edges.is_empty());
    }

    #[test]
    fn guard_across_recv_is_flagged_unless_annotated() {
        let src = "fn f(s: &S, rx: &Receiver<u32>) {\n    let g = lock_clean(&s.a_lock);\n    let v = rx.recv().unwrap_or(0);\n    h(*g + v);\n}\n";
        let (f, _) = run("x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, LintKind::HoldAcrossBlocking);
        assert_eq!(f[0].line, 3);

        let src = "fn f(s: &S, rx: &Receiver<u32>) {\n    // ft2: blocking-ok (receiver is pre-filled)\n    let g = lock_clean(&s.a_lock);\n    let v = rx.recv().unwrap_or(0);\n    h(*g + v);\n}\n";
        let (f, _) = run("x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn condvar_wait_on_own_guard_is_exempt() {
        let src = "fn f(s: &S) {\n    let mut g = lock_clean(&s.a_lock);\n    while !*g {\n        g = wait_clean(&s.cv, g);\n    }\n    h(*g);\n}\n";
        let (f, _) = run("x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unjoined_spawn_is_flagged_unless_detached() {
        let src = "fn f() {\n    std::thread::spawn(|| work());\n}\n";
        let (f, _) = run("x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, LintKind::ThreadLifecycle);

        let src = "fn f() {\n    // ft2: detached (fire-and-forget logger)\n    std::thread::spawn(|| work());\n}\n";
        let (f, _) = run("x.rs", src);
        assert!(f.is_empty(), "{f:?}");

        let src = "fn f() {\n    let h = std::thread::spawn(|| work());\n    h.join().unwrap();\n}\n";
        let (f, _) = run("x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn poisoning_unwrap_needs_lock_clean_or_proof() {
        let src = "fn f(s: &S) -> u32 {\n    *s.a_lock.lock().unwrap()\n}\n";
        let (f, _) = run("x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, LintKind::PoisonedLock);

        let src = "fn f(s: &S) -> u32 {\n    // ft2: poison-fatal (state invalid after panic)\n    *s.a_lock.lock().unwrap()\n}\n";
        let (f, _) = run("x.rs", src);
        assert!(f.is_empty(), "{f:?}");

        let src = "fn f(s: &S, g: G) {\n    let g2 = s.cv.wait(g).unwrap();\n    h(g2);\n}\n";
        let (f, _) = run("x.rs", src);
        assert!(f.iter().any(|x| x.lint == LintKind::PoisonedLock), "{f:?}");
    }

    #[test]
    fn nondeterminism_only_bites_in_det_modules() {
        let src = "fn f() {\n    let m = std::collections::HashMap::new();\n    g(m);\n}\n";
        let (f, _) = run("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, LintKind::Nondeterminism);

        let (f, _) = run("crates/harness/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");

        let src = "fn f() {\n    // ft2: det-ok (iteration order unused — len only)\n    let m = std::collections::HashMap::new();\n    g(m.len());\n}\n";
        let (f, _) = run("crates/core/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn instant_now_is_allowed_in_det_modules() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n    g(t.elapsed());\n}\n";
        let (f, _) = run("crates/serve/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn concurrency_json_has_the_grepped_keys() {
        let (_, rep) = run("x.rs", "fn f() {}\n");
        let j = rep.to_json();
        for key in ["\"lock_nodes\"", "\"lock_edges\"", "\"lock_cycles\": 0", "\"shutdown\""] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }
}
