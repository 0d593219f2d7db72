//! The no-execution shutdown proof.
//!
//! Companion to the protection-coverage proof in [`crate::coverage`], but
//! for liveness: instead of running the serving stack and hoping drain
//! terminates, we model its thread-and-channel topology declaratively and
//! check each obligation against the *source* (the [`crate::model`] scan).
//! The topology is small and closed — the pool workers, the shard
//! heartbeat monitor, the serve worker, the two web threads, and the
//! harness web-serve driver, wired by three mpsc channels — so every
//! shutdown obligation reduces to "this evidence exists in that file":
//!
//! * every spawned thread has a **wake-then-join** path on shutdown (the
//!   flag is stored *before* the condvar notify / kick connection, so the
//!   sleeper cannot re-sleep after missing the flag);
//! * every blocking receive is **bounded** (`recv_timeout`) or
//!   **non-blocking** (`try_recv`), and disconnect is handled, so a
//!   dropped `Sender` can never wedge a drain loop;
//! * every `Sender` has a reachable `Receiver` whose loop provably exits
//!   (timeout tick + stop flag, or disconnect arm), so no drop order of
//!   `Server`/`WebServer`/`EventSink` leaves a thread parked forever;
//! * queued work is **drained, not dropped** (pending requests get typed
//!   rejections, queued events get flushed before the final `shutdown`
//!   frame).
//!
//! A claim whose evidence needle disappears (someone deletes the
//! `worker.join()`) fails the proof and the lint gate — the PR 8
//! no-thread-leak guarantee, now enforced without executing anything.

use crate::model::{ScannedTree, SourceFile};
use crate::report::{json_quote, Finding, LintKind};
use std::fmt::Write as _;

/// For `Ordered` claims: how many lines after the first needle the second
/// must appear (the store→notify pairs are adjacent statements).
const ORDER_WINDOW: usize = 6;

/// One shutdown obligation checked against the source.
#[derive(Clone, Debug)]
pub struct Claim {
    /// What the evidence proves, human-readable.
    pub what: String,
    /// File the evidence must live in (root-relative).
    pub file: String,
    /// Was the evidence found?
    pub found: bool,
}

/// Proof bundle for one thread or one channel of the topology.
#[derive(Clone, Debug)]
pub struct Proof {
    /// Thread name (as passed to `Builder::name`) or channel description.
    pub name: String,
    /// Its obligations.
    pub claims: Vec<Claim>,
}

impl Proof {
    /// All obligations proved?
    pub fn ok(&self) -> bool {
        self.claims.iter().all(|c| c.found)
    }
}

/// The complete shutdown-proof verdict.
#[derive(Clone, Debug)]
pub struct ShutdownReport {
    /// Whether the proof ran (only when the scanned tree contains the
    /// serving topology; fixture trees skip it).
    pub checked: bool,
    /// Per-thread wake/join/exit proofs.
    pub threads: Vec<Proof>,
    /// Per-channel sender-reachability / bounded-receive proofs.
    pub channels: Vec<Proof>,
}

impl ShutdownReport {
    /// Vacuously true when unchecked; otherwise every claim must hold.
    pub fn ok(&self) -> bool {
        !self.checked
            || self
                .threads
                .iter()
                .chain(self.channels.iter())
                .all(Proof::ok)
    }

    /// Claims that failed.
    pub fn unproved(&self) -> usize {
        self.threads
            .iter()
            .chain(self.channels.iter())
            .flat_map(|p| p.claims.iter())
            .filter(|c| !c.found)
            .count()
    }

    /// Human-readable summary.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        if !self.checked {
            let _ = writeln!(s, "shutdown proof: skipped (tree has no serving topology)");
            return s;
        }
        let _ = writeln!(
            s,
            "shutdown proof: {} thread(s), {} channel(s), {} unproved claim(s)",
            self.threads.len(),
            self.channels.len(),
            self.unproved()
        );
        for p in self.threads.iter().chain(self.channels.iter()) {
            for c in p.claims.iter().filter(|c| !c.found) {
                let _ = writeln!(s, "  UNPROVED [{}] {} ({})", p.name, c.what, c.file);
            }
        }
        s
    }

    /// The `"shutdown"` JSON section (keys grepped by verify.sh).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"shutdown_checked\": {},", self.checked);
        let _ = writeln!(s, "  \"shutdown_ok\": {},", self.ok());
        let _ = writeln!(s, "  \"threads_proved\": {},", self.threads.iter().filter(|p| p.ok()).count());
        let _ = writeln!(s, "  \"channels_proved\": {},", self.channels.iter().filter(|p| p.ok()).count());
        s.push_str("  \"unproved\": [");
        let mut first = true;
        for p in self.threads.iter().chain(self.channels.iter()) {
            for c in p.claims.iter().filter(|c| !c.found) {
                if !first {
                    s.push(',');
                }
                first = false;
                let _ = write!(
                    s,
                    "\n    {{\"topic\": {}, \"what\": {}, \"file\": {}}}",
                    json_quote(&p.name),
                    json_quote(&c.what),
                    json_quote(&c.file)
                );
            }
        }
        if !first {
            s.push_str("\n  ");
        }
        s.push_str("]\n");
        s.push('}');
        s
    }
}

/// Evidence forms a claim can demand of a file's code channel.
enum Evidence<'a> {
    /// Some line contains the needle.
    Present(&'a str),
    /// A line contains the first needle and a line at most
    /// [`ORDER_WINDOW`] below it contains the second (store-before-notify
    /// patterns).
    Ordered(&'a str, &'a str),
}

fn find_file<'t>(tree: &'t ScannedTree, rel: &str) -> Option<&'t SourceFile> {
    tree.files.iter().find(|f| f.rel == rel)
}

fn check(tree: &ScannedTree, file: &str, ev: &Evidence<'_>) -> bool {
    let Some(f) = find_file(tree, file) else {
        return false;
    };
    let lines = &f.scanned.lines;
    match ev {
        Evidence::Present(needle) => lines.iter().any(|l| l.code.contains(needle)),
        Evidence::Ordered(a, b) => lines.iter().enumerate().any(|(i, l)| {
            l.code.contains(a)
                && lines[i + 1..=(i + ORDER_WINDOW).min(lines.len() - 1)]
                    .iter()
                    .any(|l2| l2.code.contains(b))
        }),
    }
}

fn proof(
    tree: &ScannedTree,
    name: &str,
    claims: &[(&str, &str, Evidence<'_>)],
    findings: &mut Vec<Finding>,
) -> Proof {
    let claims: Vec<Claim> = claims
        .iter()
        .map(|(what, file, ev)| {
            let found = check(tree, file, ev);
            if !found {
                findings.push(Finding {
                    lint: LintKind::ThreadLifecycle,
                    file: (*file).to_string(),
                    line: 0,
                    message: format!("shutdown proof [{name}]: no evidence that {what}"),
                });
            }
            Claim {
                what: (*what).to_string(),
                file: (*file).to_string(),
                found,
            }
        })
        .collect();
    Proof {
        name: name.to_string(),
        claims,
    }
}

/// Build the Server/Scheduler/ReplicaSet/web thread-and-channel topology
/// proof. `checked = false` (fixture trees) returns a vacuous report.
pub fn prove_shutdown(
    tree: &ScannedTree,
    checked: bool,
    findings: &mut Vec<Finding>,
) -> ShutdownReport {
    if !checked {
        return ShutdownReport {
            checked: false,
            threads: Vec::new(),
            channels: Vec::new(),
        };
    }
    use Evidence::{Ordered, Present};
    const POOL: &str = "crates/parallel/src/pool.rs";
    const HEARTBEAT: &str = "crates/parallel/src/heartbeat.rs";
    const SERVER: &str = "crates/serve/src/server.rs";
    const WEB: &str = "crates/serve/src/web.rs";
    const EVENT: &str = "crates/serve/src/event.rs";
    const WEBSERVE: &str = "crates/harness/src/webserve.rs";

    let threads = vec![
        proof(
            tree,
            "ft2-worker (pool)",
            &[
                (
                    "the shutdown flag is stored before the work condvar is notified",
                    POOL,
                    Ordered("shutdown.store(true", "work_cv.notify_all"),
                ),
                ("every worker handle is joined on drop", POOL, Present("h.join()")),
                (
                    "the worker loop observes the shutdown flag",
                    POOL,
                    Present("state.shutdown.load"),
                ),
                (
                    "a spinning worker re-reads the shutdown flag (a pool dropped mid-spin)",
                    POOL,
                    Ordered("state.shutdown.load", "spin_until(news)"),
                ),
            ],
            findings,
        ),
        proof(
            tree,
            "ft2-shard-heartbeat",
            &[
                (
                    "the monitor is flagged down before it is joined",
                    HEARTBEAT,
                    Ordered("shutdown.store(true", "h.join()"),
                ),
                (
                    "the monitor loop observes the shutdown flag",
                    HEARTBEAT,
                    Present("shutdown.load"),
                ),
                (
                    "the monitor's wait is bounded (park_timeout, never an untimed park)",
                    HEARTBEAT,
                    Present("thread::park_timeout(poll)"),
                ),
                (
                    "the dropper unparks the monitor before the join",
                    HEARTBEAT,
                    Ordered("unpark()", "h.join()"),
                ),
            ],
            findings,
        ),
        proof(
            tree,
            "serve worker",
            &[
                (
                    "the drain flag is stored before the condvar is notified",
                    SERVER,
                    Ordered("st.shutdown = true", "cv.notify_all()"),
                ),
                ("the worker is joined on stop", SERVER, Present("worker.join()")),
                (
                    "queued requests are rejected typed, not dropped",
                    SERVER,
                    Present("rejection(req)"),
                ),
                (
                    "the drain loop has an exit condition (draining and idle)",
                    SERVER,
                    Present("draining && sched.is_idle()"),
                ),
            ],
            findings,
        ),
        proof(
            tree,
            "ft2-web-accept",
            &[
                (
                    "the stop flag is stored before the kick connection",
                    WEB,
                    Ordered("stop.store(true", "TcpStream::connect"),
                ),
                ("both web threads are joined on stop", WEB, Present("h.join()")),
                ("the accept loop observes the stop flag", WEB, Present("stop.load")),
            ],
            findings,
        ),
        proof(
            tree,
            "ft2-web-broadcast",
            &[
                (
                    "the event receive is bounded (timeout tick)",
                    WEB,
                    Present("recv_timeout(TICK)"),
                ),
                (
                    "a dropped event sender exits the loop (disconnect arm)",
                    WEB,
                    Present("RecvTimeoutError::Disconnected"),
                ),
                (
                    "queued events are flushed on drain, not dropped",
                    WEB,
                    Present("try_recv()"),
                ),
                (
                    "clients get a final typed shutdown frame",
                    WEB,
                    Present("ServeEvent::Shutdown"),
                ),
            ],
            findings,
        ),
        proof(
            tree,
            "web-serve driver",
            &[(
                "the harness serve thread is joined",
                WEBSERVE,
                Present("worker.join()"),
            )],
            findings,
        ),
    ];

    let channels = vec![
        proof(
            tree,
            "serve events (ServeEvent mpsc)",
            &[
                (
                    "the sink wraps an unbounded channel (send never blocks)",
                    EVENT,
                    Present("mpsc::channel()"),
                ),
                (
                    "the receiver drains with a bounded timeout",
                    WEB,
                    Present("recv_timeout(TICK)"),
                ),
            ],
            findings,
        ),
        proof(
            tree,
            "live injects (LiveFault mpsc)",
            &[
                (
                    "a send to a gone injector is handled, not unwrapped",
                    WEB,
                    Present("injects.send(fault).is_ok()"),
                ),
                (
                    "the decode loop polls injects non-blocking",
                    WEBSERVE,
                    Present("inject_rx.try_recv()"),
                ),
            ],
            findings,
        ),
        proof(
            tree,
            "bound-address handshake (mpsc)",
            &[(
                "the address wait is bounded (30 s timeout)",
                WEBSERVE,
                Present(".recv_timeout(Duration::from_secs(30))"),
            )],
            findings,
        ),
    ];

    ShutdownReport {
        checked: true,
        threads,
        channels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::model::SourceFile;

    fn tree(files: &[(&str, &str)]) -> ScannedTree {
        ScannedTree {
            files: files
                .iter()
                .map(|(rel, src)| SourceFile {
                    rel: rel.to_string(),
                    scanned: scan(src),
                })
                .collect(),
        }
    }

    #[test]
    fn unchecked_report_is_vacuously_ok() {
        let t = tree(&[("src/main.rs", "fn main() {}\n")]);
        let mut f = Vec::new();
        let rep = prove_shutdown(&t, false, &mut f);
        assert!(!rep.checked && rep.ok() && f.is_empty());
        assert!(rep.to_json().contains("\"shutdown_checked\": false"));
    }

    #[test]
    fn missing_evidence_fails_the_proof_with_findings() {
        let t = tree(&[("src/main.rs", "fn main() {}\n")]);
        let mut f = Vec::new();
        let rep = prove_shutdown(&t, true, &mut f);
        assert!(rep.checked && !rep.ok());
        assert!(rep.unproved() > 0);
        assert_eq!(f.len(), rep.unproved());
        assert!(f.iter().all(|x| x.lint == LintKind::ThreadLifecycle));
        assert!(rep.to_json().contains("\"shutdown_ok\": false"));
    }

    #[test]
    fn ordered_evidence_requires_the_right_sequence() {
        let good = tree(&[(
            "a.rs",
            "fn stop() {\n    flag.store(true, SeqCst);\n    cv.notify_all();\n}\n",
        )]);
        assert!(check(&good, "a.rs", &Evidence::Ordered("store(true", "notify_all")));
        let bad = tree(&[(
            "a.rs",
            "fn stop() {\n    cv.notify_all();\n    flag.store(true, SeqCst);\n}\n",
        )]);
        assert!(!check(&bad, "a.rs", &Evidence::Ordered("store(true", "notify_all")));
    }

    #[test]
    fn evidence_matches_code_channel_only() {
        let t = tree(&[("a.rs", "// worker.join() someday\nlet s = \"worker.join()\";\n")]);
        assert!(!check(&t, "a.rs", &Evidence::Present("worker.join()")));
    }
}
