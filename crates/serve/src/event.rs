//! The live serving event stream.
//!
//! Every decision the scheduler's recovery ladder takes — token accepted
//! (with the step's merged [`StepReport`]), rollback, KV repair, eviction,
//! completion — can be mirrored onto an [`EventSink`] as a [`ServeEvent`].
//! The sink is a plain `std::sync::mpsc` sender: emission is observation
//! only, never blocks the decode path, and silently drops events once the
//! receiver is gone, so attaching a sink cannot perturb token identity or
//! stall a lane. The web front end (`crate::web`) drains the receiving end
//! into Server-Sent Events; tests drain it directly.
//!
//! Events serialize to a stable hand-rolled JSON schema (documented in
//! DESIGN.md §3j and grepped by verify.sh): every object carries `"ev"`
//! (the kind tag), `"replica"`, and kind-specific fields. `block_hits` is
//! sparse — `[[block, hits], ...]` — so clean steps stay tiny on the wire.

use ft2_model::hooks::{AnomalyVerdict, StepReport};
use std::sync::mpsc::{Receiver, Sender};

/// One observable serving-runtime event.
#[derive(Clone, Debug)]
pub enum ServeEvent {
    /// A request left the queue and entered a lane (`resumed` tokens were
    /// replayed from a handoff prefix; 0 for fresh admissions).
    Admitted {
        /// Replica that admitted the request.
        replica: usize,
        /// Request id.
        id: u64,
        /// Handoff-prefix tokens replayed at admission.
        resumed: usize,
    },
    /// A token was accepted by the recovery ladder.
    Token {
        /// Replica that decoded the token.
        replica: usize,
        /// Request id.
        id: u64,
        /// Generation step (0 = prefill/first token).
        step: usize,
        /// The accepted token id.
        token: u32,
        /// The step's merged tap report (verdict, correction counts,
        /// per-block hits).
        report: StepReport,
        /// Nanoseconds from admission to acceptance.
        t_ns: u64,
    },
    /// A storming step was rolled back for re-decode. Carries the
    /// detecting step's report — the rolled-back token is never accepted
    /// (and so never emits a [`ServeEvent::Token`]), so this marker is
    /// where the stream learns *which blocks* a recovered fault struck.
    Rollback {
        /// Replica running the lane.
        replica: usize,
        /// Request id.
        id: u64,
        /// The step being re-decoded.
        step: usize,
        /// 0-based re-decode attempt.
        attempt: u32,
        /// The storming step's merged tap report (verdict, correction
        /// counts, per-block hits — the detection attribution).
        report: StepReport,
    },
    /// The repair rung rebuilt corrupted KV positions.
    Repair {
        /// Replica running the lane.
        replica: usize,
        /// Request id.
        id: u64,
        /// The step whose retry budget triggered the rung.
        step: usize,
        /// KV positions rebuilt from replay.
        positions: usize,
    },
    /// A request was evicted with its ladder exhausted.
    Evicted {
        /// Replica that evicted the request.
        replica: usize,
        /// Request id.
        id: u64,
        /// The step that could not be decoded cleanly.
        step: usize,
        /// Rollbacks spent on that step.
        redecodes: u32,
    },
    /// A request reached a terminal outcome.
    Completed {
        /// Replica that finished the request.
        replica: usize,
        /// Request id.
        id: u64,
        /// Terminal outcome, as a short string (`"Completed"`,
        /// `"Evicted"`, `"Rejected"`).
        outcome: &'static str,
        /// Accepted tokens.
        tokens: usize,
        /// Rollbacks across the request's lifetime.
        rollbacks: u32,
        /// Storm-verdict steps across the request's lifetime.
        storms: u32,
    },
    /// A replica health transition (emitted by the harness poll loop).
    Health {
        /// The replica whose state changed.
        replica: usize,
        /// New state, as the `Health` debug string (`"Healthy"`,
        /// `"Suspect"`, `"Quarantined"`, `"Rebuilding"`).
        state: String,
    },
    /// A fault was injected via the live control endpoint.
    Inject {
        /// Replica targeted (the submitting replica for request-scoped
        /// faults).
        replica: usize,
        /// Short description of the fault (`"flip block 2"`, ...).
        what: String,
    },
    /// The stream is closing (graceful drain) — always the final event.
    Shutdown,
}

fn verdict_str(v: AnomalyVerdict) -> &'static str {
    match v {
        AnomalyVerdict::Clean => "Clean",
        AnomalyVerdict::Corrected => "Corrected",
        AnomalyVerdict::Storm => "Storm",
    }
}

fn block_hits_json(report: &StepReport) -> String {
    let mut s = String::from("[");
    for (i, (b, h)) in report.hit_blocks().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("[{b},{h}]"));
    }
    s.push(']');
    s
}

impl ServeEvent {
    /// The SSE `event:` kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeEvent::Admitted { .. } => "admitted",
            ServeEvent::Token { .. } => "token",
            ServeEvent::Rollback { .. } => "rollback",
            ServeEvent::Repair { .. } => "repair",
            ServeEvent::Evicted { .. } => "evicted",
            ServeEvent::Completed { .. } => "completed",
            ServeEvent::Health { .. } => "health",
            ServeEvent::Inject { .. } => "inject",
            ServeEvent::Shutdown => "shutdown",
        }
    }

    /// Stable one-line JSON payload (the SSE `data:` line).
    pub fn to_json(&self) -> String {
        match self {
            ServeEvent::Admitted {
                replica,
                id,
                resumed,
            } => {
                format!(r#"{{"ev":"admitted","replica":{replica},"id":{id},"resumed":{resumed}}}"#)
            }
            ServeEvent::Token {
                replica,
                id,
                step,
                token,
                report,
                t_ns,
            } => format!(
                concat!(
                    r#"{{"ev":"token","replica":{},"id":{},"step":{},"token":{},"#,
                    r#""verdict":"{}","clamps":{},"nans":{},"block_hits":{},"t_ns":{}}}"#
                ),
                replica,
                id,
                step,
                token,
                verdict_str(report.verdict),
                report.clamps,
                report.nans,
                block_hits_json(report),
                t_ns
            ),
            ServeEvent::Rollback {
                replica,
                id,
                step,
                attempt,
                report,
            } => format!(
                concat!(
                    r#"{{"ev":"rollback","replica":{},"id":{},"step":{},"attempt":{},"#,
                    r#""verdict":"{}","clamps":{},"nans":{},"block_hits":{}}}"#
                ),
                replica,
                id,
                step,
                attempt,
                verdict_str(report.verdict),
                report.clamps,
                report.nans,
                block_hits_json(report)
            ),
            ServeEvent::Repair {
                replica,
                id,
                step,
                positions,
            } => format!(
                r#"{{"ev":"repair","replica":{replica},"id":{id},"step":{step},"positions":{positions}}}"#
            ),
            ServeEvent::Evicted {
                replica,
                id,
                step,
                redecodes,
            } => format!(
                r#"{{"ev":"evicted","replica":{replica},"id":{id},"step":{step},"redecodes":{redecodes}}}"#
            ),
            ServeEvent::Completed {
                replica,
                id,
                outcome,
                tokens,
                rollbacks,
                storms,
            } => format!(
                concat!(
                    r#"{{"ev":"completed","replica":{},"id":{},"outcome":"{}","#,
                    r#""tokens":{},"rollbacks":{},"storms":{}}}"#
                ),
                replica, id, outcome, tokens, rollbacks, storms
            ),
            ServeEvent::Health { replica, state } => {
                format!(r#"{{"ev":"health","replica":{replica},"state":"{state}"}}"#)
            }
            ServeEvent::Inject { replica, what } => {
                format!(r#"{{"ev":"inject","replica":{replica},"what":"{what}"}}"#)
            }
            ServeEvent::Shutdown => r#"{"ev":"shutdown"}"#.to_string(),
        }
    }
}

/// A cloneable, replica-tagged handle for emitting [`ServeEvent`]s.
///
/// Wraps an `mpsc::Sender`; emission never blocks and never fails loudly —
/// a disconnected receiver turns `emit` into a no-op, so instrumented
/// schedulers outlive their observers without care.
#[derive(Clone)]
pub struct EventSink {
    tx: Sender<ServeEvent>,
    replica: usize,
}

impl EventSink {
    /// A sink feeding `tx`, tagged as replica 0.
    pub fn new(tx: Sender<ServeEvent>) -> EventSink {
        EventSink { tx, replica: 0 }
    }

    /// A sink + receiver pair (convenience for tests and the web harness).
    pub fn channel() -> (EventSink, Receiver<ServeEvent>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (EventSink::new(tx), rx)
    }

    /// The same sink tagged with a different replica index.
    pub fn for_replica(&self, replica: usize) -> EventSink {
        EventSink {
            tx: self.tx.clone(),
            replica,
        }
    }

    /// The replica tag stamped on emitted events.
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// Emit an event (best-effort; a gone receiver drops it silently).
    pub fn emit(&self, ev: ServeEvent) {
        let _ = self.tx.send(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_event_json_is_stable_and_sparse() {
        let mut report = StepReport {
            clamps: 2,
            nans: 1,
            verdict: AnomalyVerdict::Storm,
            ..StepReport::default()
        };
        report.record_block_hit(2);
        report.record_block_hit(2);
        report.record_block_hit(5);
        let ev = ServeEvent::Token {
            replica: 1,
            id: 7,
            step: 3,
            token: 42,
            report,
            t_ns: 1_000,
        };
        assert_eq!(ev.kind(), "token");
        assert_eq!(
            ev.to_json(),
            r#"{"ev":"token","replica":1,"id":7,"step":3,"token":42,"verdict":"Storm","clamps":2,"nans":1,"block_hits":[[2,2],[5,1]],"t_ns":1000}"#
        );
    }

    #[test]
    fn rollback_event_carries_detection_attribution() {
        let mut report = StepReport {
            verdict: AnomalyVerdict::Storm,
            ..StepReport::default()
        };
        report.record_block_hit(2);
        let ev = ServeEvent::Rollback {
            replica: 0,
            id: 3,
            step: 5,
            attempt: 1,
            report,
        };
        assert_eq!(
            ev.to_json(),
            r#"{"ev":"rollback","replica":0,"id":3,"step":5,"attempt":1,"verdict":"Storm","clamps":0,"nans":0,"block_hits":[[2,1]]}"#
        );
    }

    #[test]
    fn clean_token_event_has_empty_block_hits() {
        let ev = ServeEvent::Token {
            replica: 0,
            id: 1,
            step: 0,
            token: 9,
            report: StepReport::default(),
            t_ns: 5,
        };
        assert!(ev.to_json().contains(r#""block_hits":[]"#));
        assert!(ev.to_json().contains(r#""verdict":"Clean""#));
    }

    #[test]
    fn marker_events_serialize_their_kind_tags() {
        let cases: Vec<(ServeEvent, &str)> = vec![
            (
                ServeEvent::Rollback {
                    replica: 0,
                    id: 1,
                    step: 4,
                    attempt: 0,
                    report: StepReport::default(),
                },
                "rollback",
            ),
            (
                ServeEvent::Repair {
                    replica: 0,
                    id: 1,
                    step: 4,
                    positions: 3,
                },
                "repair",
            ),
            (
                ServeEvent::Evicted {
                    replica: 0,
                    id: 1,
                    step: 4,
                    redecodes: 3,
                },
                "evicted",
            ),
            (
                ServeEvent::Health {
                    replica: 2,
                    state: "Quarantined".to_string(),
                },
                "health",
            ),
            (ServeEvent::Shutdown, "shutdown"),
        ];
        for (ev, kind) in cases {
            assert_eq!(ev.kind(), kind);
            assert!(ev.to_json().contains(&format!(r#""ev":"{kind}""#)));
        }
    }

    #[test]
    fn sink_tags_replica_and_survives_dropped_receiver() {
        let (sink, rx) = EventSink::channel();
        let sink1 = sink.for_replica(1);
        assert_eq!(sink1.replica(), 1);
        sink1.emit(ServeEvent::Shutdown);
        assert!(matches!(rx.recv().unwrap(), ServeEvent::Shutdown));
        drop(rx);
        sink1.emit(ServeEvent::Shutdown); // must not panic or block
    }
}
