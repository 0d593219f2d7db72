//! Live fault injection: the typed faults behind the web demo's
//! `POST /inject` control.
//!
//! The serving front end accepts a tiny form-encoded body ("flip a bit in
//! block 2 now" is `kind=flip&block=2`) and parses it into a [`LiveFault`]
//! here — the HTTP layer stays dumb and the harness maps the typed fault
//! onto the existing injectors (a `StormTap` on the next submitted request
//! for request-scoped faults, a [`crate::ReplicaFaultSpec`] for
//! replica-scoped ones). Parsing is strict: unknown kinds and malformed
//! numbers are errors, never silently defaulted faults.

/// A fault requested over the live injection endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LiveFault {
    /// Flip one exponent bit of the VProj output of `block` on the next
    /// submitted request (transient; heals after one rollback).
    Flip {
        /// Decoder block to strike.
        block: usize,
    },
    /// Storm the VProj output of `block` on the next submitted request.
    Storm {
        /// Decoder block to strike.
        block: usize,
        /// Persistent storms never heal (the eviction drill); transient
        /// ones heal after one rollback.
        persistent: bool,
    },
    /// Crash replica `replica` at its next decode step.
    Crash {
        /// Target replica index.
        replica: usize,
    },
    /// Hang replica `replica` at its next decode step (watchdog drill).
    Hang {
        /// Target replica index.
        replica: usize,
    },
}

impl LiveFault {
    /// Parse a form-encoded injection body (`kind=flip&block=2`).
    ///
    /// Recognised keys: `kind` (required: `flip`, `storm`, `crash`,
    /// `hang`), `block` (default 0), `replica` (default 0), `persistent`
    /// (`1`/`true`, storms only). Unknown keys are ignored so the viewer
    /// form can grow fields without breaking old binaries.
    pub fn parse(body: &str) -> Result<LiveFault, String> {
        let mut kind = None;
        let mut block = 0usize;
        let mut replica = 0usize;
        let mut persistent = false;
        for pair in body.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            match k.trim() {
                "kind" => kind = Some(v.trim().to_ascii_lowercase()),
                "block" => {
                    block = v
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad block {v:?}"))?;
                }
                "replica" => {
                    replica = v
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad replica {v:?}"))?;
                }
                "persistent" => persistent = matches!(v.trim(), "1" | "true"),
                _ => {}
            }
        }
        match kind.as_deref() {
            Some("flip") => Ok(LiveFault::Flip { block }),
            Some("storm") => Ok(LiveFault::Storm { block, persistent }),
            Some("crash") => Ok(LiveFault::Crash { replica }),
            Some("hang") => Ok(LiveFault::Hang { replica }),
            Some(other) => Err(format!("unknown fault kind {other:?}")),
            None => Err("missing kind".to_string()),
        }
    }

    /// Short human-readable description, echoed in the `inject` event.
    pub fn describe(&self) -> String {
        match self {
            LiveFault::Flip { block } => format!("flip block {block}"),
            LiveFault::Storm { block, persistent } => {
                if *persistent {
                    format!("persistent storm block {block}")
                } else {
                    format!("storm block {block}")
                }
            }
            LiveFault::Crash { replica } => format!("crash replica {replica}"),
            LiveFault::Hang { replica } => format!("hang replica {replica}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_the_flip_a_bit_in_block_2_form() {
        assert_eq!(
            LiveFault::parse("kind=flip&block=2"),
            Ok(LiveFault::Flip { block: 2 })
        );
    }

    #[test]
    fn parses_defaults_and_flags() {
        assert_eq!(
            LiveFault::parse("kind=storm"),
            Ok(LiveFault::Storm { block: 0, persistent: false })
        );
        assert_eq!(
            LiveFault::parse("kind=storm&block=1&persistent=1"),
            Ok(LiveFault::Storm { block: 1, persistent: true })
        );
        assert_eq!(
            LiveFault::parse("kind=crash&replica=1"),
            Ok(LiveFault::Crash { replica: 1 })
        );
        assert_eq!(
            LiveFault::parse("kind=hang&replica=2&extra=ignored"),
            Ok(LiveFault::Hang { replica: 2 })
        );
    }

    #[test]
    fn rejects_garbage_instead_of_defaulting() {
        assert!(LiveFault::parse("").is_err());
        assert!(LiveFault::parse("block=2").is_err());
        assert!(LiveFault::parse("kind=meteor").is_err());
        assert!(LiveFault::parse("kind=flip&block=banana").is_err());
    }

    #[test]
    fn descriptions_name_the_target() {
        assert_eq!(LiveFault::Flip { block: 2 }.describe(), "flip block 2");
        assert_eq!(
            LiveFault::Storm { block: 0, persistent: true }.describe(),
            "persistent storm block 0"
        );
        assert_eq!(LiveFault::Crash { replica: 1 }.describe(), "crash replica 1");
    }

    #[test]
    fn hostile_bodies_return_ok_or_a_typed_error() {
        let huge_block = format!("kind=flip&block={}", "9".repeat(100_000));
        for body in [
            huge_block.as_str(),
            "kind=crash&replica=18446744073709551616",
            "kind=flip&block=0x",
            "///",
            "kind=flip\0&block=2",
            "kind=flip&block=\0",
            "kind=flip&block=2é",
            "kind=flip&block=é2",
            "ékind=flip",
            "kind=flip/é",
        ] {
            let result = LiveFault::parse(body);
            assert!(result.as_ref().is_err_and(|e| !e.is_empty()), "{result:?}");
        }
        // Multi-byte characters on either side of `&` and `=` in keys the
        // parser ignores leave the known keys intact.
        for body in ["é&kind=flip&é", "kind=flip&é=ü", "kind=flip&€=&=€", "ü=é&kind=flip"] {
            assert_eq!(LiveFault::parse(body), Ok(LiveFault::Flip { block: 0 }), "{body}");
        }
    }

    proptest! {
        /// Arbitrary bytes, bare or behind a valid prefix, parse to `Ok` or
        /// an error — never a panic.
        #[test]
        fn arbitrary_bodies_parse_without_panicking(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
            let raw = String::from_utf8_lossy(&bytes);
            for body in [raw.to_string(), format!("kind={raw}"), format!("kind=flip&block={raw}")] {
                match LiveFault::parse(&body) {
                    Ok(fault) => prop_assert!(!fault.describe().is_empty()),
                    Err(err) => prop_assert!(!err.is_empty()),
                }
            }
        }
    }
}
