//! Campaign checkpointing: crash-safe persistence of partial results.
//!
//! A full campaign (`inputs × trials` generations) can run for hours; an
//! OOM-kill or a pre-empted node should not forfeit the completed work. The
//! campaign engine therefore persists, every `CheckpointPolicy::every`
//! tasks, the aggregate [`CampaignResult`] over the completed task prefix
//! `0..completed_tasks` together with a config *fingerprint*. Because every
//! trial derives its RNG stream from `(seed, input, trial)` and aggregation
//! folds records in task order, resuming from `completed_tasks` reproduces
//! the uninterrupted run bit for bit.
//!
//! The format is one line per record, and the writer and reader share every
//! field list (the workspace is dependency-free, so no serde):
//!
//! ```text
//! ft2-checkpoint 6
//! fingerprint seed=1|trials=50|…
//! completed_tasks 20
//! counts 10 4 3 2 1 6 2 5 3 2
//! first_token_faults 0 0 1 0 0 0 0 0 0 0
//! per_layer FC1 5 0 0 0 0 0 0 0 0 0
//! per_bit_class exponent 0 0 3 0 0 0 0 0 0 0
//! crash 2 17 crates/core/src/protect.rs:88 index%20out%20of%20bounds
//! rollbacks 9
//! …
//! end
//! ```
//!
//! Count rows are the ten [`OutcomeCounts`] fields in declaration order.
//! Strings are `%XX`-escaped so no field holds a space or a newline, and the
//! closing `end` record means a file cut at a line boundary is rejected
//! rather than read with its tail missing. Only [`CHECKPOINT_VERSION`] is
//! read: any other header (including the older JSON documents) is a typed
//! error, and the harness then restarts the campaign. Files are written to
//! a temp file, synced, and renamed into place, so a crash mid-write leaves
//! the previous checkpoint intact.

use crate::campaign::{CampaignResult, TrialFailure, MAX_CRASH_RECORDS};
use crate::outcome::OutcomeCounts;
use ft2_model::LayerKind;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// The checkpoint format version this binary writes and reads. Version 6
/// is the line format; versions 2–5 were JSON documents.
pub const CHECKPOINT_VERSION: u64 = 6;

/// First word of the header line.
const MAGIC: &str = "ft2-checkpoint";

/// Bit-class keys of [`CampaignResult::per_bit_class`].
const BIT_CLASSES: [&str; 3] = ["sign", "exponent", "mantissa"];

/// The scalar counters of a [`CampaignResult`], in file order. Writer and
/// reader both walk this table, so a new counter is one new row.
type Scalar = (&'static str, fn(&mut CampaignResult) -> &mut u64);
const SCALARS: [Scalar; 8] = [
    ("rollbacks", |r| &mut r.rollbacks),
    ("storms", |r| &mut r.storms),
    ("scrubbed_tiles", |r| &mut r.scrubbed_tiles),
    ("weight_repairs", |r| &mut r.weight_repairs),
    ("kv_repairs", |r| &mut r.kv_repairs),
    ("repair_retries", |r| &mut r.repair_retries),
    ("failovers", |r| &mut r.failovers),
    ("replica_rebuilds", |r| &mut r.replica_rebuilds),
];

/// The ten [`OutcomeCounts`] fields in declaration order: the layout of
/// every count row. The pattern is exhaustive, so a new outcome counter
/// does not build until it has a place here.
fn count_fields(c: &mut OutcomeCounts) -> [&mut u64; 10] {
    let OutcomeCounts {
        masked_identical,
        masked_semantic,
        sdc,
        crash,
        hang,
        recovered,
        recovery_failed,
        repaired,
        degraded,
        failed_over,
    } = c;
    [
        masked_identical,
        masked_semantic,
        sdc,
        crash,
        hang,
        recovered,
        recovery_failed,
        repaired,
        degraded,
        failed_over,
    ]
}

/// A persisted campaign prefix: everything needed to resume.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignCheckpoint {
    /// Fingerprint of the campaign configuration; a resume with a different
    /// fingerprint is rejected rather than silently merged.
    pub fingerprint: String,
    /// Number of tasks (in task order) folded into `result`.
    pub completed_tasks: usize,
    /// Aggregate over tasks `0..completed_tasks`.
    pub result: CampaignResult,
}

impl CampaignCheckpoint {
    /// Serialise to the checkpoint text, records in the order [`parse`]
    /// reads them.
    ///
    /// [`parse`]: CampaignCheckpoint::parse
    pub fn to_text(&self) -> String {
        // The scalar accessors hand out `&mut`, so write from a copy.
        let mut r = self.result.clone();
        let mut s = format!(
            "{MAGIC} {CHECKPOINT_VERSION}\nfingerprint {}\n",
            escape(&self.fingerprint)
        );
        let _ = writeln!(s, "completed_tasks {}", self.completed_tasks);
        let mut write_row = |key: String, mut c: OutcomeCounts| {
            let _ = writeln!(
                s,
                "{key} {}",
                count_fields(&mut c).map(|v| v.to_string()).join(" ")
            );
        };
        write_row("counts".into(), r.counts);
        write_row("first_token_faults".into(), r.first_token_faults);
        r.per_layer
            .iter()
            .for_each(|(k, c)| write_row(format!("per_layer {}", k.name()), *c));
        r.per_bit_class
            .iter()
            .for_each(|(k, c)| write_row(format!("per_bit_class {k}"), *c));
        for c in &r.crashes {
            let _ = writeln!(
                s,
                "crash {} {} {} {}",
                c.input,
                c.trial,
                escape(&c.site),
                escape(&c.message)
            );
        }
        for (name, field) in SCALARS {
            let _ = writeln!(s, "{name} {}", field(&mut r));
        }
        s + "end\n"
    }

    /// Parse checkpoint text. Records must come in the writer's order, so
    /// an unknown, duplicate or missing key is the line where the expected
    /// key is not found; every error names its line.
    pub fn parse(text: &str) -> Result<CampaignCheckpoint, String> {
        // A file cut at a line boundary lacks a record the reader expects,
        // at the latest the closing `end`, however many rows it lost.
        let mut r = Reader {
            lines: text.lines().peekable(),
            n: 0,
        };
        r.read().map_err(|e| format!("line {}: {e}", r.n))
    }

    /// Write atomically and durably: a synced temp file in the same
    /// directory, renamed over `path`, then (on Unix) the directory synced
    /// so the rename survives a power cut. A crash at any point leaves
    /// either the old checkpoint or the new one.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let dir = path
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
            .unwrap_or(Path::new("."));
        std::fs::create_dir_all(dir)?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(self.to_text().as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        #[cfg(unix)]
        std::fs::File::open(dir)?.sync_all()?;
        Ok(())
    }

    /// Load a checkpoint if one exists; `Ok(None)` when the file is absent.
    pub fn load(path: &Path) -> Result<Option<CampaignCheckpoint>, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::parse(&text)
                .map(Some)
                .map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("read {}: {e}", path.display())),
        }
    }
}

/// The reader's cursor: the lines left and the number of the last one
/// taken, which [`CampaignCheckpoint::parse`] puts on every error.
struct Reader<'a> {
    lines: std::iter::Peekable<std::str::Lines<'a>>,
    n: usize,
}

impl<'a> Reader<'a> {
    fn read(&mut self) -> Result<CampaignCheckpoint, String> {
        if self.fields::<1>(MAGIC).ok() != Some([&CHECKPOINT_VERSION.to_string()]) {
            let why = "older (JSON) checkpoints are no longer read, so the campaign restarts";
            return Err(format!(
                "not a `{MAGIC} {CHECKPOINT_VERSION}` header; {why}"
            ));
        }
        let fingerprint = unescape(self.fields::<1>("fingerprint")?[0])?;
        let completed_tasks = number(self.fields::<1>("completed_tasks")?[0])?;
        let counts = row(self.fields("counts")?)?;
        let first_token_faults = row(self.fields("first_token_faults")?)?;
        let mut r = CampaignResult {
            counts,
            first_token_faults,
            ..CampaignResult::default()
        };
        self.keyed(
            "per_layer",
            &mut r.per_layer,
            &LayerKind::ALL.map(|k| (k.name(), k)),
        )?;
        self.keyed(
            "per_bit_class",
            &mut r.per_bit_class,
            &BIT_CLASSES.map(|c| (c, c)),
        )?;
        while self.next_is("crash") {
            let [input, trial, site, message] = self.fields("crash")?;
            if r.crashes.len() == MAX_CRASH_RECORDS {
                return Err(format!("more than {MAX_CRASH_RECORDS} crash rows"));
            }
            let (input, trial, site) = (number(input)?, number(trial)?, unescape(site)?);
            r.crashes.push(TrialFailure {
                input,
                trial,
                site,
                message: unescape(message)?,
            });
        }
        for (name, field) in SCALARS {
            *field(&mut r) = number(self.fields::<1>(name)?[0])?;
        }
        let [] = self.fields("end")?;
        self.n += 1;
        let cp = CampaignCheckpoint {
            fingerprint,
            completed_tasks,
            result: r,
        };
        self.lines
            .next()
            .map_or(Ok(cp), |_| Err("content after `end`".to_string()))
    }

    fn next_is(&mut self, key: &str) -> bool {
        self.lines.peek().and_then(|line| line.split(' ').next()) == Some(key)
    }

    /// Take the next line, which must be a `key` record of `N` fields.
    fn fields<const N: usize>(&mut self, key: &str) -> Result<[&'a str; N], String> {
        self.n += 1;
        let line = self
            .lines
            .next()
            .ok_or_else(|| format!("truncated before `{key}`"))?;
        let words: Vec<&str> = line.split(' ').collect();
        if words[0] != key {
            return Err(format!("expected `{key}`, found {:?}", words[0]));
        }
        let rest = &words[1..];
        rest.try_into()
            .map_err(|_| format!("`{key}` takes {N} fields, not {}", rest.len()))
    }

    /// Every `key <name> <counts…>` row, into `map` under the value `names`
    /// pairs with `name`.
    fn keyed<K: Ord + Copy>(
        &mut self,
        key: &str,
        map: &mut std::collections::BTreeMap<K, OutcomeCounts>,
        names: &[(&str, K)],
    ) -> Result<(), String> {
        while self.next_is(key) {
            let [name, counts @ ..] = self.fields::<11>(key)?;
            let (_, k) = names
                .iter()
                .find(|n| n.0 == name)
                .ok_or_else(|| format!("unknown {key} {name:?}"))?;
            if map.insert(*k, row(counts)?).is_some() {
                return Err(format!("duplicate {key} {name}"));
            }
        }
        Ok(())
    }
}

fn row(fields: [&str; 10]) -> Result<OutcomeCounts, String> {
    let mut c = OutcomeCounts::default();
    for (slot, field) in count_fields(&mut c).into_iter().zip(fields) {
        *slot = number(field)?;
    }
    Ok(c)
}

fn number<T: std::str::FromStr>(field: &str) -> Result<T, String> {
    field.parse().map_err(|_| format!("bad number {field:?}"))
}

/// `%XX`-encode `%`, space, DEL and the ASCII control characters, so an
/// escaped string is one space-free, newline-free field.
fn escape(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '\0'..=' ' | '%' | '\x7f' => format!("%{:02X}", c as u32),
            c => c.to_string(),
        })
        .collect()
}

/// Inverse of [`escape`]; a `%` must be followed by two hex digits that
/// name an ASCII character.
fn unescape(s: &str) -> Result<String, String> {
    let mut parts = s.split('%');
    let mut out = parts.next().unwrap_or_default().to_string();
    for part in parts {
        let hex = part
            .get(..2)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        let code = hex
            .and_then(|h| u8::from_str_radix(h, 16).ok())
            .filter(u8::is_ascii);
        out.push(char::from(
            code.ok_or_else(|| format!("bad escape in {s:?}"))?,
        ));
        out.push_str(&part[2..]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_checkpoint() -> CampaignCheckpoint {
        let mut result = CampaignResult {
            counts: OutcomeCounts {
                masked_identical: 10,
                masked_semantic: 4,
                sdc: 3,
                crash: 2,
                hang: 1,
                recovered: 6,
                recovery_failed: 2,
                repaired: 5,
                degraded: 3,
                failed_over: 2,
            },
            rollbacks: 9,
            storms: 11,
            scrubbed_tiles: 4096,
            weight_repairs: 3,
            kv_repairs: 2,
            repair_retries: 1,
            failovers: 2,
            replica_rebuilds: 1,
            ..CampaignResult::default()
        };
        result.per_layer.insert(
            LayerKind::Fc1,
            OutcomeCounts {
                masked_identical: 5,
                ..OutcomeCounts::default()
            },
        );
        result.per_bit_class.insert(
            "exponent",
            OutcomeCounts {
                sdc: 3,
                ..OutcomeCounts::default()
            },
        );
        result.first_token_faults.sdc = 1;
        result.crashes.push(TrialFailure {
            input: 2,
            trial: 17,
            site: "crates/core/src/protect.rs:88".to_string(),
            message: "index out of bounds: \"weird\"\npayload".to_string(),
        });
        CampaignCheckpoint {
            fingerprint: "seed=1|trials=50".to_string(),
            completed_tasks: 20,
            result,
        }
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let cp = sample_checkpoint();
        let text = cp.to_text();
        assert!(text.starts_with("ft2-checkpoint 6\n") && text.ends_with("\nend\n"));
        assert!(text.contains("\ncounts 10 4 3 2 1 6 2 5 3 2\n"), "{text}");
        assert_eq!(CampaignCheckpoint::parse(&text).unwrap(), cp);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("ft2-checkpoint-test");
        let path = dir.join("qa");
        let cp = sample_checkpoint();
        cp.save(&path).unwrap();
        let loaded = CampaignCheckpoint::load(&path).unwrap().unwrap();
        assert_eq!(loaded, cp);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "temp file left behind"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_none_and_garbage_is_err() {
        let missing = std::env::temp_dir().join("ft2-no-such-checkpoint");
        assert_eq!(CampaignCheckpoint::load(&missing).unwrap(), None);
        assert!(CampaignCheckpoint::parse("{nope").is_err());
        assert!(CampaignCheckpoint::parse("").is_err());
    }

    #[test]
    fn future_and_unknown_versions_are_rejected_clearly() {
        let text = sample_checkpoint().to_text();
        for v in [0, 1, 5, 7] {
            let other = text.replacen("ft2-checkpoint 6", &format!("ft2-checkpoint {v}"), 1);
            let err = CampaignCheckpoint::parse(&other).unwrap_err();
            assert!(err.starts_with("line 1: "), "{err}");
            assert!(
                err.contains("no longer read") && err.contains("restarts"),
                "{err}"
            );
        }
        let json = "{\n  \"version\": 5,\n  \"fingerprint\": \"v3|seed=1\"\n}\n";
        let err = CampaignCheckpoint::parse(json).unwrap_err();
        assert!(err.contains("JSON"), "{err}");
    }

    #[test]
    fn every_malformed_record_names_its_line() {
        let text = sample_checkpoint().to_text();
        let class_row = "per_bit_class exponent 0 0 3 0 0 0 0 0 0 0\n";
        let class_twice = class_row.repeat(2);
        let cases = [
            (
                "\ncounts 10 4 3 2 1 6 2 5 3 2\n",
                "\ncounts 10 4\n",
                "line 4: `counts` takes 10 fields, not 2",
            ),
            ("\nstorms 11\n", "\nstorms x\n", "line 10: bad number \"x\""),
            (
                "\nstorms 11\n",
                "\nstorms 99999999999999999999\n",
                "line 10: bad number",
            ),
            (
                "\nstorms 11\n",
                "\nstorms 11\nstorms 11\n",
                "line 11: expected `scrubbed_tiles`, found \"storms\"",
            ),
            (
                "\nstorms 11\n",
                "\nstroms 11\n",
                "line 10: expected `storms`, found \"stroms\"",
            ),
            (
                "\nstorms 11\n",
                "\n",
                "line 10: expected `storms`, found \"scrubbed_tiles\"",
            ),
            (
                "per_layer FC1 ",
                "per_layer FC9 ",
                "line 6: unknown per_layer \"FC9\"",
            ),
            (
                "per_layer FC1 5",
                "per_layer FC1 5 0",
                "line 6: `per_layer` takes 11 fields, not 12",
            ),
            (
                class_row,
                class_twice.as_str(),
                "line 8: duplicate per_bit_class exponent",
            ),
            (
                "per_bit_class exponent ",
                "per_bit_class sine ",
                "line 7: unknown per_bit_class",
            ),
            (
                "crash 2 17 ",
                "crash 2 ",
                "line 8: `crash` takes 4 fields, not 3",
            ),
            ("crates/core", "%ZZ", "line 8: bad escape"),
            ("crates/core", "%C3", "line 8: bad escape"),
            (
                "\nend\n",
                "\nend\nstorms 1\n",
                "line 18: content after `end`",
            ),
            ("\nend\n", "\n", "line 17: truncated before `end`"),
        ];
        for (from, to, want) in cases {
            let bad = text.replacen(from, to, 1);
            let err = CampaignCheckpoint::parse(&bad).unwrap_err();
            assert!(err.contains(want), "{to:?}: {err}");
        }
        let mut many = sample_checkpoint();
        many.result.crashes = vec![many.result.crashes[0].clone(); MAX_CRASH_RECORDS + 1];
        let err = CampaignCheckpoint::parse(&many.to_text()).unwrap_err();
        assert!(err.contains("more than 64 crash rows"), "{err}");
    }

    #[test]
    fn hostile_files_load_as_typed_errors() {
        // `run_checkpointed` turns an `Err` from `load` into "checkpoint
        // unusable … rerunning from scratch"; a panic would take the whole
        // campaign down instead.
        let dir = std::env::temp_dir().join("ft2-checkpoint-hostile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let text = sample_checkpoint().to_text();
        let cut = &text[..text.find("\ncrash ").unwrap() + 1];
        let cases: [(&str, Vec<u8>, &str); 4] = [
            ("arrays", "[".repeat(100_000).into_bytes(), "header"),
            ("objects", "{\"a\":".repeat(100_000).into_bytes(), "header"),
            (
                "cut",
                cut.as_bytes().to_vec(),
                "line 8: truncated before `rollbacks`",
            ),
            (
                "bytes",
                vec![b'{', b'"', 0xff, 0xfe, b'"', b':', b'1', b'}'],
                "read ",
            ),
        ];
        for (name, bytes, expected) in cases {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            let err = CampaignCheckpoint::load(&path).unwrap_err();
            assert!(err.contains(expected), "{name}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Strings built from the characters an escape scheme gets wrong.
    fn tricky_string() -> impl Strategy<Value = String> {
        let chars = vec![
            ' ', '\t', '\n', '\r', '\\', '\0', '%', '"', 'a', 'Z', '7', 'é', '漢', '🦀',
        ];
        prop::collection::vec(prop::sample::select(chars), 0..16)
            .prop_map(|cs| cs.into_iter().collect::<String>())
    }

    fn outcome_counts() -> impl Strategy<Value = OutcomeCounts> {
        prop::collection::vec(any::<u64>(), 10).prop_map(|vs| {
            let mut c = OutcomeCounts::default();
            for (slot, v) in count_fields(&mut c).into_iter().zip(vs) {
                *slot = v;
            }
            c
        })
    }

    fn crash() -> impl Strategy<Value = TrialFailure> {
        (
            any::<usize>(),
            any::<usize>(),
            tricky_string(),
            tricky_string(),
        )
            .prop_map(|(input, trial, site, message)| TrialFailure {
                input,
                trial,
                site,
                message,
            })
    }

    proptest! {
        /// Every counter, both maps and up to the crash-row cap survive
        /// `to_text` → `parse` exactly.
        #[test]
        fn random_checkpoints_roundtrip(
            fingerprint in tricky_string(),
            completed_tasks in any::<usize>(),
            rows in prop::collection::vec(outcome_counts(), 2 + 9 + 3),
            present in prop::collection::vec(any::<bool>(), 9 + 3),
            crashes in prop::collection::vec(crash(), 0..=MAX_CRASH_RECORDS),
            scalars in prop::collection::vec(any::<u64>(), SCALARS.len()),
        ) {
            let mut result = CampaignResult {
                counts: rows[0],
                first_token_faults: rows[1],
                crashes,
                ..CampaignResult::default()
            };
            for (i, kind) in LayerKind::ALL.into_iter().enumerate() {
                if present[i] {
                    result.per_layer.insert(kind, rows[2 + i]);
                }
            }
            for (i, class) in BIT_CLASSES.into_iter().enumerate() {
                if present[9 + i] {
                    result.per_bit_class.insert(class, rows[11 + i]);
                }
            }
            for ((_, field), v) in SCALARS.into_iter().zip(scalars) {
                *field(&mut result) = v;
            }
            let cp = CampaignCheckpoint { fingerprint, completed_tasks, result };
            prop_assert_eq!(CampaignCheckpoint::parse(&cp.to_text()), Ok(cp));
        }

        /// Arbitrary bytes, bare, behind a valid header or spliced into a
        /// valid file, parse to `Ok` or `Err` and never panic.
        #[test]
        fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
            let text = String::from_utf8_lossy(&bytes);
            let _ = CampaignCheckpoint::parse(&text);
            let _ = CampaignCheckpoint::parse(&format!("ft2-checkpoint 6\n{text}"));
            let valid = sample_checkpoint().to_text();
            let (head, tail) = valid.split_at(bytes.len() % valid.len());
            let _ = CampaignCheckpoint::parse(&format!("{head}{text}{tail}"));
        }
    }
}
