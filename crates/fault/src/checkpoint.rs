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
//! The format is a small hand-rolled JSON document (the workspace is
//! dependency-free, so no serde): human-inspectable, written atomically via
//! a temp file + rename so a crash mid-write can never corrupt an existing
//! checkpoint. Documents carry a `"version"` key (current:
//! [`CHECKPOINT_VERSION`]); version-2 documents (which predate the key, the
//! fault-duration taxonomy, and the integrity counters) still load, with the
//! new counters zeroed. Unknown or future versions are rejected with a
//! clear error instead of being misparsed.

use crate::campaign::{CampaignResult, TrialFailure};
use crate::outcome::OutcomeCounts;
use ft2_model::LayerKind;
use std::fmt::Write as _;
use std::path::Path;

/// Current checkpoint document version. Version 5 added the `failed_over`
/// outcome counter plus the `failovers` / `replica_rebuilds` scalars
/// (cross-replica failover); version 4 added the `degraded` counter,
/// version-3 documents carry 8-element count rows and version-2 documents
/// (no `"version"` key) 7-element rows — all remain loadable with the
/// missing counters zeroed. Versions above this are rejected.
pub const CHECKPOINT_VERSION: u64 = 5;

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
    /// Serialise to the checkpoint JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"version\": {CHECKPOINT_VERSION},");
        let _ = writeln!(s, "  \"fingerprint\": {},", quote(&self.fingerprint));
        let _ = writeln!(s, "  \"completed_tasks\": {},", self.completed_tasks);
        let _ = writeln!(s, "  \"counts\": {},", counts_json(&self.result.counts));
        s.push_str("  \"per_layer\": {");
        for (i, (k, v)) in self.result.per_layer.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}: {}", quote(k.name()), counts_json(v));
        }
        s.push_str("},\n  \"per_bit_class\": {");
        for (i, (k, v)) in self.result.per_bit_class.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}: {}", quote(k), counts_json(v));
        }
        s.push_str("},\n");
        let _ = writeln!(
            s,
            "  \"first_token_faults\": {},",
            counts_json(&self.result.first_token_faults)
        );
        s.push_str("  \"crashes\": [");
        for (i, c) in self.result.crashes.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "[{}, {}, {}, {}]",
                c.input,
                c.trial,
                quote(&c.site),
                quote(&c.message)
            );
        }
        s.push_str("],\n");
        let _ = writeln!(s, "  \"rollbacks\": {},", self.result.rollbacks);
        let _ = writeln!(s, "  \"storms\": {},", self.result.storms);
        let _ = writeln!(s, "  \"scrubbed_tiles\": {},", self.result.scrubbed_tiles);
        let _ = writeln!(s, "  \"weight_repairs\": {},", self.result.weight_repairs);
        let _ = writeln!(s, "  \"kv_repairs\": {},", self.result.kv_repairs);
        let _ = writeln!(s, "  \"repair_retries\": {},", self.result.repair_retries);
        let _ = writeln!(s, "  \"failovers\": {},", self.result.failovers);
        let _ = writeln!(s, "  \"replica_rebuilds\": {}", self.result.replica_rebuilds);
        s.push_str("}\n");
        s
    }

    /// Parse a checkpoint document.
    pub fn from_json(text: &str) -> Result<CampaignCheckpoint, String> {
        let v = Json::parse(text)?;
        let obj = v.as_obj("checkpoint")?;
        // Version 2 documents predate the "version" key.
        let version = match get_opt(obj, "version") {
            Some(v) => v.as_u64("version")?,
            None => 2,
        };
        if version > CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {version} is newer than this binary supports \
                 (max {CHECKPOINT_VERSION}); upgrade ft2 or delete the checkpoint \
                 to restart the campaign"
            ));
        }
        if version < 2 {
            return Err(format!(
                "unknown checkpoint version {version} (supported: 2..={CHECKPOINT_VERSION})"
            ));
        }
        let mut result = CampaignResult {
            counts: parse_counts(get(obj, "counts")?)?,
            first_token_faults: parse_counts(get(obj, "first_token_faults")?)?,
            ..CampaignResult::default()
        };
        for (name, v) in get(obj, "per_layer")?.as_obj("per_layer")? {
            let kind = LayerKind::ALL
                .iter()
                .find(|k| k.name() == name)
                .ok_or_else(|| format!("unknown layer kind {name:?}"))?;
            result.per_layer.insert(*kind, parse_counts(v)?);
        }
        for (name, v) in get(obj, "per_bit_class")?.as_obj("per_bit_class")? {
            // Bit-class keys are interned &'static str in memory.
            let key = match name.as_str() {
                "sign" => "sign",
                "exponent" => "exponent",
                "mantissa" => "mantissa",
                other => return Err(format!("unknown bit class {other:?}")),
            };
            result.per_bit_class.insert(key, parse_counts(v)?);
        }
        for v in get(obj, "crashes")?.as_arr("crashes")? {
            let row = v.as_arr("crash row")?;
            if row.len() != 4 {
                return Err("crash row must have 4 fields".to_string());
            }
            result.crashes.push(TrialFailure {
                input: row[0].as_u64("crash input")? as usize,
                trial: row[1].as_u64("crash trial")? as usize,
                site: row[2].as_str("crash site")?.to_string(),
                message: row[3].as_str("crash message")?.to_string(),
            });
        }
        result.rollbacks = get(obj, "rollbacks")?.as_u64("rollbacks")?;
        result.storms = get(obj, "storms")?.as_u64("storms")?;
        // Integrity counters arrived in version 3; older documents load
        // with them zeroed.
        result.scrubbed_tiles = get_u64_or(obj, "scrubbed_tiles", 0)?;
        result.weight_repairs = get_u64_or(obj, "weight_repairs", 0)?;
        result.kv_repairs = get_u64_or(obj, "kv_repairs", 0)?;
        result.repair_retries = get_u64_or(obj, "repair_retries", 0)?;
        // Failover counters arrived in version 5; older documents load
        // with them zeroed.
        result.failovers = get_u64_or(obj, "failovers", 0)?;
        result.replica_rebuilds = get_u64_or(obj, "replica_rebuilds", 0)?;
        Ok(CampaignCheckpoint {
            fingerprint: get(obj, "fingerprint")?.as_str("fingerprint")?.to_string(),
            completed_tasks: get(obj, "completed_tasks")?.as_u64("completed_tasks")? as usize,
            result,
        })
    }

    /// Write atomically: temp file in the same directory, then rename. A
    /// crash mid-write leaves either the old checkpoint or none.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)
    }

    /// Load a checkpoint if one exists; `Ok(None)` when the file is absent.
    pub fn load(path: &Path) -> Result<Option<CampaignCheckpoint>, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::from_json(&text).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("read {}: {e}", path.display())),
        }
    }
}

fn counts_json(c: &OutcomeCounts) -> String {
    format!(
        "[{}, {}, {}, {}, {}, {}, {}, {}, {}, {}]",
        c.masked_identical,
        c.masked_semantic,
        c.sdc,
        c.crash,
        c.hang,
        c.recovered,
        c.recovery_failed,
        c.repaired,
        c.degraded,
        c.failed_over
    )
}

fn parse_counts(v: &Json) -> Result<OutcomeCounts, String> {
    let a = v.as_arr("counts")?;
    // Version-2 documents carry 7-element count rows (no `repaired`),
    // version-3 rows 8 elements (no `degraded`), version-4 rows 9
    // elements (no `failed_over`).
    if !(7..=10).contains(&a.len()) {
        return Err(format!(
            "counts must have 7 to 10 fields, got {}",
            a.len()
        ));
    }
    Ok(OutcomeCounts {
        masked_identical: a[0].as_u64("counts[0]")?,
        masked_semantic: a[1].as_u64("counts[1]")?,
        sdc: a[2].as_u64("counts[2]")?,
        crash: a[3].as_u64("counts[3]")?,
        hang: a[4].as_u64("counts[4]")?,
        recovered: a[5].as_u64("counts[5]")?,
        recovery_failed: a[6].as_u64("counts[6]")?,
        repaired: match a.get(7) {
            Some(v) => v.as_u64("counts[7]")?,
            None => 0,
        },
        degraded: match a.get(8) {
            Some(v) => v.as_u64("counts[8]")?,
            None => 0,
        },
        failed_over: match a.get(9) {
            Some(v) => v.as_u64("counts[9]")?,
            None => 0,
        },
    })
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

fn get_opt<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_u64_or(obj: &[(String, Json)], key: &str, default: u64) -> Result<u64, String> {
    match get_opt(obj, key) {
        Some(v) => v.as_u64(key),
        None => Ok(default),
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Minimal JSON value for the checkpoint grammar (objects, arrays, strings,
/// unsigned integers). Everything the checkpoint writer emits round-trips.
#[derive(Debug)]
enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    Num(u64),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(v)
    }

    fn as_obj(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(o) => Ok(o),
            _ => Err(format!("{what}: expected object")),
        }
    }

    fn as_arr(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            _ => Err(format!("{what}: expected array")),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(format!("{what}: expected string")),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            _ => Err(format!("{what}: expected integer")),
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", ch as char, *pos))
    }
}

fn peek(b: &[u8], pos: &mut usize) -> Option<u8> {
    skip_ws(b, pos);
    b.get(*pos).copied()
}

/// Containers a checkpoint document may nest. The writer nests three deep;
/// the bound is what keeps a hostile file of 10⁵ brackets a typed error
/// instead of a stack overflow in this recursive parser.
const MAX_DEPTH: usize = 8;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nested deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match peek(b, pos) {
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            if peek(b, pos) == Some(b'}') {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                entries.push((key, parse_value(b, pos, depth + 1)?));
                match peek(b, pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(entries));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            if peek(b, pos) == Some(b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                match peek(b, pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            while *pos < b.len() && b[*pos].is_ascii_digit() {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
        _ => Err(format!("unexpected value at byte {pos}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    // Collect raw bytes of each UTF-8 run between escapes.
    let mut run = *pos;
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                out.push_str(
                    std::str::from_utf8(&b[run..*pos]).map_err(|e| format!("bad utf8: {e}"))?,
                );
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(
                    std::str::from_utf8(&b[run..*pos]).map_err(|e| format!("bad utf8: {e}"))?,
                );
                *pos += 1;
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape \\{}", *other as char)),
                }
                run = *pos;
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft2_model::TapPoint;

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
            TapPoint {
                block: 0,
                layer: LayerKind::Fc1,
            }
            .layer,
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
    fn json_roundtrip_is_lossless() {
        let cp = sample_checkpoint();
        let parsed = CampaignCheckpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(parsed, cp);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("ft2-checkpoint-test");
        let path = dir.join("qa.json");
        let cp = sample_checkpoint();
        cp.save(&path).unwrap();
        let loaded = CampaignCheckpoint::load(&path).unwrap().unwrap();
        assert_eq!(loaded, cp);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_none_and_garbage_is_err() {
        let missing = std::env::temp_dir().join("ft2-no-such-checkpoint.json");
        assert_eq!(CampaignCheckpoint::load(&missing).unwrap(), None);
        assert!(CampaignCheckpoint::from_json("{nope").is_err());
        assert!(CampaignCheckpoint::from_json("{}").is_err());
    }

    #[test]
    fn future_and_unknown_versions_are_rejected_clearly() {
        let cp = sample_checkpoint();
        let future = cp.to_json().replace(
            &format!("\"version\": {CHECKPOINT_VERSION}"),
            &format!("\"version\": {}", CHECKPOINT_VERSION + 1),
        );
        let err = CampaignCheckpoint::from_json(&future).unwrap_err();
        assert!(
            err.contains("newer than this binary supports"),
            "unhelpful error: {err}"
        );
        let ancient = cp.to_json().replace(
            &format!("\"version\": {CHECKPOINT_VERSION}"),
            "\"version\": 1",
        );
        let err = CampaignCheckpoint::from_json(&ancient).unwrap_err();
        assert!(err.contains("unknown checkpoint version 1"), "{err}");
    }

    #[test]
    fn version2_documents_still_load() {
        // A v2 document: no "version" key, 7-element count rows, no
        // integrity counters.
        let v2 = r#"{
  "fingerprint": "v2|seed=1",
  "completed_tasks": 12,
  "counts": [5, 1, 3, 1, 0, 2, 0],
  "per_layer": {"FC1": [5, 1, 3, 1, 0, 2, 0]},
  "per_bit_class": {"exponent": [5, 1, 3, 1, 0, 2, 0]},
  "first_token_faults": [0, 0, 0, 0, 0, 0, 0],
  "crashes": [],
  "rollbacks": 2,
  "storms": 3
}"#;
        let cp = CampaignCheckpoint::from_json(v2).unwrap();
        assert_eq!(cp.completed_tasks, 12);
        assert_eq!(cp.result.counts.total(), 12);
        assert_eq!(cp.result.counts.repaired, 0);
        assert_eq!(cp.result.scrubbed_tiles, 0);
        assert_eq!(cp.result.weight_repairs, 0);
        assert_eq!(cp.result.kv_repairs, 0);
        assert_eq!(cp.result.repair_retries, 0);
        assert_eq!(cp.result.rollbacks, 2);
    }

    #[test]
    fn version3_documents_still_load() {
        // A v3 document: 8-element count rows (no `degraded`).
        let v3 = r#"{
  "version": 3,
  "fingerprint": "v3|seed=1",
  "completed_tasks": 9,
  "counts": [5, 1, 1, 1, 0, 0, 0, 1],
  "per_layer": {"FC1": [5, 1, 1, 1, 0, 0, 0, 1]},
  "per_bit_class": {"exponent": [5, 1, 1, 1, 0, 0, 0, 1]},
  "first_token_faults": [0, 0, 0, 0, 0, 0, 0, 0],
  "crashes": [],
  "rollbacks": 2,
  "storms": 3,
  "scrubbed_tiles": 64,
  "weight_repairs": 1,
  "kv_repairs": 0,
  "repair_retries": 1
}"#;
        let cp = CampaignCheckpoint::from_json(v3).unwrap();
        assert_eq!(cp.completed_tasks, 9);
        assert_eq!(cp.result.counts.total(), 9);
        assert_eq!(cp.result.counts.repaired, 1);
        assert_eq!(cp.result.counts.degraded, 0);
        assert_eq!(cp.result.scrubbed_tiles, 64);
    }

    #[test]
    fn version4_documents_still_load() {
        // A v4 document: 9-element count rows (no `failed_over`), no
        // failover scalars.
        let v4 = r#"{
  "version": 4,
  "fingerprint": "v4|seed=1",
  "completed_tasks": 8,
  "counts": [4, 1, 1, 0, 0, 0, 0, 1, 1],
  "per_layer": {"FC1": [4, 1, 1, 0, 0, 0, 0, 1, 1]},
  "per_bit_class": {"exponent": [4, 1, 1, 0, 0, 0, 0, 1, 1]},
  "first_token_faults": [0, 0, 0, 0, 0, 0, 0, 0, 0],
  "crashes": [],
  "rollbacks": 1,
  "storms": 2,
  "scrubbed_tiles": 32,
  "weight_repairs": 1,
  "kv_repairs": 0,
  "repair_retries": 1
}"#;
        let cp = CampaignCheckpoint::from_json(v4).unwrap();
        assert_eq!(cp.completed_tasks, 8);
        assert_eq!(cp.result.counts.total(), 8);
        assert_eq!(cp.result.counts.degraded, 1);
        assert_eq!(cp.result.counts.failed_over, 0);
        assert_eq!(cp.result.failovers, 0);
        assert_eq!(cp.result.replica_rebuilds, 0);
    }

    #[test]
    fn hostile_files_load_as_typed_errors() {
        // `run_checkpointed` turns an `Err` from `load` into "checkpoint
        // unusable … rerunning from scratch"; a panic or a stack overflow
        // would take the whole campaign down instead. The two nesting bombs
        // abort the test binary without the parser's depth bound.
        let dir = std::env::temp_dir().join("ft2-checkpoint-hostile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let cut_mid_string = sample_checkpoint().to_json();
        let cut_mid_string = &cut_mid_string[..cut_mid_string.rfind('"').unwrap()];
        let cases: [(&str, Vec<u8>, &str); 4] = [
            ("arrays", "[".repeat(100_000).into_bytes(), "nested deeper than"),
            ("objects", "{\"a\":".repeat(100_000).into_bytes(), "nested deeper than"),
            ("cut", cut_mid_string.as_bytes().to_vec(), "unterminated string"),
            ("bytes", vec![b'{', b'"', 0xff, 0xfe, b'"', b':', b'1', b'}'], "read "),
        ];
        for (name, bytes, expected) in cases {
            let path = dir.join(format!("{name}.json"));
            std::fs::write(&path, bytes).unwrap();
            let err = CampaignCheckpoint::load(&path).unwrap_err();
            assert!(err.contains(expected), "{name}: {err}");
        }
        // The writer's own nesting stays well inside the bound.
        assert!(CampaignCheckpoint::from_json(&sample_checkpoint().to_json()).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn string_escapes_roundtrip() {
        for s in ["plain", "with \"quotes\"", "tab\tnl\nbackslash\\", "\u{1}ctl"] {
            let q = quote(s);
            let mut pos = 0;
            let back = parse_string(q.as_bytes(), &mut pos).unwrap();
            assert_eq!(back, s);
        }
    }
}
