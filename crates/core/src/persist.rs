//! Saving and loading bound stores.
//!
//! FT2 itself never needs persisted bounds (they are profiled online), but
//! the offline baselines do, and in a deployment you would profile once
//! and ship the bounds with the model. The format is a tiny CSV —
//! `block,layer,lo,hi` — so artifacts are diffable and readable.

use crate::bounds::{BoundsStore, LayerBounds};
use ft2_model::{LayerKind, TapPoint};
use std::path::Path;

fn layer_from_name(name: &str) -> Option<LayerKind> {
    LayerKind::ALL.iter().copied().find(|k| k.name() == name)
}

/// Serialise a store to CSV text (rows sorted for stable diffs).
pub fn to_csv(store: &BoundsStore) -> String {
    let mut rows: Vec<(TapPoint, LayerBounds)> = store.iter().map(|(p, b)| (*p, *b)).collect();
    rows.sort_by_key(|(p, _)| *p);
    let mut out = String::from("block,layer,lo,hi\n");
    for (p, b) in rows {
        out.push_str(&format!(
            "{},{},{},{}\n",
            p.block,
            p.layer.name(),
            b.lo,
            b.hi
        ));
    }
    out
}

/// Parse a store from CSV text produced by [`to_csv`].
pub fn from_csv(text: &str) -> Result<BoundsStore, String> {
    let mut store = BoundsStore::new();
    for (lineno, line) in text.lines().enumerate() {
        if lineno == 0 || line.trim().is_empty() {
            continue; // header / trailing newline
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 4 {
            return Err(format!("line {}: expected 4 fields", lineno + 1));
        }
        let block: usize = fields[0]
            .parse()
            .map_err(|e| format!("line {}: bad block: {e}", lineno + 1))?;
        let layer = layer_from_name(fields[1])
            .ok_or_else(|| format!("line {}: unknown layer '{}'", lineno + 1, fields[1]))?;
        let lo: f32 = fields[2]
            .parse()
            .map_err(|e| format!("line {}: bad lo: {e}", lineno + 1))?;
        let hi: f32 = fields[3]
            .parse()
            .map_err(|e| format!("line {}: bad hi: {e}", lineno + 1))?;
        if lo > hi {
            return Err(format!("line {}: lo {lo} > hi {hi}", lineno + 1));
        }
        store.set(TapPoint { block, layer }, LayerBounds { lo, hi });
    }
    Ok(store)
}

/// Write a store to a file.
pub fn save(store: &BoundsStore, path: impl AsRef<Path>) -> std::io::Result<()> {
    std::fs::write(path, to_csv(store))
}

/// Read a store from a file.
pub fn load(path: impl AsRef<Path>) -> Result<BoundsStore, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    from_csv(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> BoundsStore {
        let mut s = BoundsStore::new();
        s.set(
            TapPoint {
                block: 0,
                layer: LayerKind::VProj,
            },
            LayerBounds { lo: -1.5, hi: 2.25 },
        );
        s.set(
            TapPoint {
                block: 3,
                layer: LayerKind::DownProj,
            },
            LayerBounds { lo: -8.0, hi: 8.5 },
        );
        s
    }

    #[test]
    fn csv_roundtrip_is_exact() {
        let store = sample_store();
        let text = to_csv(&store);
        let back = from_csv(&text).unwrap();
        assert_eq!(back.len(), store.len());
        for (p, b) in store.iter() {
            assert_eq!(back.get(p), Some(b));
        }
        // Header + 2 rows; sorted by (block, layer).
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "block,layer,lo,hi");
        assert!(lines[1].starts_with("0,V_PROJ,"));
        assert!(lines[2].starts_with("3,DOWN_PROJ,"));
    }

    #[test]
    fn file_roundtrip() {
        let store = sample_store();
        let path = std::env::temp_dir().join("ft2_bounds_test.csv");
        save(&store, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.len(), 2);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_csv("block,layer,lo,hi\n0,NOT_A_LAYER,0,1\n").is_err());
        assert!(from_csv("block,layer,lo,hi\n0,V_PROJ,zero,1\n").is_err());
        assert!(from_csv("block,layer,lo,hi\n0,V_PROJ,5,1\n").is_err());
        assert!(from_csv("block,layer,lo,hi\n0,V_PROJ,5\n").is_err());
        // Empty body is fine.
        assert_eq!(from_csv("block,layer,lo,hi\n").unwrap().len(), 0);
    }
}
