//! Plain-text tables and CSV artifacts.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Format a rate in `[0,1]` as a percentage with two decimals.
pub fn format_pct(rate: f64) -> String {
    format!("{:.2}%", rate * 100.0)
}

/// A fixed-column ASCII table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The data rows (header excluded), for assertions on emitted results.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, " {:<w$} |", c, w = width[i]);
            }
            let _ = writeln!(out, "{s}");
        };
        line(&mut out, &self.header);
        let sep: Vec<String> = width.iter().map(|w| "-".repeat(*w)).collect();
        line(&mut out, &sep);
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// The same data as CSV text.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// One guarantee of a correctness gate (`ft2-repro serve|shards|replicas`):
/// what was checked, whether it held, and the outcome or counts behind the
/// verdict.
#[derive(Clone, Debug)]
pub struct Check {
    /// Short name of the guarantee.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// The observed outcome, counts or compared durations.
    pub detail: String,
}

impl Check {
    /// A check row.
    pub fn new(name: impl Into<String>, pass: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            pass,
            detail: detail.into(),
        }
    }
}

/// A gate passes when it ran at least one check and every check held.
pub fn gate_passes(checks: &[Check]) -> bool {
    !checks.is_empty() && checks.iter().all(|c| c.pass)
}

/// One row per check: name, `pass` / `FAIL`, detail.
pub fn gate_table(title: &str, checks: &[Check]) -> Table {
    let mut table = Table::new(title, &["check", "result", "detail"]);
    for c in checks {
        let result = if c.pass { "pass" } else { "FAIL" };
        table.row(vec![c.name.clone(), result.to_string(), c.detail.clone()]);
    }
    table
}

/// CSV artifact writer rooted at `results/`.
#[derive(Clone, Debug)]
pub struct Csv {
    dir: PathBuf,
}

impl Csv {
    /// Writer into the given directory (created on demand).
    pub fn new(dir: impl AsRef<Path>) -> Csv {
        Csv {
            dir: dir.as_ref().to_path_buf(),
        }
    }

    /// Default `results/` directory next to the workspace root.
    pub fn default_dir() -> Csv {
        Csv::new("results")
    }

    /// Write a table as `<name>.csv`. Returns the path written.
    pub fn write(&self, name: &str, table: &Table) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(format!("{name}.csv"));
        std::fs::write(&path, table.to_csv())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft2_parallel::WorkStealingPool;

    #[test]
    fn any_single_failed_check_fails_its_gate_and_is_named() {
        let pool = WorkStealingPool::new(3);
        for (gate, run) in crate::GATES {
            let checks = run(&pool, true);
            assert!(gate_passes(&checks), "{gate}: {checks:#?}");
            for i in 0..checks.len() {
                let mut flipped = checks.clone();
                flipped[i].pass = false;
                let name = &checks[i].name;
                assert!(!gate_passes(&flipped), "{gate}: `{name}` does not gate");
                let table = gate_table(gate, &flipped);
                let failed: Vec<&str> = table
                    .rows()
                    .iter()
                    .filter(|row| row[1] == "FAIL")
                    .map(|row| row[0].as_str())
                    .collect();
                assert_eq!(failed, [name.as_str()], "{gate}:\n{}", table.render());
            }
        }
        assert!(
            !gate_passes(&[]),
            "a gate that checked nothing must not pass"
        );
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(format_pct(0.0292), "2.92%");
        assert_eq!(format_pct(0.0), "0.00%");
        assert_eq!(format_pct(1.0), "100.00%");
    }

    #[test]
    fn table_rendering_aligns() {
        let mut t = Table::new("Demo", &["model", "sdc"]);
        t.row(vec!["OPT-6.7B".into(), "1.23%".into()]);
        t.row(vec!["Q".into(), "0.10%".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("| OPT-6.7B | 1.23% |"));
        assert!(s.contains("| Q        | 0.10% |"));
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn csv_escaping_and_write() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["hello, world".into(), "quote\"y".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"hello, world\""));
        assert!(csv.contains("\"quote\"\"y\""));

        let dir = std::env::temp_dir().join("ft2_csv_test");
        let w = Csv::new(&dir);
        let path = w.write("demo", &t).unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.starts_with("a,b"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
