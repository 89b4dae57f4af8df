//! Experiment results as data: a [`Table`] of formatted cells under
//! columns declared once, the [`Report`] an experiment returns, the gain
//! summary every "ChameleonEC vs the baselines" note is read from, and the
//! one function that writes under `results/`.

use std::fmt;
use std::fs;
use std::path::PathBuf;

use crate::flags::write_stdout;
use crate::AlgoKind;

/// One column, declared once: `(display title, CSV name)`.
pub type Column = (&'static str, &'static str);

/// A titled grid of formatted cells. The fixed-width rendering
/// ([`fmt::Display`]) and the CSV document ([`Table::csv`]) are two views
/// of the same columns and rows, so they cannot disagree.
///
/// # Examples
///
/// ```
/// use chameleon_bench::table::Table;
/// let mut t = Table::new("demo", "demo", &[("algo", "algorithm"), ("MB/s", "mbps")]);
/// t.push(vec!["CR".into(), "120.5".into()]);
/// assert_eq!(t.csv(), "algorithm,mbps\nCR,120.5\n");
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    /// File stem of the CSV under `results/`.
    pub stem: &'static str,
    /// Heading of the fixed-width rendering.
    pub title: &'static str,
    columns: &'static [Column],
    rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table.
    pub fn new(stem: &'static str, title: &'static str, columns: &'static [Column]) -> Self {
        Table {
            stem,
            title,
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Unless the row has exactly one cell per column — a ragged CSV is a
    /// bug in the experiment, found here rather than by whoever parses it.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "table '{}' has {} columns, row has {} cells: {row:?}",
            self.stem,
            self.columns.len(),
            row.len()
        );
        self.rows.push(row);
    }

    /// The rows pushed so far.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// The CSV document persisted as `results/<stem>.csv` — the unit the
    /// grid determinism suite compares across `--jobs` settings.
    /// A field that holds `,`, `"`, CR or LF is quoted, its quotes doubled
    /// (RFC 4180); [`parse_csv`] reads it back.
    pub fn csv(&self) -> String {
        let mut out = String::with_capacity(64 * (self.rows.len() + 1));
        let names = self.columns.iter().map(|c| c.1);
        csv_line(&mut out, names);
        for row in &self.rows {
            csv_line(&mut out, row.iter().map(String::as_str));
        }
        out
    }
}

/// Appends one CSV line to `out`.
fn csv_line<'a>(out: &mut String, fields: impl Iterator<Item = &'a str>) {
    for (i, field) in fields.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if field.contains([',', '"', '\r', '\n']) {
            out.push('"');
            out.push_str(&field.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(field);
        }
    }
    out.push('\n');
}

/// Parses a CSV document as [`Table::csv`] writes it (RFC 4180: a quoted
/// field may hold commas, line breaks and doubled quotes) into its
/// non-blank lines of fields.
pub fn parse_csv(text: &str) -> Vec<Vec<String>> {
    let (mut rows, mut row, mut field) = (Vec::new(), Vec::new(), String::new());
    let (mut quoted, mut chars) = (false, text.chars().peekable());
    while let Some(c) = chars.next() {
        match (quoted, c) {
            (true, '"') if chars.peek() == Some(&'"') => {
                chars.next();
                field.push('"');
            }
            (true, '"') => quoted = false,
            (true, c) => field.push(c),
            (false, '"') => quoted = true,
            (false, ',') => row.push(std::mem::take(&mut field)),
            (false, '\r') if chars.peek() == Some(&'\n') => {}
            (false, '\n') => {
                row.push(std::mem::take(&mut field));
                if row != [""] {
                    rows.push(std::mem::take(&mut row));
                }
                row.clear();
            }
            (false, c) => field.push(c),
        }
    }
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    rows
}

/// The fixed-width rendering: a blank line, `== title ==`, right-aligned
/// headers, a rule, the rows.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.0.len()).collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let line = |cells: Vec<&str>| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, width)| format!("{c:>width$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "\n== {} ==", self.title)?;
        writeln!(f, "{}", line(self.columns.iter().map(|c| c.0).collect()))?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        )?;
        for row in &self.rows {
            writeln!(f, "{}", line(row.iter().map(String::as_str).collect()))?;
        }
        Ok(())
    }
}

/// What one experiment produces: pure data, printed and persisted by the
/// `suite` binary (tables, then artifacts, then notes).
#[derive(Debug, Default)]
pub struct Report {
    /// Result tables, each persisted as `results/<stem>.csv`.
    pub tables: Vec<Table>,
    /// Free-text lines: the parameter header, per-group gains, the paper's
    /// numbers. Host-time readouts belong here, never in a table.
    pub notes: Vec<String>,
    /// Other persisted documents: `(file name under results/, contents)`.
    pub artifacts: Vec<(&'static str, String)>,
}

impl Report {
    /// Appends a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Writes `contents` as `results/<file_name>` (relative to the workspace
/// root when run via cargo) and says so on stdout. A file that cannot be
/// written is reported, not fatal — a read-only filesystem must not kill a
/// benchmark run; only a stdout error is returned.
pub fn write_result(file_name: &str, contents: &str) -> Result<(), String> {
    let dir = results_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return Ok(());
    }
    let path = dir.join(file_name);
    let kind = path.extension().and_then(|x| x.to_str()).unwrap_or("file");
    match fs::write(&path, contents) {
        Ok(()) => write_stdout(&format!("({kind} written to {})\n", path.display())),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            Ok(())
        }
    }
}

/// The workspace's `results/` directory. `CARGO_MANIFEST_DIR` is
/// `crates/bench`, so under cargo it is two levels up; a binary run outside
/// cargo uses `results/` under the current directory — never a relative
/// `../..`, which would escape the checkout.
pub fn results_dir() -> PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(manifest) => PathBuf::from(manifest).join("../../results"),
        Err(_) => PathBuf::from("results"),
    }
}

/// Renders a numeric series as a unicode sparkline (e.g. `▂▄▆█▅▁`),
/// normalized to the series' own min/max.
///
/// # Examples
///
/// ```
/// let s = chameleon_bench::table::sparkline(&[0.0, 2.0, 4.0, 8.0]);
/// assert_eq!(s.chars().count(), 4);
/// assert!(s.ends_with('█'));
/// ```
pub fn sparkline(series: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if series.is_empty() {
        return String::new();
    }
    let max = series.iter().cloned().fold(f64::MIN, f64::max);
    let min = series.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(f64::EPSILON);
    series
        .iter()
        .map(|v| {
            let idx = (((v - min) / span) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

/// Formats a fraction as a percentage string (e.g. `+23.5%`).
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", ratio * 100.0)
}

/// Relative improvement of `new` over `base` (`new/base - 1`).
pub fn improvement(new: f64, base: f64) -> f64 {
    if base > 0.0 {
        new / base - 1.0
    } else {
        0.0
    }
}

/// The `metric` of the `(key, algo)` row of a [`sweep`](crate::grid::sweep),
/// if it has one — read from the result the run produced, never re-parsed
/// from a formatted table cell.
pub fn value_of<K: PartialEq, R>(
    rows: &[(K, AlgoKind, R)],
    key: &K,
    algo: AlgoKind,
    metric: impl Fn(&R) -> f64,
) -> Option<f64> {
    rows.iter()
        .find(|(k, a, _)| k == key && *a == algo)
        .map(|(_, _, r)| metric(r))
}

/// ChameleonEC against the baselines of one group.
#[derive(Debug, Clone, PartialEq)]
pub struct Gain<K> {
    /// The group (a trace, a bandwidth, a failure count, ...).
    pub key: K,
    /// [`improvement`] over the mean of the group's baselines.
    pub vs_average: f64,
    /// [`improvement`] over the group's best baseline.
    pub vs_best: f64,
}

/// Groups a [`sweep`](crate::grid::sweep)'s `rows` by key (in
/// first-appearance order) and compares [`AlgoKind::Chameleon`]'s `metric`
/// (higher is better) with the group's baselines
/// ([`AlgoKind::is_baseline`]). A group with no ChameleonEC row or no
/// baseline has no gain and is left out.
pub fn chameleon_gains<K: PartialEq + Clone, R>(
    rows: &[(K, AlgoKind, R)],
    metric: impl Fn(&R) -> f64,
) -> Vec<Gain<K>> {
    let mut keys: Vec<&K> = Vec::new();
    for (key, _, _) in rows {
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    keys.into_iter()
        .filter_map(|key| {
            let cham = value_of(rows, key, AlgoKind::Chameleon, &metric)?;
            let bases: Vec<f64> = rows
                .iter()
                .filter(|(k, a, _)| k == key && a.is_baseline())
                .map(|(_, _, r)| metric(r))
                .collect();
            let best = bases.iter().cloned().reduce(f64::max)?;
            let average = bases.iter().sum::<f64>() / bases.len() as f64;
            Some(Gain {
                key: key.clone(),
                vs_average: improvement(cham, average),
                vs_best: improvement(cham, best),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const COLUMNS: &[Column] = &[("algo", "algorithm"), ("repair MB/s", "repair_mbps")];

    fn fixture() -> Table {
        let mut t = Table::new("fixture", "a fixture", COLUMNS);
        t.push(vec!["CR".into(), "120.5".into()]);
        t.push(vec!["ChameleonEC".into(), "9.0".into()]);
        t
    }

    #[test]
    fn csv_is_names_then_rows_comma_joined() {
        assert_eq!(
            fixture().csv(),
            "algorithm,repair_mbps\nCR,120.5\nChameleonEC,9.0\n"
        );
        // A comma-bearing label is one quoted field, its quotes doubled.
        let mut t = fixture();
        t.push(vec!["RS(4,2) \"wide\"".into(), "7.5".into()]);
        let csv = t.csv();
        assert!(csv.ends_with("\n\"RS(4,2) \"\"wide\"\"\",7.5\n"), "{csv}");
        let rows = parse_csv(&csv);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[3], ["RS(4,2) \"wide\"", "7.5"]);
        assert_eq!(
            Table::new("e", "e", COLUMNS).csv(),
            "algorithm,repair_mbps\n"
        );
    }

    #[test]
    fn parse_csv_reads_quoted_fields_line_breaks_and_crlf() {
        let text = "a,b\r\n\"x,\ny\",\"\"\r\n\n1,\"say \"\"hi\"\"\"\nlast,";
        assert_eq!(
            parse_csv(text),
            vec![
                vec!["a", "b"],
                vec!["x,\ny", ""],
                vec!["1", "say \"hi\""],
                vec!["last", ""],
            ]
        );
        assert!(parse_csv("").is_empty());
    }

    #[test]
    fn rendering_right_aligns_under_the_display_titles() {
        assert_eq!(
            fixture().to_string(),
            "\n== a fixture ==\n       algo  repair MB/s\n--------------------------\n         \
             CR        120.5\nChameleonEC          9.0\n"
        );
    }

    #[test]
    #[should_panic(expected = "table 'fixture' has 2 columns, row has 1 cells")]
    fn a_short_row_panics_on_push() {
        fixture().push(vec!["PPR".into()]);
    }

    #[test]
    #[should_panic(expected = "table 'fixture' has 2 columns, row has 3 cells")]
    fn a_long_row_panics_on_push() {
        fixture().push(vec!["PPR".into(), "1.0".into(), "extra".into()]);
    }

    #[test]
    fn gains_are_computed_per_group_through_the_metric() {
        let rows = [
            ("a", AlgoKind::Cr, 100.0),
            ("a", AlgoKind::Ppr, 200.0),
            ("a", AlgoKind::Chameleon, 300.0),
            // ChameleonEC variants are neither side of the comparison.
            ("a", AlgoKind::ChameleonIo, 1000.0),
            ("b", AlgoKind::EcPipe, 50.0),
            ("b", AlgoKind::Chameleon, 40.0),
            // No ChameleonEC cell: no gain, no panic.
            ("c", AlgoKind::Cr, 10.0),
            // No baseline either way round.
            ("d", AlgoKind::Chameleon, 10.0),
        ];
        let gains = chameleon_gains(&rows, |&v| v);
        assert_eq!(gains.len(), 2);
        assert_eq!(gains[0].key, "a");
        assert!((gains[0].vs_average - 1.0).abs() < 1e-12, "300 vs mean 150");
        assert!((gains[0].vs_best - 0.5).abs() < 1e-12, "300 vs best 200");
        assert_eq!(gains[1].key, "b");
        assert!((gains[1].vs_average + 0.2).abs() < 1e-12);
        assert!((gains[1].vs_best + 0.2).abs() < 1e-12);

        assert_eq!(value_of(&rows, &"a", AlgoKind::Ppr, |&v| v), Some(200.0));
        assert_eq!(value_of(&rows, &"a", AlgoKind::Ppr, |v| -v), Some(-200.0));
        assert_eq!(value_of(&rows, &"c", AlgoKind::Chameleon, |&v| v), None);
    }

    #[test]
    fn improvement_math() {
        assert!((improvement(150.0, 100.0) - 0.5).abs() < 1e-12);
        assert_eq!(improvement(1.0, 0.0), 0.0);
        assert_eq!(pct(0.235), "+23.5%");
        assert_eq!(pct(-0.084), "-8.4%");
    }

    #[test]
    fn sparkline_shape() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0]), "▁");
        let s = sparkline(&[0.0, 10.0, 5.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.contains('█'));
    }
}
