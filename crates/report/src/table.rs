//! Aligned text tables.

use std::fmt;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left-aligned (default; good for names).
    #[default]
    Left,
    /// Right-aligned (good for numbers).
    Right,
}

/// A simple aligned text table with a header row.
///
/// # Example
///
/// ```
/// use pim_report::table::{Align, TextTable};
///
/// let mut t = TextTable::new(&["net", "cycles"]);
/// t.align(1, Align::Right);
/// t.add_row(&["VGG-13", "77102"]);
/// t.add_row(&["ResNet-18", "4294"]);
/// let s = t.render();
/// assert!(s.contains("77102"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    aligns: Vec<Align>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: AsRef<str>>(header: &[S]) -> Self {
        Self {
            header: header.iter().map(|s| s.as_ref().to_string()).collect(),
            rows: Vec::new(),
            aligns: vec![Align::Left; header.len()],
        }
    }

    /// Sets the alignment of one column (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn align(&mut self, col: usize, align: Align) -> &mut Self {
        self.aligns[col] = align;
        self
    }

    /// Appends a data row. Shorter rows are padded with empty cells.
    ///
    /// # Panics
    ///
    /// Panics if the row has more cells than the header.
    pub fn add_row<S: AsRef<str>>(&mut self, row: &[S]) -> &mut Self {
        assert!(
            row.len() <= self.header.len(),
            "row has {} cells but table has {} columns",
            row.len(),
            self.header.len()
        );
        let mut cells: Vec<String> = row.iter().map(|s| s.as_ref().to_string()).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }

    /// Renders the aligned table, header first, with a separator rule.
    pub fn render(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        let fmt_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                match self.aligns[i] {
                    Align::Left => {
                        out.push_str(cell);
                        if i + 1 < cells.len() {
                            for _ in cell.len()..widths[i] {
                                out.push(' ');
                            }
                        }
                    }
                    Align::Right => {
                        for _ in cell.len()..widths[i] {
                            out.push(' ');
                        }
                        out.push_str(cell);
                    }
                }
            }
            out.push('\n');
        };
        fmt_row(&self.header, &mut out);
        let rule_len = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(&["a", "value"]);
        t.align(1, Align::Right);
        t.add_row(&["x", "1"]);
        t.add_row(&["long-name", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Right-aligned numbers end at the same column.
        assert!(lines[2].ends_with("    1"));
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(&["a", "b", "c"]);
        t.add_row(&["only"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.render().contains("only"));
    }

    #[test]
    #[should_panic(expected = "row has 3 cells")]
    fn oversized_rows_panic() {
        let mut t = TextTable::new(&["a", "b"]);
        t.add_row(&["1", "2", "3"]);
    }

    #[test]
    fn display_matches_render() {
        let mut t = TextTable::new(&["h"]);
        t.add_row(&["v"]);
        assert_eq!(t.to_string(), t.render());
    }
}
