//! Table rendering for experiment reports.
//!
//! EXPERIMENTS.md and the examples print their results as Markdown tables;
//! this module keeps that formatting in one place.

/// A simple table: a header row plus data rows of equal arity.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row arity does not match the header.
    pub fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row arity {} does not match header arity {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as GitHub-flavoured Markdown. A `|` inside a cell is
    /// written `\|`, so it never opens an extra column; columns are padded
    /// to the widest escaped cell, counted in characters.
    pub fn to_markdown(&self) -> String {
        let escape = |cells: &[String]| -> Vec<String> {
            cells.iter().map(|c| c.replace('|', "\\|")).collect()
        };
        let header = escape(&self.header);
        let rows: Vec<Vec<String>> = self.rows.iter().map(|r| escape(r)).collect();
        let widths: Vec<usize> = (0..header.len())
            .map(|i| {
                rows.iter()
                    .chain(std::iter::once(&header))
                    .map(|r| r[i].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = String::new();
        let format_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&format_row(&header));
        let separator: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format_row(&separator));
        for row in &rows {
            out.push_str(&format_row(row));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering_aligns_columns() {
        let mut t = Table::new(["algorithm", "n", "mean"]);
        t.push_row(["Gathering", "64", "3969.0"]);
        t.push_row(["Waiting", "64", "8241.5"]);
        let md = t.to_markdown();
        assert!(md.starts_with("| algorithm | n  | mean   |"));
        assert!(md.contains("| Gathering | 64 | 3969.0 |"));
        assert_eq!(md.lines().count(), 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn pipes_inside_cells_are_escaped() {
        let mut t = Table::new(["id", "measured", "status"]);
        t.push_row(["E1", "a | b", "consistent"]);
        let md = t.to_markdown();
        let unescaped_pipes = |line: &str| {
            line.char_indices()
                .filter(|&(i, c)| c == '|' && !line[..i].ends_with('\\'))
                .count()
        };
        let header_pipes = unescaped_pipes(md.lines().next().unwrap());
        assert_eq!(header_pipes, 4);
        for line in md.lines() {
            assert_eq!(unescaped_pipes(line), header_pipes, "{line}");
        }
        assert!(md.contains("| a \\| b   | consistent |"), "{md}");
    }

    #[test]
    fn widths_count_characters_not_bytes() {
        let mut t = Table::new(["x"]);
        t.push_row(["n²"]);
        assert_eq!(t.to_markdown(), "| x  |\n| -- |\n| n² |\n");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["only one"]);
    }
}
