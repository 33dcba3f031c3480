//! Plain-text table rendering for the `repro` harness.

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.rows.push(cells.to_vec());
        self
    }
}

/// Render a [`Table`] with aligned columns.
pub fn render_table(table: &Table) -> String {
    let cols = table.headers.len();
    let mut widths: Vec<usize> = table.headers.iter().map(|h| h.len()).collect();
    for row in &table.rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(&table.headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
    out.push('\n');
    for row in &table.rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into(), "22222".into()]);
        let s = render_table(&t);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("alpha"));
        // Columns align: "value" column starts at the same offset.
        let offset = lines[0].find("value").unwrap();
        assert_eq!(lines[2].find('1').unwrap(), offset);
    }

    #[test]
    fn empty_inputs_do_not_panic() {
        let t = Table::new(&[]);
        assert!(!render_table(&t).is_empty());
    }
}
