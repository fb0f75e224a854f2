//! Plain-text rendering of figure/table data (aligned columns, CSV).

/// Renders rows as an aligned text table. `headers.len()` must equal each
/// row's length.
pub(crate) fn text_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&render_row(headers.to_vec(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(
            row.iter().map(String::as_str).collect(),
            &widths,
        ));
        out.push('\n');
    }
    out
}

/// Renders rows as CSV (no quoting — figure data is numeric/simple).
pub(crate) fn csv_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = headers.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Formats an `Option<f64>` for table cells (empty when missing).
pub(crate) fn opt(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.0}")).unwrap_or_default()
}

/// Formats a fraction as a percentage with one decimal.
pub(crate) fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_table() {
        let table = text_table(
            &["rank", "name"],
            &[
                vec!["1".into(), "El Capitan".into()],
                vec!["500".into(), "Marlyn".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("rank"));
        assert!(lines[2].trim_start().starts_with('1'));
    }

    #[test]
    fn csv_output() {
        let csv = csv_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(csv, "a,b\n1,2\n");
    }

    #[test]
    fn formatters() {
        assert_eq!(opt(Some(12.7)), "13");
        assert_eq!(opt(None), "");
        assert_eq!(pct(0.808), "80.8%");
    }
}
