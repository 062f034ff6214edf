//! CSV export, for plotting outside the terminal.

use std::path::Path;

/// Write a generic table (header + rows) as CSV, creating parent
/// directories. `optirec inspect convergence --csv` exports its series
/// through it.
pub fn write_table_csv(header: &[&str], rows: &[Vec<String>], path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_table_csv() {
        let dir = std::env::temp_dir().join("optirec-csv-test2");
        let path = dir.join("table.csv");
        write_table_csv(&["strategy", "ms"], &[vec!["optimistic".into(), "1.5".into()]], &path)
            .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "strategy,ms\noptimistic,1.5\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
