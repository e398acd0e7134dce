//! Minimal CSV writing for exporting figure data to plotting tools.

use std::fmt::Write as _;

/// A CSV document built row by row.
///
/// # Examples
///
/// ```
/// use microfaas_cli::csv::Csv;
///
/// let mut csv = Csv::new(&["vms", "func_per_min"]);
/// csv.row_display(&[&1, &34.9]);
/// assert_eq!(csv.to_string(), "vms,func_per_min\n1,34.9\n");
/// ```
#[derive(Debug, Clone)]
pub struct Csv {
    columns: usize,
    body: String,
}

impl Csv {
    /// Starts a document with a header row.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new(header: &[&str]) -> Self {
        assert!(!header.is_empty(), "csv needs at least one column");
        let mut body = String::new();
        writeln!(body, "{}", header.join(",")).expect("writing to String cannot fail");
        Csv {
            columns: header.len(),
            body,
        }
    }

    /// Appends one row, quoting fields that contain commas or quotes.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    fn row(&mut self, fields: &[&str]) -> &mut Self {
        assert_eq!(
            fields.len(),
            self.columns,
            "row has {} fields, header has {}",
            fields.len(),
            self.columns
        );
        let escaped: Vec<String> = fields.iter().map(|f| escape(f)).collect();
        writeln!(self.body, "{}", escaped.join(",")).expect("writing to String cannot fail");
        self
    }

    /// Appends a row of displayable values.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row_display(&mut self, fields: &[&dyn std::fmt::Display]) -> &mut Self {
        let rendered: Vec<String> = fields.iter().map(|f| f.to_string()).collect();
        let refs: Vec<&str> = rendered.iter().map(String::as_str).collect();
        self.row(&refs)
    }

    /// Writes the document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, &self.body)
    }
}

impl std::fmt::Display for Csv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.body)
    }
}

fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_document() {
        let mut csv = Csv::new(&["a", "b"]);
        csv.row(&["1", "2"]).row(&["3", "4"]);
        assert_eq!(csv.to_string(), "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn escapes_commas_and_quotes() {
        let mut csv = Csv::new(&["text"]);
        csv.row(&["hello, \"world\""]);
        assert_eq!(csv.to_string(), "text\n\"hello, \"\"world\"\"\"\n");
    }

    #[test]
    fn row_display_renders_values() {
        let mut csv = Csv::new(&["n", "x"]);
        csv.row_display(&[&5, &1.25]);
        assert_eq!(csv.to_string(), "n,x\n5,1.25\n");
    }

    #[test]
    #[should_panic(expected = "row has 1 fields, header has 2")]
    fn arity_mismatch_panics() {
        Csv::new(&["a", "b"]).row(&["only-one"]);
    }
}
