//! Typed result tables and the one renderer behind every `results/<id>.txt`.

use storage::Json;

/// One column of a [`Table`].
pub struct Col {
    pub name: &'static str,
    /// Derived from measured host CPU time — differs run to run. Every other
    /// column is deterministic: a counter, or simulated I/O under the cost model.
    pub host: bool,
    /// Draw a group bar before the column.
    bar: bool,
    /// Decimals a number is printed with; `None` prints the shortest form.
    places: Option<usize>,
}

impl Col {
    /// Parses `[|][~]name[:places]`: `|` = group bar, `~` = host-derived.
    fn parse(spec: &'static str) -> Col {
        let (bar, spec) = spec.strip_prefix('|').map_or((false, spec), |s| (true, s));
        let (host, spec) = spec.strip_prefix('~').map_or((false, spec), |s| (true, s));
        let (name, places) = match spec.rsplit_once(':') {
            Some((name, p)) => (name, Some(p.parse().expect("column places"))),
            None => (spec, None),
        };
        Col { name, host, bar, places }
    }

    fn show(&self, cell: &Json) -> String {
        match (cell, self.places) {
            (Json::Num(v), Some(p)) => format!("{v:.p$}"),
            (Json::Str(s), _) => s.clone(),
            (other, _) => other.to_string(),
        }
    }
}

/// Rows of [`Json`] cells under named columns; optional heading above, note below.
pub struct Table {
    pub heading: String,
    pub cols: Vec<Col>,
    pub rows: Vec<Vec<Json>>,
    pub note: String,
}

/// A row of cells from anything `Json: From`.
macro_rules! row {
    ($($cell:expr),* $(,)?) => { vec![$(storage::Json::from($cell)),*] };
}
pub(crate) use row;

impl Table {
    /// A table of `rows`; `cols` lists the column specs ([`Col::parse`]), `, `-separated.
    pub fn new(heading: impl Into<String>, cols: &'static str, rows: impl IntoIterator<Item = Vec<Json>>) -> Table {
        let cols = cols.split(", ").map(Col::parse).collect();
        let mut table = Table { heading: heading.into(), cols, rows: Vec::new(), note: String::new() };
        rows.into_iter().for_each(|row| table.push(row));
        table
    }

    pub fn push(&mut self, cells: Vec<Json>) {
        assert_eq!(cells.len(), self.cols.len(), "one cell per column");
        self.rows.push(cells);
    }

    /// Column `name`, top to bottom, as numbers.
    pub fn nums(&self, name: &str) -> Vec<f64> {
        let found = self.cols.iter().position(|c| c.name == name);
        let c = found.unwrap_or_else(|| panic!("no column {name:?}"));
        self.rows.iter().map(|r| r[c].as_f64().expect("numeric column")).collect()
    }

    /// Aligned text: a column of strings flush left, a column of numbers flush
    /// right, each as wide as its widest cell; `~` heads a host-derived column.
    pub fn render(&self) -> String {
        let header = self.cols.iter().map(|c| format!("{}{}", if c.host { "~" } else { "" }, c.name));
        let mut lines: Vec<Vec<String>> = vec![header.collect()];
        for row in &self.rows {
            lines.push(self.cols.iter().zip(row).map(|(c, cell)| c.show(cell)).collect());
        }
        let mut out = if self.heading.is_empty() { String::new() } else { format!("-- {}\n", self.heading) };
        for line in &lines {
            let mut text = String::new();
            for (i, (cell, col)) in line.iter().zip(&self.cols).enumerate() {
                let w = lines.iter().map(|l| l[i].chars().count()).max().unwrap_or(0);
                let gap = if i == 0 { "" } else if col.bar { " | " } else { " " };
                let left = matches!(self.rows.first().map(|r| &r[i]), Some(Json::Str(_)));
                text += &if left { format!("{gap}{cell:<w$}") } else { format!("{gap}{cell:>w$}") };
            }
            out += text.trim_end();
            out.push('\n');
        }
        if !self.note.is_empty() {
            out += &format!("\n{}\n", self.note);
        }
        out
    }
}
