//! Typed result tables and the one renderer behind every `results/<id>.txt`.

use storage::Json;

/// One column of a [`Table`].
pub struct Col {
    pub name: &'static str,
    /// Draw a group bar before the column.
    bar: bool,
    /// Decimals a number is printed with; `None` prints the shortest form.
    places: Option<usize>,
}

impl Col {
    /// Parses `[|]name[:places]`: `|` = group bar.
    fn parse(spec: &'static str) -> Col {
        let (bar, spec) = spec.strip_prefix('|').map_or((false, spec), |s| (true, s));
        let (name, places) = match spec.rsplit_once(':') {
            Some((name, p)) => (name, Some(p.parse().expect("column places"))),
            None => (spec, None),
        };
        Col { name, bar, places }
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
        let cols: Vec<Col> = cols.split(", ").map(Col::parse).collect();
        assert!(cols.iter().enumerate().all(|(i, c)| cols[..i].iter().all(|d| d.name != c.name)), "one name per column");
        let mut table = Table { heading: heading.into(), cols, rows: Vec::new(), note: String::new() };
        rows.into_iter().for_each(|row| table.push(row));
        table
    }

    pub fn push(&mut self, cells: Vec<Json>) {
        assert_eq!(cells.len(), self.cols.len(), "one cell per column");
        self.rows.push(cells);
    }

    /// Column `name`, top to bottom.
    pub fn cells(&self, name: &str) -> impl Iterator<Item = &Json> {
        let found = self.cols.iter().position(|c| c.name == name);
        let c = found.unwrap_or_else(|| panic!("no column {name:?}"));
        self.rows.iter().map(move |r| &r[c])
    }

    /// Column `name`, top to bottom, as numbers.
    pub fn nums(&self, name: &str) -> Vec<f64> {
        self.cells(name).map(|cell| cell.as_f64().expect("numeric column")).collect()
    }

    /// Each row as one line of a `repro --out` snapshot, this being table
    /// `index` of `experiment`: `{"experiment":…,"table":…,<column>:<cell>,…}`.
    pub fn snapshot(&self, experiment: &str, index: usize) -> impl Iterator<Item = Json> + '_ {
        let tags = [("experiment", Json::from(experiment)), ("table", index.into())];
        self.rows.iter().map(move |row| {
            let cells = self.cols.iter().zip(row).map(|(c, cell)| (c.name, cell.clone()));
            Json::obj(tags.iter().cloned().chain(cells))
        })
    }

    /// Aligned text: a column of strings flush left, a column of numbers flush
    /// right, each as wide as its widest cell.
    pub fn render(&self) -> String {
        let mut lines: Vec<Vec<String>> = vec![self.cols.iter().map(|c| c.name.to_string()).collect()];
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
