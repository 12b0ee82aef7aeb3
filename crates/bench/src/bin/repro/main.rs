//! `repro [--out FILE] [--check FILE] [<id>…]` — reproduces the paper's
//! tables and figures, the regression grid, the planner evaluation and the
//! scaling sweep, and checks the claims about them. Each id names one of
//! [`experiments::EXPERIMENTS`] (no id = all of them; an unknown id exits 2).
//! For each, `repro` prints what `results/<id>.txt` holds (see
//! `run_experiments.sh`): the banner, the experiment's tables, and one line
//! per claim of [`claims::claims`] about it. A `gate` claim that is false at
//! this `SJ_SCALE` exits 1. `SJ_SCALE` shrinks every dataset (and the memory
//! axis with it). Every column is a counter or a simulated time priced from
//! counters, so two runs print the same file.
//!
//! * `--out FILE` also writes every table produced to FILE as a snapshot:
//!   JSON Lines, `{"meta":{"scale":…}}` first, then one
//!   `{"experiment":id,"table":index,<column>:<cell>,…}` line per row.
//! * `--check FILE` compares every cell produced with such a snapshot, for
//!   exact equality: a difference exits 1, naming experiment, table, row and
//!   column. A snapshot recorded at another `SJ_SCALE` is refused (exit 2).

mod claims;
mod experiments;
mod table;

use claims::claims;
use experiments::{Experiment, EXPERIMENTS};
use storage::Json;
use table::Table;

/// The banner and the tables of one experiment, as `results/<id>.txt` holds them.
fn render(e: &Experiment, scale: f64, tables: &[Table]) -> String {
    let banner = format!(
        "=== {} ===\nscale: {scale} (SJ_SCALE; 1.0 = paper cardinalities)\npaper expectation: {}\n",
        e.title, e.expectation
    );
    tables.iter().fold(banner, |out, t| out + "\n" + &t.render())
}

/// Prints `why` and the usage, and exits 2.
fn usage(why: &str) -> ! {
    let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    eprintln!("repro: {why}\nusage: repro [--out FILE] [--check FILE] [<id>…]   ids: {}", known.join(" "));
    std::process::exit(2)
}

/// Prints `why` about `path` and exits 2.
fn refuse(path: &str, why: impl std::fmt::Display) -> ! {
    eprintln!("repro: {path}: {why}");
    std::process::exit(2)
}

/// What `--out` writes for the tables `produced` at `scale`.
fn snapshot(scale: f64, produced: &[(&str, Vec<Table>)]) -> String {
    let mut out = format!("{}\n", Json::obj([("meta", Json::obj([("scale", scale.into())]))]));
    for (id, tables) in produced {
        for (i, t) in tables.iter().enumerate() {
            t.snapshot(id, i).for_each(|row| out += &format!("{row}\n"));
        }
    }
    out
}

/// The rows of a snapshot recorded at `scale`; one recorded at another is refused.
fn snapshot_rows(text: &str, scale: f64) -> Result<Vec<Json>, String> {
    let mut lines = text.lines().map(Json::parse);
    let meta = lines.next().ok_or("the snapshot is empty")??;
    let recorded = meta.get("meta").and_then(|m| m.get("scale")).and_then(Json::as_f64);
    match recorded.ok_or("the snapshot does not start with its meta line")? {
        s if s == scale => lines.collect(),
        s => Err(format!("the snapshot was recorded at SJ_SCALE={s}, this run is at {scale}")),
    }
}

/// Every difference between experiment `id`'s `tables` and the rows of it
/// `snapshot` holds: a cell, by table, row and column, or a row only one
/// side has.
fn check(id: &str, tables: &[Table], snapshot: &[Json]) -> Vec<String> {
    let theirs: Vec<&Json> = snapshot.iter().filter(|r| r.get("experiment").and_then(Json::as_str) == Some(id)).collect();
    let table_of = |r: &Json| r.get("table").and_then(Json::as_u64).map(|i| i as usize);
    let keys = |r: &Json| match r {
        Json::Obj(members) => members.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    };
    let count = theirs.iter().filter_map(|r| table_of(r)).map(|i| i + 1).max().unwrap_or(0).max(tables.len());
    let mut diffs = Vec::new();
    for i in 0..count {
        let ours: Vec<Json> = tables.get(i).map_or(Vec::new(), |t| t.snapshot(id, i).collect());
        let theirs: Vec<&Json> = theirs.iter().copied().filter(|r| table_of(r) == Some(i)).collect();
        for row in 0..ours.len().max(theirs.len()) {
            let at = format!("{id} table {i} row {row}");
            match (ours.get(row), theirs.get(row)) {
                (Some(here), Some(&there)) => {
                    let mut cols = keys(here);
                    cols.extend(keys(there).into_iter().filter(|k| here.get(k).is_none()));
                    for col in cols {
                        let [a, b] = [here, there].map(|r| r.get(&col).map_or("nothing".into(), Json::to_string));
                        if a != b {
                            diffs.push(format!("{at} column {col:?}: {a} here, {b} in the snapshot"));
                        }
                    }
                }
                (Some(_), None) => diffs.push(format!("{at}: produced, not in the snapshot")),
                (None, _) => diffs.push(format!("{at}: in the snapshot, not produced")),
            }
        }
    }
    diffs
}

fn main() {
    let (mut out, mut check_path, mut ids) = (None, None, Vec::new());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" | "--check" => {
                let file = args.next().unwrap_or_else(|| usage(&format!("{arg} needs a file")));
                *(if arg == "--out" { &mut out } else { &mut check_path }) = Some(file);
            }
            id if EXPERIMENTS.iter().any(|e| e.id == id) => ids.push(arg),
            bad => usage(&format!("unknown experiment {bad:?}")),
        }
    }
    let scale = bench::scale();
    let recorded = check_path.map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| refuse(&path, e));
        let rows = snapshot_rows(&text, scale).unwrap_or_else(|e| refuse(&path, e));
        (path, rows)
    });
    let (claims, mut tally, mut produced) = (claims(), [0; 4], Vec::new());
    for e in EXPERIMENTS.iter().filter(|e| ids.is_empty() || ids.iter().any(|id| id == e.id)) {
        let tables = (e.run)();
        println!("{}\nclaims:", render(e, scale, &tables));
        for claim in claims.iter().filter(|c| c.id.split_once('.').map(|id| id.0) == Some(e.id)) {
            let (verdict, line) = claim.evaluate(scale, &tables);
            println!("{line}");
            tally[verdict as usize] += 1;
        }
        println!();
        produced.push((e.id, tables));
    }
    let [held, skipped, failed, reported] = tally;
    println!(
        "repro: {held} gate claims hold, {failed} failed, {skipped} skipped below their scale; \
         {reported} not-reproduced claims reported"
    );
    if let Some(path) = &out {
        std::fs::write(path, snapshot(scale, &produced)).unwrap_or_else(|e| refuse(path, e));
    }
    let diffs: Vec<String> = recorded.iter().flat_map(|(_, rows)| produced.iter().flat_map(|(id, t)| check(id, t, rows))).collect();
    if let Some((path, _)) = &recorded {
        diffs.iter().for_each(|d| println!("repro: {d}"));
        let cells: usize = produced.iter().flat_map(|(_, t)| t).map(|t| t.rows.len() * t.cols.len()).sum();
        println!("repro: {cells} cells checked against {path}, {} differ", diffs.len());
    }
    std::process::exit((failed > 0 || !diffs.is_empty()) as i32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use claims::Verdict;
    use storage::Json;
    use table::row;

    fn run(id: &str) -> Vec<Table> {
        std::env::set_var("SJ_SCALE", "0.01");
        (EXPERIMENTS.iter().find(|e| e.id == id).expect("known id").run)()
    }

    fn claim(id: &str) -> claims::Claim {
        claims().into_iter().find(|c| c.id == id).expect("known claim")
    }

    #[test]
    fn every_experiment_runs_renders_and_repeats_itself() {
        for e in &EXPERIMENTS {
            let (first, second) = (run(e.id), run(e.id));
            assert!(!first.is_empty(), "{} returned no table", e.id);
            for t in &first {
                assert!(!t.rows.is_empty(), "{}: empty table {:?}", e.id, t.heading);
                assert!(t.rows.iter().all(|r| r.len() == t.cols.len()), "{}: ragged row", e.id);
            }
            // One header and one line per row, under the three banner lines.
            let lines = render(e, 0.01, &first).lines().count();
            assert!(lines >= 3 + first.iter().map(|t| 2 + t.rows.len()).sum::<usize>(), "{}", e.id);
            assert_eq!(render(e, 0.01, &first), render(e, 0.01, &second), "{}", e.id);
            // Every claim about it evaluates (no missing column, no short table) and names itself.
            for c in claims().iter().filter(|c| c.id.starts_with(&format!("{}.", e.id))) {
                assert!(c.evaluate(0.01, &first).1.contains(c.id));
            }
        }
    }

    #[test]
    fn every_claim_belongs_to_an_experiment_and_every_experiment_with_counters_has_a_gate() {
        let all = claims();
        for c in &all {
            let owner = c.id.split_once('.').expect("claim ids are <experiment>.<name>").0;
            assert!(EXPERIMENTS.iter().any(|e| e.id == owner), "{} names no experiment", c.id);
            assert_eq!(all.iter().filter(|o| o.id == c.id).count(), 1, "{} is listed twice", c.id);
        }
        for e in &EXPERIMENTS {
            let gated = |c: &&claims::Claim| c.id.starts_with(&format!("{}.", e.id)) && matches!(c.status, claims::Status::Gate(_));
            assert!(all.iter().any(|c| gated(&c)), "{} has no gate claim", e.id);
        }
    }

    #[test]
    fn renderer_golden() {
        let mut t = Table::new("three rows", "join, results, |io u:0, |tot s:1, note", [
            row!["J1", 57657u64, 12162.4, 29.44, "first"],
            row!["J2", 230175u64, 12218.0, 32.6, ""],
            row!["J10", 7u64, 0.5, 107.05, "≤ 1 pass"],
        ]);
        t.note = "(a note)".into();
        let expected = "\
-- three rows
join results |  io u | tot s note
J1     57657 | 12162 |  29.4 first
J2    230175 | 12218 |  32.6
J10        7 |     0 | 107.0 ≤ 1 pass

(a note)
";
        assert_eq!(t.render(), expected);
    }

    #[test]
    fn a_doctored_table_fails_its_gate_by_claim_id() {
        let mut fig3 = run("fig3");
        let gate = claim("fig3.rp-no-dedup-io");
        assert_eq!(gate.evaluate(1.0, &fig3).0, Verdict::Held);
        let col = fig3[0].cols.iter().position(|c| c.name == "RP dedup u").unwrap();
        fig3[0].rows[2][col] = Json::Num(1.0);
        let (verdict, line) = gate.evaluate(1.0, &fig3);
        assert_eq!(verdict, Verdict::Failed);
        assert!(line.contains("GATE FAILED") && line.contains("fig3.rp-no-dedup-io"), "{line}");

        let mut ablations = run("ablations");
        let gate = claim("ablations.curve-invariance");
        assert_eq!(gate.evaluate(1.0, &ablations).0, Verdict::Held);
        let col = ablations[4].cols.iter().position(|c| c.name == "tests").unwrap();
        ablations[4].rows[1][col] = Json::Num(ablations[4].nums("tests")[0] + 1.0);
        let (verdict, line) = gate.evaluate(1.0, &ablations);
        assert_eq!(verdict, Verdict::Failed);
        assert!(line.contains("ablations.curve-invariance"), "{line}");
    }

    #[test]
    fn a_gate_below_its_recorded_scale_is_skipped_not_passed() {
        // Recorded to hold from SJ_SCALE 0.2; at 0.01 the base I/O moves by more than 2 %.
        let (fig3, gate) = (run("fig3"), claim("fig3.pd-dedup-grows"));
        let (verdict, line) = gate.evaluate(0.01, &fig3);
        assert_eq!(verdict, Verdict::Skipped);
        assert!(line.contains("gate skipped") && line.contains("0.2"), "{line}");
        assert_eq!(gate.evaluate(0.2, &fig3).0, Verdict::Failed, "the same rows at its own scale");
        // A not-reproduced claim never fails, whatever it measures.
        let fig4 = run("fig4");
        assert_eq!(claim("fig4.trie-beats-list").evaluate(1.0, &fig4).0, Verdict::Reported);
    }

    fn differences(produced: &[(&str, Vec<Table>)], recorded: &[Json]) -> Vec<String> {
        produced.iter().flat_map(|(id, tables)| check(id, tables, recorded)).collect()
    }

    #[test]
    fn a_snapshot_passes_its_own_check_and_fails_a_doctored_cell_a_missing_row_or_an_extra_row() {
        let mut produced = [("table1", run("table1")), ("table3", run("table3"))];
        let text = snapshot(0.01, &produced);
        assert!(text.starts_with("{\"meta\":{\"scale\":0.01}}\n{\"experiment\":\"table1\",\"table\":0,\"dataset\":"), "{text}");
        let mut recorded = snapshot_rows(&text, 0.01).expect("the same scale");
        assert_eq!(differences(&produced, &recorded), Vec::<String>::new());

        let col = produced[1].1[1].cols.iter().position(|c| c.name == "write").unwrap();
        let cell = std::mem::replace(&mut produced[1].1[1].rows[2][col], Json::Num(9.5));
        let diffs = differences(&produced, &recorded);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].starts_with("table3 table 1 row 2 column \"write\": 9.5 here, "), "{diffs:?}");
        produced[1].1[1].rows[2][col] = cell;

        // table1's last row; then table3's first table one row short, then one row long.
        let row = recorded.remove(8);
        assert_eq!(differences(&produced, &recorded), ["table1 table 0 row 8: produced, not in the snapshot"]);
        recorded.insert(8, row);
        let last = produced[1].1[0].rows.pop().unwrap();
        assert_eq!(differences(&produced, &recorded), ["table3 table 0 row 2: in the snapshot, not produced"]);
        produced[1].1[0].rows.extend([last.clone(), last]);
        assert_eq!(differences(&produced, &recorded), ["table3 table 0 row 3: produced, not in the snapshot"]);
    }

    #[test]
    fn a_snapshot_of_another_scale_is_refused() {
        let text = snapshot(0.2, &[("table1", run("table1"))]);
        let err = snapshot_rows(&text, 0.01).expect_err("another scale");
        assert!(err.contains("SJ_SCALE=0.2") && err.contains("0.01"), "{err}");
        assert!(snapshot_rows("{\"experiment\":\"table1\"}\n", 0.01).is_err(), "no meta line");
    }
}
