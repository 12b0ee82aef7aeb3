//! `repro [<id>…]` — reproduces the paper's tables and figures and checks its
//! claims against them. Each id names one of [`experiments::EXPERIMENTS`] (no
//! id = all fifteen; an unknown id exits 2). For each, `repro` prints what
//! `results/<id>.txt` holds (see `run_experiments.sh`): the banner, the
//! experiment's tables, and one line per claim of [`claims::claims`] about it.
//! A `gate` claim that is false at this `SJ_SCALE` exits 1. `SJ_SCALE` shrinks
//! every dataset (and the memory axis with it); `SJ_REPEAT` makes the noisy J5
//! figures (5, 11, 12, 14) report the median of that many runs.

mod claims;
mod experiments;
mod table;

use claims::claims;
use experiments::{Experiment, EXPERIMENTS};
use table::Table;

/// The banner and the tables of one experiment, as `results/<id>.txt` holds them.
fn render(e: &Experiment, scale: f64, tables: &[Table]) -> String {
    let banner = format!(
        "=== {} ===\nscale: {scale} (SJ_SCALE; 1.0 = paper cardinalities)\npaper expectation: {}\n\
         columns: ~ heads one derived from host CPU time (differs run to run); all others are deterministic\n",
        e.title, e.expectation
    );
    tables.iter().fold(banner, |out, t| out + "\n" + &t.render())
}

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = ids.iter().find(|id| EXPERIMENTS.iter().all(|e| e.id != *id)) {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        eprintln!("repro: unknown experiment {bad:?}\nusage: repro [<id>…]   ids: {}", known.join(" "));
        std::process::exit(2);
    }
    let (scale, claims) = (bench::scale(), claims());
    let mut tally = [0; 4];
    for e in EXPERIMENTS.iter().filter(|e| ids.is_empty() || ids.iter().any(|id| id == e.id)) {
        let tables = (e.run)();
        println!("{}\nclaims:", render(e, scale, &tables));
        for claim in claims.iter().filter(|c| c.id.split_once('.').map(|id| id.0) == Some(e.id)) {
            let (verdict, line) = claim.evaluate(scale, &tables);
            println!("{line}");
            tally[verdict as usize] += 1;
        }
        println!();
    }
    let [held, skipped, failed, reported] = tally;
    println!(
        "repro: {held} gate claims hold, {failed} failed, {skipped} skipped below their scale; \
         {reported} host / not-reproduced claims reported"
    );
    std::process::exit((failed > 0) as i32);
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

    /// Heading and every deterministic cell of `tables`.
    fn deterministic(tables: &[Table]) -> Vec<(String, Vec<Vec<Json>>)> {
        let keep = |t: &Table, row: &Vec<Json>| -> Vec<Json> {
            t.cols.iter().zip(row).filter(|(c, _)| !c.host).map(|(_, cell)| cell.clone()).collect()
        };
        tables.iter().map(|t| (t.heading.clone(), t.rows.iter().map(|r| keep(t, r)).collect())).collect()
    }

    #[test]
    fn every_experiment_runs_renders_and_repeats_its_deterministic_columns() {
        for e in &EXPERIMENTS {
            let (first, second) = (run(e.id), run(e.id));
            assert!(!first.is_empty(), "{} returned no table", e.id);
            for t in &first {
                assert!(!t.rows.is_empty(), "{}: empty table {:?}", e.id, t.heading);
                assert!(t.rows.iter().all(|r| r.len() == t.cols.len()), "{}: ragged row", e.id);
            }
            // One header and one line per row, under the four banner lines.
            let lines = render(e, 0.01, &first).lines().count();
            assert!(lines >= 4 + first.iter().map(|t| 2 + t.rows.len()).sum::<usize>(), "{}", e.id);
            assert_eq!(deterministic(&first), deterministic(&second), "{}", e.id);
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
        let mut t = Table::new("three rows", "join, results, |io u:0, |~tot s:1, note", [
            row!["J1", 57657u64, 12162.4, 29.44, "first"],
            row!["J2", 230175u64, 12218.0, 32.6, ""],
            row!["J10", 7u64, 0.5, 107.05, "≤ 1 pass"],
        ]);
        t.note = "(a note)".into();
        let expected = "\
-- three rows
join results |  io u | ~tot s note
J1     57657 | 12162 |   29.4 first
J2    230175 | 12218 |   32.6
J10        7 |     0 |  107.0 ≤ 1 pass

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
        // A host or not-reproduced claim never fails, whatever it measures.
        let fig4 = run("fig4");
        assert_eq!(claim("fig4.trie-beats-list").evaluate(1.0, &fig4).0, Verdict::Reported);
    }
}
