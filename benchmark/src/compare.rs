//! `sjbench compare A B`: one row per (workload, end-to-end metric) of two
//! result files, A the parent and B the change, judged by the bounds of the
//! metric table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sjoind::Json;

use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::{quartiles, spread};
use crate::workload::Kind;

/// The untraced runs of one result file.
#[derive(Debug, Default)]
pub struct Runs {
    /// Values per (workload, metric), in file order.
    values: BTreeMap<(String, String), Vec<f64>>,
    attempted: u64,
    failed: u64,
}

impl Runs {
    /// Parses the lines `--out` appends: `{"workload":…,"seed":…,"trace":…,
    /// "result":{…}}`. Traced runs carry no end-to-end metric and are skipped.
    pub fn parse(text: &str) -> Result<Runs, String> {
        let mut runs = Runs::default();
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let bad = |what: &str| format!("line {}: {what}", i + 1);
            let v = Json::parse(line.trim()).map_err(|e| bad(&e))?;
            if v.get("trace").and_then(Json::as_u64) != Some(0) {
                continue;
            }
            let workload = v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("no workload"))?;
            let result = v.get("result").ok_or_else(|| bad("no result"))?;
            let count = |key: &str| {
                result
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(&format!("no {key} count")))
            };
            runs.attempted += count("attempted")?;
            runs.failed += count("failed")?;
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                return Err(bad("no metrics"));
            };
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad(&format!("metric {name} has no value")))?;
                runs.values
                    .entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
        Ok(runs)
    }

    fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Judges the change's runs `b` against the parent's runs `a`; run `i` of
/// one side is paired with run `i` of the other.
///
/// * improved — the change wins at least nine pairs in ten (ties count for
///   neither) and the medians lie further apart than the parent's own
///   quartiles;
/// * regressed — the change's median is worse than the parent's by more
///   than the metric's bound;
/// * unresolved — neither, but one side's quartiles lie further apart than
///   the bound, so "no worse than the bound" cannot be read off, unless
///   every run of the change beats every run of the parent;
/// * unchanged — otherwise.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let better = |x: f64, y: f64| if m.higher_is_better { x > y } else { x < y };
    let [a25, a50, a75] = quartiles(a);
    let b50 = quartiles(b)[1];
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    if wins * 10 >= pairs * 9 && better(b50, a50) && (b50 - a50).abs() > a75 - a25 {
        return Verdict::Improved;
    }
    let worse_by = if m.higher_is_better {
        a50 - b50
    } else {
        b50 - a50
    } / a50.abs();
    if worse_by > m.bound {
        return Verdict::Regressed;
    }
    let dominates = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if (spread(a) > m.bound || spread(b) > m.bound) && !dominates {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// The comparison table and whether it holds a regression: a `regressed`
/// row, or a higher share of failed ops.
pub fn compare(a: &Runs, b: &Runs) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<8} {:<14} {:<4} {:>34} {:>34}  {:<28} verdict",
        "workload",
        "metric",
        "unit",
        "parent p25/p50/p75 (n)",
        "change p25/p50/p75 (n)",
        "ratio with its base"
    );
    for kind in Kind::ALL {
        for m in &END_TO_END {
            let key = (kind.name().to_owned(), m.name.to_owned());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let verdict = judge(m, va, vb);
            regressed |= verdict == Verdict::Regressed;
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let cell = |q: [f64; 3], n: usize| format!("{:.4}/{:.4}/{:.4} ({n})", q[0], q[1], q[2]);
            let _ = writeln!(
                out,
                "{:<8} {:<14} {:<4} {:>34} {:>34}  {:<28} {}",
                kind.name(),
                m.name,
                m.unit,
                cell(qa, va.len()),
                cell(qb, vb.len()),
                format!("{:.4}x of {:.4} {}", qb[1] / qa[1], qa[1], m.unit),
                verdict.word()
            );
        }
    }
    let (fa, fb) = (a.failed_share(), b.failed_share());
    let _ = writeln!(
        out,
        "failed ops: parent {} of {} ({fa:.6}), change {} of {} ({fb:.6})",
        a.failed, a.attempted, b.failed, b.attempted
    );
    if fb > fa {
        regressed = true;
        let _ = writeln!(out, "the change fails a higher share of its ops: regressed");
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: EndToEnd = EndToEnd {
        name: "pbsm_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.10,
    };
    const RATE: EndToEnd = EndToEnd {
        name: "pairs_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.10,
    };

    /// Ten values around `centre`, `step` apart.
    fn around(centre: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| centre + (i as f64 - 4.5) * step).collect()
    }

    #[test]
    fn same_distribution_is_unchanged() {
        let a = around(100.0, 0.5);
        let mut b = a.clone();
        b.rotate_left(3);
        assert_eq!(judge(&LATENCY, &a, &b), Verdict::Unchanged);
    }

    #[test]
    fn a_clear_win_is_improved_in_either_direction() {
        assert_eq!(
            judge(&LATENCY, &around(100.0, 0.5), &around(80.0, 0.5)),
            Verdict::Improved
        );
        assert_eq!(
            judge(&RATE, &around(100.0, 0.5), &around(120.0, 0.5)),
            Verdict::Improved
        );
        // For a rate, lower is the wrong way.
        assert_eq!(
            judge(&RATE, &around(100.0, 0.5), &around(80.0, 0.5)),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_win_inside_the_parents_own_spread_is_not_a_gain() {
        // Every pair is won, but by less than the parent's quartile distance.
        let a = around(100.0, 1.0);
        let b: Vec<f64> = a.iter().map(|x| x - 0.5).collect();
        assert_eq!(judge(&LATENCY, &a, &b), Verdict::Unchanged);
    }

    #[test]
    fn winning_eight_pairs_in_ten_is_not_a_gain() {
        let a = around(100.0, 0.1);
        let mut b: Vec<f64> = a.iter().map(|x| x - 5.0).collect();
        b[0] = a[0] + 1.0;
        b[1] = a[1] + 1.0;
        assert_eq!(judge(&LATENCY, &a, &b), Verdict::Unchanged);
        b[1] = a[1] - 5.0;
        assert_eq!(judge(&LATENCY, &a, &b), Verdict::Improved);
    }

    #[test]
    fn median_worse_than_the_bound_is_regressed() {
        assert_eq!(
            judge(&LATENCY, &around(100.0, 0.5), &around(111.0, 0.5)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&LATENCY, &around(100.0, 0.5), &around(109.0, 0.5)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        // Quartiles 16.5 apart on a median of 100: wider than the 10 % bound.
        let noisy = around(100.0, 3.0);
        assert_eq!(
            judge(&LATENCY, &noisy, &around(101.0, 0.5)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&LATENCY, &around(101.0, 0.5), &noisy),
            Verdict::Unresolved
        );
        // …unless every run of the change beats every run of the parent.
        assert_eq!(
            judge(&LATENCY, &noisy, &around(80.0, 0.5)),
            Verdict::Improved
        );
        // …even when the gap is inside the parent's spread and so no gain.
        let b = around(85.0, 0.1);
        assert!(b.iter().all(|y| noisy.iter().all(|x| y < x)));
        assert_eq!(judge(&LATENCY, &noisy, &b), Verdict::Unchanged);
    }

    fn file(workload: &str, pbsm_ms: &[f64], failed: u64) -> String {
        pbsm_ms
            .iter()
            .map(|v| {
                format!(
                    "{{\"workload\":\"{workload}\",\"seed\":1,\"trace\":0,\"result\":{{\"correct\":true,\"attempted\":60,\"failed\":{failed},\"metrics\":{{\"pbsm_ms\":{{\"value\":{v},\"unit\":\"ms\"}}}}}}}}\n"
                )
            })
            .collect()
    }

    #[test]
    fn compare_reads_files_and_flags_regressions() {
        let parent = Runs::parse(&file("lowsel", &around(100.0, 0.5), 0)).unwrap();
        let same = Runs::parse(&file("lowsel", &around(100.2, 0.5), 0)).unwrap();
        let (table, regressed) = compare(&parent, &same);
        assert!(!regressed, "{table}");
        assert!(
            table.contains("lowsel") && table.contains("unchanged"),
            "{table}"
        );
        assert!(table.contains("x of 100.0000 ms"), "{table}");

        let slower = Runs::parse(&file("lowsel", &around(130.0, 0.5), 0)).unwrap();
        let (table, regressed) = compare(&parent, &slower);
        assert!(regressed && table.contains("regressed"), "{table}");

        // Faster but failing ops is a regression too.
        let failing = Runs::parse(&file("lowsel", &around(80.0, 0.5), 1)).unwrap();
        let (table, regressed) = compare(&parent, &failing);
        assert!(regressed && table.contains("improved"), "{table}");
    }

    #[test]
    fn traced_lines_and_garbage_are_told_apart() {
        let traced = "{\"workload\":\"lowsel\",\"seed\":1,\"trace\":1,\"result\":{}}\n";
        assert!(Runs::parse(traced).unwrap().values.is_empty());
        assert!(Runs::parse("not json\n").is_err());
        assert!(Runs::parse("{\"workload\":\"lowsel\",\"trace\":0}\n").is_err());
    }
}
