//! The paper's claims as data: each a named predicate over one experiment's
//! rows, checked every time `repro` runs that experiment.

use bench::rounded;
use storage::{DiskModel, Json, Work};

use crate::table::Table;

/// How far a claim is trusted.
pub enum Status {
    /// Fails the process when false at `SJ_SCALE` ≥ the scale given (the
    /// smallest it is recorded to hold from).
    Gate(f64),
    /// Measured not to hold here; the EXPERIMENTS.md section given says why.
    NotReproduced(&'static str),
}
use Status::{Gate, NotReproduced};

/// What the tables say about a claim: does it hold, and the value measured.
type Check = fn(&[Table]) -> (bool, String);

/// One claim; `id` is `<experiment id>.<name>`.
pub struct Claim {
    pub id: &'static str,
    pub text: &'static str,
    pub status: Status,
    pub check: Check,
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Held,
    /// A gate below the scale it is recorded to hold from: not checked.
    Skipped,
    /// A gate that is false: `repro` exits 1.
    Failed,
    /// A `not reproduced` claim: its measured value, never a failure.
    Reported,
}

impl Claim {
    /// The verdict at `scale`, and the line `repro` prints for it.
    pub fn evaluate(&self, scale: f64, tables: &[Table]) -> (Verdict, String) {
        let (holds, measured) = (self.check)(tables);
        let found = format!("{}: {measured}", if holds { "holds" } else { "does not hold" });
        let (verdict, tag, found) = match self.status {
            Gate(from) if scale < from => {
                (Verdict::Skipped, "gate skipped", format!("recorded to hold from SJ_SCALE {from}"))
            }
            Gate(_) if holds => (Verdict::Held, "gate ok", found),
            Gate(_) => (Verdict::Failed, "GATE FAILED", found),
            NotReproduced(why) => {
                (Verdict::Reported, "not reproduced", format!("{found} (EXPERIMENTS.md \"{why}\")"))
            }
        };
        (verdict, format!("  [{tag}] {}: {} — {found}", self.id, self.text))
    }
}

/// `lo–hi` of `v`, to two decimals (just `lo` when they are the same).
fn span(v: &[f64]) -> String {
    let (lo, hi) = v.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    if lo == hi { rounded(lo, 2).to_string() } else { format!("{}–{}", rounded(lo, 2), rounded(hi, 2)) }
}

/// `v` (whole numbers), comma-separated.
fn list(v: &[f64]) -> String {
    Json::arr(v.iter().copied()).to_string()
}

/// Holds when `ok` passes every value of `v`; measured: `what` and their span.
fn every(what: &str, v: &[f64], ok: fn(f64) -> bool) -> (bool, String) {
    (v.iter().all(|&x| ok(x)), format!("{what} {}", span(v)))
}

/// Whether `ok` passes every pair of neighbours in `v`.
fn chain(v: &[f64], ok: fn(f64, f64) -> bool) -> bool {
    v.windows(2).all(|w| ok(w[0], w[1]))
}

/// Column `a` over column `b` of `t`, row by row.
fn ratio(t: &Table, a: &str, b: &str) -> Vec<f64> {
    t.nums(a).iter().zip(t.nums(b)).map(|(a, b)| a / b).collect()
}

/// The regression grid's counters.
const METERS: [&str; 6] = ["results", "duplicates", "candidates", "tests", "pages_read", "pages_written"];

/// The results and the simulated total with the `tests` priced on the default
/// model of `join`/`algo`'s first regression row (threads = 1, channels = 1).
/// The rows' own clock is I/O only, so it cannot see a CPU saving; with the
/// same I/O on both sides, fewer tests win at any positive price.
fn priced_total(regress: &Table, join: &str, algo: &str) -> (f64, f64) {
    let mut keys = regress.cells("join").zip(regress.cells("algo"));
    let i = keys.position(|(j, a)| j.as_str() == Some(join) && a.as_str() == Some(algo)).expect("a regress row");
    let tests = Work { tests: regress.nums("tests")[i] as u64, ..Work::default() };
    (regress.nums("results")[i], regress.nums("total_s")[i] + DiskModel::default().priced_cpu(&tests))
}

/// Every claim, grouped by experiment.
pub fn claims() -> Vec<Claim> {
    let claim = |id, status, text, check: Check| Claim { id, text, status, check };
    vec![
        claim("table1.coverage-p2", Gate(0.05), "coverage of LA_*(p) is within 10 % of p² × coverage(1)", |t| {
            let cov = t[0].nums("coverage"); // LA_RR, LA_ST, CAL_ST, then LA_RR(p), LA_ST(p) for p = 2, 3, 4
            let rule = |i: usize| cov[3 + i] / (cov[i % 2] * ((2 + i / 2) * (2 + i / 2)) as f64);
            let off: Vec<f64> = (0..6).map(rule).collect();
            every("measured / p² rule", &off, |r| (r - 1.0).abs() <= 0.1)
        }),
        claim("table2.results-grow", Gate(0.01), "results strictly increase J1→J4", |t| {
            let n = &t[0].nums("results")[..4];
            (chain(n, |a, b| a < b), list(n))
        }),
        claim("table3.passes", Gate(0.01),
            "PBSM writes 1.00 pass partitioning and reads 1.00 joining; S3J's sort writes what it reads, ≥ 1 pass", |t| {
            let (pw, pr) = (t[0].nums("write")[0], t[0].nums("read")[2]);
            let (sw, sr) = (t[1].nums("write")[1], t[1].nums("read")[1]);
            let ok = (pw - 1.0).abs() < 0.005 && (pr - 1.0).abs() < 0.005 && sw == sr && sw >= 1.0;
            (ok, format!("PBSM write {pw:.2}, read {pr:.2}; S3J sort write {sw:.2}, read {sr:.2}"))
        }),
        claim("fig3.rp-no-dedup-io", Gate(0.01), "RP performs no duplicate-removal I/O on J1-J4",
            |t| every("units", &t[0].nums("RP dedup u"), |u| u == 0.0)),
        claim("fig3.pd-dedup-grows", Gate(0.2), "PD dedup I/O strictly grows J1→J4 over a base I/O that moves < 2 %", |t| {
            let (pd, base) = (t[0].nums("PD dedup u"), t[0].nums("base io u"));
            let moved = base.iter().fold(0.0, |m: f64, b| m.max(b / base[0] - 1.0));
            (chain(&pd, |a, b| a < b) && moved < 0.02, format!("PD units {}, base moves {:.1} %", list(&pd), 100.0 * moved))
        }),
        claim("fig4.trie-fewer-tests", Gate(0.2), "the trie performs ≤ a tenth of the list's tests on every join",
            |t| every("list/trie tests", &ratio(&t[0], "list tests", "trie tests"), |r| r >= 10.0)),
        claim("fig4.trie-beats-list", NotReproduced("Figure 4"), "trie beats list on every join",
            |t| every("list s / trie s", &t[0].nums("ratio"), |r| r > 1.0)),
        claim("fig5.same-io", Gate(0.01), "list and trie cost the same I/O at every M; P never grows with M", |t| {
            let (io, p) = (t[0].nums("list io s"), t[0].nums("P"));
            let ok = io == t[0].nums("trie io s") && chain(&p, |a, b| a >= b);
            (ok, format!("io s {}, P {}", span(&io), list(&p)))
        }),
        claim("fig5.trie-wins-large-m", NotReproduced("Figure 5"), "the trie wins beyond 25 MB",
            |t| every("list/trie total at 40-80 MB", &ratio(&t[0], "list tot s", "trie tot s")[4..], |r| r > 1.0)),
        claim("fig6.repartitioning-fades", Gate(0.01), "repartitioned pairs never grow with M, 0 from 25 MB on", |t| {
            let pairs = t[0].nums("repart pairs");
            (chain(&pairs, |a, b| a >= b) && pairs[4..].iter().all(|&p| p == 0.0), list(&pairs))
        }),
        claim("fig11.fewer-tests", Gate(0.01), "replicated S3J performs fewer tests than the original at every M",
            |t| every("orig/repl tests", &ratio(&t[0], "orig tests", "repl tests"), |r| r > 1.0)),
        claim("fig11.cpu-10x", NotReproduced("Figure 11"), "replication cuts CPU time by an order of magnitude",
            |t| every("orig/repl CPU", &t[0].nums("cpu ratio"), |r| r >= 10.0)),
        claim("fig11.total-2.5x", NotReproduced("Figure 11"), "replication cuts total runtime by a factor 2.5-4",
            |t| every("orig/repl total", &t[0].nums("tot ratio"), |r| r >= 2.5)),
        claim("fig11m.replication-pays", Gate(0.01), "on grid-aligned data replication cuts tests ≥ 10x at a rate ≤ 4", |t| {
            let (tests, rate) = (t[0].nums("tests"), t[0].nums("repl rate")[1]);
            let saved = tests[0] / tests[1];
            (saved >= 10.0 && rate <= 4.0, format!("tests {saved:.1}x fewer, replication rate {rate:.2}"))
        }),
        claim("fig11m.cpu-10x", NotReproduced("Figure 11"), "and wins the paper's order of magnitude on join CPU", |t| {
            let cpu = t[0].nums("join cpu s");
            (cpu[0] / cpu[1] >= 10.0, format!("orig/repl join CPU {:.1}", cpu[0] / cpu[1]))
        }),
        claim("fig12.sweep-fewer-tests", Gate(0.01), "in S3J the list sweep tests no more pairs than nested loops",
            |t| every("nested/sweep tests", &ratio(&t[0], "nested tests", "sweep tests"), |r| r >= 1.0)),
        claim("fig12.trie-far-slower", NotReproduced("Figure 12"), "the trie is far slower than nested loops and the list sweep",
            |t| every("trie/nested total", &ratio(&t[0], "trie s", "nested s"), |r| r >= 1.5)),
        claim("fig13.results-agree", Gate(0.01), "S3J, PBSM(list) and PBSM(trie) agree on results for p = 1..10", |t| {
            let n = t[0].nums("results");
            (n == t[0].nums("PBSM-L res") && n == t[0].nums("PBSM-T res"), format!("{} results at p = 10", n[9]))
        }),
        claim("fig13.pbsm-replication", Gate(0.2), "PBSM's replication rate never falls with p and stays ≤ 1.1", |t| {
            let r = t[0].nums("PBSM repl");
            (chain(&r, |a, b| a <= b) && r[9] <= 1.1, format!("rate {}", span(&r)))
        }),
        claim("fig13.s3j-catches-list", NotReproduced("Figure 13"), "at large p S3J catches PBSM(list)",
            |t| every("S3J/PBSM(list) total at p = 10", &ratio(&t[0], "S3J tot s", "PBSM-L tot")[9..], |r| r <= 1.1)),
        claim("fig14.list-tests-grow", Gate(0.01), "PBSM(list) tests never fall as M grows; PBSM(trie) needs fewer", |t| {
            let (l, saved) = (t[0].nums("PBSM-L tests"), ratio(&t[0], "PBSM-L tests", "PBSM-T tests"));
            let ok = chain(&l, |a, b| a <= b) && saved.iter().all(|&r| r > 1.0);
            (ok, format!("list/trie tests {}", span(&saved)))
        }),
        claim("fig14.s3j-best-small-m", NotReproduced("Figure 14"), "S3J is best at small memory", |t| {
            let r = ratio(&t[0], "S3J tot s", "PBSM-L tot");
            (r[0] < 1.0, format!("S3J/PBSM(list) total {}", span(&r)))
        }),
        claim("ablations.safety-factor", Gate(0.01), "t = 1.0 repartitions, t ≥ 1.1 does not", |t| {
            let pairs = t[0].nums("repart pairs");
            (pairs[0] > 0.0 && pairs[1..].iter().all(|&p| p == 0.0), format!("pairs {}", list(&pairs)))
        }),
        claim("ablations.hash-fixes-skew", NotReproduced("Beyond the paper"), "hashing tiles to partitions fixes skew", |t| {
            let pairs = t[2].nums("repart pairs");
            (pairs[0] < pairs[1], format!("repartitioned pairs: Hash {}, RoundRobin {}", pairs[0], pairs[1]))
        }),
        claim("ablations.level-shift", Gate(0.01), "level shift: strictly falling replication, strictly rising tests", |t| {
            let (rate, tests) = (t[3].nums("repl rate"), t[3].nums("tests"));
            let ok = chain(&rate, |a, b| a > b) && chain(&tests, |a, b| a < b);
            (ok, format!("rate {}, tests {}", span(&rate), span(&tests)))
        }),
        claim("ablations.curve-invariance", Gate(0.01), "Peano and Hilbert codes give identical I/O units and tests", |t| {
            let (io, tests) = (t[4].nums("io units"), t[4].nums("tests"));
            (io[0] == io[1] && tests[0] == tests[1], format!("io units {}, tests {}", list(&io), list(&tests)))
        }),
        claim("ablations.heap-merge-io", Gate(0.01), "the heap-merge scan joins with less I/O than level pairs", |t| {
            let io = t[5].nums("join io u");
            (io[0] < io[1], format!("{} vs {} units", io[0], io[1]))
        }),
        claim("ext_baselines.results-agree", Gate(0.01), "every method returns the same result count", |t| {
            let n = t[0].nums("results");
            (chain(&n, |a, b| a == b), list(&n))
        }),
        claim("ext_skew.results-agree", Gate(0.01), "the four methods agree on both datasets", |t| {
            let (a, b) = (t[0].nums("results"), t[1].nums("results"));
            (chain(&a, |a, b| a == b) && chain(&b, |a, b| a == b), format!("{} and {} results", a[0], b[0]))
        }),
        claim("ext_skew.sssj-similar-on-real", NotReproduced("Beyond the paper"), "on real data SSSJ performs similarly to PBSM", |t| {
            let tot = t[0].nums("total s"); // PBSM(list), PBSM(trie), S3J, SSSJ
            every("SSSJ/PBSM(list) total", &[tot[3] / tot[0]], |r| r <= 1.25)
        }),
        claim("ext_skew.sssj-ahead", NotReproduced("Beyond the paper"), "on the diagonal dataset SSSJ pulls ahead", |t| {
            let tot = t[1].nums("total s");
            (tot[3] < tot[0].min(tot[1]), format!("SSSJ/best PBSM total {:.2}", tot[3] / tot[0].min(tot[1])))
        }),
        claim("regress.twolayer-beats-pbsm", Gate(0.01),
            "on SKEW and HISEL two-layer matches PBSM-RPM's results and beats its I/O plus priced tests", |t| {
            let pairs = ["SKEW", "HISEL"].map(|j| (j, priced_total(&t[0], j, "twolayer"), priced_total(&t[0], j, "pbsm")));
            let ok = pairs.iter().all(|(_, (n2, s2), (n1, s1))| n2 == n1 && s2 < s1);
            let shown: Vec<String> = pairs.iter().map(|(j, (_, s2), (_, s1))| format!("{j} {s2:.4} vs {s1:.4} s")).collect();
            (ok, shown.join(", "))
        }),
        claim("regress.channels-faster", Gate(0.01),
            "on every point four channels are strictly faster than one, with identical meters", |t| {
            let tot = t[0].nums("total_s"); // per point: (channels, threads) = (1, 1), (1, 4), (4, 1), (4, 4)
            let same = METERS.iter().all(|m| t[0].nums(m).chunks(4).all(|c| c[..2] == c[2..]));
            let ok = same && tot.chunks(4).all(|c| c[2] < c[0] && c[3] < c[1]);
            (ok, format!("one/four channels total {}", span(&tot.chunks(4).map(|c| c[0] / c[2]).collect::<Vec<_>>())))
        }),
        claim("regress.thread-invariant", Gate(0.01), "threads 1 and 4 give the same meters and times", |t| {
            let cols = METERS.iter().chain(&["total_s", "first_result_s"]);
            let moved: Vec<&str> = cols.filter(|c| t[0].nums(c).chunks(2).any(|w| w[0] != w[1])).copied().collect();
            (moved.is_empty(), if moved.is_empty() { "no column moves".into() } else { format!("{} move", moved.join(", ")) })
        }),
        claim("planner.pick-within-10pct", Gate(0.2), "the pick costs at most 110 % of the measured best in every cell", |t| {
            let ok = t[0].cells("ok").filter(|&c| *c == Json::Bool(true)).count();
            (ok == t[0].rows.len(), format!("{ok} of {} cells", t[0].rows.len()))
        }),
        claim("planner.priced-pick-within-25pct", Gate(0.2),
            "on the priced clock the pick costs at most 125 % of the best candidate's total in every cell", |t| {
            let ok = t[1].cells("ok").filter(|&c| *c == Json::Bool(true)).count();
            (ok == t[1].rows.len(), format!("{ok} of {} cells", t[1].rows.len()))
        }),
        claim("scaling.results-agree", Gate(0.01), "every thread and channel count returns the same results", |t| {
            let n = t[0].nums("results");
            (chain(&n, |a, b| a == b), format!("{} results", n[0]))
        }),
        claim("scaling.threads-cut-join-cpu", Gate(0.01),
            "more threads never raise PBSM's priced join phase, and four at least halve it", |t| {
            let cpu = t[0].nums("join_phase_s"); // PBSM at 1, 2, 4, 8 threads on one channel, then on four
            let ok = cpu[..8].chunks(4).all(|c| chain(c, |a, b| a >= b) && 2.0 * c[2] <= c[0]);
            (ok, format!("four threads cut it {:.2}x", cpu[0] / cpu[2]))
        }),
        claim("scaling.channels-cut-total", Gate(0.01), "four channels cut the simulated total at every thread count", |t| {
            let tot = t[0].nums("total_model_s"); // PBSM: four rows on one channel, four on four; then S3J: one, one
            let cut: Vec<f64> = (0..4).map(|i| tot[i] / tot[i + 4]).chain([tot[8] / tot[9]]).collect();
            every("one/four channels total", &cut, |r| r > 1.0)
        }),
    ]
}
