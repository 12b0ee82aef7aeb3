//! The committed JSON artifacts — the `repro` snapshot, the host-clock
//! result lines and the conformance repros — are read, unmodified, by the
//! workspace's one parser (`storage::json`).

use std::path::{Path, PathBuf};

use conformance::Repro;
use storage::Json;

fn committed(path: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    (path, text)
}

#[test]
fn json_lines_artifacts_parse_line_by_line() {
    let (path, text) = committed("BENCH_pr30.json");
    let rows: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("{}: {e}: {l}", path.display())))
        .collect();
    assert_eq!(rows.len(), 199, "a meta line and 198 table rows");
    let scale = rows[0].get("meta").and_then(|m| m.get("scale"));
    assert_eq!(
        scale.and_then(Json::as_f64),
        Some(0.2),
        "the meta line comes first"
    );
    for row in &rows[1..] {
        assert!(
            row.get("experiment").and_then(Json::as_str).is_some(),
            "{row}"
        );
        assert!(row.get("table").and_then(Json::as_u64).is_some(), "{row}");
    }
    let regress = rows[1..]
        .iter()
        .filter(|r| r.get("experiment").and_then(Json::as_str) == Some("regress"));
    assert_eq!(regress.count(), 56, "the regression grid's rows");
    let priced_planner = rows[1..].iter().filter(|r| {
        r.get("experiment").and_then(Json::as_str) == Some("planner") && r.get("table").and_then(Json::as_u64) == Some(1)
    });
    assert_eq!(priced_planner.count(), 10, "the planner's priced-clock rows");
}

/// Every committed `BENCH_*.host.jsonl`: `sjbench` result lines, as
/// `benchmark/run.sh --out` appends them, one JSON document a line.
#[test]
fn host_result_lines_parse_line_by_line() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = 0;
    for entry in std::fs::read_dir(root).expect("repository root") {
        let name = entry.expect("dir entry").file_name().into_string().expect("utf-8 name");
        if !(name.starts_with("BENCH_") && name.ends_with(".host.jsonl")) {
            continue;
        }
        let (path, text) = committed(&name);
        for (i, line) in text.lines().enumerate() {
            let at = format!("{}:{}", path.display(), i + 1);
            let row = Json::parse(line).unwrap_or_else(|e| panic!("{at}: {e}"));
            assert!(row.get("workload").and_then(Json::as_str).is_some(), "{at}");
            let result = row.get("result").unwrap_or_else(|| panic!("{at}: no result"));
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{at}");
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{at}");
            let pbsm_ms = result.get("metrics").and_then(|m| m.get("pbsm_ms")?.get("value"));
            assert!(pbsm_ms.and_then(Json::as_f64).is_some(), "{at}");
        }
        files += 1;
    }
    assert!(files >= 1, "at least one host-clock result file is committed");
}

#[test]
fn corpus_repros_parse_and_round_trip() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("tests/corpus") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable");
        assert!(Json::parse(&text).is_ok(), "{}", path.display());
        let repro = Repro::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            Repro::from_json(&repro.to_json()).as_ref(),
            Ok(&repro),
            "{}",
            path.display()
        );
        seen += 1;
    }
    assert_eq!(seen, 6, "the six committed repros");
}

/// Leaves `target/tmp/repro.json` behind: CI hands it to a parser that is
/// not ours (the soak writes a repro only when it finds a failure).
#[test]
fn a_repro_with_an_awkward_label_is_written_for_an_independent_reader() {
    let (_, text) = committed("tests/corpus/zero-area-touch.json");
    let mut repro = Repro::from_json(&text).expect("corpus repro");
    repro.label = "quote \" backslash \\ newline \n tab \t control \u{1} é 世".into();
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro.json");
    std::fs::write(&path, repro.to_json()).expect("write");
    let back = Repro::from_json(&std::fs::read_to_string(&path).expect("read")).expect("parse");
    assert_eq!(back, repro);
}
