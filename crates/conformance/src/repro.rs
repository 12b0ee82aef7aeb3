//! JSON repro files and regression-test generation.
//!
//! A repro is the shrunken counterexample the soak emits on failure: the
//! two relations (ids positional), plus the algorithm/transform cell that
//! failed. Files live under `tests/corpus/` and are replayed by the
//! `corpus` integration test against *all* algorithms, so a bug found in
//! one algorithm permanently guards every other.
//!
//! Files are written and read by `storage::json`: coordinates go out in the
//! shortest form that parses back to the same `f64`, so a repro file is
//! bit-exact, and the label survives quotes, backslashes and newlines.

use crate::oracle::{self, AlgoId, Failure, RunConfig, Transform};
use geom::{Kpe, Rect, RecordId};
use spatialjoin::storage::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// Human-readable one-liner: what this repro caught.
    pub label: String,
    /// The algorithm cell that failed, if recorded.
    pub algo: Option<AlgoId>,
    /// The transform cell that failed, if recorded.
    pub transform: Option<Transform>,
    /// Memory budget the failure reproduces under (the shrinker co-shrinks
    /// this with the workload: partition counts scale with `bytes / mem`,
    /// so a tiny counterexample needs a tiny budget to span partitions).
    pub mem: Option<usize>,
    pub r: Vec<Kpe>,
    pub s: Vec<Kpe>,
}

fn rects(data: &[Kpe]) -> Json {
    Json::arr(
        data.iter()
            .map(|k| Json::arr([k.rect.xl, k.rect.yl, k.rect.xh, k.rect.yh])),
    )
}

/// A relation from its rect array; ids are positional.
fn kpes(key: &str, v: &Json) -> Result<Vec<Kpe>, String> {
    let rows = v.as_arr().ok_or(format!("{key:?} must be an array of rects"))?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| match row.as_arr() {
            Some(&[Json::Num(xl), Json::Num(yl), Json::Num(xh), Json::Num(yh)]) => {
                Ok(Kpe::new(RecordId(i as u64), Rect::new(xl, yl, xh, yh)))
            }
            _ => Err(format!("{key:?}[{i}] is not a rect of four numbers")),
        })
        .collect()
}

impl Repro {
    pub fn to_json(&self) -> String {
        let mut members = vec![("label", Json::from(self.label.as_str()))];
        if let Some(algo) = self.algo {
            members.push(("algo", algo.to_string().into()));
        }
        if let Some(t) = self.transform {
            members.push(("transform", t.to_string().into()));
        }
        if let Some(mem) = self.mem {
            members.push(("mem", mem.into()));
        }
        members.push(("r", rects(&self.r)));
        members.push(("s", rects(&self.s)));
        Json::obj(members).pretty()
    }

    pub fn from_json(text: &str) -> Result<Repro, String> {
        let Json::Obj(members) = Json::parse(text)? else {
            return Err("a repro is one JSON object".into());
        };
        let mut label = String::new();
        let mut algo = None;
        let mut transform = None;
        let mut mem = None;
        let (mut r, mut s) = (None, None);
        for (key, v) in &members {
            let text = || v.as_str().ok_or(format!("{key:?} must be a string"));
            match key.as_str() {
                "label" => label = text()?.to_owned(),
                "algo" => {
                    let v = text()?;
                    algo = Some(AlgoId::parse(v).ok_or(format!("unknown algo {v:?}"))?);
                }
                "transform" => {
                    let v = text()?;
                    transform =
                        Some(Transform::parse(v).ok_or(format!("unknown transform {v:?}"))?);
                }
                "mem" => {
                    let bytes = v.as_u64().ok_or("\"mem\" must be a byte count")?;
                    mem = Some(bytes as usize);
                }
                "r" => r = Some(kpes(key, v)?),
                "s" => s = Some(kpes(key, v)?),
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        Ok(Repro {
            label,
            algo,
            transform,
            mem,
            r: r.ok_or("missing \"r\"")?,
            s: s.ok_or("missing \"s\"")?,
        })
    }

    /// Replays this repro: every algorithm is checked against brute force
    /// (`Identity`), and the recorded failing transform — if any — is
    /// re-applied to every algorithm it applies to.
    pub fn replay(&self, cfg: &RunConfig) -> Vec<Failure> {
        let mut transforms = vec![Transform::Identity];
        if let Some(t) = self.transform {
            if t != Transform::Identity {
                transforms.push(t);
            }
        }
        let cfg = RunConfig {
            mem: self.mem.unwrap_or(cfg.mem),
            ..*cfg
        };
        oracle::check_workload(&self.r, &self.s, &cfg, &AlgoId::ALL, &transforms)
    }

    /// A ready-to-paste `#[test]` reproducing this failure via the public
    /// API (printed by the soak next to the JSON file).
    pub fn regression_snippet(&self, name: &str) -> String {
        let fmt_rel = |data: &[Kpe]| -> String {
            data.iter()
                .map(|k| {
                    format!(
                        "        ({}, {}, {}, {}),\n",
                        k.rect.xl, k.rect.yl, k.rect.xh, k.rect.yh
                    )
                })
                .collect()
        };
        let algo = self.algo.map_or("pbsm-rpm-list".into(), |a| a.to_string());
        let transform = self
            .transform
            .map_or("identity".into(), |t| t.to_string());
        let cfg_expr = match self.mem {
            Some(mem) => format!(
                "conformance::RunConfig {{ mem: {mem}, ..Default::default() }}"
            ),
            None => "conformance::RunConfig::default()".to_string(),
        };
        format!(
            "#[test]\n\
             fn {name}() {{\n\
             \x20   // {label}\n\
             \x20   let rel = |coords: &[(f64, f64, f64, f64)]| -> Vec<Kpe> {{\n\
             \x20       coords.iter().enumerate()\n\
             \x20           .map(|(i, &(xl, yl, xh, yh))| Kpe::new(RecordId(i as u64), Rect::new(xl, yl, xh, yh)))\n\
             \x20           .collect()\n\
             \x20   }};\n\
             \x20   let r = rel(&[\n{r}    ]);\n\
             \x20   let s = rel(&[\n{s}    ]);\n\
             \x20   let algo = conformance::AlgoId::parse(\"{algo}\").unwrap();\n\
             \x20   let transform = conformance::Transform::parse(\"{transform}\").unwrap();\n\
             \x20   let cfg = {cfg_expr};\n\
             \x20   assert_eq!(conformance::check_one(algo, transform, &cfg, &r, &s), None);\n\
             }}\n",
            label = self.label,
            r = fmt_rel(&self.r),
            s = fmt_rel(&self.s),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kpes_from_rects(rects: Vec<[f64; 4]>) -> Vec<Kpe> {
        rects
            .into_iter()
            .enumerate()
            .map(|(i, c)| Kpe::new(RecordId(i as u64), Rect::new(c[0], c[1], c[2], c[3])))
            .collect()
    }

    fn sample() -> Repro {
        Repro {
            label: "shared \"edge\" under C:\\mem\nchange".into(),
            algo: Some(AlgoId::PbsmRpmList),
            transform: Some(Transform::Mem { bytes: 2048 }),
            mem: Some(1024),
            r: kpes_from_rects(vec![[0.25, 0.5, 0.25, 0.75], [0.0, 0.0, 1.0, 1.0]]),
            s: kpes_from_rects(vec![[0.25, 0.125, 0.5, 0.5]]),
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let r = sample();
        let back = Repro::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert!(back.label.contains('"') && back.label.contains('\\') && back.label.contains('\n'));
    }

    #[test]
    fn round_trips_awkward_floats() {
        // Shortest-repr Display must survive parse bit-for-bit, including
        // non-dyadic snapped lattice values.
        let lattice = (1u64 << 20) as f64;
        let v = (0.333_333 * lattice).round() / lattice;
        let r = Repro {
            label: String::new(),
            algo: None,
            transform: None,
            mem: None,
            r: kpes_from_rects(vec![[v, v, v, v]]),
            s: kpes_from_rects(vec![[0.1, 0.2, 0.3, 0.4]]),
        };
        let back = Repro::from_json(&r.to_json()).unwrap();
        assert_eq!(back.r[0].rect.xl.to_bits(), v.to_bits());
        assert_eq!(back.s[0].rect.yh.to_bits(), 0.4f64.to_bits());
    }

    #[test]
    fn replay_of_a_valid_workload_is_clean() {
        let r = sample();
        assert!(r.replay(&RunConfig::default()).is_empty());
    }

    #[test]
    fn snippet_mentions_the_cell() {
        let snip = sample().regression_snippet("corpus_shared_edge");
        assert!(snip.contains("fn corpus_shared_edge()"));
        assert!(snip.contains("pbsm-rpm-list"));
        assert!(snip.contains("mem 2048"));
    }
}
