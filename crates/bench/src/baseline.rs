//! Persistent, machine-readable bench baselines (`BENCH_sim.json`).
//!
//! `cargo bench` output used to be plain text that scrolled away; nothing
//! recorded a baseline to compare the next PR against. This module gives the
//! perf-tracking benches (`sim_perf`, `par_sim`, `solver_perf`,
//! `interp_err`, `c10k`, `cluster_bench`) a tiny persistence layer: each
//! bench writes its measurements as one *section* of a single JSON document
//! at the repository root, leaving other sections untouched, so the file
//! accumulates the full baseline of the perf trajectory.
//!
//! The file format is documented in the repository README ("Bench baselines"
//! section). JSON support comes from the workspace's shared hand-rolled
//! implementation in [`lopc_serve::json`] (it originated here and moved
//! there when the serving layer needed the same machinery); [`Json`] and
//! [`parse`] are re-exported so existing baseline-reading code keeps
//! compiling unchanged.
//!
//! # Example
//!
//! ```no_run
//! use lopc_bench::baseline::{default_path, update, Section};
//!
//! let mut sec = Section::new("sim_perf");
//! sec.entry("sim_full/calendar_p128", 1.25e6, Some(61_000));
//! sec.derived("speedup_large_p", 1.8);
//! update(&default_path(), sec).unwrap();
//! ```

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

pub use lopc_serve::json::{parse, Json};

/// One measured benchmark in a section.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// Fully-qualified bench name (`group/id`).
    pub name: String,
    /// Best observed nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Elements processed per iteration (events, solves, …), if known.
    pub elements_per_iter: Option<u64>,
}

impl Entry {
    /// Elements per second implied by the measurement, if known.
    pub fn elements_per_sec(&self) -> Option<f64> {
        self.elements_per_iter
            .filter(|_| self.ns_per_iter > 0.0)
            .map(|n| n as f64 / self.ns_per_iter * 1e9)
    }
}

/// One bench binary's contribution to the baseline file.
#[derive(Clone, Debug, Default)]
pub struct Section {
    /// Section key (the bench binary name, e.g. `"sim_perf"`).
    pub name: String,
    /// Measurements, in bench execution order.
    pub entries: Vec<Entry>,
    /// Derived headline metrics (speedups, ratios), keyed by name.
    pub derived: BTreeMap<String, f64>,
}

impl Section {
    /// New empty section.
    pub fn new(name: impl Into<String>) -> Self {
        Section {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Record one measurement.
    pub fn entry(&mut self, name: impl Into<String>, ns_per_iter: f64, elements: Option<u64>) {
        self.entries.push(Entry {
            name: name.into(),
            ns_per_iter,
            elements_per_iter: elements,
        });
    }

    /// Record a derived headline metric.
    pub fn derived(&mut self, name: impl Into<String>, value: f64) {
        self.derived.insert(name.into(), value);
    }
}

/// Default baseline location: `BENCH_sim.json` at the repository root
/// (overridable with the `LOPC_BENCH_BASELINE` environment variable).
pub fn default_path() -> PathBuf {
    if let Ok(p) = std::env::var("LOPC_BENCH_BASELINE") {
        return PathBuf::from(p);
    }
    // CARGO_MANIFEST_DIR = <repo>/crates/bench at compile time.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_sim.json")
}

/// Merge `section` into the baseline file at `path`, preserving every other
/// section, and rewrite it. Returns the canonicalized path written.
pub fn update(path: &Path, section: Section) -> io::Result<PathBuf> {
    let mut sections: BTreeMap<String, Json> = match std::fs::read_to_string(path) {
        Ok(text) => match parse(&text) {
            Ok(Json::Object(top)) => match top.into_iter().find(|(k, _)| k == "sections") {
                Some((_, Json::Object(secs))) => secs.into_iter().collect(),
                _ => BTreeMap::new(),
            },
            // Unparseable or non-object baselines are rebuilt from scratch
            // rather than erroring out a bench run.
            _ => BTreeMap::new(),
        },
        Err(_) => BTreeMap::new(),
    };

    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut sec_obj: Vec<(String, Json)> = vec![("unix_time".into(), Json::Num(stamp as f64))];
    let entries: Vec<Json> = section
        .entries
        .iter()
        .map(|e| {
            let mut obj: Vec<(String, Json)> = vec![
                ("name".into(), Json::Str(e.name.clone())),
                ("ns_per_iter".into(), Json::Num(e.ns_per_iter)),
            ];
            if let Some(n) = e.elements_per_iter {
                obj.push(("elements_per_iter".into(), Json::Num(n as f64)));
            }
            if let Some(rate) = e.elements_per_sec() {
                obj.push(("elements_per_sec".into(), Json::Num(rate)));
            }
            Json::Object(obj)
        })
        .collect();
    sec_obj.push(("entries".into(), Json::Array(entries)));
    if !section.derived.is_empty() {
        sec_obj.push((
            "derived".into(),
            Json::Object(
                section
                    .derived
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ));
    }
    sections.insert(section.name.clone(), Json::Object(sec_obj));

    let top = Json::Object(vec![
        ("schema".into(), Json::Str("lopc-bench-baseline/1".into())),
        (
            "sections".into(),
            Json::Object(sections.into_iter().collect()),
        ),
    ]);
    let mut out = top.to_pretty();
    out.push('\n');
    std::fs::write(path, out)?;
    Ok(path.canonicalize().unwrap_or_else(|_| path.to_path_buf()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_merges_sections() {
        let dir = std::env::temp_dir().join("lopc_baseline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("merge_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut a = Section::new("sim_perf");
        a.entry("g/one", 100.0, Some(1000));
        a.derived("speedup", 2.0);
        update(&path, a).unwrap();

        let mut b = Section::new("solver_perf");
        b.entry("g/two", 50.0, None);
        update(&path, b).unwrap();

        let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema"),
            Some(&Json::Str("lopc-bench-baseline/1".into()))
        );
        let sections = doc.get("sections").unwrap();
        let sim = sections.get("sim_perf").expect("first section preserved");
        let solver = sections.get("solver_perf").expect("second section added");
        assert_eq!(
            sim.get("derived").unwrap().get("speedup").unwrap().as_num(),
            Some(2.0)
        );
        match solver.get("entries").unwrap() {
            Json::Array(items) => {
                assert_eq!(items.len(), 1);
                assert_eq!(items[0].get("name"), Some(&Json::Str("g/two".into())),);
                assert!(items[0].get("elements_per_iter").is_none());
            }
            other => panic!("entries must be an array, got {other:?}"),
        }

        // Re-running a section replaces it rather than duplicating.
        let mut a2 = Section::new("sim_perf");
        a2.entry("g/one", 90.0, Some(1000));
        update(&path, a2).unwrap();
        let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let sim = doc.get("sections").unwrap().get("sim_perf").unwrap();
        match sim.get("entries").unwrap() {
            Json::Array(items) => {
                assert_eq!(items.len(), 1);
                assert_eq!(items[0].get("ns_per_iter").unwrap().as_num(), Some(90.0));
            }
            _ => unreachable!(),
        }
        assert!(doc.get("sections").unwrap().get("solver_perf").is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn entry_rate_math() {
        let e = Entry {
            name: "x".into(),
            ns_per_iter: 1000.0,
            elements_per_iter: Some(5),
        };
        assert_eq!(e.elements_per_sec(), Some(5e6));
        let none = Entry {
            name: "y".into(),
            ns_per_iter: 1000.0,
            elements_per_iter: None,
        };
        assert_eq!(none.elements_per_sec(), None);
    }

    #[test]
    fn corrupt_baseline_is_rebuilt() {
        let dir = std::env::temp_dir().join("lopc_baseline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("corrupt_{}.json", std::process::id()));
        std::fs::write(&path, "not json at all {{{").unwrap();
        let mut s = Section::new("sim_perf");
        s.entry("g/x", 1.0, None);
        update(&path, s).unwrap();
        assert!(parse(&std::fs::read_to_string(&path).unwrap()).is_ok());
        let _ = std::fs::remove_file(&path);
    }
}
