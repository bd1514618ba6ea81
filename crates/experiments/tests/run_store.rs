//! The run store's contracts, end to end: tables do not depend on the
//! worker count, every simulated run is traced under its experiment,
//! and the `reproduce` CLI rejects series it cannot fill.

use sam_experiments::run_experiment_in;
use sam_experiments::store::RunStore;
use sam_telemetry::EventRecord;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

/// A fresh scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("run-store-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn tables_are_byte_identical_for_one_and_three_workers() {
    for id in ["ablations", "robustness", "detection"] {
        let one = run_experiment_in(&mut RunStore::new(1), id, 2).unwrap();
        let three = run_experiment_in(&mut RunStore::new(3), id, 2).unwrap();
        assert_eq!(one.len(), three.len(), "{id}");
        for (a, b) in one.iter().zip(&three) {
            assert_eq!(a.to_json(), b.to_json(), "{id}: table {}", a.id);
        }
    }
}

#[test]
fn every_simulated_run_nests_under_its_experiment() {
    let dir = scratch("spans");
    let jsonl = dir.join("telemetry.jsonl");
    let out = reproduce()
        .args(["--runs", "2", "--jobs", "2", "--out"])
        .arg(dir.join("out"))
        .arg("--telemetry")
        .arg(&jsonl)
        .args(["table1", "fig5", "detection", "robustness"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let spans: Vec<EventRecord> = std::fs::read_to_string(&jsonl)
        .unwrap()
        .lines()
        .filter(|line| line.contains(r#""kind":"span""#))
        .map(|line| serde_json::from_str(line).unwrap())
        .collect();
    let by_id: HashMap<u64, &EventRecord> = spans.iter().map(|s| (s.id, s)).collect();
    // The experiment span a record sits under, following parent links.
    let experiment_of = |span: &EventRecord| -> Option<String> {
        let mut parent = span.parent;
        while let Some(p) = by_id.get(&parent) {
            if p.name == "experiment" {
                return p
                    .fields
                    .iter()
                    .find(|(k, _)| k == "id")
                    .map(|(_, v)| v.clone());
            }
            parent = p.parent;
        }
        None
    };
    let mut runs_per_experiment: HashMap<String, usize> = HashMap::new();
    for run in spans.iter().filter(|s| s.name == "experiment.run") {
        let id = experiment_of(run).unwrap_or_else(|| panic!("orphan run span: {run:?}"));
        *runs_per_experiment.entry(id).or_default() += 1;
    }
    // table1 simulates 4 configurations × 2 runs; fig5's attacked run
    // (cluster MR, run 0) is one of them, so it simulates only its
    // normal run.
    assert_eq!(runs_per_experiment.get("table1"), Some(&8));
    assert_eq!(runs_per_experiment.get("fig5"), Some(&1));
    assert!(runs_per_experiment.get("detection").is_some_and(|&n| n > 0));
    assert!(runs_per_experiment
        .get("robustness")
        .is_some_and(|&n| n > 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_runs_or_jobs_is_a_usage_error() {
    let dir = scratch("usage");
    for (flag, experiment) in [
        ("--runs", "robustness"),
        ("--runs", "table1"),
        ("--jobs", "table1"),
    ] {
        let out = reproduce()
            .args([flag, "0", "--out"])
            .arg(dir.join("out"))
            .arg(experiment)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag} 0 must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("bad {flag} value: 0")), "{stderr}");
        assert!(!dir.join("out").exists(), "nothing is written");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
