//! Smoke test: the `figures` binary runs experiments in quick mode and
//! produces well-formed output. (Deep assertions live in each experiment's
//! own unit tests.) Cargo builds the binary this test runs.

use std::process::Command;

#[test]
fn figures_binary_regenerates_experiments() {
    let out_dir = std::env::temp_dir().join(format!("lopc_figures_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    // The cheapest pure-model experiments keep the smoke test fast; the
    // simulation-heavy ones are covered by the bench crate's own tests.
    for exp in ["fig5_1", "rule_of_thumb"] {
        let output = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["--quick", "--exp", exp, "--out"])
            .arg(&out_dir)
            .output()
            .expect("figures runs");
        assert!(
            output.status.success(),
            "figures --exp {exp} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains(exp), "output names the experiment");
        assert!(stdout.contains("headlines:"), "output has headlines");
    }
    // fig5_1 writes a CSV.
    let wrote_csv = std::fs::read_dir(&out_dir)
        .map(|d| d.count() > 0)
        .unwrap_or(false);
    assert!(wrote_csv, "figures wrote CSV output");
    let _ = std::fs::remove_dir_all(&out_dir);
}
