//! Workspace self-scan: the repository itself must be clean.
//!
//! This is the same gate CI runs (`tml-lint --check`): any unsuppressed
//! finding, malformed suppression, or baseline ratchet mismatch
//! anywhere in the workspace fails this test. It is what makes
//! nondeterminism a merge blocker instead of a golden-test postmortem.
//! The scan must also finish in under 2 s, so the lint stays an
//! interactive pre-commit habit rather than a CI-only tax.

use std::path::Path;
use std::time::Instant;

use treadmill_lint::{analyze_workspace, baseline};

#[test]
fn workspace_has_no_unsuppressed_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let baseline_text = std::fs::read_to_string(root.join("lint-baseline.toml"))
        .expect("lint-baseline.toml is checked in at the workspace root");
    let baseline = baseline::parse(&baseline_text).expect("baseline parses");

    // Same entry point as `tml-lint --check`, timed end to end: walk,
    // scan, parse, call graph, reachability, reconcile.
    let start = Instant::now();
    let analysis = analyze_workspace(&root, &baseline).expect("scan succeeds");
    let wall = start.elapsed().as_secs_f64();
    assert!(
        wall < 2.0,
        "workspace scan took {wall:.2}s; the 2s interactivity budget is blown"
    );

    assert!(
        analysis.files_scanned > 100,
        "suspiciously few files scanned ({}) — walker broken?",
        analysis.files_scanned
    );
    assert!(
        analysis.failures.is_empty(),
        "unsuppressed findings:\n{}",
        analysis
            .failures
            .iter()
            .map(|f| format!("  {} {}:{} — {}", f.rule, f.file, f.line, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        analysis.ratchet_errors.is_empty(),
        "baseline ratchet violations:\n  {}",
        analysis.ratchet_errors.join("\n  ")
    );

    // The semantic rules ship with zero grandfathered debt: not even a
    // budgeted finding may exist for them. (Failures were asserted
    // empty above, so scanning the budgeted list completes the pin.)
    for rule in ["DET008", "DUR001", "PANIC002", "NUM002", "DEAD001"] {
        let hits: Vec<String> = analysis
            .budgeted
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| format!("{}:{}", f.file, f.line))
            .collect();
        assert!(hits.is_empty(), "budgeted {rule} debt crept in: {hits:?}");
    }

    // The workspace pass produced a reachability model of plausible
    // size — the whole-workspace graph, not a stub.
    let sem = analysis.semantics.as_ref().expect("semantics computed");
    assert!(sem.graph.fn_count() > 1000, "graph too small: {}", sem.graph.fn_count());
    assert!(sem.entry_count > 10, "too few named entry points: {}", sem.entry_count);
    assert!(sem.svc_root_count > 10, "too few service roots: {}", sem.svc_root_count);
    assert!(sem.live_root_count > 100, "too few product roots: {}", sem.live_root_count);

    // perfbench is a package of its own whose calls resolve into the
    // crates its manifest names — not the root crate's dependencies.
    let deps = treadmill_lint::graph::workspace_deps(&root);
    let perfbench = deps.get("treadmill-perfbench").expect("perfbench manifest read");
    assert!(perfbench.iter().any(|d| d == "treadmill-server"), "{perfbench:?}");
}
