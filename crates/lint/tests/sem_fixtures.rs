//! Fixture tests for the semantic (workspace-level) rules: each new
//! rule must flag its deliberate positives at the exact lines, stay
//! silent on the negatives, and honor a justified suppression — and
//! the reachability gate for the determinism rules must keep/drop
//! lexical findings by proof.

use std::collections::BTreeMap;

use treadmill_lint::baseline::Baseline;
use treadmill_lint::{analyze_files, Analysis};

/// Runs `analyze_files` over in-memory fixtures with an empty baseline
/// (so every kept finding is a failure) and the given crate deps.
fn analyze(files: &[(&str, &str)], deps: &[(&str, &[&str])]) -> Analysis {
    let files = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    let deps: BTreeMap<String, Vec<String>> = deps
        .iter()
        .map(|(k, v)| (k.to_string(), v.iter().map(|s| s.to_string()).collect()))
        .collect();
    analyze_files(files, &deps, &Baseline::default())
}

fn lines_for(analysis: &Analysis, rule: &str, file: &str) -> Vec<usize> {
    analysis
        .failures
        .iter()
        .chain(&analysis.budgeted)
        .filter(|f| f.rule == rule && f.file == file)
        .map(|f| f.line)
        .collect()
}

#[test]
fn det008_shard_lock_overlap() {
    let src = include_str!("../fixtures/det008.rs");
    let path = "crates/cluster/src/fixture.rs";
    let a = analyze(&[(path, src)], &[("treadmill-cluster", &[])]);
    // The overlapping pair in positive_overlap; the suppressed pair and
    // the sequential loops stay silent.
    assert_eq!(lines_for(&a, "DET008", path), vec![11]);
    assert!(a.suppressed >= 1, "suppressed allow not counted");

    // The same source outside the deterministic crates is not DET008's
    // business (scheduler-ordered locking is allowed there).
    let path = "crates/stats/src/fixture.rs";
    let a = analyze(&[(path, src)], &[("treadmill-stats", &[])]);
    assert!(lines_for(&a, "DET008", path).is_empty());
}

#[test]
fn dur001_fsync_before_publish() {
    let src = include_str!("../fixtures/dur001.rs");
    let path = "crates/server/src/fixture.rs";
    let a = analyze(&[(path, src)], &[("treadmill-server", &[])]);
    // Line 9: rename publishes a never-synced file. Line 8: the handle
    // opened in positive_rename_unsynced is written but never fsynced.
    assert_eq!(lines_for(&a, "DUR001", path), vec![8, 9]);
    assert!(a.suppressed >= 1, "suppressed allow not counted");

    // Outside the journal/artifact scope the same pattern is silent.
    let path = "crates/stats/src/fixture.rs";
    let a = analyze(&[(path, src)], &[("treadmill-stats", &[])]);
    assert!(lines_for(&a, "DUR001", path).is_empty());
}

#[test]
fn num002_tainted_integer_arithmetic() {
    let src = include_str!("../fixtures/num002.rs");
    let path = "crates/sim-core/src/fixture.rs";
    let a = analyze(&[(path, src)], &[("treadmill-sim-core", &[])]);
    assert_eq!(lines_for(&a, "NUM002", path), vec![4, 8]);
    assert!(a.suppressed >= 1, "suppressed allow not counted");
}

#[test]
fn panic002_service_reachability() {
    let server = include_str!("../fixtures/panic002_server.rs");
    let core = include_str!("../fixtures/panic002_core.rs");
    let server_path = "crates/server/src/fixture.rs";
    let core_path = "crates/core/src/fixture.rs";
    let a = analyze(
        &[(server_path, server), (core_path, core)],
        &[("treadmill-server", &["treadmill-core"]), ("treadmill-core", &[])],
    );
    // boom's unwrap (line 16) is service-reachable through executor →
    // run_job. contained_boom's unwrap is only reachable through
    // catch_unwind; audited_boom's expect carries a justified allow.
    assert_eq!(lines_for(&a, "PANIC002", core_path), vec![16]);
    assert!(a.suppressed >= 1, "suppressed allow not counted");

    // The explain chain names the concrete path.
    let sem = a.semantics.as_ref().expect("workspace pass ran");
    let explain = sem.explain("PANIC002", core_path, 16);
    assert!(explain.contains("reachable from the service"), "{explain}");
    assert!(explain.contains("fn executor"), "{explain}");
    let silent = sem.explain("PANIC002", core_path, 20);
    assert!(silent.contains("NOT service-reachable"), "{silent}");
}

#[test]
fn det_rules_gated_by_reachability_outside_det_crates() {
    // Two stats helpers use HashMap: one is called from a deterministic
    // entry point (`run_sweep` lives in core, a det crate), the other is
    // only called from a bench binary. The first must fire, the second
    // is proven unreachable and dropped.
    let core = "pub fn run_sweep() { treadmill_stats::reached(); }\n";
    let stats = "\
use std::collections::HashMap;
pub fn reached() {
    let m: HashMap<u32, u32> = HashMap::new();
    let _ = m;
}
pub fn unreached() {
    let m: HashMap<u32, u32> = HashMap::new();
    let _ = m;
}
";
    let a = analyze(
        &[
            ("crates/core/src/sweep_driver.rs", core),
            ("crates/stats/src/maps.rs", stats),
        ],
        &[("treadmill-core", &["treadmill-stats"]), ("treadmill-stats", &[])],
    );
    let lines = lines_for(&a, "DET001", "crates/stats/src/maps.rs");
    assert_eq!(lines, vec![3], "only the det-reachable HashMap fires: {lines:?}");

    // The proof is printable in both directions.
    let sem = a.semantics.as_ref().expect("workspace pass ran");
    let fires = sem.explain("DET001", "crates/stats/src/maps.rs", 3);
    assert!(fires.contains("reachable from a deterministic entry point"), "{fires}");
    let proof = sem.explain("DET001", "crates/stats/src/maps.rs", 7);
    assert!(proof.contains("proven unreachable"), "{proof}");
}

#[test]
fn dead001_library_fns_no_product_root_reaches() {
    let lib = include_str!("../fixtures/dead001.rs");
    let path = "crates/core/src/fixture.rs";
    // One caller per kind of non-library file; every fn in such a file
    // is a root.
    let roots: &[(&str, &str)] = &[
        (
            "crates/core/src/bin/tool.rs",
            "fn main() {\n    treadmill_core::called_from_main();\n    \
             treadmill_core::reached_from_main();\n}\n",
        ),
        ("tests/it.rs", "#[test]\nfn t() { treadmill_core::called_from_integration_test(); }\n"),
        (
            "crates/core/tests/t.rs",
            "#[test]\nfn t() { treadmill_core::called_from_crate_test(); }\n",
        ),
        ("examples/ex.rs", "fn main() { treadmill_core::called_from_example(); }\n"),
        ("crates/bench/benches/b.rs", "fn bench() { treadmill_core::called_from_bench(); }\n"),
        ("perfbench/bin/main.rs", "fn main() { treadmill_core::called_from_perfbench(); }\n"),
    ];
    let mut files = vec![(path, lib)];
    files.extend_from_slice(roots);
    let a = analyze(
        &files,
        &[
            ("treadmill-core", &[]),
            ("treadmill", &["treadmill-core"]),
            ("treadmill-bench", &["treadmill-core"]),
            ("treadmill-perfbench", &["treadmill-core"]),
        ],
    );
    // Line 4: called by nothing. Line 8: called only by its own unit
    // test. Line 72: its allow has no reason, so it suppresses nothing.
    // Trait methods, trait default bodies, serde-named fns and fns
    // named as values (`map_err(describe)`, `install(on_signal)`) are
    // live; the reasoned allow at line 69 suppresses.
    assert_eq!(lines_for(&a, "DEAD001", path), vec![4, 8, 72]);
    assert_eq!(lines_for(&a, "LINT000", path), vec![71]);
    assert_eq!(a.suppressed, 1, "only the reasoned allow suppresses");

    // `--explain` prints the unreachability certificate, naming the
    // unit test as the only caller, and the chain for a live fn.
    let sem = a.semantics.as_ref().expect("workspace pass ran");
    let cert = sem.explain("DEAD001", path, 8);
    assert!(cert.contains("proven unreachable"), "{cert}");
    assert!(cert.contains("unit test"), "{cert}");
    let live = sem.explain("DEAD001", path, 62);
    assert!(live.contains("is live"), "{live}");
    assert!(live.contains("fn main"), "{live}");
}
