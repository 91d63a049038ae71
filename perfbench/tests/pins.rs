//! Runs every workload at tiny scale for the default seed and pins its
//! deterministic counters. Wall-clock metrics are only observed, never
//! pinned. Run with `cargo test --release --manifest-path
//! perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

const SEED: &str = "2016";

/// `(workload, sim.events, sim.responses, ckpt.bytes, output_digest)`.
const PINS: [(&str, u64, u64, u64, &str); 3] = [
    (
        "attribution_campaign",
        1_283_257,
        128_238,
        0,
        "89e1d97ca510d2e5",
    ),
    (
        "service_sweep",
        202_302,
        20_193,
        3_570_047,
        "367109f9780df989",
    ),
    ("sharded_world", 16_012, 1_586, 0, "d14f014eeecc094e"),
];

/// Runs one tiny workload and returns its `metric` and `info` lines as
/// a key → value map.
fn run(workload: &str, trace: &str) -> BTreeMap<String, String> {
    let out_dir =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("pins-{workload}-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", SEED, "--seconds", "0"])
        .args(["--trace", trace, "--scale", "tiny", "--out"])
        .arg(&out_dir)
        .output()
        .expect("perfbench runs");
    assert!(
        output.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let report = stdout.lines().last().unwrap_or_default();
    assert!(
        report.contains("\"correct\":true"),
        "{workload} trace {trace} failed its checks: {report}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
        .lines()
        .filter_map(|line| {
            let rest = line
                .strip_prefix("metric ")
                .or_else(|| line.strip_prefix("info "))?;
            let mut parts = rest.split(' ');
            Some((parts.next()?.to_string(), parts.next()?.to_string()))
        })
        .collect()
}

#[test]
fn tiny_workloads_reproduce_their_pinned_counters() {
    for (workload, events, responses, ckpt_bytes, digest) in PINS {
        let traced = run(workload, "1");
        assert_eq!(traced["sim.events"], events.to_string(), "{workload}");
        assert_eq!(traced["sim.responses"], responses.to_string(), "{workload}");
        assert_eq!(traced["ckpt.bytes"], ckpt_bytes.to_string(), "{workload}");
        assert_eq!(traced["output_digest"], digest, "{workload}");

        let untraced = run(workload, "0");
        for key in ["sim.events", "sim.responses", "output_digest"] {
            assert_eq!(
                untraced[key], traced[key],
                "{workload}: {key} differs between modes"
            );
        }
        for key in [
            "setup_s",
            "time_to_result_s",
            "responses_per_s",
            "peak_rss_mb",
        ] {
            let value: f64 = untraced[key].parse().expect("numeric metric");
            assert!(value > 0.0, "{workload}: {key} = {value}");
        }
    }
}
