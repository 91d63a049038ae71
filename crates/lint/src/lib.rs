//! `treadmill-lint` — static determinism & soundness analysis for the
//! Treadmill workspace.
//!
//! The simulator's statistical attribution rests on an invariant the
//! type system cannot see: every seeded run must replay *bit-identically*
//! (golden-seed tests compare full latency vectors). The classic ways
//! to silently break that — randomized `HashMap` iteration order,
//! wall-clock reads, unseeded RNG, NaN-unsafe float comparators — all
//! have an unmistakable lexical signature, so this crate implements a
//! dependency-free scanner (no `syn` in the vendored registry) plus a
//! small rule registry, and turns nondeterminism from a postmortem
//! (a golden test failing two PRs later) into a compile-gate.
//!
//! v2 adds a parse-based whole-workspace layer on top of the lexical
//! scan: [`parse`] recovers items, calls, locks, and I/O events from
//! the token stream; [`graph`] links them into a conservative
//! workspace call graph; [`reach`] runs reachability from the
//! deterministic entry points, the service boundary and the product
//! roots. Determinism rules (`DET001/2/3`) outside the deterministic
//! crates fire only when the site is *provably reachable* from a
//! deterministic entry point — per-path proofs replace the old
//! whole-crate allowlists — and five semantic rules (`DET008`,
//! `DUR001`, `PANIC002`, `NUM002`, `DEAD001`) check lock discipline,
//! durability ordering, panic containment, tainted-integer arithmetic
//! and dead library code over the same graph.
//!
//! See `DESIGN.md` § "Static analysis & determinism guarantees" for the
//! rule table, suppression syntax, and the baseline ratchet policy.

// Unit tests unwrap freely on fixtures they construct; library code is
// held to the workspace lint table (see DESIGN.md, "Static analysis").
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod baseline;
pub mod graph;
pub mod parse;
pub mod reach;
pub mod rules;
pub mod sarif;
pub mod scan;
pub mod walk;

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use baseline::Baseline;
use rules::{check_file, FileReport, Finding};
use scan::SourceModel;

/// Full result of a workspace analysis run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Unsuppressed, unbudgeted findings — these fail `--check`.
    pub failures: Vec<Finding>,
    /// Findings covered by the baseline (grandfathered debt).
    pub budgeted: Vec<Finding>,
    /// Count of findings silenced by valid allow comments.
    pub suppressed: usize,
    /// Baseline/actual mismatches. The ratchet is exact-match: debt
    /// above budget fails (new violations), debt below budget fails
    /// too (the baseline must be shrunk to the new count).
    pub ratchet_errors: Vec<String>,
    pub files_scanned: usize,
    /// The reachability model, when the workspace pass ran (absent for
    /// single-file lexical analyses). Powers `--explain`.
    pub semantics: Option<reach::Semantics>,
    /// Actual PANIC001 counts per crate, as reconciled (for pruning).
    pub panic_actual: BTreeMap<String, usize>,
    /// Actual PANIC001 counts per pinned file, as reconciled.
    pub panic_file_actual: BTreeMap<String, usize>,
    /// Actual counts per grandfathered `RULE:file` key, as reconciled.
    pub grand_actual: BTreeMap<String, usize>,
}

impl Analysis {
    /// True when `--check` should exit non-zero.
    pub fn is_failure(&self) -> bool {
        !self.failures.is_empty() || !self.ratchet_errors.is_empty()
    }
}

/// Maps a workspace-relative path to its crate's package name.
/// `perfbench/` is a package of its own (with its own manifest), not
/// part of the root crate.
pub fn crate_name(path: &str) -> String {
    if path.starts_with("perfbench/") {
        return "treadmill-perfbench".to_string();
    }
    match path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
    {
        Some(dir) => format!("treadmill-{dir}"),
        None => "treadmill".to_string(),
    }
}

/// Analyses one in-memory file with the *lexical* rules only (the
/// single-file fixture entry point). Reachability gating and semantic
/// rules need a whole workspace — see [`analyze_files`].
pub fn analyze_source(rel_path: &str, source: &str) -> FileReport {
    check_file(rel_path, &scan::scan(source))
}

/// Walks the workspace at `root`, applies every rule, and reconciles
/// the outcome against `baseline`.
pub fn analyze_workspace(root: &Path, baseline: &Baseline) -> io::Result<Analysis> {
    let mut files: Vec<(String, String)> = Vec::new();
    for rel in walk::rust_files(root)? {
        let source = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, source));
    }
    let deps = graph::workspace_deps(root);
    Ok(analyze_files(files, &deps, baseline))
}

/// Analyses a set of in-memory files as one workspace: lexical pass,
/// call-graph construction, reachability gating of DET001/2/3 outside
/// the deterministic crates, semantic rules, then baseline
/// reconciliation. `deps` maps crate name → direct `treadmill-*`
/// dependencies (used to bound cross-crate call resolution).
pub fn analyze_files(
    files: Vec<(String, String)>,
    deps: &BTreeMap<String, Vec<String>>,
    baseline: &Baseline,
) -> Analysis {
    let mut analysis = Analysis::default();
    let mut raw: Vec<Finding> = Vec::new();
    let mut models: Vec<(String, SourceModel)> = Vec::new();
    for (rel, source) in files {
        let model = scan::scan(&source);
        let report = check_file(&rel, &model);
        analysis.suppressed += report.suppressed;
        raw.extend(report.findings);
        analysis.files_scanned += 1;
        models.push((rel, model));
    }

    let parsed = models
        .iter()
        .map(|(path, model)| parse::parse_file(path, model))
        .collect();
    let sem = reach::Semantics::compute(graph::Graph::build(parsed, deps));

    // Reachability gate: outside the deterministic crates, a lexical
    // determinism finding stands only when its containing function is
    // provably reachable from a deterministic entry point. Sites with
    // no call path (service handlers, bench bins, test helpers) are
    // exempt by proof, not by allowlist — `--explain` shows either the
    // chain or the unreachability evidence.
    raw.retain(|f| match f.rule.as_str() {
        "DET001" | "DET002" | "DET003" if !rules::is_deterministic_crate(&f.file) => {
            sem.det_reachable_at(&f.file, f.line)
        }
        _ => true,
    });

    // Semantic findings honor the same suppression comments as the
    // lexical rules.
    let model_by_path: BTreeMap<&str, &SourceModel> = models
        .iter()
        .map(|(path, model)| (path.as_str(), model))
        .collect();
    for (path, hits) in sem.findings_by_file() {
        let Some(model) = model_by_path.get(path.as_str()) else {
            continue;
        };
        for hit in hits {
            let allowed = rules::allowed_rules_at(model, hit.line.saturating_sub(1));
            if allowed.iter().any(|a| a == hit.rule_id) {
                analysis.suppressed += 1;
                continue;
            }
            let (summary, hint) = match rules::rule(hit.rule_id) {
                Some(rule) => (rule.summary, rule.hint),
                None => ("", ""),
            };
            let mut message = summary.split_whitespace().collect::<Vec<_>>().join(" ");
            if let Some(detail) = &hit.detail {
                message.push_str(": ");
                message.push_str(detail);
            }
            raw.push(Finding {
                rule: hit.rule_id.to_string(),
                file: path.clone(),
                line: hit.line,
                message,
                hint: hint.split_whitespace().collect::<Vec<_>>().join(" "),
            });
        }
    }

    reconcile(&mut analysis, raw, baseline);
    analysis.semantics = Some(sem);
    analysis
}

/// Splits raw findings into failures vs baseline-covered debt and
/// emits ratchet errors for every exact-match violation.
fn reconcile(analysis: &mut Analysis, raw: Vec<Finding>, baseline: &Baseline) {
    let mut panic_counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut panic_file_counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut grand_counts: BTreeMap<String, usize> = BTreeMap::new();

    for finding in raw {
        match finding.rule.as_str() {
            // A file listed in [panic-budget-files] is carved out of
            // its crate's pool: its PANIC001 findings are judged
            // against the file's own budget, so a `= 0` pin fails
            // immediately even while the crate still carries debt.
            "PANIC001" if baseline.panic_budget_files.contains_key(&finding.file) => {
                let budget = baseline.panic_budget_files[&finding.file];
                let n = panic_file_counts.entry(finding.file.clone()).or_insert(0);
                *n += 1;
                if *n <= budget {
                    analysis.budgeted.push(finding);
                } else {
                    analysis.failures.push(finding);
                }
            }
            "PANIC001" => {
                let krate = crate_name(&finding.file);
                let n = panic_counts.entry(krate.clone()).or_insert(0);
                *n += 1;
                let budget = baseline.panic_budget.get(&krate).copied().unwrap_or(0);
                if *n <= budget {
                    analysis.budgeted.push(finding);
                } else {
                    analysis.failures.push(finding);
                }
            }
            "LINT000" => analysis.failures.push(finding),
            _ => {
                let key = format!("{}:{}", finding.rule, finding.file);
                let n = grand_counts.entry(key.clone()).or_insert(0);
                *n += 1;
                let allowance = baseline.grandfathered.get(&key).copied().unwrap_or(0);
                if *n <= allowance {
                    analysis.budgeted.push(finding);
                } else {
                    analysis.failures.push(finding);
                }
            }
        }
    }

    for (krate, budget) in &baseline.panic_budget {
        let actual = panic_counts.get(krate).copied().unwrap_or(0);
        if actual < *budget {
            analysis.ratchet_errors.push(format!(
                "panic-budget for {krate} is {budget} but only {actual} PANIC001 site(s) \
                 remain — the baseline may only shrink: set \"{krate}\" = {actual} \
                 (or delete the entry if 0)"
            ));
        }
    }
    for (file, budget) in &baseline.panic_budget_files {
        let actual = panic_file_counts.get(file).copied().unwrap_or(0);
        if actual < *budget {
            analysis.ratchet_errors.push(format!(
                "panic-budget-files for {file} is {budget} but only {actual} PANIC001 \
                 site(s) remain — the baseline may only shrink: set \"{file}\" = {actual} \
                 (a `= 0` entry is a permanent pin and stays)"
            ));
        }
    }
    for (key, allowance) in &baseline.grandfathered {
        let actual = grand_counts.get(key).copied().unwrap_or(0);
        if actual < *allowance {
            analysis.ratchet_errors.push(format!(
                "grandfathered \"{key}\" = {allowance} but only {actual} finding(s) \
                 remain — the baseline may only shrink: set it to {actual} \
                 (or delete the entry if 0)"
            ));
        }
    }

    analysis.panic_actual = panic_counts;
    analysis.panic_file_actual = panic_file_counts;
    analysis.grand_actual = grand_counts;
}

/// Serialises the analysis as stable machine-readable JSON.
pub fn to_json(analysis: &Analysis) -> String {
    let mut out = String::from("{");
    push_kv(&mut out, "files_scanned", &analysis.files_scanned.to_string());
    out.push_str(",\"failures\":");
    findings_json(&mut out, &analysis.failures);
    out.push_str(",\"budgeted\":");
    findings_json(&mut out, &analysis.budgeted);
    out.push(',');
    push_kv(&mut out, "suppressed", &analysis.suppressed.to_string());
    out.push_str(",\"ratchet_errors\":[");
    for (i, e) in analysis.ratchet_errors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, e);
    }
    out.push_str("]}");
    out
}

fn findings_json(out: &mut String, findings: &[Finding]) {
    out.push('[');
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\":");
        push_json_string(out, &f.rule);
        out.push_str(",\"file\":");
        push_json_string(out, &f.file);
        out.push_str(",\"line\":");
        out.push_str(&f.line.to_string());
        out.push_str(",\"message\":");
        push_json_string(out, &f.message);
        out.push_str(",\"hint\":");
        push_json_string(out, &f.hint);
        out.push('}');
    }
    out.push(']');
}

fn push_kv(out: &mut String, key: &str, raw_value: &str) {
    push_json_string(out, key);
    out.push(':');
    out.push_str(raw_value);
}

pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xf;
                    out.push(char::from_digit(digit, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use rules::Finding;

    fn finding(rule: &str, file: &str) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line: 1,
            message: "m".to_string(),
            hint: "h".to_string(),
        }
    }

    #[test]
    fn crate_names() {
        assert_eq!(crate_name("crates/sim-core/src/rng.rs"), "treadmill-sim-core");
        assert_eq!(crate_name("src/lib.rs"), "treadmill");
        assert_eq!(crate_name("tests/golden_seed.rs"), "treadmill");
        assert_eq!(crate_name("perfbench/bin/served.rs"), "treadmill-perfbench");
    }

    #[test]
    fn panic_budget_exact_match() {
        let mut baseline = Baseline::default();
        baseline
            .panic_budget
            .insert("treadmill-stats".to_string(), 2);

        // Exactly on budget: all budgeted, no ratchet errors.
        let mut a = Analysis::default();
        let two = vec![
            finding("PANIC001", "crates/stats/src/a.rs"),
            finding("PANIC001", "crates/stats/src/b.rs"),
        ];
        reconcile(&mut a, two.clone(), &baseline);
        assert_eq!((a.failures.len(), a.budgeted.len()), (0, 2));
        assert!(!a.is_failure());

        // Over budget: the overflow fails.
        let mut a = Analysis::default();
        let mut three = two.clone();
        three.push(finding("PANIC001", "crates/stats/src/c.rs"));
        reconcile(&mut a, three, &baseline);
        assert_eq!((a.failures.len(), a.budgeted.len()), (1, 2));
        assert!(a.is_failure());

        // Under budget: ratchet error tells the new number to write.
        let mut a = Analysis::default();
        reconcile(&mut a, two[..1].to_vec(), &baseline);
        assert!(a.failures.is_empty());
        assert_eq!(a.ratchet_errors.len(), 1, "{:?}", a.ratchet_errors);
        assert!(a.is_failure());
    }

    #[test]
    fn pinned_file_is_carved_out_of_the_crate_pool() {
        // The crate has plenty of budget, but the pinned file has none:
        // a panic site there must fail outright, and must not consume
        // the crate's allowance.
        let mut baseline = Baseline::default();
        baseline
            .panic_budget
            .insert("treadmill-inference".to_string(), 2);
        baseline
            .panic_budget_files
            .insert("crates/inference/src/analytic.rs".to_string(), 0);

        let mut a = Analysis::default();
        reconcile(
            &mut a,
            vec![
                finding("PANIC001", "crates/inference/src/analytic.rs"),
                finding("PANIC001", "crates/inference/src/screening.rs"),
            ],
            &baseline,
        );
        assert_eq!((a.failures.len(), a.budgeted.len()), (1, 1));
        assert_eq!(a.failures[0].file, "crates/inference/src/analytic.rs");
        assert!(a.is_failure());

        // A clean pinned file is stable: `= 0` with zero findings is
        // neither a failure nor a ratchet complaint.
        let crate_debt = vec![
            finding("PANIC001", "crates/inference/src/screening.rs"),
            finding("PANIC001", "crates/inference/src/dataset.rs"),
        ];
        let mut a = Analysis::default();
        reconcile(&mut a, crate_debt.clone(), &baseline);
        assert!(a.failures.is_empty() && a.ratchet_errors.is_empty());

        // A nonzero file budget ratchets down like everything else.
        baseline
            .panic_budget_files
            .insert("crates/inference/src/analytic.rs".to_string(), 1);
        let mut a = Analysis::default();
        reconcile(&mut a, crate_debt, &baseline);
        assert_eq!(a.ratchet_errors.len(), 1, "{:?}", a.ratchet_errors);
        assert!(a.ratchet_errors[0].contains("panic-budget-files"));
    }

    #[test]
    fn grandfathered_and_stale_entries() {
        let mut baseline = Baseline::default();
        baseline
            .grandfathered
            .insert("DET002:crates/x/src/y.rs".to_string(), 1);
        let mut a = Analysis::default();
        reconcile(
            &mut a,
            vec![finding("DET002", "crates/x/src/y.rs")],
            &baseline,
        );
        assert!(!a.is_failure());

        // Entry with zero remaining findings must be removed.
        let mut a = Analysis::default();
        reconcile(&mut a, Vec::new(), &baseline);
        assert_eq!(a.ratchet_errors.len(), 1);
    }

    #[test]
    fn json_escapes() {
        let mut a = Analysis::default();
        a.failures.push(finding("DET001", "a\"b\\c.rs"));
        let json = to_json(&a);
        assert!(json.contains("a\\\"b\\\\c.rs"), "{json}");
    }
}
