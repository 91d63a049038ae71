//! The rule registry and per-file analysis pass.
//!
//! Each rule is a lexical predicate over the code layer of a scanned
//! line (see [`crate::scan`]), gated by a *scope*: which crates and
//! which kinds of code (library vs test vs bench) the invariant covers.
//! Findings can be silenced by an adjacent justification comment:
//!
//! ```text
//! // tml-lint: allow(DET001, key-indexed lookups only; order never escapes)
//! ```
//!
//! either trailing on the offending line or on a comment-only line
//! directly above it. The reason string is mandatory — an allow without
//! one is itself reported (`LINT000`) and does not suppress anything.

use crate::scan::SourceModel;

/// A registered rule: identity, what it protects, and how to fix hits.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
    pub hint: &'static str,
}

/// The registry, in report order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "DET001",
        summary: "HashMap/HashSet in a deterministic crate (iteration order is \
                  randomized per process and breaks bit-identical replay)",
        hint: "use BTreeMap/BTreeSet or Vec, or justify with \
               // tml-lint: allow(DET001, <why order never escapes>)",
    },
    Rule {
        id: "DET002",
        summary: "wall-clock read (Instant::now/SystemTime) in simulated code \
                  (sim time must come from the event clock)",
        hint: "thread SimTime from the engine; only bench harness timing may \
               read the wall clock, with an allow comment",
    },
    Rule {
        id: "DET003",
        summary: "unseeded RNG (thread_rng/from_entropy/OsRng) — every stream \
                  must derive from the run seed",
        hint: "derive a child stream from SeedStream/SmallRng::seed_from_u64",
    },
    Rule {
        id: "DET004",
        summary: "float ordering hazard (partial_cmp().unwrap() comparators or \
                  f64 keys in ordered collections): NaN panics or unstable order",
        hint: "use f64::total_cmp for comparators; never key ordered \
               collections on floats",
    },
    Rule {
        id: "PANIC001",
        summary: "unwrap/expect/panic! in non-test library code (tracked \
                  against the checked-in budget in lint-baseline.toml)",
        hint: "return Result or handle the None arm; the per-crate budget in \
               lint-baseline.toml may only shrink",
    },
    Rule {
        id: "NUM001",
        summary: "narrowing `as` cast on a sim-time/queue-depth quantity \
                  (silent truncation corrupts latency accounting)",
        hint: "keep sim-time integers u64 end-to-end, or use try_from with an \
               explicit failure path",
    },
    Rule {
        id: "DET007",
        summary: "unordered cross-thread result collection (Mutex<Vec> push or \
                  thread-completion-order indexing): arrival order depends on \
                  the scheduler and breaks bit-identical replay",
        hint: "collect into pre-sized slots keyed by a deterministic index, or \
               merge in a fixed shard/worker order after the join",
    },
    Rule {
        id: "DET008",
        summary: "shard-lock discipline violation: a second shard mutex is \
                  acquired while another shard's guard is live (lock order \
                  then depends on scheduling and can deadlock or reorder \
                  cross-shard state)",
        hint: "hold at most one shard guard at a time; route cross-shard \
               traffic through the coordinator's mailbox drain between rounds",
    },
    Rule {
        id: "DUR001",
        summary: "durability gap in journal/artifact code: a rename publishes \
                  a file with no preceding fsync, or a write handle is opened \
                  and written but never synced (a crash can tear or lose the \
                  record the resume path depends on)",
        hint: "write to a tmp file, sync_all, then rename; fsync journal \
               appends before acknowledging",
    },
    Rule {
        id: "PANIC002",
        summary: "panic site reachable from the service executor or HTTP \
                  handlers through uncaught call edges — a reachable panic is \
                  a crashed sweep and the budget is zero",
        hint: "return a typed error along the service path, or contain the \
               call behind catch_unwind at the job boundary; run tml-lint \
               --explain PANIC002:file:line for the call chain",
    },
    Rule {
        id: "NUM002",
        summary: "unchecked +/-/* on a caller-supplied raw time/sequence \
                  integer parameter crossing a call boundary (overflow wraps \
                  silently in release and corrupts sim-time accounting)",
        hint: "take SimTime/SimDuration (checked operators) across call \
               boundaries, or use checked_/saturating_ arithmetic on raw \
               nanosecond/sequence integers",
    },
    Rule {
        id: "DEAD001",
        summary: "library fn that no product path reaches: no call chain \
                  from a bin, integration test, example, bench, trait method \
                  or serde-named fn (its own unit tests do not count)",
        hint: "delete it with the unit tests that check only it, or keep it \
               with // tml-lint: allow(DEAD001, <the test or oracle it serves>)",
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One reported violation (or malformed suppression, rule `LINT000`).
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: String,
    /// Workspace-relative path, unix separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
    pub hint: String,
}

/// Result of analysing one file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    /// Number of findings silenced by well-formed allow comments.
    pub suppressed: usize,
}

/// Crates whose simulation state must replay bit-identically: any
/// observable iteration order or hidden entropy here invalidates the
/// golden-seed tests.
const DETERMINISTIC_CRATES: &[&str] = &[
    "crates/sim-core/",
    "crates/cluster/",
    "crates/core/",
    "crates/inference/",
    "crates/workloads/",
];

pub(crate) fn is_deterministic_crate(path: &str) -> bool {
    DETERMINISTIC_CRATES.iter().any(|p| path.starts_with(p))
}

/// Integration tests, benches, examples and fixtures are not library
/// code: PANIC001/NUM001 do not apply there.
pub(crate) fn is_test_like_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

pub(crate) fn is_bin_path(path: &str) -> bool {
    path.contains("/bin/") || path.ends_with("/main.rs") || path == "src/main.rs"
}

/// A parsed allow directive (`allow(DET001, reason)` after the marker).
#[derive(Debug)]
enum Allow {
    Valid { rule_id: String },
    /// Missing/empty reason or unknown rule: reported, suppresses nothing.
    Malformed { detail: String },
}

/// Extracts every allow directive from one comment string.
fn parse_allows(comment: &str) -> Vec<Allow> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("tml-lint:") {
        let tail = &rest[pos + "tml-lint:".len()..];
        let tail = tail.trim_start();
        let Some(args) = tail.strip_prefix("allow(") else {
            out.push(Allow::Malformed {
                detail: "directive is not `allow(RULE, reason)`".to_string(),
            });
            rest = &rest[pos + "tml-lint:".len()..];
            continue;
        };
        let Some(close) = args.find(')') else {
            out.push(Allow::Malformed {
                detail: "unterminated allow( — missing `)`".to_string(),
            });
            break;
        };
        let body = &args[..close];
        match body.split_once(',') {
            Some((id, reason)) if !reason.trim().is_empty() => {
                let id = id.trim().to_string();
                if rule(&id).is_some() {
                    out.push(Allow::Valid { rule_id: id });
                } else {
                    out.push(Allow::Malformed {
                        detail: format!("unknown rule `{id}` in allow"),
                    });
                }
            }
            _ => out.push(Allow::Malformed {
                detail: format!(
                    "allow({}) has no reason string — justification is mandatory",
                    body.split(',').next().unwrap_or("").trim()
                ),
            }),
        }
        rest = &args[close..];
    }
    out
}

/// Word-boundary substring search: `needle` in `hay` not flanked by
/// identifier characters.
fn has_word(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= hay.len()
            || !hay[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len().max(1);
    }
    false
}

fn any_word(hay: &str, needles: &[&str]) -> bool {
    needles.iter().any(|n| has_word(hay, n))
}

/// Markers identifying sim-time / queue-depth quantities for NUM001.
const NUM001_MARKERS: &[&str] = &[
    "nanos", "_ns", "ns_", "SimTime", "sim_time", "depth", "queue", "qlen",
];
const NARROWING_CASTS: &[&str] = &[
    " as u8", " as u16", " as u32", " as i8", " as i16", " as i32",
];

/// Runs every applicable rule over a scanned file. `path` is the
/// workspace-relative path (unix separators) used for scoping.
///
/// This is the *lexical* pass: DET001/DET002/DET003 are reported
/// wherever their pattern appears. The workspace analysis in
/// [`crate::analyze_workspace`] then keeps such a finding outside the
/// deterministic crates only when its containing function is provably
/// reachable from a deterministic entry point (see [`crate::reach`]) —
/// per-path proofs replace the old whole-crate wall-clock allowlist.
pub fn check_file(path: &str, model: &SourceModel) -> FileReport {
    let mut report = FileReport::default();
    let det = is_deterministic_crate(path);
    let test_path = is_test_like_path(path);
    let bin = is_bin_path(path);

    for (idx, line) in model.lines.iter().enumerate() {
        let lineno = idx + 1;

        // Malformed suppressions are findings wherever they appear.
        for allow in parse_allows(&line.comment) {
            if let Allow::Malformed { detail } = allow {
                report.findings.push(Finding {
                    rule: "LINT000".to_string(),
                    file: path.to_string(),
                    line: lineno,
                    message: format!("malformed tml-lint suppression: {detail}"),
                    hint: "write // tml-lint: allow(RULE, <non-empty reason>)".to_string(),
                });
            }
        }

        let code = line.code.as_str();
        if code.trim().is_empty() {
            continue;
        }
        let mut hits: Vec<&'static Rule> = Vec::new();

        if any_word(code, &["HashMap", "HashSet"]) {
            hits.push(&RULES[0]);
        }
        if code.contains("Instant::now") || has_word(code, "SystemTime") {
            hits.push(&RULES[1]);
        }
        if any_word(code, &["thread_rng", "from_entropy", "OsRng"]) {
            hits.push(&RULES[2]);
        }
        let sortish = ["sort_by", "sort_unstable_by", "max_by(", "min_by(", "binary_search_by"]
            .iter()
            .any(|p| code.contains(p));
        if (code.contains("partial_cmp") && (sortish || code.contains(".unwrap()")))
            || code.contains("BTreeMap<f64")
            || code.contains("BTreeSet<f64")
        {
            hits.push(&RULES[3]);
        }
        if !test_path
            && !bin
            && !line.in_test
            && (code.contains(".unwrap()") || code.contains(".expect(") || code.contains("panic!"))
        {
            hits.push(&RULES[4]);
        }
        if det
            && !line.in_test
            && !test_path
            && NARROWING_CASTS.iter().any(|c| cast_with_boundary(code, c))
            && NUM001_MARKERS.iter().any(|m| code.contains(m))
        {
            hits.push(&RULES[5]);
        }
        if det
            && (code.contains("Mutex<Vec<")
                || (code.contains(".lock()") && code.contains(".push(")))
        {
            hits.push(&RULES[6]);
        }

        if hits.is_empty() {
            continue;
        }

        let allowed = allowed_rules_at(model, idx);

        for r in hits {
            if allowed.iter().any(|a| a == r.id) {
                report.suppressed += 1;
            } else {
                report.findings.push(Finding {
                    rule: r.id.to_string(),
                    file: path.to_string(),
                    line: lineno,
                    message: r.summary.split_whitespace().collect::<Vec<_>>().join(" "),
                    hint: r.hint.split_whitespace().collect::<Vec<_>>().join(" "),
                });
            }
        }
    }
    report
}

/// True when `pat` (e.g. `" as u32"`) occurs in `code` not followed by
/// an identifier character (so `as u32` doesn't match `as u32x4`).
fn cast_with_boundary(code: &str, pat: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(pat) {
        let after = start + pos + pat.len();
        let ok = code[after..]
            .chars()
            .next()
            .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        if ok {
            return true;
        }
        start = after;
    }
    false
}

/// Valid allow directives adjacent to 0-based line `idx`: trailing on
/// the line itself, or in the run of comment-only lines directly
/// above. Shared by the lexical pass and the semantic rules so a
/// `tml-lint: allow(DUR001, …)` works the same way as one for DET001.
pub(crate) fn allowed_rules_at(model: &SourceModel, idx: usize) -> Vec<String> {
    let mut allowed: Vec<String> = Vec::new();
    if let Some(line) = model.lines.get(idx) {
        collect_valid(&line.comment, &mut allowed);
    }
    let mut up = idx;
    while up > 0 {
        up -= 1;
        let prev = &model.lines[up];
        if prev.code.trim().is_empty() && !prev.comment.trim().is_empty() {
            collect_valid(&prev.comment, &mut allowed);
        } else {
            break;
        }
    }
    allowed
}

fn collect_valid(comment: &str, out: &mut Vec<String>) {
    for allow in parse_allows(comment) {
        if let Allow::Valid { rule_id } = allow {
            out.push(rule_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn check(path: &str, src: &str) -> FileReport {
        check_file(path, &scan(src))
    }

    #[test]
    fn det001_fires_lexically_everywhere() {
        // The lexical pass reports the pattern in every crate; the
        // workspace pass keeps hits outside the deterministic crates
        // only when the containing fn is det-reachable (lib.rs tests).
        let src = "use std::collections::HashMap;\n";
        assert_eq!(check("crates/cluster/src/x.rs", src).findings.len(), 1);
        assert_eq!(check("crates/stats/src/x.rs", src).findings.len(), 1);
    }

    #[test]
    fn trailing_and_preceding_allows_suppress() {
        let trailing =
            "let m = HashMap::new(); // tml-lint: allow(DET001, keyed lookups only)\n";
        let preceding = "\
// tml-lint: allow(DET001, keyed lookups only)
let m = HashMap::new();
";
        for src in [trailing, preceding] {
            let r = check("crates/core/src/x.rs", src);
            assert!(r.findings.is_empty(), "{:?}", r.findings);
            assert_eq!(r.suppressed, 1);
        }
    }

    #[test]
    fn allow_without_reason_is_malformed_and_does_not_suppress() {
        let src = "let m = HashMap::new(); // tml-lint: allow(DET001)\n";
        let r = check("crates/core/src/x.rs", src);
        let rules: Vec<&str> = r.findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"LINT000"), "{rules:?}");
        assert!(rules.contains(&"DET001"), "{rules:?}");
    }

    #[test]
    fn panic001_skips_tests_and_bins() {
        let src = "\
fn lib() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
";
        let r = check("crates/stats/src/x.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].line, 1);
        assert!(check("crates/stats/src/bin/tool.rs", src).findings.is_empty());
        assert!(check("tests/integration.rs", src).findings.is_empty());
    }

    #[test]
    fn det002_fires_lexically_in_every_crate() {
        // No more per-crate allowlist: the service crate's legitimate
        // wall-clock reads are instead *proven* unreachable from the
        // deterministic entry points by the workspace reachability pass.
        let src = "let t = Instant::now();\n";
        assert_eq!(check("crates/server/src/service.rs", src).findings.len(), 1);
        assert_eq!(check("crates/core/src/x.rs", src).findings.len(), 1);
        assert_eq!(check("crates/stats/src/x.rs", src).findings.len(), 1);
    }

    #[test]
    fn panic001_applies_in_service_crate() {
        let src = "fn lib() { x.unwrap(); }\n";
        let r = check("crates/server/src/service.rs", src);
        assert!(r.findings.iter().any(|f| f.rule == "PANIC001"), "{:?}", r.findings);
    }

    #[test]
    fn malformed_allow_inside_cfg_test_is_lint000() {
        // Suppression comments are validated even inside `#[cfg(test)]`
        // regions: a reason-less or unknown-rule allow is LINT000 there
        // exactly as it is in library code.
        let src = "\
#[cfg(test)]
mod tests {
    // tml-lint: allow(DET004)
    fn t() { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }
}
";
        let r = check("crates/cluster/src/x.rs", src);
        let rules: Vec<&str> = r.findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"LINT000"), "{rules:?}");
        // The malformed allow also fails to suppress the finding itself.
        assert!(rules.contains(&"DET004"), "{rules:?}");
    }

    #[test]
    fn malformed_allow_inside_spaced_cfg_test_is_lint000() {
        // Regression: `#[cfg( test )]` spacing used to fail to open the
        // test region, so rule logic keyed on `in_test` misbehaved.
        let src = "\
#[cfg( test )]
mod tests {
    fn t() { let _ = x.unwrap(); } // tml-lint: allow(NOSUCH, why)
}
";
        let r = check("crates/cluster/src/x.rs", src);
        // PANIC001 is rightly skipped inside the test region, but the
        // unknown-rule allow must still surface as LINT000.
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "LINT000");
    }

    #[test]
    fn well_formed_allow_inside_cfg_test_suppresses() {
        let src = "\
#[cfg(test)]
mod tests {
    // tml-lint: allow(DET004, asserting on NaN-free synthetic data)
    fn t() { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }
}
";
        let r = check("crates/cluster/src/x.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn patterns_in_strings_do_not_fire() {
        let src = "let s = \"thread_rng Instant::now HashMap\";\n";
        assert!(check("crates/cluster/src/x.rs", src).findings.is_empty());
    }

    #[test]
    fn det007_flags_mutex_vec_in_deterministic_crates() {
        let src = "let results: Mutex<Vec<f64>> = Mutex::new(Vec::new());\n";
        let r = check("crates/inference/src/x.rs", src);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "DET007");
        // Outside the deterministic crates the pattern is fine.
        assert!(check("crates/stats/src/x.rs", src).findings.is_empty());
    }

    #[test]
    fn det007_flags_same_line_lock_push() {
        let src = "out.lock().unwrap().push(result);\n";
        let r = check("crates/cluster/src/x.rs", src);
        let rules: Vec<&str> = r.findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"DET007"), "{rules:?}");
    }

    #[test]
    fn det007_ignores_slot_indexed_collections_with_allow() {
        let src = "\
// tml-lint: allow(DET007, slots are pre-sized and index-assigned by experiment id)
let results: Mutex<Vec<f64>> = Mutex::new(vec![0.0; n]);
";
        let r = check("crates/inference/src/x.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn det007_does_not_flag_vec_of_mutexes() {
        // A Vec<Mutex<_>> with per-slot ownership (the sharded executor's
        // layout) is the deterministic fix, not the hazard.
        let src = "let shards: Vec<Mutex<Engine>> = engines.into_iter().map(Mutex::new).collect();\n";
        assert!(check("crates/cluster/src/x.rs", src).findings.is_empty());
    }
}
