//! Reachability analysis over the workspace call graph, and the
//! semantic rules built on it.
//!
//! Three root sets are traced, each by the same breadth-first search
//! (`bfs`):
//!
//! * **Deterministic roots** — every non-test function in the
//!   deterministic crates (`sim-core`, `cluster`, `core`, `inference`,
//!   `workloads`), seeded from the named entry points (`Engine` run
//!   methods, `ClusterWorld`/`ShardedCluster` rounds, the screening
//!   predictors) so explain chains start at a recognizable boundary.
//!   DET001/002/003 findings outside the deterministic crates fire
//!   only when their containing function is reachable from this set —
//!   replacing PR 5's whole-crate allowlist with a per-path proof.
//! * **Service roots** — every non-test function in `crates/server`.
//!   PANIC002 fires on any panic site reachable from here through
//!   edges *not* contained by `catch_unwind`: a reachable panic is a
//!   crashed sweep, and the budget is zero.
//! * **Product roots** — every fn in a file that is not library code
//!   (bins and their `main`, integration tests, examples, benches,
//!   `perfbench/`), every trait method (std and `dyn` dispatch call
//!   them where the graph sees no call site), and every fn a
//!   `#[serde(…)]` attribute names. In-module `#[cfg(test)]` tests are
//!   not roots. DEAD001 fires on each library fn this set misses: code
//!   kept alive only by its own unit tests is still dead.
//!
//! BFS parent links are kept for every traversal so `--explain` can
//! print the concrete call chain (or certify unreachability) for any
//! `RULE:file:line`.

use std::collections::{BTreeMap, VecDeque};

use crate::graph::{Edge, Graph};
use crate::parse::IoKind;
use crate::rules;

/// How a function was reached from a root set.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reach {
    No,
    Root,
    /// `shadowed`: reached over a shadowed edge (see [`Edge`]).
    Via {
        from: usize,
        line: usize,
        shadowed: bool,
    },
}

/// A semantic finding before suppression handling: rule id + site.
#[derive(Debug, Clone)]
pub struct SemHit {
    pub rule_id: &'static str,
    /// 1-based line.
    pub line: usize,
    /// Site-specific detail appended to the rule summary.
    pub detail: Option<String>,
}

/// Named deterministic entry points: `(impl type, method)`.
const ENTRY_METHODS: &[(&str, &str)] = &[
    ("Engine", "run_to_completion"),
    ("Engine", "run_until"),
    ("Engine", "run_events"),
];
/// Types whose every method is a deterministic entry point.
const ENTRY_TYPES: &[&str] = &["ClusterWorld", "ShardedCluster"];
/// Free functions that are deterministic entry points (sweep drivers
/// and the analytic screening predictors).
const ENTRY_FNS: &[&str] = &[
    "run_sweep_controlled",
    "run_factorial_sweep",
    "run_factorial_sweep_controlled",
    "screen_factors",
    "screen_cells",
    "screen_hardware",
    "predict_cell",
    "predict",
    "censoring_prediction",
];

/// Files covered by DUR001 (fsync-before-publish discipline).
fn dur001_scope(path: &str) -> bool {
    path.starts_with("crates/server/") || path == "crates/core/src/sweep.rs"
}

/// Panic-site method names and macros for PANIC002. `debug_assert*` is
/// compiled out of release builds and deliberately absent.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Library code: not a bin, test, example, bench or `perfbench/` file.
fn is_library_path(path: &str) -> bool {
    !rules::is_test_like_path(path) && !rules::is_bin_path(path) && !path.starts_with("perfbench/")
}

/// The computed reachability model; owns the graph.
#[derive(Debug)]
pub struct Semantics {
    pub graph: Graph,
    det_parent: Vec<Reach>,
    svc_parent: Vec<Reach>,
    live_parent: Vec<Reach>,
    pub det_root_count: usize,
    pub entry_count: usize,
    pub svc_root_count: usize,
    pub live_root_count: usize,
    pub edge_count: usize,
}

fn is_named_entry(g: &Graph, id: usize) -> bool {
    let f = g.fn_def(id);
    match f.self_ty.as_deref() {
        Some(ty) => {
            ENTRY_TYPES.contains(&ty) || ENTRY_METHODS.iter().any(|(t, m)| *t == ty && *m == f.name)
        }
        None => ENTRY_FNS.contains(&f.name.as_str()),
    }
}

/// Is `id` eligible as a deterministic / service root? Test fns and
/// test-path files are never roots: determinism and crash-safety are
/// contracts on shipped code, and tests only *drive* it.
fn det_root(g: &Graph, id: usize) -> bool {
    let file = g.fn_file(id);
    rules::is_deterministic_crate(file) && !rules::is_test_like_path(file) && !g.fn_def(id).is_test
}

fn svc_root(g: &Graph, id: usize) -> bool {
    let file = g.fn_file(id);
    file.starts_with("crates/server/") && !rules::is_test_like_path(file) && !g.fn_def(id).is_test
}

/// Is `id` a product root (see the module docs)?
fn live_root(g: &Graph, id: usize) -> bool {
    let f = g.fn_def(id);
    let (fi, _) = g.fn_locs[id];
    !is_library_path(&g.files[fi].path)
        || (!f.is_test && (f.trait_ty.is_some() || g.files[fi].serde_fns.contains(&f.name)))
}

/// Breadth-first search from `roots`, in order, over the edges
/// `follow` admits. Returns the parent map and the number of distinct
/// roots.
fn bfs(
    g: &Graph,
    roots: impl IntoIterator<Item = usize>,
    follow: impl Fn(&Edge) -> bool,
) -> (Vec<Reach>, usize) {
    let mut parent = vec![Reach::No; g.fn_count()];
    let mut queue = VecDeque::new();
    for id in roots {
        if parent[id] == Reach::No {
            parent[id] = Reach::Root;
            queue.push_back(id);
        }
    }
    let root_count = queue.len();
    while let Some(id) = queue.pop_front() {
        for e in &g.out_edges[id] {
            if follow(e) && parent[e.to] == Reach::No {
                parent[e.to] = Reach::Via {
                    from: id,
                    line: e.line,
                    shadowed: e.shadowed,
                };
                queue.push_back(e.to);
            }
        }
    }
    (parent, root_count)
}

impl Semantics {
    /// Runs the three traversals over a built graph.
    pub fn compute(graph: Graph) -> Semantics {
        let ids = 0..graph.fn_count();
        let edge_count = graph.out_edges.iter().map(Vec::len).sum();
        // Seed named entries first so explain chains ground at a
        // recognizable boundary, then every other eligible fn (a
        // not-yet-called pub fn in a deterministic crate is still
        // covered code).
        let entries: Vec<usize> = ids
            .clone()
            .filter(|&id| det_root(&graph, id) && is_named_entry(&graph, id))
            .collect();
        let entry_count = entries.len();
        let det_roots = entries
            .into_iter()
            .chain(ids.clone().filter(|&id| det_root(&graph, id)));
        let (det_parent, det_root_count) = bfs(&graph, det_roots, |e| !e.shadowed);
        // An edge inside catch_unwind contains the panic; it does not
        // propagate crash-reachability.
        let svc_roots = ids.clone().filter(|&id| svc_root(&graph, id));
        let (svc_parent, svc_root_count) = bfs(&graph, svc_roots, |e| !e.caught && !e.shadowed);
        let live_roots = ids.filter(|&id| live_root(&graph, id));
        let (live_parent, live_root_count) = bfs(&graph, live_roots, |_| true);
        Semantics {
            graph,
            det_parent,
            svc_parent,
            live_parent,
            det_root_count,
            entry_count,
            svc_root_count,
            live_root_count,
            edge_count,
        }
    }

    /// Is the function containing `file:line` reachable from the
    /// deterministic roots? (False when no function contains the line —
    /// module-level code in a non-deterministic crate is not simulated
    /// state.)
    pub fn det_reachable_at(&self, file: &str, line: usize) -> bool {
        self.graph
            .fn_at(file, line)
            .is_some_and(|id| self.det_parent[id] != Reach::No)
    }

    /// Semantic findings (DET008, DUR001, PANIC002, NUM002, DEAD001),
    /// grouped by file path.
    pub fn findings_by_file(&self) -> BTreeMap<String, Vec<SemHit>> {
        let mut out: BTreeMap<String, Vec<SemHit>> = BTreeMap::new();
        for fi in 0..self.graph.files.len() {
            let path = self.graph.files[fi].path.clone();
            let mut hits = Vec::new();
            self.det008_hits(fi, &mut hits);
            self.dur001_hits(fi, &mut hits);
            self.num002_hits(fi, &mut hits);
            self.panic002_hits(fi, &mut hits);
            self.dead001_hits(fi, &mut hits);
            if !hits.is_empty() {
                hits.sort_by_key(|h| (h.line, h.rule_id));
                out.insert(path, hits);
            }
        }
        out
    }

    /// DET008: overlapping shard-mutex guards in deterministic crates
    /// that use the `Vec<Mutex<…>>` sharding pattern.
    fn det008_hits(&self, fi: usize, hits: &mut Vec<SemHit>) {
        let file = &self.graph.files[fi];
        if file.mutex_vec_lines.is_empty()
            || !rules::is_deterministic_crate(&file.path)
            || rules::is_test_like_path(&file.path)
        {
            return;
        }
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            for ev in &f.lock_overlaps {
                hits.push(SemHit {
                    rule_id: "DET008",
                    line: ev.line,
                    detail: Some(ev.detail.clone()),
                });
            }
        }
    }

    /// DUR001: in journal/artifact code, every rename must be preceded
    /// by a sync, and an opened write handle must be synced before the
    /// function returns.
    fn dur001_hits(&self, fi: usize, hits: &mut Vec<SemHit>) {
        let file = &self.graph.files[fi];
        if !dur001_scope(&file.path) || rules::is_test_like_path(&file.path) {
            return;
        }
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            let evs = &f.io_events;
            let mut synced = false;
            let mut wrote = false;
            let mut opened = false;
            for ev in evs {
                match ev.kind {
                    IoKind::Sync => synced = true,
                    IoKind::Write => wrote = true,
                    IoKind::AppendOpen | IoKind::CreateFile => opened = true,
                    IoKind::Rename => {
                        if !synced {
                            hits.push(SemHit {
                                rule_id: "DUR001",
                                line: ev.line,
                                detail: Some(
                                    "rename publishes a file never synced in this fn"
                                        .to_string(),
                                ),
                            });
                        }
                    }
                }
            }
            if opened && wrote && !synced {
                let line = evs
                    .iter()
                    .rev()
                    .find(|e| e.kind == IoKind::Write)
                    .map_or(f.line, |e| e.line);
                hits.push(SemHit {
                    rule_id: "DUR001",
                    line,
                    detail: Some(
                        "write handle opened and written but never fsynced".to_string(),
                    ),
                });
            }
        }
    }

    /// NUM002: raw arithmetic on tainted time/seq parameters in
    /// deterministic (or deterministically reachable) functions.
    fn num002_hits(&self, fi: usize, hits: &mut Vec<SemHit>) {
        let file = &self.graph.files[fi];
        if rules::is_test_like_path(&file.path) || rules::is_bin_path(&file.path) {
            return;
        }
        for (li, f) in file.fns.iter().enumerate() {
            if f.is_test || f.arith_sites.is_empty() {
                continue;
            }
            let id = match self.graph.fn_id(fi, li) {
                Some(id) => id,
                None => continue,
            };
            let covered = rules::is_deterministic_crate(&file.path)
                || self.det_parent[id] != Reach::No;
            if !covered {
                continue;
            }
            let mut seen = Vec::new();
            for site in &f.arith_sites {
                if seen.contains(&site.line) {
                    continue;
                }
                seen.push(site.line);
                hits.push(SemHit {
                    rule_id: "NUM002",
                    line: site.line,
                    detail: Some(format!(
                        "raw arithmetic on caller-supplied `{}` in fn {}",
                        site.ident, f.name
                    )),
                });
            }
        }
    }

    /// PANIC002: panic sites outside `crates/server` whose containing
    /// fn is service-reachable through uncaught edges. Sites inside
    /// `crates/server` itself are already pinned by the zero PANIC001
    /// budget.
    fn panic002_hits(&self, fi: usize, hits: &mut Vec<SemHit>) {
        let file = &self.graph.files[fi];
        if file.path.starts_with("crates/server/")
            || rules::is_test_like_path(&file.path)
            || rules::is_bin_path(&file.path)
        {
            return;
        }
        for (li, f) in file.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let id = match self.graph.fn_id(fi, li) {
                Some(id) => id,
                None => continue,
            };
            if self.svc_parent[id] == Reach::No {
                continue;
            }
            for call in &f.calls {
                if call.caught {
                    continue;
                }
                let is_panic = (call.method && PANIC_METHODS.contains(&call.name.as_str()))
                    || (call.is_macro && PANIC_MACROS.contains(&call.name.as_str()));
                if is_panic {
                    hits.push(SemHit {
                        rule_id: "PANIC002",
                        line: call.line,
                        detail: Some(format!(
                            "`{}` in fn {} is reachable from the service (run \
                             tml-lint --explain PANIC002:{}:{} for the chain)",
                            call.name, f.name, file.path, call.line
                        )),
                    });
                }
            }
        }
    }

    /// DEAD001: library fns no product root reaches.
    fn dead001_hits(&self, fi: usize, hits: &mut Vec<SemHit>) {
        let file = &self.graph.files[fi];
        if !is_library_path(&file.path) {
            return;
        }
        for (li, f) in file.fns.iter().enumerate() {
            if f.is_test
                || self
                    .graph
                    .fn_id(fi, li)
                    .is_none_or(|id| self.live_parent[id] != Reach::No)
            {
                continue;
            }
            hits.push(SemHit {
                rule_id: "DEAD001",
                line: f.line,
                detail: Some(format!(
                    "fn {} (run tml-lint --explain DEAD001:{}:{} for the certificate)",
                    f.name, file.path, f.line
                )),
            });
        }
    }

    /// Root-to-target call chain under a parent map, as display lines.
    fn chain(&self, parents: &[Reach], target: usize) -> Option<Vec<String>> {
        let mut steps: Vec<(usize, Option<(usize, bool)>)> = Vec::new();
        let mut cur = target;
        loop {
            match parents[cur] {
                Reach::No => return None,
                Reach::Root => {
                    steps.push((cur, None));
                    break;
                }
                Reach::Via {
                    from,
                    line,
                    shadowed,
                } => {
                    steps.push((cur, Some((line, shadowed))));
                    cur = from;
                }
            }
        }
        steps.reverse();
        let mut out = Vec::new();
        let mut prev_file: Option<&str> = None;
        for (id, via_line) in steps {
            match via_line {
                None => out.push(format!("  {}", self.graph.fn_display(id))),
                Some((line, shadowed)) => out.push(format!(
                    "    → {} (called at {}:{}{})",
                    self.graph.fn_display(id),
                    prev_file.unwrap_or("?"),
                    line,
                    if shadowed {
                        "; a same-named method, matched by name only"
                    } else {
                        ""
                    }
                )),
            }
            prev_file = Some(self.graph.fn_file(id));
        }
        Some(out)
    }

    /// Evidence for `--explain RULE:file:line`: why a finding fires, or
    /// the proof that a site is unreachable and therefore silent.
    pub fn explain(&self, rule: &str, file: &str, line: usize) -> String {
        let header = format!("{rule} {file}:{line}");
        let Some(id) = self.graph.fn_at(file, line) else {
            return format!(
                "{header}\n  no function contains this line (module-level code); \
                 reachability rules only cover function bodies.\n  graph: {} fns, {} edges.",
                self.graph.fn_count(),
                self.edge_count
            );
        };
        let fname = self.graph.fn_display(id);
        match rule {
            "PANIC002" => match self.chain(&self.svc_parent, id) {
                Some(chain) => format!(
                    "{header}\n  panic site is reachable from the service through \
                     uncaught edges:\n{}",
                    chain.join("\n")
                ),
                None => format!(
                    "{header}\n  {fname} is NOT service-reachable outside catch_unwind: \
                     no PANIC002 finding.\n  ({} service roots traced over {} fns, {} \
                     edges.)",
                    self.svc_root_count,
                    self.graph.fn_count(),
                    self.edge_count
                ),
            },
            "DEAD001" => match self.chain(&self.live_parent, id) {
                Some(chain) => format!(
                    "{header}\n  {fname} is live: reached from a product root:\n{}",
                    chain.join("\n")
                ),
                None => {
                    let callers: Vec<String> = self.graph.in_edges[id]
                        .iter()
                        .map(|&(from, line)| {
                            let why = if self.graph.fn_def(from).is_test {
                                "unit test"
                            } else {
                                "itself unreachable"
                            };
                            format!(
                                "\n    ← {} (call at line {line}; {why})",
                                self.graph.fn_display(from)
                            )
                        })
                        .collect();
                    format!(
                        "{header}\n  proven unreachable: no call path from any of the {} \
                         product roots (bins, integration tests, examples, benches, \
                         perfbench, trait methods, serde-named fns) reaches {fname}.\n  \
                         callers: {}{}\n  graph: {} fns, {} edges.",
                        self.live_root_count,
                        self.graph.in_edges[id].len(),
                        callers.concat(),
                        self.graph.fn_count(),
                        self.edge_count
                    )
                }
            },
            "DET001" | "DET002" | "DET003" => {
                if rules::is_deterministic_crate(file) {
                    return format!(
                        "{header}\n  {fname} lives in a deterministic crate: the rule \
                         applies unconditionally (no reachability proof needed)."
                    );
                }
                match self.chain(&self.det_parent, id) {
                    Some(chain) => format!(
                        "{header}\n  reachable from a deterministic entry point — the \
                         finding fires:\n{}",
                        chain.join("\n")
                    ),
                    None => {
                        let mut out = format!(
                            "{header}\n  proven unreachable: no call path from any of \
                             the {} deterministic root fns ({} named entry points) \
                             reaches {fname}.\n  graph: {} fns, {} edges — the site is \
                             exempt without an allowlist.",
                            self.det_root_count,
                            self.entry_count,
                            self.graph.fn_count(),
                            self.edge_count
                        );
                        if let Some(chain) = self.chain(&self.svc_parent, id) {
                            out.push_str(&format!(
                                "\n  it belongs to the service world instead:\n{}",
                                chain.join("\n")
                            ));
                        }
                        out
                    }
                }
            }
            _ => format!(
                "{header}\n  {fname}; rule {rule} is structural (no reachability \
                 component) — see tml-lint --list-rules."
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::parse::parse_file;
    use crate::scan::scan;
    use std::collections::BTreeMap;

    fn sem(files: &[(&str, &str)]) -> Semantics {
        sem_with_deps(files, &[])
    }

    fn sem_with_deps(files: &[(&str, &str)], deps: &[(&str, &[&str])]) -> Semantics {
        let parsed = files
            .iter()
            .map(|(p, s)| parse_file(p, &scan(s)))
            .collect();
        let map: BTreeMap<String, Vec<String>> = deps
            .iter()
            .map(|(k, v)| (k.to_string(), v.iter().map(|s| s.to_string()).collect()))
            .collect();
        Semantics::compute(Graph::build(parsed, &map))
    }

    fn rule_lines(s: &Semantics, rule: &str, file: &str) -> Vec<usize> {
        s.findings_by_file()
            .get(file)
            .map(|hits| {
                hits.iter()
                    .filter(|h| h.rule_id == rule)
                    .map(|h| h.line)
                    .collect()
            })
            .unwrap_or_default()
    }

    #[test]
    fn diamond_reachability_single_visit() {
        // a → b, a → c, b → d, c → d: d reached once, chain well-formed.
        let src = "\
pub fn a() { b(); c(); }
fn b() { d(); }
fn c() { d(); }
fn d() {}
";
        let s = sem(&[("crates/core/src/lib.rs", src)]);
        assert!(s.det_reachable_at("crates/core/src/lib.rs", 4));
        let explain = s.explain("DET002", "crates/core/src/lib.rs", 4);
        assert!(explain.contains("deterministic crate"), "{explain}");
    }

    #[test]
    fn recursion_terminates() {
        let src = "pub fn spin(n: u64) { if n > 0 { spin(n); } other(); }\nfn other() {}\n";
        let s = sem(&[("crates/core/src/lib.rs", src)]);
        assert!(s.det_reachable_at("crates/core/src/lib.rs", 2));
    }

    #[test]
    fn cross_crate_det_reachability_gates_non_det_code() {
        // A stats helper called from inference is det-reachable; an
        // uncalled stats fn is not.
        let inference = "pub fn screen_hardware() { quantile(); }\n";
        let stats = "pub fn quantile() {}\npub fn orphan() {}\n";
        let s = sem_with_deps(
            &[
                ("crates/inference/src/screening.rs", inference),
                ("crates/stats/src/lib.rs", stats),
            ],
            &[
                ("treadmill-inference", &["treadmill-stats"]),
                ("treadmill-stats", &[]),
            ],
        );
        assert!(s.det_reachable_at("crates/stats/src/lib.rs", 1));
        assert!(!s.det_reachable_at("crates/stats/src/lib.rs", 2));
        let reach = s.explain("DET002", "crates/stats/src/lib.rs", 1);
        assert!(reach.contains("reachable from a deterministic entry point"), "{reach}");
        let unreach = s.explain("DET002", "crates/stats/src/lib.rs", 2);
        assert!(unreach.contains("proven unreachable"), "{unreach}");
    }

    #[test]
    fn trait_dispatch_reaches_every_impl() {
        let src = "\
trait W { fn tick(&mut self); }
struct Wa; struct Wb;
impl W for Wa { fn tick(&mut self) { shared(); } }
impl W for Wb { fn tick(&mut self) {} }
pub fn run_events(w: &mut Wa) { w.tick(); }
fn shared() {}
";
        let s = sem(&[("crates/sim-core/src/lib.rs", src)]);
        // `shared` is reached through the Wa impl of the trait method.
        assert!(s.det_reachable_at("crates/sim-core/src/lib.rs", 6));
    }

    #[test]
    fn panic002_fires_only_when_uncaught() {
        let server = "\
pub fn executor() { run_job(); }
pub fn safe_executor() {
    let r = std::panic::catch_unwind(|| contained_job());
}
";
        let core = "\
pub fn run_job() { boom(); }
pub fn contained_job() { contained_boom(); }
fn boom() { inner().unwrap(); }
fn contained_boom() { inner().unwrap(); }
fn inner() -> Option<u32> { None }
";
        let s = sem_with_deps(
            &[
                ("crates/server/src/service.rs", server),
                ("crates/core/src/job.rs", core),
            ],
            &[
                ("treadmill-server", &["treadmill-core"]),
                ("treadmill-core", &[]),
            ],
        );
        let lines = rule_lines(&s, "PANIC002", "crates/core/src/job.rs");
        // boom's unwrap (line 3) is reachable; contained_boom's (line 4)
        // is only reachable through catch_unwind.
        assert_eq!(lines, vec![3], "{:?}", s.findings_by_file());
        let explain = s.explain("PANIC002", "crates/core/src/job.rs", 3);
        assert!(explain.contains("reachable from the service"), "{explain}");
        assert!(explain.contains("executor"), "{explain}");
        let silent = s.explain("PANIC002", "crates/core/src/job.rs", 4);
        assert!(silent.contains("NOT service-reachable"), "{silent}");
    }

    #[test]
    fn shadowed_methods_are_live_but_carry_no_panic() {
        // `e.kind()` in the server resolves to the server's own `kind`
        // method; core's same-named method is only a shadowed
        // candidate. It stays live for DEAD001, but PANIC002 does not
        // follow the shadowed edge into its `expect`.
        let server = "\
pub fn handler(e: SpecError) -> u32 { e.kind() }
impl SpecError { fn kind(&self) -> u32 { 0 } }
";
        let core = "impl ConfigError { pub fn kind(&self) -> u32 { x.expect(\"k\") } }\n";
        let s = sem_with_deps(
            &[
                ("crates/server/src/bin/serve.rs", "fn main() { handler(e); }\n"),
                ("crates/server/src/job.rs", server),
                ("crates/core/src/config.rs", core),
            ],
            &[("treadmill-server", &["treadmill-core"]), ("treadmill-core", &[])],
        );
        assert!(rule_lines(&s, "PANIC002", "crates/core/src/config.rs").is_empty());
        let explain = s.explain("DEAD001", "crates/core/src/config.rs", 1);
        assert!(explain.contains("is live"), "{explain}");
        assert!(explain.contains("matched by name only"), "{explain}");
    }

    #[test]
    fn det008_overlapping_guards_flagged_sequential_ok() {
        let bad = "\
pub struct Pool { shards: Vec<Mutex<u64>> }
impl Pool {
    pub fn broken(&self) {
        let a = self.shards[0].lock();
        let b = self.shards[1].lock();
    }
    pub fn fine(&self) {
        for s in &self.shards {
            let g = s.lock();
        }
        for s in &self.shards {
            let g = s.lock();
        }
    }
}
";
        let s = sem(&[("crates/cluster/src/shard.rs", bad)]);
        assert_eq!(rule_lines(&s, "DET008", "crates/cluster/src/shard.rs"), vec![5]);
    }

    #[test]
    fn dur001_rename_without_sync() {
        let bad = "\
pub fn publish(tmp: &Path, dst: &Path) {
    let mut f = File::create(tmp).unwrap();
    f.write_all(b\"x\").unwrap();
    fs::rename(tmp, dst).unwrap();
}
";
        let good = "\
pub fn publish(tmp: &Path, dst: &Path) {
    let mut f = File::create(tmp).unwrap();
    f.write_all(b\"x\").unwrap();
    f.sync_all().unwrap();
    fs::rename(tmp, dst).unwrap();
}
";
        let s = sem(&[("crates/server/src/store.rs", bad)]);
        let lines = rule_lines(&s, "DUR001", "crates/server/src/store.rs");
        // Both violations: the unsynced rename and the never-synced handle.
        assert!(lines.contains(&4), "{lines:?}");
        let s = sem(&[("crates/server/src/store.rs", good)]);
        assert!(rule_lines(&s, "DUR001", "crates/server/src/store.rs").is_empty());
    }

    #[test]
    fn dur001_scope_is_limited() {
        // The same unsynced pattern outside server/sweep is not DUR001's
        // business (e.g. a debug dump in stats).
        let bad = "\
pub fn dump(p: &Path) {
    let mut f = File::create(p).unwrap();
    f.write_all(b\"x\").unwrap();
}
";
        let s = sem(&[("crates/stats/src/debug.rs", bad)]);
        assert!(rule_lines(&s, "DUR001", "crates/stats/src/debug.rs").is_empty());
    }

    #[test]
    fn num002_gated_by_det_reachability() {
        let det = "pub fn advance(now_ns: u64, delta_ns: u64) -> u64 { now_ns + delta_ns }\n";
        let unreached = "pub fn fmt_ts(wall_ns: u64) -> u64 { wall_ns * 2 }\n";
        let s = sem_with_deps(
            &[
                ("crates/sim-core/src/time.rs", det),
                ("crates/server/src/audit.rs", unreached),
            ],
            &[
                ("treadmill-server", &["treadmill-sim-core"]),
                ("treadmill-sim-core", &[]),
            ],
        );
        assert_eq!(rule_lines(&s, "NUM002", "crates/sim-core/src/time.rs"), vec![1]);
        // server fn is not det-reachable: raw wall-clock math is fine.
        assert!(rule_lines(&s, "NUM002", "crates/server/src/audit.rs").is_empty());
    }
}
