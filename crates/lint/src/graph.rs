//! Whole-workspace call graph.
//!
//! Built from the item models in [`crate::parse`]. Nodes are function
//! definitions; edges are call sites resolved *conservatively*: a call
//! may point at several candidate definitions (trait methods resolve
//! to every impl with a matching name), and an edge is added for each.
//! Over-approximating edges is safe for every rule built on top — a
//! spurious edge can only make the reachability analysis *more*
//! cautious, never hide a real path.
//!
//! Resolution is tiered, most-specific first:
//!
//! 1. `self.m(…)` inside `impl T` → methods named `m` on `T` in the
//!    same crate;
//! 2. `Type::f(…)` / imported names → the named type/crate;
//! 3. same file → same crate → dependency crates (from `Cargo.toml`,
//!    transitively closed), arity-matched candidates preferred with a
//!    name-only fallback.
//!
//! A method call on a receiver other than `self` also gets a
//! *shadowed* edge to every same-named method a nearer tier passed
//! over; only the product traversal (DEAD001) follows those. A fn
//! named as a value (`.map_err(map_io)`) resolves like a bare call.
//!
//! Calls that resolve to nothing (std / vendored-dependency functions)
//! simply contribute no edges.

use std::collections::{BTreeMap, BTreeSet};

use crate::parse::{CallSite, FnDef, ParsedFile};

/// A call-graph edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Callee function id.
    pub to: usize,
    /// 1-based call-site line in the caller's file.
    pub line: usize,
    /// The call sits inside a `catch_unwind` argument.
    pub caught: bool,
    /// A method the resolution tiers passed over: it has the callee's
    /// name and the caller's crate can see it, but a nearer tier won.
    /// The receiver's type is unknown, so it may be the real callee;
    /// only the product traversal (DEAD001) follows these edges.
    pub shadowed: bool,
}

/// The workspace graph: parsed files plus the resolved call graph.
#[derive(Debug, Default)]
pub struct Graph {
    pub files: Vec<ParsedFile>,
    /// Function id → (file index, index into that file's `fns`).
    pub fn_locs: Vec<(usize, usize)>,
    /// Function id → owning crate package name.
    pub fn_crates: Vec<String>,
    /// Outgoing edges per function id.
    pub out_edges: Vec<Vec<Edge>>,
    /// Incoming edges per function id: (caller id, call line).
    pub in_edges: Vec<Vec<(usize, usize)>>,
    /// Crate → transitive dependency closure (workspace crates only).
    deps: BTreeMap<String, BTreeSet<String>>,
    /// True when no dependency information was supplied: every crate
    /// is assumed to depend on every other (in-memory analysis).
    deps_unknown: bool,
    by_name: BTreeMap<String, Vec<usize>>,
    file_index: BTreeMap<String, usize>,
}

impl Graph {
    /// Builds the graph. `direct_deps` maps crate package names to
    /// their direct workspace dependencies; pass an empty map to treat
    /// every crate as depending on every other (the conservative
    /// fallback used by in-memory multi-file analysis).
    pub fn build(files: Vec<ParsedFile>, direct_deps: &BTreeMap<String, Vec<String>>) -> Graph {
        let mut g = Graph {
            deps_unknown: direct_deps.is_empty(),
            deps: transitive_closure(direct_deps),
            ..Graph::default()
        };
        for (fi, file) in files.iter().enumerate() {
            g.file_index.insert(file.path.clone(), fi);
            let krate = crate::crate_name(&file.path);
            for (li, f) in file.fns.iter().enumerate() {
                let id = g.fn_locs.len();
                g.fn_locs.push((fi, li));
                g.fn_crates.push(krate.clone());
                g.by_name.entry(f.name.clone()).or_default().push(id);
            }
        }
        g.files = files;
        g.out_edges = vec![Vec::new(); g.fn_locs.len()];
        g.in_edges = vec![Vec::new(); g.fn_locs.len()];
        for caller in 0..g.fn_locs.len() {
            let (fi, li) = g.fn_locs[caller];
            // Clone the call list to keep the borrow checker out of the
            // resolution walk; call lists are small.
            let calls = g.files[fi].fns[li].calls.clone();
            for call in &calls {
                if call.is_macro {
                    continue;
                }
                let resolved = g.resolve(caller, call);
                let shadowed = g.shadowed(caller, call, &resolved);
                let tagged = resolved.into_iter().map(|to| (to, false));
                for (to, shadowed) in tagged.chain(shadowed.into_iter().map(|to| (to, true))) {
                    g.out_edges[caller].push(Edge {
                        to,
                        line: call.line,
                        caught: call.caught,
                        shadowed,
                    });
                    g.in_edges[to].push((caller, call.line));
                }
            }
        }
        g
    }

    pub fn fn_count(&self) -> usize {
        self.fn_locs.len()
    }

    pub fn fn_def(&self, id: usize) -> &FnDef {
        let (fi, li) = self.fn_locs[id];
        &self.files[fi].fns[li]
    }

    pub fn fn_file(&self, id: usize) -> &str {
        &self.files[self.fn_locs[id].0].path
    }

    /// `path:line fn name` — the display form used in explain chains.
    pub fn fn_display(&self, id: usize) -> String {
        let f = self.fn_def(id);
        let qual = match &f.self_ty {
            Some(t) => format!("{t}::{}", f.name),
            None => f.name.clone(),
        };
        format!("{}:{} fn {}", self.fn_file(id), f.line, qual)
    }

    /// The innermost function containing `line` (1-based) of `file`.
    pub fn fn_at(&self, file: &str, line: usize) -> Option<usize> {
        let fi = *self.file_index.get(file)?;
        let li = self.files[fi].fn_at(line)?;
        self.fn_id(fi, li)
    }

    /// The id of fn `li` of file `fi` (ids are assigned in file order,
    /// so `fn_locs` is sorted).
    pub fn fn_id(&self, fi: usize, li: usize) -> Option<usize> {
        self.fn_locs.binary_search(&(fi, li)).ok()
    }

    fn can_call(&self, from_crate: &str, to_crate: &str) -> bool {
        if from_crate == to_crate || self.deps_unknown {
            return true;
        }
        self.deps
            .get(from_crate)
            .is_some_and(|d| d.contains(to_crate))
    }

    /// Candidate callee ids for one call site, most-specific tier wins.
    pub fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        let all = match self.by_name.get(&call.name) {
            Some(ids) => ids.as_slice(),
            None => return Vec::new(),
        };
        let caller_crate = &self.fn_crates[caller];
        let caller_file = self.fn_locs[caller].0;
        let caller_self_ty = self.fn_def(caller).self_ty.clone();
        // A fn named as a value has no argument list to match.
        let arity = (!call.by_value).then_some(call.arity);

        if call.method {
            let methods: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&id| self.fn_def(id).has_self)
                .collect();
            // Tier 1: `self.m(…)` resolves against the impl type.
            if call.recv_self {
                if let Some(st) = &caller_self_ty {
                    let same_ty: Vec<usize> = methods
                        .iter()
                        .copied()
                        .filter(|&id| {
                            self.fn_crates[id] == *caller_crate
                                && self.fn_def(id).self_ty.as_deref() == Some(st)
                        })
                        .collect();
                    if !same_ty.is_empty() {
                        return prefer_arity(self, same_ty, arity);
                    }
                }
            }
            // Tier 2/3: same crate, then dependency crates.
            return self.tiered(methods, caller_crate, caller_file, None, arity);
        }

        // Qualified / bare path call: substitute the leading segment
        // through this file's imports.
        let file = &self.files[caller_file];
        let mut segs: Vec<String> = call.path.clone();
        if let Some(first) = segs.first().cloned() {
            if let Some(imp) = file.imports.iter().find(|i| i.alias == first) {
                let mut full = imp.path.clone();
                full.extend(segs.drain(1..));
                segs = full;
            }
        }
        // Crate hint from a `treadmill_*` / `crate` path segment.
        let mut crate_hint: Option<String> = None;
        for seg in &segs {
            if seg == "crate" {
                crate_hint = Some(caller_crate.clone());
            } else if let Some(rest) = seg.strip_prefix("treadmill_") {
                crate_hint = Some(format!("treadmill-{}", rest.replace('_', "-")));
            } else if seg == "treadmill" {
                crate_hint = Some("treadmill".to_string());
            }
        }
        // Type qualifier: `Type::f` (uppercase first letter), with
        // `Self` mapped to the caller's impl type.
        let qualifier = segs
            .iter()
            .rev()
            .nth(1)
            .map(|q| {
                if q == "Self" {
                    caller_self_ty.clone().unwrap_or_else(|| q.clone())
                } else {
                    q.clone()
                }
            })
            .filter(|q| q.chars().next().is_some_and(char::is_uppercase));

        let cands: Vec<usize> = match &qualifier {
            Some(ty) => all
                .iter()
                .copied()
                .filter(|&id| self.fn_def(id).self_ty.as_deref() == Some(ty))
                .collect(),
            None => all
                .iter()
                .copied()
                .filter(|&id| self.fn_def(id).self_ty.is_none() && !self.fn_def(id).has_self)
                .collect(),
        };
        self.tiered(cands, caller_crate, caller_file, crate_hint, arity)
    }

    /// For a method call on a receiver other than `self`, the
    /// same-named methods visible to the caller that [`Graph::resolve`]
    /// did not pick.
    fn shadowed(&self, caller: usize, call: &CallSite, resolved: &[usize]) -> Vec<usize> {
        if !call.method || call.recv_self {
            return Vec::new();
        }
        let caller_crate = &self.fn_crates[caller];
        self.by_name.get(&call.name).map_or_else(Vec::new, |ids| {
            ids.iter()
                .copied()
                .filter(|&id| {
                    self.fn_def(id).has_self
                        && !resolved.contains(&id)
                        && self.can_call(caller_crate, &self.fn_crates[id])
                })
                .collect()
        })
    }

    /// Applies the same-file → same-crate → dependency tiers (or a
    /// crate hint) and the arity preference.
    fn tiered(
        &self,
        cands: Vec<usize>,
        caller_crate: &str,
        caller_file: usize,
        crate_hint: Option<String>,
        arity: Option<usize>,
    ) -> Vec<usize> {
        if let Some(hint) = crate_hint {
            let in_crate: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| self.fn_crates[id] == hint)
                .collect();
            if !in_crate.is_empty() {
                return prefer_arity(self, in_crate, arity);
            }
        }
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&id| self.fn_locs[id].0 == caller_file)
            .collect();
        if !same_file.is_empty() {
            return prefer_arity(self, same_file, arity);
        }
        let same_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&id| self.fn_crates[id] == *caller_crate)
            .collect();
        if !same_crate.is_empty() {
            return prefer_arity(self, same_crate, arity);
        }
        let dep_crates: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&id| self.can_call(caller_crate, &self.fn_crates[id]))
            .collect();
        prefer_arity(self, dep_crates, arity)
    }
}

/// Keeps only arity-matching candidates when any exist (name-only
/// fallback otherwise — the parser's arity count is a heuristic, and
/// absent for a fn named as a value).
fn prefer_arity(g: &Graph, cands: Vec<usize>, arity: Option<usize>) -> Vec<usize> {
    let exact: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&id| Some(g.fn_def(id).arity) == arity)
        .collect();
    if exact.is_empty() {
        cands
    } else {
        exact
    }
}

/// Transitive closure of the direct-dependency map.
fn transitive_closure(direct: &BTreeMap<String, Vec<String>>) -> BTreeMap<String, BTreeSet<String>> {
    let mut closed: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (k, deps) in direct {
        closed.insert(k.clone(), deps.iter().cloned().collect());
    }
    // Iterate to a fixed point; the workspace dep graph is tiny.
    loop {
        let mut grew = false;
        let keys: Vec<String> = closed.keys().cloned().collect();
        for k in &keys {
            let level: Vec<String> = closed[k].iter().cloned().collect();
            for dep in level {
                let indirect: Vec<String> = closed
                    .get(&dep)
                    .map(|s| s.iter().cloned().collect())
                    .unwrap_or_default();
                let set = closed.entry(k.clone()).or_default();
                for ind in indirect {
                    grew |= set.insert(ind);
                }
            }
        }
        if !grew {
            return closed;
        }
    }
}

/// Parses the direct workspace dependencies of every crate manifest
/// under `root` (`crates/*/Cargo.toml`, the root package and
/// `perfbench/`), keyed by package name. Only `treadmill-*`
/// dependencies are recorded — the call graph never resolves into
/// vendored third-party code.
pub fn workspace_deps(root: &std::path::Path) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    let mut manifests = vec![root.join("Cargo.toml"), root.join("perfbench/Cargo.toml")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            manifests.push(dir.join("Cargo.toml"));
        }
    }
    for manifest in manifests {
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        if let Some((name, deps)) = parse_manifest(&text) {
            out.insert(name, deps);
        }
    }
    out
}

/// Extracts (package name, treadmill-* `[dependencies]`) from one
/// manifest; returns `None` for workspace-only manifests.
fn parse_manifest(text: &str) -> Option<(String, Vec<String>)> {
    let mut name: Option<String> = None;
    let mut deps: Vec<String> = Vec::new();
    let mut section = String::new();
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(s) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = s.trim().to_string();
            continue;
        }
        match section.as_str() {
            "package" => {
                if let Some(v) = line.strip_prefix("name") {
                    let v = v.trim_start();
                    if let Some(v) = v.strip_prefix('=') {
                        name = Some(v.trim().trim_matches('"').to_string());
                    }
                }
            }
            "dependencies" => {
                let key = line
                    .split(['=', '.'])
                    .next()
                    .unwrap_or("")
                    .trim()
                    .trim_matches('"');
                if key.starts_with("treadmill-") && !deps.contains(&key.to_string()) {
                    deps.push(key.to_string());
                }
            }
            _ => {}
        }
    }
    name.map(|n| (n, deps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::scan::scan;

    fn build(files: &[(&str, &str)]) -> Graph {
        let parsed = files
            .iter()
            .map(|(p, s)| parse_file(p, &scan(s)))
            .collect();
        Graph::build(parsed, &BTreeMap::new())
    }

    fn build_with_deps(files: &[(&str, &str)], deps: &[(&str, &[&str])]) -> Graph {
        let parsed = files
            .iter()
            .map(|(p, s)| parse_file(p, &scan(s)))
            .collect();
        let map: BTreeMap<String, Vec<String>> = deps
            .iter()
            .map(|(k, v)| (k.to_string(), v.iter().map(|s| s.to_string()).collect()))
            .collect();
        Graph::build(parsed, &map)
    }

    fn id_of(g: &Graph, name: &str) -> usize {
        (0..g.fn_count())
            .find(|&id| g.fn_def(id).name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    fn callees(g: &Graph, from: &str) -> Vec<String> {
        let id = id_of(g, from);
        let mut out: Vec<String> = g.out_edges[id]
            .iter()
            .map(|e| g.fn_def(e.to).name.clone())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn bare_and_qualified_calls_resolve() {
        let g = build(&[(
            "crates/core/src/lib.rs",
            "fn a() { b(); Helper::make(); }\nfn b() {}\nstruct Helper;\nimpl Helper { fn make() {} }\n",
        )]);
        assert_eq!(callees(&g, "a"), vec!["b", "make"]);
    }

    #[test]
    fn self_method_resolves_to_impl_type_not_other_types() {
        let src = "\
struct A; struct B;
impl A {
    fn go(&self) { self.step(); }
    fn step(&self) {}
}
impl B {
    fn step(&self) { oops(); }
}
fn oops() {}
";
        let g = build(&[("crates/core/src/lib.rs", src)]);
        let go = id_of(&g, "go");
        let targets: Vec<String> = g.out_edges[go]
            .iter()
            .map(|e| {
                let d = g.fn_def(e.to);
                format!("{}::{}", d.self_ty.as_deref().unwrap_or("-"), d.name)
            })
            .collect();
        assert_eq!(targets, vec!["A::step"]);
    }

    #[test]
    fn trait_method_calls_resolve_to_every_impl() {
        // `w.observe(…)` on a generic receiver: conservative resolution
        // keeps both impls as candidates.
        let src = "\
trait World { fn observe(&mut self, v: u64); }
struct Wa; struct Wb;
impl World for Wa { fn observe(&mut self, v: u64) {} }
impl World for Wb { fn observe(&mut self, v: u64) {} }
fn drive(w: &mut Wa) { w.observe(1); }
";
        let g = build(&[("crates/core/src/lib.rs", src)]);
        let drive = id_of(&g, "drive");
        let mut tys: Vec<String> = g.out_edges[drive]
            .iter()
            .filter_map(|e| g.fn_def(e.to).self_ty.clone())
            .collect();
        tys.sort();
        assert_eq!(tys, vec!["Wa", "Wb"]);
    }

    #[test]
    fn arity_disambiguates_same_name() {
        let src = "\
fn run(a: u64) { pick(1, 2); }
fn pick(x: u64) {}
fn pick2(x: u64, y: u64) {}
";
        // Same-name different-arity: with one exact match, others drop.
        let src2 = "\
fn caller() { helper(1, 2); }
fn helper(a: u64) {}
";
        let g = build(&[("crates/core/src/a.rs", src), ("crates/core/src/b.rs", src2)]);
        // No exact-arity match → falls back to the name match.
        assert_eq!(callees(&g, "caller"), vec!["helper"]);
        let _ = src2;
    }

    #[test]
    fn imports_pin_the_target_crate() {
        let core = "pub fn write_atomic(p: u32, c: u32) {}\n";
        let clash = "pub fn write_atomic(p: u32, c: u32) {}\n";
        let server = "\
use treadmill_core::write_atomic;
fn handler() { write_atomic(1, 2); }
";
        let g = build_with_deps(
            &[
                ("crates/core/src/sweep.rs", core),
                ("crates/stats/src/util.rs", clash),
                ("crates/server/src/service.rs", server),
            ],
            &[
                ("treadmill-server", &["treadmill-core"]),
                ("treadmill-core", &[]),
                ("treadmill-stats", &[]),
            ],
        );
        let handler = id_of(&g, "handler");
        let files: Vec<&str> = g.out_edges[handler]
            .iter()
            .map(|e| g.fn_file(e.to))
            .collect();
        assert_eq!(files, vec!["crates/core/src/sweep.rs"]);
    }

    #[test]
    fn dependency_direction_is_enforced() {
        // core does not depend on server: a name collision in server
        // must not produce an edge out of core.
        let core = "pub fn tick() { helper(); }\n";
        let server = "pub fn helper() {}\n";
        let g = build_with_deps(
            &[
                ("crates/core/src/lib.rs", core),
                ("crates/server/src/lib.rs", server),
            ],
            &[
                ("treadmill-server", &["treadmill-core"]),
                ("treadmill-core", &[]),
            ],
        );
        assert!(callees(&g, "tick").is_empty());
    }

    #[test]
    fn transitive_deps_are_closed() {
        let a = "pub fn top() { bottom(); }\n";
        let c = "pub fn bottom() {}\n";
        let g = build_with_deps(
            &[
                ("crates/server/src/lib.rs", a),
                ("crates/sim-core/src/lib.rs", c),
            ],
            &[
                ("treadmill-server", &["treadmill-core"]),
                ("treadmill-core", &["treadmill-sim-core"]),
                ("treadmill-sim-core", &[]),
            ],
        );
        assert_eq!(callees(&g, "top"), vec!["bottom"]);
    }

    #[test]
    fn manifest_parsing_extracts_treadmill_deps() {
        let text = "\
[package]
name = \"treadmill-server\"

[dependencies]
treadmill-core.workspace = true
treadmill-inference = { workspace = true }
serde.workspace = true

[dev-dependencies]
proptest.workspace = true
";
        let (name, deps) = parse_manifest(text).expect("parses");
        assert_eq!(name, "treadmill-server");
        assert_eq!(deps, vec!["treadmill-core", "treadmill-inference"]);
    }
}
