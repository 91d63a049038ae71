//! Item-level parsing of a scanned source file.
//!
//! [`crate::scan`] produces lexical layers (code with literal contents
//! blanked, comments, `#[cfg(test)]` tracking); this module tokenizes
//! the code layer and recovers the *item structure* the semantic rules
//! need: modules, `use` trees, `impl` blocks, function signatures
//! (receiver, arity, parameter names/types), and — inside every
//! function body — call expressions with their receivers and argument
//! counts, lock-guard lifetimes, file-durability events, and raw
//! arithmetic on caller-supplied time/sequence integers.
//!
//! It is deliberately *not* a Rust grammar: expressions are never
//! built into trees. Everything downstream (the call graph in
//! [`crate::graph`], the reachability engine in [`crate::reach`])
//! only needs items, calls and a handful of per-statement facts, so a
//! single forward pass with a block stack is enough — and it keeps the
//! linter dependency-free and fast (the whole workspace parses in
//! well under a second).

use std::collections::{BTreeMap, BTreeSet};

use crate::scan::SourceModel;

/// One lexed token of the (literal-blanked) code layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Numeric literal (any base/suffix).
    Num,
    /// A blanked string or char literal.
    Lit,
    /// Punctuation. Multi-char only for `::`, `->` and `=>`; shifts
    /// stay as two tokens so `Vec<Vec<T>>`'s `>>` closes two angles.
    Op(&'static str),
}

/// A token with its 0-based source line.
#[derive(Debug, Clone)]
pub struct SpannedTok {
    pub line: usize,
    pub tok: Tok,
}

/// A call expression found inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 1-based line of the callee name.
    pub line: usize,
    /// Callee name (last path segment / method name / macro name).
    pub name: String,
    /// Full path segments for qualified calls (`fs::rename` →
    /// `["fs", "rename"]`); single-element for bare calls; empty for
    /// method calls.
    pub path: Vec<String>,
    /// `receiver.name(..)` method syntax.
    pub method: bool,
    /// Method receiver token was literally `self`.
    pub recv_self: bool,
    /// Number of top-level arguments (commas + 1, 0 for `()`).
    pub arity: usize,
    /// The call sits inside a `catch_unwind(..)` argument: a panic
    /// below this edge is contained, not a crash.
    pub caught: bool,
    /// `name!(..)` macro invocation.
    pub is_macro: bool,
    /// A fn named as a value rather than called (`.map_err(map_io)`,
    /// `signal(SIGTERM, on_signal)`): the callee will run, but its
    /// arity is unknown at this site.
    pub by_value: bool,
}

/// What a file-durability statement does (DUR001 evidence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// `OpenOptions::…append(true)…` — an append-mode journal open.
    AppendOpen,
    /// `File::create` / `OpenOptions::…create(…)…open` — a fresh write
    /// handle.
    CreateFile,
    /// `write_all` / `write_fmt` — bytes entered the kernel buffer.
    Write,
    /// `sync_all` / `sync_data` — bytes were forced to the device.
    Sync,
    /// `fs::rename` — the atomic publish step.
    Rename,
}

/// A durability-relevant event, in body order.
#[derive(Debug, Clone, Copy)]
pub struct IoEvent {
    /// 1-based line.
    pub line: usize,
    pub kind: IoKind,
}

/// A lock-discipline event inside a function body (DET008 evidence).
#[derive(Debug, Clone)]
pub struct LockEvent {
    /// 1-based line of the *second* acquisition.
    pub line: usize,
    /// Human-readable description of the overlap.
    pub detail: String,
}

/// Raw (`+`/`-`/`*`) arithmetic on a caller-supplied time/sequence
/// integer parameter (NUM002 evidence).
#[derive(Debug, Clone)]
pub struct ArithSite {
    /// 1-based line.
    pub line: usize,
    /// The tainted parameter involved.
    pub ident: String,
}

/// A parsed function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// `impl Type { … }` type (last path segment), if a method/assoc fn.
    pub self_ty: Option<String>,
    /// `impl Trait for Type { … }` trait name, or the enclosing
    /// `trait Name { … }` for declarations and default method bodies.
    pub trait_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based inclusive body range (equal to `line` for bodiless fns).
    pub body_start: usize,
    pub body_end: usize,
    /// Inside `#[cfg(test)]` or annotated `#[test]`.
    pub is_test: bool,
    pub is_pub: bool,
    /// `self`/`&self`/`&mut self` receiver present.
    pub has_self: bool,
    /// Parameter count excluding the receiver.
    pub arity: usize,
    pub param_names: Vec<String>,
    /// Flattened type text per parameter (tokens joined by spaces).
    pub param_types: Vec<String>,
    pub calls: Vec<CallSite>,
    pub io_events: Vec<IoEvent>,
    pub lock_overlaps: Vec<LockEvent>,
    pub arith_sites: Vec<ArithSite>,
}

/// A `use` import: local binding name → full path segments.
#[derive(Debug, Clone)]
pub struct Import {
    pub alias: String,
    pub path: Vec<String>,
}

/// The item-level model of one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Workspace-relative path (unix separators).
    pub path: String,
    pub fns: Vec<FnDef>,
    pub imports: Vec<Import>,
    /// 1-based lines declaring a `Vec<Mutex<…>>` (or array of
    /// mutexes) — marks the file as using the sharded-lock pattern
    /// DET008 audits.
    pub mutex_vec_lines: Vec<usize>,
    /// Fn names (last path segment) that `#[serde(default = "…")]`
    /// attributes name in a string: serde's derive calls them, so no
    /// call site in the source reaches them.
    pub serde_fns: Vec<String>,
}

impl ParsedFile {
    /// The innermost function whose body covers 1-based `line`.
    pub fn fn_at(&self, line: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, f) in self.fns.iter().enumerate() {
            if f.body_start <= line && line <= f.body_end {
                let tighter = match best {
                    Some(b) => {
                        let prev = &self.fns[b];
                        (f.body_end - f.body_start) < (prev.body_end - prev.body_start)
                    }
                    None => true,
                };
                if tighter {
                    best = Some(i);
                }
            }
        }
        best
    }
}

/// Tokenizes the code layer of a scanned file.
pub fn tokenize(model: &SourceModel) -> Vec<SpannedTok> {
    let mut out = Vec::new();
    let mut in_str = false;
    for (lineno, line) in model.lines.iter().enumerate() {
        let bytes = line.code.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i] as char;
            if in_str {
                // Inside a (blanked, possibly multi-line) string: skip
                // to the closing quote.
                if c == '"' {
                    in_str = false;
                    out.push(SpannedTok { line: lineno, tok: Tok::Lit });
                }
                i += 1;
                continue;
            }
            match c {
                ' ' | '\t' => i += 1,
                '"' => {
                    // Contents are blanked; find the close (maybe on a
                    // later line).
                    let rest = &line.code[i + 1..];
                    match rest.find('"') {
                        Some(off) => {
                            out.push(SpannedTok { line: lineno, tok: Tok::Lit });
                            i += off + 2;
                        }
                        None => {
                            in_str = true;
                            i = bytes.len();
                        }
                    }
                }
                '\'' => {
                    // Char literal (blanked to spaces) vs lifetime.
                    let rest = &line.code[i + 1..];
                    let close = rest.find('\'');
                    let is_char = close
                        .is_some_and(|off| rest[..off].chars().all(|c| c == ' '));
                    if let (true, Some(off)) = (is_char, close) {
                        out.push(SpannedTok { line: lineno, tok: Tok::Lit });
                        i += off + 2;
                    } else {
                        i += 1; // lifetime tick; the ident lexes next
                    }
                }
                'a'..='z' | 'A'..='Z' | '_' => {
                    let start = i;
                    while i < bytes.len()
                        && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    out.push(SpannedTok {
                        line: lineno,
                        tok: Tok::Ident(line.code[start..i].to_string()),
                    });
                }
                '0'..='9' => {
                    while i < bytes.len()
                        && (bytes[i].is_ascii_alphanumeric()
                            || bytes[i] == b'_'
                            || (bytes[i] == b'.'
                                && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)))
                    {
                        i += 1;
                    }
                    out.push(SpannedTok { line: lineno, tok: Tok::Num });
                }
                ':' if bytes.get(i + 1) == Some(&b':') => {
                    out.push(SpannedTok { line: lineno, tok: Tok::Op("::") });
                    i += 2;
                }
                '-' if bytes.get(i + 1) == Some(&b'>') => {
                    out.push(SpannedTok { line: lineno, tok: Tok::Op("->") });
                    i += 2;
                }
                '=' if bytes.get(i + 1) == Some(&b'>') => {
                    out.push(SpannedTok { line: lineno, tok: Tok::Op("=>") });
                    i += 2;
                }
                _ => {
                    out.push(SpannedTok {
                        line: lineno,
                        tok: Tok::Op(op_str(c)),
                    });
                    i += 1;
                }
            }
        }
    }
    out
}

/// Interns single-char punctuation as `&'static str`.
fn op_str(c: char) -> &'static str {
    match c {
        '(' => "(",
        ')' => ")",
        '{' => "{",
        '}' => "}",
        '[' => "[",
        ']' => "]",
        '<' => "<",
        '>' => ">",
        ',' => ",",
        ';' => ";",
        '.' => ".",
        '!' => "!",
        '&' => "&",
        '|' => "|",
        '+' => "+",
        '-' => "-",
        '*' => "*",
        '/' => "/",
        '=' => "=",
        '#' => "#",
        ':' => ":",
        '?' => "?",
        '@' => "@",
        '%' => "%",
        '^' => "^",
        '~' => "~",
        _ => "·",
    }
}

fn ident_of(t: &Tok) -> Option<&str> {
    match t {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn is_op(t: &Tok, s: &str) -> bool {
    matches!(t, Tok::Op(o) if *o == s)
}

/// What kind of block the parser is inside.
#[derive(Debug, Clone)]
enum BlockKind {
    Plain,
    Mod,
    Impl {
        self_ty: Option<String>,
        trait_ty: Option<String>,
    },
    Fn {
        fn_idx: usize,
        /// Guard bindings made directly in each open sub-block
        /// (index 0 = the fn body itself).
        guards: Vec<usize>,
    },
}

/// Parses a scanned file into its item-level model. `path` is the
/// workspace-relative path stored on the result.
pub fn parse_file(path: &str, model: &SourceModel) -> ParsedFile {
    let toks = tokenize(model);
    let mut out = ParsedFile {
        path: path.to_string(),
        ..ParsedFile::default()
    };
    detect_mutex_vecs(model, &mut out);

    let mut blocks: Vec<BlockKind> = Vec::new();
    // Innermost enclosing fn, as an index into the `blocks` stack.
    let mut fn_stack: Vec<usize> = Vec::new();
    let mut pending_test_attr = false;
    let mut pending_pub = false;
    // Open `catch_unwind(`-argument paren depths.
    let mut catch_parens: Vec<usize> = Vec::new();
    let mut paren_depth = 0usize;
    // Per-statement durability context, reset at `;`.
    let mut stmt_has_openoptions = false;
    let mut stmt_has_file = false;
    let mut stmt_io: Vec<IoEvent> = Vec::new();
    // `let` statement lock tracking: Some(lock_seen) while between
    // `let` and its `;`.
    let mut let_lock: Option<bool> = None;
    // Names each fn binds in a `let`, `for` or closure pattern, keyed
    // by fn index: a by-value reference to one of them is a local.
    let mut locals: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();

    let mut i = 0usize;
    while i < toks.len() {
        let line0 = toks[i].line;
        match &toks[i].tok {
            Tok::Ident(w) if w == "pub" => {
                pending_pub = true;
                i += 1;
            }
            Tok::Op("#") => {
                // Attribute: `#[…]` or `#![…]`; record `#[test]`.
                let mut j = i + 1;
                if j < toks.len() && is_op(&toks[j].tok, "!") {
                    j += 1;
                }
                if j < toks.len() && is_op(&toks[j].tok, "[") {
                    let mut depth = 1;
                    let mut k = j + 1;
                    match toks.get(k).map(|t| &t.tok) {
                        Some(Tok::Ident(a)) if a == "test" => pending_test_attr = true,
                        Some(Tok::Ident(a)) if a == "serde" => {
                            serde_attr_fns(&toks, k, model, &mut out.serde_fns);
                        }
                        _ => {}
                    }
                    while k < toks.len() && depth > 0 {
                        if is_op(&toks[k].tok, "[") {
                            depth += 1;
                        } else if is_op(&toks[k].tok, "]") {
                            depth -= 1;
                        }
                        k += 1;
                    }
                    i = k;
                } else {
                    i += 1;
                }
            }
            Tok::Ident(w) if w == "mod" => {
                if toks.get(i + 1).and_then(|t| ident_of(&t.tok)).is_some() {
                    match toks.get(i + 2).map(|t| &t.tok) {
                        Some(t) if is_op(t, ";") => i += 3,
                        Some(t) if is_op(t, "{") => {
                            blocks.push(BlockKind::Mod);
                            i += 3;
                        }
                        _ => i += 2,
                    }
                } else {
                    i += 1;
                }
                pending_pub = false;
            }
            Tok::Ident(w) if w == "use" => {
                i = parse_use(&toks, i + 1, &mut out.imports);
                pending_pub = false;
            }
            Tok::Ident(w) if w == "impl" => {
                i = parse_impl_header(&toks, i + 1, &mut blocks);
                pending_pub = false;
            }
            Tok::Ident(w) if w == "trait" => {
                i = parse_trait_header(&toks, i + 1, &mut blocks);
                pending_pub = false;
            }
            Tok::Ident(w) if w == "fn" => {
                let in_test_region = model
                    .lines
                    .get(line0)
                    .is_some_and(|l| l.in_test);
                let (next, parsed) = parse_fn(
                    &toks,
                    i + 1,
                    &blocks,
                    pending_test_attr || in_test_region,
                    pending_pub,
                );
                pending_test_attr = false;
                pending_pub = false;
                i = next;
                if let Some(fndef) = parsed {
                    let has_body = i < toks.len() && is_op(&toks[i].tok, "{");
                    out.fns.push(fndef);
                    if has_body {
                        blocks.push(BlockKind::Fn {
                            fn_idx: out.fns.len() - 1,
                            guards: vec![0],
                        });
                        fn_stack.push(blocks.len() - 1);
                        i += 1;
                    } else {
                        // Bodiless (trait decl / extern): close it out.
                        let f = out.fns.last_mut().filter(|f| f.body_end == 0);
                        if let Some(f) = f {
                            f.body_end = f.body_start;
                        }
                    }
                }
            }
            Tok::Op("{") => {
                blocks.push(BlockKind::Plain);
                if let Some(&fi) = fn_stack.last() {
                    if let BlockKind::Fn { guards, .. } = &mut blocks[fi] {
                        guards.push(0);
                    }
                }
                i += 1;
            }
            Tok::Op("}") => {
                // Settle a tail expression's durability events (no `;`
                // before the block closes).
                if let Some(&fi) = fn_stack.last() {
                    if let BlockKind::Fn { fn_idx, .. } = &blocks[fi] {
                        settle_statement(&mut out.fns[*fn_idx], &mut stmt_io);
                    }
                }
                stmt_has_openoptions = false;
                stmt_has_file = false;
                stmt_io.clear();
                let_lock = None;
                pending_pub = false;
                match blocks.pop() {
                    Some(BlockKind::Fn { fn_idx, .. }) => {
                        fn_stack.pop();
                        out.fns[fn_idx].body_end = line0 + 1;
                    }
                    Some(BlockKind::Plain) => {
                        if let Some(&fi) = fn_stack.last() {
                            if let BlockKind::Fn { guards, .. } = &mut blocks[fi] {
                                guards.pop();
                            }
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            Tok::Op("(") => {
                paren_depth += 1;
                i += 1;
            }
            Tok::Op(")") => {
                paren_depth = paren_depth.saturating_sub(1);
                while catch_parens.last().is_some_and(|&d| d > paren_depth) {
                    catch_parens.pop();
                }
                i += 1;
            }
            Tok::Op(";") => {
                // Statement boundary: settle durability + let/lock
                // context.
                if let Some(&fi) = fn_stack.last() {
                    if let BlockKind::Fn { fn_idx, .. } = &blocks[fi] {
                        settle_statement(&mut out.fns[*fn_idx], &mut stmt_io);
                    }
                    if let_lock == Some(true) {
                        note_guard_bind(&mut blocks, &fn_stack, &mut out.fns, line0 + 1);
                    }
                }
                stmt_has_openoptions = false;
                stmt_has_file = false;
                stmt_io.clear();
                let_lock = None;
                pending_pub = false;
                i += 1;
            }
            Tok::Ident(w) if w == "let" && !fn_stack.is_empty() => {
                let_lock = Some(false);
                note_bindings(&toks, i + 1, &["=", ":", ";"], None, &blocks, &fn_stack, &mut locals);
                i += 1;
            }
            Tok::Ident(w) if w == "for" && !fn_stack.is_empty() => {
                note_bindings(&toks, i + 1, &["{", ";"], Some("in"), &blocks, &fn_stack, &mut locals);
                i += 1;
            }
            Tok::Op("|") if !fn_stack.is_empty() && opens_closure(&toks, i) => {
                note_bindings(&toks, i + 1, &["|"], None, &blocks, &fn_stack, &mut locals);
                i += 1;
            }
            Tok::Ident(_) => {
                let consumed = scan_body_ident(
                    &toks,
                    i,
                    &mut out,
                    &blocks,
                    &fn_stack,
                    &mut catch_parens,
                    &mut paren_depth,
                    &mut stmt_has_openoptions,
                    &mut stmt_has_file,
                    &mut stmt_io,
                    &mut let_lock,
                );
                i += consumed;
            }
            _ => {
                i += 1;
            }
        }
    }
    // Unclosed fns at EOF (truncated input): close at last line.
    let last = model.lines.len();
    for f in &mut out.fns {
        if f.body_end == 0 {
            f.body_end = last;
        }
    }
    for (fi, names) in locals {
        out.fns[fi]
            .calls
            .retain(|c| !(c.by_value && c.path.len() == 1 && names.contains(&c.name)));
    }
    out
}

/// True when the `|` at `toks[i]` opens a closure's parameter list:
/// it follows `(`, `,`, `=` or `move` rather than an operand.
fn opens_closure(toks: &[SpannedTok], i: usize) -> bool {
    i.checked_sub(1).is_some_and(|p| match &toks[p].tok {
        Tok::Op(o) => matches!(*o, "(" | "," | "="),
        Tok::Ident(w) => w == "move",
        _ => false,
    })
}

/// Records the lowercase names a pattern starting at `toks[start]`
/// binds, up to the first depth-0 token in `stops`, against the
/// innermost fn. With `keyword` set, the pattern must end at that
/// keyword (`for pat in`) or nothing is recorded. Field names and
/// type names in the pattern are recorded too; they only ever make a
/// same-named value reference read as a local.
fn note_bindings(
    toks: &[SpannedTok],
    start: usize,
    stops: &[&str],
    keyword: Option<&str>,
    blocks: &[BlockKind],
    fn_stack: &[usize],
    locals: &mut BTreeMap<usize, BTreeSet<String>>,
) {
    let Some(BlockKind::Fn { fn_idx, .. }) = fn_stack.last().map(|&fi| &blocks[fi]) else {
        return;
    };
    let mut names = Vec::new();
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(start) {
        match &t.tok {
            Tok::Op(o) if depth == 0 && stops.contains(o) => {
                if keyword.is_some() {
                    return;
                }
                break;
            }
            Tok::Op("(" | "[" | "{") => depth += 1,
            Tok::Op(")" | "]" | "}") => {
                if depth == 0 {
                    return;
                }
                depth -= 1;
            }
            Tok::Ident(w) if depth == 0 && Some(w.as_str()) == keyword => break,
            Tok::Ident(w)
                if w.starts_with(|c: char| c.is_ascii_lowercase())
                    && !matches!(w.as_str(), "mut" | "ref")
                    && !toks.get(k + 1).is_some_and(|n| is_op(&n.tok, "::")) =>
            {
                names.push(w.clone());
            }
            _ => {}
        }
    }
    locals.entry(*fn_idx).or_default().extend(names);
}

/// Lexical sweep for `Vec<Mutex<` / `[Mutex<` declarations.
fn detect_mutex_vecs(model: &SourceModel, out: &mut ParsedFile) {
    for (idx, line) in model.lines.iter().enumerate() {
        let compact: String = line.code.chars().filter(|c| !c.is_whitespace()).collect();
        if compact.contains("Vec<Mutex<") || compact.contains("[Mutex<") {
            out.mutex_vec_lines.push(idx + 1);
        }
    }
}

/// Parses a `use` tree starting after the `use` keyword; returns the
/// index after the terminating `;`.
fn parse_use(toks: &[SpannedTok], mut i: usize, imports: &mut Vec<Import>) -> usize {
    let mut prefix: Vec<String> = Vec::new();
    // Prefix length to restore when each open `{` group closes.
    let mut group_marks: Vec<usize> = Vec::new();
    let mut segs: Vec<String> = Vec::new();
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Ident(s) => {
                if s == "as" {
                    // `path as alias`
                    if let Some(alias) = toks.get(i + 1).and_then(|t| ident_of(&t.tok)) {
                        let mut full = prefix.clone();
                        full.append(&mut segs);
                        imports.push(Import {
                            alias: alias.to_string(),
                            path: full,
                        });
                        i += 2;
                        continue;
                    }
                }
                segs.push(s.clone());
                i += 1;
            }
            Tok::Op("::") => {
                i += 1;
            }
            Tok::Op("{") => {
                group_marks.push(prefix.len());
                prefix.append(&mut segs);
                i += 1;
            }
            Tok::Op("}") => {
                finish_use_leaf(imports, &prefix, &mut segs);
                if let Some(mark) = group_marks.pop() {
                    prefix.truncate(mark);
                }
                i += 1;
            }
            Tok::Op(",") => {
                finish_use_leaf(imports, &prefix, &mut segs);
                i += 1;
            }
            Tok::Op("*") => {
                segs.clear(); // glob: nothing nameable to bind
                i += 1;
            }
            Tok::Op(";") => {
                finish_use_leaf(imports, &prefix, &mut segs);
                return i + 1;
            }
            _ => {
                i += 1;
            }
        }
    }
    i
}

fn finish_use_leaf(imports: &mut Vec<Import>, prefix: &[String], segs: &mut Vec<String>) {
    let Some(last) = segs.last().cloned() else {
        return;
    };
    if last == "self" {
        // `use a::b::{self, …}` binds the module name `b`.
        let mut full = prefix.to_vec();
        full.extend(segs[..segs.len() - 1].iter().cloned());
        if let Some(alias) = full.last().cloned() {
            imports.push(Import { alias, path: full });
        }
    } else {
        let mut full = prefix.to_vec();
        full.extend(segs.iter().cloned());
        imports.push(Import { alias: last, path: full });
    }
    segs.clear();
}

/// Parses an `impl` header (after the keyword) up to its `{`, pushing
/// an `Impl` block; returns the index after the `{`.
fn parse_impl_header(toks: &[SpannedTok], mut i: usize, blocks: &mut Vec<BlockKind>) -> usize {
    let mut angle = 0i32;
    let mut segs_before_for: Vec<String> = Vec::new();
    let mut segs_after_for: Vec<String> = Vec::new();
    let mut saw_for = false;
    let mut saw_where = false;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Op("<") => angle += 1,
            Tok::Op(">") => angle -= 1,
            Tok::Op("->") => {}
            Tok::Ident(s) if s == "for" && angle == 0 && !saw_where => saw_for = true,
            Tok::Ident(s) if s == "where" && angle == 0 => {
                // Stop collecting: where-clause bounds (including HRTB
                // `for<'a>`) must not perturb the resolved names.
                saw_where = true;
            }
            Tok::Ident(s) if angle == 0 && !saw_where => {
                if saw_for {
                    segs_after_for.push(s.clone());
                } else {
                    segs_before_for.push(s.clone());
                }
            }
            Tok::Op("{") => {
                let (trait_ty, self_ty) = if saw_for {
                    (
                        segs_before_for.last().cloned(),
                        segs_after_for.last().cloned(),
                    )
                } else {
                    (None, segs_before_for.last().cloned())
                };
                blocks.push(BlockKind::Impl { self_ty, trait_ty });
                return i + 1;
            }
            Tok::Op(";") => return i + 1, // `impl Trait for Type;` — malformed, bail
            _ => {}
        }
        i += 1;
    }
    i
}

/// Parses a `trait Name … {` header (after the keyword), pushing a
/// block whose fns carry `trait_ty = Name`; returns the index after
/// the `{`.
fn parse_trait_header(toks: &[SpannedTok], mut i: usize, blocks: &mut Vec<BlockKind>) -> usize {
    let name = toks.get(i).and_then(|t| ident_of(&t.tok)).map(String::from);
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Op("{") => {
                blocks.push(BlockKind::Impl {
                    self_ty: None,
                    trait_ty: name,
                });
                return i + 1;
            }
            Tok::Op(";") => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Collects the fn a `#[serde(…)]` attribute names in
/// `default = "…"`; `k` indexes its `serde` token. Literal contents
/// come from the scanner's per-line `literals`, matched by the
/// literal's position on its line.
fn serde_attr_fns(toks: &[SpannedTok], mut k: usize, model: &SourceModel, out: &mut Vec<String>) {
    let mut depth = 0i32;
    while k + 2 < toks.len() {
        match &toks[k].tok {
            Tok::Op("(") => depth += 1,
            Tok::Op(")") => {
                depth -= 1;
                if depth <= 0 {
                    return;
                }
            }
            Tok::Ident(key)
                if key == "default"
                    && is_op(&toks[k + 1].tok, "=")
                    && toks[k + 2].tok == Tok::Lit =>
            {
                let line = toks[k + 2].line;
                let nth = toks[..k + 2]
                    .iter()
                    .rev()
                    .take_while(|t| t.line == line)
                    .filter(|t| t.tok == Tok::Lit)
                    .count();
                let text = model.lines.get(line).and_then(|l| l.literals.get(nth));
                if let Some(name) = text.and_then(|t| t.rsplit("::").next()) {
                    out.push(name.to_string());
                }
            }
            _ => {}
        }
        k += 1;
    }
}

/// Parses a fn signature (after the `fn` keyword) up to but not
/// including the body `{` (or past the `;` for bodiless decls).
/// Returns (next index, parsed def).
fn parse_fn(
    toks: &[SpannedTok],
    mut i: usize,
    blocks: &[BlockKind],
    is_test: bool,
    is_pub: bool,
) -> (usize, Option<FnDef>) {
    let Some(name) = toks.get(i).and_then(|t| ident_of(&t.tok)).map(String::from) else {
        return (i, None);
    };
    let line = toks[i].line + 1;
    i += 1;
    // Generic params.
    if toks.get(i).is_some_and(|t| is_op(&t.tok, "<")) {
        let mut depth = 0i32;
        while i < toks.len() {
            if is_op(&toks[i].tok, "<") {
                depth += 1;
            } else if is_op(&toks[i].tok, ">") {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    // Parameter list.
    let mut has_self = false;
    let mut param_names = Vec::new();
    let mut param_types = Vec::new();
    if toks.get(i).is_some_and(|t| is_op(&t.tok, "(")) {
        let close = matching_paren(toks, i);
        let params = split_top_level(&toks[i + 1..close]);
        for (pi, p) in params.iter().enumerate() {
            if p.is_empty() {
                continue;
            }
            let idents: Vec<&str> =
                p.iter().filter_map(|t| ident_of(&t.tok)).collect();
            let receiver = idents
                .iter()
                .find(|s| **s != "mut" && **s != "ref")
                .copied();
            if pi == 0 && receiver == Some("self") {
                has_self = true;
                continue;
            }
            // Split at the top-level `:` between pattern and type.
            let mut angle = 0i32;
            let mut colon = None;
            for (k, t) in p.iter().enumerate() {
                match &t.tok {
                    Tok::Op("<") => angle += 1,
                    Tok::Op(">") => angle -= 1,
                    Tok::Op(":") if angle == 0 => {
                        colon = Some(k);
                        break;
                    }
                    _ => {}
                }
            }
            let (pat, ty) = match colon {
                Some(k) => (&p[..k], &p[k + 1..]),
                None => (&p[..], &p[..0]),
            };
            let name = pat
                .iter()
                .filter_map(|t| ident_of(&t.tok))
                .find(|s| *s != "mut" && *s != "ref")
                .unwrap_or("_")
                .to_string();
            let ty_text = ty
                .iter()
                .map(|t| match &t.tok {
                    Tok::Ident(s) => s.as_str(),
                    Tok::Op(o) => o,
                    Tok::Num => "0",
                    Tok::Lit => "\"\"",
                })
                .collect::<Vec<_>>()
                .join(" ");
            param_names.push(name);
            param_types.push(ty_text);
        }
        i = close + 1;
    }
    // Skip return type / where clause until `{` or `;`. Angle depth
    // guards `Result<T, E>`-style commas; brace depth never opens here
    // except for the body itself.
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Op("{") | Tok::Op(";") => break,
            _ => i += 1,
        }
    }
    // A fn nested in a method body is a plain local fn, not a method.
    let (self_ty, trait_ty) = blocks
        .iter()
        .rev()
        .find_map(|b| match b {
            BlockKind::Impl { self_ty, trait_ty } => {
                Some((self_ty.clone(), trait_ty.clone()))
            }
            BlockKind::Fn { .. } => Some((None, None)),
            _ => None,
        })
        .unwrap_or((None, None));
    let bodiless = toks.get(i).is_some_and(|t| is_op(&t.tok, ";"));
    let body_start = line;
    let def = FnDef {
        arity: param_names.len(),
        name,
        self_ty,
        trait_ty,
        line,
        body_start,
        body_end: if bodiless { line } else { 0 },
        is_test,
        is_pub,
        has_self,
        param_names,
        param_types,
        calls: Vec::new(),
        io_events: Vec::new(),
        lock_overlaps: Vec::new(),
        arith_sites: Vec::new(),
    };
    if bodiless {
        return (i + 1, Some(def));
    }
    (i, Some(def))
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(toks: &[SpannedTok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        if is_op(&toks[i].tok, "(") {
            depth += 1;
        } else if is_op(&toks[i].tok, ")") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Splits a token slice at top-level commas (outside `()`/`[]`/`<>`).
fn split_top_level(toks: &[SpannedTok]) -> Vec<Vec<SpannedTok>> {
    let mut out = vec![Vec::new()];
    let (mut paren, mut bracket, mut angle) = (0i32, 0i32, 0i32);
    for t in toks {
        match &t.tok {
            Tok::Op("(") => paren += 1,
            Tok::Op(")") => paren -= 1,
            Tok::Op("[") => bracket += 1,
            Tok::Op("]") => bracket -= 1,
            Tok::Op("<") => angle += 1,
            Tok::Op(">") => angle = (angle - 1).max(0),
            Tok::Op(",") if paren == 0 && bracket == 0 && angle == 0 => {
                out.push(Vec::new());
                continue;
            }
            _ => {}
        }
        if let Some(v) = out.last_mut() {
            v.push(t.clone());
        }
    }
    if out.last().is_some_and(Vec::is_empty) {
        out.pop();
    }
    out
}

/// Counts the top-level arguments of the call whose `(` is at `open`.
fn call_arity(toks: &[SpannedTok], open: usize) -> usize {
    let close = matching_paren(toks, open);
    if close <= open + 1 {
        return 0;
    }
    // Angle brackets are comparison operators in expression position,
    // so only `()`/`[]`/`{}` nesting shields commas here — plus `|…|`
    // closure parameter lists, tracked as a toggle (a bitwise-or in an
    // argument merely fuzzes the arity, which resolution tolerates).
    let (mut paren, mut bracket, mut brace) = (0i32, 0i32, 0i32);
    let mut in_closure_params = false;
    let mut args = 1usize;
    let mut trailing_comma = false;
    for t in &toks[open + 1..close] {
        let top = paren == 0 && bracket == 0 && brace == 0;
        let mut is_top_comma = false;
        match &t.tok {
            Tok::Op("(") => paren += 1,
            Tok::Op(")") => paren -= 1,
            Tok::Op("[") => bracket += 1,
            Tok::Op("]") => bracket -= 1,
            Tok::Op("{") => brace += 1,
            Tok::Op("}") => brace -= 1,
            Tok::Op("|") if top => in_closure_params = !in_closure_params,
            Tok::Op(",") if top && !in_closure_params => {
                args += 1;
                is_top_comma = true;
            }
            _ => {}
        }
        trailing_comma = is_top_comma;
    }
    if trailing_comma {
        args -= 1;
    }
    args
}

const TIME_SEQ_SUFFIXES: &[&str] = &["_ns", "_nanos", "_seq"];
const TIME_SEQ_EXACT: &[&str] = &["nanos", "ns", "seq", "seq_no", "seqno"];

/// Is `name: ty` a caller-supplied raw time/sequence integer (NUM002)?
fn tainted_param(name: &str, ty: &str) -> bool {
    let name_hit = TIME_SEQ_EXACT.contains(&name)
        || TIME_SEQ_SUFFIXES.iter().any(|s| name.ends_with(s))
        || name.contains("nanos");
    if !name_hit {
        return false;
    }
    // SimTime/SimDuration carry checked operator impls; raw machine
    // integers (or unknown/generic types) are the hazard.
    !(ty.contains("SimTime") || ty.contains("SimDuration") || ty.contains("f64"))
}

/// Handles an identifier inside (or outside) a fn body: call sites,
/// durability facts, lock events, tainted arithmetic. Returns how many
/// tokens were consumed (≥1).
#[allow(clippy::too_many_arguments)]
fn scan_body_ident(
    toks: &[SpannedTok],
    i: usize,
    out: &mut ParsedFile,
    blocks: &[BlockKind],
    fn_stack: &[usize],
    catch_parens: &mut Vec<usize>,
    paren_depth: &mut usize,
    stmt_has_openoptions: &mut bool,
    stmt_has_file: &mut bool,
    stmt_io: &mut Vec<IoEvent>,
    let_lock: &mut Option<bool>,
) -> usize {
    let Tok::Ident(name) = &toks[i].tok else {
        return 1;
    };
    let line1 = toks[i].line + 1;
    if name == "OpenOptions" {
        *stmt_has_openoptions = true;
    }
    if name == "File" {
        *stmt_has_file = true;
    }

    let fn_idx = fn_stack.last().and_then(|&fi| match &blocks[fi] {
        BlockKind::Fn { fn_idx, .. } => Some(*fn_idx),
        _ => None,
    });

    // NUM002: tainted-param adjacency to raw arithmetic.
    if let Some(fi) = fn_idx {
        let f = &out.fns[fi];
        let tainted = f
            .param_names
            .iter()
            .zip(&f.param_types)
            .any(|(n, t)| n == name && tainted_param(n, t));
        if tainted {
            let prev = i.checked_sub(1).map(|p| &toks[p].tok);
            let next = toks.get(i + 1).map(|t| &t.tok);
            let next_op_arith = matches!(next, Some(Tok::Op(o)) if matches!(*o, "+" | "-" | "*"));
            // `ident OP …` is always arithmetic; `… OP ident` only
            // when the OP has a left operand (else it is deref/neg/ref).
            let prev_op_arith = matches!(prev, Some(Tok::Op(o)) if matches!(*o, "+" | "-" | "*"))
                && i >= 2
                && matches!(
                    &toks[i - 2].tok,
                    Tok::Ident(_) | Tok::Num | Tok::Op(")") | Tok::Op("]")
                );
            // `ident - >` never happens (`->` is one token); `ident *`
            // can be a glob only in use trees, which never get here.
            if next_op_arith || prev_op_arith {
                out.fns[fi].arith_sites.push(ArithSite {
                    line: line1,
                    ident: name.clone(),
                });
            }
        }
    }

    // Call expression?
    let mut j = i + 1;
    // Turbofish: `name::<T>(…)`.
    if toks.get(j).is_some_and(|t| is_op(&t.tok, "::"))
        && toks.get(j + 1).is_some_and(|t| is_op(&t.tok, "<"))
    {
        let mut depth = 0i32;
        let mut k = j + 1;
        while k < toks.len() {
            if is_op(&toks[k].tok, "<") {
                depth += 1;
            } else if is_op(&toks[k].tok, ">") {
                depth -= 1;
                if depth == 0 {
                    k += 1;
                    break;
                }
            }
            k += 1;
        }
        j = k;
    }
    let is_macro = toks.get(j).is_some_and(|t| is_op(&t.tok, "!"));
    if is_macro {
        j += 1;
    }
    let opens_call = toks.get(j).is_some_and(|t| {
        is_op(&t.tok, "(") || (is_macro && (is_op(&t.tok, "[") || is_op(&t.tok, "{")))
    });
    if !opens_call {
        if let Some(fi) = fn_idx {
            note_value_ref(toks, i, &mut out.fns[fi], !catch_parens.is_empty());
        }
        return 1;
    }
    // Path/method context.
    let prev = i.checked_sub(1).map(|p| &toks[p].tok);
    let method = matches!(prev, Some(t) if is_op(t, "."));
    let mut path: Vec<String> = Vec::new();
    let mut recv_self = false;
    if method {
        recv_self = i >= 2 && matches!(&toks[i - 2].tok, Tok::Ident(s) if s == "self");
    } else {
        path.push(name.clone());
        let mut back = i;
        while back >= 2 && is_op(&toks[back - 1].tok, "::") {
            if let Tok::Ident(seg) = &toks[back - 2].tok {
                path.insert(0, seg.clone());
                back -= 2;
            } else {
                break;
            }
        }
    }
    let arity = if toks.get(j).is_some_and(|t| is_op(&t.tok, "(")) {
        call_arity(toks, j)
    } else {
        0
    };
    let caught = !catch_parens.is_empty();
    if name == "lock" || name == "try_lock" {
        match let_lock {
            Some(seen) => {
                if *seen {
                    // Two locks in one binding init: immediate overlap.
                    note_overlap(out, blocks, fn_stack, line1, "two lock acquisitions in one initializer");
                } else {
                    *let_lock = Some(true);
                }
            }
            None => {
                // Temporary guard: overlaps if any bound guard lives.
                if any_live_guard(blocks, fn_stack) {
                    note_overlap(
                        out,
                        blocks,
                        fn_stack,
                        line1,
                        "lock acquired while another shard guard is live in this scope",
                    );
                }
            }
        }
    }
    if name == "catch_unwind" {
        catch_parens.push(*paren_depth + 1);
    }
    // Durability facts.
    if fn_idx.is_some() {
        let io_kind = match name.as_str() {
            "append" if *stmt_has_openoptions => Some(IoKind::AppendOpen),
            "create" if *stmt_has_file || *stmt_has_openoptions || path.first().map(String::as_str) == Some("File") => {
                Some(IoKind::CreateFile)
            }
            "write_all" | "write_fmt" => Some(IoKind::Write),
            "sync_all" | "sync_data" => Some(IoKind::Sync),
            "rename" if !method => Some(IoKind::Rename),
            _ => None,
        };
        if let Some(kind) = io_kind {
            stmt_io.push(IoEvent { line: line1, kind });
        }
    }
    if let Some(fi) = fn_idx {
        out.fns[fi].calls.push(CallSite {
            line: line1,
            name: name.clone(),
            path,
            method,
            recv_self,
            arity,
            caught,
            is_macro,
            by_value: false,
        });
    }
    1
}

/// Records `toks[i]` as a fn referenced by value when it ends a path
/// standing alone as an argument: `(path)`, `(path,`, `, path)` or
/// `, path,`. Bare parameter names are skipped here and bare names
/// bound by `let`, `for` or closure patterns when the file is done; a
/// local bound by a match arm still reads as a reference to a
/// same-named fn.
fn note_value_ref(toks: &[SpannedTok], i: usize, f: &mut FnDef, caught: bool) {
    let closes_arg = toks
        .get(i + 1)
        .is_some_and(|t| is_op(&t.tok, ")") || is_op(&t.tok, ","));
    if !closes_arg {
        return;
    }
    let mut start = i;
    while start >= 2
        && is_op(&toks[start - 1].tok, "::")
        && matches!(toks[start - 2].tok, Tok::Ident(_))
    {
        start -= 2;
    }
    let opens_arg = start >= 1
        && (is_op(&toks[start - 1].tok, "(") || is_op(&toks[start - 1].tok, ","));
    if !opens_arg {
        return;
    }
    let path: Vec<String> = toks[start..=i]
        .iter()
        .filter_map(|t| ident_of(&t.tok).map(String::from))
        .collect();
    let Some(name) = path.last().cloned() else {
        return;
    };
    if f.param_names.contains(&name) {
        return;
    }
    f.calls.push(CallSite {
        line: toks[i].line + 1,
        name,
        path,
        method: false,
        recv_self: false,
        arity: 0,
        caught,
        is_macro: false,
        by_value: true,
    });
}

/// True when any enclosing block of the current fn holds a live bound
/// guard.
fn any_live_guard(blocks: &[BlockKind], fn_stack: &[usize]) -> bool {
    fn_stack.last().is_some_and(|&fi| match &blocks[fi] {
        BlockKind::Fn { guards, .. } => guards.iter().any(|&g| g > 0),
        _ => false,
    })
}

fn note_overlap(
    out: &mut ParsedFile,
    blocks: &[BlockKind],
    fn_stack: &[usize],
    line: usize,
    detail: &str,
) {
    if let Some(&fi) = fn_stack.last() {
        if let BlockKind::Fn { fn_idx, .. } = &blocks[fi] {
            out.fns[*fn_idx].lock_overlaps.push(LockEvent {
                line,
                detail: detail.to_string(),
            });
        }
    }
}

/// Registers a guard binding (`let g = …lock(…)…;`) in the innermost
/// open block of the current fn; flags an overlap when one is already
/// live.
fn note_guard_bind(
    blocks: &mut [BlockKind],
    fn_stack: &[usize],
    fns: &mut [FnDef],
    line: usize,
) {
    let Some(&fi) = fn_stack.last() else { return };
    if let BlockKind::Fn { fn_idx, guards } = &mut blocks[fi] {
        if guards.iter().any(|&g| g > 0) {
            fns[*fn_idx].lock_overlaps.push(LockEvent {
                line,
                detail: "second shard guard bound while one is already live".to_string(),
            });
        }
        if let Some(last) = guards.last_mut() {
            *last += 1;
        }
    }
}

/// Flushes one statement's durability events into the fn.
fn settle_statement(f: &mut FnDef, stmt_io: &mut Vec<IoEvent>) {
    f.io_events.append(stmt_io);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/x/src/lib.rs", &scan(src))
    }

    #[test]
    fn fn_signatures_and_impls() {
        let src = "\
impl Engine<W> {
    pub fn run_events(&mut self, budget: u64) -> u64 { budget }
}
impl Clone for Widget {
    fn clone(&self) -> Widget { Widget }
}
fn free(a: u64, b: SimTime) {}
";
        let p = parse(src);
        assert_eq!(p.fns.len(), 3);
        let run = &p.fns[0];
        assert_eq!(run.name, "run_events");
        assert_eq!(run.self_ty.as_deref(), Some("Engine"));
        assert!(run.has_self && run.is_pub);
        assert_eq!(run.arity, 1);
        let clone = &p.fns[1];
        assert_eq!(clone.trait_ty.as_deref(), Some("Clone"));
        assert_eq!(clone.self_ty.as_deref(), Some("Widget"));
        let free = &p.fns[2];
        assert_eq!(free.self_ty, None);
        assert_eq!(free.param_names, vec!["a", "b"]);
        assert_eq!(free.param_types[1], "SimTime");
    }

    #[test]
    fn calls_paths_methods_arity() {
        let src = "\
fn caller(x: u64) {
    helper(x, 2);
    fs::rename(a, b);
    self.step();
    obj.observe(1, 2, 3);
    Engine::new(w);
    vec![1, 2];
}
";
        let p = parse(src);
        let calls = &p.fns[0].calls;
        let by_name = |n: &str| calls.iter().find(|c| c.name == n).expect(n);
        assert_eq!(by_name("helper").arity, 2);
        assert_eq!(by_name("rename").path, vec!["fs", "rename"]);
        assert!(by_name("step").method && by_name("step").recv_self);
        assert_eq!(by_name("observe").arity, 3);
        assert!(!by_name("observe").recv_self);
        assert_eq!(by_name("new").path, vec!["Engine", "new"]);
        assert!(by_name("vec").is_macro);
    }

    #[test]
    fn multiline_call_arity_counts_top_level_commas() {
        let src = "\
fn f() {
    builder(
        one(a, b),
        [x, y, z],
        |acc, item| acc,
    );
}
";
        let p = parse(src);
        let c = p.fns[0].calls.iter().find(|c| c.name == "builder").unwrap();
        assert_eq!(c.arity, 3);
    }

    #[test]
    fn catch_unwind_marks_contained_calls() {
        let src = "\
fn f() {
    let r = std::panic::catch_unwind(|| risky(1));
    after(r);
}
";
        let p = parse(src);
        let risky = p.fns[0].calls.iter().find(|c| c.name == "risky").unwrap();
        let after = p.fns[0].calls.iter().find(|c| c.name == "after").unwrap();
        assert!(risky.caught);
        assert!(!after.caught);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src = "\
fn lib_fn() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
";
        let p = parse(src);
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
    }

    #[test]
    fn use_trees_bind_leaves() {
        let src = "use std::fs::{self, File, OpenOptions as OO};\nuse treadmill_core::run_sweep;\n";
        let p = parse(src);
        let find = |a: &str| p.imports.iter().find(|i| i.alias == a);
        assert!(find("File").is_some());
        assert_eq!(find("OO").unwrap().path.last().unwrap(), "OpenOptions");
        assert_eq!(
            find("run_sweep").unwrap().path,
            vec!["treadmill_core", "run_sweep"]
        );
        assert!(find("fs").is_some(), "use a::b::{{self}} binds the module");
    }

    #[test]
    fn lock_overlap_detected_and_sequential_locks_pass() {
        let overlapping = "\
fn bad(shards: &[Mutex<u32>]) {
    let a = shards[0].lock();
    let b = shards[1].lock();
}
";
        let p = parse(overlapping);
        assert_eq!(p.fns[0].lock_overlaps.len(), 1, "{:?}", p.fns[0].lock_overlaps);
        assert_eq!(p.fns[0].lock_overlaps[0].line, 3);

        let sequential = "\
fn good(shards: &[Mutex<u32>]) {
    for s in shards {
        let g = s.lock();
    }
    for s in shards {
        let g = s.lock();
    }
}
";
        let p = parse(sequential);
        assert!(p.fns[0].lock_overlaps.is_empty(), "{:?}", p.fns[0].lock_overlaps);
    }

    #[test]
    fn temp_lock_while_guard_live_is_overlap() {
        let src = "\
fn bad(shards: &[Mutex<u32>]) {
    let a = lock(&shards[0]);
    touch(lock(&shards[1]));
}
";
        let p = parse(src);
        assert_eq!(p.fns[0].lock_overlaps.len(), 1);
    }

    #[test]
    fn io_events_in_order() {
        let src = "\
fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let mut file = File::create(&tmp)?;
    file.write_all(contents)?;
    file.sync_all()?;
    fs::rename(&tmp, path)?;
    Ok(())
}
";
        let p = parse(src);
        let kinds: Vec<IoKind> = p.fns[0].io_events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![IoKind::CreateFile, IoKind::Write, IoKind::Sync, IoKind::Rename]
        );
    }

    #[test]
    fn append_open_requires_openoptions() {
        let src = "\
fn journal(&self) {
    let mut f = OpenOptions::new().create(true).append(true).open(&p);
    f.write_all(b\"x\");
}
fn vec_append(&self, other: &mut Vec<u32>) {
    self.items.append(other);
}
";
        let p = parse(src);
        assert!(p.fns[0].io_events.iter().any(|e| e.kind == IoKind::AppendOpen));
        assert!(p.fns[1].io_events.is_empty());
    }

    #[test]
    fn tainted_arith_on_time_params() {
        let src = "\
fn bump(deadline_ns: u64, delta_ns: u64) -> u64 {
    deadline_ns + delta_ns
}
fn safe(deadline_ns: u64, delta_ns: u64) -> u64 {
    deadline_ns.saturating_add(delta_ns)
}
fn typed(at: SimTime, delta_nanos: SimDuration) -> SimTime {
    at
}
";
        let p = parse(src);
        assert_eq!(p.fns[0].arith_sites.len(), 2, "{:?}", p.fns[0].arith_sites);
        assert!(p.fns[1].arith_sites.is_empty());
        assert!(p.fns[2].arith_sites.is_empty());
    }

    #[test]
    fn deref_is_not_arithmetic() {
        let src = "\
fn f(seq: u64, p: &u64) -> u64 {
    let x = *p;
    x
}
";
        let p = parse(src);
        assert!(p.fns[0].arith_sites.is_empty());
    }

    #[test]
    fn fn_at_maps_lines_to_innermost() {
        let src = "\
fn outer() {
    fn inner() {
        work();
    }
    other();
}
";
        let p = parse(src);
        let inner = p.fn_at(3).map(|i| p.fns[i].name.clone());
        let outer = p.fn_at(5).map(|i| p.fns[i].name.clone());
        assert_eq!(inner.as_deref(), Some("inner"));
        assert_eq!(outer.as_deref(), Some("outer"));
    }

    #[test]
    fn trait_bodies_value_refs_and_serde_names_are_recorded() {
        let src = "\
trait Source {
    fn start(&mut self);
    fn on_sent(&mut self) { helper(); }
}
#[derive(Deserialize)]
struct Spec {
    #[serde(skip_serializing_if = \"is_zero\", default = \"crate::spec::default_runs\")]
    runs: u32,
}
fn wire(map: u32) { x.map_err(map_io); signal(15, on_signal); y.map(map); }
fn bound(v: Option<u32>) {
    let Some(state) = v else { return };
    for (i, item) in z.iter() { f(item, i); }
    z.map(|seen| g(seen)).map(move |n: u32| h(n));
    x.map(Plan::state);
    Ok(state)
}
";
        let p = parse(src);
        assert_eq!(p.fns[0].trait_ty.as_deref(), Some("Source"));
        assert_eq!(p.fns[1].trait_ty.as_deref(), Some("Source"));
        assert_eq!(p.serde_fns, vec!["default_runs"]);
        let wire = p.fns.iter().find(|f| f.name == "wire").unwrap();
        let refs: Vec<&str> =
            wire.calls.iter().filter(|c| c.by_value).map(|c| c.name.as_str()).collect();
        // `map` is the fn's own parameter, not a fn reference.
        assert_eq!(refs, vec!["map_io", "on_signal"]);
        // Names bound by let, for and closure patterns are locals.
        let bound = p.fns.iter().find(|f| f.name == "bound").unwrap();
        let refs: Vec<&[String]> =
            bound.calls.iter().filter(|c| c.by_value).map(|c| c.path.as_slice()).collect();
        assert_eq!(refs, vec![["Plan".to_string(), "state".to_string()]]);
    }

    #[test]
    fn nested_fn_in_a_method_is_not_a_method() {
        let p = parse("impl Config {\n    fn validate(&self) { fn invalid() {} invalid(); }\n}\n");
        let invalid = p.fns.iter().find(|f| f.name == "invalid").unwrap();
        assert_eq!(invalid.self_ty, None);
    }

    #[test]
    fn mutex_vec_detection() {
        let p = parse("struct S { shards: Vec<Mutex<Engine>> }\n");
        assert_eq!(p.mutex_vec_lines, vec![1]);
    }
}
