//! Lexical model of a Rust source file.
//!
//! `tml-lint` deliberately avoids a full parser (the vendored registry
//! has no `syn`): rules only need to know, per line, (a) which bytes
//! are *code* with string/char-literal contents blanked out, (b) which
//! bytes are *comment* text (where suppressions live), and (c) whether
//! the line sits inside a `#[cfg(test)]` region. A hand-rolled state
//! machine over the byte stream provides exactly that, handling nested
//! block comments, raw strings (`r#"…"#`, `br"…"`), escapes, and the
//! char-literal/lifetime ambiguity.

/// One physical source line, split into its lexical layers.
#[derive(Debug, Clone, Default)]
pub struct SourceLine {
    /// Code text with string/char-literal *contents* replaced by spaces
    /// (delimiters kept) and comments removed. Same length as the
    /// non-comment prefix of the raw line, so column positions survive.
    pub code: String,
    /// Concatenated text of all comments on this line.
    pub comment: String,
    /// True when the line is inside a `#[cfg(test)]`-gated item (the
    /// attribute line itself counts), as tracked by brace depth.
    pub in_test: bool,
    /// Contents of the string and char literals that close on this
    /// line, in order (escapes dropped): what `code` blanks out. Lets
    /// the parser read fn names out of attributes such as
    /// `#[serde(default = "…")]`.
    pub literals: Vec<String>,
}

/// A scanned file: lexical layers for every line, 0-indexed.
#[derive(Debug, Default)]
pub struct SourceModel {
    pub lines: Vec<SourceLine>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    /// Nesting depth of `/* */` comments (Rust block comments nest).
    BlockComment(u32),
    Str,
    /// Raw string with `hashes` trailing `#` required to close.
    RawStr(u32),
    CharLit,
}

/// Tracks `#[cfg(test)]` scoping across lines via brace depth.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TestScope {
    None,
    /// Attribute seen at `depth`; waiting for the item's opening brace.
    Pending(i64),
    /// Inside the region; closes when depth returns to the payload.
    Active(i64),
}

/// Scans `src` into per-line lexical layers.
pub fn scan(src: &str) -> SourceModel {
    let chars: Vec<char> = src.chars().collect();
    let mut model = SourceModel::default();
    let mut line = SourceLine::default();
    let mut state = State::Code;
    let mut depth: i64 = 0;
    let mut scope = TestScope::None;
    // Contents of the literal being scanned.
    let mut lit = String::new();

    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            finish_line(&mut model, &mut line, &mut depth, &mut scope);
            i += 1;
            continue;
        }
        match state {
            State::Code => match c {
                '/' if chars.get(i + 1) == Some(&'/') => {
                    state = State::LineComment;
                    i += 2;
                    continue;
                }
                '/' if chars.get(i + 1) == Some(&'*') => {
                    state = State::BlockComment(1);
                    i += 2;
                    continue;
                }
                '"' => {
                    // `r"`/`br#"` raw-string prefixes end in the chars
                    // just consumed; detect them retroactively.
                    let hashes = raw_prefix_hashes(&line.code);
                    line.code.push('"');
                    state = match hashes {
                        Some(h) => State::RawStr(h),
                        None => State::Str,
                    };
                    i += 1;
                    continue;
                }
                '\'' => {
                    // Disambiguate char literal from lifetime: 'x' or
                    // '\…' is a literal; 'ident (no closing quote right
                    // after one char) is a lifetime.
                    let is_literal = matches!(
                        (chars.get(i + 1), chars.get(i + 2)),
                        (Some('\\'), _) | (Some(_), Some('\''))
                    );
                    line.code.push('\'');
                    if is_literal {
                        state = State::CharLit;
                    }
                    i += 1;
                    continue;
                }
                _ => {
                    line.code.push(c);
                    i += 1;
                    continue;
                }
            },
            State::LineComment => {
                line.comment.push(c);
                i += 1;
                continue;
            }
            State::BlockComment(n) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if n == 1 {
                        State::Code
                    } else {
                        State::BlockComment(n - 1)
                    };
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(n + 1);
                    line.comment.push(' ');
                    i += 2;
                    continue;
                }
                line.comment.push(c);
                i += 1;
                continue;
            }
            State::Str => {
                if c == '\\' {
                    line.code.push(' ');
                    if chars.get(i + 1).is_some_and(|&e| e != '\n') {
                        line.code.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                    continue;
                }
                if c == '"' {
                    line.code.push('"');
                    line.literals.push(std::mem::take(&mut lit));
                    state = State::Code;
                } else {
                    line.code.push(' ');
                    lit.push(c);
                }
                i += 1;
                continue;
            }
            State::RawStr(h) => {
                if c == '"' && closes_raw(&chars, i, h) {
                    line.code.push('"');
                    line.literals.push(std::mem::take(&mut lit));
                    // Skip the trailing hashes too.
                    i += 1 + h as usize;
                    state = State::Code;
                    continue;
                }
                line.code.push(' ');
                lit.push(c);
                i += 1;
                continue;
            }
            State::CharLit => {
                if c == '\\' {
                    line.code.push(' ');
                    if chars.get(i + 1).is_some_and(|&e| e != '\n') {
                        line.code.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                    continue;
                }
                if c == '\'' {
                    line.code.push('\'');
                    line.literals.push(std::mem::take(&mut lit));
                    state = State::Code;
                } else {
                    line.code.push(' ');
                    lit.push(c);
                }
                i += 1;
                continue;
            }
        }
    }
    finish_line(&mut model, &mut line, &mut depth, &mut scope);
    model
}

/// Detects whether the code emitted so far ends in a raw-string prefix
/// (`r`, `br`, `r##`, …) and returns the hash count if so.
fn raw_prefix_hashes(code: &str) -> Option<u32> {
    let bytes = code.as_bytes();
    let mut j = bytes.len();
    let mut hashes = 0u32;
    while j > 0 && bytes[j - 1] == b'#' {
        hashes += 1;
        j -= 1;
    }
    if j == 0 || bytes[j - 1] != b'r' {
        return None;
    }
    // `r` must start the identifier (allow a leading `b` for byte raw
    // strings): reject `var#"`-style accidents and identifiers ending
    // in `r` like `repr"` (not real Rust anyway).
    let mut k = j - 1;
    if k > 0 && bytes[k - 1] == b'b' {
        k -= 1;
    }
    let prev_ident = k > 0 && (bytes[k - 1].is_ascii_alphanumeric() || bytes[k - 1] == b'_');
    if prev_ident {
        return None;
    }
    Some(hashes)
}

/// True when the `"` at `chars[i]` is followed by `h` hash marks,
/// closing a raw string opened with `h` hashes.
fn closes_raw(chars: &[char], i: usize, h: u32) -> bool {
    (1..=h as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

fn finish_line(
    model: &mut SourceModel,
    line: &mut SourceLine,
    depth: &mut i64,
    scope: &mut TestScope,
) {
    // The attribute line itself is part of the test region. Match on
    // whitespace-stripped code so `#[cfg( test )]` / `# [cfg(test)]`
    // spacing variants still open the region — suppression scanning
    // inside test blocks depends on this flag being right.
    if *scope == TestScope::None {
        let compact: String = line.code.chars().filter(|c| !c.is_whitespace()).collect();
        if compact.contains("#[cfg(test)]") {
            *scope = TestScope::Pending(*depth);
        }
    }
    line.in_test = *scope != TestScope::None;
    for c in line.code.chars() {
        match c {
            '{' => {
                *depth += 1;
                if let TestScope::Pending(d) = *scope {
                    if *depth == d + 1 {
                        *scope = TestScope::Active(d);
                    }
                }
            }
            '}' => {
                *depth -= 1;
                if let TestScope::Active(d) = *scope {
                    if *depth <= d {
                        *scope = TestScope::None;
                    }
                }
            }
            _ => {}
        }
    }
    model.lines.push(std::mem::take(line));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_blanked() {
        let m = scan("let x = \"HashMap inside\"; // trailing\n");
        assert!(!m.lines[0].code.contains("HashMap"));
        assert!(m.lines[0].code.contains("let x ="));
        assert_eq!(m.lines[0].comment.trim(), "trailing");
        assert_eq!(m.lines[0].literals, vec!["HashMap inside"]);
    }

    #[test]
    fn raw_strings_are_blanked() {
        let m = scan("let p = r#\"Instant::now \"quoted\" text\"#; Instant::now()\n");
        let code = &m.lines[0].code;
        assert_eq!(code.matches("Instant::now").count(), 1, "{code}");
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let m = scan("a /* one /* two */ still */ b\n/* open\nHashMap\n*/ c\n");
        assert!(m.lines[0].code.contains('a') && m.lines[0].code.contains('b'));
        assert!(!m.lines[2].code.contains("HashMap"));
        assert!(m.lines[2].comment.contains("HashMap"));
        assert!(m.lines[3].code.contains('c'));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let m = scan("fn f<'a>(x: &'a str) -> &'a str { x }\n");
        assert!(m.lines[0].code.contains("-> &'a str"));
    }

    #[test]
    fn char_literals_are_blanked() {
        let m = scan("let c = '\"'; let d = 'x'; let e = '\\n'; HashMap\n");
        assert!(m.lines[0].code.contains("HashMap"));
        assert!(!m.lines[0].code.contains('x'));
    }

    #[test]
    fn cfg_test_region_is_tracked() {
        let src = "\
fn lib_code() {}
#[cfg(test)]
mod tests {
    fn helper() {}
}
fn more_lib() {}
";
        let m = scan(src);
        assert!(!m.lines[0].in_test);
        assert!(m.lines[1].in_test, "attribute line");
        assert!(m.lines[2].in_test);
        assert!(m.lines[3].in_test);
        assert!(m.lines[4].in_test, "closing brace");
        assert!(!m.lines[5].in_test);
    }

    #[test]
    fn cfg_test_spacing_variants_are_tracked() {
        for attr in ["#[cfg( test )]", "# [cfg(test)]", "#[ cfg ( test ) ]"] {
            let src = format!("{attr}\nmod tests {{\n    fn f() {{}}\n}}\nfn lib() {{}}\n");
            let m = scan(&src);
            assert!(m.lines[2].in_test, "{attr}: body line");
            assert!(!m.lines[4].in_test, "{attr}: after region");
        }
    }

    #[test]
    fn braces_in_strings_do_not_confuse_test_tracking() {
        let src = "\
#[cfg(test)]
mod tests {
    const S: &str = \"}}}}\";
    fn f() {}
}
fn lib() {}
";
        let m = scan(src);
        assert!(m.lines[3].in_test);
        assert!(!m.lines[5].in_test);
    }
}
