//! Source preprocessing for the linter: comment/string masking, test-region
//! detection, and `// lint: allow(rule, reason)` annotation parsing.
//!
//! The linter is deliberately a *text* pass, not a `syn` parse — the
//! workspace has no crates.io access, and every rule it enforces is a
//! token-level property (a banned method call, a banned type name, a
//! memory-ordering literal). Masking strips comments and string/char
//! literal *contents* so rules never fire on prose or embedded examples,
//! and a brace-matching scan classifies `#[cfg(test)]` / `#[cfg(all(test,
//! …))]` / `#[test]` items as test regions, which most rules exempt.

/// One parsed `// lint: allow(rule, reason)` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule name the annotation suppresses.
    pub rule: String,
    /// Mandatory human justification.
    pub reason: String,
    /// 1-based line the annotation comment sits on.
    pub line: usize,
}

/// A source file prepared for rule checks.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (rules scope on it).
    pub path: String,
    /// Verbatim lines, for annotation parsing and display.
    pub raw_lines: Vec<String>,
    /// Lines with comment and string/char-literal contents blanked.
    pub masked_lines: Vec<String>,
    /// `true` for every line inside a test-only region.
    pub test_line: Vec<bool>,
    /// Annotations applying to each 0-based line (trailing annotations
    /// apply to their own line; annotation-only lines apply to the next
    /// code line, stacking).
    pub allows_for_line: Vec<Vec<Allow>>,
}

impl SourceFile {
    /// Preprocess `content` as the file at `path` (workspace-relative).
    pub fn parse(path: &str, content: &str) -> SourceFile {
        let raw_lines: Vec<String> = content.split('\n').map(str::to_owned).collect();
        let masked = mask(content);
        let masked_lines: Vec<String> = masked.split('\n').map(str::to_owned).collect();
        debug_assert_eq!(raw_lines.len(), masked_lines.len());
        let test_line = test_regions(&masked_lines);
        let allows_for_line = collect_allows(&raw_lines, &masked_lines);
        SourceFile {
            path: path.to_owned(),
            raw_lines,
            masked_lines,
            test_line,
            allows_for_line,
        }
    }

    /// Annotations that can justify a finding of `rule` on 0-based `line`.
    pub fn allows(&self, line: usize, rule: &str) -> Option<&Allow> {
        self.allows_for_line
            .get(line)?
            .iter()
            .find(|a| a.rule == rule)
    }
}

/// Blank comment bodies and string/char-literal contents, preserving line
/// structure and all other characters (so token offsets stay meaningful).
///
/// Blanking is *byte-length preserving*: a masked char is replaced by one
/// space per UTF-8 byte, so token byte offsets computed on the masked text
/// index directly into the raw text (rules slice `raw[t.start..t.end]`).
fn mask(content: &str) -> String {
    /// Blank `c`, keeping newlines and emitting `len_utf8` spaces otherwise.
    fn blank(out: &mut String, c: char) {
        if c == '\n' {
            out.push('\n');
        } else {
            for _ in 0..c.len_utf8() {
                out.push(' ');
            }
        }
    }
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
    }
    let bytes: Vec<char> = content.chars().collect();
    let mut out = String::with_capacity(content.len());
    let mut state = State::Code;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                }
                '"' => {
                    // Raw string? Look back for r / r# / br## prefixes —
                    // those chars are already emitted, which is fine: the
                    // prefix itself is not string *content*.
                    let mut hashes = 0u32;
                    let mut j = i;
                    while j > 0 && bytes[j - 1] == '#' {
                        hashes += 1;
                        j -= 1;
                    }
                    let is_raw = j > 0 && (bytes[j - 1] == 'r');
                    if is_raw {
                        state = State::RawStr(hashes);
                    } else {
                        state = State::Str;
                    }
                    out.push('"');
                    i += 1;
                }
                '\'' => {
                    // Char literal vs lifetime: a literal is 'x' or an
                    // escape '\…'. Lifetimes ('a, 'static) keep only the
                    // quote and continue as code.
                    if next == Some('\\') {
                        // Escaped char literal: emit quotes, blank body.
                        out.push('\'');
                        i += 1;
                        while i < bytes.len() && bytes[i] != '\'' {
                            blank(&mut out, bytes[i]);
                            i += 1;
                        }
                        if i < bytes.len() {
                            out.push('\'');
                            i += 1;
                        }
                    } else if bytes.get(i + 2).copied() == Some('\'') {
                        out.push('\'');
                        blank(&mut out, bytes[i + 1]);
                        out.push('\'');
                        i += 3;
                    } else {
                        out.push('\'');
                        i += 1;
                    }
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    out.push('\n');
                } else {
                    blank(&mut out, c);
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    blank(&mut out, c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    out.push(' ');
                    if let Some(n) = next {
                        blank(&mut out, n);
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '"' {
                    state = State::Code;
                    out.push('"');
                    i += 1;
                } else {
                    blank(&mut out, c);
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    // Closing only when followed by `hashes` hash marks.
                    let mut ok = true;
                    for h in 0..hashes as usize {
                        if bytes.get(i + 1 + h).copied() != Some('#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        out.push('"');
                        for _ in 0..hashes {
                            out.push('#');
                        }
                        i += 1 + hashes as usize;
                        state = State::Code;
                        continue;
                    }
                }
                blank(&mut out, c);
                i += 1;
            }
        }
    }
    debug_assert_eq!(out.len(), content.len());
    out
}

/// True when the masked line is a test-gating attribute: `#[test]`,
/// `#[cfg(test)]`, or `#[cfg(all(test, …))]` (which implies `test`).
/// `#[cfg(any(test, …))]` is deliberately *not* test-only — such code is
/// compiled into feature builds and stays lintable.
fn is_test_attr(masked: &str) -> bool {
    let squeezed: String = masked.chars().filter(|c| !c.is_whitespace()).collect();
    squeezed.starts_with("#[test]")
        || squeezed.starts_with("#[cfg(test)]")
        || squeezed.starts_with("#[cfg(all(test,")
}

/// Mark every line belonging to a test-gated item: from the gating
/// attribute through the end of the item's brace block (or its `;`).
fn test_regions(masked_lines: &[String]) -> Vec<bool> {
    let n = masked_lines.len();
    let mut test = vec![false; n];
    let mut i = 0;
    while i < n {
        if !is_test_attr(&masked_lines[i]) {
            i += 1;
            continue;
        }
        // Scan forward from the attribute for the item body.
        let mut depth: i64 = 0;
        let mut seen_open = false;
        let mut end = n - 1;
        'scan: for (j, line) in masked_lines.iter().enumerate().skip(i) {
            for c in line.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        seen_open = true;
                    }
                    '}' => {
                        depth -= 1;
                        if seen_open && depth == 0 {
                            end = j;
                            break 'scan;
                        }
                    }
                    ';' if !seen_open && j > i => {
                        end = j;
                        break 'scan;
                    }
                    _ => {}
                }
            }
        }
        for t in test.iter_mut().take(end + 1).skip(i) {
            *t = true;
        }
        i = end + 1;
    }
    test
}

/// Parse one `lint: allow(rule, reason)` clause out of a comment body.
/// The clause must open the comment (`// lint: allow(…)`) — mentions of
/// the grammar inside prose or doc comments never count as annotations.
fn parse_allow(comment: &str, line: usize) -> Option<Allow> {
    let body = comment.strip_prefix("//")?.trim_start();
    let rest = body.strip_prefix("lint: allow(")?;
    let close = rest.rfind(')')?;
    let body = &rest[..close];
    let (rule, reason) = body.split_once(',')?;
    let (rule, reason) = (rule.trim(), reason.trim());
    if rule.is_empty() || reason.is_empty() {
        return None;
    }
    Some(Allow {
        rule: rule.to_owned(),
        reason: reason.to_owned(),
        line,
    })
}

/// Byte offset in `raw` of the line comment that ends it, given its
/// `masked` twin: the comment starts at the first `//` past the point
/// where the masked line turns blank through the end of the line, so a
/// `//` inside a string literal on the code before it never counts.
pub fn comment_start(raw: &str, masked: &str) -> Option<usize> {
    let code_end = masked.trim_end().len();
    raw.get(code_end..)?.find("//").map(|pos| code_end + pos)
}

/// Attach annotations to the lines they justify: a trailing annotation
/// justifies its own line; a standalone annotation line (possibly several,
/// stacked) justifies the next line that carries code.
fn collect_allows(raw_lines: &[String], masked_lines: &[String]) -> Vec<Vec<Allow>> {
    let n = raw_lines.len();
    let mut allows: Vec<Vec<Allow>> = vec![Vec::new(); n];
    let mut pending: Vec<Allow> = Vec::new();
    for i in 0..n {
        let raw = &raw_lines[i];
        let masked = &masked_lines[i];
        let has_code = !masked.trim().is_empty();
        let annotation = comment_start(raw, masked).and_then(|pos| parse_allow(&raw[pos..], i + 1));
        match (has_code, annotation) {
            (true, Some(a)) => {
                // Trailing annotation: applies here, along with pending.
                allows[i].push(a);
                allows[i].append(&mut pending);
            }
            (true, None) => {
                allows[i].append(&mut pending);
            }
            (false, Some(a)) => pending.push(a),
            (false, None) => {
                // Blank or comment-only line without annotation: keep the
                // pending stack (doc comments may sit between annotation
                // and item).
            }
        }
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_comments_and_strings() {
        let f = SourceFile::parse(
            "x.rs",
            "let a = \"unwrap() inside\"; // .unwrap() in comment\nlet b = 1;",
        );
        assert!(!f.masked_lines[0].contains("unwrap"));
        assert!(f.masked_lines[1].contains("let b"));
    }

    #[test]
    fn masking_handles_raw_strings_and_chars() {
        let src = "let s = r#\"panic!(\"x\")\"#;\nlet c = 'a';\nlet lt: &'static str = \"y\";";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.masked_lines[0].contains("panic"));
        assert!(f.masked_lines[2].contains("'static"));
    }

    #[test]
    fn masking_preserves_byte_length_with_multibyte_chars() {
        // Em dashes and accents in comments/strings must blank to one
        // space per UTF-8 *byte*, or token offsets drift off the raw text.
        let src = "// naïve — prose\nlet s = \"café — ok\";\nlet c = '—';\nfn f() {}";
        let f = SourceFile::parse("x.rs", src);
        for (raw, masked) in f.raw_lines.iter().zip(&f.masked_lines) {
            assert_eq!(raw.len(), masked.len(), "byte length drifted: {raw:?}");
        }
        assert!(f.masked_lines[3].contains("fn f"));
    }

    #[test]
    fn cfg_test_region_covers_the_module() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn live2() {}";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.test_line[0]);
        assert!(f.test_line[1] && f.test_line[2] && f.test_line[3] && f.test_line[4]);
        assert!(!f.test_line[5]);
    }

    #[test]
    fn cfg_all_test_counts_as_test_but_any_does_not() {
        let src = "#[cfg(all(test, feature = \"loom\"))]\nmod m { }\n#[cfg(any(test, feature = \"fi\"))]\nmod n { }";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.test_line[0] && f.test_line[1]);
        assert!(!f.test_line[2] && !f.test_line[3]);
    }

    #[test]
    fn trailing_and_standalone_annotations_attach() {
        let src = "// lint: allow(no-panic, invariant A)\nlet x = m.pop().unwrap();\nlet y = 1; // lint: allow(atomics-audit, stat only)";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(
            f.allows(1, "no-panic").map(|a| a.reason.as_str()),
            Some("invariant A")
        );
        assert!(f.allows(1, "atomics-audit").is_none());
        assert_eq!(f.allows(2, "atomics-audit").map(|a| a.line), Some(3));
    }

    #[test]
    fn annotation_requires_reason() {
        let src = "// lint: allow(no-panic)\nx.unwrap();";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.allows(1, "no-panic").is_none());
    }
}
