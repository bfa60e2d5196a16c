//! The workspace model: crates → source files → items.
//!
//! A lightweight item-level parser walks each file's token stream and
//! recovers the structure the rules need: modules, functions, impl blocks,
//! traits, consts — each with its span, visibility, attributes, and `cfg`
//! context. It is not a full Rust parser (function *bodies* stay opaque
//! token ranges), but unlike the old line-based heuristic it gets the
//! things that matter right:
//!
//! * a `#[cfg(test)]` module is test scope **wherever it appears** in the
//!   file, not only when it is the trailing item;
//! * attributes, visibility, and nesting survive interleaving with
//!   comments and strings;
//! * `const` items keep their initializer token range, so the salt pass
//!   can read values.

use std::path::Path;

use crate::cfg::{self, Cfg};
use crate::lexer::{self, Comment, Token, TokenKind};

/// Keywords that can precede `[` without forming an indexing expression.
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { … }` or `mod name;`
    Mod,
    /// `fn name(…) { … }` (free function or method).
    Fn,
    /// `struct` / `enum` / `union`.
    Type,
    /// `impl … { … }`.
    Impl,
    /// `trait … { … }`.
    Trait,
    /// `const NAME: T = …;` or `static NAME: T = …;`
    Const,
    /// `use …;` / `extern crate …;` / `type … = …;`
    Use,
    /// `macro_rules! name { … }` or a top-level macro invocation.
    Macro,
}

/// One parsed item with its attributes and token span.
#[derive(Debug)]
pub struct Item {
    /// The item's kind.
    pub kind: ItemKind,
    /// The item's name (`impl` blocks use the first type token's text).
    pub name: String,
    /// Whether the item is `pub` (any visibility restriction counts).
    pub is_pub: bool,
    /// The item's own `cfg` predicates (one per `#[cfg(...)]` attribute).
    pub cfgs: Vec<Cfg>,
    /// Names of non-cfg attributes (`allow`, `derive`, `inline`, …).
    pub attrs: Vec<AttrInfo>,
    /// 1-based line where the item's first attribute-or-keyword token sits.
    pub line: u32,
    /// 1-based column of that token.
    pub col: u32,
    /// 1-based last line the item covers (closing brace / semicolon).
    pub end_line: u32,
    /// Token index range covering the whole item including its body.
    pub tokens: (usize, usize),
    /// For `const`/`static`: token index range of the initializer
    /// expression (between `=` and `;`).
    pub value_tokens: Option<(usize, usize)>,
    /// Nested items (for `mod`, `impl`, `trait`).
    pub children: Vec<Item>,
}

/// One non-cfg attribute on an item.
#[derive(Debug)]
pub struct AttrInfo {
    /// The attribute's path root (`allow`, `derive`, `cfg_attr`, …).
    pub name: String,
    /// 1-based line of the `#` token.
    pub line: u32,
    /// 1-based column of the `#` token.
    pub col: u32,
}

impl Item {
    /// Whether this item's own `cfg` attributes restrict it to test builds.
    pub fn own_test(&self) -> bool {
        self.cfgs.iter().any(Cfg::definitely_test)
    }
}

/// One parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators
    /// (`crates/net/src/world.rs`).
    pub rel_path: String,
    /// The file's full text.
    pub source: String,
    /// The file's code tokens.
    pub tokens: Vec<Token>,
    /// The file's comments.
    pub comments: Vec<Comment>,
    /// Top-level items.
    pub items: Vec<Item>,
    /// Whether the whole file is test scope (under `tests/`, `benches/`,
    /// or `examples/`).
    pub all_tests: bool,
    /// `test_lines[line - 1]` is true when the line is inside a
    /// `#[cfg(test)]` item (or the whole file is test scope).
    pub test_lines: Vec<bool>,
}

impl SourceFile {
    /// Whether 1-based `line` is test scope.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.all_tests
            || self
                .test_lines
                .get(line as usize - 1)
                .copied()
                .unwrap_or(false)
    }

    /// The trimmed text of 1-based `line` (used as the stable baseline
    /// key, so findings survive unrelated line-number drift).
    pub fn line_text(&self, line: u32) -> &str {
        self.source
            .lines()
            .nth(line as usize - 1)
            .unwrap_or("")
            .trim()
    }

    /// Depth-first iterator over all items (outer before inner).
    pub fn all_items(&self) -> Vec<&Item> {
        let mut out = Vec::new();
        fn walk<'a>(items: &'a [Item], out: &mut Vec<&'a Item>) {
            for item in items {
                out.push(item);
                walk(&item.children, out);
            }
        }
        walk(&self.items, &mut out);
        out
    }

    /// The innermost `fn` item whose span contains 1-based `line`.
    pub fn enclosing_fn(&self, line: u32) -> Option<&Item> {
        self.all_items()
            .into_iter()
            .filter(|i| i.kind == ItemKind::Fn && i.line <= line && line <= i.end_line)
            .max_by_key(|i| i.line)
    }
}

/// One crate's parsed sources.
#[derive(Debug)]
pub struct CrateSrc {
    /// The crate's directory name under `crates/` (`net`, `sim`, …).
    pub name: String,
    /// Parsed files under the crate's `src/`, sorted by path.
    pub files: Vec<SourceFile>,
}

/// The whole parsed workspace.
#[derive(Debug)]
pub struct Workspace {
    /// Parsed crates, sorted by name.
    pub crates: Vec<CrateSrc>,
}

impl Workspace {
    /// Loads and parses every `crates/*/src/**/*.rs` under `root`,
    /// skipping the crates in `skip` (the analyzer itself and the bench
    /// harness). Returns an error string on unreadable layout.
    pub fn load(root: &Path, skip: &[&str]) -> Result<Workspace, String> {
        let crates_dir = root.join("crates");
        let entries = std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
        let mut names: Vec<String> = entries
            .flatten()
            .filter(|e| e.path().is_dir())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| !skip.contains(&n.as_str()))
            .collect();
        names.sort();
        let mut crates = Vec::new();
        for name in names {
            let src = crates_dir.join(&name).join("src");
            if !src.is_dir() {
                continue;
            }
            let mut files = Vec::new();
            collect_rs_files(&src, root, &mut files)?;
            files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
            crates.push(CrateSrc { name, files });
        }
        Ok(Workspace { crates })
    }

    /// Parses a single in-memory file into a one-crate workspace —
    /// the unit-test entry point for rule fixtures.
    pub fn from_source(crate_name: &str, rel_path: &str, source: &str) -> Workspace {
        Workspace {
            crates: vec![CrateSrc {
                name: crate_name.to_string(),
                files: vec![parse_file(rel_path.to_string(), source.to_string())],
            }],
        }
    }
}

fn collect_rs_files(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(parse_file(rel, text));
        }
    }
    Ok(())
}

/// Lexes and item-parses one file.
pub fn parse_file(rel_path: String, source: String) -> SourceFile {
    let lexer::Lexed { tokens, comments } = lexer::lex(&source);
    let all_tests = {
        let p = rel_path.as_str();
        p.contains("/tests/") || p.contains("/benches/") || p.contains("/examples/")
    };
    let mut parser = Parser {
        tokens: &tokens,
        source: &source,
        pos: 0,
    };
    let items = parser.parse_items(usize::MAX);
    let line_count = source.lines().count().max(1);
    let mut test_lines = vec![false; line_count];
    mark_test_lines(&items, false, &mut test_lines);
    SourceFile {
        rel_path,
        source,
        tokens,
        comments,
        items,
        all_tests,
        test_lines,
    }
}

fn mark_test_lines(items: &[Item], inherited: bool, lines: &mut Vec<bool>) {
    for item in items {
        let test = inherited || item.own_test();
        if test {
            let from = item.line as usize - 1;
            let to = (item.end_line as usize).min(lines.len());
            for flag in &mut lines[from..to] {
                *flag = true;
            }
        }
        mark_test_lines(&item.children, test, lines);
    }
}

struct Parser<'a> {
    tokens: &'a [Token],
    source: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn text(&self, idx: usize) -> &'a str {
        self.tokens[idx].text(self.source)
    }

    fn peek_text(&self) -> Option<&'a str> {
        self.tokens.get(self.pos).map(|t| t.text(self.source))
    }

    /// Parses items until `end` (exclusive token index) or a `}` closing
    /// the current scope.
    fn parse_items(&mut self, end: usize) -> Vec<Item> {
        let mut items = Vec::new();
        while self.pos < self.tokens.len().min(end) {
            if self.peek_text() == Some("}") {
                break;
            }
            match self.parse_item() {
                Some(item) => items.push(item),
                // Not an item start: skip one token and keep going (robust
                // against constructs the parser does not model).
                None => self.pos += 1,
            }
        }
        items
    }

    fn parse_item(&mut self) -> Option<Item> {
        let start = self.pos;
        let start_tok = self.tokens.get(self.pos)?;
        let (line, col) = (start_tok.line, start_tok.col);
        let mut cfgs = Vec::new();
        let mut attrs = Vec::new();
        // Attributes: `#[...]` (outer) and `#![...]` (inner, attached to
        // the enclosing scope — recorded but otherwise skipped).
        while self.peek_text() == Some("#") {
            let hash_tok = &self.tokens[self.pos];
            let (h_line, h_col) = (hash_tok.line, hash_tok.col);
            self.pos += 1;
            let inner = self.peek_text() == Some("!");
            if inner {
                self.pos += 1;
            }
            if self.peek_text() != Some("[") {
                continue;
            }
            let close = self.matching(self.pos, "[", "]");
            let body_start = self.pos + 1;
            let name = if body_start < close {
                self.text(body_start).to_string()
            } else {
                String::new()
            };
            if name == "cfg" {
                // cfg ( … ) — predicate tokens sit between the parens.
                if body_start + 1 < close && self.text(body_start + 1) == "(" {
                    let pred_close = self.matching(body_start + 1, "(", ")");
                    if let Some(c) = cfg::parse(
                        &self.tokens[body_start + 2..pred_close.min(close)],
                        self.source,
                    ) {
                        cfgs.push(c);
                    }
                }
            } else if !name.is_empty() {
                attrs.push(AttrInfo {
                    name,
                    line: h_line,
                    col: h_col,
                });
            }
            self.pos = (close + 1).min(self.tokens.len());
        }
        // Visibility and leading modifiers.
        let mut is_pub = false;
        loop {
            match self.peek_text() {
                Some("pub") => {
                    is_pub = true;
                    self.pos += 1;
                    if self.peek_text() == Some("(") {
                        self.pos = self.matching(self.pos, "(", ")") + 1;
                    }
                }
                Some("unsafe" | "async" | "default") => self.pos += 1,
                Some("extern") => {
                    self.pos += 1;
                    // `extern "C" fn` / `extern crate foo;`
                    if self
                        .tokens
                        .get(self.pos)
                        .is_some_and(|t| t.kind == TokenKind::Str)
                    {
                        self.pos += 1;
                    }
                }
                Some("const") => {
                    // `const fn` is a modifier; `const NAME` is an item.
                    if self.tokens.get(self.pos + 1).map(|t| t.text(self.source)) == Some("fn") {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        let kw = self.peek_text()?;
        let item = match kw {
            "mod" => {
                self.pos += 1;
                let name = self.peek_text().unwrap_or("").to_string();
                self.pos += 1;
                let children = if self.peek_text() == Some("{") {
                    self.pos += 1; // `{`
                    let children = self.parse_items(usize::MAX);
                    if self.peek_text() == Some("}") {
                        self.pos += 1;
                    }
                    children
                } else {
                    // `mod name;`
                    self.skip_past_semicolon();
                    Vec::new()
                };
                self.make(
                    ItemKind::Mod,
                    name,
                    is_pub,
                    cfgs,
                    attrs,
                    line,
                    col,
                    start,
                    None,
                    children,
                )
            }
            "fn" => {
                self.pos += 1;
                let name = self.peek_text().unwrap_or("").to_string();
                self.pos += 1;
                // Skip the signature: everything up to the body `{` (or a
                // `;` for a bodiless trait method) at bracket depth 0.
                let mut depth = 0i32;
                loop {
                    match self.peek_text() {
                        None => break,
                        Some("(") | Some("[") => {
                            depth += 1;
                            self.pos += 1;
                        }
                        Some(")") | Some("]") => {
                            depth -= 1;
                            self.pos += 1;
                        }
                        Some("{") if depth == 0 => {
                            self.pos = self.matching(self.pos, "{", "}") + 1;
                            break;
                        }
                        Some(";") if depth == 0 => {
                            self.pos += 1;
                            break;
                        }
                        Some(_) => self.pos += 1,
                    }
                }
                self.make(
                    ItemKind::Fn,
                    name,
                    is_pub,
                    cfgs,
                    attrs,
                    line,
                    col,
                    start,
                    None,
                    Vec::new(),
                )
            }
            "struct" | "enum" | "union" => {
                self.pos += 1;
                let name = self.peek_text().unwrap_or("").to_string();
                self.skip_body_or_semicolon();
                self.make(
                    ItemKind::Type,
                    name,
                    is_pub,
                    cfgs,
                    attrs,
                    line,
                    col,
                    start,
                    None,
                    Vec::new(),
                )
            }
            "impl" | "trait" => {
                let kind = if kw == "impl" {
                    ItemKind::Impl
                } else {
                    ItemKind::Trait
                };
                self.pos += 1;
                // Name: first identifier token before the body (good enough
                // for reporting; `impl<T> Foo<T> for Bar` names `T`…
                // acceptable, rules only use fn/const/mod names).
                let mut name = String::new();
                while let Some(t) = self.peek_text() {
                    if t == "{" {
                        break;
                    }
                    if name.is_empty()
                        && self.tokens[self.pos].kind == TokenKind::Ident
                        && !KEYWORDS.contains(&t)
                    {
                        name = t.to_string();
                    }
                    self.pos += 1;
                }
                let children = if self.peek_text() == Some("{") {
                    self.pos += 1;
                    let children = self.parse_items(usize::MAX);
                    if self.peek_text() == Some("}") {
                        self.pos += 1;
                    }
                    children
                } else {
                    Vec::new()
                };
                self.make(
                    kind, name, is_pub, cfgs, attrs, line, col, start, None, children,
                )
            }
            "const" | "static" => {
                self.pos += 1;
                if self.peek_text() == Some("mut") {
                    self.pos += 1;
                }
                let name = self.peek_text().unwrap_or("").to_string();
                self.pos += 1;
                // Find `=` then capture initializer tokens to the `;`.
                let mut value_tokens = None;
                let mut depth = 0i32;
                while let Some(t) = self.peek_text() {
                    match t {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "=" if depth == 0 => {
                            let vstart = self.pos + 1;
                            self.pos += 1;
                            while let Some(t2) = self.peek_text() {
                                match t2 {
                                    "(" | "[" | "{" => depth += 1,
                                    ")" | "]" | "}" => depth -= 1,
                                    ";" if depth == 0 => break,
                                    _ => {}
                                }
                                self.pos += 1;
                            }
                            value_tokens = Some((vstart, self.pos));
                            break;
                        }
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    self.pos += 1;
                }
                if self.peek_text() == Some(";") {
                    self.pos += 1;
                }
                self.make(
                    ItemKind::Const,
                    name,
                    is_pub,
                    cfgs,
                    attrs,
                    line,
                    col,
                    start,
                    value_tokens,
                    Vec::new(),
                )
            }
            "use" | "type" => {
                self.pos += 1;
                let name = self.peek_text().unwrap_or("").to_string();
                self.skip_past_semicolon();
                self.make(
                    ItemKind::Use,
                    name,
                    is_pub,
                    cfgs,
                    attrs,
                    line,
                    col,
                    start,
                    None,
                    Vec::new(),
                )
            }
            "macro_rules" => {
                self.pos += 1; // macro_rules
                if self.peek_text() == Some("!") {
                    self.pos += 1;
                }
                let name = self.peek_text().unwrap_or("").to_string();
                self.pos += 1;
                if self.peek_text() == Some("{") {
                    self.pos = self.matching(self.pos, "{", "}") + 1;
                }
                self.make(
                    ItemKind::Macro,
                    name,
                    is_pub,
                    cfgs,
                    attrs,
                    line,
                    col,
                    start,
                    None,
                    Vec::new(),
                )
            }
            _ => {
                // Possibly a macro invocation item (`foo!( … );`) — or
                // something the parser does not model. Consume attributes'
                // work by skipping one token; parse_items will continue.
                if self.tokens[self.pos].kind == TokenKind::Ident
                    && self.tokens.get(self.pos + 1).map(|t| t.text(self.source)) == Some("!")
                {
                    let name = self.peek_text().unwrap_or("").to_string();
                    self.pos += 2;
                    match self.peek_text() {
                        Some("(") => {
                            self.pos = self.matching(self.pos, "(", ")") + 1;
                            self.skip_past_semicolon();
                        }
                        Some("{") => self.pos = self.matching(self.pos, "{", "}") + 1,
                        Some("[") => {
                            self.pos = self.matching(self.pos, "[", "]") + 1;
                            self.skip_past_semicolon();
                        }
                        _ => self.pos += 1,
                    }
                    return Some(self.make(
                        ItemKind::Macro,
                        name,
                        is_pub,
                        cfgs,
                        attrs,
                        line,
                        col,
                        start,
                        None,
                        Vec::new(),
                    ));
                }
                return None;
            }
        };
        Some(item)
    }

    #[allow(clippy::too_many_arguments)] // plain constructor plumbing
    fn make(
        &self,
        kind: ItemKind,
        name: String,
        is_pub: bool,
        cfgs: Vec<Cfg>,
        attrs: Vec<AttrInfo>,
        line: u32,
        col: u32,
        start: usize,
        value_tokens: Option<(usize, usize)>,
        children: Vec<Item>,
    ) -> Item {
        let end_line = self
            .tokens
            .get(self.pos.saturating_sub(1))
            .map(|t| t.line)
            .unwrap_or(line);
        Item {
            kind,
            name,
            is_pub,
            cfgs,
            attrs,
            line,
            col,
            end_line,
            tokens: (start, self.pos),
            value_tokens,
            children,
        }
    }

    /// Index of the token closing the group opened at `open_idx`
    /// (which must hold `open`). Returns the last token index when
    /// unbalanced.
    fn matching(&self, open_idx: usize, open: &str, close: &str) -> usize {
        let mut depth = 0usize;
        let mut i = open_idx;
        while i < self.tokens.len() {
            let t = self.text(i);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        self.tokens.len().saturating_sub(1)
    }

    /// Skips to just past the next `;` at bracket depth 0.
    fn skip_past_semicolon(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek_text() {
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        return; // closing an enclosing scope: stop short
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => {
                    self.pos += 1;
                    return;
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Skips a `{…}` body, a tuple-struct `(…);`, or a bare `;`.
    fn skip_body_or_semicolon(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek_text() {
            match t {
                "{" if depth == 0 => {
                    self.pos = self.matching(self.pos, "{", "}") + 1;
                    return;
                }
                ";" if depth == 0 => {
                    self.pos += 1;
                    return;
                }
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                _ => {}
            }
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        parse_file("crates/x/src/lib.rs".to_string(), src.to_string())
    }

    #[test]
    fn nontrailing_test_module_is_test_scope() {
        // The regression the old line-based auditor got wrong: a test
        // module that is NOT the last item left everything after it
        // exempt. The parser scopes it precisely.
        let src = "\
#[cfg(test)]
mod tests {
    fn helper() { x.unwrap(); }
}

pub fn library_code() {
    y.unwrap();
}
";
        let file = parse(src);
        assert!(file.is_test_line(3), "inside the test module");
        assert!(
            !file.is_test_line(7),
            "library code after the test module is NOT test scope"
        );
    }

    #[test]
    fn trailing_test_module_still_works() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let file = parse(src);
        assert!(!file.is_test_line(1));
        assert!(file.is_test_line(4));
    }

    #[test]
    fn const_values_are_captured() {
        let src = "pub const FAULT_STREAM_SALT: u64 = 0xFA17_1A11;\n";
        let file = parse(src);
        let item = &file.items[0];
        assert_eq!(item.kind, ItemKind::Const);
        assert_eq!(item.name, "FAULT_STREAM_SALT");
        let (s, e) = item.value_tokens.expect("initializer captured");
        assert_eq!(e - s, 1);
        assert_eq!(file.tokens[s].text(&file.source), "0xFA17_1A11");
    }

    #[test]
    fn impl_methods_are_children() {
        let src = "struct S;\nimpl S {\n    pub fn m(&self) {}\n    fn p(&self) {}\n}\n";
        let file = parse(src);
        let imp = file
            .items
            .iter()
            .find(|i| i.kind == ItemKind::Impl)
            .expect("impl parsed");
        assert_eq!(imp.children.len(), 2);
        assert!(imp.children[0].is_pub);
        assert!(!imp.children[1].is_pub);
    }

    #[test]
    fn enclosing_fn_finds_innermost() {
        let src = "pub fn outer() {\n    let x = 1;\n}\npub fn later() {\n    let y = 2;\n}\n";
        let file = parse(src);
        assert_eq!(file.enclosing_fn(2).expect("in outer").name, "outer");
        assert_eq!(file.enclosing_fn(5).expect("in later").name, "later");
    }

    #[test]
    fn nested_cfg_all_combinations() {
        let src = "#[cfg(all(test, feature = \"audit\"))]\nmod harness {\n    fn h() {}\n}\n";
        let file = parse(src);
        assert!(file.is_test_line(3), "all(test, …) is test scope");
    }

    #[test]
    fn attributes_are_recorded() {
        let src = "#[allow(dead_code)]\n#[inline]\nfn f() {}\n";
        let file = parse(src);
        let names: Vec<_> = file.items[0]
            .attrs
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, vec!["allow", "inline"]);
    }

    #[test]
    fn files_under_tests_are_all_test_scope() {
        let file = parse_file(
            "crates/x/tests/e2e.rs".to_string(),
            "fn f() { x.unwrap(); }\n".to_string(),
        );
        assert!(file.all_tests);
        assert!(file.is_test_line(1));
    }
}
