//! A lightweight syntactic item model on top of [`crate::lexer`].
//!
//! The lexer gives rules a per-line `{code, comment, doc, in_test}`
//! view; this module recovers the *item structure* above those lines —
//! which `fn`/`impl`/`trait`/`mod` a line lives in, what the file's
//! `use` statements alias, and which paths each function calls — and
//! joins the items of every file into a workspace-level callable index.
//!
//! That is deliberately **not** a Rust parser. Spans come from brace
//! tracking over scrubbed code (string and comment braces are already
//! blanked, so depth never desynchronises), names from token scans of
//! the item header, and calls from `ident(` / `path::ident(` /
//! `.method(` shapes. The model is approximate in ways that do not
//! matter for linting: generics are stripped, macro bodies are opaque,
//! and an unresolvable call simply does not propagate. What it buys is
//! the class of rule PR 8's lexical pass could not express — *cross-file
//! determinism rules* like "no wake scheduling reachable from endpoint
//! code outside the driver", where the offence depends on which item a
//! line sits in and what that item transitively calls.

use crate::lexer::{find_token, is_ident_char, Line};
use crate::rules::FileView;
use std::collections::BTreeMap;

/// The item kinds the model distinguishes. `Other` covers `struct` /
/// `enum` / `union` headers — tracked only so their attributes (e.g.
/// `#[deprecated]`) attach to the right item and never leak forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// A function or method (the only kind that carries calls).
    Fn,
    /// An `impl` block; the item's `name` is the implementing type.
    Impl,
    /// A `trait` definition.
    Trait,
    /// An inline `mod` block.
    Mod,
    /// A `struct` / `enum` / `union` definition.
    Other,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// 0-based line of the call.
    pub line: usize,
    /// The called path: `rearm`, `driver::schedule_endpoint_timer`,
    /// `Sim::schedule_app` — or a bare method name for `.method(` calls.
    pub path: String,
    /// Whether this was a `.method(` call (dot dispatch, receiver type
    /// unknown) rather than a path call.
    pub method: bool,
}

/// One syntactic item: a span of lines plus header-derived facts.
#[derive(Debug, Clone)]
pub struct Item {
    /// What kind of item this is.
    pub kind: ItemKind,
    /// The header name: fn name, impl target type, trait/mod name.
    pub name: String,
    /// Fully qualified display path, e.g. `doh::driver::Driver::resolve`.
    pub path: String,
    /// First line of the item's attached doc/attribute block (0-based).
    pub doc_start: usize,
    /// Header line (0-based).
    pub start: usize,
    /// Last line of the item (closing brace or `;`), inclusive, 0-based.
    pub end: usize,
    /// Whether the item carries a `#[deprecated]` attribute.
    pub deprecated: bool,
    /// Calls extracted from the body (populated for `Fn` items only).
    pub calls: Vec<Call>,
}

/// The per-file half of the model: module path, alias map, items.
#[derive(Debug, Clone)]
pub struct FileModel {
    /// Module path derived from the workspace-relative file path,
    /// e.g. `crates/doh/src/driver.rs` → `doh::driver`.
    pub module: String,
    /// `use`-alias map: last-segment alias → full imported path
    /// (`Driver` → `crate::driver::Driver`).
    pub aliases: BTreeMap<String, String>,
    /// Items in source order. Nested items (a fn inside an impl) appear
    /// after their container; spans overlap.
    pub items: Vec<Item>,
}

/// The workspace-level model: every file's items plus a callable index
/// joining them across files.
pub struct Workspace<'a> {
    /// The scrubbed files, parallel to [`Workspace::files`].
    pub views: &'a [FileView],
    /// Per-file item models, parallel to `views`.
    pub files: Vec<FileModel>,
    /// Callable index: fully qualified `Fn` item path → (file index,
    /// item index), joined across every file in the workspace.
    index: BTreeMap<String, (usize, usize)>,
    /// The highest PR recorded as landed (0 when unknown) — the deadline
    /// `shim-expiry` holds `remove-by: PR <n>` markers to.
    pub landed_pr: u32,
}

impl<'a> Workspace<'a> {
    /// Builds the model over every scrubbed file.
    pub fn build(views: &'a [FileView]) -> Workspace<'a> {
        let files: Vec<FileModel> = views.iter().map(|v| parse_file(&v.rel, &v.lines)).collect();
        let mut index = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (ii, item) in file.items.iter().enumerate() {
                if item.kind == ItemKind::Fn && !item.name.is_empty() {
                    index.insert(item.path.clone(), (fi, ii));
                }
            }
        }
        Workspace { views, files, index, landed_pr: 0 }
    }

    /// The innermost `Fn` item covering `line` in file `fi`, else the
    /// innermost item of any kind, else `None` (file-level code).
    pub fn item_at(&self, fi: usize, line: usize) -> Option<&Item> {
        let items = &self.files[fi].items;
        let covering = |i: &&Item| i.start <= line && line <= i.end;
        items
            .iter()
            .filter(covering)
            .filter(|i| i.kind == ItemKind::Fn)
            .min_by_key(|i| i.end - i.start)
            .or_else(|| items.iter().filter(covering).min_by_key(|i| i.end - i.start))
    }

    /// The display path of the innermost item covering `line`, or the
    /// file's module path for file-level lines.
    pub fn enclosing_path(&self, fi: usize, line: usize) -> String {
        self.item_at(fi, line)
            .map(|i| i.path.clone())
            .unwrap_or_else(|| self.files[fi].module.clone())
    }

    /// Resolves a call made from file `fi` by item `caller` to a `Fn`
    /// item in the index, if the model can name its target.
    ///
    /// Resolution tries, in order: the caller's own impl block (`.m()` →
    /// `module::Type::m`), the file's module (`helper` →
    /// `module::helper`), the file's `use`-alias map with `crate::` /
    /// `self::` normalised, the path joined onto the module
    /// (`driver::f` from `doh` → `doh::driver::f`), and finally a unique
    /// `::`-suffix match across the workspace. Dot-method calls only try
    /// the first step — the receiver's type is unknown.
    pub fn resolve(&self, fi: usize, caller: Option<&Item>, call: &Call) -> Option<(usize, usize)> {
        let file = &self.files[fi];
        let module = &file.module;
        let last = call.path.rsplit("::").next().unwrap_or(&call.path);
        // Same-impl method or associated call.
        if let Some(container) = caller.and_then(|c| impl_of(&c.path, &c.name)) {
            if let Some(&hit) = self.index.get(&format!("{container}::{last}")) {
                return Some(hit);
            }
        }
        if call.method {
            return None;
        }
        // Free function in the same module.
        if !call.path.contains("::") {
            if let Some(&hit) = self.index.get(&format!("{module}::{}", call.path)) {
                return Some(hit);
            }
        }
        // Alias-expanded, with `crate`/`self` normalised to this file's
        // crate root / module.
        let root = module.split("::").next().unwrap_or(module);
        let first = call.path.split("::").next().unwrap_or(&call.path);
        let expanded = match file.aliases.get(first) {
            Some(full) => format!("{full}{}", call.path.strip_prefix(first).unwrap_or("")),
            None => call.path.clone(),
        };
        let normalised = expanded
            .strip_prefix("crate::")
            .map(|r| format!("{root}::{r}"))
            .or_else(|| expanded.strip_prefix("self::").map(|r| format!("{module}::{r}")))
            .unwrap_or(expanded);
        if let Some(&hit) = self.index.get(&normalised) {
            return Some(hit);
        }
        // Path relative to the current module (`driver::f` inside `doh`).
        if let Some(&hit) = self.index.get(&format!("{module}::{normalised}")) {
            return Some(hit);
        }
        // Unique suffix match across the workspace.
        let suffix = format!("::{normalised}");
        let mut matches = self.index.iter().filter(|(k, _)| k.ends_with(&suffix));
        match (matches.next(), matches.next()) {
            (Some((_, &hit)), None) => Some(hit),
            _ => None,
        }
    }
}

/// The `Type` prefix of `path` when the item is a method of `Type` —
/// i.e. `path` ends with `::Type::name` for the item's own `name`.
fn impl_of(path: &str, name: &str) -> Option<String> {
    let prefix = path.strip_suffix(name)?.strip_suffix("::")?;
    let ty = prefix.rsplit("::").next()?;
    ty.chars().next().filter(|c| c.is_ascii_uppercase())?;
    Some(prefix.to_string())
}

/// Derives a module path from a workspace-relative file path:
/// `crates/doh/src/driver.rs` → `doh::driver`, `crates/doh/src/lib.rs`
/// → `doh`, `src/lib.rs` → `dohmark`, `examples/quickstart.rs` →
/// `examples::quickstart`; `-` becomes `_` as cargo does.
pub fn module_path(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    let stem = |s: &str| s.trim_end_matches(".rs").replace('-', "_");
    let join = |head: String, rest: &[&str]| {
        let mut p = head;
        for seg in rest {
            p.push_str("::");
            p.push_str(&stem(seg));
        }
        p
    };
    match parts.as_slice() {
        ["crates", krate, "src", "lib.rs"] => stem(krate),
        ["crates", krate, "src", rest @ ..] => join(stem(krate), rest),
        ["crates", krate, kind, rest @ ..] => {
            join(format!("{}::{}", stem(krate), stem(kind)), rest)
        }
        ["src", "lib.rs"] => "dohmark".to_string(),
        _ => join(String::new(), parts.as_slice()).trim_start_matches("::").to_string(),
    }
}

/// Keywords that look like `ident(` call sites but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "in", "as", "move", "let",
    "mut", "ref", "dyn", "impl", "where", "unsafe", "pub", "crate", "super", "self", "Self", "use",
    "mod", "struct", "enum", "union", "trait", "type", "const", "static",
];

/// A pending item header being accumulated until its `{` or a `;` at
/// paren/bracket nesting zero.
struct Pending {
    kind: ItemKind,
    header: String,
    doc_start: usize,
    start: usize,
    deprecated: bool,
    nest: i32,
}

/// Parses one scrubbed file into its [`FileModel`].
pub fn parse_file(rel: &str, lines: &[Line]) -> FileModel {
    let module = module_path(rel);
    let mut aliases = BTreeMap::new();
    let mut items: Vec<Item> = Vec::new();
    // Indices into `items` of the currently open containers, with the
    // brace depth at which each opened.
    let mut stack: Vec<(usize, i64)> = Vec::new();
    let mut depth: i64 = 0;
    let mut pending: Option<Pending> = None;
    // First line of the doc/attribute block that will attach to the
    // next item header, plus whether it contained `#[deprecated`.
    let mut meta_start: Option<usize> = None;
    let mut meta_deprecated = false;
    // Multi-line `use` statements accumulate until their `;`.
    let mut use_buf: Option<String> = None;

    for (ln, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        let trimmed = code.trim();

        if let Some(buf) = use_buf.as_mut() {
            buf.push(' ');
            buf.push_str(trimmed);
            if trimmed.contains(';') {
                record_use(buf, &mut aliases);
                use_buf = None;
            }
            continue;
        }

        if pending.is_none() {
            // Track the doc/attribute block. Attributes may span lines
            // (a multi-line `#[deprecated(note = "…")]` leaves a `")]`
            // residue), so only clearly-complete statements detach it.
            let doc_or_comment = !line.doc.trim().is_empty() || !line.comment.trim().is_empty();
            if meta_start.is_none()
                && (trimmed.starts_with("#[") || (trimmed.is_empty() && doc_or_comment))
            {
                meta_start = Some(ln);
            }
            if code.contains("#[deprecated") {
                meta_deprecated = true;
            }
            let blank = trimmed.is_empty() && !doc_or_comment;
            let statement = trimmed.ends_with(';') && !trimmed.starts_with("#[");
            if let Some(body) = use_stmt(trimmed) {
                if trimmed.contains(';') {
                    record_use(body, &mut aliases);
                } else {
                    use_buf = Some(body.to_string());
                }
                meta_start = None;
                meta_deprecated = false;
                continue;
            }
            if let Some(kind) = item_header(code) {
                pending = Some(Pending {
                    kind,
                    header: code.to_string(),
                    doc_start: meta_start.take().unwrap_or(ln),
                    start: ln,
                    deprecated: meta_deprecated,
                    nest: 0,
                });
                meta_deprecated = false;
            } else if blank || statement {
                meta_start = None;
                meta_deprecated = false;
            }
        } else if let Some(p) = pending.as_mut() {
            p.header.push(' ');
            p.header.push_str(code);
        }

        // Brace tracking with pending open/close.
        for c in code.chars() {
            if let Some(p) = pending.as_mut() {
                match c {
                    '(' | '[' => p.nest += 1,
                    ')' | ']' => p.nest -= 1,
                    ';' if p.nest == 0 => {
                        // A bodyless item: trait method decl, tuple or
                        // unit struct.
                        let p = pending.take().expect("pending checked above");
                        let mut item = open_item(p, &module, &items, &stack);
                        item.end = ln;
                        items.push(item);
                    }
                    '{' => {
                        let p = pending.take().expect("pending checked above");
                        let item = open_item(p, &module, &items, &stack);
                        items.push(item);
                        stack.push((items.len() - 1, depth));
                        depth += 1;
                    }
                    _ => {}
                }
                continue;
            }
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    while let Some(&(idx, d)) = stack.last() {
                        if depth <= d {
                            items[idx].end = ln;
                            stack.pop();
                        } else {
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    // Close anything left open at EOF (unbalanced input).
    let last = lines.len().saturating_sub(1);
    for (idx, _) in stack {
        items[idx].end = last;
    }
    if let Some(p) = pending.take() {
        let mut item = open_item(p, &module, &items, &[]);
        item.end = last;
        items.push(item);
    }

    // Second pass: attribute each line's calls to the innermost `Fn`
    // item covering it (header param lists produce no call shapes, so
    // scanning whole spans is safe).
    let mut extracted: Vec<(usize, Call)> = Vec::new();
    for (ln, line) in lines.iter().enumerate() {
        let target = items
            .iter()
            .enumerate()
            .filter(|(_, i)| i.kind == ItemKind::Fn && i.start <= ln && ln <= i.end)
            .min_by_key(|(_, i)| i.end - i.start)
            .map(|(idx, _)| idx);
        if let Some(idx) = target {
            let mut calls = Vec::new();
            extract_calls(&line.code, ln, &mut calls);
            extracted.extend(calls.into_iter().map(|c| (idx, c)));
        }
    }
    for (idx, call) in extracted {
        items[idx].calls.push(call);
    }
    FileModel { module, aliases, items }
}

/// Finalises a pending header into an [`Item`] (`end` is patched when
/// the closing brace is seen).
fn open_item(p: Pending, module: &str, items: &[Item], stack: &[(usize, i64)]) -> Item {
    let name = header_name(p.kind, &p.header).unwrap_or_default();
    let mut path = module.to_string();
    for &(idx, _) in stack {
        let it = &items[idx];
        if !it.name.is_empty() && it.kind != ItemKind::Other {
            path.push_str("::");
            path.push_str(&it.name);
        }
    }
    if !name.is_empty() {
        path.push_str("::");
        path.push_str(&name);
    }
    Item {
        kind: p.kind,
        name,
        path,
        doc_start: p.doc_start,
        start: p.start,
        end: p.start,
        deprecated: p.deprecated,
        calls: Vec::new(),
    }
}

/// The `use` statement body (`use` keyword onward) if this line starts
/// one, tolerating `pub` / `pub(crate)` / `pub(super)` prefixes.
fn use_stmt(trimmed: &str) -> Option<&str> {
    let pos = find_token(trimmed, "use", 0)?;
    let prefix = trimmed[..pos].trim();
    matches!(prefix, "" | "pub" | "pub(crate)" | "pub(super)" | "pub(in crate)")
        .then(|| &trimmed[pos..])
}

/// Does this line's code open an item header? Checks `fn` / `impl` /
/// `trait` / `mod` / `struct` / `enum` / `union` keyword tokens,
/// rejecting type-position uses (`: fn(…)`, `-> impl Trait`, `<dyn …`).
fn item_header(code: &str) -> Option<ItemKind> {
    for (kw, kind) in [
        ("fn", ItemKind::Fn),
        ("impl", ItemKind::Impl),
        ("trait", ItemKind::Trait),
        ("mod", ItemKind::Mod),
        ("struct", ItemKind::Other),
        ("enum", ItemKind::Other),
        ("union", ItemKind::Other),
    ] {
        if let Some(pos) = find_token(code, kw, 0) {
            let before = code[..pos].trim_end();
            if before.ends_with(['.', '<', ':', '&', '(', ',', '=', '|', '>']) {
                continue;
            }
            return Some(kind);
        }
    }
    None
}

/// Extracts the item's name from its full header text.
fn header_name(kind: ItemKind, header: &str) -> Option<String> {
    match kind {
        ItemKind::Fn => ident_after(header, "fn"),
        ItemKind::Trait => ident_after(header, "trait"),
        ItemKind::Mod => ident_after(header, "mod"),
        ItemKind::Other => ident_after(header, "struct")
            .or_else(|| ident_after(header, "enum"))
            .or_else(|| ident_after(header, "union")),
        ItemKind::Impl => {
            // `impl<…> Type<…> {` or `impl<…> Trait for Type<…> {` —
            // the implementing type is the path after the `for` when one
            // is present, else the first path after the generics.
            let pos = find_token(header, "impl", 0)?;
            let mut rest = header[pos + 4..].trim_start();
            if rest.starts_with('<') {
                let mut angle = 0usize;
                let mut cut = rest.len();
                for (i, c) in rest.char_indices() {
                    match c {
                        '<' => angle += 1,
                        '>' => {
                            angle -= 1;
                            if angle == 0 {
                                cut = i + 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                rest = rest[cut..].trim_start();
            }
            let rest = match find_token(rest, "for", 0) {
                Some(fp) => rest[fp + 3..].trim_start(),
                None => rest,
            };
            let path: String = rest.chars().take_while(|&c| is_ident_char(c) || c == ':').collect();
            let name = path.rsplit("::").next().unwrap_or(&path).to_string();
            (!name.is_empty()).then_some(name)
        }
    }
}

/// The identifier token directly after keyword `kw`, if any.
fn ident_after(code: &str, kw: &str) -> Option<String> {
    let pos = find_token(code, kw, 0)?;
    let rest = code[pos + kw.len()..].trim_start();
    let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
    (!name.is_empty()).then_some(name)
}

/// Records the aliases a `use` statement introduces. Handles `as`
/// renames and nested `{…}` grouping.
fn record_use(stmt: &str, aliases: &mut BTreeMap<String, String>) {
    let Some(body) = stmt.trim().strip_prefix("use ") else { return };
    record_use_tree("", body.trim_end_matches(';').trim(), aliases);
}

fn record_use_tree(prefix: &str, tree: &str, aliases: &mut BTreeMap<String, String>) {
    let tree = tree.trim();
    if let Some(open) = tree.find('{') {
        // `path::{a, b::c, d as e}` — recurse on each comma-split arm at
        // this nesting level.
        let base = format!("{prefix}{}", &tree[..open]);
        let inner = tree[open + 1..].trim_end().trim_end_matches('}');
        let mut nest = 0usize;
        let mut start = 0usize;
        for (i, c) in inner.char_indices() {
            match c {
                '{' => nest += 1,
                '}' => nest = nest.saturating_sub(1),
                ',' if nest == 0 => {
                    record_use_tree(&base, &inner[start..i], aliases);
                    start = i + 1;
                }
                _ => {}
            }
        }
        record_use_tree(&base, &inner[start..], aliases);
        return;
    }
    let (path, alias) = match tree.split_once(" as ") {
        Some((p, a)) => (p.trim(), a.trim().to_string()),
        None => {
            let p = tree.trim();
            (p, p.rsplit("::").next().unwrap_or(p).to_string())
        }
    };
    if path.is_empty() || alias.is_empty() || alias == "*" || alias == "_" {
        return;
    }
    aliases.insert(alias, format!("{prefix}{path}"));
}

/// Extracts `ident(`, `a::b::ident(` and `.method(` call shapes from one
/// scrubbed code line into `out`. Macro calls (`ident!(`) and keyword
/// heads (`if (…)`) are skipped; tuple-struct constructors (`Some(…)`)
/// come through but resolve to nothing.
pub fn extract_calls(code: &str, line: usize, out: &mut Vec<Call>) {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'(' {
            continue;
        }
        // Walk back over the path: idents and `::` separators.
        let mut j = i;
        while j > 0 {
            let c = bytes[j - 1] as char;
            if is_ident_char(c) {
                j -= 1;
            } else if c == ':' && j >= 2 && bytes[j - 2] == b':' {
                j -= 2;
            } else {
                break;
            }
        }
        if j == i {
            continue; // `(` with no path before it
        }
        let path = &code[j..i];
        if path.starts_with(|c: char| c.is_ascii_digit()) || path.starts_with("::") {
            continue;
        }
        let last = path.rsplit("::").next().unwrap_or(path);
        if NON_CALL_KEYWORDS.contains(&last) {
            continue;
        }
        let before = code[..j].trim_end();
        if before.ends_with('!') {
            continue; // macro
        }
        if before.ends_with("fn") {
            continue; // the definition site itself
        }
        let method = before.ends_with('.');
        out.push(Call { line, path: path.to_string(), method });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scrub;

    fn model(rel: &str, src: &str) -> FileModel {
        parse_file(rel, &scrub(src))
    }

    #[test]
    fn module_paths_follow_cargo_layout() {
        assert_eq!(module_path("crates/doh/src/lib.rs"), "doh");
        assert_eq!(module_path("crates/doh/src/driver.rs"), "doh::driver");
        assert_eq!(module_path("crates/dns-wire/src/jsontext.rs"), "dns_wire::jsontext");
        assert_eq!(module_path("crates/bench/src/bin/fig3.rs"), "bench::bin::fig3");
        assert_eq!(module_path("crates/bench/tests/fleet_scale.rs"), "bench::tests::fleet_scale");
        assert_eq!(module_path("src/lib.rs"), "dohmark");
        assert_eq!(module_path("examples/quickstart.rs"), "examples::quickstart");
    }

    #[test]
    fn fn_spans_paths_and_calls_are_recovered() {
        let src = "pub struct S;\n\
                   impl S {\n    pub fn a(&self) -> u32 {\n        helper(1)\n    }\n}\n\
                   fn helper(x: u32) -> u32 {\n    x\n}\n";
        let m = model("crates/doh/src/x.rs", src);
        let a = m.items.iter().find(|i| i.name == "a").expect("method a");
        assert_eq!(a.path, "doh::x::S::a");
        assert_eq!((a.start, a.end), (2, 4));
        assert_eq!(a.calls.len(), 1);
        assert_eq!(a.calls[0].path, "helper");
        let h = m.items.iter().find(|i| i.name == "helper").expect("fn helper");
        assert_eq!(h.path, "doh::x::helper");
        assert_eq!((h.start, h.end), (6, 8));
    }

    #[test]
    fn impl_trait_for_type_names_the_type() {
        let src = "impl<'a> Route for Broadcast<'a, 'a> {\n    fn deliver(&mut self) {}\n}\n";
        let m = model("crates/doh/src/driver.rs", src);
        let imp = m.items.iter().find(|i| i.kind == ItemKind::Impl).expect("impl");
        assert_eq!(imp.name, "Broadcast");
        let f = m.items.iter().find(|i| i.name == "deliver").expect("method");
        assert_eq!(f.path, "doh::driver::Broadcast::deliver");
    }

    #[test]
    fn multi_line_fn_headers_and_array_semicolons_resolve() {
        let src = "pub fn advance(\n    sim: &mut Sim,\n    buf: [u8; 4],\n) -> bool {\n    sim.next_wake_owned()\n        .is_some()\n}\n";
        let m = model("crates/doh/src/y.rs", src);
        let f = &m.items[0];
        assert_eq!(f.name, "advance");
        assert_eq!((f.start, f.end), (0, 6), "the `;` in [u8; 4] must not end the header");
        assert!(f.calls.iter().any(|c| c.method && c.path == "next_wake_owned"));
    }

    #[test]
    fn one_line_fns_still_carry_their_calls() {
        let m = model("crates/doh/src/z.rs", "fn f(sim: &mut Sim) { rearm(sim) }\n");
        assert_eq!(m.items[0].calls.len(), 1);
        assert_eq!(m.items[0].calls[0].path, "rearm");
    }

    #[test]
    fn use_trees_build_the_alias_map() {
        let src = "use crate::driver::{drain_routed, Broadcast as Bcast};\n\
                   pub use dohmark_netsim::{Sim, trace::CostMeter};\n\
                   use std::fmt;\n";
        let m = model("crates/doh/src/lib.rs", src);
        let get = |k: &str| m.aliases.get(k).map(String::as_str);
        assert_eq!(get("drain_routed"), Some("crate::driver::drain_routed"));
        assert_eq!(get("Bcast"), Some("crate::driver::Broadcast"));
        assert_eq!(get("CostMeter"), Some("dohmark_netsim::trace::CostMeter"));
        assert_eq!(get("fmt"), Some("std::fmt"));
    }

    #[test]
    fn multi_line_use_trees_do_not_desync_brace_depth() {
        let src = "use crate::driver::{\n    drain_routed,\n    Broadcast,\n};\n\
                   fn after() {\n    work();\n}\n";
        let m = model("crates/doh/src/lib.rs", src);
        assert!(m.aliases.contains_key("drain_routed"));
        let f = m.items.iter().find(|i| i.name == "after").expect("fn after");
        assert_eq!((f.start, f.end), (4, 6));
    }

    #[test]
    fn deprecated_attribute_attaches_to_its_item_only() {
        let src = "/// Docs.\n#[deprecated(note = \"gone \\\n                     soon\")]\npub fn old() {}\n\npub fn fresh() {}\n";
        let m = model("crates/doh/src/lib.rs", src);
        let old = m.items.iter().find(|i| i.name == "old").expect("old");
        assert!(old.deprecated);
        assert_eq!(old.doc_start, 0);
        let fresh = m.items.iter().find(|i| i.name == "fresh").expect("fresh");
        assert!(!fresh.deprecated);
    }

    #[test]
    fn calls_skip_macros_keywords_and_definitions() {
        let mut calls = Vec::new();
        extract_calls("    if ready(x) { done!(y); return make(z); }", 3, &mut calls);
        let paths: Vec<&str> = calls.iter().map(|c| c.path.as_str()).collect();
        assert_eq!(paths, vec!["ready", "make"]);
        calls.clear();
        extract_calls("    Sim::schedule_app(at, tok); sim.next_wake();", 0, &mut calls);
        assert_eq!((calls[0].path.as_str(), calls[0].method), ("Sim::schedule_app", false));
        assert_eq!((calls[1].path.as_str(), calls[1].method), ("next_wake", true));
    }

    #[test]
    fn workspace_resolves_cross_file_calls() {
        let a = FileView {
            rel: "crates/doh/src/lib.rs".into(),
            lines: scrub(
                "use crate::driver::drain_routed;\n\
                 pub fn pump(sim: &mut Sim) {\n    drain_routed(sim)\n}\n",
            ),
        };
        let b = FileView {
            rel: "crates/doh/src/driver.rs".into(),
            lines: scrub("pub fn drain_routed(sim: &mut Sim) {\n    sim.next_wake_owned();\n}\n"),
        };
        let views = vec![a, b];
        let ws = Workspace::build(&views);
        let pump = ws.files[0].items.iter().find(|i| i.name == "pump").expect("pump").clone();
        let call = pump.calls.iter().find(|c| c.path == "drain_routed").expect("call");
        let (fi, ii) = ws.resolve(0, Some(&pump), call).expect("resolves");
        assert_eq!(ws.files[fi].items[ii].path, "doh::driver::drain_routed");
    }

    #[test]
    fn same_impl_method_calls_resolve() {
        let src = "impl Endpoint {\n\
                   fn rearm(&self, sim: &mut Sim) {\n    sim.schedule_app(1, 2);\n}\n\
                   fn on_wake(&self, sim: &mut Sim) {\n    self.rearm(sim);\n}\n}\n";
        let views = vec![FileView { rel: "crates/doh/src/e.rs".into(), lines: scrub(src) }];
        let ws = Workspace::build(&views);
        let on_wake =
            ws.files[0].items.iter().find(|i| i.name == "on_wake").expect("on_wake").clone();
        let call = on_wake.calls.iter().find(|c| c.path == "rearm").expect("call");
        let (fi, ii) = ws.resolve(0, Some(&on_wake), call).expect("resolves");
        assert_eq!(ws.files[fi].items[ii].path, "doh::e::Endpoint::rearm");
    }

    #[test]
    fn item_at_prefers_the_innermost_fn() {
        let src = "impl S {\n    fn outer(&self) {\n        work();\n    }\n}\n";
        let views = vec![FileView { rel: "crates/doh/src/x.rs".into(), lines: scrub(src) }];
        let ws = Workspace::build(&views);
        assert_eq!(ws.enclosing_path(0, 2), "doh::x::S::outer");
        assert_eq!(ws.enclosing_path(0, 0), "doh::x::S");
    }
}
