//! Item-level parser: the second analysis stage on top of [`crate::lexer`].
//!
//! This is deliberately *not* a full Rust grammar. It recovers exactly
//! the structure the cross-crate rules (FM010–FM012) need:
//!
//! * `fn` items (free functions, inherent/trait-impl methods, trait
//!   default methods) with their visibility, source span, and body;
//! * `impl` blocks (`impl Type` and `impl Trait for Type`);
//! * `trait` definitions and their method names;
//! * `use` declarations (single names, `as` aliases, nested groups,
//!   glob imports) for intra-workspace path resolution;
//! * call expressions inside bodies — `path::to::f(…)`, `Type::assoc(…)`
//!   including turbofish, and `.method(…)` calls;
//! * taint *seeds* inside bodies: explicit panics (`unwrap`/`expect`/
//!   `panic!`-family), wall-clock reads (`Instant::now`, `SystemTime`),
//!   unseeded randomness (`thread_rng`, `from_entropy`, `rand::random`),
//!   and — under the pedantic knob — slice indexing and `/` `%` on
//!   non-literal divisors;
//! * `dyn Trait` sites for the FM012 dispatch rule.
//!
//! Expressions have no precedence and no types here; everything above is
//! recovered from the token stream plus brace/paren/bracket balancing.
//! Items inside `#[cfg(test)]` regions are skipped entirely — test code
//! is outside the contract.

use crate::lexer::{lex, mark_test_regions, Token, TokenKind};

/// Taint facts a seed can introduce (see [`crate::taint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SeedKind {
    /// `unwrap()`, `expect()`, `panic!`, `unreachable!`, `todo!`,
    /// `unimplemented!` — the FM004 family.
    PanicExplicit,
    /// Slice/array indexing `x[i]` (pedantic; panics on out-of-range).
    PanicIndex,
    /// `/` or `%` with a non-literal divisor (pedantic; integer division
    /// panics on zero — the lexer cannot see types, so this also matches
    /// float division and is off by default).
    PanicDiv,
    /// `Instant::now` / `SystemTime` — wall-clock reads.
    WallClock,
    /// `thread_rng` / `from_entropy` / `rand::random`.
    UnseededRng,
}

impl SeedKind {
    /// `true` for the panic-fact seeds.
    #[must_use]
    pub fn is_panic(self) -> bool {
        matches!(
            self,
            Self::PanicExplicit | Self::PanicIndex | Self::PanicDiv
        )
    }
}

/// One taint seed found inside a function body.
#[derive(Debug, Clone)]
pub struct Seed {
    /// Which fact the seed introduces.
    pub kind: SeedKind,
    /// The offending source text (`unwrap`, `panic!`, `Instant::now`, …).
    pub what: String,
    /// 1-based line of the seed.
    pub line: u32,
    /// 1-based column of the seed.
    pub col: u32,
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments (`["fmoe_cache", "lru", "evict"]`, `["helper"]`).
    /// For method calls this is the single method name.
    pub segments: Vec<String>,
    /// `true` for `.name(…)` method-call syntax.
    pub method: bool,
    /// `true` when a method call's receiver is literally `self`.
    pub on_self: bool,
}

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's own name.
    pub name: String,
    /// Inline-module path inside the file (file-level path is added by
    /// the graph layer from the file's location under `src/`).
    pub modules: Vec<String>,
    /// Base name of the `impl` type the method belongs to, if any.
    pub self_type: Option<String>,
    /// Trait name for `impl Trait for Type` methods and trait default
    /// methods.
    pub trait_name: Option<String>,
    /// `true` for plain `pub` items (not `pub(crate)` / `pub(super)`).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Calls made from the body, in source order.
    pub calls: Vec<CallSite>,
    /// Taint seeds found in the body, in source order.
    pub seeds: Vec<Seed>,
}

/// One parsed `trait` definition.
#[derive(Debug, Clone)]
pub struct TraitDef {
    /// The trait's name.
    pub name: String,
    /// Inline-module path inside the file.
    pub modules: Vec<String>,
    /// Names of every method the trait declares (with or without a
    /// default body).
    pub methods: Vec<String>,
}

/// One `impl` block's identity (methods are recorded as [`FnItem`]s).
#[derive(Debug, Clone)]
pub struct ImplInfo {
    /// Base name of the implementing type.
    pub type_name: String,
    /// Trait being implemented, for `impl Trait for Type`.
    pub trait_name: Option<String>,
}

/// One single-name `use` import: `name` resolves to `path`.
#[derive(Debug, Clone)]
pub struct Import {
    /// The name the import binds in this file.
    pub name: String,
    /// Full path segments as written (`["crate", "engine", "Engine"]`).
    pub path: Vec<String>,
}

/// One `dyn Trait` occurrence outside test code.
#[derive(Debug, Clone)]
pub struct DynSite {
    /// The trait named after `dyn`.
    pub trait_name: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column of the `dyn` keyword.
    pub col: u32,
}

/// Everything recovered from one source file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// All non-test `fn` items.
    pub fns: Vec<FnItem>,
    /// All non-test `trait` definitions.
    pub traits: Vec<TraitDef>,
    /// All non-test `impl` blocks.
    pub impls: Vec<ImplInfo>,
    /// Single-name imports.
    pub imports: Vec<Import>,
    /// Glob-import base paths (`use x::y::*` records `["x", "y"]`).
    pub globs: Vec<Vec<String>>,
    /// `dyn Trait` sites.
    pub dyn_sites: Vec<DynSite>,
}

/// Keywords that look like call heads but never are.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "return", "break", "continue", "in", "let",
    "mut", "ref", "move", "async", "await", "fn", "impl", "trait", "struct", "enum", "union",
    "mod", "use", "pub", "where", "unsafe", "extern", "dyn", "as", "const", "static", "type",
];

/// Parses one file's source into the item model.
#[must_use]
pub fn parse_file(source: &str) -> ParsedFile {
    let tokens = lex(source);
    let in_test = mark_test_regions(&tokens);
    let mut out = ParsedFile::default();
    let mut ctx = ItemCtx {
        modules: Vec::new(),
        impl_type: None,
        impl_trait: None,
        trait_def: None,
    };
    parse_items(&tokens, &in_test, 0, tokens.len(), &mut ctx, &mut out);
    collect_dyn_sites(&tokens, &in_test, &mut out);
    out
}

/// Parser context while descending into modules / impls / traits.
struct ItemCtx {
    modules: Vec<String>,
    impl_type: Option<String>,
    impl_trait: Option<String>,
    /// Set while parsing a `trait` body: methods register on this trait.
    trait_def: Option<usize>,
}

/// Walks items in `tokens[i..end]`, appending to `out`.
#[allow(clippy::too_many_lines)]
fn parse_items(
    tokens: &[Token],
    in_test: &[bool],
    mut i: usize,
    end: usize,
    ctx: &mut ItemCtx,
    out: &mut ParsedFile,
) {
    let mut vis_pub = false;
    while i < end {
        let t = &tokens[i];

        // Attributes: skip. `#[…]` and inner `#![…]`.
        if t.is_punct("#") {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_punct("!")) {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.is_punct("[")) {
                i = skip_balanced(tokens, j, end, "[", "]");
                continue;
            }
            i += 1;
            continue;
        }

        if t.is_ident("pub") {
            // Plain `pub` only; `pub(crate)` / `pub(super)` / `pub(in …)`
            // are not public API.
            if tokens.get(i + 1).is_some_and(|t| t.is_punct("(")) {
                i = skip_balanced(tokens, i + 1, end, "(", ")");
            } else {
                vis_pub = true;
                i += 1;
            }
            continue;
        }

        if t.is_ident("mod") {
            let name = tokens.get(i + 1).map(|t| t.text.clone());
            if tokens.get(i + 2).is_some_and(|t| t.is_punct("{")) {
                let body_end = skip_balanced(tokens, i + 2, end, "{", "}");
                if let Some(name) = name {
                    ctx.modules.push(name);
                    parse_items(tokens, in_test, i + 3, body_end - 1, ctx, out);
                    ctx.modules.pop();
                }
                i = body_end;
            } else {
                // `mod name;` — outline module, covered by its own file.
                i = skip_to_semicolon(tokens, i, end);
            }
            vis_pub = false;
            continue;
        }

        if t.is_ident("use") {
            let (imports, globs, next) = parse_use(tokens, i + 1, end);
            if !in_test.get(i).copied().unwrap_or(false) {
                out.imports.extend(imports);
                out.globs.extend(globs);
            }
            i = next;
            vis_pub = false;
            continue;
        }

        if t.is_ident("impl") {
            i = parse_impl(tokens, in_test, i, end, ctx, out);
            vis_pub = false;
            continue;
        }

        if t.is_ident("trait") {
            i = parse_trait(tokens, in_test, i, end, ctx, out);
            vis_pub = false;
            continue;
        }

        if t.is_ident("fn") {
            i = parse_fn(tokens, in_test, i, end, ctx, out, vis_pub);
            vis_pub = false;
            continue;
        }

        // Items we skip wholesale: struct/enum/union/const/static/type/
        // macro_rules/extern. All end at `;` or a braced body.
        if t.kind == TokenKind::Ident
            && matches!(
                t.text.as_str(),
                "struct"
                    | "enum"
                    | "union"
                    | "const"
                    | "static"
                    | "type"
                    | "macro_rules"
                    | "extern"
            )
        {
            i = skip_item_body(tokens, i + 1, end);
            vis_pub = false;
            continue;
        }

        i += 1;
        vis_pub = false;
    }
}

/// Skips to one past the matching closer for the opener at `open_idx`.
fn skip_balanced(tokens: &[Token], open_idx: usize, end: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open_idx;
    while i < end {
        if tokens[i].is_punct(open) {
            depth += 1;
        } else if tokens[i].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    end
}

/// Skips to one past the next `;` at zero bracket depth.
fn skip_to_semicolon(tokens: &[Token], mut i: usize, end: usize) -> usize {
    let mut depth = 0isize;
    while i < end {
        let t = &tokens[i];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if t.is_punct(";") && depth == 0 {
            return i + 1;
        }
        i += 1;
    }
    end
}

/// Skips an item body starting after its keyword: runs to a `;` or
/// through a braced block, whichever comes first at depth 0.
fn skip_item_body(tokens: &[Token], mut i: usize, end: usize) -> usize {
    let mut depth = 0isize;
    while i < end {
        let t = &tokens[i];
        if t.is_punct("{") && depth == 0 {
            return skip_balanced(tokens, i, end, "{", "}");
        }
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if t.is_punct(";") && depth == 0 {
            return i + 1;
        }
        i += 1;
    }
    end
}

/// Parses a `use` tree starting after the `use` keyword. Returns the
/// imports, the glob bases, and the index one past the closing `;`.
fn parse_use(tokens: &[Token], start: usize, end: usize) -> (Vec<Import>, Vec<Vec<String>>, usize) {
    let stop = skip_to_semicolon(tokens, start, end);
    let mut imports = Vec::new();
    let mut globs = Vec::new();
    // `stop - 1` points one past `;`; the tree is tokens[start..stop-1].
    let tree_end = stop.saturating_sub(1).max(start);
    parse_use_tree(
        tokens,
        start,
        tree_end,
        &Vec::new(),
        &mut imports,
        &mut globs,
    );
    (imports, globs, stop)
}

/// Recursively parses one use-tree level: `a::b::{c, d as e, f::*}`.
fn parse_use_tree(
    tokens: &[Token],
    mut i: usize,
    end: usize,
    prefix: &[String],
    imports: &mut Vec<Import>,
    globs: &mut Vec<Vec<String>>,
) {
    let mut path: Vec<String> = prefix.to_vec();
    while i < end {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident && t.text != "as" {
            path.push(t.text.clone());
            i += 1;
            continue;
        }
        if t.is_punct("::") {
            i += 1;
            continue;
        }
        if t.is_punct("*") {
            globs.push(path.clone());
            return;
        }
        if t.is_ident("as") {
            // `path as alias` — alias binds the same target path.
            if let Some(alias) = tokens.get(i + 1) {
                imports.push(Import {
                    name: alias.text.clone(),
                    path: path.clone(),
                });
            }
            return;
        }
        if t.is_punct("{") {
            let group_end = skip_balanced(tokens, i, end, "{", "}");
            // Split the group body on top-level commas.
            let mut item_start = i + 1;
            let mut depth = 0usize;
            let mut j = i + 1;
            while j < group_end - 1 {
                if tokens[j].is_punct("{") {
                    depth += 1;
                } else if tokens[j].is_punct("}") {
                    depth -= 1;
                } else if tokens[j].is_punct(",") && depth == 0 {
                    parse_use_tree(tokens, item_start, j, &path, imports, globs);
                    item_start = j + 1;
                }
                j += 1;
            }
            if item_start < group_end - 1 {
                parse_use_tree(tokens, item_start, group_end - 1, &path, imports, globs);
            }
            return;
        }
        // Anything else ends this tree.
        break;
    }
    // `use a::b::c;` — the final segment is the bound name. `self` in a
    // group (`use x::{self, y}`) binds the parent's last segment.
    if let Some(last) = path.last().cloned() {
        if last == "self" {
            path.pop();
            if let Some(name) = path.last().cloned() {
                imports.push(Import { name, path });
            }
        } else if path.len() > prefix.len() || !path.is_empty() {
            imports.push(Import { name: last, path });
        }
    }
}

/// Skips a balanced generic-argument list starting at `<`. Honors the
/// lexer's glued `<<` / `>>` shift tokens (each counts twice).
fn skip_angles(tokens: &[Token], mut i: usize, end: usize) -> usize {
    let mut depth = 0isize;
    while i < end {
        let t = &tokens[i];
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct("<<") {
            depth += 2;
        } else if t.is_punct(">") {
            depth -= 1;
            if depth <= 0 {
                return i + 1;
            }
        } else if t.is_punct(">>") {
            depth -= 2;
            if depth <= 0 {
                return i + 1;
            }
        } else if t.is_punct("(") || t.is_punct("[") {
            // Parenthesized types / arrays inside generics.
            i = skip_balanced(tokens, i, end, if t.is_punct("(") { "(" } else { "[" }, {
                if t.is_punct("(") {
                    ")"
                } else {
                    "]"
                }
            });
            continue;
        }
        i += 1;
    }
    end
}

/// Reads a type path after `impl` (or after `for`), returning the base
/// name of the final segment and the index after the path.
fn read_type_path(tokens: &[Token], mut i: usize, end: usize) -> (Option<String>, usize) {
    // Skip leading `&`, lifetimes, `mut`, `dyn`.
    while i < end {
        let t = &tokens[i];
        if t.is_punct("&")
            || t.kind == TokenKind::Lifetime
            || t.is_ident("mut")
            || t.is_ident("dyn")
        {
            i += 1;
        } else {
            break;
        }
    }
    let mut base: Option<String> = None;
    while i < end {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident {
            base = Some(t.text.clone());
            i += 1;
            if tokens.get(i).is_some_and(|t| t.is_punct("<")) {
                i = skip_angles(tokens, i, end);
            }
            if tokens.get(i).is_some_and(|t| t.is_punct("::")) {
                i += 1;
                continue;
            }
            break;
        }
        break;
    }
    (base, i)
}

/// Parses an `impl` block starting at the `impl` keyword; returns the
/// index one past the block.
fn parse_impl(
    tokens: &[Token],
    in_test: &[bool],
    start: usize,
    end: usize,
    ctx: &mut ItemCtx,
    out: &mut ParsedFile,
) -> usize {
    let mut i = start + 1;
    if tokens.get(i).is_some_and(|t| t.is_punct("<")) {
        i = skip_angles(tokens, i, end);
    }
    let (first, after_first) = read_type_path(tokens, i, end);
    i = after_first;
    let (type_name, trait_name) = if tokens.get(i).is_some_and(|t| t.is_ident("for")) {
        let (ty, after_ty) = read_type_path(tokens, i + 1, end);
        i = after_ty;
        (ty, first)
    } else {
        (first, None)
    };
    // Skip a where-clause up to the body.
    while i < end && !tokens[i].is_punct("{") {
        if tokens[i].is_punct(";") {
            return i + 1; // `impl Trait for Type;` — nothing to do.
        }
        if tokens[i].is_punct("<") {
            i = skip_angles(tokens, i, end);
            continue;
        }
        i += 1;
    }
    if i >= end {
        return end;
    }
    let body_end = skip_balanced(tokens, i, end, "{", "}");
    if let Some(type_name) = type_name {
        if !in_test.get(start).copied().unwrap_or(false) {
            out.impls.push(ImplInfo {
                type_name: type_name.clone(),
                trait_name: trait_name.clone(),
            });
        }
        let saved_ty = ctx.impl_type.replace(type_name);
        let saved_tr = ctx.impl_trait.take();
        ctx.impl_trait = trait_name;
        parse_items(tokens, in_test, i + 1, body_end - 1, ctx, out);
        ctx.impl_type = saved_ty;
        ctx.impl_trait = saved_tr;
    }
    body_end
}

/// Parses a `trait` definition starting at the `trait` keyword; returns
/// the index one past the body.
fn parse_trait(
    tokens: &[Token],
    in_test: &[bool],
    start: usize,
    end: usize,
    ctx: &mut ItemCtx,
    out: &mut ParsedFile,
) -> usize {
    let Some(name_tok) = tokens.get(start + 1) else {
        return end;
    };
    let name = name_tok.text.clone();
    let mut i = start + 2;
    while i < end && !tokens[i].is_punct("{") {
        if tokens[i].is_punct(";") {
            return i + 1;
        }
        if tokens[i].is_punct("<") {
            i = skip_angles(tokens, i, end);
            continue;
        }
        i += 1;
    }
    if i >= end {
        return end;
    }
    let body_end = skip_balanced(tokens, i, end, "{", "}");
    if in_test.get(start).copied().unwrap_or(false) {
        return body_end;
    }
    out.traits.push(TraitDef {
        name: name.clone(),
        modules: ctx.modules.clone(),
        methods: Vec::new(),
    });
    let trait_idx = out.traits.len() - 1;
    let saved = ctx.trait_def.replace(trait_idx);
    let saved_ty = ctx.impl_type.replace(name.clone());
    let saved_tr = ctx.impl_trait.replace(name);
    parse_items(tokens, in_test, i + 1, body_end - 1, ctx, out);
    ctx.trait_def = saved;
    ctx.impl_type = saved_ty;
    ctx.impl_trait = saved_tr;
    body_end
}

/// Parses a `fn` item starting at the `fn` keyword; returns the index
/// one past the item.
fn parse_fn(
    tokens: &[Token],
    in_test: &[bool],
    start: usize,
    end: usize,
    ctx: &mut ItemCtx,
    out: &mut ParsedFile,
    is_pub: bool,
) -> usize {
    let Some(name_tok) = tokens.get(start + 1) else {
        return end;
    };
    let name = name_tok.text.clone();
    // Scan the signature to the body `{` or a `;` (trait method with no
    // default body).
    let mut i = start + 2;
    let mut depth = 0isize;
    let body_start = loop {
        if i >= end {
            break None;
        }
        let t = &tokens[i];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if t.is_punct("<") && depth == 0 {
            i = skip_angles(tokens, i, end);
            continue;
        } else if t.is_punct("{") && depth == 0 {
            break Some(i);
        } else if t.is_punct(";") && depth == 0 {
            break None;
        }
        i += 1;
    };

    // Register the method name on the enclosing trait definition.
    if let Some(trait_idx) = ctx.trait_def {
        if !in_test.get(start).copied().unwrap_or(false) {
            out.traits[trait_idx].methods.push(name.clone());
        }
    }

    let Some(body_start) = body_start else {
        return i.min(end).saturating_add(1).min(end.max(1));
    };
    let body_end = skip_balanced(tokens, body_start, end, "{", "}");
    if in_test.get(start).copied().unwrap_or(false) {
        return body_end;
    }
    let mut item = FnItem {
        name,
        modules: ctx.modules.clone(),
        self_type: ctx.impl_type.clone(),
        trait_name: ctx.impl_trait.clone(),
        is_pub,
        line: tokens[start].line,
        col: tokens[start].col,
        calls: Vec::new(),
        seeds: Vec::new(),
    };
    scan_body(
        tokens,
        body_start + 1,
        body_end.saturating_sub(1),
        &mut item,
    );
    out.fns.push(item);
    body_end
}

/// Scans a fn body for call sites and taint seeds.
#[allow(clippy::too_many_lines)]
fn scan_body(tokens: &[Token], start: usize, end: usize, item: &mut FnItem) {
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        let prev = i.checked_sub(1).and_then(|j| tokens.get(j));
        let next = tokens.get(i + 1);

        // Method calls and method-style seeds: `.name(…)`.
        if t.is_punct(".") {
            if let Some(name_tok) = next {
                if name_tok.kind == TokenKind::Ident {
                    let mut after = i + 2;
                    // Turbofish: `.collect::<…>(…)`.
                    if tokens.get(after).is_some_and(|t| t.is_punct("::"))
                        && tokens.get(after + 1).is_some_and(|t| t.is_punct("<"))
                    {
                        after = skip_angles(tokens, after + 1, end);
                    }
                    if tokens.get(after).is_some_and(|t| t.is_punct("(")) {
                        let name = name_tok.text.as_str();
                        if name == "unwrap" || name == "expect" {
                            item.seeds.push(Seed {
                                kind: SeedKind::PanicExplicit,
                                what: format!("{name}()"),
                                line: name_tok.line,
                                col: name_tok.col,
                            });
                        } else if name != "await" {
                            item.calls.push(CallSite {
                                segments: vec![name_tok.text.clone()],
                                method: true,
                                on_self: prev.is_some_and(|p| p.is_ident("self")),
                            });
                        }
                        i = after + 1;
                        continue;
                    }
                }
            }
            i += 1;
            continue;
        }

        if t.kind == TokenKind::Ident {
            // Panic macros.
            if next.is_some_and(|n| n.is_punct("!"))
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
            {
                item.seeds.push(Seed {
                    kind: SeedKind::PanicExplicit,
                    what: format!("{}!", t.text),
                    line: t.line,
                    col: t.col,
                });
                i += 2;
                continue;
            }

            // Wall clock: `Instant::now` / `SystemTime`.
            if t.text == "Instant"
                && next.is_some_and(|n| n.is_punct("::"))
                && tokens.get(i + 2).is_some_and(|n| n.is_ident("now"))
            {
                item.seeds.push(Seed {
                    kind: SeedKind::WallClock,
                    what: "Instant::now".to_string(),
                    line: t.line,
                    col: t.col,
                });
                i += 3;
                continue;
            }
            if t.text == "SystemTime" {
                item.seeds.push(Seed {
                    kind: SeedKind::WallClock,
                    what: "SystemTime".to_string(),
                    line: t.line,
                    col: t.col,
                });
                i += 1;
                continue;
            }

            // Unseeded randomness.
            if t.text == "thread_rng" || t.text == "from_entropy" {
                item.seeds.push(Seed {
                    kind: SeedKind::UnseededRng,
                    what: t.text.clone(),
                    line: t.line,
                    col: t.col,
                });
                i += 1;
                continue;
            }
            if t.text == "rand"
                && next.is_some_and(|n| n.is_punct("::"))
                && tokens.get(i + 2).is_some_and(|n| n.is_ident("random"))
            {
                item.seeds.push(Seed {
                    kind: SeedKind::UnseededRng,
                    what: "rand::random".to_string(),
                    line: t.line,
                    col: t.col,
                });
                i += 3;
                continue;
            }

            // Path-call head: an ident not preceded by `::`, `.`, or `fn`.
            let is_head = !prev.is_some_and(|p| {
                p.is_punct("::") || p.is_punct(".") || p.is_ident("fn") || p.is_punct("#")
            });
            if is_head && !NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
                let mut segs = vec![t.text.clone()];
                let mut j = i + 1;
                loop {
                    if tokens.get(j).is_some_and(|t| t.is_punct("::"))
                        && tokens
                            .get(j + 1)
                            .is_some_and(|t| t.kind == TokenKind::Ident)
                    {
                        segs.push(tokens[j + 1].text.clone());
                        j += 2;
                        continue;
                    }
                    break;
                }
                // Turbofish on the final segment: `f::<T>(…)`.
                let mut call_paren = j;
                if tokens.get(j).is_some_and(|t| t.is_punct("::"))
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct("<"))
                {
                    call_paren = skip_angles(tokens, j + 1, end);
                }
                let is_macro = tokens.get(call_paren).is_some_and(|t| t.is_punct("!"));
                if !is_macro && tokens.get(call_paren).is_some_and(|t| t.is_punct("(")) {
                    item.calls.push(CallSite {
                        segments: segs,
                        method: false,
                        on_self: false,
                    });
                }
                i = j;
                continue;
            }
            i += 1;
            continue;
        }

        // Pedantic: indexing `x[…]` — `[` whose previous token closes an
        // expression (identifier, `)`, or `]`), not an array literal or
        // attribute.
        if t.is_punct("[") {
            let indexing = prev.is_some_and(|p| {
                (p.kind == TokenKind::Ident && !NON_CALL_KEYWORDS.contains(&p.text.as_str()))
                    || p.is_punct(")")
                    || p.is_punct("]")
            });
            if indexing {
                item.seeds.push(Seed {
                    kind: SeedKind::PanicIndex,
                    what: "slice indexing".to_string(),
                    line: t.line,
                    col: t.col,
                });
            }
            i += 1;
            continue;
        }

        // Pedantic: `/` `%` with a non-literal divisor.
        if (t.is_punct("/") || t.is_punct("%") || t.is_punct("/=") || t.is_punct("%=")) && {
            let divisor_nonliteral =
                next.is_some_and(|n| n.kind == TokenKind::Ident || n.is_punct("("));
            let lhs_expr = prev.is_some_and(|p| {
                p.kind == TokenKind::Ident
                    || p.kind == TokenKind::Int
                    || p.is_punct(")")
                    || p.is_punct("]")
            });
            divisor_nonliteral && lhs_expr
        } {
            item.seeds.push(Seed {
                kind: SeedKind::PanicDiv,
                what: format!("`{}` with non-literal divisor", t.text),
                line: t.line,
                col: t.col,
            });
            i += 1;
            continue;
        }

        i += 1;
    }
}

/// Records every `dyn Trait` occurrence outside test regions.
fn collect_dyn_sites(tokens: &[Token], in_test: &[bool], out: &mut ParsedFile) {
    for (i, t) in tokens.iter().enumerate() {
        if in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        if t.is_ident("dyn") {
            if let Some(name) = tokens.get(i + 1) {
                if name.kind == TokenKind::Ident {
                    out.dyn_sites.push(DynSite {
                        trait_name: name.text.clone(),
                        line: t.line,
                        col: t.col,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file(src)
    }

    #[test]
    fn free_fn_with_calls_and_seeds() {
        let p = parse("pub fn f() { helper(); x.unwrap(); other::g(1); }");
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert!(f.is_pub);
        assert_eq!(f.name, "f");
        let segs: Vec<Vec<String>> = f.calls.iter().map(|c| c.segments.clone()).collect();
        assert_eq!(segs, vec![vec!["helper"], vec!["other", "g"]]);
        assert_eq!(f.seeds.len(), 1);
        assert_eq!(f.seeds[0].kind, SeedKind::PanicExplicit);
    }

    #[test]
    fn impl_methods_carry_type_and_trait() {
        let p = parse("impl Widget { fn a(&self) { self.b(); } }\nimpl Render for Widget { fn draw(&self) {} }");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].self_type.as_deref(), Some("Widget"));
        assert!(p.fns[0].trait_name.is_none());
        assert!(p.fns[0].calls[0].method && p.fns[0].calls[0].on_self);
        assert_eq!(p.fns[1].self_type.as_deref(), Some("Widget"));
        assert_eq!(p.fns[1].trait_name.as_deref(), Some("Render"));
        assert_eq!(p.impls.len(), 2);
    }

    #[test]
    fn trait_methods_and_defaults() {
        let p = parse("trait T { fn req(&self); fn opt(&self) { self.req(); } }");
        assert_eq!(p.traits.len(), 1);
        assert_eq!(p.traits[0].methods, vec!["req", "opt"]);
        // Only the default method has a body and becomes an FnItem.
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "opt");
        assert_eq!(p.fns[0].trait_name.as_deref(), Some("T"));
    }

    #[test]
    fn use_trees_groups_aliases_globs() {
        let p = parse(
            "use crate::engine::Engine;\nuse fmoe_cache::{lru, policy::Policy as P};\nuse super::*;",
        );
        let names: Vec<&str> = p.imports.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["Engine", "lru", "P"]);
        assert_eq!(p.imports[2].path, vec!["fmoe_cache", "policy", "Policy"]);
        assert_eq!(p.globs, vec![vec!["super"]]);
    }

    #[test]
    fn inline_modules_nest() {
        let p = parse("mod outer { mod inner { fn deep() {} } fn shallow() {} }");
        let paths: Vec<(Vec<String>, &str)> = p
            .fns
            .iter()
            .map(|f| (f.modules.clone(), f.name.as_str()))
            .collect();
        assert!(paths.contains(&(vec!["outer".into(), "inner".into()], "deep")));
        assert!(paths.contains(&(vec!["outer".into()], "shallow")));
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let p = parse("#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn real() {}");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "real");
    }

    #[test]
    fn turbofish_and_macros() {
        let p = parse("fn f() { parse::<u64>(s); vec![1]; format!(\"{}\", x); g::<T>(); }");
        let segs: Vec<Vec<String>> = p.fns[0].calls.iter().map(|c| c.segments.clone()).collect();
        assert_eq!(segs, vec![vec!["parse"], vec!["g"]]);
    }

    #[test]
    fn wall_clock_and_rng_seeds() {
        let p = parse("fn f() { let t = Instant::now(); let r = thread_rng(); }");
        let kinds: Vec<SeedKind> = p.fns[0].seeds.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![SeedKind::WallClock, SeedKind::UnseededRng]);
    }

    #[test]
    fn pedantic_seeds_index_and_div() {
        let p = parse("fn f(xs: &[u64], n: u64) -> u64 { xs[3] + xs.len() as u64 / n }");
        let kinds: Vec<SeedKind> = p.fns[0].seeds.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SeedKind::PanicIndex));
        assert!(kinds.contains(&SeedKind::PanicDiv));
        // Array literals and attributes are not indexing.
        let q = parse("fn g() { let a = [1, 2]; }");
        assert!(q.fns[0].seeds.is_empty());
    }

    #[test]
    fn dyn_sites_are_collected() {
        let p = parse(
            "fn f(p: &mut dyn Predictor) {}\n#[cfg(test)]\nmod t { fn g(p: &dyn Predictor) {} }",
        );
        assert_eq!(p.dyn_sites.len(), 1);
        assert_eq!(p.dyn_sites[0].trait_name, "Predictor");
    }
}
