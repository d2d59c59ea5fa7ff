//! The abstract evaluator (ISSUE 10): interval inference over the token
//! stream, powering the three cast/overflow/index rules in
//! [`crate::casts`].
//!
//! The evaluator layers three sources of range information:
//!
//! 1. **Workspace facts** ([`Ctx`]) — integer `const`s (so
//!    `BLOCK_PAIRS + 1` evaluates to 65), declared field/param types
//!    harvested from `name: type` token patterns and read for `.field`
//!    access (joined when a name is declared at several types — joins
//!    only ever widen, so the result stays sound; a plain name the walk
//!    has not bound is unknown), and interprocedural *return summaries*
//!    for every fn with a declared primitive return type.
//! 2. **A per-fn environment** ([`Env`]) — built by a single forward walk
//!    over the body ([`walk_fn`]): `let` bindings (declared type meets
//!    initializer interval), `for` loop bindings (`0..n` ranges,
//!    `.enumerate()` indices, `.chars()` code points, slice elements),
//!    assignments (joined inside conditional scopes, widened inside
//!    loops), and **guard refinements**: `if x <= u8::MAX { .. }`,
//!    `while i < n { .. }` and `assert!(x < k)` shrink a variable's
//!    interval for exactly the region the guard dominates. Calls are
//!    treated as non-mutating for tracked scalars (only explicit
//!    assignment havocs a binding), which is what lets a refinement
//!    survive intervening calls like `widen_code_width`.
//! 3. **Expression evaluation** — a precedence-climbing parser over the
//!    masked tokens with interval transfer functions for every arithmetic
//!    operator, `as`-cast wrap semantics, and known-range methods
//!    (`len`, `min`/`max`/`clamp`, `trailing_zeros`, `saturating_*`,
//!    `wrapping_*`, ...). Anything unknown evaluates to
//!    [`Interval::unknown`] — the "some machine word" policy interval.
//!
//! Summaries are computed by a bounded descending Kleene iteration: every
//! summary starts at its declared return type's full range (trivially
//! sound), then [`SUMMARY_ROUNDS`] re-evaluation rounds shrink it toward
//! the join of the fn's `return`/tail expressions. Truncating the chain
//! after a fixed number of rounds *is* the widening (each intermediate
//! iterate is itself an over-approximation); [`Interval::widen`] proper
//! is applied to loop-carried assignments inside [`walk_fn`], where an
//! ascending chain could otherwise grow without bound.

// The token scanners below walk `toks` by index with multi-token
// lookahead (`toks[j]`, `toks[j + 1]`, `matching_close(toks, j)`), which
// iterator rewrites only obscure.
#![allow(clippy::needless_range_loop)]

use crate::callgraph::{is_keyword, FnItem, Workspace};
use crate::intervals::{IntType, Interval};
use crate::tokens::{matching_close, Token, TokenKind};
use std::collections::HashMap;

/// Rounds of summary re-evaluation after the sound initial assignment.
pub const SUMMARY_ROUNDS: usize = 2;

/// Workspace-level range facts shared by every fn walk.
pub struct Ctx {
    /// Integer `const NAME: ty = ...;` values by (unqualified) name.
    pub consts: HashMap<String, i128>,
    /// Scalar field/param declared ranges by name (`distinct: usize`),
    /// joined across all declarations of the name; read only for
    /// `.field` access, never for a plain name.
    pub fields: HashMap<String, Interval>,
    /// Container fields/params by name: element range, plus the length
    /// when declared as a fixed-size array (`lex: [u8; BLOCK_PAIRS]`).
    pub containers: HashMap<String, ContainerInfo>,
    /// Return-interval summaries by fn name, joined across same-named
    /// fns (a text pass cannot resolve receivers more precisely).
    pub summaries: HashMap<String, Interval>,
}

/// What the evaluator knows about a container-typed name.
#[derive(Debug, Clone, Copy)]
pub struct ContainerInfo {
    /// Range of the elements, when they are primitive ints.
    pub elem: Option<Interval>,
    /// Fixed length for `[T; N]` declarations.
    pub len: Option<i128>,
}

/// One tracked binding.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// Current inferred interval.
    pub range: Interval,
    /// Declared primitive type, when written out.
    pub decl: Option<IntType>,
    /// 0-based line of the binding (for def→use witnesses).
    pub def_line: Option<usize>,
    /// Element range when the binding is a slice/array/Vec of ints.
    pub elem: Option<Interval>,
    /// Fixed array length when known.
    pub arr_len: Option<i128>,
}

impl VarInfo {
    fn unknown() -> VarInfo {
        VarInfo {
            range: Interval::unknown(),
            decl: None,
            def_line: None,
            elem: None,
            arr_len: None,
        }
    }
}

/// The per-fn abstract environment.
#[derive(Default)]
pub struct Env {
    vars: HashMap<String, VarInfo>,
}

impl Env {
    /// Look up a binding.
    pub fn get(&self, name: &str) -> Option<&VarInfo> {
        self.vars.get(name)
    }

    /// Insert/replace a binding.
    pub fn set(&mut self, name: &str, info: VarInfo) {
        self.vars.insert(name.to_owned(), info);
    }
}

/// The value of an evaluated (sub)expression.
#[derive(Debug, Clone, Copy)]
pub struct Val {
    /// Interval of the value.
    pub range: Interval,
    /// Best-known static type.
    pub ty: Option<IntType>,
    /// Element range when the value is indexable with known elements.
    pub elem: Option<Interval>,
    /// Fixed length when the value is a `[T; N]` array.
    pub arr_len: Option<i128>,
    /// Token index of the leftmost root identifier, for witnesses.
    pub root: Option<usize>,
}

impl Val {
    /// The "no information" value.
    pub fn unknown() -> Val {
        Val {
            range: Interval::unknown(),
            ty: None,
            elem: None,
            arr_len: None,
            root: None,
        }
    }

    fn of(range: Interval) -> Val {
        Val {
            range,
            ty: None,
            elem: None,
            arr_len: None,
            root: None,
        }
    }

    fn typed(range: Interval, ty: IntType) -> Val {
        Val {
            range,
            ty: Some(ty),
            elem: None,
            arr_len: None,
            root: None,
        }
    }
}

/// Parse an integer literal token (`0xFFu64`, `1_000`, `255`): value
/// (`None` for floats / overflow) and suffix type.
pub fn parse_number(text: &str) -> (Option<i128>, Option<IntType>) {
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    let mut body = cleaned.as_str();
    let mut ty = None;
    for suffix in [
        "usize", "isize", "u128", "i128", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8",
    ] {
        if let Some(stripped) = body.strip_suffix(suffix) {
            // Don't strip hex digits that merely look like a suffix
            // boundary: `0xi8` is not a literal anyway, but `0x8i8`
            // would mis-split — the workspace writes hex with explicit
            // width suffixes rarely enough that strip-longest is fine.
            if !stripped.is_empty() {
                body = stripped;
                ty = IntType::parse(suffix);
                break;
            }
        }
    }
    if body.contains('.') || (body.contains('e') && !body.starts_with("0x")) {
        return (None, None); // float literal
    }
    let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i128::from_str_radix(hex, 16).ok()
    } else if let Some(oct) = body.strip_prefix("0o") {
        i128::from_str_radix(oct, 8).ok()
    } else if let Some(bin) = body.strip_prefix("0b") {
        i128::from_str_radix(bin, 2).ok()
    } else {
        body.parse::<i128>().ok()
    };
    (value, ty)
}

/// Binary operator precedence (higher binds tighter); `None` for puncts
/// that terminate an expression.
fn precedence(op: &str) -> Option<u8> {
    Some(match op {
        "*" | "/" | "%" => 80,
        "+" | "-" => 70,
        "<<" | ">>" => 60,
        "&" => 50,
        "^" => 45,
        "|" => 40,
        "==" | "!=" | "<" | "<=" | ">" | ">=" => 30,
        "&&" | "||" => 20,
        _ => return None,
    })
}

/// Apply a binary operator's transfer function.
fn apply_op(op: &str, l: &Interval, r: &Interval) -> Interval {
    match op {
        "+" => l.add(r),
        "-" => l.sub(r),
        "*" => l.mul(r),
        "/" => l.div(r),
        "%" => l.rem(r),
        "<<" => l.shl(r),
        ">>" => l.shr(r),
        "&" => l.bitand(r),
        "|" | "^" => l.bitor_like(r),
        "==" | "!=" | "<" | "<=" | ">" | ">=" | "&&" | "||" => Interval::new(0, 1),
        _ => Interval::top(),
    }
}

/// Expression evaluator over a token slice: precedence climbing with
/// interval transfer functions. Bounds are `[lo, hi)` token indices.
pub struct Eval<'a> {
    pub toks: &'a [Token],
    pub ctx: &'a Ctx,
    pub env: &'a Env,
    pub hi: usize,
}

impl<'a> Eval<'a> {
    /// Evaluate the whole slice `[lo, hi)` as one expression.
    pub fn eval(&self, lo: usize) -> Val {
        if lo >= self.hi {
            return Val::unknown();
        }
        self.expr(lo, 0).0
    }

    fn tok(&self, i: usize) -> Option<&Token> {
        if i < self.hi {
            self.toks.get(i)
        } else {
            None
        }
    }

    /// Parse a binary-operator chain with minimum precedence `min_prec`.
    /// Returns the value and the index one past the parsed expression.
    pub fn expr(&self, i: usize, min_prec: u8) -> (Val, usize) {
        let (mut lhs, mut i) = self.unary(i);
        while let Some(t) = self.tok(i) {
            if t.kind != TokenKind::Punct {
                break;
            }
            let Some(prec) = precedence(&t.text) else {
                break;
            };
            if prec < min_prec {
                break;
            }
            let op = t.text.clone();
            let (rhs, next) = self.expr(i + 1, prec + 1);
            let range = apply_op(&op, &lhs.range, &rhs.range);
            let ty = match op.as_str() {
                "<<" | ">>" => lhs.ty,
                "==" | "!=" | "<" | "<=" | ">" | ">=" | "&&" | "||" => None,
                _ => lhs.ty.or(rhs.ty),
            };
            lhs = Val {
                range,
                ty,
                elem: None,
                arr_len: None,
                root: lhs.root,
            };
            i = next;
        }
        (lhs, i)
    }

    fn unary(&self, i: usize) -> (Val, usize) {
        let Some(t) = self.tok(i) else {
            return (Val::unknown(), i + 1);
        };
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "-" => {
                    let (v, next) = self.unary(i + 1);
                    let mut out = Val::of(v.range.neg());
                    out.ty = v.ty;
                    return (out, next);
                }
                // Deref / borrow are range-transparent; `!` (bitwise not)
                // is only bounded by the operand's type.
                "*" | "&" | "&&" => {
                    let mut k = i + 1;
                    while self.tok(k).is_some_and(|t| t.is_ident("mut")) {
                        k += 1;
                    }
                    return self.unary(k);
                }
                "!" => {
                    let (v, next) = self.unary(i + 1);
                    let range =
                        v.ty.map(|ty| ty.value_range())
                            .unwrap_or_else(Interval::unknown);
                    let mut out = Val::of(range);
                    out.ty = v.ty;
                    return (out, next);
                }
                _ => {}
            }
        }
        let (v, next) = self.primary(i);
        self.postfix(v, next)
    }

    fn primary(&self, i: usize) -> (Val, usize) {
        let Some(t) = self.tok(i) else {
            return (Val::unknown(), i + 1);
        };
        match t.kind {
            TokenKind::Number => {
                let (value, ty) = parse_number(&t.text);
                let range = match (value, ty) {
                    (Some(v), _) => Interval::point(v),
                    (None, Some(ty)) => ty.value_range(),
                    (None, None) => Interval::unknown(),
                };
                let mut v = Val::of(range);
                v.ty = ty;
                (v, i + 1)
            }
            TokenKind::CharLit => (Val::typed(Interval::new(0, 0x10FFFF), IntType::Char), i + 1),
            TokenKind::Str | TokenKind::Lifetime => (Val::unknown(), i + 1),
            TokenKind::Punct => match t.text.as_str() {
                "(" => {
                    let close = matching_close(self.toks, i);
                    let inner = Eval {
                        toks: self.toks,
                        ctx: self.ctx,
                        env: self.env,
                        hi: close.min(self.hi),
                    };
                    // A tuple `(a, b)` evaluates the first element only;
                    // the hull is irrelevant because tuples never reach a
                    // cast/arith site whole.
                    (inner.eval(i + 1), close + 1)
                }
                "[" => {
                    // Array literal: `[init; len]` or `[a, b, c]`.
                    let close = matching_close(self.toks, i);
                    let mut semi = None;
                    let mut depth = 0i64;
                    for j in i + 1..close.min(self.hi) {
                        match self.toks[j].text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            ";" if depth == 0 => {
                                semi = Some(j);
                                break;
                            }
                            _ => {}
                        }
                    }
                    let inner = Eval {
                        toks: self.toks,
                        ctx: self.ctx,
                        env: self.env,
                        hi: close.min(self.hi),
                    };
                    let elem = inner.eval(i + 1);
                    let len = match semi {
                        Some(s) => {
                            let l = inner.eval(s + 1);
                            (l.range.lo == l.range.hi).then_some(l.range.lo)
                        }
                        None => {
                            // Count top-level commas + 1 (crude; fine).
                            let mut depth = 0i64;
                            let mut count = if close > i + 1 { 1 } else { 0 };
                            for j in i + 1..close.min(self.hi) {
                                match self.toks[j].text.as_str() {
                                    "(" | "[" | "{" => depth += 1,
                                    ")" | "]" | "}" => depth -= 1,
                                    "," if depth == 0 => count += 1,
                                    _ => {}
                                }
                            }
                            Some(count)
                        }
                    };
                    (
                        Val {
                            range: Interval::unknown(),
                            ty: None,
                            elem: Some(elem.range),
                            arr_len: len,
                            root: None,
                        },
                        close + 1,
                    )
                }
                _ => (Val::unknown(), i + 1),
            },
            TokenKind::Ident => self.ident_primary(i),
        }
    }

    fn ident_primary(&self, i: usize) -> (Val, usize) {
        let t = &self.toks[i];
        match t.text.as_str() {
            "true" | "false" => return (Val::of(Interval::new(0, 1)), i + 1),
            // An `if`/`else if`/`else` chain used as an expression joins
            // the tail values of its arms (`if m < N { 8 } else { 16 }`
            // evaluates to [8, 16]).
            "if" => return self.if_expr(i),
            // Other block-like expressions: give up on the whole
            // construct by skipping to its braces' end when adjacent.
            "match" | "loop" | "while" | "for" | "unsafe" | "move" => {
                let mut j = i + 1;
                let mut depth = 0i64;
                while j < self.hi {
                    match self.toks[j].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => {
                            return (Val::unknown(), matching_close(self.toks, j) + 1);
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return (Val::unknown(), self.hi);
            }
            _ => {}
        }
        // Path: walk `A::B::C`, remembering the last two segments.
        let mut last = i;
        let mut prev_seg: Option<usize> = None;
        let mut j = i + 1;
        while self.tok(j).is_some_and(|t| t.is_punct("::"))
            && self
                .tok(j + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident && !is_keyword(&t.text))
        {
            prev_seg = Some(last);
            last = j + 1;
            j += 2;
            // Turbofish in the middle of a path: `Vec::<u8>::new`.
            if self.tok(j).is_some_and(|t| t.is_punct("::"))
                && self.tok(j + 1).is_some_and(|t| t.is_punct("<"))
            {
                let after = crate::callgraph::skip_angles(self.toks, j + 1);
                if self.tok(after).is_some_and(|t| t.is_punct("::")) {
                    j = after;
                }
            }
        }
        let name = &self.toks[last].text;
        let qualifier = prev_seg.map(|p| self.toks[p].text.as_str());

        // Associated consts on primitive types: `u8::MAX`, `u32::BITS`.
        if let Some(q) = qualifier {
            if let Some(ty) = IntType::parse(q) {
                let v = match name.as_str() {
                    "MAX" => Some(Val::typed(Interval::point(ty.value_range().hi), ty)),
                    "MIN" => Some(Val::typed(Interval::point(ty.value_range().lo), ty)),
                    "BITS" => Some(Val::typed(Interval::point(ty.bits() as i128), IntType::U32)),
                    _ => None,
                };
                if let Some(v) = v {
                    return (v, j);
                }
                // `u64::from(x)` / `usize::try_from(..)`-style calls.
                if self.tok(j).is_some_and(|t| t.is_punct("(")) {
                    let close = matching_close(self.toks, j);
                    if name == "from" {
                        let inner = Eval {
                            toks: self.toks,
                            ctx: self.ctx,
                            env: self.env,
                            hi: close.min(self.hi),
                        };
                        let arg = inner.eval(j + 1);
                        let range = arg
                            .range
                            .meet(&ty.value_range())
                            .unwrap_or_else(|| ty.value_range());
                        return (Val::typed(range, ty), close + 1);
                    }
                    return (Val::unknown(), close + 1);
                }
            }
        }

        // Macro invocation: `vec![init; len]` builds a container like the
        // array-literal form; any other macro is an opaque unknown whose
        // delimited argument list is skipped whole.
        if self.tok(j).is_some_and(|t| t.is_punct("!")) {
            if let Some(open) = self
                .tok(j + 1)
                .filter(|t| t.is_punct("[") || t.is_punct("(") || t.is_punct("{"))
            {
                if name == "vec" && open.is_punct("[") {
                    return self.primary(j + 1);
                }
                let close = matching_close(self.toks, j + 1);
                return (Val::unknown(), close + 1);
            }
        }

        // Call: `name(...)` resolves through the return summaries
        // (scalar intervals first, container shapes second).
        if self.tok(j).is_some_and(|t| t.is_punct("(")) {
            let close = matching_close(self.toks, j);
            let val = match self.ctx.summaries.get(name.as_str()) {
                Some(sum) => Val::of(*sum),
                None => match self.ctx.containers.get(name.as_str()) {
                    Some(c) => Val {
                        range: Interval::unknown(),
                        ty: None,
                        elem: c.elem,
                        arr_len: c.len,
                        root: None,
                    },
                    None => Val::unknown(),
                },
            };
            return (val, close + 1);
        }

        // Plain name: binding, then const. A name the walk has not bound
        // is unknown: the by-name join of field and parameter declarations
        // answers only `.field` access, since an unrelated declaration of
        // the same name says nothing about a local.
        if qualifier.is_none() {
            if let Some(info) = self.env.get(name) {
                return (
                    Val {
                        range: info.range,
                        ty: info.decl,
                        elem: info.elem,
                        arr_len: info.arr_len,
                        root: Some(last),
                    },
                    j,
                );
            }
        }
        if let Some(&c) = self.ctx.consts.get(name.as_str()) {
            return (Val::of(Interval::point(c)), j);
        }
        let mut v = Val::unknown();
        v.root = Some(last);
        (v, j)
    }

    /// Evaluate an `if` chain as an expression: join every arm's tail
    /// value; a missing `else` joins with unknown (the chain is then
    /// `()`-typed, so the hull is never consulted, but staying at top
    /// keeps the evaluator sound if a caller misparses).
    fn if_expr(&self, i: usize) -> (Val, usize) {
        let mut acc: Option<Interval> = None;
        let mut ty: Option<IntType> = None;
        let mut first = true;
        let mut j = i; // at `if`
        loop {
            // Find the arm's `{`, skipping the condition.
            let mut open = None;
            let mut depth = 0i64;
            let mut k = j + 1;
            while k < self.hi {
                match self.toks[k].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        open = Some(k);
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            let Some(open) = open else {
                return (Val::unknown(), self.hi);
            };
            let close = matching_close(self.toks, open);
            let v = self.block_tail(open, close.min(self.hi));
            acc = Some(match acc {
                Some(a) => a.join(&v.range),
                None => v.range,
            });
            if first {
                ty = v.ty;
                first = false;
            } else if ty != v.ty {
                ty = None;
            }
            match (self.tok(close + 1), self.tok(close + 2)) {
                (Some(e), Some(n)) if e.is_ident("else") && n.is_ident("if") => j = close + 2,
                (Some(e), Some(n)) if e.is_ident("else") && n.is_punct("{") => {
                    let ec = matching_close(self.toks, close + 2);
                    let v = self.block_tail(close + 2, ec.min(self.hi));
                    let joined = acc.unwrap_or_else(Interval::unknown).join(&v.range);
                    let out = Val {
                        range: joined,
                        ty: if ty == v.ty { ty } else { None },
                        elem: None,
                        arr_len: None,
                        root: None,
                    };
                    return (out, ec + 1);
                }
                _ => {
                    // No trailing `else`: join unknown, end after the arm.
                    let joined = acc
                        .unwrap_or_else(Interval::unknown)
                        .join(&Interval::unknown());
                    return (Val::of(joined), close + 1);
                }
            }
        }
    }

    /// Value of a `{ ... }` block used as an expression: the expression
    /// after the last statement-level `;` (unknown for empty tails).
    fn block_tail(&self, open: usize, close: usize) -> Val {
        let mut depth = 0i64;
        let mut start = open + 1;
        for k in open + 1..close.min(self.toks.len()) {
            match self.toks[k].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth == 0 => start = k + 1,
                _ => {}
            }
        }
        if start >= close {
            return Val::unknown();
        }
        let inner = Eval {
            toks: self.toks,
            ctx: self.ctx,
            env: self.env,
            hi: close,
        };
        inner.eval(start)
    }

    /// Postfix chain: field access, method calls, indexing, `as` casts.
    fn postfix(&self, mut val: Val, mut i: usize) -> (Val, usize) {
        while let Some(t) = self.tok(i) {
            if t.is_punct(".") {
                let Some(name_tok) = self.tok(i + 1) else {
                    break;
                };
                if name_tok.kind == TokenKind::Number {
                    // Tuple index.
                    val = Val::unknown();
                    i += 2;
                    continue;
                }
                if name_tok.kind != TokenKind::Ident {
                    break;
                }
                let name = name_tok.text.clone();
                // Method call (turbofish allowed) vs field access.
                let mut k = i + 2;
                if self.tok(k).is_some_and(|t| t.is_punct("::"))
                    && self.tok(k + 1).is_some_and(|t| t.is_punct("<"))
                {
                    k = crate::callgraph::skip_angles(self.toks, k + 1);
                }
                if self.tok(k).is_some_and(|t| t.is_punct("(")) {
                    let close = matching_close(self.toks, k);
                    val = self.method(&val, &name, k, close);
                    i = close + 1;
                } else {
                    // Field access: container typing first, scalar next.
                    val = match self.ctx.containers.get(name.as_str()) {
                        Some(c) => Val {
                            range: Interval::unknown(),
                            ty: None,
                            elem: c.elem,
                            arr_len: c.len,
                            root: val.root,
                        },
                        None => match self.ctx.fields.get(name.as_str()) {
                            Some(r) => Val {
                                range: *r,
                                ty: None,
                                elem: None,
                                arr_len: None,
                                root: val.root,
                            },
                            None => Val {
                                root: val.root,
                                ..Val::unknown()
                            },
                        },
                    };
                    i += 2;
                }
                continue;
            }
            if t.is_punct("[") {
                let close = matching_close(self.toks, i);
                // Range subscripts (`x[a..b]`) slice the container: the
                // result keeps the element hull. Scalar subscripts yield
                // one element.
                let mut is_range = false;
                let mut depth = 0i64;
                for j in i + 1..close.min(self.toks.len()) {
                    match self.toks[j].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ".." | "..=" if depth == 0 && self.toks[j].kind == TokenKind::Punct => {
                            is_range = true;
                            break;
                        }
                        _ => {}
                    }
                }
                val = if is_range {
                    Val {
                        range: Interval::unknown(),
                        ty: None,
                        elem: val.elem,
                        arr_len: None,
                        root: val.root,
                    }
                } else {
                    Val {
                        range: val.elem.unwrap_or_else(Interval::unknown),
                        ty: None,
                        elem: None,
                        arr_len: None,
                        root: val.root,
                    }
                };
                i = close + 1;
                continue;
            }
            if t.is_ident("as") {
                let Some(ty_tok) = self.tok(i + 1) else { break };
                let Some(ty) = IntType::parse(&ty_tok.text) else {
                    break;
                };
                // `as` wraps: in-range values pass through, anything else
                // may land anywhere in the target type.
                let range = if val.range.subset_of(&ty.value_range()) {
                    val.range
                } else {
                    ty.value_range()
                };
                val = Val {
                    range,
                    ty: Some(ty),
                    elem: None,
                    arr_len: None,
                    root: val.root,
                };
                i += 2;
                continue;
            }
            if t.is_punct("?") {
                i += 1;
                continue;
            }
            break;
        }
        (val, i)
    }

    /// Method-call transfer functions. `open`/`close` delimit the
    /// argument list parens.
    fn method(&self, recv: &Val, name: &str, open: usize, close: usize) -> Val {
        let arg = |n: usize| -> Val {
            // n-th top-level argument.
            let mut depth = 0i64;
            let mut idx = 0usize;
            let mut start = open + 1;
            for j in open + 1..close.min(self.hi) {
                match self.toks[j].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 0 => {
                        if idx == n {
                            let inner = Eval {
                                toks: self.toks,
                                ctx: self.ctx,
                                env: self.env,
                                hi: j,
                            };
                            return inner.eval(start);
                        }
                        idx += 1;
                        start = j + 1;
                    }
                    _ => {}
                }
            }
            if idx == n && start < close {
                let inner = Eval {
                    toks: self.toks,
                    ctx: self.ctx,
                    env: self.env,
                    hi: close,
                };
                return inner.eval(start);
            }
            Val::unknown()
        };
        let keep_root = |mut v: Val| {
            v.root = recv.root;
            v
        };
        match name {
            // Identity adapters: the values flowing through are the
            // receiver's elements, untouched.
            "iter" | "iter_mut" | "into_iter" | "copied" | "cloned" | "rev" | "as_slice"
            | "as_mut_slice" | "to_vec" | "as_ref" | "as_mut" | "by_ref" | "borrow" => {
                keep_root(*recv)
            }
            // Prefix adapters keep the element range but not the exact
            // length (`take(n)` yields min(n, len) items).
            "take" | "skip" | "step_by" | "filter" | "take_while" | "skip_while" => {
                keep_root(Val {
                    arr_len: None,
                    ..*recv
                })
            }
            // Option-yielding element accessors: the payload (when the
            // caller unwraps or `if let`s it) is one element — except
            // `get(a..b)`, which yields a sub-slice and keeps the
            // element hull.
            "get" | "get_mut" | "first" | "last" | "next" | "next_back" | "pop" => {
                let mut range_arg = false;
                let mut depth = 0i64;
                for j in open + 1..close.min(self.toks.len()) {
                    match self.toks[j].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ".." | "..=" if depth == 0 && self.toks[j].kind == TokenKind::Punct => {
                            range_arg = true;
                            break;
                        }
                        _ => {}
                    }
                }
                if range_arg {
                    keep_root(Val {
                        range: Interval::unknown(),
                        ty: None,
                        elem: recv.elem,
                        arr_len: None,
                        root: None,
                    })
                } else {
                    keep_root(Val {
                        range: recv.elem.unwrap_or_else(Interval::unknown),
                        ty: None,
                        elem: None,
                        arr_len: None,
                        root: None,
                    })
                }
            }
            // Unwrapping an Option/Result passes the payload through; for
            // scalars the receiver's range already is the payload hull.
            "unwrap" | "expect" => keep_root(*recv),
            "chars" => keep_root(Val {
                range: Interval::unknown(),
                ty: None,
                elem: Some(Interval::new(0, 0x10FFFF)),
                arr_len: None,
                root: None,
            }),
            "bytes" | "as_bytes" => keep_root(Val {
                range: Interval::unknown(),
                ty: None,
                elem: Some(IntType::U8.value_range()),
                arr_len: None,
                root: None,
            }),
            "len" | "count" => {
                let range = match recv.arr_len {
                    Some(n) => Interval::point(n),
                    None => Interval::new(0, u64::MAX as i128),
                };
                keep_root(Val::typed(range, IntType::Usize))
            }
            "min" => keep_root(Val {
                range: recv.range.min_of(&arg(0).range),
                ty: recv.ty,
                ..Val::unknown()
            }),
            "max" => keep_root(Val {
                range: recv.range.max_of(&arg(0).range),
                ty: recv.ty,
                ..Val::unknown()
            }),
            "clamp" => keep_root(Val {
                range: Interval::new(arg(0).range.lo, arg(1).range.hi),
                ty: recv.ty,
                ..Val::unknown()
            }),
            "abs" => keep_root(Val {
                range: Interval::new(
                    0,
                    recv.range
                        .lo
                        .saturating_abs()
                        .max(recv.range.hi.saturating_abs()),
                ),
                ty: recv.ty,
                ..Val::unknown()
            }),
            "trailing_zeros" | "leading_zeros" | "count_ones" | "count_zeros" => {
                keep_root(Val::typed(Interval::new(0, 128), IntType::U32))
            }
            "ilog2" | "ilog10" => keep_root(Val::typed(Interval::new(0, 127), IntType::U32)),
            "saturating_add" => keep_root(self.typed_math(recv, recv.range.add(&arg(0).range))),
            "saturating_sub" => keep_root(self.typed_math(recv, recv.range.sub(&arg(0).range))),
            "saturating_mul" => keep_root(self.typed_math(recv, recv.range.mul(&arg(0).range))),
            "wrapping_add" | "wrapping_sub" | "wrapping_mul" | "wrapping_shl" | "wrapping_shr"
            | "rotate_left" | "rotate_right" | "swap_bytes" | "reverse_bits" | "pow"
            | "next_power_of_two" | "to_le" | "to_be" => keep_root(Val {
                range: recv
                    .ty
                    .map(|ty| ty.value_range())
                    .unwrap_or_else(Interval::unknown),
                ty: recv.ty,
                ..Val::unknown()
            }),
            "rem_euclid" => keep_root(Val {
                range: recv.range.rem(&arg(0).range),
                ty: recv.ty,
                ..Val::unknown()
            }),
            "unwrap_or" | "unwrap_or_default" | "unwrap_or_else" => {
                // Option/Result escape hatches: the summary lattice does
                // not model Option payloads, so stay at unknown — but a
                // `T::try_from(x).unwrap_or(d)` chain is already
                // cast-free, which is the point of the idiom.
                keep_root(Val::unknown())
            }
            _ => match self.ctx.summaries.get(name) {
                Some(sum) => keep_root(Val::of(*sum)),
                None => match self.ctx.containers.get(name) {
                    Some(c) => keep_root(Val {
                        range: Interval::unknown(),
                        ty: None,
                        elem: c.elem,
                        arr_len: c.len,
                        root: None,
                    }),
                    None => keep_root(Val::unknown()),
                },
            },
        }
    }

    /// A mathematical result clamped by the receiver's type when known
    /// (used for `saturating_*`, which by definition stays in-type).
    fn typed_math(&self, recv: &Val, math: Interval) -> Val {
        let range = match recv.ty {
            Some(ty) => math.meet(&ty.value_range()).unwrap_or_else(|| {
                // Disjoint means the math is entirely out of range; the
                // saturated result pins to the nearer type bound.
                let tr = ty.value_range();
                if math.lo > tr.hi {
                    Interval::point(tr.hi)
                } else {
                    Interval::point(tr.lo)
                }
            }),
            None => math,
        };
        Val {
            range,
            ty: recv.ty,
            ..Val::unknown()
        }
    }
}

/// Find the start of the operand that an `as` at `op_idx` (or a binary
/// operator's left side) applies to, scanning backward through postfix
/// chains (`a.b(c)[d] as u8`), paths, inner casts, and `&`/`!` prefixes.
/// `lo_limit` is the inclusive lower bound (fn body open).
pub fn operand_start(toks: &[Token], op_idx: usize, lo_limit: usize) -> usize {
    let Some(mut i) = op_idx.checked_sub(1) else {
        return op_idx;
    };
    if i < lo_limit {
        return op_idx;
    }
    loop {
        let t = &toks[i];
        // Settle the primary whose last token is at `i`.
        let mut start = if t.is_punct(")") || t.is_punct("]") {
            let Some(open) = matching_open(toks, i) else {
                return i + 1;
            };
            if open <= lo_limit {
                return open;
            }
            let before = &toks[open - 1];
            if before.kind == TokenKind::Ident && !is_keyword(&before.text) {
                open - 1 // call `f(...)` / macro-ish; fold the name in
            } else if before.is_punct(")") || before.is_punct("]") {
                // chained call/index on a parenthesized result
                i = open - 1;
                continue;
            } else {
                open // plain group `( ... )`
            }
        } else if matches!(
            t.kind,
            TokenKind::Ident | TokenKind::Number | TokenKind::CharLit | TokenKind::Str
        ) && !is_keyword(&t.text)
        {
            i
        } else {
            return i + 1;
        };
        // Extend left through `.`/`::` chains and inner `as` casts.
        loop {
            if start <= lo_limit {
                return start;
            }
            let p = &toks[start - 1];
            if p.is_punct(".") || p.is_punct("::") {
                if start >= 2 {
                    i = start - 2;
                } else {
                    return start;
                }
                break;
            }
            if p.is_ident("as") {
                if start >= 2 {
                    i = start - 2;
                } else {
                    return start;
                }
                break;
            }
            if p.is_punct("&") || p.is_punct("&&") || p.is_punct("!") {
                start -= 1;
                continue;
            }
            return start;
        }
    }
}

/// Backward scan for the `(`/`[` matching a close bracket.
fn matching_open(toks: &[Token], close: usize) -> Option<usize> {
    let (open_c, close_c) = if toks[close].is_punct(")") {
        ("(", ")")
    } else {
        ("[", "]")
    };
    let mut depth = 0i64;
    let mut i = close;
    loop {
        let t = &toks[i];
        if t.is_punct(close_c) {
            depth += 1;
        } else if t.is_punct(open_c) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        i = i.checked_sub(1)?;
    }
}

/// Harvest workspace facts (consts, field decls, container decls) from
/// every in-scope file, then compute the return summaries.
pub fn build_ctx(ws: &Workspace) -> Ctx {
    let mut ctx = Ctx {
        consts: HashMap::new(),
        fields: HashMap::new(),
        containers: HashMap::new(),
        summaries: HashMap::new(),
    };
    // Two rounds so consts defined in terms of earlier consts resolve
    // regardless of file order.
    for _ in 0..2 {
        for model in &ws.files {
            if !crate::callgraph::in_analysis_scope(&model.src.path) {
                continue;
            }
            harvest_consts(&model.tokens, &mut ctx);
        }
    }
    for model in &ws.files {
        if !crate::callgraph::in_analysis_scope(&model.src.path) {
            continue;
        }
        harvest_decls(&model.tokens, &mut ctx);
    }
    compute_summaries(ws, &mut ctx);
    ctx
}

/// Record `const NAME: ty = <expr>;` values.
fn harvest_consts(toks: &[Token], ctx: &mut Ctx) {
    let empty = Env::default();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("const")
            && toks
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident && !is_keyword(&t.text))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(":"))
        {
            // Find `=` then `;` at depth 0.
            let mut j = i + 3;
            let mut depth = 0i64;
            let mut eq = None;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=" if depth == 0 && toks[j].is_punct("=") => {
                        eq = Some(j);
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(eq) = eq {
                let mut k = eq + 1;
                let mut depth = 0i64;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                let eval = Eval {
                    toks,
                    ctx,
                    env: &empty,
                    hi: k,
                };
                let v = eval.eval(eq + 1);
                if v.range.lo == v.range.hi {
                    ctx.consts.insert(toks[i + 1].text.clone(), v.range.lo);
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
}

/// Parse a type at `i` (after a `:`): primitive scalar, `&`-ref of one,
/// slice/Vec/array of one. Returns what the declared name holds.
fn parse_decl_type(
    toks: &[Token],
    i: usize,
    ctx: &Ctx,
) -> (Option<IntType>, Option<ContainerInfo>) {
    let mut j = i;
    // Strip references and mutability.
    while toks
        .get(j)
        .is_some_and(|t| t.is_punct("&") || t.is_punct("&&") || t.is_ident("mut"))
        || toks.get(j).is_some_and(|t| t.kind == TokenKind::Lifetime)
    {
        j += 1;
    }
    let Some(t) = toks.get(j) else {
        return (None, None);
    };
    if t.is_punct("[") {
        // `[ty; N]` array or `[ty]` slice.
        let close = matching_close(toks, j);
        let elem = toks
            .get(j + 1)
            .and_then(|t| IntType::parse(&t.text))
            .map(|ty| ty.value_range());
        let mut len = None;
        if toks.get(j + 2).is_some_and(|t| t.is_punct(";")) {
            let empty = Env::default();
            let eval = Eval {
                toks,
                ctx,
                env: &empty,
                hi: close,
            };
            let v = eval.eval(j + 3);
            if v.range.lo == v.range.hi {
                len = Some(v.range.lo);
            }
        }
        return (None, Some(ContainerInfo { elem, len }));
    }
    if t.kind == TokenKind::Ident {
        if let Some(ty) = IntType::parse(&t.text) {
            return (Some(ty), None);
        }
        if (t.text == "Vec" || t.text == "VecDeque")
            && toks.get(j + 1).is_some_and(|t| t.is_punct("<"))
        {
            let elem = toks
                .get(j + 2)
                .and_then(|t| IntType::parse(&t.text))
                .map(|ty| ty.value_range());
            return (None, Some(ContainerInfo { elem, len: None }));
        }
    }
    (None, None)
}

/// Record `name: type` declarations (struct fields and fn params alike —
/// scalar ranges and container element ranges, joined by name).
fn harvest_decls(toks: &[Token], ctx: &mut Ctx) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || is_keyword(&t.text) {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct(":")) {
            continue;
        }
        // Only in declaration-ish positions: after `,`, `(`, `{`, `pub`,
        // `mut`, or a line-leading context. Excludes struct literal
        // fields only imperfectly — a wider join stays sound.
        let ok_prev = match i.checked_sub(1).map(|p| &toks[p]) {
            None => true,
            Some(p) => {
                p.is_punct(",")
                    || p.is_punct("(")
                    || p.is_punct("{")
                    || p.is_ident("pub")
                    || p.is_ident("mut")
            }
        };
        if !ok_prev {
            continue;
        }
        let (scalar, container) = parse_decl_type(toks, i + 2, ctx);
        if let Some(ty) = scalar {
            let r = ty.value_range();
            ctx.fields
                .entry(t.text.clone())
                .and_modify(|cur| *cur = cur.join(&r))
                .or_insert(r);
        }
        if let Some(c) = container {
            ctx.containers
                .entry(t.text.clone())
                .and_modify(|cur| {
                    cur.elem = match (cur.elem, c.elem) {
                        (Some(a), Some(b)) => Some(a.join(&b)),
                        (a, b) => a.or(b),
                    };
                    if cur.len != c.len {
                        cur.len = None; // conflicting lengths: unknown
                    }
                })
                .or_insert(c);
        }
    }
}

/// Declared primitive return type of a fn, parsed from its signature.
pub fn declared_return(ws: &Workspace, f: &FnItem) -> Option<IntType> {
    let toks = &ws.files[f.file].tokens;
    let end = f.body.map_or(toks.len(), |(b0, _)| b0);
    let mut i = f.sig_start;
    while i + 1 < end {
        if toks[i].is_punct("->") {
            // `-> ty` or `-> &ty`; anything longer (generics, paths) is
            // not a primitive return.
            let mut j = i + 1;
            while toks
                .get(j)
                .is_some_and(|t| t.is_punct("&") || t.is_ident("mut"))
            {
                j += 1;
            }
            let t = toks.get(j)?;
            let ty = IntType::parse(&t.text)?;
            let next = toks.get(j + 1);
            let terminal = match next {
                None => true,
                Some(t) => t.is_punct("{") || t.is_ident("where"),
            };
            return terminal.then_some(ty);
        }
        i += 1;
    }
    None
}

/// Declared container return type (`-> Vec<u32>`, `-> &[u32]`) of a fn.
fn declared_return_container(ws: &Workspace, f: &FnItem, ctx: &Ctx) -> Option<ContainerInfo> {
    let toks = &ws.files[f.file].tokens;
    let end = f.body.map_or(toks.len(), |(b0, _)| b0);
    let mut i = f.sig_start;
    while i + 1 < end {
        if toks[i].is_punct("->") {
            let (_, container) = parse_decl_type(toks, i + 1, ctx);
            return container;
        }
        i += 1;
    }
    None
}

/// Build the parameter environment for a fn from its signature.
pub fn param_env(ws: &Workspace, ctx: &Ctx, f: &FnItem) -> Env {
    let mut env = Env::default();
    let toks = &ws.files[f.file].tokens;
    let end = f.body.map_or(toks.len(), |(b0, _)| b0);
    // Find the parameter list parens.
    let mut open = None;
    for i in f.sig_start..end {
        if toks[i].is_punct("(") {
            open = Some(i);
            break;
        }
    }
    let Some(open) = open else { return env };
    let close = matching_close(toks, open);
    let mut i = open + 1;
    let mut depth = 0i64;
    while i < close.min(toks.len()) {
        let t = &toks[i];
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            _ => {}
        }
        if depth == 0
            && t.kind == TokenKind::Ident
            && !is_keyword(&t.text)
            && toks.get(i + 1).is_some_and(|n| n.is_punct(":"))
        {
            let (scalar, container) = parse_decl_type(toks, i + 2, ctx);
            let info = if let Some(ty) = scalar {
                VarInfo {
                    range: ty.value_range(),
                    decl: Some(ty),
                    def_line: Some(t.line),
                    elem: None,
                    arr_len: None,
                }
            } else if let Some(c) = container {
                VarInfo {
                    range: Interval::unknown(),
                    decl: None,
                    def_line: Some(t.line),
                    elem: c.elem,
                    arr_len: c.len,
                }
            } else {
                VarInfo {
                    def_line: Some(t.line),
                    ..VarInfo::unknown()
                }
            };
            env.set(&t.text, info);
        }
        i += 1;
    }
    env
}

/// Compute return-interval summaries: start every fn with a declared
/// primitive return type at that type's full range, then refine by
/// re-evaluating `return`/tail expressions for [`SUMMARY_ROUNDS`] rounds
/// (see the module docs for why truncation is the widening).
fn compute_summaries(ws: &Workspace, ctx: &mut Ctx) {
    let mut declared: Vec<Option<IntType>> = Vec::with_capacity(ws.fns.len());
    for f in &ws.fns {
        declared.push(if f.is_test {
            None
        } else {
            declared_return(ws, f)
        });
    }
    let mut by_name: HashMap<String, Interval> = HashMap::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if let Some(ty) = declared[id] {
            let r = ty.value_range();
            by_name
                .entry(f.name.clone())
                .and_modify(|cur| *cur = cur.join(&r))
                .or_insert(r);
        }
        // Container-returning fns (`fn rank_codes(..) -> &[u32]`) feed
        // the same name-keyed container table as field declarations, so
        // `codes[r]` gets the element range of whatever built `codes`.
        if declared[id].is_none() && !f.is_test {
            if let Some(c) = declared_return_container(ws, f, ctx) {
                ctx.containers
                    .entry(f.name.clone())
                    .and_modify(|cur| {
                        cur.elem = match (cur.elem, c.elem) {
                            (Some(a), Some(b)) => Some(a.join(&b)),
                            (a, b) => a.or(b),
                        };
                        if cur.len != c.len {
                            cur.len = None;
                        }
                    })
                    .or_insert(c);
            }
        }
    }
    ctx.summaries = by_name;

    for _ in 0..SUMMARY_ROUNDS {
        let mut next: HashMap<String, Interval> = HashMap::new();
        for (id, f) in ws.fns.iter().enumerate() {
            let Some(ty) = declared[id] else { continue };
            let refined = summarize_fn(ws, ctx, f)
                .and_then(|r| r.meet(&ty.value_range()))
                .unwrap_or_else(|| ty.value_range());
            next.entry(f.name.clone())
                .and_modify(|cur| *cur = cur.join(&refined))
                .or_insert(refined);
        }
        ctx.summaries = next;
    }
}

/// Join the intervals of every `return <expr>;` plus the tail expression
/// of a fn body. `None` when no expression could be found.
fn summarize_fn(ws: &Workspace, ctx: &Ctx, f: &FnItem) -> Option<Interval> {
    let (b0, b1) = f.body?;
    let toks = &ws.files[f.file].tokens;
    let hi = b1.min(toks.len().saturating_sub(1));
    let env = param_env(ws, ctx, f);
    let mut out: Option<Interval> = None;
    let mut join = |r: Interval| {
        out = Some(match out {
            Some(cur) => cur.join(&r),
            None => r,
        });
    };

    // `return <expr>` occurrences.
    let mut i = b0 + 1;
    while i < hi {
        if toks[i].is_ident("return") {
            let mut j = i + 1;
            let mut depth = 0i64;
            while j < hi {
                match toks[j].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" if depth > 0 => depth -= 1,
                    ";" | ")" | "}" if depth <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if j > i + 1 {
                let eval = Eval {
                    toks,
                    ctx,
                    env: &env,
                    hi: j,
                };
                join(eval.eval(i + 1).range);
            }
            i = j;
            continue;
        }
        i += 1;
    }

    // Tail expression: whatever follows the last `;`/`}` at body depth 0.
    let mut tail_start = b0 + 1;
    let mut depth = 0i64;
    for j in b0 + 1..hi {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => tail_start = j + 1,
            _ => {}
        }
        if depth == 0 && toks[j].is_punct("}") {
            tail_start = j + 1;
        }
    }
    if tail_start < hi {
        let eval = Eval {
            toks,
            ctx,
            env: &env,
            hi,
        };
        join(eval.eval(tail_start).range);
    }
    out
}

/// Compound-assignment operators recognized by the walker.
const COMPOUND_OPS: &[&str] = &["+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^="];

/// How a saved binding is restored when its scope frame exits.
#[derive(Clone, Copy, PartialEq)]
enum SaveKind {
    /// `let`/`for` shadowing: the outer binding comes back exactly.
    Shadow,
    /// Assignment or guard refinement inside a maybe-executed region:
    /// restore to the *join* of the pre-frame value and the current one.
    Mut,
}

struct Frame {
    /// Token index of the frame's closing `}`.
    close: usize,
    /// First-save-wins snapshots of bindings touched inside the frame.
    saved: Vec<(String, Option<VarInfo>, SaveKind)>,
}

/// A deferred environment update, applied when the walk reaches `at`
/// (the statement's `;`), so that sites inside the RHS are visited under
/// the *pre*-statement environment.
struct PendingSet {
    at: usize,
    name: String,
    info: VarInfo,
    kind: SaveKind,
}

/// Block metadata queued for an upcoming `{`: `for` bindings, guard
/// refinements from an `if`/`while` condition, and loop havoc targets.
struct PendingBlock {
    at: usize,
    binds: Vec<(String, VarInfo)>,
    refines: Vec<(String, Interval)>,
    havoc: Vec<String>,
}

/// Walk a fn body maintaining the abstract environment, invoking
/// `visit(&env, tok_idx)` for every body token under the environment
/// that holds *before* the token's enclosing statement takes effect.
/// See the module docs for the scoping/widening discipline.
pub fn walk_fn(ws: &Workspace, ctx: &Ctx, f: &FnItem, mut visit: impl FnMut(&Env, usize)) {
    let Some((b0, b1)) = f.body else { return };
    let toks = &ws.files[f.file].tokens;
    let b1 = b1.min(toks.len().saturating_sub(1));
    let mut env = param_env(ws, ctx, f);
    let mut frames: Vec<Frame> = Vec::new();
    let mut sets: Vec<PendingSet> = Vec::new();
    let mut blocks: Vec<PendingBlock> = Vec::new();

    let save_into = |frames: &mut Vec<Frame>, env: &Env, name: &str, kind: SaveKind| {
        if let Some(top) = frames.last_mut() {
            if !top.saved.iter().any(|(n, _, _)| n == name) {
                top.saved
                    .push((name.to_owned(), env.get(name).cloned(), kind));
            }
        }
    };

    let mut i = b0 + 1;
    while i <= b1 {
        // Close expired frames, restoring (or joining) saved bindings.
        while frames.last().is_some_and(|fr| i > fr.close) {
            let fr = frames.pop().unwrap();
            for (name, old, kind) in fr.saved.into_iter().rev() {
                match (old, kind) {
                    (Some(old), SaveKind::Shadow) => env.set(&name, old),
                    (Some(old), SaveKind::Mut) => {
                        let merged = match env.get(&name) {
                            Some(cur) => VarInfo {
                                range: old.range.join(&cur.range),
                                ..old
                            },
                            None => old,
                        };
                        env.set(&name, merged);
                    }
                    (None, _) => {
                        env.vars.remove(&name);
                    }
                }
            }
        }
        // Apply deferred statement effects.
        let mut k = 0;
        while k < sets.len() {
            if sets[k].at <= i {
                let s = sets.remove(k);
                save_into(&mut frames, &env, &s.name, s.kind);
                env.set(&s.name, s.info);
            } else {
                k += 1;
            }
        }

        let t = &toks[i];

        // Frame entry: every `{` opens a scope; queued block metadata
        // (for-bindings, refinements, loop havoc) lands here.
        if t.is_punct("{") {
            let close = matching_close(toks, i).min(b1);
            frames.push(Frame {
                close,
                saved: Vec::new(),
            });
            if let Some(pos) = blocks.iter().position(|b| b.at == i) {
                let b = blocks.remove(pos);
                // Havoc loop-assigned vars first, then precise bindings,
                // then guard refinements (so `while i < n` re-narrows a
                // havocked `i`).
                for name in &b.havoc {
                    if let Some(info) = env.get(name).cloned() {
                        save_into(&mut frames, &env, name, SaveKind::Mut);
                        let range = info
                            .decl
                            .map(|ty| ty.value_range())
                            .unwrap_or_else(Interval::unknown);
                        env.set(name, VarInfo { range, ..info });
                    }
                }
                for (name, info) in b.binds {
                    save_into(&mut frames, &env, &name, SaveKind::Shadow);
                    env.set(&name, info);
                }
                for (name, narrowed) in b.refines {
                    if let Some(info) = env.get(&name).cloned() {
                        save_into(&mut frames, &env, &name, SaveKind::Mut);
                        if let Some(met) = info.range.meet(&narrowed) {
                            env.set(&name, VarInfo { range: met, ..info });
                        }
                    }
                }
            }
            visit(&env, i);
            i += 1;
            continue;
        }

        visit(&env, i);

        // Closure arguments of element-wise adapters: in
        // `index.sort_by(|&a, &b| …)` the closure sees elements of
        // `index`, so `a`/`b` take the receiver's element hull for the
        // extent of the call's argument list.
        if t.is_punct(".") {
            if let Some((params, close_paren, info)) =
                closure_elem_binding(toks, ctx, &env, i, b0, b1)
            {
                frames.push(Frame {
                    close: close_paren,
                    saved: Vec::new(),
                });
                for name in params {
                    save_into(&mut frames, &env, &name, SaveKind::Shadow);
                    env.set(&name, info.clone());
                }
            }
        }

        // Typed closure parameters (`|a: u32, b: u32| …`) bind their
        // declared ranges regardless of the receiver.
        if t.is_punct("|") {
            if let Some((binds, close)) = typed_closure_params(toks, ctx, i, b1) {
                frames.push(Frame {
                    close,
                    saved: Vec::new(),
                });
                for (name, info) in binds {
                    save_into(&mut frames, &env, &name, SaveKind::Shadow);
                    env.set(&name, info);
                }
            }
        }

        // Statement-head detection.
        if t.is_ident("let") {
            detect_let(toks, ctx, &env, i, b1, &mut sets);
        } else if t.is_ident("if") || t.is_ident("while") {
            let is_loop = t.is_ident("while");
            if let Some((brace, refines, binds)) = detect_guard(toks, ctx, &env, i, b1) {
                let havoc = if is_loop {
                    assigned_names(toks, brace, matching_close(toks, brace).min(b1))
                } else {
                    Vec::new()
                };
                blocks.push(PendingBlock {
                    at: brace,
                    binds,
                    refines,
                    havoc,
                });
            }
        } else if t.is_ident("loop") {
            if let Some(brace) = find_block_open(toks, i + 1, b1) {
                blocks.push(PendingBlock {
                    at: brace,
                    binds: Vec::new(),
                    refines: Vec::new(),
                    havoc: assigned_names(toks, brace, matching_close(toks, brace).min(b1)),
                });
            }
        } else if t.is_ident("for") {
            if let Some(block) = detect_for(toks, ctx, &env, i, b1) {
                blocks.push(block);
            }
        } else if (t.is_ident("assert") || t.is_ident("debug_assert"))
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && toks.get(i + 2).is_some_and(|n| n.is_punct("("))
        {
            let close = matching_close(toks, i + 2).min(b1);
            for (name, narrowed) in parse_conjuncts(toks, ctx, &env, i + 3, close) {
                if let Some(info) = env.get(&name).cloned() {
                    save_into(&mut frames, &env, &name, SaveKind::Mut);
                    if let Some(met) = info.range.meet(&narrowed) {
                        env.set(&name, VarInfo { range: met, ..info });
                    }
                }
            }
        } else if t.kind == TokenKind::Ident && !is_keyword(&t.text) {
            // Assignment `x = e;` / `x += e;` (skip field/path targets and
            // `let [mut] x = …` heads, which detect_let already handles).
            let prev_blocks = i
                .checked_sub(1)
                .map(|p| {
                    toks[p].is_punct(".")
                        || toks[p].is_punct("::")
                        || toks[p].is_ident("let")
                        || toks[p].is_ident("mut")
                })
                .unwrap_or(false);
            if !prev_blocks {
                if let Some(op) = toks.get(i + 1).filter(|n| {
                    n.kind == TokenKind::Punct
                        && (n.text == "=" || COMPOUND_OPS.contains(&n.text.as_str()))
                }) {
                    detect_assign(
                        toks,
                        ctx,
                        &env,
                        i,
                        &op.text.clone(),
                        b1,
                        frames.is_empty(),
                        &mut sets,
                    );
                }
            }
        }
        i += 1;
    }
}

/// Find the statement-terminating `;` (at relative depth 0) after `i`.
fn stmt_end(toks: &[Token], i: usize, hi: usize) -> usize {
    let mut depth = 0i64;
    for j in i..=hi.min(toks.len().saturating_sub(1)) {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            ";" if depth == 0 => return j,
            _ => {}
        }
    }
    hi
}

/// First `{` at relative depth 0 after `i` (skipping a parenthesized or
/// bracketed condition/iterator expression).
fn find_block_open(toks: &[Token], i: usize, hi: usize) -> Option<usize> {
    let mut depth = 0i64;
    for j in i..=hi.min(toks.len().saturating_sub(1)) {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return Some(j),
            ";" | "}" if depth <= 0 => return None,
            _ => {}
        }
    }
    None
}

/// Parse `let [mut] <pat> [: ty] = <expr>;`, queueing the binding(s).
fn detect_let(
    toks: &[Token],
    ctx: &Ctx,
    env: &Env,
    i: usize,
    hi: usize,
    sets: &mut Vec<PendingSet>,
) {
    let semi = stmt_end(toks, i + 1, hi);
    let mut j = i + 1;
    while toks.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    // `let Some(pat) = expr` / `let Ok(pat) = expr` (plain or let-else):
    // bind the payload pattern from the scrutinee's abstract value. The
    // element-accessor transfers (`get`, `first`, …) already return the
    // payload, so a single-name pattern binds the scrutinee value itself.
    if toks
        .get(j)
        .is_some_and(|t| t.is_ident("Some") || t.is_ident("Ok"))
        && toks.get(j + 1).is_some_and(|t| t.is_punct("("))
    {
        let close = matching_close(toks, j + 1).min(semi);
        let mut inner: Vec<(String, usize)> = Vec::new();
        for k in j + 2..close {
            let t = &toks[k];
            if t.kind == TokenKind::Ident
                && !is_keyword(&t.text)
                && t.text != "_"
                && t.text != "ref"
                && t.text != "mut"
            {
                inner.push((t.text.clone(), t.line));
            }
        }
        let mut eq = None;
        let mut depth = 0i64;
        for k in close + 1..semi {
            match toks[k].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=" if depth == 0 && toks[k].is_punct("=") => {
                    eq = Some(k);
                    break;
                }
                _ => {}
            }
        }
        let Some(eq) = eq else { return };
        // `split_first`/`split_last` payloads are `(head, tail-slice)`.
        let split = (eq + 1..semi).find(|&d| {
            toks[d].kind == TokenKind::Ident
                && matches!(
                    toks[d].text.as_str(),
                    "split_first" | "split_last" | "split_first_mut" | "split_last_mut"
                )
                && toks[d - 1].is_punct(".")
                && toks.get(d + 1).is_some_and(|t| t.is_punct("("))
        });
        if let (Some(d), 2) = (split, inner.len()) {
            let recv = Eval {
                toks,
                ctx,
                env,
                hi: d - 1,
            }
            .eval(eq + 1);
            let elem = recv.elem.unwrap_or_else(Interval::unknown);
            let tail = inner.pop().unwrap();
            let head = inner.pop().unwrap();
            sets.push(PendingSet {
                at: semi,
                name: head.0,
                info: VarInfo {
                    range: elem,
                    decl: None,
                    def_line: Some(head.1),
                    elem: None,
                    arr_len: None,
                },
                kind: SaveKind::Shadow,
            });
            sets.push(PendingSet {
                at: semi,
                name: tail.0,
                info: VarInfo {
                    range: Interval::unknown(),
                    decl: None,
                    def_line: Some(tail.1),
                    elem: Some(elem),
                    arr_len: None,
                },
                kind: SaveKind::Shadow,
            });
        } else if inner.len() == 1 {
            let v = Eval {
                toks,
                ctx,
                env,
                hi: semi,
            }
            .eval(eq + 1);
            let (name, line) = inner.pop().unwrap();
            sets.push(PendingSet {
                at: semi,
                name,
                info: VarInfo {
                    range: v.range,
                    decl: v.ty,
                    def_line: Some(line),
                    elem: v.elem,
                    arr_len: v.arr_len,
                },
                kind: SaveKind::Shadow,
            });
        } else {
            for (name, line) in inner {
                sets.push(PendingSet {
                    at: semi,
                    name,
                    info: VarInfo {
                        def_line: Some(line),
                        ..VarInfo::unknown()
                    },
                    kind: SaveKind::Shadow,
                });
            }
        }
        return;
    }
    let mut names: Vec<(String, usize)> = Vec::new();
    match toks.get(j) {
        Some(t) if t.kind == TokenKind::Ident && !is_keyword(&t.text) => {
            names.push((t.text.clone(), t.line));
            j += 1;
        }
        Some(t) if t.is_punct("(") => {
            let close = matching_close(toks, j).min(semi);
            for k in j + 1..close {
                let t = &toks[k];
                if t.kind == TokenKind::Ident && !is_keyword(&t.text) && t.text != "_" {
                    names.push((t.text.clone(), t.line));
                }
            }
            j = close + 1;
        }
        _ => return,
    }
    // Optional declared type.
    let mut decl_scalar = None;
    let mut decl_container = None;
    if toks.get(j).is_some_and(|t| t.is_punct(":")) {
        let (s, c) = parse_decl_type(toks, j + 1, ctx);
        decl_scalar = s;
        decl_container = c;
    }
    // Initializer.
    let mut eq = None;
    let mut depth = 0i64;
    for k in j..semi {
        match toks[k].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "=" if depth == 0 && toks[k].is_punct("=") => {
                eq = Some(k);
                break;
            }
            _ => {}
        }
    }
    let val = eq.map(|eq| {
        let eval = Eval {
            toks,
            ctx,
            env,
            hi: semi,
        };
        eval.eval(eq + 1)
    });
    if names.len() == 1 {
        let (name, _line) = names.pop().unwrap();
        let def_line = Some(toks[i].line);
        let info = match val {
            Some(v) => {
                let decl = decl_scalar.or(v.ty);
                let range = match decl {
                    Some(ty) => v.range.meet(&ty.value_range()).unwrap_or(v.range),
                    None => v.range,
                };
                VarInfo {
                    range,
                    decl,
                    def_line,
                    elem: v.elem.or(decl_container.and_then(|c| c.elem)),
                    arr_len: v.arr_len.or(decl_container.and_then(|c| c.len)),
                }
            }
            None => VarInfo {
                range: decl_scalar
                    .map(|ty| ty.value_range())
                    .unwrap_or_else(Interval::unknown),
                decl: decl_scalar,
                def_line,
                elem: decl_container.and_then(|c| c.elem),
                arr_len: decl_container.and_then(|c| c.len),
            },
        };
        sets.push(PendingSet {
            at: semi,
            name,
            info,
            kind: SaveKind::Shadow,
        });
    } else {
        // Tuple pattern: track the names at unknown (sound).
        for (name, line) in names {
            sets.push(PendingSet {
                at: semi,
                name,
                info: VarInfo {
                    def_line: Some(line),
                    ..VarInfo::unknown()
                },
                kind: SaveKind::Shadow,
            });
        }
    }
}

/// Parse an assignment statement's effect; strong update at fn top level
/// (straight-line code), weak (join) inside any frame.
#[allow(clippy::too_many_arguments)]
fn detect_assign(
    toks: &[Token],
    ctx: &Ctx,
    env: &Env,
    i: usize,
    op: &str,
    hi: usize,
    top_level: bool,
    sets: &mut Vec<PendingSet>,
) {
    let name = toks[i].text.clone();
    let semi = stmt_end(toks, i + 2, hi);
    let eval = Eval {
        toks,
        ctx,
        env,
        hi: semi,
    };
    let rhs = eval.eval(i + 2);
    let old = env.get(&name).cloned().unwrap_or_else(|| VarInfo {
        def_line: Some(toks[i].line),
        ..VarInfo::unknown()
    });
    let mathematical = match op {
        "=" => rhs.range,
        "+=" => old.range.add(&rhs.range),
        "-=" => old.range.sub(&rhs.range),
        "*=" => old.range.mul(&rhs.range),
        "/=" => old.range.div(&rhs.range),
        "%=" => old.range.rem(&rhs.range),
        "<<=" => old.range.shl(&rhs.range),
        ">>=" => old.range.shr(&rhs.range),
        "&=" => old.range.bitand(&rhs.range),
        _ => old.range.bitor_like(&rhs.range),
    };
    let mut range = match old.decl {
        // The declared type bounds whatever is stored (wrap/trap aside,
        // the stored bits reread at that type stay in its range).
        Some(ty) => mathematical
            .meet(&ty.value_range())
            .unwrap_or_else(|| ty.value_range()),
        None => mathematical,
    };
    if !top_level {
        range = old.range.join(&range);
    }
    sets.push(PendingSet {
        at: semi,
        name,
        info: VarInfo { range, ..old },
        kind: SaveKind::Mut,
    });
}

/// Parse an `if`/`while` head: returns the body `{` index, the variable
/// refinements implied by the condition's top-level conjuncts, and any
/// `if let Some(x) = e` payload bindings (bound to `e`'s element hull,
/// so `if let Some(&row) = index.get(j)` gives `row` the slice's element
/// range).
/// A recognized guard: the block-open token index, the refinements to
/// apply inside the block, and any `if let` payload bindings.
type Guard = (usize, Vec<(String, Interval)>, Vec<(String, VarInfo)>);

fn detect_guard(toks: &[Token], ctx: &Ctx, env: &Env, i: usize, hi: usize) -> Option<Guard> {
    let brace = find_block_open(toks, i + 1, hi)?;
    if toks.get(i + 1).is_some_and(|t| t.is_ident("let")) {
        let binds = detect_let_payload(toks, ctx, env, i + 2, brace);
        return Some((brace, Vec::new(), binds));
    }
    Some((
        brace,
        parse_conjuncts(toks, ctx, env, i + 1, brace),
        Vec::new(),
    ))
}

/// `Some(<&|mut>* name) = <expr>` (also `Ok(..)`) between `lo` and
/// `brace`: bind the payload name to the scrutinee's value hull.
fn detect_let_payload(
    toks: &[Token],
    ctx: &Ctx,
    env: &Env,
    lo: usize,
    brace: usize,
) -> Vec<(String, VarInfo)> {
    let wrapper = toks
        .get(lo)
        .filter(|t| t.is_ident("Some") || t.is_ident("Ok"));
    if wrapper.is_none() || !toks.get(lo + 1).is_some_and(|t| t.is_punct("(")) {
        return Vec::new();
    }
    let close = matching_close(toks, lo + 1);
    let mut k = lo + 2;
    while toks.get(k).is_some_and(|t| {
        t.is_punct("&") || t.is_punct("&&") || t.is_ident("mut") || t.is_ident("ref")
    }) {
        k += 1;
    }
    let name = match toks.get(k) {
        Some(t) if t.kind == TokenKind::Ident && !is_keyword(&t.text) && t.text != "_" => {
            t.text.clone()
        }
        _ => return Vec::new(),
    };
    if k + 1 != close || close + 1 >= brace || !toks[close + 1].is_punct("=") {
        return Vec::new();
    }
    let val = Eval {
        toks,
        ctx,
        env,
        hi: brace,
    }
    .eval(close + 2);
    vec![(
        name,
        VarInfo {
            range: val.range,
            decl: val.ty,
            def_line: Some(toks[lo].line),
            elem: val.elem,
            arr_len: val.arr_len,
        },
    )]
}

/// Split `[lo, hi)` at top-level `&&` and turn each comparison conjunct
/// into a range refinement for a plain-identifier side.
fn parse_conjuncts(
    toks: &[Token],
    ctx: &Ctx,
    env: &Env,
    lo: usize,
    hi: usize,
) -> Vec<(String, Interval)> {
    let mut out = Vec::new();
    let mut start = lo;
    let mut depth = 0i64;
    let push_conjunct = |s: usize, e: usize, out: &mut Vec<(String, Interval)>| {
        if let Some(r) = conjunct_refinement(toks, ctx, env, s, e) {
            out.push(r);
        }
    };
    for j in lo..hi.min(toks.len()) {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "&&" if depth == 0 && toks[j].is_punct("&&") => {
                push_conjunct(start, j, &mut out);
                start = j + 1;
            }
            "||" if depth == 0 && toks[j].is_punct("||") => return out, // disjunction: no refinement
            _ => {}
        }
    }
    push_conjunct(start, hi.min(toks.len()), &mut out);
    // A condition wrapped in one paren layer: recurse into it.
    if out.is_empty()
        && toks.get(lo).is_some_and(|t| t.is_punct("("))
        && matching_close(toks, lo) + 1 >= hi
    {
        return parse_conjuncts(toks, ctx, env, lo + 1, matching_close(toks, lo));
    }
    out
}

/// One comparison conjunct → refinement: `x <= E` narrows `x` from
/// above, `x >= E` from below, `x == E` meets, with mirrored forms.
fn conjunct_refinement(
    toks: &[Token],
    ctx: &Ctx,
    env: &Env,
    lo: usize,
    hi: usize,
) -> Option<(String, Interval)> {
    // Find the comparison operator at depth 0.
    let mut depth = 0i64;
    let mut cmp = None;
    for j in lo..hi.min(toks.len()) {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "<" | "<=" | ">" | ">=" | "==" if depth == 0 && toks[j].kind == TokenKind::Punct => {
                cmp = Some(j);
                break;
            }
            _ => {}
        }
    }
    let cmp = cmp?;
    let ident_side = |a: usize, b: usize| -> Option<String> {
        // A plain tracked identifier, possibly cast (`x as u64 <= E`
        // still bounds x when the cast is value-preserving — only accept
        // the bare ident form to stay simple and sound).
        if b == a + 1 && toks[a].kind == TokenKind::Ident && env.get(&toks[a].text).is_some() {
            Some(toks[a].text.clone())
        } else {
            None
        }
    };
    let eval_side = |a: usize, b: usize| -> Interval {
        let eval = Eval {
            toks,
            ctx,
            env,
            hi: b,
        };
        eval.eval(a).range
    };
    let op = toks[cmp].text.as_str();
    if let Some(name) = ident_side(lo, cmp) {
        let e = eval_side(cmp + 1, hi);
        let narrowed = match op {
            "<" => Interval::new(crate::intervals::NEG_INF, e.hi.saturating_sub(1)),
            "<=" => Interval::new(crate::intervals::NEG_INF, e.hi),
            ">" => Interval::new(e.lo.saturating_add(1), crate::intervals::INF),
            ">=" => Interval::new(e.lo, crate::intervals::INF),
            _ => e, // ==
        };
        return Some((name, narrowed));
    }
    if let Some(name) = ident_side(cmp + 1, hi) {
        let e = eval_side(lo, cmp);
        let narrowed = match op {
            "<" => Interval::new(e.lo.saturating_add(1), crate::intervals::INF), // E < x
            "<=" => Interval::new(e.lo, crate::intervals::INF),
            ">" => Interval::new(crate::intervals::NEG_INF, e.hi.saturating_sub(1)), // E > x
            ">=" => Interval::new(crate::intervals::NEG_INF, e.hi),
            _ => e,
        };
        return Some((name, narrowed));
    }
    None
}

/// Parse a `for <pat> in <iter>` head into precise loop bindings.
fn detect_for(toks: &[Token], ctx: &Ctx, env: &Env, i: usize, hi: usize) -> Option<PendingBlock> {
    let brace = find_block_open(toks, i + 1, hi)?;
    // Pattern: single ident or `(a, b)`.
    let mut names: Vec<String> = Vec::new();
    let mut j = i + 1;
    while toks
        .get(j)
        .is_some_and(|t| t.is_ident("mut") || t.is_punct("&"))
    {
        j += 1;
    }
    match toks.get(j) {
        Some(t) if t.kind == TokenKind::Ident && !is_keyword(&t.text) => {
            names.push(t.text.clone());
            j += 1;
        }
        Some(t) if t.is_punct("(") => {
            let close = matching_close(toks, j).min(brace);
            for k in j + 1..close {
                let t = &toks[k];
                if t.kind == TokenKind::Ident && !is_keyword(&t.text) {
                    names.push(t.text.clone());
                }
            }
            j = close + 1;
        }
        _ => return None,
    }
    if !toks.get(j).is_some_and(|t| t.is_ident("in")) {
        return None;
    }
    let it0 = j + 1;
    let def_line = toks[i].line;
    let havoc = assigned_names(toks, brace, matching_close(toks, brace).min(hi));
    let mut block = PendingBlock {
        at: brace,
        binds: Vec::new(),
        refines: Vec::new(),
        havoc,
    };
    let bind = |name: &str, info: VarInfo, block: &mut PendingBlock| {
        if name != "_" {
            block.binds.push((name.to_owned(), info));
        }
    };

    // Range iteration: first `..`/`..=` at paren depth ≤ 1 (allowing one
    // wrapping paren as in `(0..n).rev()`). A `..` inside brackets is a
    // subscript (`&x[a..b]`), not the iterator itself.
    let mut pdepth = 0i64;
    let mut bdepth = 0i64;
    let mut dd = None;
    for k in it0..brace {
        match toks[k].text.as_str() {
            "(" => pdepth += 1,
            ")" => pdepth -= 1,
            "[" | "{" => bdepth += 1,
            "]" | "}" => bdepth -= 1,
            ".." | "..=" if toks[k].kind == TokenKind::Punct && bdepth == 0 && pdepth <= 1 => {
                dd = Some(k);
                break;
            }
            _ => {}
        }
    }
    if let (Some(dd), 1) = (dd, names.len()) {
        let lo_start = if toks[it0].is_punct("(") {
            it0 + 1
        } else {
            it0
        };
        let left = Eval {
            toks,
            ctx,
            env,
            hi: dd,
        }
        .eval(lo_start);
        let right = Eval {
            toks,
            ctx,
            env,
            hi: brace,
        }
        .eval(dd + 1);
        let hi_bound = if toks[dd].text == "..=" {
            right.range.hi
        } else {
            right.range.hi.saturating_sub(1)
        };
        let range = Interval::new(left.range.lo, hi_bound.max(left.range.lo));
        bind(
            &names[0],
            VarInfo {
                range,
                decl: left.ty.or(right.ty),
                def_line: Some(def_line),
                elem: None,
                arr_len: None,
            },
            &mut block,
        );
        return Some(block);
    }

    // `.enumerate()` tail: strip it and bind (index, element).
    let ends_enumerate = brace >= 4
        && toks[brace - 1].is_punct(")")
        && toks[brace - 2].is_punct("(")
        && toks[brace - 3].is_ident("enumerate")
        && toks[brace - 4].is_punct(".");
    let iter_hi = if ends_enumerate { brace - 4 } else { brace };
    // `.windows(n)` / `.chunks(n)` / `.chunks_exact(n)` tails iterate
    // sub-slices of the base container: the loop variable is itself a
    // container over the base's elements (with exact length `n` for
    // `windows`/`chunks_exact`; a trailing `chunks` chunk may be short).
    let mut sub: Option<(Option<i128>, usize)> = None; // (exact len, base_hi)
    if iter_hi >= 4 && toks[iter_hi - 1].is_punct(")") {
        let open = (it0..iter_hi - 1)
            .rev()
            .find(|&p| toks[p].is_punct("(") && matching_close(toks, p) == iter_hi - 1);
        if let Some(open) = open {
            if open >= 2 && toks[open - 2].is_punct(".") {
                let tail = toks[open - 1].text.as_str();
                if matches!(tail, "windows" | "chunks" | "chunks_exact") {
                    let n = Eval {
                        toks,
                        ctx,
                        env,
                        hi: iter_hi - 1,
                    }
                    .eval(open + 1);
                    let exact =
                        (tail != "chunks" && n.range.lo == n.range.hi).then_some(n.range.lo);
                    sub = Some((exact, open - 2));
                }
            }
        }
    }
    // `.zip(other)` tail: the loop yields `(recv_elem, other_elem)`
    // pairs, so a tuple pattern binds each side's element hull.
    let mut zip: Option<(usize, usize, usize)> = None; // (arg_lo, arg_hi, base_hi)
    if sub.is_none() && iter_hi >= 4 && toks[iter_hi - 1].is_punct(")") {
        let open = (it0..iter_hi - 1)
            .rev()
            .find(|&p| toks[p].is_punct("(") && matching_close(toks, p) == iter_hi - 1);
        if let Some(open) = open {
            if open >= 2 && toks[open - 2].is_punct(".") && toks[open - 1].is_ident("zip") {
                zip = Some((open + 1, iter_hi - 1, open - 2));
            }
        }
    }
    let recv = Eval {
        toks,
        ctx,
        env,
        hi: sub
            .map(|(_, base_hi)| base_hi)
            .or(zip.map(|(_, _, base_hi)| base_hi))
            .unwrap_or(iter_hi),
    }
    .eval(it0);
    if let Some((arg_lo, arg_hi, _)) = zip {
        let other = Eval {
            toks,
            ctx,
            env,
            hi: arg_hi,
        }
        .eval(arg_lo);
        let scalar = |v: &Val| VarInfo {
            range: v.elem.unwrap_or_else(Interval::unknown),
            decl: None,
            def_line: Some(def_line),
            elem: None,
            arr_len: None,
        };
        let pair_ok = if ends_enumerate {
            names.len() == 3
        } else {
            names.len() == 2
        };
        if pair_ok {
            let mut k = 0;
            if ends_enumerate {
                bind(
                    &names[0],
                    VarInfo {
                        range: Interval::new(0, u64::MAX as i128),
                        decl: Some(IntType::Usize),
                        def_line: Some(def_line),
                        elem: None,
                        arr_len: None,
                    },
                    &mut block,
                );
                k = 1;
            }
            bind(&names[k], scalar(&recv), &mut block);
            bind(&names[k + 1], scalar(&other), &mut block);
            return Some(block);
        }
        // Unexpected pattern shape: fall through to unknown bindings.
        for name in &names {
            bind(
                name,
                VarInfo {
                    def_line: Some(def_line),
                    ..VarInfo::unknown()
                },
                &mut block,
            );
        }
        return Some(block);
    }
    let elem_info = |recv: &Val| -> VarInfo {
        match sub {
            Some((exact, _)) => VarInfo {
                range: Interval::unknown(),
                decl: None,
                def_line: Some(def_line),
                elem: recv.elem,
                arr_len: exact,
            },
            None => VarInfo {
                range: recv.elem.unwrap_or_else(Interval::unknown),
                decl: None,
                def_line: Some(def_line),
                elem: None,
                arr_len: None,
            },
        }
    };
    if ends_enumerate && names.len() == 2 {
        let idx_range = match recv.arr_len {
            Some(n) if n > 0 => Interval::new(0, n - 1),
            _ => Interval::new(0, u64::MAX as i128),
        };
        bind(
            &names[0],
            VarInfo {
                range: idx_range,
                decl: Some(IntType::Usize),
                def_line: Some(def_line),
                elem: None,
                arr_len: None,
            },
            &mut block,
        );
        bind(&names[1], elem_info(&recv), &mut block);
        return Some(block);
    }
    if names.len() == 1 {
        bind(&names[0], elem_info(&recv), &mut block);
        return Some(block);
    }
    for name in &names {
        bind(
            name,
            VarInfo {
                def_line: Some(def_line),
                ..VarInfo::unknown()
            },
            &mut block,
        );
    }
    Some(block)
}

/// Adapters whose closure receives the receiver's elements: comparators
/// see two elements, the rest see one (leading) element argument.
const BOTH_ELEM_ADAPTERS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "binary_search_by",
    "dedup_by",
    "max_by",
    "min_by",
    "is_sorted_by",
];
const FIRST_ELEM_ADAPTERS: &[&str] = &[
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "retain",
    "position",
    "rposition",
    "any",
    "all",
    "find",
    "for_each",
    "take_while",
    "skip_while",
    "sort_by_key",
    "sort_unstable_by_key",
    "min_by_key",
    "max_by_key",
    "dedup_by_key",
    "partition_point",
    "is_sorted_by_key",
    "inspect",
];

/// `<recv> . <adapter> ( [move] |<params>| … )` at the `.` token `dot`:
/// the closure parameter names to bind, the call's closing-paren index
/// (the bindings' extent), and the per-element binding — a scalar hull,
/// or a sub-slice shape when the receiver ends in `.windows(n)`-style
/// adapters.
fn closure_elem_binding(
    toks: &[Token],
    ctx: &Ctx,
    env: &Env,
    dot: usize,
    lo: usize,
    hi: usize,
) -> Option<(Vec<String>, usize, VarInfo)> {
    let m = toks.get(dot + 1)?;
    if m.kind != TokenKind::Ident {
        return None;
    }
    let both = BOTH_ELEM_ADAPTERS.contains(&m.text.as_str());
    if !both && !FIRST_ELEM_ADAPTERS.contains(&m.text.as_str()) {
        return None;
    }
    let open = dot + 2;
    if !toks.get(open).is_some_and(|t| t.is_punct("(")) {
        return None;
    }
    let close_paren = matching_close(toks, open).min(hi);
    let mut k = open + 1;
    if toks.get(k).is_some_and(|t| t.is_ident("move")) {
        k += 1;
    }
    if !toks.get(k).is_some_and(|t| t.is_punct("|")) {
        return None;
    }
    // Collect the parameter names up to the closing `|`; bail on typed or
    // destructured parameters to stay simple.
    let mut names = Vec::new();
    let mut j = k + 1;
    loop {
        let t = toks.get(j)?;
        if t.is_punct("|") {
            break;
        }
        match t.kind {
            TokenKind::Ident if t.is_ident("mut") || t.is_ident("ref") => {}
            TokenKind::Ident if !is_keyword(&t.text) => names.push(t.text.clone()),
            TokenKind::Punct if matches!(t.text.as_str(), "&" | "&&" | "," | "_") => {}
            _ => return None,
        }
        if j >= close_paren {
            return None;
        }
        j += 1;
    }
    if names.is_empty() {
        return None;
    }
    if !both {
        names.truncate(1);
    }
    let start = operand_start(toks, dot, lo);
    // A `.windows(n)` / `.chunks(n)` / `.chunks_exact(n)` receiver tail
    // means the closure sees sub-slices of the base container.
    let mut sub: Option<(Option<i128>, usize)> = None;
    if dot >= 4 && toks[dot - 1].is_punct(")") {
        if let Some(popen) = (start..dot - 1)
            .rev()
            .find(|&p| toks[p].is_punct("(") && matching_close(toks, p) == dot - 1)
        {
            if popen >= 2 && toks[popen - 2].is_punct(".") {
                let tail = toks[popen - 1].text.as_str();
                if matches!(tail, "windows" | "chunks" | "chunks_exact") {
                    let n = Eval {
                        toks,
                        ctx,
                        env,
                        hi: dot - 1,
                    }
                    .eval(popen + 1);
                    let exact =
                        (tail != "chunks" && n.range.lo == n.range.hi).then_some(n.range.lo);
                    sub = Some((exact, popen - 2));
                }
            }
        }
    }
    let recv = Eval {
        toks,
        ctx,
        env,
        hi: sub.map(|(_, base_hi)| base_hi).unwrap_or(dot),
    }
    .eval(start);
    let info = match sub {
        Some((exact, _)) => VarInfo {
            range: Interval::unknown(),
            decl: None,
            def_line: Some(toks[dot].line),
            elem: Some(recv.elem?),
            arr_len: exact,
        },
        None => VarInfo {
            range: recv.elem?,
            decl: None,
            def_line: Some(toks[dot].line),
            elem: None,
            arr_len: None,
        },
    };
    Some((names, close_paren, info))
}

/// `|a: u32, b: u32| …` — a closure whose parameters carry explicit type
/// annotations binds each name to its declared range for the closure's
/// extent, independent of the receiver. Untyped parameters are left to
/// the adapter-based path ([`closure_elem_binding`]).
fn typed_closure_params(
    toks: &[Token],
    ctx: &Ctx,
    i: usize,
    hi: usize,
) -> Option<(Vec<(String, VarInfo)>, usize)> {
    let prev_ok = i
        .checked_sub(1)
        .map(|p| {
            toks[p].is_punct("=")
                || toks[p].is_punct("(")
                || toks[p].is_punct(",")
                || toks[p].is_ident("move")
        })
        .unwrap_or(false);
    if !prev_ok {
        return None;
    }
    let mut binds: Vec<(String, VarInfo)> = Vec::new();
    let mut j = i + 1;
    loop {
        while toks.get(j).is_some_and(|t| {
            t.is_ident("mut") || t.is_ident("ref") || t.is_punct("&") || t.is_punct("&&")
        }) {
            j += 1;
        }
        let t = toks.get(j)?;
        if t.is_punct("|") {
            break;
        }
        if t.kind != TokenKind::Ident || is_keyword(&t.text) {
            return None;
        }
        let (name, def_line) = (t.text.clone(), Some(t.line));
        j += 1;
        if !toks.get(j).is_some_and(|t| t.is_punct(":")) {
            return None;
        }
        let (scalar, container) = parse_decl_type(toks, j + 1, ctx);
        if name != "_" {
            binds.push((
                name,
                VarInfo {
                    range: scalar
                        .map(|ty| ty.value_range())
                        .unwrap_or_else(Interval::unknown),
                    decl: scalar,
                    def_line,
                    elem: container.and_then(|c| c.elem),
                    arr_len: container.and_then(|c| c.len),
                },
            ));
        }
        // Skip past the type annotation to the `,` / closing `|`.
        let mut depth = 0i64;
        let mut angle = 0i64;
        loop {
            let t = toks.get(j)?;
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" => angle += 1,
                ">" => angle -= 1,
                "," if depth == 0 && angle <= 0 => {
                    j += 1;
                    break;
                }
                "|" if depth == 0 && angle <= 0 && t.kind == TokenKind::Punct => break,
                _ => {}
            }
            j += 1;
        }
    }
    if binds.is_empty() {
        return None;
    }
    // Body extent: the brace block (skipping a `-> ty`), or the rest of
    // the statement for expression bodies.
    let mut k = j + 1;
    if toks.get(k).is_some_and(|t| t.is_punct("->")) {
        while toks.get(k).is_some_and(|t| !t.is_punct("{")) {
            k += 1;
        }
    }
    let close = if toks.get(k).is_some_and(|t| t.is_punct("{")) {
        matching_close(toks, k).min(hi)
    } else {
        stmt_end(toks, k, hi)
    };
    Some((binds, close))
}

/// Names that receive a (compound) assignment anywhere in `[open, close)`
/// — the loop-entry havoc set.
fn assigned_names(toks: &[Token], open: usize, close: usize) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for j in open + 1..close.min(toks.len()) {
        let t = &toks[j];
        if t.kind != TokenKind::Ident || is_keyword(&t.text) {
            continue;
        }
        let prev_blocks = j
            .checked_sub(1)
            .map(|p| {
                toks[p].is_punct(".")
                    || toks[p].is_punct("::")
                    || toks[p].is_ident("let")
                    || toks[p].is_ident("mut")
            })
            .unwrap_or(false);
        if prev_blocks {
            continue;
        }
        let assigned = toks.get(j + 1).is_some_and(|n| {
            n.kind == TokenKind::Punct && (n.text == "=" || COMPOUND_OPS.contains(&n.text.as_str()))
        });
        if assigned && !out.contains(&t.text) {
            out.push(t.text.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::Workspace;

    fn ws(content: &str) -> Workspace {
        Workspace::build(vec![(
            "crates/core/src/check.rs".to_owned(),
            content.to_owned(),
        )])
    }

    fn eval_in(ws_: &Workspace, env: &Env, src_contains: &str) -> Val {
        let ctx = build_ctx(ws_);
        let toks = &ws_.files[0].tokens;
        let at = toks
            .iter()
            .position(|t| t.text == src_contains)
            .expect("anchor token");
        let eval = Eval {
            toks,
            ctx: &ctx,
            env,
            hi: toks.len(),
        };
        eval.eval(at)
    }

    #[test]
    fn literals_and_consts_evaluate() {
        let w = ws("const LIMIT: usize = 64;\nfn f() { let x = LIMIT + 1; }\n");
        let v = eval_in(&w, &Env::default(), "LIMIT");
        assert_eq!(v.range, Interval::point(64));
    }

    #[test]
    fn assoc_consts_and_shifts_evaluate() {
        let w = ws("fn f() { let x = 1 << 8; let y = u8::MAX; }\n");
        let ctx = build_ctx(&w);
        let toks = &w.files[0].tokens;
        let one = toks.iter().position(|t| t.text == "1").unwrap();
        let env = Env::default();
        let e = Eval {
            toks,
            ctx: &ctx,
            env: &env,
            hi: toks.len(),
        };
        // `1 << 8 ;` — stop at the `;` by bounding hi.
        let semi = toks
            .iter()
            .enumerate()
            .position(|(i, t)| i > one && t.is_punct(";"))
            .unwrap();
        let bounded = Eval {
            toks,
            ctx: &ctx,
            env: &env,
            hi: semi,
        };
        assert_eq!(bounded.eval(one).range, Interval::point(256));
        let umax = toks.iter().position(|t| t.text == "u8").unwrap();
        assert_eq!(e.expr(umax, 0).0.range, Interval::point(255));
    }

    #[test]
    fn cast_wraps_out_of_range_operands() {
        let w = ws("fn f(x: u64) { let y = x as u8; let z = 200u64 as u8; }\n");
        let ctx = build_ctx(&w);
        let f = &w.fns[0];
        let env = param_env(&w, &ctx, f);
        let toks = &w.files[0].tokens;
        let x = toks.iter().rposition(|t| t.text == "x").unwrap();
        let e = Eval {
            toks,
            ctx: &ctx,
            env: &env,
            hi: toks.len(),
        };
        let (v, _) = e.expr(x, 0);
        assert_eq!(v.range, IntType::U8.value_range(), "wrapped to full u8");
        let lit = toks.iter().position(|t| t.text == "200u64").unwrap();
        let (v, _) = e.expr(lit, 0);
        assert_eq!(v.range, Interval::point(200), "in-range cast is exact");
    }

    #[test]
    fn summaries_refine_simple_returns() {
        let w = ws("pub fn width() -> u32 { 64 }\n\
             pub fn indirect() -> u32 { width() + 1 }\n");
        let ctx = build_ctx(&w);
        assert_eq!(ctx.summaries["width"], Interval::point(64));
        assert_eq!(ctx.summaries["indirect"], Interval::point(65));
    }

    #[test]
    fn operand_start_walks_chains() {
        let w = ws("fn f(v: &[u32]) { let x = v.len().min(9) as u32; }\n");
        let toks = &w.files[0].tokens;
        let as_idx = toks.iter().position(|t| t.is_ident("as")).unwrap();
        let start = operand_start(toks, as_idx, 0);
        assert_eq!(toks[start].text, "v");
    }

    #[test]
    fn param_env_types_params_and_slices() {
        let w = ws("fn f(a: u16, codes: &[u32]) { let _ = (a, codes); }\n");
        let ctx = build_ctx(&w);
        let env = param_env(&w, &ctx, &w.fns[0]);
        assert_eq!(env.get("a").unwrap().range, IntType::U16.value_range());
        assert_eq!(
            env.get("codes").unwrap().elem,
            Some(IntType::U32.value_range())
        );
    }

    #[test]
    fn array_literal_infers_len_and_elem() {
        let w = ws("const BLOCK: usize = 64;\nfn f() { let buf = [0u8; BLOCK + 1]; }\n");
        let ctx = build_ctx(&w);
        let toks = &w.files[0].tokens;
        let open = toks
            .iter()
            .enumerate()
            .find(|(_, t)| t.is_punct("["))
            .map(|(i, _)| i)
            .unwrap();
        let env = Env::default();
        let e = Eval {
            toks,
            ctx: &ctx,
            env: &env,
            hi: toks.len(),
        };
        let (v, _) = e.expr(open, 0);
        assert_eq!(v.arr_len, Some(65));
        assert_eq!(v.elem, Some(Interval::point(0)));
    }
}
