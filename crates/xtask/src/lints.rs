//! The lint suite behind `cargo xtask check`.
//!
//! Seven token-level checks over workspace + vendor sources (the token
//! stream comes from [`crate::tokens`] — no syn, no registry access),
//! tuned to the concurrency invariants this repo's serving stack
//! depends on:
//!
//! * [`LINT_UNSAFE`] — every `unsafe` block/fn/impl carries a `// SAFETY:`
//!   comment (or a `# Safety` doc section) in the comment block directly
//!   above it. Backed by `clippy::undocumented_unsafe_blocks` at the
//!   workspace level (denied there); this lint additionally covers
//!   `unsafe fn` and runs without a full build.
//! * [`LINT_ORDERING`] — every non-`SeqCst` atomic `Ordering::` use carries
//!   an `// ORDERING:` justification, trailing or in the comment block
//!   above (one comment may cover a contiguous cluster of atomic lines).
//!   Relaxed/Acquire/Release choices are exactly where weak-memory races
//!   hide; the comment forces each one to state why it is sufficient.
//! * [`LINT_ATOMIC_PAIRING`] — an `Ordering::Acquire` is only half of an
//!   edge: its `// ORDERING:` justification must *name the `Release`
//!   partner* and cite the field the edge rides on (checked textually
//!   against the loaded field), so every Acquire documents where the
//!   matching Release store lives.
//! * [`LINT_THREAD`] — no `std::thread::spawn` / `thread::Builder` /
//!   `spawn_scoped` outside `rs_par::scope`: dedicated service threads
//!   must go through the one abstraction that joins them and propagates
//!   panics (pool workers must never run blocking service loops).
//! * [`LINT_CHANNEL`] — no unbounded `mpsc::channel()` in the `crates/serve`
//!   or `crates/core` *libraries*: bounded backpressure end-to-end is a
//!   PR-6 invariant; an unbounded buffer silently reintroduces O(batch)
//!   memory. CLI driver binaries under `src/bin/` are the client side of
//!   the protocol and are out of scope.
//! * [`LINT_SERVE_PANIC`] — no `unwrap()` / `expect()` / `println!` in
//!   non-test `crates/serve` library code: the server loop must degrade,
//!   not abort, and speaks through replies/stats, not stdout. Two idioms
//!   are deliberately exempt: `.lock().unwrap()` and `.wait(..).unwrap()`
//!   are *poison propagation* — a poisoned mutex/condvar means a prior
//!   panic already doomed the process, and propagating it is the correct
//!   degraded behaviour (this used to live in the allowlist; the token
//!   scanner can see the receiver, so it is policy now). `src/bin/`
//!   drivers speak through stdout by design and are out of scope.
//! * [`LINT_LOCK_ORDER`] — mutex acquisition order must be consistent:
//!   [`LockOrderCollector`] builds a per-crate graph from syntactically
//!   nested `.lock()` scopes (a `let`-bound guard is held to the end of
//!   its block; an unbound temporary to the end of its statement) and
//!   flags every acquisition that closes a cycle, including re-acquiring
//!   a lock already held (self-deadlock with a non-reentrant `Mutex`).
//!   The analysis is intra-file and name-based (a lock is identified by
//!   the last field/method component of its receiver), so it sees the
//!   order each *file* commits to — cross-function nesting is out of
//!   scope, the allowlist is the escape hatch for deliberate aliasing.
//!
//! Test code is exempt everywhere: files under `tests/` or `benches/`
//! never reach the lints, and `#[cfg(test)]` items inside source files
//! are skipped via token-level attribute + brace tracking. Comments,
//! string literals (raw, byte, multi-line — all of them), char literals
//! and lifetimes are real tokens here, so lints cannot fire on prose,
//! on this file's own pattern constants, or on formatting artifacts —
//! the line-based scanner this replaced needed allowlist entries for
//! those; this one needs correct code.

use std::collections::BTreeMap;

use crate::tokens::{self, Token, TokenKind};

/// `unsafe` without an adjacent `// SAFETY:` justification.
pub const LINT_UNSAFE: &str = "unsafe-safety-comment";
/// Non-`SeqCst` atomic ordering without an `// ORDERING:` justification.
pub const LINT_ORDERING: &str = "ordering-justified";
/// `Ordering::Acquire` whose justification does not cite its `Release`
/// partner and the field the edge rides on.
pub const LINT_ATOMIC_PAIRING: &str = "atomic-pairing";
/// Thread spawn primitives outside `rs_par::scope`.
pub const LINT_THREAD: &str = "scoped-threads-only";
/// Unbounded `mpsc::channel()` on the serving path.
pub const LINT_CHANNEL: &str = "bounded-channels-only";
/// Panic/print escape hatches in the server loop.
pub const LINT_SERVE_PANIC: &str = "serve-panic-free";
/// Inconsistent mutex acquisition order (potential deadlock cycle).
pub const LINT_LOCK_ORDER: &str = "lock-order-consistent";

/// Every lint, for per-lint reporting.
pub const ALL_LINTS: [&str; 7] = [
    LINT_UNSAFE,
    LINT_ORDERING,
    LINT_ATOMIC_PAIRING,
    LINT_THREAD,
    LINT_CHANNEL,
    LINT_SERVE_PANIC,
    LINT_LOCK_ORDER,
];

/// One finding: `file:line:col` plus span, the violating token's line,
/// and what to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which lint fired (one of [`ALL_LINTS`]).
    pub lint: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line of the violating token.
    pub line: usize,
    /// 1-based byte column of the violating token within its line.
    pub col: usize,
    /// Span length of the violating token sequence, in bytes.
    pub span: usize,
    /// The violating token's source line, trimmed. Allowlist substrings
    /// match against this (the token's own line — for a construct that
    /// spans lines, that is where the flagged token starts).
    pub text: String,
    /// 1-based byte column of the token within `text` (i.e. `col` minus
    /// the indentation the trim removed), for caret rendering.
    pub text_col: usize,
    /// Human-readable explanation + fix.
    pub message: String,
}

// ---------------------------------------------------------------------------
// File analysis: tokens + line table + test/attr regions
// ---------------------------------------------------------------------------

/// Per-line facts derived from the token stream.
#[derive(Default)]
struct LineInfo {
    /// The raw physical line.
    text: String,
    /// Concatenated text of every comment token touching this line.
    comments: String,
    /// A non-comment token outside any attribute touches this line.
    has_code: bool,
    /// A token inside an attribute touches this line.
    has_attr: bool,
    /// An `unsafe` identifier token starts on this line.
    has_unsafe: bool,
    /// An `Ordering::` path (any member) starts on this line.
    has_ordering: bool,
    /// A `yield_point` identifier starts on this line.
    has_yield: bool,
}

impl LineInfo {
    /// Comment-only (or attribute-only) lines are transparent to the
    /// justification walk; blank lines and code lines stop it.
    fn transparent(&self) -> bool {
        (!self.has_code && (self.has_attr || !self.comments.is_empty())) && !self.is_blank()
    }

    fn is_blank(&self) -> bool {
        !self.has_code && !self.has_attr && self.comments.is_empty()
    }
}

/// Lexed source plus the line/region tables every lint shares.
struct FileAnalysis<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens, in order.
    sig: Vec<usize>,
    /// Indexed by `line - 1`.
    lines: Vec<LineInfo>,
    /// Byte ranges covered by `#[cfg(test)]`-gated items.
    test_ranges: Vec<(usize, usize)>,
    /// Byte ranges covered by attributes (`#[...]` / `#![...]`).
    attr_ranges: Vec<(usize, usize)>,
}

impl<'a> FileAnalysis<'a> {
    fn new(src: &'a str) -> Self {
        let tokens = tokens::lex(src);
        let sig: Vec<usize> = (0..tokens.len()).filter(|&i| !tokens[i].kind.is_comment()).collect();
        let attr_ranges = find_attr_ranges(src, &tokens, &sig);
        let test_ranges = find_test_ranges(src, &tokens, &sig, &attr_ranges);
        let mut lines: Vec<LineInfo> =
            src.lines().map(|l| LineInfo { text: l.to_string(), ..LineInfo::default() }).collect();
        // `str::lines` drops a trailing newline-less last line only when
        // empty; tokens never start past the last line, but guard anyway.
        let max_line = tokens.iter().map(|t| t.end_line).max().unwrap_or(0);
        while lines.len() < max_line {
            lines.push(LineInfo::default());
        }
        for t in &tokens {
            let covered = (t.line - 1)..t.end_line.min(lines.len());
            if t.kind.is_comment() {
                let text = t.text(src);
                for l in covered {
                    lines[l].comments.push_str(text);
                    lines[l].comments.push('\n');
                }
                continue;
            }
            let in_attr = in_ranges(t.start, &attr_ranges);
            for l in covered {
                if in_attr {
                    lines[l].has_attr = true;
                } else {
                    lines[l].has_code = true;
                }
            }
            let flags = &mut lines[t.line - 1];
            if t.kind == TokenKind::Ident {
                match t.text(src) {
                    "unsafe" => flags.has_unsafe = true,
                    "yield_point" => flags.has_yield = true,
                    _ => {}
                }
            }
        }
        let mut fa = FileAnalysis { src, tokens, sig, lines, test_ranges, attr_ranges };
        // Ordering:: lines need the two-token lookahead, so a second pass.
        for s in 0..fa.sig.len() {
            if fa.path_member(s, "Ordering").is_some() {
                let line = fa.tok(s).line;
                fa.lines[line - 1].has_ordering = true;
            }
        }
        fa
    }

    /// The `s`-th significant token.
    fn tok(&self, s: usize) -> &Token {
        &self.tokens[self.sig[s]]
    }

    fn text_of(&self, s: usize) -> &str {
        self.tok(s).text(self.src)
    }

    fn is_ident(&self, s: usize, name: &str) -> bool {
        self.tok(s).kind == TokenKind::Ident && self.text_of(s) == name
    }

    fn is_punct(&self, s: usize, ch: char) -> bool {
        self.tok(s).kind == TokenKind::Punct && self.text_of(s).starts_with(ch)
    }

    /// If `sig[s]` is `base` immediately followed by `::` and a member
    /// identifier, returns the member's significant index.
    fn path_member(&self, s: usize, base: &str) -> Option<usize> {
        if !self.is_ident(s, base) || s + 3 > self.sig.len() {
            return None;
        }
        let (c1, c2, m) = (s + 1, s + 2, s + 3);
        if m >= self.sig.len() || !self.is_punct(c1, ':') || !self.is_punct(c2, ':') {
            return None;
        }
        // The two colons must be adjacent bytes (a real `::`).
        if self.tok(c1).end != self.tok(c2).start {
            return None;
        }
        (self.tok(m).kind == TokenKind::Ident).then_some(m)
    }

    fn in_test(&self, t: &Token) -> bool {
        in_ranges(t.start, &self.test_ranges)
    }

    fn in_attr(&self, t: &Token) -> bool {
        in_ranges(t.start, &self.attr_ranges)
    }

    /// Looks for any of `markers` in the comments on the flagged line
    /// itself (leading or trailing comment) or in the contiguous
    /// comment/attribute block directly above. Lines for which `skip`
    /// returns true extend the walk (used to let one `// ORDERING:`
    /// comment cover a contiguous cluster of atomic lines).
    fn justified(&self, line: usize, markers: &[&str], skip: impl Fn(&LineInfo) -> bool) -> bool {
        self.justification_comment(line, &skip)
            .is_some_and(|text| markers.iter().any(|m| text.contains(m)))
    }

    /// The concatenated comment text the justification walk can see from
    /// `line` (1-based): same-line comments plus the contiguous
    /// comment/attr/skip block above. `None` when there is none at all.
    fn justification_comment(
        &self,
        line: usize,
        skip: &impl Fn(&LineInfo) -> bool,
    ) -> Option<String> {
        let mut collected = String::new();
        let mut push = |l: &LineInfo| {
            if !l.comments.is_empty() {
                collected.push_str(&l.comments);
            }
        };
        push(&self.lines[line - 1]);
        let mut j = line - 1; // 0-based index of the flagged line
        while j > 0 {
            j -= 1;
            let l = &self.lines[j];
            if l.transparent() || (l.has_code && skip(l)) {
                push(l);
                continue;
            }
            break;
        }
        (!collected.is_empty()).then_some(collected)
    }
}

fn in_ranges(pos: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(s, e)| pos >= s && pos < e)
}

/// Byte ranges of attributes: `#` (optional `!`) `[` … matching `]`.
fn find_attr_ranges(src: &str, tokens: &[Token], sig: &[usize]) -> Vec<(usize, usize)> {
    let text = |s: usize| -> &str { tokens[sig[s]].text(src) };
    let mut out = Vec::new();
    let mut s = 0;
    while s < sig.len() {
        if text(s) != "#" {
            s += 1;
            continue;
        }
        let start = tokens[sig[s]].start;
        let mut k = s + 1;
        if k < sig.len() && text(k) == "!" {
            k += 1;
        }
        if k >= sig.len() || text(k) != "[" {
            s += 1;
            continue;
        }
        let mut depth = 0i64;
        let mut end = None;
        while k < sig.len() {
            match text(k) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(tokens[sig[k]].end);
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        match end {
            Some(e) => {
                out.push((start, e));
                s = k + 1;
            }
            None => {
                out.push((start, src.len()));
                break;
            }
        }
    }
    out
}

/// Byte ranges of `#[cfg(test)]`-gated items (attribute through the
/// item's closing `}` or `;`).
fn find_test_ranges(
    src: &str,
    tokens: &[Token],
    sig: &[usize],
    attr_ranges: &[(usize, usize)],
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for &(a_start, a_end) in attr_ranges {
        let body: String = tokens
            .iter()
            .filter(|t| t.start >= a_start && t.end <= a_end && !t.kind.is_comment())
            .map(|t| t.text(src))
            .collect();
        if !(body.contains("cfg(test") || body.contains("cfg(all(test")) {
            continue;
        }
        // Find the first significant token after the attribute, skipping
        // further attributes; then consume the item.
        let mut k = match sig.iter().position(|&i| tokens[i].start >= a_end) {
            Some(k) => k,
            None => continue,
        };
        while k < sig.len() && in_ranges(tokens[sig[k]].start, attr_ranges) {
            k += 1;
        }
        let mut depth = 0i64;
        let mut end = None;
        while k < sig.len() {
            let t = &tokens[sig[k]];
            match t.text(src) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        end = Some(t.end);
                        break;
                    }
                }
                ";" if depth == 0 => {
                    end = Some(t.end); // e.g. `mod tests;`
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        out.push((a_start, end.unwrap_or(src.len())));
    }
    out
}

// ---------------------------------------------------------------------------
// The per-file lints
// ---------------------------------------------------------------------------

/// Non-`SeqCst` atomic ordering members.
const WEAK_ORDERINGS: [&str; 4] = ["Relaxed", "Acquire", "Release", "AcqRel"];

/// Runs every per-file lint over one file. `path` must be
/// workspace-relative with forward slashes (it selects which path-scoped
/// lints apply). Files under `tests/` or `benches/` are the caller's job
/// to exclude. The cross-file lock-order pass lives in
/// [`LockOrderCollector`].
pub fn lint_source(path: &str, source: &str) -> Vec<Violation> {
    let fa = FileAnalysis::new(source);
    let mut out = Vec::new();
    let bin = path.contains("/bin/");
    let serve_scope = path.starts_with("crates/serve/") && !bin;
    let channel_scope = (serve_scope || path.starts_with("crates/core/")) && !bin;

    let mut push = |tok: &Token, span: usize, lint: &'static str, message: String| {
        let line_text = &fa.lines[tok.line - 1].text;
        let trimmed = line_text.trim();
        let indent = line_text.len() - line_text.trim_start().len();
        out.push(Violation {
            lint,
            file: path.to_string(),
            line: tok.line,
            col: tok.col,
            span,
            text: trimmed.to_string(),
            text_col: tok.col.saturating_sub(indent).max(1),
            message,
        });
    };

    for s in 0..fa.sig.len() {
        let tok = fa.tok(s);
        if fa.in_test(tok) || fa.in_attr(tok) {
            continue;
        }

        // unsafe-safety-comment: skip `unsafe [extern ["C"]] fn(` — a bare
        // function *pointer type*, not an unsafe operation site.
        if fa.is_ident(s, "unsafe") {
            let mut k = s + 1;
            if k < fa.sig.len() && fa.is_ident(k, "extern") {
                k += 1;
                if k < fa.sig.len() && fa.tok(k).kind == TokenKind::StrLit {
                    k += 1;
                }
            }
            let is_fn_pointer_type =
                k + 1 < fa.sig.len() && fa.is_ident(k, "fn") && fa.is_punct(k + 1, '(');
            if !is_fn_pointer_type
                && !fa.justified(tok.line, &["SAFETY:", "# Safety"], |l| l.has_unsafe)
            {
                push(
                    tok,
                    tok.len(),
                    LINT_UNSAFE,
                    "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc section) \
                     directly above — state the invariant that makes this sound"
                        .to_string(),
                );
            }
        }

        // ordering-justified + atomic-pairing. The upward walk treats
        // other atomic lines and `model::yield_point()` instrumentation
        // as transparent, so one comment can cover a contiguous cluster
        // of atomics with schedule-fuzz probes between them.
        if let Some(m) = fa.path_member(s, "Ordering") {
            let member = fa.text_of(m).to_string();
            if WEAK_ORDERINGS.contains(&member.as_str()) {
                let span = fa.tok(m).end - tok.start;
                let skip = |l: &LineInfo| l.has_ordering || l.has_yield;
                let comment = fa.justification_comment(tok.line, &skip).unwrap_or_default();
                if !comment.contains("ORDERING:") {
                    push(
                        tok,
                        span,
                        LINT_ORDERING,
                        "non-SeqCst atomic ordering without an `// ORDERING:` justification — \
                         say why this weakening cannot lose a cross-thread visibility edge"
                            .to_string(),
                    );
                } else if member == "Acquire" {
                    // atomic-pairing: the justification must name the
                    // Release partner and cite the loaded field.
                    if let Some(field) = fa.receiver_field(s) {
                        let lower = comment.to_lowercase();
                        if !(lower.contains("release") && comment.contains(&field)) {
                            push(
                                tok,
                                span,
                                LINT_ATOMIC_PAIRING,
                                format!(
                                    "`Ordering::Acquire` on `{field}` whose ORDERING comment \
                                     does not name its `Release` partner against that field — \
                                     cite the Release store this Acquire pairs with (mention \
                                     both `{field}` and `Release`)"
                                ),
                            );
                        }
                    }
                }
            }
        }

        // scoped-threads-only
        if fa.is_ident(s, "thread") {
            if let Some(m) = fa.path_member(s, "thread") {
                let target = fa.text_of(m);
                if target == "spawn" || target == "Builder" {
                    push(
                        tok,
                        fa.tok(m).end - tok.start,
                        LINT_THREAD,
                        format!(
                            "`thread::{target}` outside `rs_par::scope` — dedicated threads must \
                             be spawned through the scoped abstraction that joins them and \
                             rethrows panics"
                        ),
                    );
                }
            }
        }
        if fa.is_ident(s, "spawn_scoped") {
            push(
                tok,
                tok.len(),
                LINT_THREAD,
                "`spawn_scoped` outside `rs_par::scope` — dedicated threads must be spawned \
                 through the scoped abstraction that joins them and rethrows panics"
                    .to_string(),
            );
        }

        // bounded-channels-only (serving-path libraries)
        if channel_scope {
            if let Some(m) = fa.path_member(s, "mpsc") {
                if fa.text_of(m) == "channel" {
                    push(
                        tok,
                        fa.tok(m).end - tok.start,
                        LINT_CHANNEL,
                        "unbounded `mpsc::channel()` on the serving path — use \
                         `mpsc::sync_channel` (or BoundedQueue) so backpressure stays bounded \
                         end-to-end"
                            .to_string(),
                    );
                }
            }
        }

        // serve-panic-free (library code only; `.lock().unwrap()` /
        // `.wait(..).unwrap()` are poison propagation — see module doc)
        if serve_scope {
            if fa.is_punct(s, '.') && s + 1 < fa.sig.len() {
                let name = fa.text_of(s + 1);
                if (name == "unwrap" || name == "expect")
                    && s + 2 < fa.sig.len()
                    && fa.is_punct(s + 2, '(')
                    && !fa.receiver_is_poison_source(s)
                {
                    let what = if name == "unwrap" { "unwrap()" } else { "expect()" };
                    push(
                        fa.tok(s + 1),
                        fa.tok(s + 1).len(),
                        LINT_SERVE_PANIC,
                        format!(
                            "`{what}` in non-test serve code — the server loop must degrade \
                             (reject/ignore) rather than abort, and report through stats"
                        ),
                    );
                }
            }
            if fa.is_ident(s, "println") && s + 1 < fa.sig.len() && fa.is_punct(s + 1, '!') {
                push(
                    tok,
                    fa.tok(s + 1).end - tok.start,
                    LINT_SERVE_PANIC,
                    "`println!` in non-test serve code — the server loop must degrade \
                     (reject/ignore) rather than abort, and report through stats"
                        .to_string(),
                );
            }
        }
    }
    out
}

impl<'a> FileAnalysis<'a> {
    /// For the `.unwrap()` / `.expect(..)` at significant index `dot`:
    /// true when the receiver is a call to `lock` / `try_lock` / `wait`
    /// — i.e. the unwrap propagates mutex/condvar poisoning.
    fn receiver_is_poison_source(&self, dot: usize) -> bool {
        if dot == 0 || !self.is_punct(dot - 1, ')') {
            return false;
        }
        // Walk back over the balanced `( .. )` of the receiver call.
        let mut depth = 0i64;
        let mut k = dot - 1;
        loop {
            if self.is_punct(k, ')') {
                depth += 1;
            } else if self.is_punct(k, '(') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if k == 0 {
                return false;
            }
            k -= 1;
        }
        k > 0 && matches!(self.text_of(k - 1), "lock" | "try_lock" | "wait")
    }

    /// For the `Ordering` token at significant index `s` (inside a call's
    /// argument list), the field the atomic method is invoked on:
    /// `self.top.load(Ordering::Acquire)` → `top`,
    /// `STATE.load(..)` → `STATE`,
    /// `self.slots[i].load(..)` → `slots`.
    /// `None` when the receiver shape is something else (free function,
    /// chained call) — the pairing check does not apply then.
    fn receiver_field(&self, s: usize) -> Option<String> {
        // Find the `(` that opens the argument list we are inside.
        let mut depth = 0i64;
        let mut k = s;
        loop {
            if k == 0 {
                return None;
            }
            k -= 1;
            if self.is_punct(k, ')') || self.is_punct(k, ']') || self.is_punct(k, '}') {
                depth += 1;
            } else if self.is_punct(k, '(') || self.is_punct(k, '[') || self.is_punct(k, '{') {
                if depth == 0 {
                    if !self.is_punct(k, '(') {
                        return None;
                    }
                    break;
                }
                depth -= 1;
            }
        }
        // `( ` at k; method ident before it, then `.`, then the field.
        if k < 2 || self.tok(k - 1).kind != TokenKind::Ident || !self.is_punct(k - 2, '.') {
            return None;
        }
        let mut f = k - 2; // the `.` before the method
        if f == 0 {
            return None;
        }
        f -= 1; // candidate field position
        if self.is_punct(f, ']') {
            // Skip the balanced index expression.
            let mut d = 0i64;
            loop {
                if self.is_punct(f, ']') {
                    d += 1;
                } else if self.is_punct(f, '[') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                if f == 0 {
                    return None;
                }
                f -= 1;
            }
            if f == 0 {
                return None;
            }
            f -= 1;
        }
        (self.tok(f).kind == TokenKind::Ident && self.text_of(f) != "self")
            .then(|| self.text_of(f).to_string())
    }
}

// ---------------------------------------------------------------------------
// lock-order-consistent: the cross-file pass
// ---------------------------------------------------------------------------

/// One `.lock()` acquisition site.
#[derive(Debug, Clone)]
struct LockSite {
    file: String,
    line: usize,
    col: usize,
    span: usize,
    text: String,
    text_col: usize,
}

/// Accumulates the per-crate mutex-acquisition graphs across files, then
/// reports cycles. Feed every file through [`LockOrderCollector::collect`],
/// then call [`LockOrderCollector::finish`].
#[derive(Default)]
pub struct LockOrderCollector {
    /// crate key → (held, acquired) → first site that committed the edge.
    graphs: BTreeMap<String, BTreeMap<(String, String), LockSite>>,
}

impl LockOrderCollector {
    pub fn new() -> Self {
        Self::default()
    }

    /// Scans one file's syntactic `.lock()` nesting into the graph of
    /// its crate. Test regions are exempt like everywhere else.
    pub fn collect(&mut self, path: &str, source: &str) {
        let fa = FileAnalysis::new(source);
        let graph = self.graphs.entry(crate_key(path)).or_default();

        /// A lock currently held (syntactically).
        struct Held {
            name: String,
            depth: i64,
            let_bound: bool,
        }
        let mut held: Vec<Held> = Vec::new();
        let mut depth = 0i64;
        // Statement shape: `let`-bound guards live to the end of their
        // block; unbound temporaries die at the `;` (or `,`, which also
        // separates match arms' expressions) that ends their statement.
        let mut stmt_start = true;
        let mut stmt_is_let = false;

        for s in 0..fa.sig.len() {
            let tok = fa.tok(s);
            if fa.in_test(tok) || fa.in_attr(tok) {
                continue;
            }
            let text = fa.text_of(s);
            if stmt_start && !matches!(text, "{" | "}" | ";" | ",") {
                stmt_is_let = text == "let";
                stmt_start = false;
            }
            match text {
                "{" => {
                    depth += 1;
                    stmt_start = true;
                }
                "}" => {
                    depth -= 1;
                    held.retain(|h| h.depth <= depth);
                    stmt_start = true;
                }
                ";" | "," => {
                    held.retain(|h| h.depth != depth || h.let_bound);
                    stmt_start = true;
                }
                "lock" => {
                    // `.lock()` exactly: a zero-argument call on a receiver.
                    let is_call = s >= 1
                        && fa.is_punct(s - 1, '.')
                        && s + 2 < fa.sig.len()
                        && fa.is_punct(s + 1, '(')
                        && fa.is_punct(s + 2, ')');
                    if !is_call {
                        continue;
                    }
                    let Some(name) = fa.lock_receiver_name(s) else { continue };
                    let site = LockSite {
                        file: path.to_string(),
                        line: tok.line,
                        col: tok.col,
                        span: fa.tok(s + 2).end - tok.start,
                        text: fa.lines[tok.line - 1].text.trim().to_string(),
                        text_col: {
                            let lt = &fa.lines[tok.line - 1].text;
                            tok.col.saturating_sub(lt.len() - lt.trim_start().len()).max(1)
                        },
                    };
                    for h in &held {
                        graph.entry((h.name.clone(), name.clone())).or_insert_with(|| site.clone());
                    }
                    held.push(Held { name, depth, let_bound: stmt_is_let });
                }
                _ => {}
            }
        }
    }

    /// Detects cycles per crate and renders violations, anchored at the
    /// first site of each edge that closes a cycle.
    pub fn finish(self) -> Vec<Violation> {
        let mut out = Vec::new();
        for (crate_key, graph) in &self.graphs {
            // Adjacency over edge set.
            let succs = |n: &String| -> Vec<&String> {
                graph.keys().filter(|(a, _)| a == n).map(|(_, b)| b).collect()
            };
            for ((held, acquired), site) in graph {
                let cycle = if held == acquired {
                    Some(format!("{held} -> {held}"))
                } else {
                    path_between(acquired, held, &succs)
                        .map(|p| format!("{held} -> {}", p.join(" -> ")))
                };
                let Some(cycle) = cycle else { continue };
                out.push(Violation {
                    lint: LINT_LOCK_ORDER,
                    file: site.file.clone(),
                    line: site.line,
                    col: site.col,
                    span: site.span,
                    text: site.text.clone(),
                    text_col: site.text_col,
                    message: if held == acquired {
                        format!(
                            "`{held}` locked while already held in {crate_key} — \
                             self-deadlock with a non-reentrant Mutex; drop the first guard \
                             (or scope it) before re-acquiring"
                        )
                    } else {
                        format!(
                            "acquiring `{acquired}` while holding `{held}` closes a lock-order \
                             cycle in {crate_key} ({cycle}) — pick one global acquisition order \
                             for these mutexes"
                        )
                    },
                });
            }
        }
        out
    }
}

impl<'a> FileAnalysis<'a> {
    /// Receiver name for the `.lock()` whose method ident sits at
    /// significant index `s`: the last field/method component of the
    /// receiver chain (`self.inner.lock()` → `inner`,
    /// `self.shard_of(&k).lock()` → `shard_of()`,
    /// `self.shards[i].lock()` → `shards`).
    fn lock_receiver_name(&self, s: usize) -> Option<String> {
        let dot = s.checked_sub(1)?;
        let mut f = dot.checked_sub(1)?;
        if self.is_punct(f, ')') {
            // Method-call receiver: name it `method()`.
            let mut d = 0i64;
            loop {
                if self.is_punct(f, ')') {
                    d += 1;
                } else if self.is_punct(f, '(') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                f = f.checked_sub(1)?;
            }
            let m = f.checked_sub(1)?;
            return (self.tok(m).kind == TokenKind::Ident)
                .then(|| format!("{}()", self.text_of(m)));
        }
        if self.is_punct(f, ']') {
            let mut d = 0i64;
            loop {
                if self.is_punct(f, ']') {
                    d += 1;
                } else if self.is_punct(f, '[') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                f = f.checked_sub(1)?;
            }
            f = f.checked_sub(1)?;
        }
        (self.tok(f).kind == TokenKind::Ident).then(|| self.text_of(f).to_string())
    }
}

/// BFS path `from → … → to` over the edge successors, if any.
fn path_between<'g>(
    from: &'g String,
    to: &String,
    succs: &impl Fn(&String) -> Vec<&'g String>,
) -> Option<Vec<String>> {
    let mut queue = vec![vec![from]];
    let mut seen = vec![from];
    while let Some(path) = queue.pop() {
        let last = path.last().unwrap();
        for next in succs(last) {
            if next == to {
                let mut full: Vec<String> = path.iter().map(|s| s.to_string()).collect();
                full.push(next.to_string());
                return Some(full);
            }
            if !seen.contains(&next) {
                seen.push(next);
                let mut p = path.clone();
                p.push(next);
                queue.insert(0, p);
            }
        }
    }
    None
}

/// The graph-aggregation key: the crate a file belongs to
/// (`crates/serve/...` → `crates/serve`, `vendor/rayon/...` →
/// `vendor/rayon`, `src/...` → `src`).
fn crate_key(path: &str) -> String {
    let parts: Vec<&str> = path.split('/').collect();
    match parts.first() {
        Some(&"crates") | Some(&"vendor") if parts.len() >= 2 => {
            format!("{}/{}", parts[0], parts[1])
        }
        Some(first) => first.to_string(),
        None => path.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_of(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|v| v.lint).collect()
    }

    // --- unsafe-safety-comment -------------------------------------------

    #[test]
    fn unsafe_without_comment_is_caught() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let got = lint_source("crates/par/src/x.rs", src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].lint, LINT_UNSAFE);
        assert_eq!((got[0].line, got[0].col, got[0].span), (2, 5, 6));
    }

    #[test]
    fn safety_comment_above_passes() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        assert!(lint_source("crates/par/src/x.rs", src).is_empty());
    }

    #[test]
    fn safety_doc_section_passes_for_unsafe_fn() {
        let src = "/// Does things.\n///\n/// # Safety\n/// `p` must be valid.\npub unsafe fn f(p: *const u8) {}\n";
        assert!(lint_source("crates/par/src/x.rs", src).is_empty());
    }

    #[test]
    fn trailing_safety_comment_passes() {
        let src =
            "fn f(p: *const u8) -> u8 {\n    unsafe { *p } // SAFETY: p valid per contract\n}\n";
        assert!(lint_source("crates/par/src/x.rs", src).is_empty());
    }

    #[test]
    fn unsafe_fn_pointer_type_is_not_flagged() {
        let src = "struct H {\n    execute: unsafe fn(*const H),\n}\n";
        assert!(lint_source("crates/par/src/x.rs", src).is_empty());
        let ext = "struct H {\n    execute: unsafe extern \"C\" fn(*const H),\n}\n";
        assert!(lint_source("crates/par/src/x.rs", ext).is_empty());
    }

    #[test]
    fn unsafe_impl_needs_comment() {
        let src = "unsafe impl Send for X {}\n";
        assert_eq!(lints_of("crates/par/src/x.rs", src), vec![LINT_UNSAFE]);
        let ok = "// SAFETY: X owns no thread-affine state.\nunsafe impl Send for X {}\n";
        assert!(lint_source("crates/par/src/x.rs", ok).is_empty());
    }

    #[test]
    fn multi_line_unsafe_impl_header_is_anchored_at_the_unsafe_token() {
        // A rustfmt-split header: the old line scanner needed the SAFETY
        // comment adjacent to the *pattern's* line; the token scanner
        // anchors at the `unsafe` token and walks from there.
        let src = "unsafe impl<T: Send + 'static>\n    Send for Holder<T>\n{\n}\n";
        let got = lint_source("crates/par/src/x.rs", src);
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].lint, got[0].line, got[0].col), (LINT_UNSAFE, 1, 1));
        let ok = "// SAFETY: T: Send is required by the bound above.\nunsafe impl<T: Send + 'static>\n    Send for Holder<T>\n{\n}\n";
        assert!(lint_source("crates/par/src/x.rs", ok).is_empty());
    }

    #[test]
    fn attribute_between_comment_and_unsafe_is_transparent() {
        let src = "// SAFETY: exclusive access per the latch protocol.\n#[allow(dead_code)]\nunsafe fn g() {}\n";
        assert!(lint_source("crates/par/src/x.rs", src).is_empty());
    }

    #[test]
    fn word_unsafe_embedded_in_identifier_is_ignored() {
        let src = "fn f() {\n    let unsafe_count = 0;\n    let _ = unsafe_count;\n}\n";
        assert!(lint_source("crates/par/src/x.rs", src).is_empty());
    }

    // --- ordering-justified ----------------------------------------------

    #[test]
    fn relaxed_without_justification_is_caught() {
        let src =
            "fn f(a: &std::sync::atomic::AtomicU64) {\n    a.store(1, Ordering::Relaxed);\n}\n";
        assert_eq!(lints_of("crates/par/src/x.rs", src), vec![LINT_ORDERING]);
    }

    #[test]
    fn ordering_comment_covers_a_cluster() {
        let src = "fn f(a: &A, b: &A) {\n    // ORDERING: counters are advisory; no data is published through them.\n    a.store(1, Ordering::Relaxed);\n    b.store(2, Ordering::Relaxed);\n}\n";
        assert!(lint_source("crates/par/src/x.rs", src).is_empty());
    }

    #[test]
    fn yield_point_lines_are_transparent_to_the_cluster_walk() {
        let src = "fn f(a: &A, b: &A) {\n    // ORDERING: advisory pair.\n    a.store(1, Ordering::Relaxed);\n    model::yield_point();\n    b.store(2, Ordering::Relaxed);\n}\n";
        assert!(lint_source("crates/par/src/x.rs", src).is_empty());
    }

    #[test]
    fn trailing_ordering_comment_passes() {
        let src = "fn f(a: &A) {\n    a.load(Ordering::Acquire) // ORDERING: pairs with the Release store to a in set()\n}\n";
        assert!(lint_source("crates/par/src/x.rs", src).is_empty());
    }

    #[test]
    fn seqcst_needs_no_justification() {
        let src = "fn f(a: &A) {\n    a.load(Ordering::SeqCst);\n}\n";
        assert!(lint_source("crates/par/src/x.rs", src).is_empty());
    }

    #[test]
    fn cmp_ordering_is_not_atomic_ordering() {
        let src = "fn f(x: u8) -> std::cmp::Ordering {\n    match x.cmp(&3) {\n        std::cmp::Ordering::Less => std::cmp::Ordering::Less,\n        o => o,\n    }\n}\n";
        assert!(lint_source("crates/par/src/x.rs", src).is_empty());
    }

    #[test]
    fn mixed_seqcst_and_relaxed_compare_exchange_is_flagged() {
        let src = "fn f(a: &A) {\n    a.compare_exchange(0, 1, Ordering::SeqCst, Ordering::Relaxed);\n}\n";
        assert_eq!(lints_of("crates/par/src/x.rs", src), vec![LINT_ORDERING]);
    }

    #[test]
    fn ordering_in_string_or_raw_string_is_not_code() {
        let src = "fn f() -> &'static str {\n    r#\"a.load(Ordering::Relaxed) // and thread::spawn\"#\n}\n";
        assert!(lint_source("crates/par/src/x.rs", src).is_empty());
    }

    // --- atomic-pairing ---------------------------------------------------

    #[test]
    fn acquire_comment_naming_release_and_field_passes() {
        let src = "fn f(s: &S) -> bool {\n    // ORDERING: Acquire pairs with the Release store to done in set().\n    s.done.load(Ordering::Acquire)\n}\n";
        assert!(lint_source("crates/par/src/x.rs", src).is_empty());
    }

    #[test]
    fn acquire_comment_missing_release_is_flagged() {
        let src = "fn f(s: &S) -> bool {\n    // ORDERING: we need the freshest value of done here.\n    s.done.load(Ordering::Acquire)\n}\n";
        assert_eq!(lints_of("crates/par/src/x.rs", src), vec![LINT_ATOMIC_PAIRING]);
    }

    #[test]
    fn acquire_comment_naming_wrong_field_is_flagged() {
        let src = "fn f(s: &S) -> bool {\n    // ORDERING: Acquire pairs with the Release store in push().\n    s.done.load(Ordering::Acquire)\n}\n";
        let got = lint_source("crates/par/src/x.rs", src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].lint, LINT_ATOMIC_PAIRING);
        assert!(got[0].message.contains("done"));
    }

    #[test]
    fn acquire_release_matching_is_case_insensitive_on_release() {
        let src = "fn f(s: &S) -> bool {\n    // ORDERING: pairs with thieves' CAS releases of top.\n    s.top.load(Ordering::Acquire)\n}\n";
        assert!(lint_source("crates/par/src/x.rs", src).is_empty());
    }

    #[test]
    fn indexed_receiver_cites_the_array_field() {
        let src = "fn f(s: &S, i: usize) {\n    // ORDERING: Acquire pairs with the Release publication of slots entries.\n    s.slots[i].load(Ordering::Acquire);\n}\n";
        assert!(lint_source("crates/par/src/x.rs", src).is_empty());
        let bad = "fn f(s: &S, i: usize) {\n    // ORDERING: Acquire pairs with the Release publication elsewhere.\n    s.slots[i].load(Ordering::Acquire);\n}\n";
        assert_eq!(lints_of("crates/par/src/x.rs", bad), vec![LINT_ATOMIC_PAIRING]);
    }

    #[test]
    fn unjustified_acquire_reports_ordering_not_pairing() {
        let src = "fn f(s: &S) -> bool {\n    s.done.load(Ordering::Acquire)\n}\n";
        assert_eq!(lints_of("crates/par/src/x.rs", src), vec![LINT_ORDERING]);
    }

    #[test]
    fn relaxed_needs_no_pairing() {
        let src = "fn f(s: &S) -> u64 {\n    // ORDERING: advisory counter, no data published through it.\n    s.count.load(Ordering::Relaxed)\n}\n";
        assert!(lint_source("crates/par/src/x.rs", src).is_empty());
    }

    // --- scoped-threads-only ---------------------------------------------

    #[test]
    fn bare_thread_spawn_is_caught_everywhere() {
        let src = "fn f() {\n    std::thread::spawn(|| {});\n}\n";
        assert_eq!(lints_of("crates/core/src/x.rs", src), vec![LINT_THREAD]);
        assert_eq!(lints_of("vendor/rayon/src/x.rs", src), vec![LINT_THREAD]);
    }

    #[test]
    fn thread_builder_and_spawn_scoped_are_caught() {
        let src = "fn f() {\n    std::thread::Builder::new();\n}\n";
        assert_eq!(lints_of("crates/core/src/x.rs", src), vec![LINT_THREAD]);
        let src2 = "fn f(s: &S) {\n    x.spawn_scoped(s, || {});\n}\n";
        assert_eq!(lints_of("crates/core/src/x.rs", src2), vec![LINT_THREAD]);
    }

    #[test]
    fn structured_thread_scope_is_allowed() {
        let src = "fn f() {\n    std::thread::scope(|s| { let _ = s; });\n}\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn spawn_in_a_string_literal_is_not_flagged() {
        // The line scanner handled single-line strings; the token scanner
        // also survives raw and multi-line ones.
        let src = "fn f() -> String {\n    format!(\"use thread::spawn like this\")\n}\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
        let raw = "const HELP: &str = r#\"\n  std::thread::spawn(|| work());\n\"#;\n";
        assert!(lint_source("crates/core/src/x.rs", raw).is_empty());
    }

    // --- bounded-channels-only -------------------------------------------

    #[test]
    fn unbounded_channel_in_serve_is_caught() {
        let src = "fn f() {\n    let (tx, rx) = std::sync::mpsc::channel::<u32>();\n    let _ = (tx, rx);\n}\n";
        assert_eq!(lints_of("crates/serve/src/x.rs", src), vec![LINT_CHANNEL]);
        assert_eq!(lints_of("crates/core/src/x.rs", src), vec![LINT_CHANNEL]);
    }

    #[test]
    fn sync_channel_passes_and_scope_is_path_limited() {
        let bounded = "fn f() {\n    let (tx, rx) = std::sync::mpsc::sync_channel::<u32>(8);\n    let _ = (tx, rx);\n}\n";
        assert!(lint_source("crates/serve/src/x.rs", bounded).is_empty());
        let unbounded = "fn f() {\n    let (tx, rx) = std::sync::mpsc::channel::<u32>();\n    let _ = (tx, rx);\n}\n";
        assert!(lint_source("crates/bench/src/x.rs", unbounded).is_empty(), "other crates exempt");
    }

    // --- serve-panic-free ------------------------------------------------

    #[test]
    fn serve_unwrap_expect_println_are_caught() {
        let src = "fn f(o: Option<u32>) {\n    let v = o.unwrap();\n    let w = o.expect(\"present\");\n    println!(\"{v} {w}\");\n}\n";
        assert_eq!(
            lints_of("crates/serve/src/x.rs", src),
            vec![LINT_SERVE_PANIC, LINT_SERVE_PANIC, LINT_SERVE_PANIC]
        );
        assert!(lint_source("crates/core/src/x.rs", src).is_empty(), "serve-only scope");
    }

    #[test]
    fn unwrap_after_escaped_backslash_char_is_flagged() {
        // A '\\' char literal once made the lexer swallow the rest of the
        // file, hiding this unwrap from every lint.
        let src = include_str!("../tests/fixtures/lexer_probe.rs");
        assert_eq!(lints_of("crates/serve/src/lexer_probe.rs", src), vec![LINT_SERVE_PANIC]);
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f(o: Option<u32>) -> u32 {\n    o.unwrap_or_else(|| 0) + o.unwrap_or(1)\n}\n";
        assert!(lint_source("crates/serve/src/x.rs", src).is_empty());
    }

    // Regression tests pinned to the allowlist entries the token scanner
    // made redundant (each was a line-based `serve-panic-free` /
    // `bounded-channels-only` exception; see the module doc).

    #[test]
    fn lock_unwrap_is_poison_propagation_not_a_violation() {
        // Was: `serve-panic-free crates/serve/ .lock().unwrap()`.
        let src = "fn f(m: &std::sync::Mutex<u32>) -> u32 {\n    *m.lock().unwrap()\n}\n";
        assert!(lint_source("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn condvar_wait_unwrap_is_poison_propagation_not_a_violation() {
        // Was: `serve-panic-free crates/serve/src/queue.rs .wait(inner).unwrap()`.
        let src = "fn f(c: &std::sync::Condvar, g: G) -> G {\n    c.wait(g).unwrap()\n}\n";
        assert!(lint_source("crates/serve/src/queue.rs", src).is_empty());
    }

    #[test]
    fn chained_unwrap_after_lock_unwrap_is_still_flagged() {
        // Only the poisoning unwrap is exempt; an unwrap on data pulled
        // out of the guard is a real panic path.
        let src = "fn f(m: &std::sync::Mutex<Vec<u32>>) -> u32 {\n    m.lock().unwrap().pop().unwrap()\n}\n";
        assert_eq!(lints_of("crates/serve/src/x.rs", src), vec![LINT_SERVE_PANIC]);
    }

    #[test]
    fn bin_drivers_are_out_of_serve_scope() {
        // Was: `serve-panic-free crates/serve/src/bin/rs-serve.rs println!`
        // and `bounded-channels-only crates/serve/src/bin/rs-serve.rs ...`.
        let src = "fn main() {\n    println!(\"ui\");\n    let (tx, rx) = std::sync::mpsc::channel::<u32>();\n    let _ = (tx, rx);\n    Some(3).unwrap();\n}\n";
        assert!(lint_source("crates/serve/src/bin/rs-serve.rs", src).is_empty());
        // The library right next to it keeps the full discipline.
        assert_eq!(
            lints_of("crates/serve/src/server.rs", src),
            vec![LINT_SERVE_PANIC, LINT_CHANNEL, LINT_SERVE_PANIC]
        );
    }

    // --- lock-order-consistent -------------------------------------------

    fn lock_order(files: &[(&str, &str)]) -> Vec<Violation> {
        let mut c = LockOrderCollector::new();
        for (path, src) in files {
            c.collect(path, src);
        }
        c.finish()
    }

    #[test]
    fn ab_ba_cycle_across_files_is_caught() {
        let f1 = "fn f(s: &S) {\n    let a = s.alpha.lock().unwrap();\n    let b = s.beta.lock().unwrap();\n    drop((a, b));\n}\n";
        let f2 = "fn g(s: &S) {\n    let b = s.beta.lock().unwrap();\n    let a = s.alpha.lock().unwrap();\n    drop((b, a));\n}\n";
        let got = lock_order(&[("crates/serve/src/x.rs", f1), ("crates/serve/src/y.rs", f2)]);
        assert_eq!(got.len(), 2, "both closing edges report: {got:?}");
        assert!(got.iter().all(|v| v.lint == LINT_LOCK_ORDER));
        assert!(got[0].message.contains("alpha") && got[0].message.contains("beta"));
    }

    #[test]
    fn ab_ba_cycle_in_one_file_is_caught() {
        let src = "fn f(s: &S) {\n    let a = s.alpha.lock().unwrap();\n    let b = s.beta.lock().unwrap();\n    drop((a, b));\n}\nfn g(s: &S) {\n    let b = s.beta.lock().unwrap();\n    let a = s.alpha.lock().unwrap();\n    drop((b, a));\n}\n";
        let got = lock_order(&[("crates/serve/src/x.rs", src)]);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn consistent_nesting_is_clean() {
        let src = "fn f(s: &S) {\n    let a = s.alpha.lock().unwrap();\n    let b = s.beta.lock().unwrap();\n    drop((a, b));\n}\nfn g(s: &S) {\n    let a = s.alpha.lock().unwrap();\n    let b = s.beta.lock().unwrap();\n    drop((a, b));\n}\n";
        assert!(lock_order(&[("crates/serve/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn cycles_do_not_cross_crate_boundaries() {
        let f1 = "fn f(s: &S) {\n    let a = s.alpha.lock().unwrap();\n    let b = s.beta.lock().unwrap();\n    drop((a, b));\n}\n";
        let f2 = "fn g(s: &S) {\n    let b = s.beta.lock().unwrap();\n    let a = s.alpha.lock().unwrap();\n    drop((b, a));\n}\n";
        assert!(
            lock_order(&[("crates/serve/src/x.rs", f1), ("crates/core/src/y.rs", f2)]).is_empty()
        );
    }

    #[test]
    fn statement_temporary_guard_dies_at_the_semicolon() {
        // Sequential statement-temporaries never overlap: this is the
        // `self.inner.lock().unwrap().field` accessor idiom.
        let src = "fn f(s: &S) -> usize {\n    s.alpha.lock().unwrap().len();\n    s.beta.lock().unwrap().len();\n    s.alpha.lock().unwrap().len()\n}\n";
        assert!(lock_order(&[("crates/serve/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn let_bound_guard_scoped_in_a_block_releases_at_the_brace() {
        // The serve worker idiom: guard scoped tightly, then another lock.
        let src = "fn f(s: &S) {\n    {\n        let t = s.alpha.lock().unwrap();\n        drop(t);\n    }\n    {\n        let t = s.beta.lock().unwrap();\n        drop(t);\n    }\n    let a = s.beta.lock().unwrap();\n    drop(a);\n}\nfn g(s: &S) {\n    let b = s.beta.lock().unwrap();\n    let a = s.alpha.lock().unwrap();\n    drop((b, a));\n}\n";
        assert!(lock_order(&[("crates/serve/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn nested_let_guards_do_create_edges() {
        let src = "fn f(s: &S) {\n    let a = s.alpha.lock().unwrap();\n    {\n        let b = s.beta.lock().unwrap();\n        drop(b);\n    }\n    drop(a);\n}\nfn g(s: &S) {\n    let b = s.beta.lock().unwrap();\n    let a = s.alpha.lock().unwrap();\n    drop((b, a));\n}\n";
        let got = lock_order(&[("crates/serve/src/x.rs", src)]);
        assert_eq!(got.len(), 2, "nested block guard still holds alpha: {got:?}");
    }

    #[test]
    fn self_relock_is_a_self_deadlock() {
        let src = "fn f(s: &S) {\n    let a = s.alpha.lock().unwrap();\n    let b = s.alpha.lock().unwrap();\n    drop((a, b));\n}\n";
        let got = lock_order(&[("crates/serve/src/x.rs", src)]);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("self-deadlock"), "{}", got[0].message);
    }

    #[test]
    fn match_arms_do_not_leak_holds_into_each_other() {
        let src = "fn f(s: &S, x: u8) -> usize {\n    match x {\n        0 => s.alpha.lock().unwrap().len(),\n        _ => s.beta.lock().unwrap().len(),\n    }\n}\nfn g(s: &S) {\n    let b = s.beta.lock().unwrap();\n    let a = s.alpha.lock().unwrap();\n    drop((b, a));\n}\n";
        assert!(lock_order(&[("crates/serve/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn method_call_receivers_are_named_by_the_method() {
        let src = "fn f(s: &S) {\n    let a = s.shard_of(key).lock().unwrap();\n    let b = s.beta.lock().unwrap();\n    drop((a, b));\n}\nfn g(s: &S) {\n    let b = s.beta.lock().unwrap();\n    let a = s.shard_of(key).lock().unwrap();\n    drop((b, a));\n}\n";
        let got = lock_order(&[("crates/serve/src/x.rs", src)]);
        assert_eq!(got.len(), 2);
        assert!(got[0].message.contains("shard_of()"), "{}", got[0].message);
    }

    #[test]
    fn cfg_test_locks_are_exempt_from_lock_order() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(s: &S) {\n        let a = s.alpha.lock().unwrap();\n        let b = s.beta.lock().unwrap();\n        drop((a, b));\n    }\n    fn g(s: &S) {\n        let b = s.beta.lock().unwrap();\n        let a = s.alpha.lock().unwrap();\n        drop((b, a));\n    }\n}\n";
        assert!(lock_order(&[("crates/serve/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn longer_cycles_are_found() {
        let src = "fn f(s: &S) {\n    let a = s.alpha.lock().unwrap();\n    let b = s.beta.lock().unwrap();\n    drop((a, b));\n}\nfn g(s: &S) {\n    let b = s.beta.lock().unwrap();\n    let c = s.gamma.lock().unwrap();\n    drop((b, c));\n}\nfn h(s: &S) {\n    let c = s.gamma.lock().unwrap();\n    let a = s.alpha.lock().unwrap();\n    drop((c, a));\n}\n";
        let got = lock_order(&[("crates/serve/src/x.rs", src)]);
        assert_eq!(got.len(), 3, "every edge of the 3-cycle reports: {got:?}");
        assert!(got[0].message.contains(" -> "));
    }

    // --- test-code and comment exemptions --------------------------------

    #[test]
    fn cfg_test_module_is_exempt_from_all_lints() {
        let src = concat!(
            "pub fn prod() {}\n",
            "\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() {\n",
            "        let v = Some(3).unwrap();\n",
            "        std::thread::spawn(move || v);\n",
            "        let (tx, _rx) = std::sync::mpsc::channel::<u32>();\n",
            "        drop(tx);\n",
            "    }\n",
            "}\n",
        );
        assert!(lint_source("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn code_after_cfg_test_module_is_linted_again() {
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() {}\n",
            "}\n",
            "\n",
            "pub fn prod(o: Option<u32>) -> u32 {\n",
            "    o.unwrap()\n",
            "}\n",
        );
        assert_eq!(lints_of("crates/serve/src/x.rs", src), vec![LINT_SERVE_PANIC]);
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let src = "#[cfg(not(test))]\npub fn prod(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n";
        assert_eq!(lints_of("crates/serve/src/x.rs", src), vec![LINT_SERVE_PANIC]);
    }

    #[test]
    fn doc_comments_and_strings_do_not_trigger() {
        let src = concat!(
            "//! Example: `rx.recv().unwrap()` and mpsc::channel() in prose.\n",
            "/// Call `.unwrap()` — also prose. Ordering::Relaxed in docs.\n",
            "pub fn f() -> &'static str {\n",
            "    \"contains .unwrap() and Ordering::Relaxed and unsafe tokens\"\n",
            "}\n",
        );
        assert!(lint_source("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn nested_block_comments_are_fully_stripped() {
        // The line scanner's `code_portion` lost track of nesting; the
        // lexer counts depth, so the inner close does not resurface code.
        let src = "/* outer /* unsafe { } */ Ordering::Relaxed still comment */\npub fn f() {}\n";
        assert!(lint_source("crates/par/src/x.rs", src).is_empty());
    }

    #[test]
    fn double_quote_char_literal_does_not_hide_following_code() {
        // `'"'` confused quote-tracking scanners: everything after it
        // looked like a string. The unwrap after it must still be seen.
        let src = "fn f(o: Option<u32>) -> u32 {\n    let _q = '\"';\n    o.unwrap()\n}\n";
        assert_eq!(lints_of("crates/serve/src/x.rs", src), vec![LINT_SERVE_PANIC]);
    }

    #[test]
    fn violation_carries_location_span_and_text() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let v = &lint_source("crates/par/src/deque.rs", src)[0];
        assert_eq!((v.file.as_str(), v.line, v.col), ("crates/par/src/deque.rs", 2, 5));
        assert_eq!(v.span, "unsafe".len());
        assert_eq!(v.text, "unsafe { *p }");
        assert_eq!(v.text_col, 1);
        assert!(v.message.contains("SAFETY"));
    }

    #[test]
    fn allowlist_text_is_the_violating_tokens_line() {
        // A multi-line call: the violating `expect` token's line is what
        // the allowlist matches, not the line the statement started on.
        let src = "fn f(o: Option<u32>) -> u32 {\n    o\n        .expect(\"present\")\n}\n";
        let v = &lint_source("crates/serve/src/x.rs", src)[0];
        assert_eq!(v.line, 3);
        assert_eq!(v.text, ".expect(\"present\")");
    }
}
