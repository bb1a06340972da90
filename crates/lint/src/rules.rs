//! The determinism & correctness rules (D001–D006).
//!
//! Each rule is a predicate over the token stream of one file plus a
//! [`FileCtx`] describing where in the workspace that file lives. The rules
//! encode what the DOMINO reproduction's headline claim rests on: the
//! simulation is **bit-exact reproducible**, so relative scheduling can be
//! checked against a strict schedule by value (`tests/golden.rs`). Anything
//! that lets wall-clock time, hash order or ambient randomness leak into a
//! scheduling decision silently voids those pins. See DESIGN.md
//! §"Determinism rules" for the paper-level rationale of every rule.
//!
//! | rule | scope | what it rejects |
//! |------|-------|-----------------|
//! | D001 | all but `testkit`, `bench` | `std::time` / `Instant` / `SystemTime` |
//! | D002 | `scheduler` `mac` `sim` `medium` `faults` `obs` `wired` `core` | iterating a `HashMap`/`HashSet` |
//! | D003 | non-test code | `==`/`!=` against a float literal (or a local `let` bound to one) |
//! | D004 | everywhere | `rand::`, `thread_rng`, OS entropy |
//! | D005 | lib code of `phy` `scheduler` `mac` `sim` `faults` `obs` `wired` `core` | `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` |
//! | D006 | library code; `runner`/`obs` binaries | `println!`/… in libraries; prints with inline format specs in the CLI binaries |
//! | D007 | fns reachable from `Engine::pop` / `Medium::begin` / `dispatch_batch` | `Vec::new`/`with_capacity`/`Box::new`/`format!`/`vec!`/`.to_vec()`/`.collect()` |
//! | D008 | all but `testkit`, `lint` | bare-literal `SimRng` stream ids; duplicate stream ids across crates |
//! | D009 | `sim` `medium` `mac` `scheduler` `faults` | float `.sum()`/`fold`/`partial_cmp`-based sorts |
//! | D010 | lib code of `phy` `scheduler` `mac` `sim` `faults` `obs` `wired` `core` | `xs[i ± j]` indexing; unchecked `+`/`-` on `as_nanos()`-style sim-time integers |
//!
//! D001–D006 are token-level predicates (this module); D007–D010 are
//! *semantic* rules over the parse tree ([`crate::parser`]) — the
//! file-local halves live in [`check_semantic`] here, the cross-file
//! halves (call-graph reachability for D007, duplicate stream detection
//! for D008) in [`crate::callgraph`]. Every rule is a *conservative
//! approximation*: e.g. D003 only fires when one comparison operand is a
//! float token or a local bound to one, and D007 over-approximates
//! reachability by matching callees by name. False negatives are
//! possible; false positives should be rare — and when a hit is
//! intentional, an inline waiver (`// lint: allow(D00x) reason`) records
//! why, reviewably, at the site.

use crate::parser::{Expr, ParsedFile};
use crate::tokenizer::{Token, TokenKind};

/// Rule identifiers. `W000` is the meta-rule: a waiver without a reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Wall-clock time in simulation code.
    D001,
    /// Unordered hash-container iteration in scheduling crates.
    D002,
    /// Float equality comparison.
    D003,
    /// Ambient (non-`SimRng`) randomness.
    D004,
    /// Panicking calls in library code of the core crates.
    D005,
    /// Stdout/stderr output from library code.
    D006,
    /// Heap allocation in functions reachable from the dispatch roots.
    D007,
    /// RNG stream discipline: bare-literal or duplicate stream ids.
    D008,
    /// Order-sensitive float reduction/comparison in sim-scope crates.
    D009,
    /// Raw index arithmetic / unchecked sim-time arithmetic.
    D010,
    /// A waiver comment that carries no reason.
    W000,
}

impl RuleId {
    /// Parse `"D001"`-style names (as written inside waivers).
    pub fn parse(s: &str) -> Option<RuleId> {
        Some(match s {
            "D001" => RuleId::D001,
            "D002" => RuleId::D002,
            "D003" => RuleId::D003,
            "D004" => RuleId::D004,
            "D005" => RuleId::D005,
            "D006" => RuleId::D006,
            "D007" => RuleId::D007,
            "D008" => RuleId::D008,
            "D009" => RuleId::D009,
            "D010" => RuleId::D010,
            _ => return None,
        })
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::D001 => "D001",
            RuleId::D002 => "D002",
            RuleId::D003 => "D003",
            RuleId::D004 => "D004",
            RuleId::D005 => "D005",
            RuleId::D006 => "D006",
            RuleId::D007 => "D007",
            RuleId::D008 => "D008",
            RuleId::D009 => "D009",
            RuleId::D010 => "D010",
            RuleId::W000 => "W000",
        }
    }

    /// One-line description (shown in reports and `--rules`).
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::D001 => "wall-clock time outside testkit/bench: sim time flows through sim::time",
            RuleId::D002 => "HashMap/HashSet iteration in scheduler/mac/sim/medium/faults: order feeds scheduling",
            RuleId::D003 => "float == / != : exact float comparison is representation-dependent",
            RuleId::D004 => "ambient randomness: all RNG goes through SimRng with explicit (seed, stream)",
            RuleId::D005 => "unwrap/expect/panic!/unreachable!/todo! in phy/scheduler/mac/sim/faults library code",
            RuleId::D006 => "println!/eprintln!/dbg! in library code (runner/obs binaries: no inline format specs — print pre-rendered strings)",
            RuleId::D007 => "allocation (Vec::new/with_capacity/Box::new/format!/vec!/.to_vec/.collect) in functions reachable from Engine::pop / Medium::begin / dispatch_batch",
            RuleId::D008 => "SimRng stream ids must be named `streams` constants, unique across the workspace",
            RuleId::D009 => "float .sum()/fold/partial_cmp-sorts in sim/medium/mac/scheduler/faults: reduction order must stay pinned",
            RuleId::D010 => "raw `xs[i ± j]` indexing or unchecked +/- on as_nanos()-style sim-time integers in the no-panic crates",
            RuleId::W000 => "waiver without a reason: `// lint: allow(Dxxx) <why>` requires the why",
        }
    }
}

/// Where a file sits in the workspace; decides rule applicability.
#[derive(Clone, Debug, Default)]
pub struct FileCtx {
    /// Short crate name (`"scheduler"` for `crates/scheduler/...`,
    /// `"domino"` for the root package), if recognizable.
    pub crate_name: String,
    /// Binary target (`src/main.rs`, anything under `src/bin/`).
    pub is_bin: bool,
    /// Test-only source: an integration-test (`tests/`) or example file.
    pub is_test_file: bool,
}

impl FileCtx {
    /// Derive a context from a workspace-relative path (`/`-separated).
    pub fn from_path(path: &str) -> FileCtx {
        let norm = path.replace('\\', "/");
        let crate_name = norm
            .split_once("crates/")
            .and_then(|(_, rest)| rest.split('/').next())
            .unwrap_or("domino")
            .to_string();
        let is_bin = norm.contains("/src/bin/") || norm.ends_with("src/main.rs");
        let is_test_file = {
            let under_crate = norm.split_once("crates/").map(|(_, r)| r).unwrap_or(&norm);
            under_crate.contains("tests/")
                || under_crate.contains("examples/")
                || under_crate.contains("benches/")
        };
        FileCtx { crate_name, is_bin, is_test_file }
    }
}

/// One rule hit, before waiver matching.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// 1-based source line.
    pub line: u32,
    /// Site-specific message (what exactly was seen).
    pub message: String,
}

/// Crates whose purpose is wall-clock measurement or driving binaries.
const WALL_CLOCK_CRATES: &[&str] = &["testkit", "bench", "lint"];
/// Crates whose state feeds scheduling decisions (D002 scope). `obs` is
/// in scope because trace analysis groups events in maps whose iteration
/// order reaches rendered reports.
/// `wired` and `core` joined when snapshot/restore landed: the backbone
/// now carries standby checkpoints whose bytes are digest-compared, and
/// the builder serializes whole-world state — an unordered container in
/// either would make two snapshots of the same world differ.
const ORDERED_CRATES: &[&str] =
    &["scheduler", "mac", "sim", "medium", "faults", "obs", "wired", "core"];
/// Crates whose library code must not panic (D005 scope). `obs` is in
/// scope because trace sinks run inside every simulation: a panicking
/// observer would turn observation into a fault of its own.
/// `wired` and `core` joined with the snapshot subsystem: restore paths
/// decode bytes that may come from disk (`--restore`), so corruption
/// must surface as [`SnapError`], never a panic — and the crates those
/// paths live in are held to the same bar as the decoders themselves.
const NO_PANIC_CRATES: &[&str] =
    &["phy", "scheduler", "mac", "sim", "faults", "obs", "wired", "core"];
/// Crates whose binaries must print pre-rendered strings only (D006
/// render-path extension): all user-facing formatting lives in library
/// render functions, so the text is unit-testable and byte-stable.
const RENDER_PATH_CRATES: &[&str] = &["runner", "obs"];

/// Hash-container methods that expose unordered iteration.
const ITERATION_METHODS: &[&str] = &[
    "iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "into_keys",
    "into_values", "drain", "retain", "extract_if",
];

/// Run every applicable rule over one file's tokens.
pub fn check_file(ctx: &FileCtx, tokens: &[Token<'_>]) -> Vec<Finding> {
    // Rules never fire inside comments; waiver scanning (which does read
    // comments) lives in `crate::waiver`.
    let code: Vec<Token<'_>> = tokens
        .iter()
        .copied()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let in_test = test_regions(&code);

    let mut findings = Vec::new();
    d001_wall_clock(ctx, &code, &mut findings);
    d002_hash_iteration(ctx, &code, &mut findings);
    d003_float_eq(ctx, &code, &in_test, &mut findings);
    d004_ambient_rng(&code, &mut findings);
    d005_no_panic(ctx, &code, &in_test, &mut findings);
    d006_no_stdout(ctx, &code, &in_test, &mut findings);
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// Mark, per token, whether it sits inside `#[cfg(test)]`-gated or
/// `#[test]`-attributed code. Token-level approximation: after such an
/// attribute, everything from the next `{` at the attribute's brace level
/// to its matching `}` is test code (a `;` first cancels — `#[cfg(test)]
/// use …;`).
fn test_regions(code: &[Token<'_>]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut depth: i32 = 0;
    // (depth at which the test region's body opened) — nesting-safe.
    let mut region_floor: Option<i32> = None;
    let mut pending_attr = false;
    let mut i = 0;
    while i < code.len() {
        let t = code[i];
        match (t.kind, t.text) {
            (TokenKind::Punct, "#") if region_floor.is_none() => {
                // Attribute outside any test region: does it gate one?
                let (is_test_attr, end) = parse_attr(code, i);
                if is_test_attr {
                    pending_attr = true;
                }
                if pending_attr {
                    for flag in in_test.iter_mut().take(end).skip(i) {
                        *flag = true;
                    }
                }
                i = end;
                continue;
            }
            (TokenKind::Punct, "{") => {
                depth += 1;
                if pending_attr && region_floor.is_none() {
                    region_floor = Some(depth - 1);
                    pending_attr = false;
                }
            }
            (TokenKind::Punct, "}") => {
                depth -= 1;
                if region_floor.is_some_and(|f| depth <= f) {
                    in_test[i] = true; // the closing brace itself
                    region_floor = None;
                    i += 1;
                    continue;
                }
            }
            (TokenKind::Punct, ";") if pending_attr && region_floor.is_none() => {
                pending_attr = false; // braceless item, e.g. a gated `use`
            }
            _ => {}
        }
        if region_floor.is_some() || pending_attr {
            in_test[i] = true;
        }
        i += 1;
    }
    in_test
}

/// Inspect the attribute starting at `#` (index `i`); returns whether it
/// gates test code and the index just past its closing `]`.
///
/// Gating forms: `#[test]` as the head, or `test` appearing inside a
/// `cfg`/`cfg_attr` head — unless negated (`cfg(not(test))` is *non*-test
/// code; a `not` anywhere in the predicate conservatively disables the
/// match).
fn parse_attr(code: &[Token<'_>], i: usize) -> (bool, usize) {
    if code.get(i + 1).map(|t| t.text) != Some("[") {
        return (false, i + 1);
    }
    let head = code.get(i + 2).map(|t| t.text).unwrap_or("");
    let head_is_cfg = matches!(head, "cfg" | "cfg_attr");
    let mut is_test = head == "test";
    let mut saw_not = false;
    let mut depth = 0i32;
    let mut j = i + 1;
    while let Some(t) = code.get(j) {
        match t.text {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (is_test && !saw_not, j + 1);
                }
            }
            "not" if t.kind == TokenKind::Ident => saw_not = true,
            "test" if t.kind == TokenKind::Ident && head_is_cfg => is_test = true,
            _ => {}
        }
        j += 1;
    }
    (is_test && !saw_not, j)
}

// ----------------------------------------------------------------- rules

/// D001: `std::time`, `Instant`, `SystemTime` anywhere outside the crates
/// whose whole point is wall-clock measurement.
fn d001_wall_clock(ctx: &FileCtx, code: &[Token<'_>], out: &mut Vec<Finding>) {
    if WALL_CLOCK_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let hit = match t.text {
            "Instant" | "SystemTime" | "UNIX_EPOCH" => true,
            // Bare `std::time` module import. When the path continues
            // (`std::time::X`) the clock idents above report the precise
            // item instead, and `std::time::Duration` — a plain value
            // type with no ambient clock — stays legal.
            "time" => {
                i >= 2
                    && code[i - 1].text == "::"
                    && code[i - 2].text == "std"
                    && code.get(i + 1).map(|n| n.text) != Some("::")
            }
            _ => false,
        };
        if hit {
            out.push(Finding {
                rule: RuleId::D001,
                line: t.line,
                message: format!(
                    "`{}` reads the wall clock; simulated time must flow through `sim::time`",
                    if t.text == "time" { "std::time" } else { t.text }
                ),
            });
        }
    }
}

/// D002: iteration over `HashMap`/`HashSet` in the scheduling crates.
/// Tracks identifiers this file declares with a hash-container type and
/// flags (a) unordered-iteration method calls on them, (b) `for … in`
/// loops whose iterated expression mentions one, (c) such calls directly
/// on a `HashMap`/`HashSet` path.
fn d002_hash_iteration(ctx: &FileCtx, code: &[Token<'_>], out: &mut Vec<Finding>) {
    if !ORDERED_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    let is_hash_ty = |t: &Token<'_>| matches!(t.text, "HashMap" | "HashSet");

    // Pass 1 — hash-typed identifiers: `name: [&][mut] HashMap<…>` or
    // `let [mut] name = HashMap::…`.
    let mut hash_idents: Vec<&str> = Vec::new();
    for i in 0..code.len() {
        if code[i].kind != TokenKind::Ident || !is_hash_ty(&code[i]) {
            continue;
        }
        // Walk left over type-position noise.
        let mut j = i;
        while j > 0
            && matches!(code[j - 1].text, "&" | "mut" | "::" | "collections" | "std")
        {
            j -= 1;
        }
        if j >= 2 && code[j - 1].text == ":" && code[j - 2].kind == TokenKind::Ident {
            hash_idents.push(code[j - 2].text);
        } else if j >= 2 && code[j - 1].text == "=" {
            // `let [mut] name = HashMap::new()`
            let mut k = j - 2;
            if code[k].kind == TokenKind::Ident
                && k >= 1
                && (code[k - 1].text == "let" || (code[k - 1].text == "mut" && k >= 2))
            {
                if code[k - 1].text == "mut" {
                    k -= 1;
                }
                if k >= 1 && code[k - 1].text == "let" {
                    hash_idents.push(code[j - 2].text);
                }
            }
        }
    }
    hash_idents.sort_unstable();
    hash_idents.dedup();

    let is_hash_expr_head = |t: &Token<'_>| {
        is_hash_ty(t) || (t.kind == TokenKind::Ident && hash_idents.binary_search(&t.text).is_ok())
    };

    // Pass 2a — `recv.method()` where recv is hash-typed and method iterates.
    for i in 0..code.len() {
        if code[i].kind != TokenKind::Ident || !ITERATION_METHODS.contains(&code[i].text) {
            continue;
        }
        if !(i >= 2 && code[i - 1].text == "." && code.get(i + 1).map(|t| t.text) == Some("("))
        {
            continue;
        }
        // Receiver: `map.iter()`, `self.map.iter()`, `HashMap::…` chains.
        let mut r = i - 2;
        if code[r].kind == TokenKind::Punct && matches!(code[r].text, ")" | "]") {
            continue; // call-chain receiver: can't resolve, stay quiet
        }
        let recv = code[r];
        // Skip a `self.` / path prefix to the field/var name itself.
        if r >= 2 && code[r - 1].text == "." {
            r -= 2;
        }
        if is_hash_expr_head(&recv) || is_hash_expr_head(&code[r]) {
            out.push(Finding {
                rule: RuleId::D002,
                line: code[i].line,
                message: format!(
                    "`{}.{}()` iterates a hash container in `{}`; use BTreeMap/BTreeSet or sort first",
                    recv.text, code[i].text, ctx.crate_name
                ),
            });
        }
    }

    // Pass 2b — `for pat in expr {`: expr mentioning a hash-typed ident.
    let mut i = 0;
    while i < code.len() {
        if code[i].text == "for" && code[i].kind == TokenKind::Ident {
            // Find `in` at bracket depth 0, then the body `{` at depth 0.
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut in_idx = None;
            while let Some(t) = code.get(j) {
                match t.text {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "in" if depth == 0 && t.kind == TokenKind::Ident => {
                        in_idx = Some(j);
                        break;
                    }
                    "{" | ";" => break, // not a for-loop header after all
                    _ => {}
                }
                j += 1;
            }
            if let Some(start) = in_idx {
                let mut k = start + 1;
                let mut depth = 0i32;
                while let Some(t) = code.get(k) {
                    match t.text {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => break,
                        _ => {
                            if depth >= 0 && t.kind == TokenKind::Ident && is_hash_expr_head(t)
                            {
                                out.push(Finding {
                                    rule: RuleId::D002,
                                    line: t.line,
                                    message: format!(
                                        "`for … in` over hash container `{}` in `{}`; iteration order is unspecified",
                                        t.text, ctx.crate_name
                                    ),
                                });
                            }
                        }
                    }
                    k += 1;
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }

    // Findings from 2a and 2b can overlap (`for x in map.keys()`); dedup
    // by line, keeping the first (method-call) message.
    out.sort_by_key(|f| (f.rule, f.line));
    out.dedup_by(|a, b| a.rule == RuleId::D002 && b.rule == RuleId::D002 && a.line == b.line);
}

/// D003: `==` / `!=` with a float literal on either side. Test code is
/// exempt: exact-value pins (`tests/golden.rs`) are deliberate there.
fn d003_float_eq(
    ctx: &FileCtx,
    code: &[Token<'_>],
    in_test: &[bool],
    out: &mut Vec<Finding>,
) {
    if ctx.is_test_file {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        if !(t.kind == TokenKind::Punct && (t.text == "==" || t.text == "!=")) {
            continue;
        }
        if in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let left_float = i >= 1 && code[i - 1].kind == TokenKind::Float;
        // Right side: skip one unary minus.
        let mut r = i + 1;
        if code.get(r).map(|t| t.text) == Some("-") {
            r += 1;
        }
        let right_float = code.get(r).is_some_and(|t| t.kind == TokenKind::Float);
        if left_float || right_float {
            out.push(Finding {
                rule: RuleId::D003,
                line: t.line,
                message: format!(
                    "float `{}` comparison; use a tolerance or `total_cmp`",
                    t.text
                ),
            });
        }
    }
}

/// D004: ambient randomness. The `rand` crate is not even a dependency
/// (hermetic build), so any mention is either dead weight or an attempt to
/// reintroduce it; OS entropy names are flagged for the same reason.
fn d004_ambient_rng(code: &[Token<'_>], out: &mut Vec<Finding>) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let hit = match t.text {
            "thread_rng" | "OsRng" | "from_entropy" | "getrandom" => true,
            // Any `rand::` path — but when the next segment is itself in
            // the list above, that ident reports alone (no double count).
            "rand" => {
                code.get(i + 1).map(|n| n.text) == Some("::")
                    && !code.get(i + 2).is_some_and(|n| {
                        matches!(n.text, "thread_rng" | "OsRng" | "from_entropy" | "getrandom")
                    })
            }
            _ => false,
        };
        if hit {
            out.push(Finding {
                rule: RuleId::D004,
                line: t.line,
                message: format!(
                    "`{}` is ambient randomness; derive from SimRng with explicit (seed, stream)",
                    t.text
                ),
            });
        }
    }
}

/// D005: panicking constructs in non-test library code of the core crates.
fn d005_no_panic(
    ctx: &FileCtx,
    code: &[Token<'_>],
    in_test: &[bool],
    out: &mut Vec<Finding>,
) {
    if !NO_PANIC_CRATES.contains(&ctx.crate_name.as_str()) || ctx.is_bin || ctx.is_test_file {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let next = code.get(i + 1).map(|n| n.text);
        let (hit, what) = match t.text {
            "unwrap" | "expect" => (
                i >= 1 && code[i - 1].text == "." && next == Some("("),
                format!(".{}()", t.text),
            ),
            "panic" | "unreachable" | "todo" | "unimplemented" => {
                (next == Some("!"), format!("{}!", t.text))
            }
            _ => (false, String::new()),
        };
        if hit {
            out.push(Finding {
                rule: RuleId::D005,
                line: t.line,
                message: format!(
                    "`{what}` in `{}` library code; return an error or make the invariant a type",
                    ctx.crate_name
                ),
            });
        }
    }
}

/// D006: stdout/stderr from library code. Binaries, examples, integration
/// tests and `#[cfg(test)]` code may print; libraries report through
/// `stats`.
///
/// Render-path extension: the binaries of [`RENDER_PATH_CRATES`] (the
/// user-facing `domino-run` / `domino-trace` CLIs) may print, but only
/// pre-rendered strings — a print macro whose format literal carries an
/// inline format spec (`{:…}`) is formatting at the print site, which
/// belongs in the library's `render_*` functions where it is unit-tested
/// and byte-stable.
fn d006_no_stdout(
    ctx: &FileCtx,
    code: &[Token<'_>],
    in_test: &[bool],
    out: &mut Vec<Finding>,
) {
    if ctx.is_bin || ctx.is_test_file {
        if ctx.is_bin
            && !ctx.is_test_file
            && RENDER_PATH_CRATES.contains(&ctx.crate_name.as_str())
        {
            d006_render_path(ctx, code, in_test, out);
        }
        return;
    }
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        if !matches!(t.text, "println" | "eprintln" | "print" | "eprint" | "dbg") {
            continue;
        }
        if code.get(i + 1).map(|n| n.text) != Some("!") {
            continue;
        }
        out.push(Finding {
            rule: RuleId::D006,
            line: t.line,
            message: format!(
                "`{}!` in library code; route diagnostics through the run report / stats",
                t.text
            ),
        });
    }
}

/// D006 render-path extension body: flag print macros in a render-path
/// binary whose format literal contains an inline format spec (`{:`).
/// `dbg!` is flagged unconditionally — it is never user-facing output.
fn d006_render_path(
    ctx: &FileCtx,
    code: &[Token<'_>],
    in_test: &[bool],
    out: &mut Vec<Finding>,
) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        if code.get(i + 1).map(|n| n.text) != Some("!") {
            continue;
        }
        let dbg = t.text == "dbg";
        if !dbg && !matches!(t.text, "println" | "eprintln" | "print" | "eprint") {
            continue;
        }
        // First argument: the format literal right after `!(`.
        let lit = code
            .get(i + 2)
            .filter(|n| n.text == "(")
            .and_then(|_| code.get(i + 3))
            .filter(|n| matches!(n.kind, TokenKind::Str | TokenKind::RawStr));
        let inline_spec = lit.is_some_and(|l| l.text.contains("{:"));
        if dbg || inline_spec {
            out.push(Finding {
                rule: RuleId::D006,
                line: t.line,
                message: if dbg {
                    format!("`dbg!` in the `{}` binary; it is never user-facing output", ctx.crate_name)
                } else {
                    format!(
                        "`{}!` with an inline format spec in the `{}` binary; \
                         pre-render the text in a library `render_*` function",
                        t.text, ctx.crate_name
                    )
                },
            });
        }
    }
}

// ------------------------------------------------------- semantic rules

/// Crates whose float reductions feed golden outputs (D009 scope). `phy`
/// is deliberately out: its DSP folds run inside one signature's sample
/// buffer where evaluation order is fixed by construction, and the
/// results reach the goldens only through `medium`/`mac` (in scope).
const FLOAT_ORDER_CRATES: &[&str] = &["sim", "medium", "mac", "scheduler", "faults"];
/// Crates exempt from D008: `testkit` defines the RNG substrate itself;
/// `lint` mentions stream idioms in rule text and fixtures.
const STREAM_EXEMPT_CRATES: &[&str] = &["testkit", "lint"];

/// Run the file-local semantic rules over one parsed file: D008 (bare
/// stream literals), D009 (float reduction order), D010 (index/sim-time
/// arithmetic) and the D003 let-bound-float extension. The cross-file
/// halves of D007/D008 live in [`crate::callgraph`].
pub fn check_semantic(ctx: &FileCtx, parsed: &ParsedFile<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in parsed.fns.iter() {
        d008_literal_stream(ctx, f.is_test, &f.body, &mut out);
        if f.is_test {
            continue;
        }
        d003_float_local(ctx, &f.body, &mut out);
        d009_float_order(ctx, &f.body, &mut out);
        d010_unchecked_arith(ctx, &f.body, &mut out);
    }
    out.sort_by_key(|f| (f.line, f.rule));
    // One finding per (rule, line): flat binary parsing can visit a site
    // twice, and the token-level D003 may coincide with the extension.
    out.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    out
}

/// Strip single-child `Opaque`/`Block` wrappers (parenthesization noise).
fn peel<'e, 'a>(mut e: &'e Expr<'a>) -> &'e Expr<'a> {
    while let Expr::Opaque(inner) | Expr::Block(inner) = e {
        match inner.as_slice() {
            [only] => e = only,
            _ => break,
        }
    }
    e
}

/// Does any node in this subtree smell like `f64`/`f32`?
fn has_float_hint(e: &Expr<'_>) -> bool {
    let mut hit = false;
    e.walk(&mut |x| {
        hit = hit
            || match x {
                Expr::Float { .. } => true,
                Expr::Cast { ty, .. } | Expr::Let { ty, .. } => {
                    ty.iter().any(|t| matches!(*t, "f64" | "f32"))
                }
                Expr::Path { segs, .. } => segs.iter().any(|s| matches!(*s, "f64" | "f32")),
                Expr::Method { turbofish, .. } => {
                    turbofish.iter().any(|t| matches!(*t, "f64" | "f32"))
                }
                _ => false,
            };
    });
    hit
}

/// D008, file-local half: a `SimRng::derive(seed, <int literal>)` stream
/// id. Applies to test code too — a test colliding with a production
/// stream silently correlates the sequences it asserts on.
fn d008_literal_stream(
    ctx: &FileCtx,
    _is_test: bool,
    body: &[Expr<'_>],
    out: &mut Vec<Finding>,
) {
    if STREAM_EXEMPT_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    for e in body {
        e.walk(&mut |x| {
            let Expr::Call { callee, args, line } = x else { return };
            let Expr::Path { segs, .. } = &**callee else { return };
            let assoc = segs.len() >= 2
                && segs.last() == Some(&"derive")
                && matches!(segs[segs.len() - 2], "SimRng" | "Rng");
            if !assoc {
                return;
            }
            if let Some(Expr::Int { text, .. }) = args.get(1).map(peel) {
                out.push(Finding {
                    rule: RuleId::D008,
                    line: *line,
                    message: format!(
                        "bare stream id `{text}` in `SimRng::derive`; name it in a `streams` module constant"
                    ),
                });
            }
        });
    }
}

/// D003 extension: `==`/`!=` where an operand is a local `let` bound
/// directly to a float literal in the same function. The token rule only
/// sees literal operands; `let eps = 1e-9; … x == eps` slipped past it.
fn d003_float_local(ctx: &FileCtx, body: &[Expr<'_>], out: &mut Vec<Finding>) {
    if ctx.is_test_file {
        return;
    }
    let mut float_locals: Vec<&str> = Vec::new();
    for e in body {
        e.walk(&mut |x| {
            if let Expr::Let { name: Some(n), init: Some(init), .. } = x {
                if matches!(peel(init), Expr::Float { .. }) {
                    float_locals.push(n);
                }
            }
        });
    }
    if float_locals.is_empty() {
        return;
    }
    let is_float_local = |e: &Expr<'_>| {
        matches!(peel(e), Expr::Path { segs, .. }
            if segs.len() == 1 && float_locals.contains(&segs[0]))
    };
    for e in body {
        e.walk(&mut |x| {
            if let Expr::Binary { op: op @ ("==" | "!="), lhs, rhs, line } = x {
                if is_float_local(lhs) || is_float_local(rhs) {
                    out.push(Finding {
                        rule: RuleId::D003,
                        line: *line,
                        message: format!(
                            "float-bound local compared with `{op}`; use a tolerance or `total_cmp`"
                        ),
                    });
                }
            }
        });
    }
}

/// Order-sensitive sort/search adapters whose comparator decides order.
const COMPARATOR_SINKS: &[&str] = &[
    "sort_by", "sort_unstable_by", "sort_by_key", "sort_unstable_by_key", "max_by", "min_by",
    "max_by_key", "min_by_key", "binary_search_by",
];

/// D009: float reductions and `partial_cmp`-based ordering in the crates
/// whose float results feed goldens. Reassociating a sum or letting a
/// NaN-partial comparator pick an order moves pinned outputs.
fn d009_float_order(ctx: &FileCtx, body: &[Expr<'_>], out: &mut Vec<Finding>) {
    if !FLOAT_ORDER_CRATES.contains(&ctx.crate_name.as_str())
        || ctx.is_bin
        || ctx.is_test_file
    {
        return;
    }
    // `let x: f64 = it.sum();` hints float-ness through the ascription;
    // track it while descending.
    fn walk(e: &Expr<'_>, in_float_let: bool, out: &mut Vec<Finding>) {
        if let Expr::Let { ty, init: Some(init), .. } = e {
            let fl = in_float_let || ty.iter().any(|t| matches!(*t, "f64" | "f32"));
            walk(init, fl, out);
            return;
        }
        if let Expr::Method { name, turbofish, recv, args, line } = e {
            let tf_float = turbofish.iter().any(|t| matches!(*t, "f64" | "f32"));
            match *name {
                "sum" | "product"
                    if tf_float
                        || (turbofish.is_empty() && (in_float_let || has_float_hint(recv))) =>
                {
                    out.push(Finding {
                        rule: RuleId::D009,
                        line: *line,
                        message: format!(
                            "float `.{name}()` reduction; reassociation moves goldens — keep the pinned loop order explicit"
                        ),
                    });
                }
                "fold" if args.first().is_some_and(has_float_hint) => {
                    out.push(Finding {
                        rule: RuleId::D009,
                        line: *line,
                        message: "float `fold` reduction; reassociation moves goldens — keep the pinned loop order explicit".to_string(),
                    });
                }
                _ if COMPARATOR_SINKS.contains(name) => {
                    let uses_partial = args.iter().any(|a| {
                        let mut hit = false;
                        a.walk(&mut |x| {
                            hit = hit
                                || match x {
                                    Expr::Method { name, .. } => *name == "partial_cmp",
                                    Expr::Path { segs, .. } => {
                                        segs.last() == Some(&"partial_cmp")
                                    }
                                    _ => false,
                                };
                        });
                        hit
                    });
                    if uses_partial {
                        out.push(Finding {
                            rule: RuleId::D009,
                            line: *line,
                            message: format!(
                                "`.{name}` with `partial_cmp`; NaN makes the order unspecified — use `total_cmp`"
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
        for c in e.children() {
            walk(c, in_float_let, out);
        }
    }
    for e in body {
        walk(e, false, out);
    }
}

/// Sim-time accessor methods whose integer results D010 guards.
const SIM_TIME_ACCESSORS: &[&str] = &["as_nanos", "as_micros", "as_millis", "as_secs"];

/// D010: raw `xs[i ± j]` indexing (out-of-bounds panics in exactly the
/// crates D005 keeps panic-free) and unchecked `+`/`-` directly on
/// `as_nanos()`-style sim-time integers (quiet wrap in release mode
/// corrupts the schedule instead of failing).
fn d010_unchecked_arith(ctx: &FileCtx, body: &[Expr<'_>], out: &mut Vec<Finding>) {
    if !NO_PANIC_CRATES.contains(&ctx.crate_name.as_str()) || ctx.is_bin || ctx.is_test_file {
        return;
    }
    for e in body {
        e.walk(&mut |x| match x {
            Expr::Index { index, line, .. } => {
                if let Expr::Binary { op: op @ ("+" | "-"), .. } = peel(index) {
                    out.push(Finding {
                        rule: RuleId::D010,
                        line: *line,
                        message: format!(
                            "raw `[i {op} j]` indexing in `{}`; use `get(..)` or checked index math",
                            ctx.crate_name
                        ),
                    });
                }
            }
            Expr::Binary { op: op @ ("+" | "-"), lhs, rhs, line } => {
                let is_time = |e: &Expr<'_>| {
                    matches!(peel(e), Expr::Method { name, .. }
                        if SIM_TIME_ACCESSORS.contains(name))
                };
                if is_time(lhs) || is_time(rhs) {
                    out.push(Finding {
                        rule: RuleId::D010,
                        line: *line,
                        message: format!(
                            "unchecked `{op}` on a sim-time integer; use checked/saturating math or `SimTime` ops"
                        ),
                    });
                }
            }
            _ => {}
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn ctx(path: &str) -> FileCtx {
        FileCtx::from_path(path)
    }

    fn run(path: &str, src: &str) -> Vec<Finding> {
        check_file(&ctx(path), &tokenize(src))
    }

    #[test]
    fn file_ctx_classification() {
        let c = ctx("crates/scheduler/src/converter.rs");
        assert_eq!(c.crate_name, "scheduler");
        assert!(!c.is_bin && !c.is_test_file);
        assert!(ctx("crates/bench/src/bin/run_all.rs").is_bin);
        assert!(ctx("tests/golden.rs").is_test_file);
        assert_eq!(ctx("src/lib.rs").crate_name, "domino");
        assert!(ctx("examples/quickstart.rs").is_test_file);
    }

    #[test]
    fn test_regions_cover_cfg_test_modules() {
        let src = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }";
        let f = run("crates/sim/src/engine.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn test_attr_on_fn_is_exempt() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn lib() { y.unwrap(); }";
        let f = run("crates/sim/src/engine.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn wheel_module_is_in_d005_scope() {
        // The timer wheel is library code of `sim`: panicking constructs
        // outside tests must be flagged.
        let src = "fn cascade() { slot.unwrap(); }";
        let f = run("crates/sim/src/wheel.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::D005);
    }

    #[test]
    fn oracle_module_is_in_d002_scope() {
        // The differential oracle feeds pass/fail decisions off event
        // order; HashMap iteration there is nondeterminism waiting to
        // happen and must be flagged.
        let src = "fn drain(m: &HashMap<u64, u32>) { for (k, v) in m.iter() { use_it(k, v); } }";
        let f = run("crates/sim/src/oracle.rs", src);
        assert!(f.iter().any(|x| x.rule == RuleId::D002), "{f:?}");
    }

    #[test]
    fn snapshot_module_is_in_d005_scope() {
        // Snapshot decoders parse bytes that may come from disk
        // (`--restore`); corruption must become a SnapError, not a panic.
        let src = "fn thaw_header(b: &[u8]) { b.first().unwrap(); }";
        let f = run("crates/sim/src/snapshot.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::D005);
    }

    #[test]
    fn wired_backbone_is_in_scope() {
        // The backbone carries standby checkpoints whose bytes are
        // digest-compared: unordered iteration or a panicking decode in
        // `wired` library code must both be flagged.
        let src = "fn flush(m: &HashMap<u64, u32>) { for (k, v) in m.iter() { send(k, v); } }\n\
                   fn decode(b: &[u8]) { b.first().unwrap(); }";
        let f = run("crates/wired/src/lib.rs", src);
        assert!(f.iter().any(|x| x.rule == RuleId::D002), "{f:?}");
        assert!(f.iter().any(|x| x.rule == RuleId::D005), "{f:?}");
    }

    #[test]
    fn core_builder_is_in_scope() {
        // The builder serializes whole-world state into digest-verified
        // snapshots; it is held to the same determinism and no-panic bar
        // as the component decoders it drives.
        let src = "fn bind(m: &HashMap<u64, u32>) { for (k, v) in m.iter() { hash(k, v); } }\n\
                   fn open(b: &[u8]) { b.first().unwrap(); }";
        let f = run("crates/core/src/builder.rs", src);
        assert!(f.iter().any(|x| x.rule == RuleId::D002), "{f:?}");
        assert!(f.iter().any(|x| x.rule == RuleId::D005), "{f:?}");
    }

    #[test]
    fn differential_test_file_is_exempt() {
        let src = "fn t() { x.unwrap(); }";
        let f = run("crates/sim/tests/differential.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    // ------------------------------------------------- semantic rules

    fn run_sem(path: &str, src: &str) -> Vec<Finding> {
        check_semantic(&ctx(path), &crate::parser::parse(&tokenize(src)))
    }

    #[test]
    fn d008_flags_bare_literal_streams_even_in_tests() {
        let src = "#[test]\nfn t() { let r = SimRng::derive(7, 3); }";
        let f = run_sem("crates/sim/src/rng.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::D008);
        let named = "fn f(seed: u64) { let r = SimRng::derive(seed, streams::WIRED_JITTER); }";
        assert!(run_sem("crates/sim/src/rng.rs", named).is_empty());
    }

    #[test]
    fn d009_turbofish_sum_and_let_ascription() {
        let f = run_sem(
            "crates/medium/src/medium.rs",
            "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }",
        );
        assert_eq!(f.iter().filter(|x| x.rule == RuleId::D009).count(), 1, "{f:?}");
        let f = run_sem(
            "crates/medium/src/medium.rs",
            "fn f() { let mw: f64 = xs.iter().map(|x| x.power).sum(); }",
        );
        assert_eq!(f.iter().filter(|x| x.rule == RuleId::D009).count(), 1, "{f:?}");
        // Integer sums stay quiet.
        let f = run_sem(
            "crates/mac/src/workload.rs",
            "fn f(v: &[u64]) -> u64 { v.iter().sum::<u64>() }",
        );
        assert!(f.is_empty(), "{f:?}");
        // phy is out of D009 scope.
        let f = run_sem("crates/phy/src/ofdm.rs", "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }");
        assert!(f.iter().all(|x| x.rule != RuleId::D009), "{f:?}");
    }

    #[test]
    fn d009_partial_cmp_sorts_and_float_folds() {
        let f = run_sem(
            "crates/scheduler/src/rank.rs",
            "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
        );
        assert!(f.iter().any(|x| x.rule == RuleId::D009), "{f:?}");
        let f = run_sem(
            "crates/mac/src/x.rs",
            "fn f(v: &[f64]) -> f64 { v.iter().fold(0.0, |a, b| a + b) }",
        );
        assert!(f.iter().any(|x| x.rule == RuleId::D009), "{f:?}");
        // total_cmp sorts are the sanctioned form.
        let f = run_sem(
            "crates/scheduler/src/rank.rs",
            "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.total_cmp(b)); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d010_index_arithmetic_and_sim_time() {
        let f = run_sem(
            "crates/phy/src/signature.rs",
            "fn f(s: &[f64], t: usize, lag: usize) -> f64 { s[t + lag] }",
        );
        assert!(f.iter().any(|x| x.rule == RuleId::D010), "{f:?}");
        let f = run_sem(
            "crates/sim/src/time.rs",
            "fn f(a: SimTime, d: u64) -> u64 { a.as_nanos() + d }",
        );
        assert!(f.iter().any(|x| x.rule == RuleId::D010), "{f:?}");
        // Plain indexing and checked math stay quiet.
        let f = run_sem(
            "crates/sim/src/wheel.rs",
            "fn f(s: &[u64], i: usize) -> u64 { s[i] + s.len() as u64 }",
        );
        assert!(f.is_empty(), "{f:?}");
        // Out-of-scope crate (topology) never fires.
        let f = run_sem("crates/topology/src/grid.rs", "fn f(s: &[u64], i: usize) -> u64 { s[i - 1] }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d003_extension_catches_float_bound_locals() {
        let f = run_sem(
            "crates/mac/src/x.rs",
            "fn f(x: f64) -> bool { let eps = 1e-9; x == eps }",
        );
        assert!(f.iter().any(|x| x.rule == RuleId::D003), "{f:?}");
        // A non-float local, or a tolerance comparison, stays quiet.
        let f = run_sem(
            "crates/mac/src/x.rs",
            "fn f(x: f64) -> bool { let eps = 1e-9; (x - y).abs() < eps }",
        );
        assert!(f.iter().all(|x| x.rule != RuleId::D003), "{f:?}");
        let f = run_sem("crates/mac/src/x.rs", "fn f(n: u64) -> bool { let k = 3; n == k }");
        assert!(f.is_empty(), "{f:?}");
    }
}
