//! The scope-aware analyses: checks that need the item tree and
//! per-function token ranges, which the line-regex lints could never
//! express. Same [`Violation`]/allowlist plumbing as the lints; the
//! workspace-level stream-fingerprint gate lives in
//! [`crate::fingerprint`].

use crate::lexer::TokenKind;
use crate::lints::{Lint, Violation};
use crate::source::{FileKind, SourceFile};
use crate::tree::FnView;

/// The per-file scope-aware analyses, in reporting order.
pub const ANALYSES: &[Lint] = &[
    Lint {
        id: "determinism-flow",
        summary: "every RNG seed must trace to a seed-named value, constant, or literal",
        check: determinism_flow,
    },
    Lint {
        id: "lock-discipline",
        summary: "forbid Mutex/RwLock guards held across send/recv/join/wait calls",
        check: lock_discipline,
    },
    Lint {
        id: "hot-path-alloc",
        summary: "forbid allocation in monomorphized kernel fns and the lane draw path",
        check: hot_path_alloc,
    },
];

/// Runs every per-file analysis over one file.
#[must_use]
pub fn check_file(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for analysis in ANALYSES {
        out.extend((analysis.check)(file));
    }
    out
}

/// Seeded-constructor names: calling one is where an RNG stream is
/// born, so its argument is where seed provenance must be visible.
const SEED_CONSTRUCTORS: &[&str] = &["seed_from_u64", "from_seed"];

/// `true` when an identifier visibly carries seed provenance on its
/// own: it names a seed, or it is a named constant (determinism needs
/// a *fixed* origin, not a configurable one — `SHARD_SALT` and `42`
/// are as reproducible as `seed`).
fn seed_named(text: &str) -> bool {
    let lower = text.to_ascii_lowercase();
    lower.contains("seed")
        || (text.chars().next().is_some_and(char::is_uppercase)
            && text
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
}

/// Determinism-flow: every call of a seeded RNG constructor in library
/// code must derive its seed argument from something visibly
/// seed-flavored — an identifier containing `seed` (a parameter, a
/// field, a local), an `UPPER_SNAKE` constant, an integer literal, or
/// a local `let` whose initializer already traced. A helper that
/// launders an arbitrary value into a generator (`fn make(x: u64) ->
/// StdRng { StdRng::seed_from_u64(x) }`) breaks the audit trail from
/// `SimulationParams::seed` to the stream and is exactly what this
/// pass flags: the fix is to carry `seed` in the name across the call
/// boundary, as [`lane_key`'s] signature does.
///
/// [`lane_key`'s]: https://example.invalid/ "crates/simulator/src/engine.rs"
fn determinism_flow(file: &SourceFile) -> Vec<Violation> {
    if file.kind != FileKind::Lib {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in file.tree.functions() {
        if f.item.test {
            continue;
        }
        check_fn_seed_flow(file, &f, &mut out);
    }
    out
}

/// Checks one function's seed provenance; appends violations.
fn check_fn_seed_flow(file: &SourceFile, f: &FnView<'_>, out: &mut Vec<Violation>) {
    let Some((start, end)) = f.item.body else {
        return;
    };
    // Parameters whose name or type mentions a seed are trusted
    // origins; so is any ident containing "seed" (fields via
    // `self.seed`, captured outer locals) — the point is the *name*
    // carries the provenance.
    let mut traced: Vec<String> = Vec::new();
    for param in &f.item.sig.params {
        if param.ty.contains("Seed") || param.names.iter().any(|n| seed_named(n)) {
            traced.extend(param.names.iter().cloned());
        }
    }
    let code: Vec<usize> = file
        .code
        .iter()
        .copied()
        .filter(|&i| i >= start && i < end)
        .collect();
    let is_traced = |text: &str, kind: TokenKind, traced: &[String]| {
        matches!(kind, TokenKind::Int)
            || (kind == TokenKind::Ident && (seed_named(text) || traced.iter().any(|t| t == text)))
    };
    let mut k = 0usize;
    while k < code.len() {
        let text = file.tok(code[k]);
        // `let [mut] name = <rhs>;` — the binding inherits provenance
        // from its initializer, giving intra-function flow.
        if text == "let" {
            if let Some((name, rhs, _)) = scan_let(file, &code, k) {
                // Provenance flows into a binding from a traced ident,
                // or from an all-constant initializer. A literal mixed
                // with an untraced ident (`x ^ 0xabcd`) must NOT
                // launder `x` into a trusted local.
                let has_traced_ident = rhs.iter().any(|&i| {
                    file.tokens[i].kind == TokenKind::Ident
                        && (seed_named(file.tok(i)) || traced.iter().any(|t| t == file.tok(i)))
                });
                let pure_constant = !rhs.is_empty()
                    && rhs.iter().all(|&i| {
                        matches!(file.tokens[i].kind, TokenKind::Int | TokenKind::Punct(_))
                    });
                if has_traced_ident || pure_constant {
                    traced.push(name);
                }
                // Step INTO the initializer rather than over it: a
                // let-bound `seed_from_u64(x)` is still a call site,
                // and the provenance map above is already updated.
                k += 1;
                continue;
            }
        }
        let is_call = SEED_CONSTRUCTORS.contains(&text)
            && code
                .get(k + 1)
                .is_some_and(|&j| file.tokens[j].is_punct(b'('))
            && (k == 0 || file.tok(code[k - 1]) != "fn");
        if is_call {
            let line = file.tokens[code[k]].line;
            let args = argument_span(file, &code, k + 1);
            let ok = args
                .iter()
                .any(|&i| is_traced(file.tok(i), file.tokens[i].kind, &traced));
            if !ok && !file.is_test_line(line) && !file.allowed("determinism-flow", line) {
                out.push(Violation {
                    lint: "determinism-flow",
                    path: file.path.clone(),
                    line,
                    message: format!(
                        "`{text}` argument has no visible seed provenance in `{}` — \
                         derive it from a seed-named value, constant, or literal \
                         (or rename the carrying parameter)",
                        f.qualified
                    ),
                });
            }
        }
        k += 1;
    }
}

/// Parses `let [mut] name … = <rhs> ;` starting at `code[k] == "let"`.
/// Returns `(name, rhs token indices, index after the statement)`, or
/// `None` for patterns this pass does not track (destructuring,
/// let-else is fine — the rhs ends at `else`).
fn scan_let(file: &SourceFile, code: &[usize], k: usize) -> Option<(String, Vec<usize>, usize)> {
    let mut m = k + 1;
    if code.get(m).is_some_and(|&i| file.tok(i) == "mut") {
        m += 1;
    }
    let name_tok = *code.get(m)?;
    if file.tokens[name_tok].kind != TokenKind::Ident {
        return None;
    }
    let name = file.tok(name_tok).to_owned();
    // Skip an optional `: Type` annotation to the `=` at depth 0.
    let mut depth = 0i64;
    while m < code.len() {
        let t = &file.tokens[code[m]];
        if t.is_punct(b'(') || t.is_punct(b'[') || t.is_punct(b'{') || t.is_punct(b'<') {
            depth += 1;
        } else if t.is_punct(b')') || t.is_punct(b']') || t.is_punct(b'}') || t.is_punct(b'>') {
            depth -= 1;
        } else if t.is_punct(b'=') && depth <= 0 {
            break;
        } else if t.is_punct(b';') && depth <= 0 {
            return None; // `let name;` — no initializer
        }
        m += 1;
    }
    let rhs_start = m + 1;
    let mut rhs = Vec::new();
    let mut depth = 0i64;
    m = rhs_start;
    while m < code.len() {
        let t = &file.tokens[code[m]];
        if t.is_punct(b'(') || t.is_punct(b'[') || t.is_punct(b'{') {
            depth += 1;
        } else if t.is_punct(b')') || t.is_punct(b']') || t.is_punct(b'}') {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if depth == 0 && (t.is_punct(b';') || file.tok(code[m]) == "else") {
            break;
        }
        rhs.push(code[m]);
        m += 1;
    }
    Some((name, rhs, m))
}

/// Token indices of a call's arguments: `code[open_k]` must be the
/// opening `(`; the span excludes the parens themselves.
fn argument_span(file: &SourceFile, code: &[usize], open_k: usize) -> Vec<usize> {
    let mut depth = 0i64;
    let mut out = Vec::new();
    for &i in &code[open_k..] {
        let t = &file.tokens[i];
        if t.is_punct(b'(') {
            depth += 1;
            if depth == 1 {
                continue;
            }
        } else if t.is_punct(b')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        out.push(i);
    }
    out
}

/// Calls that block the current thread on another thread, a channel,
/// a socket peer (the service daemon's accept/read/write path: a
/// connection thread stalled by a slow client must never be holding a
/// shared lock), or a child process (the orchestrator's supervision
/// path: `wait`/`wait_with_output` block until the worker exits, and
/// even the "non-blocking" `kill`/`try_wait` are syscalls against
/// process state that must not run under a shared lock — a wedged
/// worker would stall every contender).
const BLOCKING_CALLS: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "join",
    "wait",
    "wait_timeout",
    "wait_while",
    "wait_with_output",
    "accept",
    "read_line",
    "write_all",
    "flush",
    "kill",
    "try_wait",
];

/// Result adapters that pass a lock guard through unchanged, so
/// `m.lock().unwrap()` still binds a guard.
const GUARD_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else", "map_err"];

/// Lock-discipline: a `let`-bound `Mutex`/`RwLock` guard must not be
/// live across a blocking call — a worker that blocks on `recv` or
/// `join` while holding a lock turns every other contender into a
/// straggler, and pairs of such sites deadlock. A binding counts as a
/// guard when its initializer's final call (after guard-preserving
/// adapters like `.unwrap()`) is `.lock()`, an argument-less
/// `.read()`/`.write()`, or any call whose name contains `lock`
/// (helpers like `lock_supervisor`). The guard dies at the end of its
/// block or at an explicit `drop(name)`; extracting owned data out of
/// the guard in the same statement (`….lock().….collect()`) never
/// binds one.
fn lock_discipline(file: &SourceFile) -> Vec<Violation> {
    if file.kind != FileKind::Lib {
        return Vec::new();
    }
    let mut out = Vec::new();
    let code = &file.code;
    // Live guards: (binding name, brace depth at the binding).
    let mut guards: Vec<(String, i64)> = Vec::new();
    let mut depth = 0i64;
    let mut k = 0usize;
    while k < code.len() {
        let i = code[k];
        let t = &file.tokens[i];
        if t.is_punct(b'{') {
            depth += 1;
        } else if t.is_punct(b'}') {
            depth -= 1;
            guards.retain(|&(_, d)| d <= depth);
        } else if file.tok(i) == "drop"
            && code
                .get(k + 1)
                .is_some_and(|&j| file.tokens[j].is_punct(b'('))
        {
            if let Some(&name_i) = code.get(k + 2) {
                let name = file.tok(name_i);
                guards.retain(|(g, _)| g != name);
            }
        } else if file.tok(i) == "let" {
            if let Some((name, acquires)) = guard_binding(file, code, k) {
                if acquires && name != "_" {
                    guards.push((name, depth));
                }
            }
        } else if !guards.is_empty()
            && BLOCKING_CALLS.contains(&file.tok(i))
            && code
                .get(k + 1)
                .is_some_and(|&j| file.tokens[j].is_punct(b'('))
            && k > 0
            && file.tokens[code[k - 1]].is_punct(b'.')
        {
            let line = t.line;
            if !file.is_test_line(line) && !file.allowed("lock-discipline", line) {
                let held: Vec<&str> = guards.iter().map(|(g, _)| g.as_str()).collect();
                out.push(Violation {
                    lint: "lock-discipline",
                    path: file.path.clone(),
                    line,
                    message: format!(
                        "blocking `.{}()` while lock guard `{}` is live — drop the \
                         guard first or move the blocking call out of its scope",
                        file.tok(i),
                        held.join("`, `"),
                    ),
                });
            }
        }
        k += 1;
    }
    out
}

/// Inspects the `let` statement at `code[k]`: returns the first bound
/// name and whether the initializer leaves a lock guard in it.
fn guard_binding(file: &SourceFile, code: &[usize], k: usize) -> Option<(String, bool)> {
    // Pattern: collect idents to the `=` at depth 0, skipping binding
    // noise; the guard name is the last pattern ident (`Ok(guard)`,
    // `mut sup`).
    let mut m = k + 1;
    let mut depth = 0i64;
    let mut name: Option<String> = None;
    while m < code.len() {
        let t = &file.tokens[code[m]];
        if t.is_punct(b'(') || t.is_punct(b'<') {
            depth += 1;
        } else if t.is_punct(b')') || t.is_punct(b'>') {
            depth -= 1;
        } else if t.is_punct(b'=') && depth <= 0 {
            break;
        } else if t.is_punct(b';') && depth <= 0 {
            return None;
        } else if t.kind == TokenKind::Ident && depth <= 1 {
            let text = file.tok(code[m]);
            if !matches!(text, "mut" | "ref" | "Ok" | "Err" | "Some" | "None") {
                // A `: Type` annotation ident must not shadow the
                // binding; the first plausible name wins.
                name.get_or_insert_with(|| text.to_owned());
            }
        }
        m += 1;
    }
    let name = name?;
    // Initializer: collect the method-call chain at depth 0, up to the
    // statement end (`;` or let-else `else`).
    let mut calls: Vec<&str> = Vec::new();
    let mut empty_args: Vec<bool> = Vec::new();
    let mut depth = 0i64;
    m += 1;
    while m < code.len() {
        let t = &file.tokens[code[m]];
        if t.is_punct(b'(') || t.is_punct(b'[') || t.is_punct(b'{') {
            depth += 1;
        } else if t.is_punct(b')') || t.is_punct(b']') || t.is_punct(b'}') {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if depth == 0 && (t.is_punct(b';') || file.tok(code[m]) == "else") {
            break;
        } else if depth == 0
            && t.kind == TokenKind::Ident
            && code
                .get(m + 1)
                .is_some_and(|&j| file.tokens[j].is_punct(b'('))
        {
            calls.push(file.tok(code[m]));
            empty_args.push(
                code.get(m + 2)
                    .is_some_and(|&j| file.tokens[j].is_punct(b')')),
            );
        }
        m += 1;
    }
    // Walk the chain backwards past guard-preserving adapters; the
    // call that produced the bound value decides guard-ness.
    let mut idx = calls.len();
    while idx > 0 && GUARD_ADAPTERS.contains(&calls[idx - 1]) {
        idx -= 1;
    }
    let acquires = idx > 0 && {
        let producer = calls[idx - 1];
        producer == "lock"
            || producer.contains("lock")
            || (matches!(producer, "read" | "write") && empty_args[idx - 1])
    };
    Some((name, acquires))
}

/// Tokens that allocate (or copy into a fresh allocation) when they
/// appear as calls/macros in a hot function.
const ALLOC_METHODS: &[&str] = &["collect", "clone", "to_vec", "to_owned"];

/// `true` when `f` is one of the functions the batch throughput
/// depends on: the lane batch runner, the kernel methods it calls per
/// trial (including a rule's own `decide`, which the opaque fallback
/// calls per decision), and the counter pipeline (the Threefry
/// ladder, its unit conversion, and the per-draw replay accessor).
/// These execute per trial or per lane group; one stray allocation
/// there undoes the monomorphization win. The lane batch runner has
/// no cold spot at all: it consumes each Threefry block in registers
/// and allocates nothing per batch.
fn is_hot_path(f: &FnView<'_>) -> bool {
    f.item.name == "run_lane_batch"
        || matches!(
            f.item.name.as_str(),
            "threefry4x64_lanes" | "threefry4x64" | "half_to_unit" | "lane_draw"
        )
        || (!f.is_free && matches!(f.item.name.as_str(), "decide" | "players" | "sends_to_zero"))
}

/// Hot-path-alloc: forbid `Vec::new`, `vec!`, `Box::new`, `.collect()`,
/// `.clone()`, `.to_vec()`, `.to_owned()` inside the hot functions.
fn hot_path_alloc(file: &SourceFile) -> Vec<Violation> {
    if file.kind != FileKind::Lib {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in file.tree.functions() {
        if f.item.test || !is_hot_path(&f) {
            continue;
        }
        let Some((start, end)) = f.item.body else {
            continue;
        };
        let code: Vec<usize> = file
            .code
            .iter()
            .copied()
            .filter(|&i| i >= start && i < end)
            .collect();
        for (k, &i) in code.iter().enumerate() {
            let text = file.tok(i);
            let line = file.tokens[i].line;
            if file.is_test_line(line) || file.allowed("hot-path-alloc", line) {
                continue;
            }
            let dotted_alloc = ALLOC_METHODS.contains(&text)
                && k > 0
                && file.tokens[code[k - 1]].is_punct(b'.')
                && code
                    .get(k + 1)
                    .is_some_and(|&j| file.tokens[j].is_punct(b'('));
            let ctor_alloc = matches!(text, "Vec" | "Box")
                && code
                    .get(k + 1)
                    .is_some_and(|&j| file.tokens[j].is_punct(b':'))
                && code.get(k + 3).is_some_and(|&j| file.tok(j) == "new");
            let vec_macro = text == "vec"
                && code
                    .get(k + 1)
                    .is_some_and(|&j| file.tokens[j].is_punct(b'!'));
            if dotted_alloc || ctor_alloc || vec_macro {
                out.push(Violation {
                    lint: "hot-path-alloc",
                    path: file.path.clone(),
                    line,
                    message: format!(
                        "`{text}` allocates inside hot-path fn `{}` — hoist the \
                         allocation out of the per-trial loop",
                        f.qualified
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn lib(src: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/lib.rs", FileKind::Lib, src)
    }

    #[test]
    fn seed_param_traces_through_arithmetic() {
        let f = lib(
            "fn derive_rng(seed: u64, batch: u64) -> StdRng {\n    StdRng::seed_from_u64(splitmix(seed ^ batch.wrapping_mul(0x9e37)))\n}\n",
        );
        assert!(determinism_flow(&f).is_empty());
    }

    #[test]
    fn laundering_through_unrelated_param_fires() {
        let f = lib("fn make(x: u64) -> StdRng {\n    StdRng::seed_from_u64(x)\n}\n");
        let v = determinism_flow(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn let_binding_carries_provenance() {
        let f = lib(
            "fn make(seed: u64) -> StdRng {\n    let mixed = seed ^ 0x9e37;\n    StdRng::seed_from_u64(mixed)\n}\n",
        );
        assert!(determinism_flow(&f).is_empty());
    }

    #[test]
    fn literal_and_const_seeds_are_deterministic() {
        let f = lib(
            "const SALT: u64 = 7;\nfn a() -> StdRng { StdRng::seed_from_u64(42) }\nfn b() -> StdRng { StdRng::seed_from_u64(SALT) }\n",
        );
        assert!(determinism_flow(&f).is_empty());
    }

    #[test]
    fn self_seed_field_is_traced() {
        let f = lib(
            "impl Run {\n    fn rng(&self) -> StdRng { StdRng::seed_from_u64(self.seed) }\n}\n",
        );
        assert!(determinism_flow(&f).is_empty());
    }

    #[test]
    fn fn_definition_is_not_a_call_site() {
        let f = lib("fn seed_from_u64(seed: u64) -> Self {\n    Self::from(seed)\n}\n");
        assert!(determinism_flow(&f).is_empty());
    }

    #[test]
    fn recv_under_let_bound_lock_guard_fires() {
        let f = lib(
            "fn f(q: &Mutex<Receiver<u8>>) {\n    let guard = q.lock().unwrap();\n    let _x = guard.recv();\n}\n",
        );
        let v = lock_discipline(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn let_else_guard_pattern_is_tracked() {
        let f = lib(
            "fn f(q: &Mutex<Receiver<u8>>) {\n    let Ok(guard) = q.lock() else { return };\n    let _x = guard.recv();\n}\n",
        );
        assert_eq!(lock_discipline(&f).len(), 1);
    }

    #[test]
    fn guard_scoped_to_inner_block_is_clean() {
        let f = lib(
            "fn f(q: &Mutex<Receiver<u8>>, rx: &Receiver<u8>) {\n    let msg = {\n        let guard = q.lock().unwrap();\n        guard.try_recv()\n    };\n    let _x = rx.recv();\n}\n",
        );
        assert!(lock_discipline(&f).is_empty());
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let f = lib(
            "fn f(m: &Mutex<u8>, rx: &Receiver<u8>) {\n    let guard = m.lock().unwrap();\n    drop(guard);\n    let _x = rx.recv();\n}\n",
        );
        assert!(lock_discipline(&f).is_empty());
    }

    #[test]
    fn lock_helper_call_binds_a_guard() {
        let f = lib(
            "impl Pool {\n    fn f(&self) {\n        let sup = self.lock_supervisor();\n        for h in sup.handles.drain(..) {\n            let _r = h.join();\n        }\n    }\n}\n",
        );
        assert_eq!(lock_discipline(&f).len(), 1);
    }

    #[test]
    fn extracting_owned_data_from_a_lock_does_not_bind_a_guard() {
        let f = lib(
            "impl Pool {\n    fn f(&self) {\n        let handles: Vec<Handle> = self.lock_supervisor().handles.drain(..).collect();\n        for h in handles {\n            let _r = h.join();\n        }\n    }\n}\n",
        );
        assert!(lock_discipline(&f).is_empty());
    }

    #[test]
    fn rwlock_read_guard_across_join_fires() {
        let f = lib(
            "fn f(m: &RwLock<u8>, h: Handle) {\n    let state = m.read().unwrap();\n    let _r = h.join();\n}\n",
        );
        assert_eq!(lock_discipline(&f).len(), 1);
    }

    #[test]
    fn io_read_with_buffer_is_not_a_lock() {
        let f = lib(
            "fn f(src: &mut File, rx: &Receiver<u8>, buf: &mut [u8]) {\n    let n = src.read(buf).unwrap();\n    let _x = rx.recv();\n}\n",
        );
        assert!(lock_discipline(&f).is_empty());
    }

    #[test]
    fn waived_handoff_recv_is_clean() {
        let f = lib(
            "fn f(q: &Mutex<Receiver<u8>>) {\n    let guard = q.lock().unwrap();\n    // xtask:allow(lock-discipline): shared-queue handoff holds the lock across recv by design\n    let _x = guard.recv();\n}\n",
        );
        assert!(lock_discipline(&f).is_empty());
    }

    #[test]
    fn clone_in_players_method_fires_and_cold_fn_is_exempt() {
        let f = lib(
            "impl<R: LocalRule> Kernel for GenericKernel<'_, R> {\n    fn players(&self) -> usize {\n        let b = self.0.clone();\n        b.n()\n    }\n}\nfn setup() -> Vec<u64> {\n    vec![1, 2].to_vec()\n}\n",
        );
        let v = hot_path_alloc(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn vec_new_and_macro_in_decide_fire() {
        let f = lib(
            "impl ThresholdKernel {\n    fn decide(&self, player: usize) -> Bin {\n        let scratch = Vec::new();\n        let more = vec![0u8; 4];\n        Bin::Zero\n    }\n}\n",
        );
        assert_eq!(hot_path_alloc(&f).len(), 2);
    }

    #[test]
    fn collect_in_run_lane_batch_fires() {
        let f = lib(
            "fn run_lane_batch<K: Kernel, const L: usize>(kernel: &K) -> u64 {\n    let lanes: Vec<u64> = (0..L).map(|i| i as u64).collect();\n    lanes.len() as u64\n}\n",
        );
        let v = hot_path_alloc(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn threefry_ladder_and_lane_draw_are_hot() {
        let f = lib(
            "pub fn threefry4x64_lanes<const L: usize>(key: &CounterKey) -> [u64; 4] {\n    let ks = key.ks.to_vec();\n    [ks[0], ks[1], ks[2], ks[3]]\n}\npub(crate) fn lane_draw(key: &CounterKey, trial: u64) -> f64 {\n    let block = key.ks.to_vec();\n    block[0] as f64\n}\n",
        );
        assert_eq!(hot_path_alloc(&f).len(), 2);
    }

    #[test]
    fn sends_to_zero_method_is_hot() {
        let f = lib(
            "impl Kernel for ThresholdKernel {\n    fn sends_to_zero(&self, player: usize, input: f64, _coin: f64) -> bool {\n        let t = self.thresholds.clone();\n        input < t[player]\n    }\n}\n",
        );
        assert_eq!(hot_path_alloc(&f).len(), 1);
    }

    #[test]
    fn alloc_free_hot_path_is_clean() {
        let f = lib(
            "impl Kernel for ObliviousKernel {\n    fn sends_to_zero(&self, player: usize, _input: f64, coin: f64) -> bool {\n        coin < self.alpha[player]\n    }\n}\n",
        );
        assert!(hot_path_alloc(&f).is_empty());
    }
}
