//! Source-level invariant lints.
//!
//! The protocol's correctness arguments lean on a few *encapsulation*
//! properties that the type system cannot fully enforce. This pass scans
//! the workspace sources (text-level, comment-aware, best-effort) and
//! fails CI when one is broken:
//!
//! * **nodeset-raw** — `NodeSet` values must come from the directory's
//!   own constructors; building one from a raw bitmask outside
//!   `core/src/directory.rs` bypasses the ≤64-node width discipline.
//! * **pte-mutation** — page-table entries may only be mutated by the
//!   protocol core (`core/src/protocol.rs`, which every driver —
//!   runtime, model, explorer — goes through) and the defining `dex-os`
//!   crate. A stray `page_table.set(...)` elsewhere silently breaks
//!   owner-set/PTE agreement, and is a protocol decision the model
//!   checker never sees.
//! * **diraction-interpreter** — a production `match` over
//!   [`DirAction`] (`dex_core::DirAction`) may appear only where actions
//!   are produced (`core/src/directory.rs`) and in their single
//!   interpreter (`core/src/protocol.rs`). A second interpreter is how
//!   the runtime and the verified model drifted apart before.
//! * **diraction-wildcard** — where such a `match` is allowed it must
//!   stay exhaustive. A `_ =>` wildcard would silently ignore actions
//!   added to the protocol later.
//! * **fabric-unwrap** — no `unwrap()` on the fabric send/receive paths
//!   (`crates/net` non-test code); messaging errors must propagate.
//! * **sync-free** — the simulator and the fabric (non-test
//!   `crates/{sim,net}/src`) run on the one OS thread that called
//!   `Engine::run` and are `!Send` by construction (`Rc`, `RefCell`,
//!   `Cell`). A `Mutex`, `RwLock`, `Condvar`, `Atomic*`, `Arc` or
//!   `unsafe impl Send`/`Sync` there is a lock nobody contends, or a
//!   claim to thread-safety the compiler can no longer check. The one
//!   exception is the `Mutex` of `sim/src/codec.rs`'s process-wide string
//!   interner, which engines on parallel OS threads (tests) share.
//! * **raw-park** — protocol and application code must block through
//!   the `dex_core::sync` primitives, never by calling `ctx.park()` /
//!   `ctx.unpark(..)` directly: raw parks bypass the schedule-policy
//!   choice point and the race recorder's wakeup edge, so `dex-check
//!   explore` could neither reorder nor order-justify them.
//! * **span-unguarded** — span instrumentation on the protocol hot path
//!   (`crates/core/src`) goes through the typed timer
//!   (`SpanBuffer::start`/`finish`): span ids are allocated and spans
//!   recorded only inside `span.rs`, where the type system keeps them.
//!   What the types cannot see is *when* a span's attribution is
//!   computed, so a `tag_for(...)` call (the locked object-table scan
//!   that attributes a fault span) must sit inside a closure (a `|| {`
//!   opening within a few lines above): the closure handed to `finish`,
//!   which runs only while recording is on. An eager call would cost the
//!   untraced run a locked scan.
//! * **unsafe-confined** — the keyword `unsafe` may appear under `crates/`
//!   only in `sim/src/context.rs`, the stack switch every simulated thread
//!   runs on. One file is what a reader can audit; a second site would have
//!   to argue its own soundness with nobody looking. (`benchmark/` is a
//!   separate, frozen package and out of scope.)
//! * **codec-confined** — every text artifact escapes, splits and reads
//!   through `dex_sim::codec`. Outside `sim/src/codec.rs`, a function
//!   whose name contains `escape` (test code included) and a `split` on
//!   `'\t'` in non-test code are a second codec starting to drift.
//! * **delegation-confined** — delegated work runs in one executor
//!   (`run_at_origin` in `core/src/delegation.rs`) and travels in one remote
//!   round (`ThreadCtx::at_origin`). Across the non-test code under
//!   `crates/`, each `DelegatedOp::<Variant>` pattern followed by `=>`
//!   may occur once per variant, and `DexMsg::Delegate` may be built
//!   once; a second arm or a second send is a second copy of the
//!   mechanism, free to drift from the first.
//! * **counter-confined** — a protocol counter is named once, in
//!   `core/src/counters.rs`. Elsewhere in the non-test code of
//!   `crates/core/src`, a string literal passed as the first argument of
//!   `.incr(` or `.add(` is a second spelling of a name, or a second
//!   recorder beside the one counter store.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Clone, Debug)]
pub struct LintHit {
    /// Rule identifier.
    pub rule: &'static str,
    /// File (workspace-relative).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed.
    pub text: String,
}

impl std::fmt::Display for LintHit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.text
        )
    }
}

/// Files allowed to construct `NodeSet` from raw bits.
const NODESET_ALLOWLIST: [&str; 1] = ["crates/core/src/directory.rs"];

/// Files allowed to mutate page-table entries: the protocol core
/// (`crates/os/` as a whole, the definer, is exempt separately).
const PTE_ALLOWLIST: [&str; 1] = ["crates/core/src/protocol.rs"];

/// Files allowed to `match` on `DirAction`: its producer and its single
/// interpreter.
const DIRACTION_ALLOWLIST: [&str; 2] = [
    "crates/core/src/directory.rs",
    "crates/core/src/protocol.rs",
];

/// Thread-safety vocabulary with no place in the single-threaded
/// simulator and fabric, besides any `Atomic*` type.
const SYNC_WORDS: [&str; 4] = ["Mutex", "RwLock", "Condvar", "Arc"];

/// The one exception to `sync-free`: the file and the word allowed there
/// (the process-wide string interner).
const SYNC_EXCEPTION: (&str, &str) = ("crates/sim/src/codec.rs", "Mutex");

/// Files allowed to call `ctx.park()` / `ctx.unpark(..)` directly — the
/// blocking primitives themselves. Everything else in the protocol and
/// application layers must go through `dex_core::sync`, which records
/// the wakeup edge for the race detector and routes the block through
/// the scheduler's choice points.
const PARK_ALLOWLIST: [&str; 3] = [
    "crates/core/src/sync.rs",
    "crates/core/src/process.rs",
    "crates/core/src/thread.rs",
];

/// The one file allowed to contain the `unsafe` keyword.
const UNSAFE_ALLOWLIST: [&str; 1] = ["crates/sim/src/context.rs"];

/// The one file allowed to define escapers and split rows on tabs.
const CODEC_ALLOWLIST: [&str; 1] = ["crates/sim/src/codec.rs"];

/// The one `dex-core` file that spells counter names.
const COUNTER_NAMES: &str = "crates/core/src/counters.rs";

/// Whether `line` declares a function whose name contains `part`
/// (outside string literals, as in [`has_keyword`]).
fn declares_fn_named(line: &str, part: &str) -> bool {
    line.split('"').step_by(2).any(|code| {
        let mut words = code
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty());
        let mut prev = "";
        words.any(|w| std::mem::replace(&mut prev, w) == "fn" && w.contains(part))
    })
}

/// Strips `//` comments (keeps string contents intact well enough for
/// these lints — the sources do not hide the flagged tokens in strings).
fn strip_line_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Whether `word` occurs in `line` as a whole word outside string literals
/// (best-effort: a literal is whatever sits between two `"` on the line).
fn has_keyword(line: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    line.split('"').step_by(2).any(|code| {
        code.match_indices(word).any(|(pos, _)| {
            !code[..pos].ends_with(ident) && !code[pos + word.len()..].starts_with(ident)
        })
    })
}

/// Whether an identifier starting with `prefix` occurs in `line` outside
/// string literals (as in [`has_keyword`]).
fn has_ident_prefix(line: &str, prefix: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    line.split('"').step_by(2).any(|code| {
        code.match_indices(prefix)
            .any(|(pos, _)| !code[..pos].ends_with(ident))
    })
}

/// Lints one file's contents. `rel` is the workspace-relative path used
/// for allowlisting and reporting.
pub fn lint_source(rel: &str, content: &str) -> Vec<LintHit> {
    let mut hits = Vec::new();
    let in_os_crate = rel.starts_with("crates/os/");
    let in_net_crate = rel.starts_with("crates/net/src/");
    // The span hot path: everything in dex-core's sources except the
    // timer's own definition.
    let span_hot_path = rel.starts_with("crates/core/src/") && rel != "crates/core/src/span.rs";
    let stripped: Vec<&str> = content.lines().map(strip_line_comment).collect();
    let mut in_tests = false;

    for (idx, raw) in content.lines().enumerate() {
        if raw.contains("#[cfg(test)]") {
            // Everything below the test-module marker is test code (the
            // workspace convention keeps test modules at the bottom).
            in_tests = true;
        }
        let line = strip_line_comment(raw);
        let lineno = idx + 1;
        let mut push = |rule: &'static str| {
            hits.push(LintHit {
                rule,
                file: rel.to_string(),
                line: lineno,
                text: raw.trim().to_string(),
            });
        };

        if !NODESET_ALLOWLIST.contains(&rel) && !in_tests {
            // Tuple-struct construction `NodeSet(bits)` — not `NodeSet::`.
            if let Some(pos) = line.find("NodeSet(") {
                let after = &line[pos + "NodeSet(".len()..];
                if !after.trim_start().starts_with(')') {
                    push("nodeset-raw");
                }
            }
        }

        if !in_os_crate && !PTE_ALLOWLIST.contains(&rel) && !in_tests {
            let mutates = ["\u{2e}set(", ".clear(", ".downgrade("].iter().any(|m| {
                line.find(m).is_some_and(|pos| {
                    let before = &line[..pos];
                    before.contains("page_table") || before.contains("ptes[")
                })
            });
            if mutates {
                push("pte-mutation");
            }
        }

        if in_net_crate && !in_tests && line.contains(".unwrap()") {
            push("fabric-unwrap");
        }

        let sync_scope = rel.starts_with("crates/sim/src/") || rel.starts_with("crates/net/src/");
        if sync_scope && !in_tests {
            let word = SYNC_WORDS
                .iter()
                .any(|w| (rel, *w) != SYNC_EXCEPTION && has_keyword(line, w));
            let claims = has_keyword(line, "unsafe")
                && (line.contains("impl Send") || line.contains("impl Sync"));
            if word || has_ident_prefix(line, "Atomic") || claims {
                push("sync-free");
            }
        }

        if rel.starts_with("crates/core/src/") && rel != COUNTER_NAMES && !in_tests {
            // A name literal as the first argument, on this line or the next.
            let names_literal = [".incr(", ".add("].iter().any(|call| {
                line.match_indices(call).any(|(pos, _)| {
                    let arg = line[pos + call.len()..].trim_start();
                    let arg = match (arg, stripped.get(idx + 1)) {
                        ("", Some(next)) => next.trim_start(),
                        _ => arg,
                    };
                    arg.starts_with('"')
                })
            });
            if names_literal {
                push("counter-confined");
            }
        }

        if !UNSAFE_ALLOWLIST.contains(&rel) && !in_tests && has_keyword(line, "unsafe") {
            push("unsafe-confined");
        }

        if !CODEC_ALLOWLIST.contains(&rel)
            && (declares_fn_named(line, "escape")
                || (!in_tests && line.contains("split") && line.contains("'\\t')")))
        {
            push("codec-confined");
        }

        let park_scope = rel.starts_with("crates/core/src/") || rel.starts_with("crates/apps/src/");
        if park_scope
            && !PARK_ALLOWLIST.contains(&rel)
            && !in_tests
            && (line.contains(".park()") || line.contains(".unpark("))
        {
            push("raw-park");
        }

        if span_hot_path && !in_tests {
            // A `tag_for(...)` call must sit inside a closure: accept the
            // `|| {` opening up to 8 lines above (a span's attribution
            // is built a few lines into the closure handed to `finish`).
            if line.contains("tag_for(") && !declares_fn_named(line, "tag_for") {
                let lazy = (idx.saturating_sub(8)..=idx).any(|i| stripped[i].contains("|| {"));
                if !lazy {
                    push("span-unguarded");
                }
            }
        }
    }

    hits.extend(lint_diraction_matches(rel, content));
    hits
}

/// Finds every `match` whose top-level arms consume `DirAction::`
/// variants; flags it outright outside [`DIRACTION_ALLOWLIST`], and its
/// top-level `_ =>` wildcards inside.
fn lint_diraction_matches(rel: &str, content: &str) -> Vec<LintHit> {
    let mut hits = Vec::new();
    // The exhaustiveness rule targets production consumers; test helpers
    // may pattern-pick one variant.
    let (text, line_of) = production_text(content);

    let bytes = text.as_bytes();
    let mut search = 0usize;
    while let Some(found) = text[search..].find("match ") {
        let start = search + found;
        search = start + 6;
        // Word boundary on the left.
        if start > 0 {
            let prev = bytes[start - 1] as char;
            if prev.is_alphanumeric() || prev == '_' || prev == '.' {
                continue;
            }
        }
        // Find the match-block body: first `{` at brace depth 0 relative
        // to the scrutinee expression.
        let mut i = start + 6;
        let mut paren = 0i32;
        let body_open = loop {
            if i >= bytes.len() {
                break None;
            }
            match bytes[i] as char {
                '(' | '[' => paren += 1,
                ')' | ']' => paren -= 1,
                '{' if paren == 0 => break Some(i),
                ';' if paren == 0 => break None, // not a match expression
                _ => {}
            }
            i += 1;
        };
        let Some(open) = body_open else { continue };
        // Scan the body, tracking depth; depth 1 = top-level arms.
        let mut depth = 0i32;
        let mut j = open;
        let mut top_level: Vec<(usize, usize)> = Vec::new(); // spans at depth 1
        let mut span_start = open + 1;
        while j < bytes.len() {
            match bytes[j] as char {
                '{' | '(' | '[' => {
                    if depth == 1 && j > span_start {
                        top_level.push((span_start, j));
                    }
                    depth += 1;
                }
                '}' | ')' | ']' => {
                    depth -= 1;
                    if depth == 1 {
                        span_start = j + 1;
                    }
                    if depth == 0 {
                        if j > span_start {
                            top_level.push((span_start, j));
                        }
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let body_end = j.min(bytes.len());
        let top_text: String = top_level
            .iter()
            .map(|&(a, b)| &text[a..b.min(body_end)])
            .collect::<Vec<_>>()
            .join("\u{0}");
        if !top_text.contains("DirAction::") {
            continue;
        }
        // Integration tests (`crates/*/tests/`) replay actions by hand on
        // purpose; only the wildcard rule applies to them.
        if !DIRACTION_ALLOWLIST.contains(&rel) && !rel.contains("/tests/") {
            hits.push(LintHit {
                rule: "diraction-interpreter",
                file: rel.to_string(),
                line: line_of(start),
                text: "`match` over DirAction outside directory.rs/protocol.rs".to_string(),
            });
            continue;
        }
        // A top-level wildcard arm?
        for &(a, b) in &top_level {
            let span = &text[a..b.min(body_end)];
            let mut from = 0usize;
            while let Some(p) = span[from..].find("_ =>") {
                let abs = from + p;
                let left_ok = span[..abs]
                    .chars()
                    .next_back()
                    .is_none_or(|c| !c.is_alphanumeric() && c != '_');
                if left_ok {
                    hits.push(LintHit {
                        rule: "diraction-wildcard",
                        file: rel.to_string(),
                        line: line_of(a + abs),
                        text: "`_ =>` in a match over DirAction".to_string(),
                    });
                    break;
                }
                from = abs + 4;
            }
        }
    }
    hits
}

/// The production part of `content` — the lines above the
/// `#[cfg(test)]` marker, `//` comments stripped, joined — and a map from
/// a byte offset in it to a 1-based line number.
fn production_text(content: &str) -> (String, impl Fn(usize) -> usize) {
    let mut text = String::with_capacity(content.len());
    let mut line_starts = vec![0usize];
    for line in content.lines() {
        if line.contains("#[cfg(test)]") {
            break;
        }
        text.push_str(strip_line_comment(line));
        text.push('\n');
        line_starts.push(text.len());
    }
    let line_of = move |pos: usize| match line_starts.binary_search(&pos) {
        Ok(i) => i + 1,
        Err(i) => i,
    };
    (text, line_of)
}

/// `s` past its leading balanced `{…}` or `(…)` group, if it has one.
fn skip_group(s: &str) -> &str {
    if !s.starts_with(['{', '(']) {
        return s;
    }
    let mut depth = 0;
    for (i, c) in s.char_indices() {
        match c {
            '{' | '(' | '[' => depth += 1,
            '}' | ')' | ']' => {
                depth -= 1;
                if depth == 0 {
                    return &s[i + 1..];
                }
            }
            _ => {}
        }
    }
    ""
}

/// Whether the text after a pattern's path makes the pattern an arm:
/// optional fields, then `=>`, possibly after `|`-joined alternatives.
fn ends_in_arrow(mut rest: &str) -> bool {
    loop {
        rest = skip_group(rest.trim_start()).trim_start();
        match rest.strip_prefix('|') {
            Some(alt) if !alt.starts_with('|') => {
                rest = alt
                    .trim_start()
                    .trim_start_matches(|c: char| c.is_alphanumeric() || c == '_' || c == ':');
            }
            _ => return rest.starts_with("=>"),
        }
    }
}

/// Flags, in the production code of `files` (`(path, content)` pairs;
/// integration tests under `/tests/` are test code and skipped), every
/// arm of a `DelegatedOp` variant that has more than one arm, and every
/// construction of `DexMsg::Delegate` when there is more than one.
fn lint_delegation_confined(files: &[(&str, &str)]) -> Vec<LintHit> {
    let ident_len = |s: &str| {
        s.find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(s.len())
    };
    let mut sites: BTreeMap<String, Vec<(&str, usize)>> = BTreeMap::new();
    for &(rel, content) in files.iter().filter(|(rel, _)| !rel.contains("/tests/")) {
        let (text, line_of) = production_text(content);
        for (pos, path) in text.match_indices("DelegatedOp::") {
            let rest = &text[pos + path.len()..];
            let variant = &rest[..ident_len(rest)];
            if ends_in_arrow(&rest[variant.len()..]) {
                let what = format!("an arm for {path}{variant}");
                sites.entry(what).or_default().push((rel, line_of(pos)));
            }
        }
        for (pos, path) in text.match_indices("DexMsg::Delegate") {
            let rest = &text[pos + path.len()..];
            if ident_len(rest) == 0 && !ends_in_arrow(rest) {
                let what = format!("a construction of {path}");
                sites.entry(what).or_default().push((rel, line_of(pos)));
            }
        }
    }
    let mut hits = Vec::new();
    for (what, at) in sites.into_iter().filter(|(_, at)| at.len() > 1) {
        for &(rel, line) in &at {
            hits.push(LintHit {
                rule: "delegation-confined",
                file: rel.to_string(),
                line,
                text: format!("{} sites of {what}; delegation has one", at.len()),
            });
        }
    }
    hits
}

/// Recursively collects the workspace `.rs` sources under `root/crates`
/// (skipping `target/` and `vendor/`).
fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && name != "vendor" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints every workspace source under `root`. Returns all findings.
///
/// # Errors
///
/// Propagates I/O errors reading the tree.
pub fn run_lint(root: &Path) -> std::io::Result<Vec<LintHit>> {
    let mut files = Vec::new();
    for path in collect_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, std::fs::read_to_string(&path)?));
    }
    let files: Vec<(&str, &str)> = files
        .iter()
        .map(|(r, c)| (r.as_str(), c.as_str()))
        .collect();
    let mut hits: Vec<LintHit> = files.iter().flat_map(|&(r, c)| lint_source(r, c)).collect();
    hits.extend(lint_delegation_confined(&files));
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_nodeset_is_flagged_outside_directory() {
        let bad = "fn f() { let s = NodeSet(0b1011); }\n";
        let hits = lint_source("crates/core/src/handle.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "nodeset-raw");
        assert!(lint_source("crates/core/src/directory.rs", bad).is_empty());
    }

    #[test]
    fn nodeset_paths_and_comments_are_not_flagged() {
        let ok = "// NodeSet(bits) is private\nlet s = NodeSet::empty();\n";
        assert!(lint_source("crates/core/src/handle.rs", ok).is_empty());
    }

    #[test]
    fn pte_mutation_is_flagged_outside_the_allowlist() {
        let bad = "fn f(s: &mut AddressSpace) { s.page_table.set(vpn, Pte::READ_WRITE); }\n";
        // The former protocol engines are plain drivers now: no exemption.
        for rel in [
            "crates/core/src/handle.rs",
            "crates/core/src/thread.rs",
            "crates/core/src/dispatch.rs",
            "crates/core/src/process.rs",
            "crates/core/src/directory/model.rs",
        ] {
            let hits = lint_source(rel, bad);
            assert_eq!(hits.len(), 1, "{rel}: {hits:?}");
            assert_eq!(hits[0].rule, "pte-mutation");
        }
        let model_style = "fn f(&mut self) { self.ptes[0].clear(vpn); }\n";
        assert_eq!(
            lint_source("crates/core/src/directory/model.rs", model_style).len(),
            1
        );
        assert!(lint_source("crates/core/src/protocol.rs", bad).is_empty());
        assert!(lint_source("crates/os/src/mm.rs", bad).is_empty());
    }

    #[test]
    fn diraction_match_is_flagged_outside_its_producer_and_interpreter() {
        let second_interpreter = r#"
fn f(actions: Vec<DirAction>) {
    for action in actions {
        match action {
            DirAction::Grant { to, .. } => grant(to),
            DirAction::Retry { to } => retry(to),
        }
    }
}
"#;
        for rel in ["crates/core/src/thread.rs", "crates/core/src/dispatch.rs"] {
            let hits = lint_source(rel, second_interpreter);
            assert_eq!(hits.len(), 1, "{rel}: {hits:?}");
            assert_eq!(hits[0].rule, "diraction-interpreter");
            assert_eq!(hits[0].line, 4);
        }
        assert!(lint_source("crates/core/src/directory.rs", second_interpreter).is_empty());
        assert!(lint_source("crates/core/src/protocol.rs", second_interpreter).is_empty());
        // Tests may pattern-pick actions freely.
        let test_code = format!("#[cfg(test)]\nmod tests {{{second_interpreter}}}\n");
        assert!(lint_source("crates/core/src/thread.rs", &test_code).is_empty());
    }

    #[test]
    fn diraction_wildcard_is_flagged() {
        let bad = r#"
fn f(a: DirAction) {
    match a {
        DirAction::Grant { to, .. } => handle(to),
        _ => {}
    }
}
"#;
        let hits = lint_source("crates/core/src/protocol.rs", bad);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "diraction-wildcard");
    }

    #[test]
    fn exhaustive_diraction_match_passes_even_with_nested_wildcards() {
        let ok = r#"
fn f(a: DirAction) {
    match a {
        DirAction::Grant { to, .. } => match to {
            Requester::Local { .. } => local(),
            _ => remote(),
        },
        DirAction::Retry { to } => retry(to),
    }
}
"#;
        assert!(lint_source("crates/core/src/protocol.rs", ok).is_empty());
    }

    #[test]
    fn wildcards_in_non_diraction_matches_pass() {
        let ok = "fn f(x: u32) { match x { 0 => a(), _ => b(), } }\n";
        assert!(lint_source("crates/core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn fabric_unwrap_flagged_outside_tests_only() {
        let bad = "fn send() { chan.send(m).unwrap(); }\n";
        assert_eq!(lint_source("crates/net/src/fabric.rs", bad).len(), 1);
        assert!(lint_source("crates/core/src/thread.rs", bad).is_empty());
        let test_code = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        assert!(lint_source("crates/net/src/fabric.rs", test_code).is_empty());
    }

    #[test]
    fn unguarded_span_recording_is_flagged_on_the_hot_path() {
        // An attribution computed before `finish`, eagerly, in the
        // untraced run too.
        let eager = r#"
fn f() {
    let tag = shared.tag_for(node, addr);
    shared.spans.finish(span, ctx, || SpanKind::Fault.on(node, tid, "fault").at(tag, "", addr));
}
"#;
        let hits = lint_source("crates/core/src/thread.rs", eager);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "span-unguarded");

        let inline = "fn f() { let meta = kind.on(n, t, l).at(shared.tag_for(o, p), s, p); }\n";
        let hits = lint_source("crates/core/src/dispatch.rs", inline);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "span-unguarded");
    }

    #[test]
    fn unguarded_tag_lookup_is_flagged_on_the_hot_path() {
        let bad = "fn f() { let tag = shared.tag_for(node, addr); }\n";
        let hits = lint_source("crates/core/src/thread.rs", bad);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "span-unguarded");

        let lazy = "fn f() {\n    spans.finish(span, ctx, || {\n        let tag = shared.tag_for(node, addr);\n    });\n}\n";
        assert!(lint_source("crates/core/src/dispatch.rs", lazy).is_empty());
        // A branch that reads like a guard is not one: it runs untraced.
        let branch = "fn f() {\n    if let Some(id) = span {\n        let tag = shared.tag_for(node, addr);\n    }\n}\n";
        assert_eq!(lint_source("crates/core/src/dispatch.rs", branch).len(), 1);
        // The lookup's own definition and test calls are not call sites.
        let decl = "pub fn tag_for(&self, node: NodeId, addr: VirtAddr) -> Option<String> {\n";
        assert!(lint_source("crates/core/src/process.rs", decl).is_empty());
        let test_code = "#[cfg(test)]\nmod tests {\n fn t() { p.tag_for(n, a); }\n}\n";
        assert!(lint_source("crates/core/src/process.rs", test_code).is_empty());
    }

    #[test]
    fn canonically_guarded_span_sites_pass() {
        let ok = r#"
fn f() {
    let span = shared.spans.start(ctx.now());
    send(span.wire());
    shared.spans.finish(span, ctx, || {
        let tag = shared.tag_for(node, addr);
        SpanKind::Fault
            .on(node, self.tid, label)
            .at(tag, self.site.get(), addr)
    });
}
"#;
        assert!(lint_source("crates/core/src/thread.rs", ok).is_empty());
        // Outside the hot path (offline tooling, the timer itself, tests)
        // the rule is off.
        let eager = "fn f() { let tag = shared.tag_for(node, addr); }\n";
        assert!(lint_source("crates/prof/src/span_codec.rs", eager).is_empty());
        assert!(lint_source("crates/core/src/span.rs", eager).is_empty());
        let test_code = "#[cfg(test)]\nmod tests {\n fn t() { shared.tag_for(n, a); }\n}\n";
        assert!(lint_source("crates/core/src/thread.rs", test_code).is_empty());
    }

    #[test]
    fn sync_primitives_are_flagged_in_sim_and_net() {
        let sync_free = |rel: &str, src: &str| -> Vec<usize> {
            let hits = lint_source(rel, src).into_iter();
            hits.filter(|h| h.rule == "sync-free")
                .map(|h| h.line)
                .collect()
        };
        let bad = "use std::sync::Arc;\n\
                   struct S { m: parking_lot::Mutex<u8>, n: std::sync::atomic::AtomicU64 }\n\
                   unsafe impl Send for S {}\n\
                   static L: RwLock<()> = RwLock::new(());\n\
                   fn f(c: &Condvar) {}\n";
        assert_eq!(sync_free("crates/net/src/pool.rs", bad), [1, 2, 3, 4, 5]);
        assert_eq!(sync_free("crates/sim/src/engine.rs", bad), [1, 2, 3, 4, 5]);
        // The interner's `Mutex` is the one exception, and only in codec.rs.
        let interner =
            "static INTERNED: Mutex<Option<HashMap<String, &'static str>>> = Mutex::new(None);\n";
        assert!(sync_free("crates/sim/src/codec.rs", interner).is_empty());
        assert_eq!(sync_free("crates/sim/src/codec.rs", bad), [1, 2, 3, 4, 5]);
        assert_eq!(sync_free("crates/sim/src/stats.rs", interner), [1]);
        // Test code, comments, strings, look-alike names and other crates pass.
        let test_code = "#[cfg(test)]\nmod tests {\n use std::sync::{Arc, Mutex};\n}\n";
        assert!(sync_free("crates/net/src/fabric.rs", test_code).is_empty());
        let benign =
            "// an Arc<Mutex<_>> no longer\nfn f() { g(\"Mutex\"); let arcs = Searcher; }\n";
        assert!(sync_free("crates/sim/src/engine.rs", benign).is_empty());
        assert!(sync_free("crates/core/src/process.rs", bad).is_empty());
    }

    #[test]
    fn counter_names_are_confined_to_the_naming_module() {
        let incr = "fn f(s: &S) { s.stats.counters.incr(\"faults.read\"); }\n";
        let hits = lint_source("crates/core/src/thread.rs", incr);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "counter-confined");
        let split = "fn f(m: &M) {\n    m.node(n).add(\n        \"protocol.invalidations\",\n        k,\n    );\n}\n";
        assert_eq!(lint_source("crates/core/src/dispatch.rs", split).len(), 1);
        // Typed counters, non-literal names, the naming module, test code
        // and other crates pass.
        let typed = "fn f(s: &S) { s.count(node, Counter::FaultsRead, 1); x.add(1); }\n";
        assert!(lint_source("crates/core/src/thread.rs", typed).is_empty());
        assert!(lint_source("crates/core/src/counters.rs", incr).is_empty());
        let test_code = format!("#[cfg(test)]\nmod tests {{\n{incr}}}\n");
        assert!(lint_source("crates/core/src/thread.rs", &test_code).is_empty());
        assert!(lint_source("crates/net/src/series.rs", incr).is_empty());
        let comment = "// was: counters.incr(\"faults.read\")\nfn f() {}\n";
        assert!(lint_source("crates/core/src/thread.rs", comment).is_empty());
    }

    #[test]
    fn raw_park_is_flagged_outside_the_sync_primitives() {
        let bad = "fn f(ctx: &Ctx) { ctx.park(); }\n";
        let hits = lint_source("crates/apps/src/bfs.rs", bad);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "raw-park");
        let bad_unpark = "fn f(ctx: &Ctx) { ctx.unpark(w); }\n";
        let hits = lint_source("crates/core/src/cluster.rs", bad_unpark);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "raw-park");
        // The blocking primitives themselves may park.
        assert!(lint_source("crates/core/src/sync.rs", bad).is_empty());
        assert!(lint_source("crates/core/src/thread.rs", bad).is_empty());
        assert!(lint_source("crates/core/src/process.rs", bad_unpark).is_empty());
        // The simulator and the fabric own their own blocking layer —
        // the rule scopes to the protocol and application crates.
        assert!(lint_source("crates/sim/src/engine.rs", bad).is_empty());
        assert!(lint_source("crates/net/src/pool.rs", bad).is_empty());
        // Comments and test code do not count.
        let ok = "// token semantics, like ctx.park()\nfn f() {}\n";
        assert!(lint_source("crates/apps/src/bfs.rs", ok).is_empty());
        let test_code = "#[cfg(test)]\nmod tests {\n fn t(ctx: &Ctx) { ctx.park(); }\n}\n";
        assert!(lint_source("crates/apps/src/bfs.rs", test_code).is_empty());
    }

    #[test]
    fn unsafe_is_flagged_outside_the_context_switch() {
        let block = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let imp = "unsafe impl Send for Slot {}\n";
        for (rel, bad) in [
            ("crates/sim/src/engine.rs", block),
            ("crates/core/src/thread.rs", imp),
        ] {
            let hits = lint_source(rel, bad);
            assert_eq!(hits.len(), 1, "{rel}: {hits:?}");
            assert_eq!(hits[0].rule, "unsafe-confined");
        }
        assert!(lint_source("crates/sim/src/context.rs", block).is_empty());
        // There an `unsafe impl Send` is still a claim `sync-free` refuses.
        let rules: Vec<_> = lint_source("crates/sim/src/context.rs", imp)
            .iter()
            .map(|h| h.rule)
            .collect();
        assert_eq!(rules, ["sync-free"]);
        // Comments, strings, longer identifiers and test code do not count.
        let ok = "// no unsafe here\n#![forbid(unsafe_code)]\nfn f() { g(\"unsafe\"); }\n";
        assert!(lint_source("crates/core/src/thread.rs", ok).is_empty());
        let test_code = format!("#[cfg(test)]\nmod tests {{\n {block}}}\n");
        assert!(lint_source("crates/sim/src/engine.rs", &test_code).is_empty());
    }

    #[test]
    fn codec_copies_are_flagged_outside_the_codec() {
        let escaper = "fn json_escape(s: &str) -> String {\n";
        let split = "fn f(l: &str) { let v: Vec<&str> = l.split('\\t').collect(); }\n";
        for bad in [escaper, split] {
            let hits = lint_source("crates/prof/src/timeline.rs", bad);
            assert_eq!(hits.len(), 1, "{bad}: {hits:?}");
            assert_eq!(hits[0].rule, "codec-confined");
        }
        assert!(lint_source("crates/sim/src/codec.rs", escaper).is_empty());
        assert!(lint_source("crates/sim/src/codec.rs", split).is_empty());
        // Callers and test-only splits do not count; a test-only escaper
        // does.
        let ok = "fn f(o: &mut String, s: &str) { escape_field(o, s); }\n";
        assert!(lint_source("crates/prof/src/timeline.rs", ok).is_empty());
        let test_split = format!("#[cfg(test)]\nmod tests {{\n {split}}}\n");
        assert!(lint_source("crates/prof/src/diff.rs", &test_split).is_empty());
        let test_escaper = format!("#[cfg(test)]\nmod tests {{\n {escaper}}}\n");
        assert_eq!(
            lint_source("crates/prof/src/diff.rs", &test_escaper).len(),
            1
        );
    }

    #[test]
    fn delegation_arms_are_confined_to_one_executor() {
        // Two executors, one arm per op in each: a crash fallback and a
        // service loop.
        let fallback = "fn run_delegated_locally(&self, op: &DelegatedOp) -> i64 {
    match op {
        DelegatedOp::Mmap { len, prot } => mmap(*len, *prot),
        DelegatedOp::Syscall { busy } => {
            advance(*busy);
            0
        }
        DelegatedOp::FutexWait { .. } | DelegatedOp::FutexWake { .. } => {
            unreachable!(\"futex ops have dedicated origin paths\")
        }
    }
}
";
        let pair_loop = "fn pair_thread_loop(job: DelegationJob) {
    let reply = match job.op {
        DelegatedOp::FutexWait { addr, expected } => wait(addr, expected),
        DelegatedOp::FutexWake { addr, count } => Some(wake(addr, count)),
        // DelegatedOp::Syscall { busy } => in a comment does not count
        DelegatedOp::Mmap { len, prot } => Some(mmap(len, prot)),
        DelegatedOp::Syscall { busy } => Some(advance(busy)),
    };
}
";
        let parent = [
            ("crates/core/src/thread.rs", fallback),
            ("crates/core/src/thread.rs", pair_loop),
        ];
        let hits = lint_delegation_confined(&parent);
        assert_eq!(hits.len(), 8, "{hits:?}");
        assert!(hits.iter().all(|h| h.rule == "delegation-confined"));
        let lines: Vec<usize> = hits.iter().map(|h| h.line).collect();
        // FutexWait, FutexWake, Mmap, Syscall: fallback then pair loop.
        assert_eq!(lines, [8, 3, 8, 4, 3, 6, 4, 7]);

        // One executor alone passes, and so do a construction, a
        // `matches!`, an `if let`, integration tests and test modules.
        assert!(lint_delegation_confined(&parent[1..]).is_empty());
        let uses = "fn f(op: DelegatedOp) {
    g(DelegatedOp::Mmap { len, prot });
    let wait = matches!(op, DelegatedOp::FutexWait { .. });
    if let DelegatedOp::FutexWait { addr, .. } = op {}
}
#[cfg(test)]
mod tests {
    fn t(op: DelegatedOp) { match op { DelegatedOp::Mmap { .. } => {} _ => {} } }
}
";
        let with_uses = [parent[1], ("crates/core/src/thread.rs", uses)];
        assert!(lint_delegation_confined(&with_uses).is_empty());

        // The request itself is built once; matching on it is free.
        let send = "fn f() { send(DexMsg::Delegate { pid, tid, op, req_id }, span); }\n";
        let recv = "fn g(m: DexMsg) { match m { DexMsg::Delegate { op, .. } => run(op), DexMsg::DelegateReply { .. } => {} } }\n";
        let one = [
            ("crates/core/src/thread.rs", send),
            ("crates/core/src/dispatch.rs", recv),
        ];
        assert!(lint_delegation_confined(&one).is_empty());
        let two = [
            ("crates/core/src/thread.rs", send),
            ("crates/core/src/thread.rs", send),
        ];
        assert_eq!(lint_delegation_confined(&two).len(), 2);
        let in_tests = [parent[1], ("crates/core/tests/faults.rs", fallback)];
        assert!(lint_delegation_confined(&in_tests).is_empty());
    }

    #[test]
    fn the_workspace_is_lint_clean() {
        // The crate's own CI invariant: the real tree has no violations.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let hits = run_lint(root).expect("lint walks the tree");
        assert!(
            hits.is_empty(),
            "workspace lint violations:\n{}",
            hits.iter()
                .map(|h| h.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
