//! The rule registry and the built-in rules.
//!
//! The original rules are token/line-level checks over
//! [`ClassifiedLine`]s — cheap, dependency-free, and aimed at the
//! invariants DESIGN.md records in prose: determinism, panic-free
//! degradation, unit discipline, float comparisons, and rustdoc
//! citation escaping. The semantic rules (`unit-flow`,
//! `wall-clock-reach`, `hot-path-alloc`) live in their own modules on
//! top of [`crate::model`] and register here alongside them. Each rule
//! documents exactly what it matches so a `lint:allow` reviewer can
//! judge a suppression.

use crate::classify::ClassifiedLine;
use crate::diag::Diagnostic;
use std::path::Path;

/// A registered rule.
pub struct Rule {
    /// Stable name used in diagnostics and `lint:allow(...)`.
    pub name: &'static str,
    /// One-line description for `xtask rules`.
    pub summary: &'static str,
    /// Whether the rule applies to a given workspace-relative path.
    pub applies: fn(&Path) -> bool,
    /// The check itself. For workspace rules this is the *single-file*
    /// fallback used when the CLI is pointed at explicit paths.
    pub check: fn(&Path, &[ClassifiedLine]) -> Vec<Diagnostic>,
    /// Workspace rules need every file at once (the call graph); in
    /// `check_workspace` they run as one cross-file pass instead of
    /// per file.
    pub workspace: bool,
}

/// All rules, in reporting order.
pub fn registry() -> Vec<Rule> {
    vec![
        Rule {
            name: "nondeterminism",
            summary: "forbid wall clocks, entropy-seeded RNGs, and hash-order iteration \
                      in simulation crates",
            applies: in_simulation_crates,
            check: check_nondeterminism,
            workspace: false,
        },
        Rule {
            name: "units",
            summary: "unit-suffixed identifiers in library code must use the canonical \
                      suffixes (_bps, _s, _ns, _bytes) and not mix units across +/-",
            applies: in_library_sources,
            check: check_units,
            workspace: false,
        },
        Rule {
            name: "unit-flow",
            summary: "unit-dimension dataflow: lets, assignments, returns, and additive \
                      arithmetic must not mix _s/_ns/_bps/_bytes dimensions",
            applies: in_library_sources,
            check: crate::unit_flow::check,
            workspace: false,
        },
        Rule {
            name: "no-unwrap",
            summary: "no .unwrap()/.expect() in non-test simulation-crate code; degrade \
                      via Option/Result instead of panicking on faulty measurements",
            applies: in_simulation_crates,
            check: check_no_unwrap,
            workspace: false,
        },
        Rule {
            name: "wall-clock-reach",
            summary: "pub simulation fns must not reach wall clocks, OS entropy, threads, \
                      or env reads through the call graph; obs is the one gateway",
            applies: in_simulation_crates,
            check: check_wall_clock_reach_single,
            workspace: true,
        },
        Rule {
            name: "hot-path-alloc",
            summary: "no heap allocation (format!/vec!, Vec::new, .collect, container \
                      growth) inside fns tagged // lint:hot-path",
            applies: all_rust_sources,
            check: crate::hot_path::check,
            workspace: false,
        },
        Rule {
            name: "float-eq",
            summary: "no ==/!= against float literals; compare with a tolerance",
            applies: all_rust_sources,
            check: check_float_eq,
            workspace: false,
        },
        Rule {
            name: "rustdoc-citation",
            summary: "citation brackets like [26] in doc comments must be escaped \\[26\\]",
            applies: all_rust_sources,
            check: check_rustdoc_citation,
            workspace: false,
        },
    ]
}

/// Single-file fallback for `wall-clock-reach`: direct sinks and
/// intra-file chains only. When the file lies outside the simulation
/// crates (a fixture named on the CLI), every pub fn is a root.
fn check_wall_clock_reach_single(path: &Path, lines: &[ClassifiedLine]) -> Vec<Diagnostic> {
    let fm = crate::model::FileModel::build(path, lines);
    let force = !crate::graph::in_simulation_src(path);
    crate::graph::check(std::slice::from_ref(&fm), force)
}

fn all_rust_sources(_: &Path) -> bool {
    true
}

/// Library code: `crates/*/src/**` excluding `src/bin/` and the figure
/// registry `crates/bench/src/figures/`. Figure generators, tests,
/// benches, and examples speak the paper's axis units (ms, Mbps, KB
/// grids) by design; the canonical-suffix contract binds the code that
/// computes, not the code that presents.
fn in_library_sources(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    p.contains("/src/")
        && !p.contains("/src/bin/")
        && !p.starts_with("crates/bench/src/figures/")
        && p.starts_with("crates/")
}

/// The crates whose behavior feeds simulation results. A wall clock or
/// hash-order walk anywhere in them can change a dataset between runs.
fn in_simulation_crates(path: &Path) -> bool {
    let p = path.to_string_lossy();
    ["netsim", "tcp", "probes", "testbed", "core"]
        .iter()
        .any(|c| {
            p.contains(&format!("crates/{c}/src/")) || p.contains(&format!("crates/{c}\\src\\"))
        })
}

/// Iterator over `(line_idx, col, ident)` for every identifier-shaped
/// token in the code channel.
fn idents(lines: &[ClassifiedLine]) -> impl Iterator<Item = (usize, usize, &str)> {
    lines.iter().enumerate().flat_map(|(li, cl)| {
        IdentIter {
            line: &cl.code,
            pos: 0,
        }
        .map(move |(col, id)| (li, col, id))
    })
}

struct IdentIter<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Iterator for IdentIter<'a> {
    type Item = (usize, &'a str);
    fn next(&mut self) -> Option<(usize, &'a str)> {
        let bytes = self.line.as_bytes();
        while self.pos < bytes.len() {
            let b = bytes[self.pos];
            if b.is_ascii_alphabetic() || b == b'_' {
                let start = self.pos;
                while self.pos < bytes.len()
                    && (bytes[self.pos].is_ascii_alphanumeric() || bytes[self.pos] == b'_')
                {
                    self.pos += 1;
                }
                return Some((start, &self.line[start..self.pos]));
            }
            // Skip numbers wholesale so `1e6` doesn't yield ident `e6`.
            if b.is_ascii_digit() {
                while self.pos < bytes.len()
                    && (bytes[self.pos].is_ascii_alphanumeric()
                        || bytes[self.pos] == b'.'
                        || bytes[self.pos] == b'_')
                {
                    self.pos += 1;
                }
                continue;
            }
            self.pos += 1;
        }
        None
    }
}

// --- nondeterminism -----------------------------------------------------

/// Identifiers that introduce wall-clock time, OS entropy, or
/// hash-order iteration into simulation code.
const FORBIDDEN_IDENTS: &[(&str, &str)] = &[
    (
        "Instant",
        "wall-clock time; simulations must use netsim::Time",
    ),
    (
        "SystemTime",
        "wall-clock time; simulations must use netsim::Time",
    ),
    (
        "thread_rng",
        "entropy-seeded RNG; use StdRng::seed_from_u64",
    ),
    (
        "from_entropy",
        "entropy-seeded RNG; use StdRng::seed_from_u64",
    ),
    (
        "from_os_rng",
        "entropy-seeded RNG; use StdRng::seed_from_u64",
    ),
    ("random_os", "entropy-seeded RNG; use StdRng::seed_from_u64"),
    (
        "HashMap",
        "iteration order varies between runs; use BTreeMap or sort before iterating",
    ),
    (
        "HashSet",
        "iteration order varies between runs; use BTreeSet or sort before iterating",
    ),
];

fn check_nondeterminism(file: &Path, lines: &[ClassifiedLine]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (li, col, id) in idents(lines) {
        if let Some((_, why)) = FORBIDDEN_IDENTS.iter().find(|(w, _)| *w == id) {
            out.push(Diagnostic::error(
                file.to_path_buf(),
                li + 1,
                col + 1,
                "nondeterminism",
                format!("forbidden identifier `{id}`: {why}"),
            ));
        }
    }
    out
}

// --- no-unwrap ----------------------------------------------------------

/// Flags `unwrap(` / `expect(` calls in simulation-crate code outside
/// the trailing `#[cfg(test)]` module. A panic in the measurement
/// pipeline turns one faulty epoch into a lost dataset; degraded
/// measurements must flow out as `Option`/`Result` (DESIGN.md §10).
/// Longer idents (`unwrap_or`, `unwrap_or_default`, `expect_err`) are
/// the approved alternatives and do not match.
fn check_no_unwrap(file: &Path, lines: &[ClassifiedLine]) -> Vec<Diagnostic> {
    // Test modules live at the bottom of each file in this codebase;
    // everything from the first `#[cfg(test)]` attribute on is test code,
    // where panicking on broken expectations is the point.
    let test_start = lines
        .iter()
        .position(|cl| cl.code.contains("#[cfg(test)]"))
        .unwrap_or(lines.len());
    let mut out = Vec::new();
    for (li, col, id) in idents(&lines[..test_start]) {
        if id != "unwrap" && id != "expect" {
            continue;
        }
        let rest = lines[li].code[col + id.len()..].trim_start();
        if !rest.starts_with('(') {
            continue; // e.g. a path like `Option::unwrap` in a turbofish-free ref
        }
        out.push(Diagnostic::error(
            file.to_path_buf(),
            li + 1,
            col + 1,
            "no-unwrap",
            format!(
                "`.{id}()` in simulation code; propagate the absence \
                 (Option/Result, unwrap_or*) so faulty measurements degrade \
                 instead of panicking"
            ),
        ));
    }
    out
}

// --- units --------------------------------------------------------------

/// Canonical unit suffix classes: same-class identifiers may be added or
/// subtracted, cross-class may not.
fn unit_class(ident: &str) -> Option<&'static str> {
    let suffix = ident.rsplit('_').next()?;
    if suffix.len() == ident.len() {
        return None; // no underscore, no suffix
    }
    match suffix {
        "bps" => Some("bandwidth"),
        "s" | "ns" => Some("time"),
        "bytes" => Some("size"),
        _ => None,
    }
}

/// Suffixes that look like units but are not the canonical ones.
fn noncanonical_unit(ident: &str) -> Option<&'static str> {
    let suffix = ident.rsplit('_').next()?;
    if suffix.len() == ident.len() {
        return None;
    }
    match suffix {
        "kbps" | "mbps" | "gbps" => {
            Some("bandwidth is always bits/s; use a `_bps` identifier and scale the value")
        }
        "ms" | "us" | "usec" | "msec" => {
            Some("time is seconds (`_s`) or netsim::Time nanoseconds (`_ns`)")
        }
        "kb" | "mb" | "gb" | "kib" | "mib" => Some("sizes are bytes; use `_bytes`"),
        _ => None,
    }
}

fn check_units(file: &Path, lines: &[ClassifiedLine]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (li, cl) in lines.iter().enumerate() {
        let mut toks: Vec<(usize, &str)> = Vec::new();
        let it = IdentIter {
            line: &cl.code,
            pos: 0,
        };
        for (col, id) in it {
            if let Some(reason) = noncanonical_unit(id) {
                out.push(Diagnostic::error(
                    file.to_path_buf(),
                    li + 1,
                    col + 1,
                    "units",
                    format!("non-canonical unit suffix on `{id}`: {reason}"),
                ));
            }
            toks.push((col, id));
        }
        // Mixed-unit addition/subtraction: `a_bps + b_s` style. Only the
        // immediate ident-op-ident pattern is checked; anything subtler
        // needs a human (or an allowlist with a reason).
        for pair in toks.windows(2) {
            let (c1, id1) = pair[0];
            let (c2, id2) = pair[1];
            let (Some(u1), Some(u2)) = (unit_class(id1), unit_class(id2)) else {
                continue;
            };
            if u1 == u2 {
                continue;
            }
            let between = &cl.code[c1 + id1.len()..c2];
            let trimmed = between.trim();
            if trimmed == "+" || trimmed == "-" || trimmed == "+=" || trimmed == "-=" {
                out.push(Diagnostic::error(
                    file.to_path_buf(),
                    li + 1,
                    c1 + 1,
                    "units",
                    format!(
                        "`{id1}` ({u1}) and `{id2}` ({u2}) mixed across `{trimmed}`; \
                         additive arithmetic requires matching units"
                    ),
                ));
            }
        }
    }
    out
}

// --- float-eq -----------------------------------------------------------

fn is_float_literal(tok: &str) -> bool {
    let t = tok
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches('_');
    if t.is_empty() {
        return false;
    }
    let mut has_digit = false;
    let mut has_marker = false;
    for (i, c) in t.char_indices() {
        match c {
            '0'..='9' => has_digit = true,
            '.' => has_marker = true,
            'e' | 'E' if i > 0 => has_marker = true,
            '+' | '-' | '_' => {}
            _ => return false,
        }
    }
    has_digit && (has_marker || tok.ends_with("f64") || tok.ends_with("f32"))
}

/// The token (non-space run) immediately left of byte `pos`.
fn token_left(line: &str, pos: usize) -> &str {
    let left = line[..pos].trim_end();
    let start = left
        .rfind(|c: char| {
            !(c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' || c == '+')
        })
        .map(|i| i + 1)
        .unwrap_or(0);
    &left[start..]
}

/// The token immediately right of byte `pos`.
fn token_right(line: &str, pos: usize) -> &str {
    let right = line[pos..].trim_start();
    let end = right
        .find(|c: char| {
            !(c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' || c == '+')
        })
        .unwrap_or(right.len());
    &right[..end]
}

fn check_float_eq(file: &Path, lines: &[ClassifiedLine]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (li, cl) in lines.iter().enumerate() {
        let code = &cl.code;
        let bytes = code.as_bytes();
        let mut i = 0;
        while i + 1 < bytes.len() {
            let two = &code[i..i + 2];
            if two != "==" && two != "!=" {
                i += 1;
                continue;
            }
            // Skip `===`? Not Rust. Skip `<=`, `>=`: the second byte of
            // those is not at an `==` start. Skip `!=`/`==` inside
            // longer operators is impossible in Rust.
            let lhs = token_left(code, i);
            let rhs = token_right(code, i + 2);
            if is_float_literal(lhs) || is_float_literal(rhs) {
                let lit = if is_float_literal(lhs) { lhs } else { rhs };
                out.push(Diagnostic::error(
                    file.to_path_buf(),
                    li + 1,
                    i + 1,
                    "float-eq",
                    format!(
                        "`{two}` against float literal `{lit}`; compare with a tolerance \
                         or justify exactness"
                    ),
                ));
            }
            i += 2;
        }
    }
    out
}

// --- rustdoc-citation ---------------------------------------------------

fn check_rustdoc_citation(file: &Path, lines: &[ClassifiedLine]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (li, cl) in lines.iter().enumerate() {
        let doc = &cl.doc;
        if doc.trim().is_empty() {
            continue;
        }
        if doc.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        // Blank out inline code spans: `[26]` inside backticks is fine.
        let mut cleaned: Vec<u8> = doc.bytes().collect();
        let mut open: Option<usize> = None;
        for j in 0..cleaned.len() {
            if cleaned[j] == b'`' {
                match open {
                    None => open = Some(j),
                    Some(s) => {
                        for c in &mut cleaned[s..=j] {
                            *c = b' ';
                        }
                        open = None;
                    }
                }
            }
        }
        let cleaned = String::from_utf8_lossy(&cleaned).into_owned();
        let bytes = cleaned.as_bytes();
        for (j, &b) in bytes.iter().enumerate() {
            if b != b'[' {
                continue;
            }
            if j > 0 && bytes[j - 1] == b'\\' {
                continue; // escaped
            }
            let rest = &bytes[j + 1..];
            let digits = rest.iter().take_while(|c| c.is_ascii_digit()).count();
            if digits == 0 || rest.get(digits) != Some(&b']') {
                continue;
            }
            // `[26](...)` is a real markdown link; leave it alone.
            if rest.get(digits + 1) == Some(&b'(') {
                continue;
            }
            out.push(Diagnostic::error(
                file.to_path_buf(),
                li + 1,
                j + 1,
                "rustdoc-citation",
                format!(
                    "unescaped citation `{}` in doc comment; rustdoc reads it as an \
                     intra-doc link — write `\\{}`",
                    &cleaned[j..j + digits + 2],
                    &cleaned[j..j + digits + 2],
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;

    fn run(rule_name: &str, src: &str) -> Vec<Diagnostic> {
        let rules = registry();
        let rule = rules.iter().find(|r| r.name == rule_name).unwrap();
        let lines = classify(src);
        (rule.check)(Path::new("crates/netsim/src/test.rs"), &lines)
    }

    #[test]
    fn nondeterminism_catches_each_forbidden_ident() {
        for (ident, _) in FORBIDDEN_IDENTS {
            let src = format!("let x = {ident}::anything();");
            let out = run("nondeterminism", &src);
            assert_eq!(out.len(), 1, "{ident}");
            assert!(out[0].message.contains(ident));
        }
    }

    #[test]
    fn nondeterminism_ignores_strings_comments_and_substrings() {
        assert!(run("nondeterminism", r#"let s = "Instant::now";"#).is_empty());
        assert!(run("nondeterminism", "// Instant::now in prose").is_empty());
        assert!(run("nondeterminism", "let my_instant_like = 1;").is_empty());
        assert!(run("nondeterminism", "let instantaneous = 1;").is_empty());
    }

    #[test]
    fn nondeterminism_scope_is_simulation_crates() {
        let rules = registry();
        let rule = rules.iter().find(|r| r.name == "nondeterminism").unwrap();
        assert!((rule.applies)(Path::new("crates/netsim/src/engine.rs")));
        assert!((rule.applies)(Path::new("crates/testbed/src/runner.rs")));
        assert!(!(rule.applies)(Path::new("crates/stats/src/cdf.rs")));
        assert!(!(rule.applies)(Path::new("crates/xtask/src/rules.rs")));
        assert!(!(rule.applies)(Path::new(
            "crates/netsim/tests/invariants.rs"
        )));
    }

    #[test]
    fn no_unwrap_flags_unwrap_and_expect_calls() {
        let out = run("no-unwrap", "let x = maybe.unwrap();");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("unwrap"));
        assert_eq!(
            run("no-unwrap", r#"let x = maybe.expect("set above");"#).len(),
            1
        );
    }

    #[test]
    fn no_unwrap_ignores_the_approved_alternatives() {
        assert!(run("no-unwrap", "let x = maybe.unwrap_or(0.0);").is_empty());
        assert!(run("no-unwrap", "let x = maybe.unwrap_or_default();").is_empty());
        assert!(run("no-unwrap", "let x = maybe.unwrap_or_else(|| 1);").is_empty());
        assert!(run("no-unwrap", "let e = res.expect_err(\"bad\");").is_empty());
        assert!(run("no-unwrap", "// unwrap() discussed in prose").is_empty());
        assert!(run("no-unwrap", r#"let s = "unwrap()";"#).is_empty());
    }

    #[test]
    fn no_unwrap_exempts_trailing_test_modules() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   #[cfg(test)]\n\
                   mod tests {\n    fn g() { None::<u8>.unwrap(); }\n}\n";
        let out = run("no-unwrap", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn no_unwrap_scope_is_simulation_crates() {
        let rules = registry();
        let rule = rules.iter().find(|r| r.name == "no-unwrap").unwrap();
        assert!((rule.applies)(Path::new("crates/testbed/src/runner.rs")));
        assert!((rule.applies)(Path::new("crates/core/src/fb.rs")));
        assert!(!(rule.applies)(Path::new("crates/bench/src/analysis.rs")));
        assert!(!(rule.applies)(Path::new("crates/stats/src/cdf.rs")));
        assert!(!(rule.applies)(Path::new(
            "crates/testbed/tests/zero_fault_pin.rs"
        )));
    }

    #[test]
    fn units_scope_is_library_code() {
        let rules = registry();
        let rule = rules.iter().find(|r| r.name == "units").unwrap();
        assert!((rule.applies)(Path::new("crates/netsim/src/engine.rs")));
        assert!((rule.applies)(Path::new("crates/stats/src/corr.rs")));
        assert!(!(rule.applies)(Path::new(
            "crates/bench/src/bin/abl_nws.rs"
        )));
        assert!(!(rule.applies)(Path::new(
            "crates/bench/src/figures/abl_nws.rs"
        )));
        assert!((rule.applies)(Path::new("crates/bench/src/analysis.rs")));
        assert!(!(rule.applies)(Path::new(
            "crates/tcp/tests/tcp_properties.rs"
        )));
        assert!(!(rule.applies)(Path::new("examples/parallel_download.rs")));
        assert!(!(rule.applies)(Path::new("tests/properties.rs")));
    }

    #[test]
    fn units_flags_noncanonical_suffixes() {
        let out = run("units", "let rtt_ms = 5.0;");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("rtt_ms"));
        assert!(run("units", "let cap_mbps = 10.0;").len() == 1);
        assert!(run("units", "let buf_kb = 20;").len() == 1);
        assert!(run("units", "let rtt_s = 0.05; let cap_bps = 1e6;").is_empty());
    }

    #[test]
    fn units_flags_cross_class_additive_arithmetic() {
        let out = run("units", "let x = cap_bps + rtt_s;");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("bandwidth"));
        assert!(out[0].message.contains("time"));
        // Same class is fine; multiplicative mixing is fine.
        assert!(run("units", "let x = rtt_s + delay_s;").is_empty());
        assert!(run("units", "let x = cap_bps * rtt_s;").is_empty());
        assert!(run("units", "let bdp_bytes = cap_bps * rtt_s / 8.0;").is_empty());
    }

    #[test]
    fn units_ignores_unsuffixed_identifiers() {
        assert!(run("units", "let shifts = a + b; let stats = x - y;").is_empty());
    }

    #[test]
    fn float_eq_flags_literal_comparisons() {
        assert_eq!(run("float-eq", "if x == 0.0 { }").len(), 1);
        assert_eq!(run("float-eq", "if 1e-9 != tolerance { }").len(), 1);
        assert_eq!(run("float-eq", "if x == 1.5e3 { }").len(), 1);
        assert_eq!(run("float-eq", "if x == 3f64 { }").len(), 1);
    }

    #[test]
    fn float_eq_ignores_integers_and_ranges() {
        assert!(run("float-eq", "if x == 0 { }").is_empty());
        assert!(run("float-eq", "if n == count { }").is_empty());
        assert!(run("float-eq", "for i in 0..10 { }").is_empty());
        assert!(run("float-eq", "if a <= 1.0 { }").is_empty());
        assert!(run("float-eq", "assert_eq!(x, 0.5);").is_empty());
    }

    #[test]
    fn citation_flags_unescaped_brackets_only() {
        let out = run("rustdoc-citation", "/// As shown in [26], loss matters.");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("[26]"));
        assert!(run("rustdoc-citation", r"/// As shown in \[26\], loss matters.").is_empty());
        assert!(run("rustdoc-citation", "/// A [real](https://x) link [26](y).").is_empty());
        assert!(run("rustdoc-citation", "/// Inline `[26]` code span.").is_empty());
        assert!(run("rustdoc-citation", "// plain comment [26]").is_empty());
        assert!(run("rustdoc-citation", "let x = arr[26];").is_empty());
    }

    #[test]
    fn citation_skips_fenced_code_blocks() {
        let src = "/// Example:\n/// ```\n/// let x = arr[26];\n/// ```\n/// But [26] here fires.";
        let out = run("rustdoc-citation", src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 5);
    }
}
