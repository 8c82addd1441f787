//! A lightweight semantic model of one source file: functions with
//! their signatures, bodies, call sites, and hot-path tags.
//!
//! Built on [`crate::lexer`] tokens, this is the shared substrate for
//! the semantic rules: `unit-flow` walks bodies as expressions,
//! `wall-clock-reach` links call sites into a workspace graph
//! ([`crate::graph`]), and `hot-path-alloc` scans the bodies of
//! functions tagged `// lint:hot-path`. It is *not* a parser — it
//! tracks just enough structure (brace depth, `impl` owners, the
//! trailing `#[cfg(test)]` region) to attribute tokens to functions.

use crate::classify::ClassifiedLine;
use crate::lexer::{matching_close, matching_open, tokenize, Tok, TokKind};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// A unit dimension inferred from a canonical identifier suffix
/// (DESIGN.md §8). Unlike the line-level `units` rule, seconds and
/// nanoseconds are *distinct* dimensions here: `t1_ns - t0_s` is
/// exactly the class of bug `unit-flow` exists to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    /// `_s` — seconds.
    Secs,
    /// `_ns` — nanoseconds (`netsim::Time` resolution).
    Nanos,
    /// `_bps` — bits per second.
    Bps,
    /// `_bytes` — sizes.
    Bytes,
}

impl Dim {
    /// Human-readable dimension name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Dim::Secs => "seconds (_s)",
            Dim::Nanos => "nanoseconds (_ns)",
            Dim::Bps => "bits/s (_bps)",
            Dim::Bytes => "bytes (_bytes)",
        }
    }
}

/// The dimension an identifier's canonical suffix declares, if any.
pub fn dim_of_ident(ident: &str) -> Option<Dim> {
    let suffix = ident.rsplit('_').next()?;
    if suffix.len() == ident.len() {
        return None; // no underscore, no suffix
    }
    match suffix {
        "s" => Some(Dim::Secs),
        "ns" => Some(Dim::Nanos),
        "bps" => Some(Dim::Bps),
        "bytes" => Some(Dim::Bytes),
        _ => None,
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called identifier (`push`, `as_secs_f64`, `generate`).
    pub name: String,
    /// Path segments before the name (`obs` in `obs::Timer::named(...)`,
    /// `Time` in `Time::from_secs(...)`); empty for bare calls.
    pub path: Vec<String>,
    /// Whether this is a `.name(...)` method call.
    pub is_method: bool,
    /// For method calls, the identifier immediately left of the dot
    /// (`self` in `self.push(...)`, `heap` in `self.heap.push(...)`).
    pub receiver: Option<String>,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
}

/// One macro invocation (`format!`, `vec!`) inside a function body.
#[derive(Debug, Clone)]
pub struct MacroSite {
    pub name: String,
    pub line: usize,
    pub col: usize,
}

/// One function with everything the semantic rules need.
#[derive(Debug, Clone)]
pub struct FnModel {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type, when any (`Simulator` for its methods).
    pub owner: Option<String>,
    /// Whether the function is `pub` (any visibility restriction counts).
    pub is_pub: bool,
    /// Whether the function sits in the trailing `#[cfg(test)]` region.
    pub is_test: bool,
    /// Whether a `// lint:hot-path` tag covers the signature.
    pub hot_path: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameter names paired with their declared dimensions.
    pub params: Vec<(String, Option<Dim>)>,
    /// Dimension the function's own name-suffix declares for its return
    /// value (`fn avail_bw_bps(...)` returns bits/s).
    pub ret_dim: Option<Dim>,
    /// Token range of the body, *exclusive* of the outer braces. Empty
    /// for trait-method declarations without a body.
    pub body: Range<usize>,
    /// Call sites inside the body, in source order.
    pub calls: Vec<CallSite>,
    /// Macro invocations inside the body, in source order.
    pub macros: Vec<MacroSite>,
}

impl FnModel {
    /// `Owner::name` when the fn has an impl owner, else just `name`.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The model of one file.
#[derive(Debug)]
pub struct FileModel {
    pub path: PathBuf,
    pub toks: Vec<Tok>,
    pub fns: Vec<FnModel>,
}

/// Rust keywords that can precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "mut", "pub", "fn", "impl",
    "use", "mod", "struct", "enum", "trait", "where", "else", "move", "ref", "break", "continue",
    "unsafe", "dyn", "type", "const", "static", "crate", "super",
];

impl FileModel {
    /// Builds the model for one file from its classified lines.
    pub fn build(path: &Path, lines: &[ClassifiedLine]) -> FileModel {
        let toks = tokenize(lines);
        let test_start_line = lines
            .iter()
            .position(|cl| cl.code.contains("#[cfg(test)]"))
            .unwrap_or(usize::MAX);
        let hot_tag: Vec<bool> = lines
            .iter()
            .map(|cl| cl.comment.contains("lint:hot-path"))
            .collect();
        let attr_or_blank: Vec<bool> = lines
            .iter()
            .map(|cl| {
                let code = cl.code.trim();
                code.is_empty() || code.starts_with("#[") || code.starts_with("#!")
            })
            .collect();

        // Pass 1: impl owners by token range.
        let mut impl_ranges: Vec<(Range<usize>, String)> = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            if toks[i].is_ident("impl") {
                if let Some((name, open)) = impl_owner(&toks, i) {
                    if let Some(close) = matching_close(&toks, open) {
                        impl_ranges.push((open..close, name));
                    }
                }
            }
            i += 1;
        }

        // Pass 2: functions.
        let mut fns = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            if !toks[i].is_ident("fn") {
                i += 1;
                continue;
            }
            let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
                i += 1;
                continue;
            };
            let sig_line = toks[i].line;
            let is_pub = i > 0
                && (toks[i - 1].is_ident("pub")
                    || (toks[i - 1].is_punct(")")
                        && matching_open(&toks, i - 1)
                            .and_then(|o| o.checked_sub(1))
                            .map(|p| toks[p].is_ident("pub"))
                            .unwrap_or(false)));
            // `lint:hot-path` covers the signature line or any line in
            // the contiguous attribute/comment run directly above it.
            let mut hot = hot_tag.get(sig_line).copied().unwrap_or(false);
            let mut l = sig_line;
            while l > 0 && attr_or_blank.get(l - 1).copied().unwrap_or(false) {
                l -= 1;
                if hot_tag.get(l).copied().unwrap_or(false) {
                    hot = true;
                }
            }

            // Params: the first `(` after the name (skipping generics).
            let mut j = i + 2;
            let mut angle = 0i32;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "(" if angle <= 0 => break,
                    "{" | ";" => break,
                    _ => {}
                }
                j += 1;
            }
            let (params, after_params) = if j < toks.len() && toks[j].is_punct("(") {
                let close = matching_close(&toks, j).unwrap_or(j);
                (parse_params(&toks, j + 1..close), close + 1)
            } else {
                (Vec::new(), j)
            };

            // Body: the next `{` before a `;` at this nesting.
            let mut k = after_params;
            let mut body = 0..0;
            while k < toks.len() {
                if toks[k].is_punct(";") {
                    break; // trait declaration without a body
                }
                if toks[k].is_punct("{") {
                    let close = matching_close(&toks, k).unwrap_or(k);
                    body = k + 1..close;
                    break;
                }
                k += 1;
            }

            let owner = impl_ranges
                .iter()
                .filter(|(r, _)| r.contains(&i))
                .min_by_key(|(r, _)| r.end - r.start)
                .map(|(_, n)| n.clone());

            let (calls, macros) = scan_body(&toks, body.clone());
            fns.push(FnModel {
                name: name_tok.text.clone(),
                owner,
                is_pub,
                is_test: sig_line >= test_start_line,
                hot_path: hot,
                line: sig_line + 1,
                params,
                ret_dim: dim_of_ident(&name_tok.text),
                body,
                calls,
                macros,
            });
            i += 2;
        }

        FileModel {
            path: path.to_path_buf(),
            toks,
            fns,
        }
    }
}

/// For an `impl` at token `at`, the implemented type name and the index
/// of the opening `{`.
fn impl_owner(toks: &[Tok], at: usize) -> Option<(String, usize)> {
    let mut j = at + 1;
    let mut last_ident: Option<String> = None;
    let mut angle = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            "{" if angle <= 0 => return last_ident.map(|n| (n, j)),
            ";" => return None,
            _ => {
                if t.kind == TokKind::Ident && angle <= 0 && t.text != "for" && t.text != "where" {
                    last_ident = Some(t.text.clone());
                }
            }
        }
        j += 1;
    }
    None
}

/// Parses a parameter list token range into (name, dim) pairs.
fn parse_params(toks: &[Tok], range: Range<usize>) -> Vec<(String, Option<Dim>)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start_of_param = true;
    let mut j = range.start;
    while j < range.end {
        let t = &toks[j];
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            "," if depth == 0 => start_of_param = true,
            _ => {
                if start_of_param && t.kind == TokKind::Ident {
                    if t.text == "mut" || t.text == "self" {
                        // `mut name` keeps looking; a bare `self`
                        // receiver is not a unit-bearing parameter.
                        if t.text == "self" {
                            start_of_param = false;
                        }
                    } else {
                        out.push((t.text.clone(), dim_of_ident(&t.text)));
                        start_of_param = false;
                    }
                } else if t.kind == TokKind::Punct && !matches!(t.text.as_str(), "&" | "'") {
                    // A pattern (e.g. `(a, b): (f64, f64)`) — give up on
                    // this parameter, it has no single name.
                    start_of_param = false;
                }
            }
        }
        j += 1;
    }
    out
}

/// Collects call and macro sites inside a body token range.
fn scan_body(toks: &[Tok], body: Range<usize>) -> (Vec<CallSite>, Vec<MacroSite>) {
    let mut calls = Vec::new();
    let mut macros = Vec::new();
    for j in body.clone() {
        let t = &toks[j];
        if t.kind != TokKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let next = toks.get(j + 1);
        // Macro: `ident ! (` / `ident ! [` / `ident ! {`.
        if next.map(|n| n.is_punct("!")).unwrap_or(false)
            && toks
                .get(j + 2)
                .map(|n| matches!(n.text.as_str(), "(" | "[" | "{"))
                .unwrap_or(false)
        {
            macros.push(MacroSite {
                name: t.text.clone(),
                line: t.line + 1,
                col: t.col + 1,
            });
            continue;
        }
        if !next.map(|n| n.is_punct("(")).unwrap_or(false) {
            continue;
        }
        // Not a definition (`fn name(`).
        if j >= 1 && toks[j - 1].is_ident("fn") {
            continue;
        }
        let is_method = j >= 1 && toks[j - 1].is_punct(".");
        let receiver = if is_method && j >= 2 && toks[j - 2].kind == TokKind::Ident {
            Some(toks[j - 2].text.clone())
        } else {
            None
        };
        // Collect `::`-path segments going left.
        let mut path = Vec::new();
        let mut p = j;
        while p >= 2 && toks[p - 1].is_punct("::") && toks[p - 2].kind == TokKind::Ident {
            path.push(toks[p - 2].text.clone());
            p -= 2;
        }
        path.reverse();
        calls.push(CallSite {
            name: t.text.clone(),
            path,
            is_method,
            receiver,
            line: t.line + 1,
            col: t.col + 1,
        });
    }
    (calls, macros)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;

    fn model(src: &str) -> FileModel {
        FileModel::build(Path::new("crates/netsim/src/m.rs"), &classify(src))
    }

    #[test]
    fn fn_signatures_and_owners_extract() {
        let m = model(
            "impl Simulator {\n    pub fn step(&mut self) -> bool { true }\n}\n\
             fn helper(rtt_s: f64, n: u32) -> f64 { rtt_s }\n",
        );
        assert_eq!(m.fns.len(), 2);
        let step = &m.fns[0];
        assert_eq!(step.name, "step");
        assert_eq!(step.owner.as_deref(), Some("Simulator"));
        assert!(step.is_pub);
        assert_eq!(step.qualified(), "Simulator::step");
        let helper = &m.fns[1];
        assert!(!helper.is_pub);
        assert_eq!(helper.owner, None);
        assert_eq!(
            helper.params,
            vec![
                ("rtt_s".to_string(), Some(Dim::Secs)),
                ("n".to_string(), None)
            ]
        );
    }

    #[test]
    fn ret_dim_comes_from_the_fn_name_suffix() {
        let m = model("fn avail_bw_bps() -> f64 { 0.0 }\nfn plain() -> f64 { 0.0 }\n");
        assert_eq!(m.fns[0].ret_dim, Some(Dim::Bps));
        assert_eq!(m.fns[1].ret_dim, None);
    }

    #[test]
    fn calls_record_path_method_and_receiver() {
        let m = model(
            "fn f(&mut self) {\n    obs::add(\"x\", 1);\n    self.heap.push(1);\n    \
             self.push(2);\n    Time::from_secs(3);\n    helper();\n}\n",
        );
        let calls = &m.fns[0].calls;
        let named: Vec<(&str, bool)> = calls
            .iter()
            .map(|c| (c.name.as_str(), c.is_method))
            .collect();
        assert_eq!(
            named,
            vec![
                ("add", false),
                ("push", true),
                ("push", true),
                ("from_secs", false),
                ("helper", false)
            ]
        );
        assert_eq!(calls[0].path, vec!["obs"]);
        assert_eq!(calls[1].receiver.as_deref(), Some("heap"));
        assert_eq!(calls[2].receiver.as_deref(), Some("self"));
        assert_eq!(calls[3].path, vec!["Time"]);
    }

    #[test]
    fn macros_are_collected_not_called() {
        let m = model("fn f() { format!(\"x\"); vec![1]; assert!(true); }\n");
        let names: Vec<&str> = m.fns[0].macros.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["format", "vec", "assert"]);
        assert!(m.fns[0].calls.is_empty());
    }

    #[test]
    fn hot_path_tag_covers_signature_and_attribute_run() {
        let m = model(
            "/// Docs.\n// lint:hot-path\n#[inline]\npub fn hot() {}\n\
             pub fn cold() {}\n\
             pub fn inline_tagged() {} // lint:hot-path\n",
        );
        assert!(m.fns[0].hot_path, "tag above attributes covers the fn");
        assert!(!m.fns[1].hot_path);
        assert!(m.fns[2].hot_path, "same-line tag covers the fn");
    }

    #[test]
    fn trailing_test_region_marks_fns_as_test() {
        let m = model("fn real() {}\n#[cfg(test)]\nmod tests {\n    fn fake() {}\n}\n");
        assert!(!m.fns[0].is_test);
        assert!(m.fns[1].is_test);
    }

    #[test]
    fn bodyless_trait_methods_have_empty_bodies() {
        let m = model("trait T {\n    fn must(&self) -> f64;\n}\n");
        assert_eq!(m.fns[0].body, 0..0);
    }
}
