//! The workspace call graph and the `wall-clock-reach` analysis.
//!
//! `nondeterminism` (a line rule) sees `Instant` *mentioned* in a
//! simulation crate; it cannot see `Instant` *reached* through a chain
//! of workspace helpers. This module builds a conservative call graph
//! over [`crate::model::FileModel`]s — nodes are non-test functions,
//! edges are call sites resolved by name — and walks it from every
//! `pub` simulation-crate function toward nondeterminism sinks: wall
//! clocks, OS entropy, thread spawning, and environment reads.
//!
//! The `obs` crate is the one sanctioned gateway (DESIGN.md §11): it is
//! observation-only and may own `Instant`, so edges into it — whether
//! written `obs::Timer::named(...)` or resolved to a function defined under
//! `crates/obs/` — are never traversed. Reachability *stops at the obs
//! boundary*.
//!
//! Name resolution is deliberately conservative: a call edge exists
//! only when the callee name is defined exactly once in the scanned
//! files (and, for method calls, is not a ubiquitous std name). A
//! missed edge means a missed finding, never a false one — the rule is
//! a ratchet, not a proof.

use crate::diag::Diagnostic;
use crate::model::FileModel;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;

/// Sinks that make a function nondeterministic if reached. Each entry
/// is (identifier, required `::`-path prefix, description, covered by
/// the `nondeterminism` line rule).
struct Sink {
    ident: &'static str,
    /// When `Some(p)`, the call/token must appear as `p::ident`.
    prefix: Option<&'static str>,
    what: &'static str,
    /// Sinks the `nondeterminism` line rule already flags directly are
    /// only reported here when reached *indirectly* (chain length >= 2),
    /// so one bug never produces two diagnostics.
    line_rule_covers: bool,
}

const SINKS: &[Sink] = &[
    Sink {
        ident: "Instant",
        prefix: None,
        what: "wall-clock time (`Instant`)",
        line_rule_covers: true,
    },
    Sink {
        ident: "SystemTime",
        prefix: None,
        what: "wall-clock time (`SystemTime`)",
        line_rule_covers: true,
    },
    Sink {
        ident: "thread_rng",
        prefix: None,
        what: "entropy-seeded RNG (`thread_rng`)",
        line_rule_covers: true,
    },
    Sink {
        ident: "from_entropy",
        prefix: None,
        what: "entropy-seeded RNG (`from_entropy`)",
        line_rule_covers: true,
    },
    Sink {
        ident: "from_os_rng",
        prefix: None,
        what: "entropy-seeded RNG (`from_os_rng`)",
        line_rule_covers: true,
    },
    Sink {
        ident: "spawn",
        prefix: Some("thread"),
        what: "thread spawning (`thread::spawn`)",
        line_rule_covers: false,
    },
    Sink {
        ident: "var",
        prefix: Some("env"),
        what: "environment read (`env::var`)",
        line_rule_covers: false,
    },
    Sink {
        ident: "var_os",
        prefix: Some("env"),
        what: "environment read (`env::var_os`)",
        line_rule_covers: false,
    },
    Sink {
        ident: "vars",
        prefix: Some("env"),
        what: "environment read (`env::vars`)",
        line_rule_covers: false,
    },
];

/// Method names too ubiquitous to resolve by bare name: an edge through
/// one of these would almost always point at the wrong definition.
const METHOD_RESOLVE_DENYLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "fmt",
    "next",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "get",
    "iter",
    "into_iter",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "min",
    "max",
    "abs",
    "cmp",
    "eq",
    "to_string",
    "collect",
    "from",
    "into",
    "as_ref",
    "as_mut",
    "build",
    "run",
    "step",
    "reset",
    "update",
];

/// The simulation crates whose public functions are reachability roots.
pub fn in_simulation_src(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    ["netsim", "tcp", "probes", "testbed", "core"]
        .iter()
        .any(|c| p.contains(&format!("crates/{c}/src/")))
}

/// Whether a path lies in the sanctioned telemetry gateway crate.
pub fn in_obs_crate(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    p.contains("crates/obs/")
}

/// Runs the `wall-clock-reach` analysis over a set of file models.
///
/// With `treat_all_as_sim`, every non-test `pub fn` is a root — used
/// when the CLI is pointed at an explicit file (all rules' opinions are
/// wanted regardless of where the file lives, e.g. fixtures).
pub fn check(files: &[FileModel], treat_all_as_sim: bool) -> Vec<Diagnostic> {
    // Node ids: (file index, fn index), in deterministic scan order.
    let mut name_to_nodes: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, fm) in files.iter().enumerate() {
        for (ni, f) in fm.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            name_to_nodes.entry(&f.name).or_default().push((fi, ni));
        }
    }

    // Direct sink containment per node (never in obs: it is sanctioned).
    let sink_of = |fi: usize, ni: usize| -> Option<&'static Sink> {
        let fm = &files[fi];
        if in_obs_crate(&fm.path) {
            return None;
        }
        let f = &fm.fns[ni];
        let body = &fm.toks[f.body.clone()];
        for (j, t) in body.iter().enumerate() {
            for sink in SINKS {
                if t.text != sink.ident {
                    continue;
                }
                match sink.prefix {
                    None => return Some(sink),
                    Some(p) => {
                        if j >= 2 && body[j - 1].is_punct("::") && body[j - 2].is_ident(p) {
                            return Some(sink);
                        }
                    }
                }
            }
        }
        None
    };

    // Edges, resolved by unique name. Calls into obs (by path or by
    // resolved definition) are dropped: the gateway is opaque.
    let mut edges: BTreeMap<(usize, usize), Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, fm) in files.iter().enumerate() {
        for (ni, f) in fm.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let mut out = Vec::new();
            for call in &f.calls {
                if call.path.iter().any(|seg| seg == "obs") {
                    continue; // explicit gateway call
                }
                if call.is_method && METHOD_RESOLVE_DENYLIST.contains(&call.name.as_str()) {
                    continue;
                }
                let Some(cands) = name_to_nodes.get(call.name.as_str()) else {
                    continue;
                };
                if cands.len() != 1 {
                    continue; // ambiguous — refuse to guess
                }
                let (tfi, tni) = cands[0];
                if in_obs_crate(&files[tfi].path) {
                    continue; // resolved into the gateway — stop here
                }
                out.push((tfi, tni));
            }
            out.sort_unstable();
            out.dedup();
            edges.insert((fi, ni), out);
        }
    }

    // BFS from each root, shortest chain to any sink.
    let mut diags = Vec::new();
    for (fi, fm) in files.iter().enumerate() {
        let is_sim = treat_all_as_sim || in_simulation_src(&fm.path);
        if !is_sim || in_obs_crate(&fm.path) {
            continue;
        }
        for (ni, f) in fm.fns.iter().enumerate() {
            if f.is_test || !f.is_pub {
                continue;
            }
            let Some((chain, sink)) = shortest_sink_chain(&edges, (fi, ni), &sink_of) else {
                continue;
            };
            // Direct containment of a line-rule-covered sink is already
            // reported by `nondeterminism`; only chains add information.
            if chain.len() == 1 && sink.line_rule_covers {
                continue;
            }
            let names: Vec<String> = chain
                .iter()
                .map(|&(cfi, cni)| files[cfi].fns[cni].qualified())
                .collect();
            diags.push(
                Diagnostic::error(
                    fm.path.clone(),
                    f.line,
                    1,
                    "wall-clock-reach",
                    format!(
                        "pub fn `{}` reaches {} via `{}`; simulation code must stay a pure \
                         function of its inputs",
                        f.qualified(),
                        sink.what,
                        names.join(" -> "),
                    ),
                )
                .with_hint(
                    "route timing through an obs timer handle (DESIGN.md §11) or cut the call",
                ),
            );
        }
    }
    diags
}

/// Breadth-first search for the shortest call chain from `root` to any
/// sink-containing node. Returns the chain (root first) and the sink.
fn shortest_sink_chain<'s>(
    edges: &BTreeMap<(usize, usize), Vec<(usize, usize)>>,
    root: (usize, usize),
    sink_of: &dyn Fn(usize, usize) -> Option<&'s Sink>,
) -> Option<(Vec<(usize, usize)>, &'s Sink)> {
    let mut prev: BTreeMap<(usize, usize), (usize, usize)> = BTreeMap::new();
    let mut queue = VecDeque::new();
    queue.push_back(root);
    let mut seen = std::collections::BTreeSet::new();
    seen.insert(root);
    while let Some(node) = queue.pop_front() {
        if let Some(sink) = sink_of(node.0, node.1) {
            let mut chain = vec![node];
            let mut cur = node;
            while cur != root {
                cur = prev[&cur];
                chain.push(cur);
            }
            chain.reverse();
            return Some((chain, sink));
        }
        for &next in edges.get(&node).into_iter().flatten() {
            if seen.insert(next) {
                prev.insert(next, node);
                queue.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::model::FileModel;
    use std::path::Path;

    fn build(path: &str, src: &str) -> FileModel {
        FileModel::build(Path::new(path), &classify(src))
    }

    #[test]
    fn indirect_wall_clock_reach_is_flagged_with_the_chain() {
        let sim = build(
            "crates/testbed/src/runner.rs",
            "pub fn run_trace() { stamp_helper(); }\n",
        );
        let helper = build(
            "crates/bench/src/util.rs",
            "pub fn stamp_helper() { let t = Instant::now(); }\n",
        );
        let out = check(&[sim, helper], false);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "wall-clock-reach");
        assert!(
            out[0].message.contains("run_trace -> stamp_helper"),
            "{}",
            out[0].message
        );
        assert!(out[0].message.contains("Instant"));
    }

    #[test]
    fn reachability_stops_at_the_obs_boundary() {
        // obs owns Instant by design; a simulation fn calling into obs
        // (by resolved definition AND by obs:: path) is clean.
        let sim = build(
            "crates/testbed/src/runner.rs",
            "pub fn run_trace() { time_scope_helper(); obs::add(\"n\", 1); }\n",
        );
        let obs = build(
            "crates/obs/src/lib.rs",
            "pub fn time_scope_helper() { let t = Instant::now(); }\n\
             pub fn add(name: &str, n: u64) { let t = Instant::now(); }\n",
        );
        let out = check(&[sim, obs], false);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn direct_line_rule_sinks_are_not_double_reported() {
        // `Instant` directly inside a sim fn belongs to `nondeterminism`.
        let sim = build(
            "crates/netsim/src/engine.rs",
            "pub fn bad() { let t = Instant::now(); }\n",
        );
        let out = check(&[sim], false);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn direct_env_and_spawn_sinks_are_reported() {
        // thread::spawn and env::var are not in the line rule's ident
        // list, so even direct containment is this rule's finding.
        let sim = build(
            "crates/testbed/src/runner.rs",
            "pub fn fan_out() { std::thread::spawn(|| {}); }\n\
             pub fn workers() { let w = std::env::var(\"W\"); }\n",
        );
        let out = check(&[sim], false);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].message.contains("thread::spawn"));
        assert!(out[1].message.contains("env::var"));
    }

    #[test]
    fn ambiguous_names_produce_no_edge() {
        let sim = build("crates/tcp/src/sender.rs", "pub fn send() { helper(); }\n");
        let a = build(
            "crates/bench/src/a.rs",
            "pub fn helper() { let t = Instant::now(); }\n",
        );
        let b = build("crates/bench/src/b.rs", "pub fn helper() {}\n");
        let out = check(&[sim, a, b], false);
        assert!(
            out.is_empty(),
            "two `helper` definitions — no edge, no guess"
        );
    }

    #[test]
    fn non_sim_crates_are_not_roots_unless_forced() {
        let bench = build(
            "crates/bench/src/profile.rs",
            "pub fn profile() { stamp(); }\npub fn stamp() { let t = Instant::now(); }\n",
        );
        assert!(check(std::slice::from_ref(&bench), false).is_empty());
        let forced = check(&[bench], true);
        assert_eq!(forced.len(), 1, "{forced:?}");
    }

    #[test]
    fn test_fns_are_outside_the_graph() {
        let sim = build(
            "crates/netsim/src/engine.rs",
            "pub fn ok() {}\n#[cfg(test)]\nmod tests {\n    pub fn stamps() { wall(); }\n    \
             pub fn wall() { let t = Instant::now(); }\n}\n",
        );
        assert!(check(&[sim], false).is_empty());
    }
}
