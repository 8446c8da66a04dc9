//! End-to-end tests of the workspace-graph pass over the known-bad
//! fixture trees in `tests/graph_fixtures/` — through `run_lint_ex`, so
//! file walking, crate identity, resolution budgets, and the allowlist
//! namespace are all exercised, not just the rules.

use nestwx_analyze::{run_lint_ex, GraphConfig, LintConfig, LintReport};

fn run_fixture(name: &str) -> LintReport {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/graph_fixtures")
        .join(name);
    let cfg = LintConfig::graph_fixtures(root);
    run_lint_ex(&cfg, Some(&GraphConfig::fixtures()), "").expect("lint runs")
}

fn chain_spans(report: &LintReport, idx: usize) -> Vec<(String, u32, u32)> {
    report.findings[idx]
        .chain
        .iter()
        .map(|s| (s.func.clone(), s.line, s.col))
        .collect()
}

#[test]
fn taint_fixture_reports_the_two_deep_chain() {
    let r = run_fixture("taint");
    assert!(r.graph_errors.is_empty(), "{:?}", r.graph_errors);
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(f.rule, "NW-G001");
    assert_eq!(f.file, "crates/app/src/lib.rs");
    assert_eq!((f.line, f.col), (14, 40));
    assert!(f.message.contains("HashMap"), "{}", f.message);
    assert!(f.message.contains("app::plan_entry"), "{}", f.message);
    assert_eq!(
        chain_spans(&r, 0),
        vec![
            ("app::plan_entry".to_string(), 6, 5),
            ("app::helper".to_string(), 10, 5),
            ("app::deep".to_string(), 14, 40),
        ]
    );
}

#[test]
fn lockcycle_fixture_reports_the_ab_ba_cycle() {
    let r = run_fixture("lockcycle");
    assert!(r.graph_errors.is_empty(), "{:?}", r.graph_errors);
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(f.rule, "NW-G002");
    assert_eq!(f.file, "crates/app/src/lib.rs");
    assert!(
        f.message
            .contains("Pair::a_lock -> Pair::b_lock -> Pair::a_lock"),
        "{}",
        f.message
    );
    // One chain step per cycle edge, each naming the function that takes
    // the locks in that order.
    assert_eq!(f.chain.len(), 2, "{:?}", f.chain);
    assert!(
        f.chain[0].func.contains("in app::Pair::ab"),
        "{:?}",
        f.chain
    );
    assert!(
        f.chain[1].func.contains("in app::Pair::ba"),
        "{:?}",
        f.chain
    );
}

#[test]
fn panic_fixture_reports_the_unwrap_behind_the_helper() {
    let r = run_fixture("panic");
    assert!(r.graph_errors.is_empty(), "{:?}", r.graph_errors);
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(f.rule, "NW-G003");
    assert_eq!(f.file, "crates/app/src/lib.rs");
    assert_eq!((f.line, f.col), (10, 29));
    assert!(f.message.contains(".unwrap()"), "{}", f.message);
    assert!(f.message.contains("app::handle_request"), "{}", f.message);
    assert_eq!(
        chain_spans(&r, 0),
        vec![
            ("app::handle_request".to_string(), 6, 5),
            ("app::decode".to_string(), 10, 29),
        ]
    );
}

#[test]
fn graph_allowlist_entries_are_checked_only_under_the_graph_pass() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/graph_fixtures/panic");
    let cfg = LintConfig::graph_fixtures(root);
    let allow = "NW-G003 crates/app/src/lib.rs:10 -- live entry\n\
                 NW-G003 crates/app/src/lib.rs:99 -- stale entry\n";
    // Per-file run: graph rules never fire, so neither entry is stale.
    let per_file = run_lint_ex(&cfg, None, allow).expect("lint runs");
    assert!(
        per_file.allow_errors.is_empty(),
        "{:?}",
        per_file.allow_errors
    );
    // Graph run: the live entry suppresses its finding, the stale one is
    // still reported.
    let graph = run_lint_ex(&cfg, Some(&GraphConfig::fixtures()), allow).expect("lint runs");
    assert!(
        graph.findings.iter().all(|f| f.rule != "NW-G003"),
        "{:?}",
        graph.findings
    );
    assert_eq!(graph.suppressed.len(), 1, "{:?}", graph.suppressed);
    assert_eq!(graph.allow_errors.len(), 1, "{:?}", graph.allow_errors);
    assert!(
        graph.allow_errors[0].contains("stale"),
        "{:?}",
        graph.allow_errors
    );
    assert!(
        graph.allow_errors[0].contains(":99"),
        "{:?}",
        graph.allow_errors
    );
}

#[test]
fn fixture_trees_resolve_every_call() {
    for name in ["taint", "lockcycle", "panic"] {
        let r = run_fixture(name);
        let g = r.graph.as_ref().expect("graph ran");
        assert_eq!(g.stats.unresolved, 0, "{name}: {:?}", g.unresolved_by_file);
        assert!(r.graph_errors.is_empty(), "{name}: {:?}", r.graph_errors);
    }
}

#[test]
fn graph_reports_are_byte_deterministic() {
    // Two full runs over the same tree must serialize identically —
    // chains, stats, and per-file unresolved counts included.
    for name in ["taint", "lockcycle", "panic"] {
        let a = serde_json::to_string_pretty(&run_fixture(name)).unwrap();
        let b = serde_json::to_string_pretty(&run_fixture(name)).unwrap();
        assert_eq!(a, b, "{name}");
    }
}
