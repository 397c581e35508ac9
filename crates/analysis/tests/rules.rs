//! Fixture-driven tests for every `simlint` rule — positive, negative,
//! and allowlisted cases — plus the meta-test asserting the live
//! workspace scans clean. Fixtures live in `tests/fixtures/`, which the
//! workspace walker skips (they violate rules on purpose); each test
//! assigns them the synthetic workspace-relative path that puts them in
//! the rule's scope.

use recpipe_analysis::rules::{Config, Finding, Severity};
use recpipe_analysis::{analyze_files, analyze_workspace, Report};

const HASH_ITER: &str = include_str!("fixtures/hash_iter.rs");
const WALL_CLOCK: &str = include_str!("fixtures/wall_clock.rs");
const SHARD_NONDET: &str = include_str!("fixtures/shard_nondet.rs");
const TAG_REGISTRY: &str = include_str!("fixtures/tag_registry.rs");
const TAG_REGISTRY_OK: &str = include_str!("fixtures/tag_registry_ok.rs");
const PACKING_CAST: &str = include_str!("fixtures/packing_cast.rs");
const CTOR_VALIDATE: &str = include_str!("fixtures/ctor_validate.rs");
const SERVE_SRC: &str = include_str!("fixtures/serve_src.rs");
const SERVE_TESTS: &str = include_str!("fixtures/serve_tests.rs");
const BAD_ALLOW: &str = include_str!("fixtures/bad_allow.rs");

fn report(files: &[(&str, &str)]) -> Report {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, t)| (p.to_string(), t.to_string()))
        .collect();
    analyze_files(&owned, &Config::default())
}

fn by_rule<'a>(r: &'a Report, rule: &str) -> Vec<&'a Finding> {
    r.findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn hash_iter_flags_iteration_not_keyed_access() {
    let r = report(&[("crates/hwsim/src/lru.rs", HASH_ITER)]);
    let hits = by_rule(&r, "hash-iter");
    // Exactly the two positives: the min-over-entries scan and the
    // `for … in` over a hash set. Keyed access, the allowlisted sum,
    // and the #[cfg(test)] iteration stay silent.
    assert_eq!(hits.len(), 2, "findings: {:?}", r.findings);
    assert!(hits.iter().any(|f| f.message.contains("last_use.iter()")));
    assert!(hits.iter().any(|f| f.message.contains("for … in seen")));
    assert!(r.has_denies());
}

#[test]
fn hash_iter_is_scoped_to_sim_paths() {
    let r = report(&[("crates/bench/src/lru.rs", HASH_ITER)]);
    assert!(by_rule(&r, "hash-iter").is_empty(), "{:?}", r.findings);
}

#[test]
fn wall_clock_and_rng_fire_in_product_code() {
    let r = report(&[("crates/qsim/src/clock.rs", WALL_CLOCK)]);
    assert_eq!(by_rule(&r, "wall-clock").len(), 1, "{:?}", r.findings);
    assert_eq!(by_rule(&r, "unseeded-rng").len(), 1, "{:?}", r.findings);
    assert!(r.has_denies());
}

#[test]
fn bench_and_test_carve_out_is_config_not_allows() {
    for path in [
        "crates/bench/src/bin/bench_smoke.rs",
        "crates/qsim/tests/scale.rs",
    ] {
        let r = report(&[(path, WALL_CLOCK)]);
        assert!(r.findings.is_empty(), "{path}: {:?}", r.findings);
    }
}

#[test]
fn shard_nondet_requires_justified_worker_branches() {
    let r = report(&[("crates/qsim/src/shard.rs", SHARD_NONDET)]);
    let hits = by_rule(&r, "shard-nondet");
    // The unjustified branch and the parallelism probe fire; the
    // allowlisted branch and the merge helper do not.
    assert_eq!(hits.len(), 2, "findings: {:?}", r.findings);
    assert!(hits
        .iter()
        .any(|f| f.message.contains("available_parallelism")));
}

#[test]
fn shard_nondet_only_applies_to_shard_files() {
    let r = report(&[("crates/qsim/src/sim2.rs", SHARD_NONDET)]);
    assert!(by_rule(&r, "shard-nondet").is_empty(), "{:?}", r.findings);
}

#[test]
fn tag_registry_catches_orphans_ghosts_and_missing_arms() {
    let r = report(&[("crates/qsim/src/sim.rs", TAG_REGISTRY)]);
    let hits = by_rule(&r, "tag-registry");
    assert_eq!(hits.len(), 3, "findings: {:?}", r.findings);
    assert!(hits
        .iter()
        .any(|f| f.message.contains("TAG_ORPHAN") && f.message.contains("0 times")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("TAG_ORPHAN") && f.message.contains("decode arm")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("TAG_GHOST") && f.message.contains("never declared")));
}

#[test]
fn tag_registry_accepts_a_complete_table() {
    let r = report(&[("crates/qsim/src/sim.rs", TAG_REGISTRY_OK)]);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
}

#[test]
fn packing_cast_needs_a_range_justification() {
    let r = report(&[("crates/qsim/src/sim.rs", PACKING_CAST)]);
    let hits = by_rule(&r, "packing-cast");
    // Only the unjustified cast inside `impl Event` fires: the two
    // allowlisted casts and the out-of-scope helper stay silent.
    assert_eq!(hits.len(), 1, "findings: {:?}", r.findings);
}

#[test]
fn ctor_validate_accepts_asserts_docs_and_allows() {
    let r = report(&[("crates/qsim/src/cfg.rs", CTOR_VALIDATE)]);
    let hits = by_rule(&r, "ctor-validate");
    assert_eq!(hits.len(), 1, "findings: {:?}", r.findings);
    // The one positive is the undocumented, unvalidated constructor.
    assert_eq!(hits[0].line, 9, "findings: {:?}", r.findings);
}

#[test]
fn ctor_validate_is_scoped_to_qsim() {
    let r = report(&[("crates/core/src/cfg.rs", CTOR_VALIDATE)]);
    assert!(by_rule(&r, "ctor-validate").is_empty(), "{:?}", r.findings);
}

#[test]
fn serve_coverage_fails_the_build_for_unpinned_entry_points() {
    let r = report(&[
        ("crates/qsim/src/serving.rs", SERVE_SRC),
        ("crates/qsim/tests/props.rs", SERVE_TESTS),
    ]);
    let hits = by_rule(&r, "serve-coverage");
    // `serve_pinned` is named by the test file, `serve_waved` carries
    // an allow, and `Scenario::pinned_knob` is called; `serve_orphan`,
    // the merely mentioned `Scenario::orphan_knob` and `Scenario::new`,
    // called only as `Other::new(` and `MyScenario::new(`, fail — and
    // they fail the build. The private helper is not an entry point.
    assert_eq!(hits.len(), 3, "findings: {:?}", r.findings);
    assert!(hits.iter().any(|f| f.message.contains("`serve_orphan`")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("`Scenario::orphan_knob`")));
    assert!(hits.iter().any(|f| f.message.contains("`Scenario::new`")));
    assert!(r.has_denies());
}

#[test]
fn serve_coverage_passes_once_every_entry_point_is_pinned() {
    let pinned_tests = format!(
        "{SERVE_TESTS}\nfn also() {{ serve_orphan(1, 2); Scenario::new(&1).orphan_knob(); }}\n"
    );
    let r = report(&[
        ("crates/qsim/src/serving.rs", SERVE_SRC),
        ("crates/qsim/tests/props.rs", &pinned_tests),
    ]);
    assert!(by_rule(&r, "serve-coverage").is_empty(), "{:?}", r.findings);
}

#[test]
fn bad_allow_rejects_malformed_and_unknown_directives() {
    let r = report(&[("crates/qsim/src/misc.rs", BAD_ALLOW)]);
    let hits = by_rule(&r, "bad-allow");
    // Missing justification, unknown rule, and non-allow directive all
    // fire; the well-formed directive does not.
    assert_eq!(hits.len(), 3, "findings: {:?}", r.findings);
}

#[test]
fn severity_overrides_downgrade_a_rule_to_warn() {
    let cfg = Config {
        severity_overrides: vec![("hash-iter".to_string(), Severity::Warn)],
        ..Config::default()
    };
    let files = vec![("crates/hwsim/src/lru.rs".to_string(), HASH_ITER.to_string())];
    let r = analyze_files(&files, &cfg);
    assert!(!r.findings.is_empty());
    assert!(
        !r.has_denies(),
        "warn-severity findings must not fail the run: {:?}",
        r.findings
    );
}

#[test]
fn live_workspace_scans_clean() {
    // The meta-test the tentpole demands: the shipped tree has zero
    // findings, so any rule drift (or new violation) is caught in-repo.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let r = analyze_workspace(&root, &Config::default()).expect("workspace readable");
    assert!(r.files > 50, "walker found only {} files", r.files);
    assert!(
        r.findings.is_empty(),
        "workspace must scan clean:\n{}",
        r.findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
