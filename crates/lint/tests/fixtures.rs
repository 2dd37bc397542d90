//! End-to-end tests for the lint binary: the workspace fixtures must
//! trip every rule when named explicitly, stay invisible to default
//! runs, and a clean source must pass.

use std::path::PathBuf;
use std::process::Command;

fn lint_bin() -> &'static str {
    env!("CARGO_BIN_EXE_lint")
}

/// Repo root: this file lives at `crates/lint/tests/fixtures.rs`.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

#[test]
fn violating_fixture_trips_r1_r2_r3() {
    let out = Command::new(lint_bin())
        .current_dir(repo_root())
        .arg("crates/lint/fixtures/violations.rs")
        .output()
        .expect("lint binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "violating fixture must fail lint");
    assert!(stdout.contains("[safety-comment]"), "R1 fires: {stdout}");
    assert!(stdout.contains("[clock-discipline]"), "R2 fires: {stdout}");
    assert!(stdout.contains("[lock-shims]"), "R3 fires: {stdout}");
    // The commented `unsafe` block passes: exactly one R1 finding.
    assert_eq!(
        stdout.matches("[safety-comment]").count(),
        1,
        "SAFETY-commented unsafe must not fire: {stdout}"
    );
}

#[test]
fn violating_fixture_trips_r4_in_core_paths() {
    let out = Command::new(lint_bin())
        .current_dir(repo_root())
        .arg("crates/lint/fixtures/minimpi/unwrap.rs")
        .output()
        .expect("lint binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "core-path fixture must fail lint");
    // Two findings (unwrap + expect); the cfg(test) unwrap is exempt.
    assert_eq!(
        stdout.matches("[no-unwrap-core]").count(),
        2,
        "exactly the two non-test sites fire: {stdout}"
    );
}

#[test]
fn violating_fixture_trips_r4_in_staging_paths() {
    // `glean` (with `science` and `adios`) joined the R4 crate list
    // when the staging broker landed — the rule must fire there too.
    let out = Command::new(lint_bin())
        .current_dir(repo_root())
        .arg("crates/lint/fixtures/glean/unwrap.rs")
        .output()
        .expect("lint binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "staging-path fixture must fail lint");
    assert_eq!(
        stdout.matches("[no-unwrap-core]").count(),
        2,
        "exactly the two non-test sites fire: {stdout}"
    );
}

#[test]
fn violating_fixture_trips_r4_in_sanitizer_paths() {
    // `catalyst`, `libsim`, `perfmodel` and `sanitizer` joined the R4
    // crate list with zero sites; the rule keeps them there.
    let out = Command::new(lint_bin())
        .current_dir(repo_root())
        .arg("crates/lint/fixtures/sanitizer/unwrap.rs")
        .output()
        .expect("lint binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "sanitizer-path fixture must fail lint"
    );
    assert_eq!(
        stdout.matches("[no-unwrap-core]").count(),
        2,
        "exactly the two non-test sites fire: {stdout}"
    );
}

#[test]
fn violating_fixture_trips_r4_in_render_paths() {
    // `render` joined the R4 crate list at zero sites: its byte reads
    // cannot fail and its invariants need no `expect`.
    let out = Command::new(lint_bin())
        .current_dir(repo_root())
        .arg("crates/lint/fixtures/render/unwrap.rs")
        .output()
        .expect("lint binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "render-path fixture must fail lint");
    assert_eq!(
        stdout.matches("[no-unwrap-core]").count(),
        2,
        "exactly the two non-test sites fire: {stdout}"
    );
}

#[test]
fn violating_fixture_trips_r4_in_iosim_paths() {
    // `iosim` joined the R4 crate list at zero sites: its readers take
    // fixed-size arrays and bound every count by the bytes left.
    let out = Command::new(lint_bin())
        .current_dir(repo_root())
        .arg("crates/lint/fixtures/iosim/unwrap.rs")
        .output()
        .expect("lint binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "iosim-path fixture must fail lint");
    assert_eq!(
        stdout.matches("[no-unwrap-core]").count(),
        2,
        "exactly the two non-test sites fire: {stdout}"
    );
}

#[test]
fn violating_fixture_trips_r4_in_probe_paths() {
    // `probe` joined the R4 crate list at zero sites: its counters are
    // reached by the entry API and its JSON reader by patterns.
    let out = Command::new(lint_bin())
        .current_dir(repo_root())
        .arg("crates/lint/fixtures/probe/unwrap.rs")
        .output()
        .expect("lint binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "probe-path fixture must fail lint");
    assert_eq!(
        stdout.matches("[no-unwrap-core]").count(),
        2,
        "exactly the two non-test sites fire: {stdout}"
    );
}

#[test]
fn violating_fixture_trips_r6_obligation_pairing() {
    let out = Command::new(lint_bin())
        .current_dir(repo_root())
        .arg("crates/lint/fixtures/obligation.rs")
        .output()
        .expect("lint binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "obligation fixture must fail lint");
    // The unbound publish fires; the bound twins and the cfg(test)
    // region stay silent.
    assert_eq!(
        stdout.matches("[obligation]").count(),
        1,
        "exactly the unbound site fires: {stdout}"
    );
    assert!(stdout.contains("publish_dataset"), "{stdout}");
}

#[test]
fn default_run_skips_fixtures_and_passes_workspace() {
    let out = Command::new(lint_bin())
        .current_dir(repo_root())
        .output()
        .expect("lint binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "workspace must be lint-clean (fixtures skipped): {stdout}"
    );
    assert!(stdout.contains("clean"), "summary line present: {stdout}");
}
