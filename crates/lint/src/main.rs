//! Workspace lint pass: the invariants the sanitizer relies on,
//! enforced as plain source checks (no external deps — the build
//! environment has no registry access, so this cannot be a clippy
//! plugin).
//!
//! ```text
//! cargo run -p lint            # lint crates/, shims/, src/, examples/, tests/
//! cargo run -p lint -- PATH..  # lint specific roots (used by the fixture tests)
//! ```
//!
//! Rules (see DESIGN.md §10 for rationale):
//!
//! * **R1 safety-comment** — every `unsafe` block carries a
//!   `// SAFETY:` comment (same line, or the contiguous comment block
//!   directly above). Applies everywhere, shims included.
//! * **R2 clock-discipline** — no `std::time::Instant`/`SystemTime`
//!   outside `probe::time` (its `Wall` type is the sanctioned
//!   wrapper). Measured durations must flow through
//!   `probe::time::now_seconds` to stay deterministic under the
//!   virtual clock. Skips shims, tests, benches, and fixtures.
//! * **R3 lock-shims** — no raw `std::sync` lock primitives (`Mutex`,
//!   `RwLock`, `Condvar`, `Barrier`) outside `shims/`; use the
//!   `parking_lot` shim (no poisoning → no `.lock().unwrap()`
//!   pattern, which R4 would reject anyway). `Arc`, atomics, and
//!   `OnceLock` are fine.
//! * **R4 no-unwrap-core** — no `.unwrap()`/`.expect(` in non-test
//!   code of `minimpi`, `datamodel`, `sensei`, `science`, `adios`,
//!   `glean`, `query`, `catalyst`, `libsim`, `perfmodel`, `sanitizer`,
//!   `render`, `iosim` and `probe`: the substrate, the
//!   staging/aggregation data paths, the render endpoints and the stack
//!   under them, the model, the race detector, the post hoc I/O readers
//!   and the recorder every layer reports through must surface failures
//!   as typed errors or structured panics (the monitor/scheduler
//!   reports), never ad-hoc unwraps. The last seven joined at zero
//!   sites, so their count can only stay there.
//! * **R6 obligation** — protocol acquire/release calls must pair
//!   inside one function, matching what the sanitizer's obligation
//!   registry checks at `Bridge::finalize`: a `publish_dataset(` call
//!   must bind its RAII guard with a `let` (an unbound guard drops —
//!   and closes the window — immediately, silently disabling the
//!   use-after-publish check); a `QueryHandle` join
//!   (`.join(` with arguments, in files that mention `QueryHandle`)
//!   must pair with `.leave(` or `finalize`. Skips shims, tests, and
//!   benches; `datamodel` (which defines the guard) is exempt from
//!   the publish leg.
//!
//! Test code is exempt from R2/R4: `tests/`/`benches/` directories,
//! `fixtures/`, and `#[cfg(test)]` regions (tracked by brace depth).
//! Comments and string literals are stripped before matching, so a
//! doc mention of `Instant` does not trip the pass.

use std::fmt;
use std::path::{Path, PathBuf};

mod scan;

use scan::{strip_comments_and_strings, test_region_lines};

/// One rule violation.
struct Violation {
    rule: &'static str,
    path: PathBuf,
    line: usize,
    message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Is this path inside a directory named `name` (component match)?
fn under_dir(path: &Path, name: &str) -> bool {
    path.components().any(|c| c.as_os_str() == name)
}

fn is_probe_time(path: &Path) -> bool {
    path.ends_with(Path::new("probe/src/time.rs"))
}

/// R2/R4 exemption: whole files that are test/bench code. Fixture
/// files are NOT exempt — they are skipped in default runs instead,
/// and linted with full strictness when named explicitly (that is how
/// the lint's own tests prove each rule fires).
fn is_test_file(path: &Path) -> bool {
    under_dir(path, "tests") || under_dir(path, "benches")
}

/// R4 applies only to the correctness core.
fn in_core_crate(path: &Path) -> bool {
    [
        "minimpi",
        "datamodel",
        "sensei",
        "science",
        "adios",
        "glean",
        "query",
        "catalyst",
        "libsim",
        "perfmodel",
        "sanitizer",
        "render",
        "iosim",
        "probe",
    ]
    .iter()
    .any(|c| under_dir(path, c))
}

fn check_file(path: &Path, source: &str, out: &mut Vec<Violation>) {
    let raw_lines: Vec<&str> = source.lines().collect();
    let code = strip_comments_and_strings(source);
    let code_lines: Vec<&str> = code.lines().collect();
    let in_test = test_region_lines(&code_lines);

    let in_shims = under_dir(path, "shims");
    let file_is_test = is_test_file(path);

    for (i, &line) in code_lines.iter().enumerate() {
        let lineno = i + 1;
        let test_exempt = file_is_test || in_test.get(i).copied().unwrap_or(false);

        // R1: every `unsafe` keyword introducing a block needs a
        // `// SAFETY:` comment — on the same line, or anywhere in the
        // contiguous comment block immediately above (multi-line
        // SAFETY justifications are common). `unsafe` inside
        // strings/comments was already stripped.
        if scan::has_unsafe_intro(line) {
            // Same-line trailing comment counts (rare but legal).
            let mut found = raw_lines.get(i).is_some_and(|l| l.contains("SAFETY:"));
            let mut back = i;
            while !found && back > 0 {
                back -= 1;
                let above = raw_lines[back].trim_start();
                if !above.starts_with("//") {
                    break;
                }
                found = above.contains("SAFETY:");
            }
            if !found {
                out.push(Violation {
                    rule: "safety-comment",
                    path: path.to_path_buf(),
                    line: lineno,
                    message: "`unsafe` without a preceding `// SAFETY:` comment".into(),
                });
            }
        }

        // R2: clock discipline.
        if !in_shims && !file_is_test && !test_exempt && !is_probe_time(path) {
            for needle in [
                "std::time::Instant",
                "std::time::SystemTime",
                "time::Instant",
                "time::SystemTime",
            ] {
                if line.contains(needle) {
                    out.push(Violation {
                        rule: "clock-discipline",
                        path: path.to_path_buf(),
                        line: lineno,
                        message: format!(
                            "`{needle}` outside probe::time — use probe::time::now_seconds \
                             for measurement or probe::time::Wall for timeouts"
                        ),
                    });
                    break;
                }
            }
            // Bare `Instant`/`SystemTime` imported from std::time.
            if scan::imports_std_time_type(line) {
                out.push(Violation {
                    rule: "clock-discipline",
                    path: path.to_path_buf(),
                    line: lineno,
                    message: "importing Instant/SystemTime from std::time outside probe::time"
                        .into(),
                });
            }
        }

        // R3: raw std::sync lock primitives.
        if !in_shims && !test_exempt && !file_is_test {
            if let Some(prim) = scan::std_sync_primitive(line) {
                out.push(Violation {
                    rule: "lock-shims",
                    path: path.to_path_buf(),
                    line: lineno,
                    message: format!(
                        "raw `std::sync::{prim}` outside shims/ — use the parking_lot shim"
                    ),
                });
            }
        }

        // R4: unwrap/expect in core non-test code.
        if in_core_crate(path) && !file_is_test && !test_exempt {
            for needle in [".unwrap()", ".expect("] {
                if line.contains(needle) {
                    out.push(Violation {
                        rule: "no-unwrap-core",
                        path: path.to_path_buf(),
                        line: lineno,
                        message: format!(
                            "`{needle}` in non-test core-crate code — return an error or \
                             panic with a structured report"
                        ),
                    });
                }
            }
        }
    }

    // R6: protocol-obligation pairing, checked per function body. The
    // sanitizer's obligation registry catches these leaks at runtime
    // (when it is on); this rule catches the static shape — acquire
    // without a paired release in the same function — everywhere.
    if !in_shims && !file_is_test {
        let mentions_query_handle = code.contains("QueryHandle");
        for &(start, end) in &scan::fn_regions(&code_lines) {
            if in_test.get(start).copied().unwrap_or(false) {
                continue;
            }
            let body = &code_lines[start..=end];
            let has = |needle: &str| body.iter().any(|l| l.contains(needle));
            for (k, &line) in body.iter().enumerate() {
                let lineno = start + k + 1;
                // Publish windows: the guard must be `let`-bound, or
                // it drops at end of statement and the window closes
                // before anything is checked against it. The binding
                // may sit a few lines up (`let _w = if active() {`).
                if !under_dir(path, "datamodel")
                    && line.contains("publish_dataset(")
                    && !line.contains("fn publish_dataset")
                {
                    let mut bound = line.contains("let ");
                    let mut m = k;
                    while !bound && m > 0 && k - m < 6 {
                        m -= 1;
                        let prev = body[m].trim_end();
                        if prev.contains("let ") {
                            bound = true;
                        } else if prev.ends_with(';') {
                            break;
                        }
                    }
                    if !bound {
                        out.push(Violation {
                            rule: "obligation",
                            path: path.to_path_buf(),
                            line: lineno,
                            message: "`publish_dataset(` guard not bound with `let` — \
                                      an unbound guard closes the window immediately"
                                .into(),
                        });
                    }
                }
                // Query clients: a join must pair with a leave (or the
                // server finalize). Gated to files that actually use
                // QueryHandle so slice/path `.join(...)` stays quiet;
                // `.join()` (thread handles) takes no arguments.
                if mentions_query_handle
                    && line.contains(".join(")
                    && !line.contains(".join()")
                    && !has(".leave(")
                    && !has("finalize")
                {
                    out.push(Violation {
                        rule: "obligation",
                        path: path.to_path_buf(),
                        line: lineno,
                        message: "`QueryHandle` `.join(` without `.leave(`/`finalize` in \
                                  the same function — client registration never released"
                            .into(),
                    });
                }
            }
        }
    }
}

fn walk(root: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == ".git" || name == "results" {
                continue;
            }
            walk(&path, files);
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let roots: Vec<PathBuf> = if args.is_empty() {
        ["crates", "shims", "src", "examples", "tests"]
            .iter()
            .map(PathBuf::from)
            .collect()
    } else {
        args.iter().map(PathBuf::from).collect()
    };

    let mut files = Vec::new();
    for root in &roots {
        if root.is_file() {
            files.push(root.clone());
        } else {
            walk(root, &mut files);
        }
    }
    // The lint's own fixtures intentionally violate every rule; skip
    // them in a default (whole-workspace) run, lint them only when
    // named explicitly.
    if args.is_empty() {
        files.retain(|f| !under_dir(f, "fixtures"));
    }

    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for file in &files {
        match std::fs::read_to_string(file) {
            Ok(source) => {
                scanned += 1;
                check_file(file, &source, &mut violations);
            }
            Err(e) => eprintln!("lint: skipping {}: {e}", file.display()),
        }
    }

    if violations.is_empty() {
        println!("lint: {scanned} files clean");
    } else {
        for v in &violations {
            println!("{v}");
        }
        println!("lint: {} violation(s) in {scanned} files", violations.len());
        std::process::exit(1);
    }
}
