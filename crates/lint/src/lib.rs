//! The workspace lint driver: deny-by-default diagnostics for the
//! concurrency and durability invariants the compiler cannot check.
//!
//! Five rules, each born from a bug class this workspace actively
//! defends against (DESIGN.md §17):
//!
//! | rule | defends |
//! |------|---------|
//! | `raw-std-sync-import` | every shared-state primitive goes through `momsynth-sync`, so loom models check the real code |
//! | `relaxed-cross-thread-flag` | stop/shutdown/cancel flags carry Release/Acquire edges, not `Relaxed` |
//! | `rename-without-fsync` | atomic-rename durability: `fs::rename` publishes only fsynced bytes |
//! | `unwrap-in-serve-path` | the resident server never panics on a request path |
//! | `histogram-bucket-literal-drift` | bucket bounds live in named constants; inline literals drift between crates |
//!
//! The checks are line-oriented with small per-file state machines
//! (function tracking for the fsync rule, test-module detection), not
//! a full parser: cheap enough to run on every CI push, and precise
//! enough that the workspace runs clean with only a handful of
//! explicit waivers. A site that genuinely needs an exemption carries
//! `// lint: allow(<rule>)` on the same or the preceding line — the
//! waiver is visible in review, exactly like `#[allow]`.

use std::fmt;
use std::path::{Path, PathBuf};

/// Every rule the driver knows, in reporting order.
pub const RULES: [&str; 5] = [
    "raw-std-sync-import",
    "relaxed-cross-thread-flag",
    "rename-without-fsync",
    "unwrap-in-serve-path",
    "histogram-bucket-literal-drift",
];

/// One finding, anchored to a file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired (one of [`RULES`]).
    pub rule: &'static str,
    /// File the finding is in.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path.display(), self.line, self.rule, self.message)
    }
}

/// Renders diagnostics as a JSON array (stable field order via
/// serde_json's object building).
pub fn to_json(diagnostics: &[Diagnostic]) -> String {
    let entries: Vec<serde_json::Value> = diagnostics
        .iter()
        .map(|d| {
            serde_json::json!({
                "rule": d.rule,
                "path": d.path.display().to_string(),
                "line": d.line,
                "message": d.message,
            })
        })
        .collect();
    serde_json::to_string_pretty(&serde_json::Value::Array(entries)).expect("diagnostics serialize")
}

/// Names that mark an atomic as a cross-thread control flag: raised by
/// one thread, polled by another, so `Relaxed` on its load/store drops
/// the happens-before edge that makes pre-flag writes visible.
const FLAG_NAMES: [&str; 6] = ["stop", "shutdown", "cancel", "interrupt", "abort", "quit"];

/// Is the `lint: allow(<rule>)` waiver present on this or the
/// preceding line?
fn allowed(lines: &[&str], index: usize, rule: &str) -> bool {
    let marker = format!("lint: allow({rule})");
    lines[index].contains(&marker) || (index > 0 && lines[index - 1].contains(&marker))
}

/// Heuristic: from the first `#[cfg(test)]` (or `#[cfg(all(test`)
/// attribute on, the file is test code. Matches the workspace idiom of
/// one trailing `mod tests` block per file.
fn test_code_start(lines: &[&str]) -> usize {
    lines
        .iter()
        .position(|l| {
            let t = l.trim_start();
            t.starts_with("#[cfg(test)]") || t.starts_with("#[cfg(all(test")
        })
        .unwrap_or(lines.len())
}

/// Which crate (directory under `crates/`) a path belongs to, if any.
fn crate_of(path: &Path) -> Option<String> {
    let mut components = path.components().map(|c| c.as_os_str().to_string_lossy());
    while let Some(c) = components.next() {
        if c == "crates" {
            return components.next().map(|c| c.into_owned());
        }
    }
    None
}

/// Lints one file. `path` is used for crate-scoped rules and for the
/// diagnostics; `content` is the file's text.
pub fn lint_file(path: &Path, content: &str) -> Vec<Diagnostic> {
    let lines: Vec<&str> = content.lines().collect();
    let krate = crate_of(path);
    let in_tests_dir = path.components().any(|c| c.as_os_str() == "tests");
    let test_start = if in_tests_dir { 0 } else { test_code_start(&lines) };
    let mut out = Vec::new();
    let push = |out: &mut Vec<Diagnostic>, rule: &'static str, line: usize, message: String| {
        out.push(Diagnostic { rule, path: path.to_owned(), line: line + 1, message });
    };

    // rename-without-fsync state: has the current function fsynced yet?
    let mut fsynced_in_fn = false;

    for (i, raw) in lines.iter().enumerate() {
        let line = raw.trim_start();
        if line.starts_with("//") {
            continue;
        }
        let is_test_code = i >= test_start;

        // --- raw-std-sync-import: applies everywhere (tests run under
        // loom too) except the facade crate itself.
        if krate.as_deref() != Some("sync")
            && line.contains("std::sync::")
            && !allowed(&lines, i, "raw-std-sync-import")
        {
            push(
                &mut out,
                "raw-std-sync-import",
                i,
                "use momsynth_sync (the loom facade) instead of std::sync, so model \
                 checking exercises this code"
                    .into(),
            );
        }

        // --- relaxed-cross-thread-flag: a Relaxed load/store on an
        // atomic whose name marks it as a cross-thread control flag.
        if line.contains("Ordering::Relaxed")
            && (line.contains(".load(") || line.contains(".store("))
            && FLAG_NAMES.iter().any(|n| line.to_ascii_lowercase().contains(n))
            && !allowed(&lines, i, "relaxed-cross-thread-flag")
        {
            push(
                &mut out,
                "relaxed-cross-thread-flag",
                i,
                "cross-thread control flags need Release stores and Acquire loads: \
                 Relaxed drops the happens-before edge carrying pre-flag writes"
                    .into(),
            );
        }

        // --- rename-without-fsync: non-test code only (tests corrupt
        // and rename files on purpose).
        if !is_test_code {
            if line.contains("fn ") && line.contains('(') {
                fsynced_in_fn = false;
            }
            if line.contains("sync_all(") || line.contains("sync_data(") {
                fsynced_in_fn = true;
            }
            if line.contains("fs::rename(")
                && !fsynced_in_fn
                && !allowed(&lines, i, "rename-without-fsync")
            {
                push(
                    &mut out,
                    "rename-without-fsync",
                    i,
                    "rename publishes the file: fsync the temporary (sync_all/sync_data) \
                     earlier in this function or a crash can publish torn bytes"
                        .into(),
                );
            }
        }

        // --- unwrap-in-serve-path: the resident server's non-test
        // code must fail typed, never panic. Poison propagation
        // (`expect(\"... poisoned\")`) is the workspace's deliberate
        // crash-on-poison idiom and stays allowed.
        if krate.as_deref() == Some("serve")
            && !is_test_code
            && (line.contains(".unwrap()")
                || (line.contains(".expect(") && !line.contains("poisoned")))
            && !allowed(&lines, i, "unwrap-in-serve-path")
        {
            push(
                &mut out,
                "unwrap-in-serve-path",
                i,
                "the job server must not panic outside tests: return a typed error \
                 (poison propagation via expect(\"... poisoned\") is exempt)"
                    .into(),
            );
        }

        // --- histogram-bucket-literal-drift: non-test histogram
        // registrations must pass a named bounds constant; inline
        // literals silently drift apart across call sites.
        if !is_test_code
            && line.contains(".histogram(")
            && !allowed(&lines, i, "histogram-bucket-literal-drift")
        {
            let window = lines[i..lines.len().min(i + 4)].join(" ");
            let inline_bounds = window
                .find("&[")
                .map(|at| {
                    window[at + 2..]
                        .trim_start()
                        .starts_with(|c: char| c.is_ascii_digit() || c == '.')
                })
                .unwrap_or(false);
            if inline_bounds {
                push(
                    &mut out,
                    "histogram-bucket-literal-drift",
                    i,
                    "histogram bounds must be a named constant (e.g. \
                     DEFAULT_LATENCY_BOUNDS_S): inline bucket literals drift \
                     between call sites and break cross-crate aggregation"
                        .into(),
                );
            }
        }
    }
    out
}

/// Walks `crates/*/{src,tests}` under `root` and lints every `.rs`
/// file, returning findings sorted by path then line. `vendor/` and
/// fixture directories are never scanned.
///
/// # Errors
///
/// Propagates I/O errors from directory walking or file reads.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    for entry in std::fs::read_dir(&crates)? {
        let krate = entry?.path();
        if !krate.is_dir() {
            continue;
        }
        // The driver's own sources embed rule-tripping snippets as
        // test-fixture string literals; a line scanner cannot tell
        // them from code, so the lint crate checks itself via its own
        // unit tests instead of the workspace walk.
        if krate.file_name().is_some_and(|n| n == "lint") {
            continue;
        }
        for sub in ["src", "tests"] {
            let dir = krate.join(sub);
            if dir.is_dir() {
                collect_rs(&dir, &mut files)?;
            }
        }
    }
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let content = std::fs::read_to_string(&file)?;
        let relative = file.strip_prefix(root).unwrap_or(&file).to_owned();
        out.extend(lint_file(&relative, &content));
    }
    Ok(out)
}

fn collect_rs(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, content: &str) -> Vec<&'static str> {
        let mut rules: Vec<&'static str> =
            lint_file(Path::new(path), content).into_iter().map(|d| d.rule).collect();
        rules.dedup();
        rules
    }

    #[test]
    fn std_sync_import_is_flagged_outside_the_facade() {
        let hit = rules_hit("crates/core/src/x.rs", "use std::sync::Mutex;\n");
        assert_eq!(hit, vec!["raw-std-sync-import"]);
        assert!(rules_hit("crates/sync/src/lib.rs", "use std::sync::Mutex;\n").is_empty());
    }

    #[test]
    fn allow_comment_waives_a_rule() {
        let same_line =
            "use std::sync::Once; // lint: allow(raw-std-sync-import) loom has no Once\n";
        assert!(rules_hit("crates/core/src/x.rs", same_line).is_empty());
        let previous_line = "// lint: allow(raw-std-sync-import)\nuse std::sync::Once;\n";
        assert!(rules_hit("crates/core/src/x.rs", previous_line).is_empty());
    }

    #[test]
    fn relaxed_flag_is_flagged_but_counters_are_not() {
        let flag = "if stop.load(Ordering::Relaxed) { return; }\n";
        assert_eq!(rules_hit("crates/x/src/a.rs", flag), vec!["relaxed-cross-thread-flag"]);
        let counter = "hits.fetch_add(1, Ordering::Relaxed);\n";
        assert!(rules_hit("crates/x/src/a.rs", counter).is_empty());
    }

    #[test]
    fn rename_needs_a_prior_fsync_in_the_same_function() {
        let torn = "fn save() {\n    std::fs::rename(&tmp, path)?;\n}\n";
        assert_eq!(rules_hit("crates/x/src/a.rs", torn), vec!["rename-without-fsync"]);
        let durable = "fn save() {\n    file.sync_all()?;\n    std::fs::rename(&tmp, path)?;\n}\n";
        assert!(rules_hit("crates/x/src/a.rs", durable).is_empty());
        let reset =
            "fn a() {\n    file.sync_all()?;\n}\nfn b() {\n    std::fs::rename(&t, p)?;\n}\n";
        assert_eq!(rules_hit("crates/x/src/a.rs", reset), vec!["rename-without-fsync"]);
    }

    #[test]
    fn serve_unwraps_are_flagged_with_poison_exemption() {
        let panicky = "let v = queue.pop().unwrap();\n";
        assert_eq!(rules_hit("crates/serve/src/server.rs", panicky), vec!["unwrap-in-serve-path"]);
        let poison = "let g = lock.lock().expect(\"state poisoned\");\n";
        assert!(rules_hit("crates/serve/src/server.rs", poison).is_empty());
        assert!(rules_hit("crates/core/src/server.rs", panicky).is_empty());
    }

    #[test]
    fn inline_histogram_bounds_are_flagged_but_constants_pass() {
        let inline = "let h = registry.histogram(\"x\", \"help\", &[0.1, 1.0], &[]);\n";
        assert_eq!(rules_hit("crates/x/src/a.rs", inline), vec!["histogram-bucket-literal-drift"]);
        let named =
            "let h = registry.histogram(\"x\", \"help\", &DEFAULT_LATENCY_BOUNDS_S, &[]);\n";
        assert!(rules_hit("crates/x/src/a.rs", named).is_empty());
    }

    #[test]
    fn test_modules_and_tests_dirs_relax_code_rules_only() {
        let content =
            "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); std::fs::rename(a, b); }\n}\n";
        assert!(rules_hit("crates/serve/src/a.rs", content).is_empty());
        // std::sync stays denied even in tests: models must build on
        // the facade.
        assert_eq!(
            rules_hit("crates/serve/tests/a.rs", "use std::sync::Mutex;\n"),
            vec!["raw-std-sync-import"]
        );
    }

    #[test]
    fn json_output_carries_every_field() {
        let d = lint_file(Path::new("crates/x/src/a.rs"), "use std::sync::Mutex;\n");
        let json = to_json(&d);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed[0]["rule"], "raw-std-sync-import");
        assert_eq!(parsed[0]["line"].as_u64(), Some(1));
        assert!(parsed[0]["path"].as_str().unwrap().contains("a.rs"));
    }
}
