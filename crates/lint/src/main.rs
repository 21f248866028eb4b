//! `momsynth-lint`: run the workspace lint rules and report findings.
//!
//! ```text
//! cargo run -p momsynth-lint            # human-readable, exit 1 on findings
//! cargo run -p momsynth-lint -- --json  # machine-readable JSON array
//! cargo run -p momsynth-lint -- --root /path/to/workspace
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(r) => root = Some(PathBuf::from(r)),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: momsynth-lint [--json] [--root <workspace>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    // Default to the workspace containing this binary's manifest, so
    // `cargo run -p momsynth-lint` works from any subdirectory.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .map_or_else(|| PathBuf::from("."), std::path::Path::to_path_buf)
    });

    let diagnostics = match momsynth_lint::lint_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("momsynth-lint: cannot scan `{}`: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if json {
        println!("{}", momsynth_lint::to_json(&diagnostics));
    } else {
        for d in &diagnostics {
            println!("{d}");
        }
        if diagnostics.is_empty() {
            eprintln!("momsynth-lint: clean ({} rules)", momsynth_lint::RULES.len());
        } else {
            eprintln!("momsynth-lint: {} finding(s)", diagnostics.len());
        }
    }
    if diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
