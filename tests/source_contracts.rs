//! Source-level contracts that neither rustc nor clippy checks.
//!
//! * Atomic `Ordering::{Relaxed, Acquire, Release, AcqRel, SeqCst}`s in
//!   library code (`src/` and `crates/**/src/`, outside `bin/` directories
//!   and `#[cfg(test)]` modules) live only in the offline dependency shims
//!   under `crates/compat/`, where the rayon pool synchronizes its threads;
//!   everywhere else, parallel code hands its results back through joins
//!   and reductions.  Each one says why that ordering suffices: `ordering:`
//!   on the same line or in the comment and attribute lines directly above.
//! * Every `unsafe fn` in the tree states its contract: `SAFETY` or
//!   `# Safety` on the same line or in the comment and attribute lines
//!   directly above.  `clippy::undocumented_unsafe_blocks` covers unsafe
//!   blocks and `unsafe impl`s, but not `unsafe fn` signatures.
//! * Under `perfbench/`, `unsafe` appears only in `src/alloc.rs`, the
//!   counting allocator.  The benchmark is a workspace of its own, outside
//!   the root `[workspace.lints]`, and its crate roots do not deny
//!   `unsafe_code`.
//! * The frozen names `round_with`, `FrontierArena`, `GrainPolicy` and
//!   `with_grain_policy` appear in code only where they are defined and
//!   re-exported.  They stay because perfbench, which changes only with the
//!   benchmark (ROADMAP direction 8), still names them; nothing else may
//!   start using them again.  Comments and strings do not count.
//!
//! The checks read lines, not tokens.  The code is rustfmt-formatted, so a
//! `#[cfg(test)]` module ends at the first `}` at its own indentation.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Names kept only for perfbench, which still calls or implements them.
const FROZEN_NAMES: [&str; 4] = [
    "round_with",
    "FrontierArena",
    "GrainPolicy",
    "with_grain_policy",
];

/// The modules that define the frozen names and the crate roots that
/// re-export them.
const FROZEN_HOMES: [&str; 4] = [
    "crates/core/src/phase.rs",
    "crates/core/src/lib.rs",
    "crates/parutils/src/grain.rs",
    "crates/parutils/src/lib.rs",
];

const ATOMIC_ORDERINGS: [&str; 5] = [
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, skipping `target/` and dot-directories.
fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let path = entry.path();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    dirs.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

fn relative(path: &Path) -> String {
    path.strip_prefix(root())
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Library code: `src/**` and `crates/**/src/**`, except `bin/` directories.
fn is_library(path: &Path) -> bool {
    let rel = relative(path);
    (rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/")))
        && !rel.contains("/bin/")
}

/// A line split into its code, with the contents of string literals left
/// out, and its trailing `//` comment.
fn code_and_comment(line: &str) -> (String, &str) {
    let mut code = String::with_capacity(line.len());
    let mut chars = line.char_indices().peekable();
    let mut in_string = false;
    while let Some((at, c)) = chars.next() {
        if in_string {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => {
                    in_string = false;
                    code.push(c);
                }
                _ => {}
            }
            continue;
        }
        match c {
            '/' if chars.peek().is_some_and(|&(_, next)| next == '/') => {
                return (code, &line[at..])
            }
            '"' => in_string = true,
            // The character literal `'"'` opens no string.
            '\'' if line[at..].starts_with("'\"'") => {
                chars.next();
                chars.next();
            }
            _ => {}
        }
        code.push(c);
    }
    (code, "")
}

fn code(line: &str) -> String {
    code_and_comment(line).0
}

fn words(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|word| !word.is_empty())
}

/// True when one of `needles` is in the comment on line `i`, or in the
/// unbroken run of comment and attribute lines directly above it.
fn justified(lines: &[&str], i: usize, needles: &[&str]) -> bool {
    let hit = |text: &str| needles.iter().any(|needle| text.contains(needle));
    hit(code_and_comment(lines[i]).1)
        || lines[..i]
            .iter()
            .rev()
            .take_while(|line| {
                let line = line.trim_start();
                line.starts_with("//") || line.starts_with("#[")
            })
            .any(|line| hit(line))
}

/// The lines of `text`, with the body of each `#[cfg(test)]` module blanked
/// so that line numbers stay put.
fn outside_test_modules(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut lines = text.lines();
    let mut after_cfg_test = false;
    while let Some(line) = lines.next() {
        out.push(line);
        let item = line.trim_start();
        if after_cfg_test && item.ends_with('{') && words(item).any(|word| word == "mod") {
            let end = format!("{}}}", &line[..line.len() - item.len()]);
            for body in lines.by_ref() {
                out.push("");
                if body == end {
                    break;
                }
            }
        }
        after_cfg_test = item == "#[cfg(test)]" || (after_cfg_test && item.starts_with("#["));
    }
    out
}

/// True when a line's code declares an `unsafe fn` (also `unsafe extern`).
fn declares_unsafe_fn(code: &str) -> bool {
    let mut words = words(code).skip_while(|&word| word != "unsafe").skip(1);
    matches!(words.next(), Some("fn" | "extern"))
}

#[test]
fn atomic_orderings_in_library_code_say_why() {
    let mut uses = 0;
    let mut missing = Vec::new();
    let mut outside_shims = Vec::new();
    for path in rust_files(root()).expect("walk the source tree") {
        if !is_library(&path) {
            continue;
        }
        let in_shims = relative(&path).starts_with("crates/compat/");
        let text = fs::read_to_string(&path).expect("read a source file");
        let lines = outside_test_modules(&text);
        for (i, line) in lines.iter().enumerate() {
            let code = code(line);
            if !ATOMIC_ORDERINGS
                .iter()
                .any(|ordering| code.contains(ordering))
            {
                continue;
            }
            uses += 1;
            let at = format!("{}:{}: {}", relative(&path), i + 1, line.trim());
            if !justified(&lines, i, &["ordering:"]) {
                missing.push(at.clone());
            }
            if !in_shims {
                outside_shims.push(at);
            }
        }
    }
    assert!(
        outside_shims.is_empty(),
        "atomic orderings in library code outside crates/compat/ (return counts and \
         results through joins and reductions instead):\n{}",
        outside_shims.join("\n")
    );
    assert!(
        missing.is_empty(),
        "atomic orderings without an `ordering:` comment on the line or directly above it:\n{}",
        missing.join("\n")
    );
    assert!(
        uses > 0,
        "the walk found no atomic ordering in library code"
    );
}

#[test]
fn every_unsafe_fn_states_its_contract() {
    let mut declarations = 0;
    let mut missing = Vec::new();
    for path in rust_files(root()).expect("walk the source tree") {
        let text = fs::read_to_string(&path).expect("read a source file");
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if !declares_unsafe_fn(&code(line)) {
                continue;
            }
            declarations += 1;
            if !justified(&lines, i, &["SAFETY", "# Safety"]) {
                missing.push(format!("{}:{}: {}", relative(&path), i + 1, line.trim()));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "`unsafe fn`s without a `SAFETY` or `# Safety` comment directly above:\n{}",
        missing.join("\n")
    );
    // The counting allocators implement `GlobalAlloc`'s unsafe methods.
    assert!(declarations > 0, "the walk found no `unsafe fn`");
}

#[test]
fn perfbench_keeps_unsafe_in_its_allocator() {
    let bench = root().join("perfbench");
    let allocator = bench.join("src").join("alloc.rs");
    let mut in_allocator = 0;
    let mut elsewhere = Vec::new();
    for path in rust_files(&bench).expect("walk perfbench/") {
        let text = fs::read_to_string(&path).expect("read a source file");
        for (i, line) in text.lines().enumerate() {
            if !words(&code(line)).any(|word| word == "unsafe") {
                continue;
            }
            if path == allocator {
                in_allocator += 1;
            } else {
                elsewhere.push(format!("{}:{}: {}", relative(&path), i + 1, line.trim()));
            }
        }
    }
    assert!(
        elsewhere.is_empty(),
        "`unsafe` in perfbench/ outside src/alloc.rs:\n{}",
        elsewhere.join("\n")
    );
    assert!(
        in_allocator > 0,
        "the walk did not see perfbench's allocator"
    );
}

#[test]
fn frozen_names_stay_where_they_are_defined() {
    let mut at_home = 0;
    let mut elsewhere = Vec::new();
    for dir in ["src", "crates", "tests", "examples"] {
        for path in rust_files(&root().join(dir)).expect("walk the source tree") {
            let rel = relative(&path);
            if rel.starts_with("crates/compat/") {
                continue;
            }
            let text = fs::read_to_string(&path).expect("read a source file");
            for (i, line) in text.lines().enumerate() {
                if !words(&code(line)).any(|word| FROZEN_NAMES.contains(&word)) {
                    continue;
                }
                if FROZEN_HOMES.contains(&rel.as_str()) {
                    at_home += 1;
                } else {
                    elsewhere.push(format!("{rel}:{}: {}", i + 1, line.trim()));
                }
            }
        }
    }
    assert!(
        elsewhere.is_empty(),
        "frozen names used outside the modules that define them (call `round` and \
         `round_min_grain` instead):\n{}",
        elsewhere.join("\n")
    );
    assert!(
        at_home > 0,
        "the walk did not see the frozen names' modules"
    );
}
