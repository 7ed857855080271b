//! Stamps the run metadata that only the build can see: the compiler
//! version, the commit (when the sources sit in a git checkout) and a
//! digest of the router's sources, which identifies the code under test
//! even where no commit is available.

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=../crates");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = run(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    let commit = run(Command::new("git").args(["rev-parse", "--short=12", "HEAD"]))
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=ROUTEBENCH_RUSTC={version}");
    println!("cargo:rustc-env=ROUTEBENCH_COMMIT={commit}");
    println!(
        "cargo:rustc-env=ROUTEBENCH_SOURCE_DIGEST={:016x}",
        source_digest(Path::new("../crates"))
    );
}

/// The trimmed stdout of a command that exited successfully.
fn run(command: &mut Command) -> Option<String> {
    let out = command.output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

/// FNV-1a over every `.rs` and `Cargo.toml` file under `root`, in path
/// order, so equal sources give equal digests on any machine.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    collect(root, &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}
