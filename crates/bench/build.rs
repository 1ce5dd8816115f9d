//! Digests the source a plain baseline run executes — every `.rs` file
//! under `crates/{isa,sim,compiler,workloads}/src` plus this crate's
//! `src/lib.rs`, which builds the stored stats row — and passes it to
//! the crate as `PLAIN_RUN_DIGEST`. The baseline store folds it into
//! its key (`src/store.rs`), so editing any of that code makes stored
//! baselines miss instead of serving stale cycle counts.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn main() {
    let bench = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let crates = bench.parent().expect("crates/ directory");
    let lib = bench.join("src/lib.rs");
    println!("cargo:rerun-if-changed={}", lib.display());
    let mut files = vec![lib];
    for name in ["isa", "sim", "compiler", "workloads"] {
        let src = crates.join(name).join("src");
        // A directory is rescanned as a whole, so added files count too.
        println!("cargo:rerun-if-changed={}", src.display());
        rust_files(&src, &mut files);
    }
    files.sort();
    let mut h = DefaultHasher::new();
    for file in &files {
        file.strip_prefix(crates).expect("under crates/").hash(&mut h);
        std::fs::read(file).expect("readable source file").hash(&mut h);
    }
    println!("cargo:rustc-env=PLAIN_RUN_DIGEST={:016x}", h.finish());
}
