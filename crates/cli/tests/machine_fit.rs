//! `swifi run` and `swifi inject` refuse a program or a core count that
//! does not fit the machine with an error, not a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Write `src` to a fresh file in the temp directory.
fn source_file(name: &str, src: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("swifi-fit-{}-{name}.c", std::process::id()));
    std::fs::write(&path, src).unwrap();
    path
}

fn swifi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_swifi"))
        .args(args)
        .output()
        .unwrap()
}

/// The run failed with exit code 1 and an `error:` line containing `what`.
fn assert_refused(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");
    assert!(stderr.contains(what), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn program_larger_than_memory_is_an_error() {
    let path = source_file("big", "int a[600000];\nvoid main() { a[0] = 7; }\n");
    let file = path.to_str().unwrap();
    assert_refused(&swifi(&["run", file]), "collides with stacks");
    assert_refused(
        &swifi(&["inject", file, "--fault", "0"]),
        "collides with stacks",
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn too_many_cores_is_an_error() {
    let path = source_file("cores", "void main() { print_int(1); }\n");
    let file = path.to_str().unwrap();
    assert_refused(
        &swifi(&["run", file, "--cores", "100"]),
        "must fit in half of memory",
    );
    // A count that fits still runs.
    let out = swifi(&["run", file, "--cores", "2"]);
    assert!(out.status.success());
    std::fs::remove_file(&path).unwrap();
}
