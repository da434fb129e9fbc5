//! End-to-end tests of the `figures` binary's argument handling.

use std::process::Command;

#[test]
fn unknown_selection_exits_2_naming_it_and_the_valid_ones() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--fgi9", "--quick"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--fgi9"), "{err}");
    assert!(err.contains("--fig9") && err.contains("--barrier"), "{err}");
}
