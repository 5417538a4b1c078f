//! The bench binaries read their flags through `obs::cli`: an unknown flag
//! is an error that lists the valid ones. `exp_table1` stands in for all
//! of them because it runs in well under a second (no training).

use std::process::{Command, Output};

fn exp_table1(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp_table1"))
        .args(args)
        .output()
        .expect("run exp_table1")
}

#[test]
fn an_unknown_flag_fails_and_lists_the_valid_ones() {
    let out = exp_table1(&["--bogus"]);
    assert!(!out.status.success(), "--bogus exits nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown option --bogus for `exp_table1`; valid options: --obs, --quiet"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing ran");
}

#[test]
fn quick_is_rejected_where_there_is_no_scale() {
    let out = exp_table1(&["--quick"]);
    assert!(!out.status.success(), "--quick exits nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --quick"), "{stderr}");
}

#[test]
fn quiet_runs() {
    let out = exp_table1(&["--quiet"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("TABLE I:"), "{stdout}");
}
