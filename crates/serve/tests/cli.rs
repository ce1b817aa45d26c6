//! `augem-serve`'s exit status on its command line: usage errors exit
//! 2, `--help` exits 0. Stdin is empty, so a command line that parsed
//! would serve nothing and exit at EOF instead of hanging.

use std::process::{Command, Stdio};

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_augem-serve"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("augem-serve runs")
        .code()
}

#[test]
fn usage_errors_exit_2() {
    for args in [&["--workers", "abc"][..], &["--bogus"], &["--workers"]] {
        assert_eq!(exit_code(args), Some(2), "augem-serve {args:?}");
    }
}

#[test]
fn help_exits_0() {
    assert_eq!(exit_code(&["--help"]), Some(0));
}
