//! Out-of-range `--window` / `--interval` values are usage errors: the
//! binary exits 2 with a message naming the flag instead of panicking
//! inside the windowed fold or its ring allocation.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_slopt-serve"))
        .args(args)
        .output()
        .expect("slopt-serve runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn out_of_range_window_and_interval_exit_with_usage() {
    for (flag, value) in [
        ("--window", "0"),
        ("--interval", "0"),
        ("--window", "18446744073709551615"),
        ("--window", "1048577"),
    ] {
        let (code, stderr) = run(&[flag, value]);
        assert_eq!(code, Some(2), "{flag} {value}: stderr was {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains(value),
            "{flag} {value}: the message must name the flag and value: {stderr}"
        );
    }
}
