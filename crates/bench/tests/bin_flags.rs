//! `suite` answers a bad or missing flag value with a message and exit
//! status 2, before running or reading anything else.

use std::process::Command;

/// Runs `bin` with `args`; returns its exit status and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("the binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn suite_rejects_every_bad_flag() {
    for (args, says) in [
        (&["--only"][..], "--only needs a value"),
        (
            &["--only", "nosuch"],
            "unknown experiment `nosuch`; experiments: fig02_reliability, ",
        ),
        (&["--only", "fig02_reliability,x"], "unknown experiment `x`"),
        (&["--jobs"], "--jobs needs a value"),
        (&["--jobs", "x"], "invalid value for --jobs: `x`"),
        (&["--jobs", "-1"], "invalid value for --jobs: `-1`"),
        (&["--jobs", "nan"], "invalid value for --jobs: `nan`"),
        (&["--list"], "unexpected `--list`; suite takes:"),
        (&["--baseline", "x"], "unexpected `--baseline`"),
    ] {
        let (status, stderr) = run(env!("CARGO_BIN_EXE_suite"), args);
        assert_eq!(status, Some(2), "suite {args:?}: {stderr}");
        assert!(stderr.contains(says), "suite {args:?}: {stderr}");
    }
}
