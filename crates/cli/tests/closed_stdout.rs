//! A reader that closes the pipe early (`chameleonec … | head -1`) ends a
//! command quietly: its report is dropped and it exits 0.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_drops_the_report_and_exits_zero() {
    for args in [
        "repair --code rs:4,2 --chunks 2",
        "sweep --seeds 1 --chunks 2 --requests 50 --algos cr",
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_chameleonec"))
            .args(args.split(' '))
            .env_remove("CHAMELEON_PROGRESS")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("chameleonec starts");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("chameleonec exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success() && stderr.is_empty(),
            "{args}: {}\n{stderr}",
            out.status
        );
    }
}
