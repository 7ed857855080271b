//! `gcrt`'s option parsing: a mistyped or unknown option, an option of
//! another command, or a value option with nothing (or no number) after
//! it, must stop the command with exit 2 and name the offending flag
//! instead of being silently ignored.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn gcrt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gcrt"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("gcrt runs")
}

#[test]
fn unknown_and_valueless_options_exit_2_naming_the_flag() {
    let out = std::env::temp_dir().join(format!("gcrt-cli-{}.gcl", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    // Each command accepts only its own options: one of another command
    // is named with the command it was given to. A non-integer value is
    // named too, and nothing runs.
    for (args, culprits) in [
        (
            vec!["route", "fixtures/demo.gcl", "--shardd"],
            &["--shardd"][..],
        ),
        (vec!["gen", out, "--nets", "5", "--sed", "3"], &["--sed"]),
        (vec!["gen", out, "--nets", "5", "--seed"], &["--seed"]),
        (
            vec!["route", "fixtures/demo.gcl", "--precise-dirty"],
            &["--precise-dirty"],
        ),
        (
            vec!["check", "fixtures/demo.gcl", "--list"],
            &["--list", "check"],
        ),
        (
            vec!["stats", "fixtures/demo.gcl", "--collapsed", "--two-pass"],
            &["--collapsed", "stats"],
        ),
        (
            vec!["route", "fixtures/demo.gcl", "--nets", "5", "--addr", "x"],
            &["--nets", "route"],
        ),
        (
            vec!["route", "fixtures/demo.gcl", "--render", "abc"],
            &["--render", "abc"],
        ),
        // Sessions route on the sharded plane; there is nothing to select.
        (
            vec!["route", "fixtures/demo.gcl", "--sharded"],
            &["--sharded"],
        ),
        (
            vec!["eco", "fixtures/demo.gcl", "fixtures/demo.eco", "--sharded"],
            &["--sharded"],
        ),
        // `gcrt client <addr> explain <sid> <net>` is the one explain.
        (
            vec!["explain", "127.0.0.1:9", "1", "clk"],
            &["unknown command", "explain"],
        ),
    ] {
        let result = gcrt(&args);
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(2), "{args:?}: {stderr}");
        for culprit in culprits {
            assert!(stderr.contains(culprit), "{args:?}: {stderr}");
        }
        assert!(result.stdout.is_empty(), "{args:?}: the command ran");
    }
    assert!(
        !std::path::Path::new(out).exists(),
        "a rejected gen writes nothing"
    );
    // Known options still parse.
    for args in [
        vec!["check", "fixtures/demo.gcl"],
        vec![
            "route",
            "fixtures/demo.gcl",
            "--engine",
            "grid",
            "--serial",
            "--two-pass",
            "--pitch",
            "2",
            "--no-epsilon",
        ],
    ] {
        let result = gcrt(&args);
        assert_eq!(result.status.code(), Some(0), "{args:?}: {result:?}");
    }
}

/// `gcrt repro` checks every experiment id before it runs any: a typo
/// fails with exit 2 and prints no table.
#[test]
fn repro_rejects_unknown_options_and_experiment_ids() {
    for (args, culprit) in [
        (vec!["repro", "--lsit"], "--lsit"),
        (vec!["repro", "e2", "e99"], "e99"),
    ] {
        let result = gcrt(&args);
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(culprit), "{args:?}: {stderr}");
        assert!(result.stdout.is_empty(), "{args:?}: ran an experiment");
    }
    let list = gcrt(&["repro", "--list"]);
    assert_eq!(list.status.code(), Some(0), "{list:?}");
    assert_eq!(String::from_utf8_lossy(&list.stdout).lines().count(), 10);
    // Ids are case-insensitive.
    for id in ["e2", "E2"] {
        let e2 = gcrt(&["repro", id]);
        assert_eq!(e2.status.code(), Some(0), "{e2:?}");
        assert!(String::from_utf8_lossy(&e2.stdout).starts_with("### E2 "));
    }
}

/// `gcrt serve --max-body-kb N` converts N to bytes: a count whose byte
/// total overflows is rejected with exit 2 naming the flag, before the
/// server binds. The child is killed after a few seconds, so a
/// regression that starts serving fails here instead of hanging.
#[test]
fn serve_rejects_a_body_limit_that_overflows() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gcrt"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--max-body-kb",
            "18014398509481984", // 2^54 KiB = 2^64 bytes
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("gcrt runs");
    let started = Instant::now();
    while child.try_wait().expect("child status").is_none() {
        if started.elapsed() > Duration::from_secs(5) {
            child.kill().expect("kill the server");
            child.wait().expect("reap the server");
            panic!("gcrt serve accepted an overflowing --max-body-kb and kept running");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let result = child.wait_with_output().expect("child output");
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_eq!(result.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--max-body-kb"), "{stderr}");
    assert!(result.stdout.is_empty(), "the server started");
}
