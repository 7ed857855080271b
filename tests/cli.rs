//! `gcrt`'s option parsing: a mistyped or unknown option, or a value
//! option with nothing after it, must stop the command with exit 2 and
//! name the offending flag instead of being silently ignored.

use std::process::{Command, Output};

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
    for (args, flag) in [
        (vec!["route", "fixtures/demo.gcl", "--shardd"], "--shardd"),
        (vec!["gen", out, "--nets", "5", "--sed", "3"], "--sed"),
        (vec!["gen", out, "--nets", "5", "--seed"], "--seed"),
        (
            vec!["route", "fixtures/demo.gcl", "--precise-dirty"],
            "--precise-dirty",
        ),
    ] {
        let result = gcrt(&args);
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
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
            "--sharded",
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
