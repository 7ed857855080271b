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
