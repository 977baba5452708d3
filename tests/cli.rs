//! Smoke tests for the `nds` command-line binary.

use std::process::Command;

fn nds(args: &[&str]) -> (bool, String, String) {
    let (code, stdout, stderr) = nds_status(args);
    (code == Some(0), stdout, stderr)
}

/// Like [`nds`] but exposing the exit code: 0 success, 1 runtime
/// failure, 2 usage error.
fn nds_status(args: &[&str]) -> (Option<i32>, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_nds"))
        .args(args)
        .output()
        .expect("nds binary runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).to_string(),
        String::from_utf8_lossy(&output.stderr).to_string(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = nds(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("analyze"));
}

#[test]
fn space_lists_the_paper_space() {
    let (ok, stdout, _) = nds(&["space", "--arch", "lenet"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("32 configurations"), "{stdout}");
    assert!(stdout.contains("slot 2"), "{stdout}");
    // Extended space is bigger and mentions G.
    let (ok, stdout, _) = nds(&["space", "--arch", "lenet", "--extended"]);
    assert!(ok);
    assert!(stdout.contains("75 configurations"), "{stdout}");
    assert!(stdout.contains("G"), "{stdout}");
}

#[test]
fn analyze_prints_a_report() {
    let (ok, stdout, _) = nds(&["analyze", "--arch", "lenet", "--config", "RRB"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("C-synthesis report"), "{stdout}");
    assert!(stdout.contains("Total power"), "{stdout}");
    // Spatial mapping flag is accepted and lowers latency.
    let (ok, spatial, _) = nds(&["analyze", "--arch", "lenet", "--config", "RRB", "--spatial"]);
    assert!(ok);
    let latency = |s: &str| -> f64 {
        s.lines()
            .find(|l| l.contains("latency"))
            .and_then(|l| l.split("latency ").nth(1))
            .and_then(|l| l.split(" ms").next())
            .and_then(|v| v.parse().ok())
            .expect("report contains a latency figure")
    };
    assert!(latency(&spatial) < latency(&stdout));
}

#[test]
fn hls_writes_a_project() {
    let dir = std::env::temp_dir().join("nds_cli_hls_test");
    let _ = std::fs::remove_dir_all(&dir);
    let (ok, stdout, _) = nds(&[
        "hls",
        "--arch",
        "lenet",
        "--config",
        "BBB",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    assert!(dir.join("firmware/nnet_dropout.h").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn vit_space_and_analysis_work() {
    let (ok, stdout, _) = nds(&["space", "--arch", "vit"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("16 configurations"), "{stdout}");
    assert!(
        stdout.contains("16x1x16"),
        "token-sequence slot shape: {stdout}"
    );
    let (ok, stdout, _) = nds(&["analyze", "--arch", "vit", "--config", "KM"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("encoder_attention"), "{stdout}");
    assert!(stdout.contains("patch_embed"), "{stdout}");
}

#[test]
fn search_stop_resume_reproduces_the_uninterrupted_summary() {
    let dir = std::env::temp_dir().join("nds_cli_search_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("cp.json");
    let base = [
        "search",
        "--arch",
        "lenet",
        "--epochs",
        "1",
        "--train",
        "96",
        "--val",
        "32",
        "--generations",
        "3",
        "--population",
        "5",
        "--parents",
        "2",
        "--seed",
        "11",
    ];
    let (ok, full, err) = nds(&base);
    assert!(ok, "{full}\n{err}");
    assert!(full.contains("winner"), "{full}");
    fn with<'a>(base: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
        let mut args: Vec<&'a str> = base.to_vec();
        args.extend_from_slice(extra);
        args
    }
    let cp = checkpoint.to_str().unwrap();
    let (ok, _, err) = nds(&with(&base, &["--checkpoint", cp, "--stop-after", "1"]));
    assert!(ok, "{err}");
    assert!(checkpoint.exists(), "checkpoint file written");
    let (ok, resumed, err) = nds(&with(&base, &["--checkpoint", cp, "--resume"]));
    assert!(ok, "{err}");
    // The full-precision final summaries must be byte-identical.
    let summary = |s: &str| {
        s.lines()
            .skip_while(|l| !l.starts_with("-- search result --"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(!summary(&full).is_empty());
    assert_eq!(
        summary(&full),
        summary(&resumed),
        "resumed summary must equal the uninterrupted one byte for byte"
    );
    // A corrupted primary now heals from the .bak rotation the earlier
    // saves left behind: the resume succeeds, warns, and still lands on
    // the byte-identical summary (the backup holds the after-step-1
    // snapshot, so the resumed run replays the same remaining steps).
    let backup = dir.join("cp.json.bak");
    assert!(backup.exists(), "save must rotate the previous checkpoint");
    std::fs::write(&checkpoint, "{ not a checkpoint").unwrap();
    let (ok, healed, stderr) = nds(&with(&base, &["--checkpoint", cp, "--resume"]));
    assert!(ok, "{stderr}");
    assert!(
        stderr.contains("resumed from last-good backup"),
        "backup fallback must warn: {stderr}"
    );
    assert_eq!(
        summary(&full),
        summary(&healed),
        "backup-resumed summary must equal the uninterrupted one"
    );
    // With primary AND backup corrupted the failure is a clean typed
    // runtime error (exit 1), never a panic.
    std::fs::write(&checkpoint, "{ not a checkpoint").unwrap();
    std::fs::write(&backup, "also garbage").unwrap();
    let (code, _, stderr) = nds_status(&with(&base, &["--checkpoint", cp, "--resume"]));
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("checkpoint unrecoverable"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn search_survives_sigkill_and_resumes_from_periodic_checkpoint() {
    use std::process::Stdio;
    let dir = std::env::temp_dir().join("nds_cli_sigkill_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("cp.json");
    let cp = checkpoint.to_str().unwrap();
    let base = [
        "search",
        "--arch",
        "lenet",
        "--epochs",
        "1",
        "--train",
        "96",
        "--val",
        "32",
        "--generations",
        "3",
        "--population",
        "5",
        "--parents",
        "2",
        "--seed",
        "11",
    ];
    fn with<'a>(base: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
        let mut args: Vec<&'a str> = base.to_vec();
        args.extend_from_slice(extra);
        args
    }
    let (ok, full, err) = nds(&base);
    assert!(ok, "{full}\n{err}");
    // Start an identical run that checkpoints after every step, and
    // SIGKILL it as soon as the first checkpoint lands on disk — no
    // flushing, no atexit, the hard crash the atomic save protocol is
    // built for.
    let mut child = Command::new(env!("CARGO_BIN_EXE_nds"))
        .args(with(
            &base,
            &["--checkpoint", cp, "--checkpoint-every", "1"],
        ))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("nds binary spawns");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while !checkpoint.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "no checkpoint appeared before the deadline"
        );
        if child.try_wait().expect("child pollable").is_some() {
            break; // finished before we could kill it: resume still works
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let _ = child.kill(); // SIGKILL on unix
    let _ = child.wait();
    let (ok, resumed, err) = nds(&with(&base, &["--checkpoint", cp, "--resume"]));
    assert!(ok, "{err}");
    let summary = |s: &str| {
        s.lines()
            .skip_while(|l| !l.starts_with("-- search result --"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(!summary(&full).is_empty());
    assert_eq!(
        summary(&full),
        summary(&resumed),
        "post-SIGKILL resume must reproduce the uninterrupted summary"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_input_fails_with_usage() {
    let (code, _, stderr) = nds_status(&["frobnicate"]);
    assert_eq!(code, Some(2), "usage errors exit 2: {stderr}");
    assert!(stderr.contains("unknown command"), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");
    let (code, _, stderr) = nds_status(&["analyze", "--arch", "lenet"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--config is required"), "{stderr}");
    let (code, _, stderr) = nds_status(&["analyze", "--arch", "lenet", "--config", "XYZ"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown dropout code"), "{stderr}");
    let (code, _, stderr) = nds_status(&["search", "--resume"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--resume needs --checkpoint"), "{stderr}");
}

#[test]
fn adaptive_flags_reject_bad_values_before_any_work() {
    // Satellite of the PR 6 rejects-vs-faults policy: a malformed gate
    // is a usage error (exit 2, usage dumped, nothing computed), never
    // a mid-run fault. `f64::from_str` happily parses "inf"/"nan", so
    // these must be caught by explicit validation, not the parser.
    let eval = ["eval", "--arch", "lenet", "--config", "RKM"];
    let bad: &[&[&str]] = &[
        &["--adaptive", "nan"],
        &["--adaptive", "inf"],
        &["--adaptive", "-inf"],
        &["--adaptive", "-0.5"],
        &["--adaptive", "bogus"],
        &["--adaptive", "0.5", "--gate", "bogus"],
        &["--adaptive", "0.5", "--pilot", "0"],
        &["--adaptive", "0.5", "--gate", "top-var", "--pilot", "1"],
        &["--gate", "entropy"],
        &["--pilot", "2"],
    ];
    for extra in bad {
        let args: Vec<&str> = eval.iter().chain(extra.iter()).copied().collect();
        let (code, stdout, stderr) = nds_status(&args);
        assert_eq!(code, Some(2), "{extra:?} must exit 2: {stderr}");
        assert!(stderr.contains("USAGE"), "{extra:?}: {stderr}");
        assert!(
            stdout.is_empty(),
            "{extra:?} must fail before any work starts: {stdout}"
        );
        // The same family guards serve-bench.
        let args: Vec<&str> = ["serve-bench"]
            .iter()
            .chain(extra.iter())
            .copied()
            .collect();
        let (code, stdout, _) = nds_status(&args);
        assert_eq!(code, Some(2), "serve-bench {extra:?} must exit 2");
        assert!(stdout.is_empty(), "serve-bench {extra:?} started work");
    }
}

#[test]
fn unknown_flags_are_usage_errors() {
    // A removed flag or a misspelt one must not run with defaults.
    for args in [
        &["serve-bench", "--wait-ms", "1"][..],
        &["eval", "--sampels", "3"][..],
    ] {
        let (code, stdout, stderr) = nds_status(args);
        assert_eq!(code, Some(2), "{args:?} must exit 2: {stderr}");
        assert!(stderr.contains("does not take"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} started work: {stdout}");
    }
}

#[test]
fn adaptive_eval_reports_the_gate_after_the_pinned_lines() {
    let (ok, stdout, stderr) = nds(&[
        "eval",
        "--arch",
        "lenet",
        "--config",
        "RKM",
        "--seed",
        "11",
        "--adaptive",
        "0.5",
    ]);
    assert!(ok, "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    let gate = lines
        .iter()
        .position(|l| l.starts_with("adaptive gate=entropy"))
        .expect("gate line present");
    let probs = lines
        .iter()
        .position(|l| l.starts_with("probs[0]"))
        .expect("probs line present");
    assert!(
        gate > probs,
        "gating report must print after the golden-pinned lines: {stdout}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("escalation id")),
        "{stdout}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("escalation ood")),
        "{stdout}"
    );
}

#[test]
fn runtime_failures_exit_1_without_usage_dump() {
    // A well-formed invocation whose work fails: writing the HLS
    // project under a path blocked by a regular file.
    let dir = std::env::temp_dir().join("nds_cli_exit_code_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "a file, not a directory").unwrap();
    let out = blocker.join("sub");
    let (code, _, stderr) = nds_status(&[
        "hls",
        "--arch",
        "lenet",
        "--config",
        "BBB",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1), "runtime errors exit 1: {stderr}");
    assert!(
        !stderr.contains("USAGE"),
        "runtime errors must not dump usage: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
