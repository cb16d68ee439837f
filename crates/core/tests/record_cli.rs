//! Golden CLI tests for the flight-recorder surface: strict sink
//! validation for `--record`/`--replay` (mirroring the `--trace-out`
//! conventions), rejection of incoherent flag combinations, and the
//! record → replay → replay-diff happy path over a real script.

use std::path::PathBuf;
use std::process::Command;

fn terra() -> Command {
    Command::new(env!("CARGO_BIN_EXE_terra"))
}

/// A scratch path under the system temp dir, unique to this test process.
fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("terra-reccli-{}-{name}", std::process::id()))
}

fn stderr_of(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn record_rejects_non_rec_extension() {
    let out = terra()
        .args(["--record=run.json", "-e", "return 1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("--record=run.json"), "{err}");
    assert!(err.contains("unsupported recording sink"), "{err}");
    assert!(err.contains(".rec extension"), "{err}");
}

#[test]
fn replay_rejects_non_rec_extension() {
    let out = terra().args(["--replay=run.txt"]).output().unwrap();
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("--replay=run.txt"), "{err}");
    assert!(err.contains("unsupported recording sink"), "{err}");
}

#[test]
fn record_and_replay_may_not_share_a_path() {
    let out = terra()
        .args(["--record=a.rec", "--replay=a.rec"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("name the same file 'a.rec'"), "{err}");
    assert!(err.contains("use distinct paths"), "{err}");
}

#[test]
fn replay_rejects_an_extra_script_argument() {
    let out = terra()
        .args(["--replay=a.rec", "script.t"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(
        err.contains("re-runs the script recorded in the file"),
        "{err}"
    );
    assert!(err.contains("'script.t'"), "{err}");
}

#[test]
fn record_requires_a_script_file() {
    for args in [
        &["--record=a.rec"][..],
        &["--record=a.rec", "-e", "return 1"][..],
    ] {
        let out = terra().args(args).output().unwrap();
        assert!(!out.status.success());
        let err = stderr_of(&out);
        assert!(err.contains("--record requires a script file"), "{err}");
    }
}

#[test]
fn replay_diff_requires_two_recordings() {
    let out = terra().args(["replay-diff", "a.rec"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "cannot-compare exits 2");
    assert!(stderr_of(&out).contains("requires two .rec file arguments"));
}

#[test]
fn replay_diff_exits_2_on_unreadable_recording() {
    let missing = tmp("missing.rec");
    let out = terra()
        .args([
            "replay-diff",
            missing.to_str().unwrap(),
            missing.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
}

/// The full loop: record a run, verify the file header and determinism,
/// replay it clean, and replay-diff it against itself with zero divergences.
#[test]
fn record_replay_diff_happy_path() {
    let script = tmp("prog.t");
    std::fs::write(
        &script,
        r#"
local std = terralib.includec("stdlib.h")
local io = terralib.includec("stdio.h")
terra prog(n : int) : int
  var buf = [&int64](std.malloc(n * 8))
  var s : int64 = 0
  for i = 0, n do buf[i] = i * i end
  for i = 0, n do s = s + buf[i] end
  std.free(buf)
  io.printf("s=%lld\n", s)
  return 0
end
prog(64)
"#,
    )
    .unwrap();
    let rec_a = tmp("a.rec");
    let rec_b = tmp("b.rec");

    // Record twice; both runs must succeed and produce byte-identical files.
    for rec in [&rec_a, &rec_b] {
        let out = terra()
            .args([
                &format!("--record={}", rec.display()),
                script.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", stderr_of(&out));
        assert!(
            stderr_of(&out).contains("wrote recording"),
            "{}",
            stderr_of(&out)
        );
    }
    let text_a = std::fs::read_to_string(&rec_a).unwrap();
    let text_b = std::fs::read_to_string(&rec_b).unwrap();
    assert!(
        text_a.starts_with("#terra-rec v2\n"),
        "format_version header first: {}",
        &text_a[..text_a.len().min(80)]
    );
    assert_eq!(text_a, text_b, "recordings must be byte-stable across runs");

    // Replay verifies clean (exit 0).
    let out = terra()
        .args([&format!("--replay={}", rec_a.display())])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("verified"), "{}", stderr_of(&out));

    // replay-diff of a recording against itself: zero divergences, exit 0.
    let out = terra()
        .args([
            "replay-diff",
            rec_a.to_str().unwrap(),
            rec_b.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 divergences"), "{stdout}");

    std::fs::remove_file(&script).ok();
    std::fs::remove_file(&rec_a).ok();
    std::fs::remove_file(&rec_b).ok();
}
