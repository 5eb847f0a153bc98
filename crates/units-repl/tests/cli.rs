//! End-to-end tests of the command-line driver.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn repl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_units-repl"))
}

fn run_expr(args: &[&str], expr: &str) -> (String, String, bool) {
    let output = repl().args(args).arg("-e").arg(expr).output().expect("binary runs");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.success(),
    )
}

#[test]
fn evaluates_an_expression() {
    let (stdout, _, ok) = run_expr(&[], "(invoke (unit (import) (export) (init (* 6 7))))");
    assert!(ok);
    assert_eq!(stdout.trim(), "42");
}

#[test]
fn prints_display_output_before_the_result() {
    let (stdout, _, ok) =
        run_expr(&[], "(invoke (unit (import) (export) (init (display \"hello\") 1)))");
    assert!(ok);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines, vec!["hello", "1"]);
}

#[test]
fn typed_levels_print_the_type() {
    let (stdout, _, ok) = run_expr(&["-l", "c"], "(invoke (unit (import) (export) (init 5)))");
    assert!(ok);
    assert!(stdout.contains(";; type: int"), "{stdout}");
}

#[test]
fn check_only_skips_evaluation() {
    let (stdout, _, ok) = run_expr(
        &["--check-only"],
        "(invoke (unit (import) (export) (init ((inst fail void) \"would boom\"))))",
    );
    assert!(ok);
    assert!(stdout.contains("checks passed"));
    assert!(!stdout.contains("boom"));
}

#[test]
fn check_errors_fail_with_a_message() {
    let (_, stderr, ok) = run_expr(&[], "(+ nope 1)");
    assert!(!ok);
    assert!(stderr.contains("unbound variable `nope`"), "{stderr}");
}

#[test]
fn runtime_errors_fail_with_a_message() {
    let (_, stderr, ok) = run_expr(&["--mzscheme"], "(/ 1 0)");
    assert!(!ok);
    assert!(stderr.contains("division by zero"), "{stderr}");
}

#[test]
fn reducer_backend_and_trace() {
    let (stdout, _, ok) = run_expr(&["-b", "reducer", "--trace", "2"], "(+ 1 (+ 2 3))");
    assert!(ok);
    assert!(stdout.contains(";; step   1:"), "{stdout}");
    assert!(stdout.trim_end().ends_with('6'), "{stdout}");
}

/// A store entry holds only the resolved term, in which this compound of
/// unit literals is flattened into one unit; a warm run must still
/// diagram and step the program as written.
#[test]
fn a_warm_cache_shows_the_program_as_written() {
    let program = "(invoke (compound (import) (export)
        (link ((unit (import) (export double) (define double (lambda (n) (* 2 n))) (init void))
               (with) (provides double))
              ((unit (import double) (export) (init (double 21)))
               (with double) (provides)))))";
    for (tag, flags) in
        [("diagram", &["--diagram"][..]), ("trace", &["-b", "reducer", "--trace", "3"])]
    {
        let dir = std::env::temp_dir().join(format!("units-repl-cli-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut args = vec!["--cache-dir", dir.to_str().unwrap()];
        args.extend_from_slice(flags);
        let cold = run_expr(&args, program);
        assert!(cold.2, "{}", cold.1);
        assert!(cold.0.trim_end().ends_with("42"), "{}", cold.0);
        let entries = std::fs::read_dir(&dir).unwrap().flatten();
        assert_eq!(
            entries.filter(|e| e.path().extension().is_some_and(|x| x == "unit")).count(),
            1
        );
        assert_eq!(run_expr(&args, program), cold, "{tag}: the warm run printed otherwise");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn fuel_limit_is_enforced() {
    let (_, stderr, ok) = run_expr(
        &["--mzscheme", "--fuel", "100"],
        "(letrec ((define loop (lambda () (loop)))) (loop))",
    );
    assert!(!ok);
    assert!(stderr.contains("fuel budget"), "{stderr}");
}

#[test]
fn reads_programs_from_files_and_stdin() {
    let dir = std::env::temp_dir().join(format!("units-repl-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("p.unit");
    std::fs::write(&path, "(define u (unit (import) (export) (init 7))) (invoke u)").unwrap();
    let output = repl().arg(&path).output().unwrap();
    assert!(output.status.success());
    assert_eq!(String::from_utf8_lossy(&output.stdout).trim(), "7");
    std::fs::remove_dir_all(&dir).unwrap();

    let mut child = repl().stdin(Stdio::piped()).stdout(Stdio::piped()).spawn().unwrap();
    child.stdin.as_mut().unwrap().write_all(b"(* 3 3)").unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "9");
}

/// Drives an interactive session over a pipe, returning (stdout, stderr).
fn run_session(script: &str) -> (String, String) {
    let mut child = repl()
        .arg("-i")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.as_mut().unwrap().write_all(script.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "interactive session must exit cleanly");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[cfg(feature = "faults")]
#[test]
fn repl_survives_injected_faults_and_panics() {
    // An error-kind fault fires on the first evaluation (rate 1000‰),
    // the session keeps going, and a clean evaluation still works.
    let (stdout, stderr) = run_session(
        ":faults 1 1000\n\
         (invoke (unit (import) (export) (init (* 6 7))))\n\
         :faults off\n\
         (invoke (unit (import) (export) (init (* 6 7))))\n\
         :quit\n",
    );
    assert!(stdout.contains("fault plane armed: seed 1"), "{stdout}");
    assert!(stderr.contains("injected fault at"), "{stderr}");
    assert!(stdout.contains("fault plane disarmed: "), "{stdout}");
    assert!(stdout.contains("42"), "the clean evaluation still answers: {stdout}");

    // A panic-kind fault is caught at the engine boundary, surfaces as
    // a typed internal error, and the loop survives it too.
    let (stdout, stderr) = run_session(
        ":faults 2 1000 panic\n\
         (invoke (unit (import) (export) (init (* 6 7))))\n\
         :faults off\n\
         (invoke (unit (import) (export) (init (* 6 7))))\n\
         :quit\n",
    );
    assert!(stderr.contains("internal error in"), "{stderr}");
    assert!(stderr.contains("injected panic at"), "{stderr}");
    assert!(stdout.contains("42"), "{stdout}");
}

#[cfg(not(feature = "faults"))]
#[test]
fn faults_command_explains_the_missing_feature() {
    let (stdout, _) = run_session(":faults 1\n:quit\n");
    assert!(stdout.contains("fault injection not compiled in"), "{stdout}");
}

#[test]
fn bytecode_backend_evaluates() {
    let (stdout, _, ok) = run_expr(
        &["-b", "bytecode"],
        "(invoke (unit (import) (export) (init (display \"vm\") (* 6 7))))",
    );
    assert!(ok);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines, vec!["vm", "42"]);
}

#[test]
fn backend_command_switches_and_reports() {
    let (stdout, _) = run_session(
        ":backend bytecode\n\
         (invoke (unit (import) (export) (init (+ 40 2))))\n\
         :backend\n\
         :quit\n",
    );
    assert!(stdout.contains("backend: bytecode"), "{stdout}");
    assert!(stdout.contains("42"), "{stdout}");
}

#[test]
fn disasm_prints_the_chunk_listing() {
    let (stdout, stderr) = run_session(
        ":disasm (invoke (unit (import) (export) (define f (lambda (x) (+ x 1))) (init (f 41))))\n\
         :quit\n",
    );
    assert!(stderr.is_empty(), "{stderr}");
    assert!(stdout.contains("chunk:"), "{stdout}");
    assert!(
        stdout.contains("consts:")
            || stdout.contains("invoke-unit")
            || stdout.contains("make-unit"),
        "{stdout}"
    );
    // The usage line appears when no program is given.
    let (stdout, _) = run_session(":disasm\n:quit\n");
    assert!(stdout.contains("usage: :disasm"), "{stdout}");
}

#[test]
fn metrics_command_reports_and_resets() {
    // The metrics plane is always on, so this holds in every build.
    let (stdout, _) = run_session(
        "(invoke (unit (import) (export) (init (* 6 7))))\n\
         :metrics\n\
         :metrics reset\n\
         :metrics\n\
         :quit\n",
    );
    assert!(stdout.contains("42"), "{stdout}");
    assert!(stdout.contains(";; runs:     1 total"), "{stdout}");
    assert!(stdout.contains("p50"), "{stdout}");
    assert!(stdout.contains(";; engine metrics reset"), "{stdout}");
    assert!(stdout.contains(";; runs:     0 total"), "{stdout}");
    assert!(stdout.contains(";; latency:  no runs timed yet"), "{stdout}");
}

#[test]
fn stats_states_whether_trace_is_compiled_in() {
    let (stdout, _) = run_session(":stats\n:quit\n");
    #[cfg(feature = "trace")]
    assert!(stdout.contains(";; trace feature: compiled in"), "{stdout}");
    #[cfg(not(feature = "trace"))]
    assert!(
        stdout.contains(";; trace feature: NOT compiled in (rebuild with --features trace)"),
        "{stdout}"
    );
    assert!(stdout.contains(";; engine cache:"), "{stdout}");
}

#[cfg(feature = "trace")]
#[test]
fn disasm_profile_annotates_execution_counts() {
    let (stdout, stderr) = run_session(
        ":disasm --profile (invoke (unit (import) (export) (define f (lambda (x) (+ x 1))) (init (f 41))))\n\
         :quit\n",
    );
    assert!(stderr.is_empty(), "{stderr}");
    assert!(stdout.contains("ran on bytecode backend: 42"), "{stdout}");
    assert!(stdout.contains("ops executed"), "{stdout}");
    assert!(stdout.contains("×"), "per-op counts annotated: {stdout}");
    assert!(stdout.contains(";; hottest ops:"), "{stdout}");
}

#[cfg(not(feature = "trace"))]
#[test]
fn disasm_profile_explains_the_missing_feature() {
    let (stdout, _) =
        run_session(":disasm --profile (invoke (unit (import) (export) (init 1)))\n:quit\n");
    assert!(stdout.contains("per-op counters need a build with --features trace"), "{stdout}");
    assert!(stdout.contains("chunk:"), "the plain listing still prints: {stdout}");
}

#[test]
fn flight_command_reports_absence() {
    let (stdout, _) = run_session(":flight\n:quit\n");
    #[cfg(feature = "trace")]
    assert!(stdout.contains(";; no flight-recorder dump"), "{stdout}");
    #[cfg(not(feature = "trace"))]
    assert!(stdout.contains("flight recorder needs a build with --features trace"), "{stdout}");
}

#[cfg(all(feature = "trace", feature = "faults"))]
#[test]
fn injected_fault_surfaces_a_flight_dump() {
    let (stdout, stderr) = run_session(
        ":faults 1 1000\n\
         (invoke (unit (import) (export) (init (* 6 7))))\n\
         :faults off\n\
         :flight\n\
         :quit\n",
    );
    assert!(stderr.contains("injected fault at"), "{stderr}");
    assert!(stdout.contains("flight recorder captured a post-mortem"), "{stdout}");
    assert!(stdout.contains(";; flight dump — "), "{stdout}");
    assert!(stdout.contains("\"flight\":\"dump\""), "{stdout}");
    assert!(stdout.contains("fault/fired"), "the dump names the trip: {stdout}");
}

#[test]
fn bad_flags_print_usage() {
    let output = repl().arg("--no-such-flag").output().unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"));
}
