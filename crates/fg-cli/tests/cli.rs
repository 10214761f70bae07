//! End-to-end tests of the `fg` binary.

use std::io::Write;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

const FIG5: &str = "
    concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
    concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
    let accumulate = biglam t where Monoid<t>.
        fix accum: fn(list t) -> t.
          lam ls: list t.
            if null[t](ls) then Monoid<t>.identity_elt
            else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))
    in
    model Semigroup<int> { binary_op = iadd; } in
    model Monoid<int> { identity_elt = 0; } in
    accumulate[int](cons[int](1, cons[int](2, nil[int])))
";

fn run_fg(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fg"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fg");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn run_subcommand_evaluates() {
    let (stdout, stderr, ok) = run_fg(&["run", "-"], FIG5);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.trim(), "3");
}

#[test]
fn direct_subcommand_evaluates() {
    let (stdout, _, ok) = run_fg(&["direct", "-"], FIG5);
    assert!(ok);
    assert_eq!(stdout.trim(), "3");
}

#[test]
fn check_subcommand_prints_the_type() {
    let (stdout, _, ok) = run_fg(&["check", "-"], FIG5);
    assert!(ok);
    assert_eq!(stdout.trim(), "int");
    let (stdout, _, ok) = run_fg(
        &["check", "-"],
        "biglam t. lam x: t, y: int. x",
    );
    assert!(ok);
    assert_eq!(stdout.trim(), "forall t. fn(t, int) -> t");
}

#[test]
fn translate_subcommand_prints_system_f() {
    let (stdout, _, ok) = run_fg(&["translate", "-"], FIG5);
    assert!(ok);
    assert!(stdout.contains("biglam t. lam Monoid_"), "{stdout}");
    // The output must itself be valid System F of the right type.
    let term = system_f::parse_term(&stdout).expect("translation parses");
    assert_eq!(system_f::typecheck(&term), Ok(system_f::Ty::Int));
    assert_eq!(system_f::eval(&term).unwrap(), system_f::Value::Int(3));
}

#[test]
fn vm_subcommand_evaluates() {
    let (stdout, stderr, ok) = run_fg(&["vm", "-"], FIG5);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.trim(), "3");
}

#[test]
fn repl_smoke() {
    let (stdout, _, ok) = run_fg(
        &["repl"],
        "let x = 40
iadd(x, 2)
:type x
:quit
",
    );
    assert!(ok);
    assert!(stdout.contains("defined (let)"), "{stdout}");
    assert!(stdout.contains("42 : int"), "{stdout}");
    assert!(stdout.contains("int"), "{stdout}");
}

#[test]
fn fmt_subcommand_reformats() {
    let (stdout, _, ok) = run_fg(&["fmt", "-"], FIG5);
    assert!(ok);
    assert!(stdout.contains("concept Semigroup<t> {\n"), "{stdout}");
    // The formatted output still runs.
    let (out2, _, ok2) = run_fg(&["run", "-"], &stdout);
    assert!(ok2);
    assert_eq!(out2.trim(), "3");
}

#[test]
fn bytecode_subcommand_disassembles() {
    let (stdout, _, ok) = run_fg(&["bytecode", "-"], FIG5);
    assert!(ok);
    assert!(stdout.contains("fn f0"), "{stdout}");
    assert!(stdout.contains("closure"), "{stdout}");
}

#[test]
fn prelude_flag_provides_the_stdlib() {
    let (stdout, stderr, ok) = run_fg(
        &["--prelude", "run", "-"],
        "accumulate[int](range(1, 101))",
    );
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.trim(), "5050");
}

#[test]
fn type_errors_are_reported_with_position() {
    let (_, stderr, ok) = run_fg(
        &["check", "-"],
        "concept A<t> { op : t; } in\nA<int>.op",
    );
    assert!(!ok);
    assert!(
        stderr.contains("no model for `A<int>`"),
        "unhelpful error: {stderr}"
    );
    // Line:column rendering from CheckError::render.
    assert!(stderr.contains("2:"), "missing position: {stderr}");
}

#[test]
fn parse_errors_fail_cleanly() {
    let (_, stderr, ok) = run_fg(&["run", "-"], "lam x int. x");
    assert!(!ok);
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn usage_on_bad_invocation() {
    let (_, stderr, ok) = run_fg(&["frobnicate", "-"], "");
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

/// Every key the `fg-metrics/1` schema promises for a `vm` invocation.
/// Downstream tooling (benches, EXPERIMENTS.md scripts) parses these
/// names, so renaming or dropping one is a breaking change — update the
/// schema version in the `telemetry` crate if this test has to change.
#[test]
fn metrics_json_schema_is_stable() {
    let (stdout, stderr, ok) = run_fg(&["vm", "--metrics-json", "-", "-"], FIG5);
    assert!(ok, "stderr: {stderr}");
    // The value line comes first, then the JSON document.
    let (value, json) = stdout.split_once('\n').expect("value line + json");
    assert_eq!(value.trim(), "3");
    assert!(json.trim_start().starts_with('{'), "not a json object: {json}");
    assert!(json.trim_end().ends_with('}'), "unterminated json: {json}");
    for key in [
        "\"schema\": \"fg-metrics/1\"",
        "\"command\": \"vm\"",
        "\"source\": \"-\"",
        "\"phases_ns\"",
        "\"counters\"",
    ] {
        assert!(json.contains(key), "missing {key} in: {json}");
    }
    for phase in ["parse", "check_translate", "vm_compile", "vm_run"] {
        assert!(json.contains(&format!("\"{phase}\": ")), "missing phase {phase}: {json}");
    }
    for group in ["\"check\": {", "\"congruence\": {", "\"vm_dispatch\": {", "\"limits\": {"] {
        assert!(json.contains(group), "missing group {group}: {json}");
    }
    for counter in [
        // check group
        "model_lookups", "model_hits", "model_misses", "candidates_scanned",
        "max_scope_depth", "dicts_built", "dict_instantiations",
        // congruence group
        "eq_queries", "assertions", "resolves", "merges", "unions", "finds",
        "terms", "term_bank_peak",
        // vm_dispatch group: the instruction total, every opcode, gauges
        "instructions", "max_frame_depth", "max_stack_depth",
        // limits group: resource-budget consumption gauges
        "fuel_spent", "depth_peak", "cc_terms", "dict_nodes", "elapsed_ms",
    ] {
        assert!(json.contains(&format!("\"{counter}\": ")), "missing counter {counter}");
    }
    for opcode in system_f::vm::OPCODE_NAMES {
        assert!(json.contains(&format!("\"{opcode}\": ")), "missing opcode {opcode}");
    }
}

#[test]
fn metrics_json_writes_to_a_file() {
    let path = format!(
        "{}/metrics-{}.json",
        env!("CARGO_TARGET_TMPDIR"),
        std::process::id()
    );
    let (stdout, stderr, ok) = run_fg(&["direct", "--metrics-json", &path, "-"], FIG5);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.trim(), "3");
    let json = std::fs::read_to_string(&path).expect("metrics file written");
    std::fs::remove_file(&path).ok();
    assert!(json.contains("\"schema\": \"fg-metrics/1\""), "{json}");
    assert!(json.contains("\"command\": \"direct\""), "{json}");
    // The direct lane reports its runtime counters.
    assert!(json.contains("\"direct_eval\": {"), "{json}");
    assert!(json.contains("\"eval_steps\": "), "{json}");
}

/// The `fg-trace/1` JSONL contract: a header object naming the schema,
/// command, and source, followed by one event object per line, each with
/// the `ev`/`span`/`name`/`ts_ns` keys and balanced begin/end pairs.
#[test]
fn trace_flag_writes_fg_trace_jsonl() {
    let path = format!(
        "{}/trace-{}.jsonl",
        env!("CARGO_TARGET_TMPDIR"),
        std::process::id()
    );
    let (stdout, stderr, ok) = run_fg(&["check", "--trace", &path, "-"], FIG5);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.trim(), "int", "tracing must not pollute stdout");
    let jsonl = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    let mut lines = jsonl.lines();
    let header = lines.next().expect("header line");
    for key in [
        "\"schema\":\"fg-trace/1\"",
        "\"command\":\"check\"",
        "\"source\":\"-\"",
        "\"events\":",
        "\"dropped\":0",
    ] {
        assert!(header.contains(key), "missing {key} in header: {header}");
    }
    let (mut begins, mut ends, mut total) = (0, 0, 0);
    for line in lines {
        total += 1;
        assert!(
            line.starts_with("{\"ev\":\"") && line.ends_with('}'),
            "not an event object: {line}"
        );
        for key in ["\"span\":", "\"name\":", "\"ts_ns\":"] {
            assert!(line.contains(key), "missing {key} in event: {line}");
        }
        if line.starts_with("{\"ev\":\"begin\"") {
            begins += 1;
        } else if line.starts_with("{\"ev\":\"end\"") {
            ends += 1;
        }
    }
    assert!(header.contains(&format!("\"events\":{total}")), "{header}");
    assert_eq!(begins, ends, "unbalanced spans in:\n{jsonl}");
    // The check lane traced actual resolution work, not just the phases.
    assert!(jsonl.contains("\"name\":\"model_resolve\""), "{jsonl}");
    assert!(jsonl.contains("\"name\":\"model_selected\""), "{jsonl}");
}

#[test]
fn trace_chrome_flag_writes_trace_event_json() {
    let (stdout, stderr, ok) = run_fg(&["run", "--trace-chrome", "-", "-"], FIG5);
    assert!(ok, "stderr: {stderr}");
    // The value line comes first, then the Chrome trace JSON document.
    let (value, json) = stdout.split_once('\n').expect("value line + json");
    assert_eq!(value.trim(), "3");
    assert!(json.trim_start().starts_with('{'), "not a json object: {json}");
    assert!(json.contains("\"displayTimeUnit\":\"ns\""), "{json}");
    assert!(json.contains("\"traceEvents\":["), "{json}");
    for needle in ["\"ph\":\"B\"", "\"ph\":\"E\"", "\"name\":\"parse\""] {
        assert!(json.contains(needle), "missing {needle} in: {json}");
    }
}

/// The headline acceptance scenario: on the Fig. 6 overlapping-models
/// program, `fg explain` must name, for each of the two call sites, the
/// distinct lexically scoped model that was selected.
#[test]
fn explain_subcommand_names_both_scoped_models_on_fig6() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/fig6_overlapping.fg"
    );
    let (stdout, stderr, ok) = run_fg(&["explain", path], "");
    assert!(ok, "stderr: {stderr}");
    for needle in [
        // First arm: the call at 16:3 selects the model declared at 15:3.
        "instantiation <int> at 16:3",
        "selected #1: model Monoid<int> declared at 15:3",
        // Second arm: the call at 21:3 selects the model declared at 20:3.
        "instantiation <int> at 21:3",
        "selected #1: model Monoid<int> declared at 20:3",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
    // The decision trees show the resolution sites and scope depths.
    assert!(
        stdout.contains("resolve Monoid<int> (site instantiate, 2 models in scope) -> hit"),
        "{stdout}"
    );
}

#[test]
fn profile_flag_prints_a_table_to_stderr() {
    let (stdout, stderr, ok) = run_fg(&["check", "--profile", "-"], FIG5);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.trim(), "int", "profiling must not pollute stdout");
    for needle in ["parse", "check_translate", "model_lookups", "dicts_built", "finds"] {
        assert!(stderr.contains(needle), "missing {needle} in table:\n{stderr}");
    }
}

/// Like [`run_fg`] but reports the raw exit code, for the crash-vs-
/// diagnostic contract (0 ok, 1 diagnostic, 2 usage, 3 caught crash).
fn run_fg_code(args: &[&str], stdin: &str) -> (String, String, i32) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fg"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fg");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

/// Budget exhaustion is a *diagnostic* (exit 1), lands in the `limits`
/// metrics group, and emits the `budget_exhausted` trace instant in the
/// fg-trace/1 vocabulary.
#[test]
fn budget_exhaustion_emits_trace_instant_and_limits_counters() {
    let trace = format!(
        "{}/trace-exhaust-{}.jsonl",
        env!("CARGO_TARGET_TMPDIR"),
        std::process::id()
    );
    let metrics = format!(
        "{}/metrics-exhaust-{}.json",
        env!("CARGO_TARGET_TMPDIR"),
        std::process::id()
    );
    let (_, stderr, code) = run_fg_code(
        &["check", "--fuel", "5", "--trace", &trace, "--metrics-json", &metrics, "-"],
        FIG5,
    );
    assert_eq!(code, 1, "exhaustion must be a diagnostic exit: {stderr}");
    assert!(
        stderr.contains("fuel budget of 5 exhausted"),
        "unstructured exhaustion report: {stderr}"
    );

    let jsonl = std::fs::read_to_string(&trace).expect("trace file written on the error path");
    std::fs::remove_file(&trace).ok();
    let instant = jsonl
        .lines()
        .find(|l| l.contains("\"name\":\"budget_exhausted\""))
        .unwrap_or_else(|| panic!("no budget_exhausted instant in:\n{jsonl}"));
    assert!(instant.contains("\"ev\":\"instant\""), "{instant}");
    assert!(instant.contains("\"resource\":\"fuel\""), "{instant}");
    assert!(instant.contains("\"limit\":5"), "{instant}");

    let json = std::fs::read_to_string(&metrics).expect("metrics written on the error path");
    std::fs::remove_file(&metrics).ok();
    assert!(json.contains("\"limits\": {"), "{json}");
    assert!(json.contains("\"exhausted\": 1"), "{json}");
    assert!(json.contains("\"fuel_spent\": "), "{json}");
}

/// An injected panic is *caught*: reported as an internal error with
/// exit 3, distinct from a diagnostic's exit 1.
#[test]
fn injected_panic_is_caught_with_a_crash_exit_code() {
    let (_, stderr, code) = run_fg_code(&["check", "--inject-fault", "check.expr:panic", "-"], FIG5);
    assert_eq!(code, 3, "caught crash must exit 3: {stderr}");
    assert!(
        stderr.contains("internal error") && stderr.contains("injected fault panic"),
        "crash not reported: {stderr}"
    );
}

/// A checker panic is a crash (exit 3) whatever the program's size: a
/// library-sized `--prelude` program is checked on the same thread as a
/// small one, so its panic is caught by the same boundary.
#[test]
fn injected_check_panic_exits_3_with_and_without_the_prelude() {
    let file = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/fig5_accumulate.fg"
    );
    for prelude in [false, true] {
        let mut args = vec!["--inject-fault", "check.expr@1:panic", "check", file];
        if prelude {
            args.insert(0, "--prelude");
        }
        let (_, stderr, code) = run_fg_code(&args, "");
        assert_eq!(
            code, 3,
            "prelude={prelude}: caught crash must exit 3: {stderr}"
        );
        assert!(
            stderr.contains("pipeline crashed") && stderr.contains("injected fault panic"),
            "prelude={prelude}: crash not reported: {stderr}"
        );
    }
}

/// Batch mode keeps serving after a crashing file and reports the worst
/// exit code across the batch.
#[test]
fn batch_mode_survives_a_crashing_file() {
    let good = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fig5_accumulate.fg");
    let (stdout, stderr, code) = run_fg_code(
        &["check", "--inject-fault", "check.expr@1:panic", good, good],
        "",
    );
    // The first file crashes on the injected fault; the plan is exhausted
    // (one arm), so the second file completes and prints its type.
    assert_eq!(code, 3, "worst code wins: {stderr}");
    assert!(stdout.contains("int"), "second file must still run: {stdout}\n{stderr}");
}

/// Every committed adversarial example dies as a structured diagnostic
/// (exit 1) under the default caps — never a crash, never a hang.
#[test]
fn adversarial_corpus_exits_with_diagnostics() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/adversarial");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("adversarial corpus present") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "fg") {
            continue;
        }
        seen += 1;
        let p = path.to_str().unwrap();
        let (_, stderr, code) = run_fg_code(&["run", p], "");
        assert_eq!(code, 1, "{p}: want a diagnostic exit, got {code}: {stderr}");
        assert!(!stderr.trim().is_empty(), "{p}: diagnostic must be reported");
    }
    assert!(seen >= 4, "expected at least 4 adversarial examples, saw {seen}");
}

/// Runs `cmd` over `body` as the middle file of a three-file `--jobs 1`
/// batch in a fresh process, once as a `--prelude` body and once spelled
/// out with the prelude in front, and asserts the two runs are
/// byte-identical (exit code included). A worker's first `--prelude`
/// request takes the full path; whichever end its one worker starts
/// from, the body is its second request and is checked against the
/// prelude snapshot. The other two files stop at a parse error, so they
/// mint no names and print nothing on stdout. Returns the body's stdout.
fn assert_prelude_body_matches_full_program(cmd: &str, body: &str) -> String {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let batch = |prelude: bool| {
        let wrap = |src: &str| {
            if prelude {
                src.to_owned()
            } else {
                fg::stdlib::with_prelude(src)
            }
        };
        let paths: Vec<String> = [("a", ")"), ("b", body), ("c", "))")]
            .iter()
            .map(|(name, src)| {
                let path = format!(
                    "{}/prelude-{}-{run}-{prelude}-{name}.fg",
                    env!("CARGO_TARGET_TMPDIR"),
                    std::process::id()
                );
                std::fs::write(&path, wrap(src)).expect("write source");
                path
            })
            .collect();
        let mut args = vec!["--jobs", "1", cmd];
        if prelude {
            args.insert(0, "--prelude");
        }
        args.extend(paths.iter().map(String::as_str));
        run_fg_code(&args, "")
    };
    let snapshot = batch(true);
    assert_eq!(snapshot, batch(false), "{cmd} on body {body:?}");
    snapshot.0
}

/// Generated names are numbered per compilation, and the snapshot mints
/// the prelude's names in the order the full check does, from the same
/// floor, so even `translate`, which prints every dictionary name,
/// matches the spelled-out program byte for byte.
#[test]
fn prelude_translate_matches_the_spelled_out_program() {
    for body in [
        "42",
        "accumulate[int](range(1, 4))",
        "model Monoid<int> { identity_elt = 7; } in accumulate[int](range(1, 4))",
        "concept Shape<t> { area : fn(t) -> int; } in \
         model Shape<int> { area = lam x: int. imult(x, x); } in Shape<int>.area(7)",
        "iadd(true, 1)",
        "let x = in 5",
        "accumulate[int](range(1, 4)) $",
    ] {
        assert_prelude_body_matches_full_program("translate", body);
    }
}

/// Hygiene: a body that binds a name the prelude's translation uses for
/// a dictionary must not capture that dictionary. The full check numbers
/// its generated names above the body's binder (the binder raises the
/// program's floor); the snapshot numbered its names before it saw the
/// body, so such a body must take the full path.
#[test]
fn a_body_binding_a_prelude_dictionary_name_does_not_capture_it() {
    let translation = assert_prelude_body_matches_full_program("translate", "42");
    let at = translation.find("Monoid_").expect("a Monoid dictionary");
    let digits: String = translation[at + "Monoid_".len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    assert!(!digits.is_empty(), "{translation}");
    let body = format!("let Monoid_{digits} = 5 in accumulate[int](range(1, 4))");
    for cmd in ["run", "vm", "direct"] {
        let out = assert_prelude_body_matches_full_program(cmd, &body);
        assert_eq!(out.trim(), "6", "{cmd}");
    }
}
