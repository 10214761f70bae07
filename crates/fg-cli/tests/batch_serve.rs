//! End-to-end tests of the `--jobs` pooled batch driver and the
//! `fg serve` / `fg rpc` daemon pair (DESIGN.md §12).

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

/// Figure 5, the everything-works corpus entry: checks to `int`.
const GOOD: &str = "
    concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
    model Semigroup<int> { binary_op = iadd; } in
    Semigroup<int>.binary_op(1, 2)
";

/// A program with a type error: a diagnostic (exit 1), not a crash.
const BAD: &str = "
    concept C<t> { op : t; } in
    (biglam u where C<u>. 0)[int]
";

/// Ω: runs until a cap stops it, on the VM without deepening the stack,
/// so under `--timeout-ms 1` the deadline is what stops it.
const OMEGA: &str = "(fix f: fn(int) -> int. lam x: int. f(x))(0)";

fn run_fg(args: &[&str], stdin: &str) -> (String, String, i32) {
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

/// Writes `source` under a unique name in the cargo-managed temp dir
/// and returns the path.
fn temp_file(name: &str, source: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, source).expect("write temp source");
    path
}

// ---------------------------------------------------------------------
// --jobs batches
// ---------------------------------------------------------------------

/// Worst-code-wins over a mixed good/diagnostic batch, with every
/// file's output present and in input order.
#[test]
fn jobs_batch_mixed_corpus_exit_code_contract() {
    let good = temp_file("batch_good.fg", GOOD);
    let bad = temp_file("batch_bad.fg", BAD);
    let (stdout, stderr, code) = run_fg(
        &["--jobs", "2", "check", &good, &bad, &good],
        "",
    );
    assert_eq!(code, 1, "diagnostic beats success: {stderr}");
    assert_eq!(
        stdout.lines().filter(|l| l.trim() == "int").count(),
        2,
        "both good files must print their type: {stdout}"
    );
    assert!(
        stderr.contains("no model for `C<int>`"),
        "the bad file's diagnostic must be reported: {stderr}"
    );
}

/// A usage-level outcome stays intact under --jobs: unreadable files
/// are diagnostics, deterministic and per-file.
#[test]
fn jobs_batch_reports_unreadable_files() {
    let good = temp_file("batch_readable.fg", GOOD);
    let (stdout, stderr, code) = run_fg(
        &["--jobs", "2", "check", "/nonexistent/missing.fg", &good],
        "",
    );
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("cannot read /nonexistent/missing.fg"), "{stderr}");
    assert!(stdout.contains("int"), "the readable file still runs: {stdout}");
}

/// One worker's injected panic is isolated: the batch finishes, the
/// other files print their results, and the worst code is 3.
#[test]
fn jobs_batch_isolates_an_injected_crash() {
    let good = temp_file("batch_crashy_sibling.fg", GOOD);
    let (stdout, stderr, code) = run_fg(
        &[
            "--jobs",
            "2",
            "--inject-fault",
            "check.expr@1:panic",
            "check",
            &good,
            &good,
            &good,
        ],
        "",
    );
    // The fault plan arms one panic at the first check.expr visit;
    // under parallel dispatch *which* file trips it is scheduling-
    // dependent, but exactly one does and the rest must complete.
    assert_eq!(code, 3, "caught crash is the worst code: {stderr}");
    assert_eq!(
        stdout.lines().filter(|l| l.trim() == "int").count(),
        2,
        "the two unfaulted files still complete: {stdout}\n{stderr}"
    );
    assert!(stderr.contains("pipeline crashed"), "{stderr}");
}

/// Batch output is byte-identical run to run — the deterministic-
/// ordering contract, exercised with files whose types differ.
#[test]
fn jobs_batch_output_is_deterministic() {
    let a = temp_file("batch_det_a.fg", GOOD);
    let b = temp_file("batch_det_b.fg", "lam x: int. x");
    let c = temp_file("batch_det_c.fg", "true");
    let args = ["--jobs", "4", "check", &a, &b, &c, &a];
    let (first, _, code) = run_fg(&args, "");
    assert_eq!(code, 0);
    assert_eq!(
        first.lines().collect::<Vec<_>>(),
        vec!["int", "fn(int) -> int", "bool", "int"],
        "results print in input order: {first}"
    );
    for _ in 0..3 {
        let (again, _, _) = run_fg(&args, "");
        assert_eq!(again, first, "output must not depend on scheduling");
    }
}

/// The merged batch report carries the pool.* counter group, and a
/// repeated identical file is a recorded compile-cache hit.
#[test]
fn jobs_batch_metrics_merge_and_count_cache_hits() {
    let dup = temp_file("batch_dup.fg", GOOD);
    let metrics_path = format!("{}/batch_metrics.json", env!("CARGO_TARGET_TMPDIR"));
    // --jobs 1: the two identical files run sequentially on one
    // worker, so the second is deterministically a cache hit.
    let (_, stderr, code) = run_fg(
        &["--jobs", "1", "--metrics-json", &metrics_path, "check", &dup, &dup],
        "",
    );
    assert_eq!(code, 0, "{stderr}");
    let doc = std::fs::read_to_string(&metrics_path).expect("metrics written");
    let json = telemetry::json::Json::parse(&doc).expect("fg-metrics/1 parses");
    assert_eq!(
        json.get("schema").and_then(telemetry::json::Json::as_str),
        Some("fg-metrics/1")
    );
    let pool = json.get("counters").and_then(|c| c.get("pool")).expect("pool group");
    let counter = |key: &str| pool.get(key).and_then(telemetry::json::Json::as_i64);
    assert_eq!(counter("workers"), Some(1));
    assert_eq!(counter("jobs"), Some(2));
    assert_eq!(counter("cache_hits"), Some(1), "second identical file hits");
    assert_eq!(counter("cache_misses"), Some(1));
    assert_eq!(counter("panics"), Some(0));
    assert!(counter("worker0_busy_ns").unwrap_or(0) > 0, "busy time recorded");
    // The per-file check counters merged (two files' worth).
    let check = json.get("counters").and_then(|c| c.get("check")).expect("check group");
    assert!(
        check.get("model_lookups").and_then(telemetry::json::Json::as_i64) >= Some(1),
        "per-file metrics merged into the batch report"
    );
}

/// A deadline outcome is not cached: the second of two identical files
/// that both run out of time is run again, not replayed.
#[test]
fn jobs_batch_does_not_cache_deadline_trips() {
    let omega = temp_file("batch_omega.fg", OMEGA);
    let metrics_path = format!("{}/batch_omega_metrics.json", env!("CARGO_TARGET_TMPDIR"));
    let mut args = vec!["--jobs", "1", "--timeout-ms", "1", "--metrics-json"];
    args.extend([metrics_path.as_str(), "vm", &omega, &omega]);
    let (_, stderr, code) = run_fg(&args, "");
    assert_eq!(code, 1, "{stderr}");
    let trips = stderr.matches("deadline of 1 ms exceeded").count();
    assert_eq!(trips, 2, "{stderr}");
    let doc = std::fs::read_to_string(&metrics_path).expect("metrics written");
    let json = telemetry::json::Json::parse(&doc).expect("fg-metrics/1 parses");
    let pool = json.get("counters").and_then(|c| c.get("pool"));
    let counter = |key: &str| pool?.get(key)?.as_i64();
    // A deadline outcome is never replayed.
    assert_eq!(counter("cache_hits"), Some(0));
    assert_eq!(counter("cache_misses"), Some(2));
}

/// The top-level `examples/*.fg` programs, in name order.
fn examples() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("read examples")
        .map(|entry| entry.expect("examples entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "fg"))
        .map(|path| path.display().to_string())
        .collect();
    files.sort();
    assert!(files.len() >= 2, "a batch needs two files: {files:?}");
    files
}

/// Prelude bodies that declare models, so their translations name
/// dictionaries of their own after the prelude's.
const MODEL_BODIES: [&str; 3] = [
    "model Monoid<int> { identity_elt = 7; } in accumulate[int](range(1, 4))",
    "model Semigroup<int> { binary_op = imult; } in \
     model Monoid<int> { identity_elt = 1; } in accumulate[int](range(1, 5))",
    "model LessThanComparable<int> { less = lam a: int, b: int. ilt(b, a); } in \
     min_element[list int](cons[int](4, cons[int](2, nil[int])))",
];

/// Asserts that `fg <flags> --jobs <n> <cmd> files…` prints, for every
/// `n`, exactly what `fg <flags> <cmd> file` prints for each file in
/// turn: generated names do not depend on what a worker compiled before.
fn assert_batches_print_one_shot_output(flags: &[&str], files: &[String]) {
    for cmd in ["translate", "elaborate", "explain"] {
        let mut one_shot = (String::new(), String::new());
        for file in files {
            let args: Vec<&str> = flags.iter().copied().chain([cmd, file.as_str()]).collect();
            let (stdout, stderr, code) = run_fg(&args, "");
            assert_eq!(code, 0, "{args:?}: {stderr}");
            one_shot.0 += &stdout;
            one_shot.1 += &stderr;
        }
        for jobs in ["1", "2"] {
            let mut args: Vec<&str> = flags.to_vec();
            args.extend(["--jobs", jobs, cmd]);
            args.extend(files.iter().map(String::as_str));
            let (stdout, stderr, code) = run_fg(&args, "");
            assert_eq!(code, 0, "{args:?}: {stderr}");
            assert_eq!((stdout, stderr), one_shot, "{args:?}");
        }
    }
}

/// A batch of the examples prints each file's one-shot output.
#[test]
fn jobs_batches_print_each_examples_one_shot_output() {
    assert_batches_print_one_shot_output(&[], &examples());
}

/// A `--prelude` batch prints each body's one-shot output. With one
/// worker, the second body is the request that builds the prelude
/// snapshot and the third is checked against it.
#[test]
fn prelude_batches_print_each_bodys_one_shot_output() {
    let files: Vec<String> = MODEL_BODIES
        .iter()
        .enumerate()
        .map(|(i, body)| temp_file(&format!("batch_model_body_{i}.fg"), body))
        .collect();
    assert_batches_print_one_shot_output(&["--prelude"], &files);
}

// ---------------------------------------------------------------------
// fg serve / fg rpc
// ---------------------------------------------------------------------

/// A serve daemon bound to an ephemeral port, killed on drop so a
/// failing test cannot leak the process.
struct ServeGuard {
    child: Child,
    addr: String,
}

impl ServeGuard {
    fn spawn() -> ServeGuard {
        ServeGuard::spawn_with(&[])
    }

    /// Spawns a daemon with global `flags` (caps, `--prelude`) before
    /// the `serve` subcommand.
    fn spawn_with(flags: &[&str]) -> ServeGuard {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fg"))
            .args(flags)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn fg serve");
        // The daemon's one startup line announces the bound address.
        let mut line = String::new();
        BufReader::new(child.stdout.as_mut().unwrap())
            .read_line(&mut line)
            .expect("read serve banner");
        let addr = line
            .trim()
            .strip_prefix("fg: serving fg-rpc/1 on ")
            .unwrap_or_else(|| panic!("unexpected banner: {line}"))
            .to_owned();
        ServeGuard { child, addr }
    }

    /// Sends one request via the `fg rpc` client and returns its
    /// parsed response plus the client's exit code.
    fn rpc(&self, method: &str, file: Option<&str>) -> (telemetry::json::Json, i32) {
        let mut args = vec!["rpc", "--addr", self.addr.as_str(), method];
        if let Some(f) = file {
            args.push(f);
        }
        let (stdout, stderr, code) = run_fg(&args, "");
        let line = stdout.lines().next().unwrap_or_else(|| {
            panic!("no response line: stdout={stdout} stderr={stderr}")
        });
        (
            telemetry::json::Json::parse(line).expect("response is JSON"),
            code,
        )
    }

    /// Asks the daemon to shut down and asserts the clean-exit
    /// contract (exit 0).
    fn shutdown(mut self) {
        let (resp, code) = self.rpc("shutdown", None);
        assert_eq!(code, 0, "shutdown rpc maps exit 0");
        assert_eq!(resp.get("ok"), Some(&telemetry::json::Json::Bool(true)));
        let status = self.child.wait().expect("serve exits");
        assert_eq!(status.code(), Some(0), "clean shutdown exits 0");
        // Disarm the drop-kill: the child is already gone.
        std::mem::forget(self);
    }
}

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn as_str<'j>(v: &'j telemetry::json::Json, key: &str) -> &'j str {
    v.get(key).and_then(telemetry::json::Json::as_str).unwrap_or("")
}

/// Round trip: check over the wire, repeat for a recorded cache hit,
/// observe it in `stats`, shut down cleanly.
#[test]
fn serve_round_trip_cache_hit_and_clean_shutdown() {
    let file = temp_file("serve_good.fg", GOOD);
    let daemon = ServeGuard::spawn();

    let (resp, code) = daemon.rpc("check", Some(&file));
    assert_eq!(code, 0);
    assert_eq!(resp.get("ok"), Some(&telemetry::json::Json::Bool(true)));
    assert_eq!(resp.get("cached"), Some(&telemetry::json::Json::Bool(false)));
    assert_eq!(as_str(&resp, "output"), "int\n");

    let (resp, code) = daemon.rpc("check", Some(&file));
    assert_eq!(code, 0);
    assert_eq!(
        resp.get("cached"),
        Some(&telemetry::json::Json::Bool(true)),
        "identical request replays from the compile cache"
    );
    assert_eq!(as_str(&resp, "output"), "int\n");

    let (stats, _) = daemon.rpc("stats", None);
    let doc = telemetry::json::Json::parse(as_str(&stats, "output"))
        .expect("stats payload is fg-metrics/1");
    let pool = doc.get("counters").and_then(|c| c.get("pool")).expect("pool group");
    assert_eq!(
        pool.get("cache_hits").and_then(telemetry::json::Json::as_i64),
        Some(1),
        "the hit is a recorded pool.cache_hits metric"
    );

    daemon.shutdown();
}

/// A deadline trip depends on the clock, not on the request, so the
/// daemon answers it but does not cache it: the same slow request sent
/// again is run again.
#[test]
fn serve_does_not_cache_deadline_trips() {
    let omega = temp_file("serve_omega.fg", OMEGA);
    let daemon = ServeGuard::spawn_with(&["--timeout-ms", "1"]);
    for attempt in 0..2 {
        let (resp, code) = daemon.rpc("vm", Some(&omega));
        assert_eq!(code, 1, "attempt {attempt}");
        assert!(
            as_str(&resp, "diagnostics").contains("deadline of 1 ms exceeded"),
            "attempt {attempt}: {}",
            as_str(&resp, "diagnostics")
        );
        assert_eq!(
            resp.get("cached"),
            Some(&telemetry::json::Json::Bool(false)),
            "attempt {attempt}: a deadline outcome is never replayed"
        );
    }
    daemon.shutdown();
}

/// Diagnostics travel over the wire with the exit-code contract: a
/// type error is ok=false / exit=1, and the client exits 1.
#[test]
fn serve_reports_diagnostics_with_exit_one() {
    let file = temp_file("serve_bad.fg", BAD);
    let daemon = ServeGuard::spawn();
    let (resp, code) = daemon.rpc("check", Some(&file));
    assert_eq!(code, 1, "client mirrors the diagnostic exit");
    assert_eq!(resp.get("ok"), Some(&telemetry::json::Json::Bool(false)));
    assert_eq!(resp.get("exit"), Some(&telemetry::json::Json::Int(1)));
    assert!(
        as_str(&resp, "diagnostics").contains("no model for `C<int>`"),
        "diagnostics carried in the response"
    );
    daemon.shutdown();
}

/// Editing a source invalidates its cache entry: the daemon re-checks
/// the paper's Figure 6 after an edit and serves the *new* outcome.
#[test]
fn serve_cache_invalidates_when_fig6_is_edited() {
    let fig6 = fg::corpus::FIG6_OVERLAPPING.source;
    let file = temp_file("serve_fig6.fg", fig6);
    let daemon = ServeGuard::spawn();

    let (resp, _) = daemon.rpc("run", Some(&file));
    assert_eq!(as_str(&resp, "output"), "302\n", "Figure 6 evaluates to 302");
    let (resp, _) = daemon.rpc("run", Some(&file));
    assert_eq!(resp.get("cached"), Some(&telemetry::json::Json::Bool(true)));

    // Edit the program (100 -> 1000 in the final expression): the
    // content hash moves, so the stale entry must not be served.
    let edited = fig6.replace("iadd(imult(100, sum(ls)), product(ls))",
                              "iadd(imult(1000, sum(ls)), product(ls))");
    assert_ne!(edited, fig6, "the edit must change the source");
    std::fs::write(&file, &edited).unwrap();
    let (resp, code) = daemon.rpc("run", Some(&file));
    assert_eq!(code, 0);
    assert_eq!(
        resp.get("cached"),
        Some(&telemetry::json::Json::Bool(false)),
        "edited source is a cache miss"
    );
    assert_eq!(as_str(&resp, "output"), "3002\n", "the new outcome is served");

    daemon.shutdown();
}

/// What the daemon answers does not depend on what it compiled before:
/// translating Figure 5 after running Figure 6 sends what a fresh
/// `fg translate` prints.
#[test]
fn serve_translates_like_a_fresh_fg_after_other_requests() {
    let fig5 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fig5_accumulate.fg");
    let fig6 = temp_file("serve_names_fig6.fg", fg::corpus::FIG6_OVERLAPPING.source);
    let (fresh, stderr, code) = run_fg(&["translate", fig5], "");
    assert_eq!(code, 0, "{stderr}");
    let daemon = ServeGuard::spawn();
    let (resp, code) = daemon.rpc("run", Some(&fig6));
    assert_eq!((code, as_str(&resp, "output")), (0, "302\n"));
    let (resp, code) = daemon.rpc("translate", Some(fig5));
    assert_eq!(code, 0);
    assert_eq!(as_str(&resp, "output"), fresh);
    daemon.shutdown();
}

/// Malformed requests get a protocol error response; the daemon keeps
/// serving on the same connection.
#[test]
fn serve_rejects_malformed_requests_and_keeps_serving() {
    use std::net::TcpStream;
    let daemon = ServeGuard::spawn();
    let stream = TcpStream::connect(&daemon.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    for (request, want_error) in [
        ("this is not json", true),
        (r#"{"v":"fg-rpc/9","id":1,"method":"check","source":"true"}"#, true),
        (r#"{"v":"fg-rpc/1","id":2,"method":"frobnicate"}"#, true),
        (r#"{"v":"fg-rpc/1","id":3,"method":"check"}"#, true),
        (r#"{"v":"fg-rpc/1","id":4,"method":"check","source":"true"}"#, false),
    ] {
        writeln!(writer, "{request}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = telemetry::json::Json::parse(line.trim()).expect("response is JSON");
        if want_error {
            assert_eq!(resp.get("ok"), Some(&telemetry::json::Json::Bool(false)), "{line}");
            assert!(resp.get("error").is_some(), "{line}");
        } else {
            assert_eq!(resp.get("ok"), Some(&telemetry::json::Json::Bool(true)), "{line}");
            assert_eq!(as_str(&resp, "output"), "bool\n");
        }
    }
    // Connections are accepted sequentially: close this one so the
    // shutdown client's connect can be served.
    drop(reader);
    drop(writer);
    daemon.shutdown();
}

/// `--help` exits 0 and documents every user-facing surface this PR
/// adds (the ci.sh lint stage greps README's flag table against it).
#[test]
fn help_exits_zero_and_mentions_the_new_surfaces() {
    let (stdout, _, code) = run_fg(&["--help"], "");
    assert_eq!(code, 0);
    for needle in ["--jobs", "serve", "rpc", "--prelude", "--inject-fault"] {
        assert!(stdout.contains(needle), "help must mention {needle}: {stdout}");
    }
}
