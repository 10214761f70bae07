//! The prelude snapshot against the full path: a `--prelude` request
//! (`run_request(.., body, true, ..)`, which checks the body against
//! this thread's prelude snapshot whenever it may) must answer exactly
//! like the same program spelled out (`with_prelude(body)` with
//! `use_prelude = false`, which always parses and checks everything):
//! same exit code, stdout, stderr, and `check`, `congruence`, `intern`
//! and `limits` counters.
//!
//! Generated names belong to one compilation, so `translate` is compared
//! in-process too, however many requests a worker has answered before.

use std::sync::Mutex;

use fg::pipeline::{run_request, FaultPlan, Limits, RunOutput};
use fg::pool::WorkerPool;
use fg::stdlib::with_prelude;
use telemetry::trace::Tracer;

/// Armed fault plans are process-global state the snapshot path checks,
/// so the tests in this file run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// The commands that work on the checked program (`explain`, `ast` and
/// `fmt` always take the full path).
const COMMANDS: [&str; 7] = ["check", "translate", "run", "vm", "direct", "elaborate", "bytecode"];

/// Bodies that declare models of their own (whose dictionaries get
/// generated names) and then use prelude dictionaries. A name of the
/// body's that repeated one of the snapshot's would capture the prelude
/// dictionary the body goes on to use.
const MODEL_BODIES: &[&str] = &[
    "model Monoid<int> { identity_elt = 7; } in Semigroup<int>.binary_op(2, 3)",
    "model Monoid<int> { identity_elt = 7; } in EqualityComparable<int>.equal(1, 1)",
    "model Monoid<int> { identity_elt = 7; } in accumulate[int](range(1, 4))",
    "model Semigroup<int> { binary_op = imult; } in \
     model Monoid<int> { identity_elt = 1; } in \
     iadd(accumulate[int](range(1, 5)), Group<int>.inverse(3))",
    "model LessThanComparable<int> { less = lam a: int, b: int. ilt(b, a); } in \
     min_element[list int](cons[int](4, cons[int](2, nil[int])))",
];

/// The bodies of the prelude's own unit tests.
const STDLIB_BODIES: &[&str] = &[
    "accumulate[int](range(1, 5))",
    "it_accumulate[list int](range(1, 11))",
    "car[int](reverse[int](range(1, 4)))",
    "length[int](reverse[int](range(0, 7)))",
    "count_if[list int](range(0, 10), lam x: int. ilt(x, 3))",
    "all_of[list int](range(0, 10), lam x: int. ilt(x, 100))",
    "any_of[list int](range(0, 10), lam x: int. ilt(x, 0))",
    "min_element[list int](cons[int](4, cons[int](2, cons[int](9, nil[int]))))",
    "contains[list int](range(0, 5), 3)",
    "contains[list int](range(0, 5), 9)",
    "EqualityComparable<int>.not_equal(1, 2)",
    "LessThanComparable<int>.less_equal(2, 2)",
    "Group<int>.binary_op(Group<int>.inverse(5), Group<int>.identity_elt)",
    "length[int](range(3, 9))",
    "length[int](append[int](range(0, 3), range(0, 4)))",
    "length[int](accumulate[list int](cons[list int](range(0, 2), \
     cons[list int](range(0, 3), nil[list int]))))",
    "EqualityComparable<list int>.equal(range(0, 3), range(0, 3))",
    "EqualityComparable<list (list int)>.not_equal(nil[list int], \
     cons[list int](nil[int], nil[list int]))",
    "car[bool](reverse[bool](cons[bool](true, cons[bool](false, nil[bool]))))",
    "length[int](it_accumulate[list (list int)](cons[list int](range(0, 4), nil[list int])))",
    "
    let product =
      model Semigroup<int> { binary_op = imult; } in
      model Monoid<int> { identity_elt = 1; } in
      accumulate[int]
    in
    iadd(imult(100, accumulate[int](range(1, 4))), product(range(1, 4)))",
];

/// Shadowing models, user declarations, ill-typed bodies, and parse and
/// lex errors (at the body's first and last byte among them).
const EDGE_BODIES: &[&str] = &[
    "model Monoid<int> { identity_elt = 7; } in accumulate[int](range(1, 4))",
    "model Semigroup<int> { binary_op = imult; } in \
     model Monoid<int> { identity_elt = 1; } in accumulate[int](range(1, 5))",
    "concept Shape<t> { area : fn(t) -> int; } in \
     model Shape<int> { area = lam x: int. imult(x, x); } in Shape<int>.area(7)",
    "concept Monoid<t> { unit : t; } in model Monoid<bool> { unit = true; } in Monoid<bool>.unit",
    "type ints = list int in length[int](cons[int](1, nil[int]))",
    "let accumulate = 5 in iadd(accumulate, 1)",
    "42",
    "accumulate[bool](range(1, 4))",
    "iadd(true, 1)",
    "no_such_name",
    "Monoid<bool>.identity_elt",
    "model Monoid<bool> { identity_elt = true; } in 0",
    "let x = in 5",
    "iadd(1,",
    "",
    "1 2",
    ")",
    "$ accumulate[int](range(1, 4))",
    "accumulate[int](range(1, 4)) $",
    "accumulate[int](range(1, 4)) /*",
    "99999999999999999999",
];

/// Runs `f` on a one-worker pool: a pipeline-sized stack, and one thread
/// (so one snapshot) for every call the test makes through it.
fn on_worker<T: Send + 'static>(pool: &WorkerPool, f: impl FnOnce() -> T + Send + 'static) -> T {
    pool.run_one(f).expect("pipeline panicked")
}

/// The counter groups a snapshot run must reproduce, minus wall time.
fn counters(out: &RunOutput) -> Vec<(String, String, u64)> {
    let mut all = Vec::new();
    for (group, entries) in out.metrics.groups() {
        if !["check", "congruence", "intern", "limits"].contains(&group) {
            continue;
        }
        for (key, value) in entries {
            if key != "elapsed_ms" {
                all.push((group.to_owned(), key.clone(), *value));
            }
        }
    }
    all
}

/// Asserts that the snapshot path and the full path agree on `body`.
fn assert_same(pool: &WorkerPool, cmd: &str, body: &str, limits: Limits) {
    let (c, b) = (cmd.to_owned(), body.to_owned());
    let (snap, full) = on_worker(pool, move || {
        let tracer = Tracer::disabled();
        let snap = run_request(&c, "<t>", &b, true, limits, &tracer);
        let full = run_request(&c, "<t>", &with_prelude(&b), false, limits, &tracer);
        (snap, full)
    });
    let what = format!("{cmd} with {limits:?} on body {body:?}");
    assert_eq!(snap.code, full.code, "exit code: {what}");
    assert_eq!(snap.stdout, full.stdout, "stdout: {what}");
    assert_eq!(snap.stderr, full.stderr, "stderr: {what}");
    assert_eq!(counters(&snap), counters(&full), "counters: {what}");
}

/// Whether `limits` put requests on the snapshot path. Outputs and
/// counters cannot tell the paths apart, but the parse phase's time can:
/// the snapshot path parses the body alone, the full path the whole
/// prelude as well, hundreds of times as much text. Each side takes its
/// fastest of five runs. A thread's first `--prelude` request always
/// takes the full path, so the requests a test makes on `pool` after
/// this one can use the snapshot.
fn takes_snapshot(pool: &WorkerPool, limits: Limits) -> bool {
    on_worker(pool, move || {
        let parse_ns = |source: &str, use_prelude: bool| {
            (0..5)
                .map(|_| {
                    let out = run_request("check", "<t>", source, use_prelude, limits, &Tracer::disabled());
                    assert_eq!(out.code, 0, "{}", out.stderr);
                    out.metrics.phase_ns("parse").expect("the parse phase is timed")
                })
                .min()
                .expect("five runs")
        };
        let body = parse_ns("0", true);
        let full = parse_ns(&with_prelude("0"), false);
        body.saturating_mul(10) < full
    })
}

/// What checking `with_prelude("0")` consumes (one fuel unit more than
/// the prelude alone).
fn consumption_near_prelude(pool: &WorkerPool) -> [u64; 4] {
    on_worker(pool, || {
        let out = run_request(
            "check",
            "<t>",
            "0",
            true,
            Limits::DEFAULT_CAPS,
            &Tracer::disabled(),
        );
        ["fuel_spent", "depth_peak", "cc_terms", "dict_nodes"]
            .map(|key| out.metrics.counter("limits", key).expect(key))
    })
}

#[test]
fn snapshot_matches_full_check_on_stdlib_corpus_and_edge_bodies() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pool = WorkerPool::new(1).unwrap();
    assert!(takes_snapshot(&pool, Limits::DEFAULT_CAPS));
    let corpus = fg::corpus::ALL.iter().map(|p| p.source);
    for body in STDLIB_BODIES
        .iter()
        .copied()
        .chain(corpus)
        .chain(EDGE_BODIES.iter().copied())
    {
        for cmd in COMMANDS {
            assert_same(&pool, cmd, body, Limits::DEFAULT_CAPS);
        }
    }
}

/// A body prints the same as its worker's 1st request (the full path),
/// 2nd (the one that builds the snapshot) and 50th (after 47 requests
/// whose bodies declare models too), and the same as the full path on
/// the spelled-out program.
#[test]
fn model_declaring_bodies_print_the_same_as_the_1st_2nd_and_50th_request() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (i, body) in MODEL_BODIES.iter().enumerate() {
        for cmd in COMMANDS {
            let pool = WorkerPool::new(1).unwrap();
            let request = |body: &str, use_prelude: bool| {
                let (c, b) = (cmd.to_owned(), body.to_owned());
                on_worker(&pool, move || {
                    run_request(&c, "<t>", &b, use_prelude, Limits::DEFAULT_CAPS, &Tracer::disabled())
                })
            };
            let first = request(body, true);
            let second = request(body, true);
            for k in 3..50 {
                request(MODEL_BODIES[(i + k) % MODEL_BODIES.len()], true);
            }
            let fiftieth = request(body, true);
            let full = request(&with_prelude(body), false);
            assert_eq!(full.code, 0, "{cmd} on body {body:?}: {}", full.stderr);
            for (nth, out) in [("1st", first), ("2nd", second), ("50th", fiftieth)] {
                assert_eq!(
                    (out.code, &out.stdout, &out.stderr),
                    (full.code, &full.stdout, &full.stderr),
                    "{cmd} on body {body:?} as the worker's {nth} request"
                );
                assert_eq!(counters(&out), counters(&full), "{cmd} on {body:?}, {nth}");
            }
        }
    }
}

#[test]
fn a_second_fork_does_not_see_the_first_forks_arena() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pool = WorkerPool::new(1).unwrap();
    // The first body interns types the prelude never mentions; if its
    // arena leaked into the snapshot, the second request's `intern`
    // counters (arena sizes, hit/miss) would drift from the full path.
    let first = "length[list (list bool)](nil[list (list bool)])";
    let second = "accumulate[int](range(1, 4))";
    assert!(takes_snapshot(&pool, Limits::DEFAULT_CAPS));
    for body in [first, second, first, second] {
        assert_same(&pool, "check", body, Limits::DEFAULT_CAPS);
    }
}

#[test]
fn caps_at_the_prelude_boundary_match_the_full_path() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pool = WorkerPool::new(1).unwrap();
    let near = consumption_near_prelude(&pool);
    let body = "accumulate[int](range(1, 4))";
    // Below the prelude's consumption the full path trips inside the
    // prelude; at it and above, the snapshot takes over and the body
    // trips at the same charge the full check would.
    for (meter, q) in near.into_iter().enumerate() {
        for cap in q.saturating_sub(3)..=q + 3 {
            let mut limits = Limits::DEFAULT_CAPS;
            let slot = match meter {
                0 => &mut limits.fuel,
                1 => &mut limits.max_depth,
                2 => &mut limits.max_cc_terms,
                _ => &mut limits.max_dict_nodes,
            };
            *slot = Some(cap);
            for cmd in ["check", "run"] {
                assert_same(&pool, cmd, body, limits);
            }
        }
    }
}

#[test]
fn parser_depth_at_the_hole_matches_the_full_parse() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pool = WorkerPool::new(1).unwrap();
    let nested = |k: usize| format!("{}1{}", "(".repeat(k), ")".repeat(k));
    let limits = Limits {
        max_depth: Some(400),
        ..Limits::DEFAULT_CAPS
    };
    // The least nesting the full parse rejects under this cap.
    let trips = |k: usize| {
        let src = with_prelude(&nested(k));
        on_worker(&pool, move || {
            run_request("check", "<t>", &src, false, limits, &Tracer::disabled()).code != 0
        })
    };
    let (mut lo, mut hi) = (0, 400);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if trips(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    assert!(
        lo > 0 && lo < 400,
        "the cap must trip inside the body: {lo}"
    );
    assert!(takes_snapshot(&pool, limits));
    for k in [lo - 1, lo, lo + 1] {
        assert_same(&pool, "check", &nested(k), limits);
    }
}

#[test]
fn injected_faults_take_the_full_path() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pool = WorkerPool::new(1).unwrap();
    let body = "accumulate[int](range(1, 4))";
    let (snap, full) = on_worker(&pool, move || {
        let plan = || FaultPlan::parse("check.expr@3").unwrap();
        let tracer = Tracer::disabled();
        let limits = Limits::DEFAULT_CAPS;
        let snap = telemetry::fault::with_plan(plan(), || {
            run_request("run", "<t>", body, true, limits, &tracer)
        });
        let full = telemetry::fault::with_plan(plan(), || {
            run_request("run", "<t>", &with_prelude(body), false, limits, &tracer)
        });
        (snap, full)
    });
    assert_eq!(snap.code, 1);
    assert!(snap.stderr.contains("injected fault"), "{}", snap.stderr);
    assert_eq!(
        (snap.code, &snap.stdout, &snap.stderr, counters(&snap)),
        (full.code, &full.stdout, &full.stderr, counters(&full))
    );
    assert!(!snap.is_deterministic());
}
