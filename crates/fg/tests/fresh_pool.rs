//! The prelude snapshot once the fresh-name pool is full.
//!
//! `Symbol::fresh` mints new names until it has minted `FRESH_POOL` of
//! them, then hands the pool's names out again, earliest first. A thread's
//! prelude snapshot binds the dictionary names it minted for as long as
//! the thread lives, so a body checked against it must never be handed
//! one of them for a binder of its own: that binder would capture the
//! prelude dictionary the body goes on to use.
//!
//! This file has one test, so that nothing else in its process mints
//! names and the pool's arithmetic below is exact.

use fg::pipeline::{run_request, Limits};
use fg::pool::WorkerPool;
use fg::stdlib::with_prelude;
use system_f::Symbol;
use telemetry::trace::Tracer;

/// `FRESH_POOL` in `system_f::symbol`.
const FRESH_POOL: u64 = 1 << 20;

/// Bodies that declare models of their own (whose dictionaries get fresh
/// names) and then use prelude dictionaries. The first runs right after
/// the pool wraps: were the snapshot's names in the pool, its `Monoid<int>`
/// dictionary would be bound to the name of the prelude's first
/// dictionary, `Semigroup<int>`'s, which the body then reads.
const BODIES: &[&str] = &[
    "model Monoid<int> { identity_elt = 7; } in Semigroup<int>.binary_op(2, 3)",
    "model Monoid<int> { identity_elt = 7; } in EqualityComparable<int>.equal(1, 1)",
    "model Monoid<int> { identity_elt = 7; } in accumulate[int](range(1, 4))",
    "model Semigroup<int> { binary_op = imult; } in \
     model Monoid<int> { identity_elt = 1; } in \
     iadd(accumulate[int](range(1, 5)), Group<int>.inverse(3))",
    "model LessThanComparable<int> { less = lam a: int, b: int. ilt(b, a); } in \
     min_element[list int](cons[int](4, cons[int](2, nil[int])))",
];

#[test]
fn bodies_checked_after_the_pool_is_full_do_not_capture_snapshot_names() {
    let pool = WorkerPool::new(1).unwrap();
    let request = |cmd: &'static str, source: String, use_prelude: bool| {
        pool.run_one(move || {
            run_request(
                cmd,
                "<t>",
                &source,
                use_prelude,
                Limits::DEFAULT_CAPS,
                &Tracer::disabled(),
            )
        })
        .expect("pipeline panicked")
    };

    // A worker's first prelude request takes the full path; this one
    // stops at a parse error and mints nothing. The second builds the
    // snapshot, so the snapshot's names are the first this process mints.
    let first = request("check", ")".to_owned(), true);
    assert_eq!(first.code, 1, "{}", first.stdout);
    let second = request("check", "42".to_owned(), true);
    assert_eq!(second.code, 0, "{}", second.stderr);

    // Mint until `FRESH_POOL` names have been minted in all: the next one
    // is handed out again from the pool's start. Were the snapshot's
    // names in the pool, the bodies' first dictionaries would get them.
    let probe = Symbol::fresh("probe");
    let minted: u64 = probe.as_str()["probe_".len()..].parse().unwrap();
    for _ in minted + 1..FRESH_POOL {
        Symbol::fresh("pool");
    }

    for body in BODIES {
        for cmd in ["run", "vm", "direct"] {
            let snap = request(cmd, body.to_string(), true);
            let full = request(cmd, with_prelude(body), false);
            assert_eq!(
                (snap.code, &snap.stdout, &snap.stderr),
                (full.code, &full.stdout, &full.stderr),
                "{cmd} on body {body:?}"
            );
            assert_eq!(full.code, 0, "{cmd} on body {body:?}: {}", full.stderr);
        }
    }
}
