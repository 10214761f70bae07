//! The translation's generated names in a long-lived process: they lie
//! above every `…_N` identifier the program spells (its *floor*), and
//! what was compiled before in the same process does not move them.

use fg::pipeline::{run_request, Limits, RunOutput};
use fg::pool::WorkerPool;
use system_f::{Symbol, Term};
use telemetry::trace::Tracer;

/// A program that spells `binary_op_0`…`binary_op_7` (the member locals
/// of its `Semigroup` model would be `binary_op_N`), a term variable
/// `Monoid_3` (its dictionaries would be `Monoid_N`) and a type variable
/// `t_12`, and declares models. Evaluates to 100 + 2·7 + (0 + … + 7).
const FLOOR_PROGRAM: &str = "
    let Monoid_3 = 100 in
    let binary_op_0 = 0 in let binary_op_1 = 1 in let binary_op_2 = 2 in
    let binary_op_3 = 3 in let binary_op_4 = 4 in let binary_op_5 = 5 in
    let binary_op_6 = 6 in let binary_op_7 = 7 in
    concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
    concept Monoid<t> {
      refines Semigroup<t>;
      identity_elt : t;
      twice : fn(t) -> t = lam x: t. Semigroup<t>.binary_op(x, x);
    } in
    let accumulate = biglam t_12 where Monoid<t_12>.
      fix accum: fn(list t_12) -> t_12. lam ls: list t_12.
        if null[t_12](ls) then Monoid<t_12>.identity_elt
        else Monoid<t_12>.binary_op(car[t_12](ls), accum(cdr[t_12](ls)))
    in
    model Semigroup<int> { binary_op = iadd; } in
    model Monoid<int> { identity_elt = 0; } in
    iadd(Monoid_3, iadd(Monoid<int>.twice(binary_op_7),
      accumulate[int](cons[int](binary_op_0, cons[int](binary_op_1,
        cons[int](binary_op_2, cons[int](binary_op_3, cons[int](binary_op_4,
        cons[int](binary_op_5, cons[int](binary_op_6, cons[int](binary_op_7,
        nil[int])))))))))))";

/// The binders the program itself spells.
const SOURCE_BINDERS: [&str; 14] = [
    "Monoid_3",
    "binary_op_0",
    "binary_op_1",
    "binary_op_2",
    "binary_op_3",
    "binary_op_4",
    "binary_op_5",
    "binary_op_6",
    "binary_op_7",
    "accumulate",
    "t_12",
    "accum",
    "ls",
    "x",
];

/// Every binder of `t`, with repeats: `let`, `lam`, `biglam` and `fix`.
fn binders(t: &Term, out: &mut Vec<Symbol>) {
    match t {
        Term::Var(_) | Term::IntLit(_) | Term::BoolLit(_) | Term::Prim(_) => {}
        Term::App(f, args) => {
            binders(f, out);
            args.iter().for_each(|a| binders(a, out));
        }
        Term::Lam(params, body) => {
            out.extend(params.iter().map(|(x, _)| *x));
            binders(body, out);
        }
        Term::TyAbs(vars, body) => {
            out.extend(vars);
            binders(body, out);
        }
        Term::TyApp(f, _) | Term::Nth(f, _) => binders(f, out),
        Term::Let(x, bound, body) => {
            out.push(*x);
            binders(bound, out);
            binders(body, out);
        }
        Term::Tuple(items) => items.iter().for_each(|i| binders(i, out)),
        Term::If(c, a, b) => [c, a, b].into_iter().for_each(|e| binders(e, out)),
        Term::Fix(x, _, body) => {
            out.push(*x);
            binders(body, out);
        }
    }
}

#[test]
fn generated_names_lie_above_the_programs_own_after_a_thousand_compilations() {
    let pool = WorkerPool::new(1).unwrap();
    let request = |cmd: &'static str, source: &'static str| -> RunOutput {
        pool.run_one(move || {
            run_request(
                cmd,
                "<t>",
                source,
                false,
                Limits::DEFAULT_CAPS,
                &Tracer::disabled(),
            )
        })
        .expect("pipeline panicked")
    };
    for _ in 0..1000 {
        let out = request("translate", fg::corpus::FIG6_OVERLAPPING.source);
        assert_eq!(out.code, 0, "{}", out.stderr);
    }

    let run = request("run", FLOOR_PROGRAM);
    assert_eq!(
        (run.code, run.stdout.as_str()),
        (0, "142\n"),
        "{}",
        run.stderr
    );
    let translate = request("translate", FLOOR_PROGRAM);
    assert_eq!(translate.code, 0, "{}", translate.stderr);

    // Theorem 1 on the printed text: it parses, typechecks, and
    // evaluates to what `run` printed.
    let term = system_f::parse_term(translate.stdout.trim()).expect("the translation parses");
    system_f::typecheck(&term).expect("the translation typechecks");
    let value = system_f::eval(&term).expect("the translation evaluates");
    assert_eq!(format!("{value}\n"), run.stdout);

    // The program's own binders are bound once each, as in the source;
    // every other binder the translation prints is generated, and lies
    // above the floor, 13.
    let mut all = Vec::new();
    binders(&term, &mut all);
    for name in SOURCE_BINDERS {
        let n = all.iter().filter(|b| b.as_str() == name).count();
        assert_eq!(n, 1, "`{name}` is bound {n} times in {}", translate.stdout);
    }
    let generated: Vec<&str> = all
        .iter()
        .map(|b| b.as_str())
        .filter(|b| !SOURCE_BINDERS.contains(b))
        .collect();
    assert!(!generated.is_empty(), "{}", translate.stdout);
    for name in generated {
        let n: u64 = name
            .rsplit_once('_')
            .and_then(|(_, n)| n.parse().ok())
            .unwrap_or_else(|| panic!("`{name}` is not a generated name"));
        assert!(
            n > 12,
            "`{name}` is not above the floor in {}",
            translate.stdout
        );
    }
}

/// An identifier whose `N` leaves no room for generated names above it
/// is a diagnostic, not a crash; one below the limit compiles.
#[test]
fn a_suffix_above_the_limit_is_a_diagnostic() {
    for (ident, code, stdout) in [
        ("x_9223372036854775807", 0, "3\n"),
        ("x_9223372036854775808", 1, ""),
        ("x_99999999999999999999999", 1, ""),
    ] {
        let src = format!(
            "concept C<t> {{ op : t; }} in model C<int> {{ op = 1; }} in \
             let {ident} = 2 in iadd({ident}, C<int>.op)"
        );
        let out = run_request(
            "run",
            "<t>",
            &src,
            false,
            Limits::DEFAULT_CAPS,
            &Tracer::disabled(),
        );
        assert_eq!(
            (out.code, out.stdout.as_str()),
            (code, stdout),
            "{ident}: {}",
            out.stderr
        );
        if code == 1 {
            let want = format!("identifier `{ident}` ends in a number above 9223372036854775807");
            assert!(out.stderr.contains(&want), "{}", out.stderr);
        }
    }
}
