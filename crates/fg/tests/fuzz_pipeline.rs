//! No-panic fuzz harness for the governed pipeline.
//!
//! Generates 1000 random F_G programs from a fixed seed and drives each
//! through parse → check → translate → evaluate under a small resource
//! budget, asserting that the pipeline (a) never panics and (b) always
//! terminates within the budget — every outcome is `Ok` or a structured
//! [`fg::pipeline::PipelineError`].
//!
//! The generator is weighted toward the constructs that have historically
//! broken robustness: deep nesting, concept/model declarations with
//! refinements, where-clauses, `fix` (including divergent uses), and
//! member access with arbitrary arguments. Most generated programs are
//! ill-typed; that is the point — the checker must *reject* them, not
//! crash on them.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fg::pipeline::{self, Limits};
use proptest::test_runner::TestRng;

/// Per-case budget: small enough that even a generated Ω dies in
/// microseconds, large enough that reasonable programs complete.
const CASE_LIMITS: Limits = Limits {
    fuel: Some(200_000),
    max_depth: Some(256),
    max_cc_terms: Some(50_000),
    max_dict_nodes: Some(10_000),
    timeout_ms: Some(2_000),
};

const CASES: u64 = 1_000;
const SEED: u64 = 0xF6_5EED;

/// A tiny grammar-directed program generator. `budget` bounds the
/// generator's own recursion so it terminates on every seed.
struct Gen {
    rng: TestRng,
    /// Remaining expression nodes this case may emit.
    nodes: u32,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: TestRng::from_seed(seed),
            nodes: 60,
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }

    fn var(&mut self) -> String {
        // A small pool so generated programs sometimes close over earlier
        // binders (and sometimes reference unbound names — also a case).
        const POOL: &[&str] = &["x", "y", "f", "g", "acc", "ls"];
        POOL[self.below(POOL.len() as u64) as usize].to_owned()
    }

    fn concept(&mut self) -> String {
        const POOL: &[&str] = &["A", "B", "Mon", "Eq", "Ord"];
        POOL[self.below(POOL.len() as u64) as usize].to_owned()
    }

    fn ty(&mut self, depth: u32) -> String {
        if depth == 0 {
            return ["int", "bool", "t"][self.below(3) as usize].to_owned();
        }
        match self.below(6) {
            0 => "int".to_owned(),
            1 => "bool".to_owned(),
            2 => "t".to_owned(),
            3 => format!("list {}", self.ty(depth - 1)),
            4 => format!("fn({}) -> {}", self.ty(depth - 1), self.ty(depth - 1)),
            _ => format!("{}<{}>.assoc", self.concept(), self.ty(depth - 1)),
        }
    }

    fn expr(&mut self, depth: u32) -> String {
        if depth == 0 || self.nodes == 0 {
            return match self.below(4) {
                0 => self.below(100).to_string(),
                1 => "true".to_owned(),
                2 => "false".to_owned(),
                _ => self.var(),
            };
        }
        self.nodes -= 1;
        match self.below(12) {
            0 => self.below(100).to_string(),
            1 => self.var(),
            2 => format!("iadd({}, {})", self.expr(depth - 1), self.expr(depth - 1)),
            3 => format!(
                "if {} then {} else {}",
                self.expr(depth - 1),
                self.expr(depth - 1),
                self.expr(depth - 1)
            ),
            4 => format!(
                "let {} = {} in {}",
                self.var(),
                self.expr(depth - 1),
                self.expr(depth - 1)
            ),
            5 => format!("lam {}: {}. {}", self.var(), self.ty(2), self.expr(depth - 1)),
            6 => format!("({})({})", self.expr(depth - 1), self.expr(depth - 1)),
            7 => {
                // `fix` — sometimes well-founded, sometimes divergent.
                let f = self.var();
                format!(
                    "(fix {f}: fn(int) -> int. lam {}: int. {})({})",
                    self.var(),
                    self.expr(depth - 1),
                    self.expr(depth - 1)
                )
            }
            8 => {
                let c = self.concept();
                format!(
                    "concept {c}<t> {{ op : fn(t, t) -> t; }} in {}",
                    self.expr(depth - 1)
                )
            }
            9 => {
                let c = self.concept();
                format!(
                    "model {c}<int> {{ op = iadd; }} in {}",
                    self.expr(depth - 1)
                )
            }
            10 => {
                let c = self.concept();
                format!(
                    "(biglam t where {c}<t>. {})[{}]",
                    self.expr(depth - 1),
                    self.ty(1)
                )
            }
            _ => {
                let c = self.concept();
                format!("{c}<{}>.op({})", self.ty(1), self.expr(depth - 1))
            }
        }
    }
}

#[test]
fn thousand_random_programs_never_panic_and_stay_in_budget() {
    let mut failures = Vec::new();
    for case in 0..CASES {
        let mut g = Gen::new(SEED.wrapping_add(case));
        let src = g.expr(6);
        let started = std::time::Instant::now();
        // The error value itself is irrelevant here (and large): only
        // panic-vs-structured matters.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pipeline::run(&src, CASE_LIMITS).map_err(drop)
        }));
        let elapsed = started.elapsed();
        match outcome {
            Ok(_ok_or_structured_error) => {}
            Err(_) => failures.push(format!("case {case} PANICKED on: {src}")),
        }
        // The budget must also bound wall-clock: the 2 s deadline plus
        // generous slack for a debug-build trip to surface.
        if elapsed > std::time::Duration::from_secs(10) {
            failures.push(format!(
                "case {case} took {elapsed:?} (budget not enforced) on: {src}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {CASES} cases failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn fuzz_generator_is_deterministic() {
    let a = Gen::new(SEED).expr(6);
    let b = Gen::new(SEED).expr(6);
    assert_eq!(a, b, "generator must be reproducible from the seed");
}
