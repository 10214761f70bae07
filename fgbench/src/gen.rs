//! Seeded input generation for the three workloads, with the reference
//! answer for every program computed here, independently of `fg`.
//!
//! Programs come from `fg::corpus::ALL` (expected values from the
//! paper), the `bench` crate generators (expected values from their
//! `*_expected` helpers or from how the generator builds the program),
//! short bodies over the `fg::stdlib` prelude algorithms, and
//! `fg::graph` programs whose answers follow from the graph family.

use std::collections::HashSet;
use std::sync::Arc;

use fg::corpus::{self, Expected};

/// splitmix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// A program's value, as the paper or the generator defines it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Val {
    Int(i64),
    Bool(bool),
}

impl Val {
    /// The F_G type `fg check` must print.
    pub fn ty(self) -> &'static str {
        match self {
            Val::Int(_) => "int",
            Val::Bool(_) => "bool",
        }
    }

    /// The line `fg run`, `vm` and `direct` must print.
    pub fn render(self) -> String {
        match self {
            Val::Int(n) => n.to_string(),
            Val::Bool(b) => b.to_string(),
        }
    }

    pub fn matches(self, v: &system_f::Value) -> bool {
        match self {
            Val::Int(n) => matches!(v, system_f::Value::Int(m) if *m == n),
            Val::Bool(b) => matches!(v, system_f::Value::Bool(c) if *c == b),
        }
    }
}

/// What a correct `fg` answers for a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Well typed, evaluates to this value.
    Val(Val),
    /// Ill typed: exit 1 with a diagnostic containing this text.
    Reject(&'static str),
}

/// One program as `fg` receives it: `source` is the file or request
/// body; with `prelude` set, `fg --prelude` wraps it in the prelude.
#[derive(Debug)]
pub struct Prog {
    pub source: String,
    pub prelude: bool,
    pub expect: Expect,
    /// A graph-library program (eval-heavy when run on an execution lane).
    pub graph: bool,
    /// A second spelling of the result type that `fg check` may print.
    pub alt_ty: Option<&'static str>,
}

impl Prog {
    /// The full program text the pipeline checks.
    pub fn full_source(&self) -> String {
        if self.prelude {
            fg::stdlib::with_prelude(&self.source)
        } else {
            self.source.clone()
        }
    }
}

/// One measured operation: a process (`oneshot_generic`), a batch
/// process (`batch_prelude`) or a request (`serve_mixed`).
#[derive(Debug, Clone)]
pub struct Unit {
    /// Equal keys mean byte-identical inputs.
    pub key: usize,
    pub cmd: &'static str,
    pub progs: Vec<Arc<Prog>>,
    /// The fg-rpc/1 request line (`serve_mixed` only).
    pub line: Arc<str>,
}

impl Unit {
    fn new(key: usize, cmd: &'static str, progs: Vec<Arc<Prog>>) -> Unit {
        Unit {
            key,
            cmd,
            progs,
            line: Arc::from(""),
        }
    }
}

const ALL_CMDS: [&str; 5] = ["check", "translate", "run", "vm", "direct"];
const EVAL_CMDS: [&str; 3] = ["run", "vm", "direct"];

fn corpus_val(e: Expected) -> Val {
    match e {
        Expected::Int(n) => Val::Int(n),
        Expected::Bool(b) => Val::Bool(b),
    }
}

fn prog(source: String, prelude: bool, expect: Expect) -> Arc<Prog> {
    Arc::new(Prog {
        source,
        prelude,
        expect,
        graph: false,
        alt_ty: None,
    })
}

/// Corpus programs whose result type is an associated type, which `fg
/// check` prints unnormalized; the program's models make it equal to the
/// type of the value.
const CORPUS_ALT_TY: [(&str, &str); 2] = [
    ("sec5_iter", "Iterator<list int>.elt"),
    ("sec52_ab", "B<int>.z"),
];

fn corpus_prog(p: &corpus::PaperProgram) -> Arc<Prog> {
    Arc::new(Prog {
        source: p.source.to_owned(),
        prelude: false,
        expect: Expect::Val(corpus_val(p.expected)),
        graph: false,
        alt_ty: CORPUS_ALT_TY
            .iter()
            .find(|(id, _)| *id == p.id)
            .map(|(_, ty)| *ty),
    })
}

/// A library-free program: `family` 0 is the paper corpus, 1–4 the
/// `bench` crate generators. `size` in [0, 1) places the generator's
/// size parameter within its range.
fn generic_prog(
    rng: &mut Rng,
    family: usize,
    size: f64,
    max_width: i64,
    max_depth: i64,
) -> Arc<Prog> {
    let scale = |lo: i64, hi: i64| lo + (size * (hi - lo + 1) as f64) as i64;
    match family {
        0 => corpus_prog(&corpus::ALL[rng.below(corpus::ALL.len())]),
        1 => {
            // `many_models_program` reads `D0<int>.v0`, which is 0.
            let src = bench::many_models_program(scale(8, max_width) as usize);
            prog(src, false, Expect::Val(Val::Int(0)))
        }
        2 => {
            let d = scale(4, max_depth) as usize;
            let expected = bench::refinement_chain_expected(d);
            let src = bench::refinement_chain_program(d);
            prog(src, false, Expect::Val(Val::Int(expected)))
        }
        3 => {
            // `diamond_program` ends in `f[int](7)` with `base` the identity.
            // Its result type is the associated type `Base<int>.a`, which
            // the program's model makes equal to `int`.
            let layers = scale(2, 4) as usize;
            let width = rng.range(2, 3) as usize;
            let src = bench::diamond_program(layers, width);
            Arc::new(Prog {
                source: src,
                prelude: false,
                expect: Expect::Val(Val::Int(7)),
                graph: false,
                alt_ty: Some("Base<int>.a"),
            })
        }
        _ => {
            // `same_type_chain_program(k)` folds `iadd` over k singleton
            // lists of 1.
            let k = scale(2, 12);
            let src = bench::same_type_chain_program(k as usize);
            prog(src, false, Expect::Val(Val::Int(k)))
        }
    }
}

/// `oneshot_generic`: a fixed mix of 200 process runs — each program
/// family 40 times, each (family, command) pair 8 times. Sizes are drawn
/// one per stratum of the size range, so every seed covers the whole
/// range; the seed picks sizes within strata, corpus programs and order.
pub fn oneshot(seed: u64) -> Vec<Unit> {
    let mut rng = Rng::new(seed);
    let mut units: Vec<Unit> = (0..200)
        .map(|i| {
            let size = ((i / 5) as f64 + rng.unit()) / 40.0;
            let p = generic_prog(&mut rng, i % 5, size, 128, 32);
            Unit::new(0, ALL_CMDS[(i / 5) % 5], vec![p])
        })
        .collect();
    rng.shuffle(&mut units);
    for (i, u) in units.iter_mut().enumerate() {
        u.key = i;
    }
    units
}

fn int_list(xs: &[i64]) -> String {
    let mut s = "nil[int]".to_owned();
    for x in xs.iter().rev() {
        s = format!("cons[int]({x}, {s})");
    }
    s
}

/// A short int-valued expression over the prelude algorithms.
fn int_term(rng: &mut Rng) -> (String, i64) {
    let a = rng.range(0, 20);
    let b = a + rng.range(1, 24);
    match rng.below(5) {
        0 => (format!("accumulate[int](range({a}, {b}))"), (a..b).sum()),
        1 => {
            let c = rng.range(a, b);
            (
                format!("count_if[list int](range({a}, {b}), lam x: int. ilt(x, {c}))"),
                c - a,
            )
        }
        2 => {
            let xs: Vec<i64> = (0..rng.range(1, 8)).map(|_| rng.range(0, 99)).collect();
            let min = *xs.iter().min().expect("non-empty list");
            (format!("min_element[list int]({})", int_list(&xs)), min)
        }
        3 => (format!("car[int](reverse[int](range({a}, {b})))"), b - 1),
        _ => {
            let c = rng.range(0, 10);
            (
                format!("length[int](copy_to[list int, list int](range({a}, {b}), range(0, {c})))"),
                b - a + c,
            )
        }
    }
}

/// A short body over the prelude algorithms with its value.
fn prelude_body(rng: &mut Rng) -> (String, Val) {
    match rng.below(4) {
        0 => {
            // Literals are non-negative: `a - 4` stays at or above 0.
            let a = rng.range(4, 24);
            let b = a + rng.range(1, 24);
            let c = rng.range(a - 4, b + 4);
            (
                format!("contains[list int](range({a}, {b}), {c})"),
                Val::Bool(a <= c && c < b),
            )
        }
        1 => {
            let (s1, v1) = int_term(rng);
            let (s2, v2) = int_term(rng);
            (format!("iadd({s1}, {s2})"), Val::Int(v1 + v2))
        }
        _ => {
            let (s, v) = int_term(rng);
            (s, Val::Int(v))
        }
    }
}

/// A batch of `fg --prelude --jobs 2` files.
const BATCH_FILES: usize = 64;

/// `batch_prelude`: 12 batches of 64 distinct prelude bodies, the
/// command rotating check → run → vm.
pub fn batches(seed: u64) -> Vec<Unit> {
    let mut rng = Rng::new(seed);
    (0..12)
        .map(|b| {
            let mut seen = HashSet::new();
            let mut progs = Vec::with_capacity(BATCH_FILES);
            while progs.len() < BATCH_FILES {
                let (body, v) = prelude_body(&mut rng);
                if seen.insert(body.clone()) {
                    progs.push(prog(body, true, Expect::Val(v)));
                }
            }
            Unit::new(b, ["check", "run", "vm"][b % 3], progs)
        })
        .collect()
}

/// A graph-library program: an algorithm over a cycle, path or complete
/// graph of 6–12 vertices, sized so one request costs a few to ~20 ms.
fn graph_prog(rng: &mut Rng) -> Arc<Prog> {
    let family = rng.below(3);
    let model = [
        fg::graph::CYCLE_MODEL,
        fg::graph::PATH_MODEL,
        fg::graph::COMPLETE_MODEL,
    ][family];
    let (body, v) = if rng.below(2) == 0 {
        // The path is the only family that is not strongly connected.
        let n = if family == 2 {
            rng.range(6, 7)
        } else {
            rng.range(6, 9)
        };
        (format!("is_connected[int]({n})"), family != 1)
    } else {
        let n = rng.range(6, 12);
        let (s, d) = (rng.range(0, n - 1), rng.range(0, n - 1));
        // Path edges only go up: v reaches w exactly when v <= w.
        (
            format!("reachable[int]({n}, {s}, {d})"),
            family != 1 || s <= d,
        )
    };
    Arc::new(Prog {
        source: format!("{}\n{model}\n{body}\n", fg::graph::GRAPH_LIB),
        prelude: true,
        expect: Expect::Val(Val::Bool(v)),
        graph: true,
        alt_ty: None,
    })
}

/// An ill-typed program and the diagnostic `fg` must name.
fn ill_typed_prog(rng: &mut Rng) -> Arc<Prog> {
    let bools: Vec<String> = (0..rng.range(1, 6))
        .map(|_| if rng.below(2) == 0 { "true" } else { "false" }.to_owned())
        .collect();
    let mut list = "nil[bool]".to_owned();
    for b in bools.iter().rev() {
        list = format!("cons[bool]({b}, {list})");
    }
    let (src, prelude, msg) = match rng.below(4) {
        0 | 1 => (
            format!("accumulate[bool]({list})"),
            true,
            "no model for `Monoid<bool>` is in scope",
        ),
        2 => (
            format!("min_element[list bool]({list})"),
            true,
            "no model for `LessThanComparable<Iterator<list bool>.elt>` is in scope",
        ),
        _ => {
            let w = rng.range(2, 16) as usize;
            let src = bench::many_models_program(w).replace("D0<int>.v0", "D0<bool>.v0");
            (src, false, "no model for `D0<bool>` is in scope")
        }
    };
    prog(src, prelude, Expect::Reject(msg))
}

/// Corpus programs whose `fg explain` output resolves `Monoid<int>`.
const EXPLAIN_IDS: [&str; 2] = ["fig5", "fig6"];

/// The `serve_mixed` request stream. Requests are made on demand, in
/// blocks of 50 with a fixed mix: 10 repeats of one of the last 64
/// distinct requests, 20 prelude bodies, 12 graph programs, 5
/// library-free programs (one in five of them an `explain`) and 3
/// ill-typed programs. Cache hits and library-free programs take the
/// fastest ~35% of requests, prelude bodies the next ~43% and graph
/// programs the slowest ~22%, so the median falls inside the prelude
/// mode and p90 inside the graph mode, both well clear of a boundary.
pub struct ServeStream {
    rng: Rng,
    block: Vec<u8>,
    recent: Vec<Unit>,
    next_key: usize,
}

/// Slot kinds of one block of the request mix.
const REPEAT: u8 = 0;
const PRELUDE: u8 = 1;
const GRAPH: u8 = 2;
const GENERIC: u8 = 3;
const ILL: u8 = 4;
const BLOCK: [(u8, usize); 5] = [
    (REPEAT, 10),
    (PRELUDE, 20),
    (GRAPH, 12),
    (GENERIC, 5),
    (ILL, 3),
];

impl ServeStream {
    pub fn new(seed: u64) -> ServeStream {
        ServeStream {
            rng: Rng::new(seed),
            block: Vec::new(),
            recent: Vec::new(),
            next_key: 0,
        }
    }

    fn fresh(&mut self, slot: u8) -> Unit {
        let rng = &mut self.rng;
        let (cmd, p) = match slot {
            GRAPH => (rng.pick(&EVAL_CMDS), graph_prog(rng)),
            ILL => (rng.pick(&ALL_CMDS), ill_typed_prog(rng)),
            GENERIC if rng.below(5) == 0 => {
                let id = rng.pick(&EXPLAIN_IDS);
                let p = corpus::ALL
                    .iter()
                    .find(|p| p.id == id)
                    .expect("explain ids are corpus ids");
                ("explain", corpus_prog(p))
            }
            GENERIC => {
                let (family, size) = (rng.below(5), rng.unit());
                (rng.pick(&ALL_CMDS), generic_prog(rng, family, size, 64, 16))
            }
            _ => {
                let (body, v) = prelude_body(rng);
                (rng.pick(&ALL_CMDS), prog(body, true, Expect::Val(v)))
            }
        };
        let key = self.next_key;
        self.next_key += 1;
        let line = format!(
            "{{\"v\":\"fg-rpc/1\",\"id\":{key},\"method\":\"{cmd}\",\"source\":{},\"prelude\":{}}}\n",
            telemetry::json::escape(&p.source),
            p.prelude
        );
        let mut u = Unit::new(key, cmd, vec![p]);
        u.line = Arc::from(line);
        if self.recent.len() == 64 {
            self.recent.remove(0);
        }
        self.recent.push(u.clone());
        u
    }

    pub fn next_unit(&mut self) -> Unit {
        if self.block.is_empty() {
            for (slot, n) in BLOCK {
                self.block.extend(std::iter::repeat_n(slot, n));
            }
            self.rng.shuffle(&mut self.block);
        }
        let slot = self.block.pop().expect("block refilled above");
        if slot == REPEAT && !self.recent.is_empty() {
            return self.recent[self.rng.below(self.recent.len())].clone();
        }
        // A repeat slot before any request exists becomes a prelude body.
        self.fresh(if slot == REPEAT { PRELUDE } else { slot })
    }
}

/// FNV-1a digest of a unit list's inputs (commands and sources).
pub fn digest(units: &[Unit]) -> u64 {
    let mut parts: Vec<&[u8]> = Vec::new();
    for u in units {
        parts.push(u.cmd.as_bytes());
        for p in &u.progs {
            parts.push(&[0]);
            parts.push(p.source.as_bytes());
        }
    }
    fg::pool::fnv1a(&parts)
}
