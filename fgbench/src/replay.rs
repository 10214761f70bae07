//! The in-process replay: the same op list the CLI or daemon would run,
//! calling each layer's public entry point directly, with one span per
//! call recorded by a `telemetry::trace::Tracer` around the call. The
//! layers themselves run untraced, as in production.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fg::pool::{CompileCache, WorkerPool};
use telemetry::limits::{Budget, Limits};
use telemetry::trace::{AttrValue, Event, Tracer};

use crate::gen::Unit;
use crate::verify::check_one;
use crate::Workload;

/// Pool width of `--jobs 2` and of the daemon under test.
pub const WORKERS: usize = 2;

/// The layers an op's in-process time is split into. `other` is op time
/// inside no layer span: output rendering, dispatch glue, harness code.
pub const LAYERS: [&str; 9] = [
    "parser",
    "check",
    "sf_typeck",
    "sf_eval",
    "vm",
    "interp",
    "pool",
    "cache",
    "other",
];

/// Deterministic work counters from the layers' public return values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub parse_bytes: u64,
    pub checked: u64,
    pub rejected: u64,
    pub model_lookups: u64,
    pub candidates: u64,
    pub dicts_built: u64,
    pub cc_finds: u64,
    pub cc_unions: u64,
    pub intern_hits: u64,
    pub intern_misses: u64,
    pub sf_nodes: u64,
    pub sf_evals: u64,
    pub sf_fuel: u64,
    pub vm_runs: u64,
    pub vm_instructions: u64,
    pub vm_code: u64,
    pub interp_runs: u64,
    pub interp_steps: u64,
    pub interp_lookups: u64,
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        self.parse_bytes += o.parse_bytes;
        self.checked += o.checked;
        self.rejected += o.rejected;
        self.model_lookups += o.model_lookups;
        self.candidates += o.candidates;
        self.dicts_built += o.dicts_built;
        self.cc_finds += o.cc_finds;
        self.cc_unions += o.cc_unions;
        self.intern_hits += o.intern_hits;
        self.intern_misses += o.intern_misses;
        self.sf_nodes += o.sf_nodes;
        self.sf_evals += o.sf_evals;
        self.sf_fuel += o.sf_fuel;
        self.vm_runs += o.vm_runs;
        self.vm_instructions += o.vm_instructions;
        self.vm_code += o.vm_code;
        self.interp_runs += o.interp_runs;
        self.interp_steps += o.interp_steps;
        self.interp_lookups += o.interp_lookups;
    }
}

/// One program's buffered answer, as the CLI would print it.
#[derive(Debug)]
pub struct Outcome {
    pub code: i32,
    pub stdout: String,
    pub stderr: String,
    pub counters: Counters,
    /// The translation, kept to be measured after the op's clock stops.
    pub term: Option<system_f::Term>,
}

/// Nodes of a System F term: the size of the generated code.
fn term_nodes(t: &system_f::Term) -> u64 {
    use system_f::Term as T;
    let mut stack = vec![t];
    let mut n = 0;
    while let Some(t) = stack.pop() {
        n += 1;
        match t {
            T::Var(_) | T::IntLit(_) | T::BoolLit(_) | T::Prim(_) => {}
            T::App(f, args) => {
                stack.push(f);
                stack.extend(args);
            }
            T::Lam(_, b) | T::TyAbs(_, b) | T::TyApp(b, _) | T::Nth(b, _) | T::Fix(_, _, b) => {
                stack.push(b)
            }
            T::Let(_, a, b) => {
                stack.push(a);
                stack.push(b);
            }
            T::Tuple(xs) => stack.extend(xs),
            T::If(c, a, b) => {
                stack.push(c);
                stack.push(a);
                stack.push(b);
            }
        }
    }
    n
}

fn fail(code: i32, msg: String, counters: Counters) -> Outcome {
    Outcome {
        code,
        stdout: String::new(),
        stderr: msg,
        counters,
        term: None,
    }
}

/// Runs one program the way `fg <cmd>` does, under the CLI's default
/// caps, with a span around each layer call.
pub fn pipeline(cmd: &str, full: &str, tracer: &Tracer) -> Outcome {
    let budget = Arc::new(Budget::new(Limits::DEFAULT_CAPS));
    let mut c = Counters {
        parse_bytes: full.len() as u64,
        ..Counters::default()
    };
    let sp = tracer.begin("parser", Vec::new());
    let parsed = fg::parser::parse_expr_budgeted(full, budget.clone());
    tracer.end(sp);
    let expr = match parsed {
        Ok(e) => e,
        Err(e) => return fail(1, format!("fg: parse error: {e}\n"), c),
    };
    // `explain` checks with the event record on, as the CLI does; the
    // replay does not render the explanation.
    let check_tracer = if cmd == "explain" {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let sp = tracer.begin("check", Vec::new());
    let checked = fg::check::check_program_budgeted(&expr, check_tracer, budget.clone());
    tracer.end(sp);
    c.checked = 1;
    let compiled = match checked {
        Ok(compiled) => compiled,
        Err(e) => {
            c.rejected = 1;
            return fail(1, format!("fg: {}\n", e.render(full)), c);
        }
    };
    let (cs, ts, is) = (
        compiled.check_stats,
        compiled.type_eq_stats,
        compiled.intern_stats,
    );
    c.model_lookups = cs.model_lookups;
    c.candidates = cs.candidates_scanned;
    c.dicts_built = cs.dicts_built;
    c.cc_finds = ts.finds;
    c.cc_unions = ts.unions;
    c.intern_hits = is.hits;
    c.intern_misses = is.misses;
    let mut out = String::new();
    match cmd {
        "check" => {
            let _ = writeln!(out, "{}", compiled.ty);
        }
        "explain" => {}
        "translate" => {
            let _ = writeln!(out, "{}", compiled.term);
        }
        "run" => {
            let sp = tracer.begin("sf_typeck", Vec::new());
            let typed = system_f::typecheck(&compiled.term);
            tracer.end(sp);
            if let Err(e) = typed {
                return fail(
                    1,
                    format!("fg: internal error: translation is ill-typed: {e}\n"),
                    c,
                );
            }
            let before = budget.fuel_spent();
            let sp = tracer.begin("sf_eval", Vec::new());
            let v = system_f::eval_budgeted(&compiled.term, &budget);
            tracer.end(sp);
            c.sf_evals = 1;
            c.sf_fuel = budget.fuel_spent() - before;
            match v {
                Ok(v) => {
                    let _ = writeln!(out, "{v}");
                }
                Err(e) => return fail(1, format!("fg: runtime error: {e}\n"), c),
            }
        }
        "vm" => {
            let sp = tracer.begin("vm.compile", Vec::new());
            let program = system_f::vm::compile(&compiled.term);
            tracer.end(sp);
            let program = match program {
                Ok(p) => p,
                Err(e) => return fail(1, format!("fg: compile error: {e}\n"), c),
            };
            c.vm_code = system_f::vm::instruction_count(&program) as u64;
            let sp = tracer.begin("vm.run", Vec::new());
            let v = system_f::vm::run_profiled_budgeted(&program, &budget);
            tracer.end(sp);
            c.vm_runs = 1;
            match v {
                Ok((v, stats)) => {
                    c.vm_instructions = stats.instructions();
                    let _ = writeln!(out, "{v}");
                }
                Err(e) => return fail(1, format!("fg: vm error: {e}\n"), c),
            }
        }
        "direct" => {
            let sp = tracer.begin("interp", Vec::new());
            let v = fg::interp::run_direct_budgeted(
                &compiled.elaborated,
                Tracer::disabled(),
                budget.clone(),
            );
            tracer.end(sp);
            c.interp_runs = 1;
            match v {
                Ok((v, stats)) => {
                    c.interp_steps = stats.eval_steps;
                    c.interp_lookups = stats.model_lookups;
                    let _ = writeln!(out, "{v}");
                }
                Err(e) => return fail(1, format!("fg: runtime error: {e}\n"), c),
            }
        }
        other => return fail(2, format!("fg: unknown command `{other}`\n"), c),
    }
    Outcome {
        code: 0,
        stdout: out,
        stderr: String::new(),
        counters: c,
        term: Some(compiled.term),
    }
}

/// One replayed op.
pub struct OpRecord {
    /// In-process wall time of the op.
    pub wall: Duration,
    /// Per pool task: time from submission to start, and time running.
    pub tasks: Vec<(Duration, Duration)>,
}

/// The result of replaying an op list once.
pub struct Replay {
    pub ops: Vec<OpRecord>,
    pub counters: Counters,
    pub steals: u64,
    pub failed_ops: u64,
    pub first_error: Option<String>,
    /// The merged span record (traced replays only).
    pub events: Vec<Event>,
}

/// A pool task's span record, to be grafted under `parent`.
struct TaskTrace {
    tracer: Tracer,
    offset_ns: u64,
    parent: u64,
}

type Cached = (i32, String, String);

/// Replays `units` in order. With `traced`, records spans and merges the
/// pool tasks' records into the op record.
pub fn replay(workload: Workload, units: &[Arc<Unit>], traced: bool) -> Replay {
    let main = if traced {
        Tracer::with_capacity(units.len() * 24 + 64)
    } else {
        Tracer::disabled()
    };
    let epoch = Instant::now();
    let new_task_tracer = |parent: u64| -> TaskTrace {
        let tracer = if traced {
            Tracer::with_capacity(32)
        } else {
            Tracer::disabled()
        };
        TaskTrace {
            offset_ns: u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            tracer,
            parent,
        }
    };
    let pool = (workload != Workload::Oneshot)
        .then(|| WorkerPool::new(WORKERS).expect("spawn worker pool"));
    let cache: CompileCache<Cached> = CompileCache::new(4096);
    let limits_key = format!("{:?}", Limits::DEFAULT_CAPS);
    let steals0 = pool.as_ref().map_or(0, |p| p.stats().steals);
    let mut task_traces = Vec::new();
    let mut out = Replay {
        ops: Vec::with_capacity(units.len()),
        counters: Counters::default(),
        steals: 0,
        failed_ops: 0,
        first_error: None,
        events: Vec::new(),
    };
    for (i, unit) in units.iter().enumerate() {
        let mut rec = OpRecord {
            wall: Duration::ZERO,
            tasks: Vec::new(),
        };
        let mut outcomes: Vec<Result<Outcome, String>> = Vec::new();
        let t0 = Instant::now();
        let mut attrs = vec![("op", AttrValue::from(i))];
        if workload == Workload::Batch {
            attrs.push(("capacity", AttrValue::from(WORKERS)));
        }
        let op = main.begin("op", attrs);
        match workload {
            Workload::Oneshot => {
                let full = unit.progs[0].full_source();
                outcomes.push(Ok(pipeline(unit.cmd, &full, &main)));
            }
            Workload::Batch => {
                let pool = pool.as_ref().expect("batch replay has a pool");
                let submit = Instant::now();
                let tasks: Vec<_> = unit
                    .progs
                    .iter()
                    .map(|prog| {
                        let tt = new_task_tracer(op.raw());
                        let tracer = tt.tracer.clone();
                        task_traces.push(tt);
                        let (prog, cmd) = (Arc::clone(prog), unit.cmd);
                        move || run_task(cmd, &prog.full_source(), &tracer, submit)
                    })
                    .collect();
                for r in pool.run_batch(tasks) {
                    outcomes.push(r.map(|(o, wait, busy)| {
                        rec.tasks.push((wait, busy));
                        o
                    }));
                }
            }
            Workload::Serve => {
                let pool = pool.as_ref().expect("serve replay has a pool");
                let prog = Arc::clone(&unit.progs[0]);
                let key = fg::pool::fnv1a(&[
                    unit.cmd.as_bytes(),
                    &[u8::from(prog.prelude)],
                    limits_key.as_bytes(),
                    prog.source.as_bytes(),
                ]);
                let sp = main.begin("cache", Vec::new());
                let hit = cache.lookup(key);
                main.end(sp);
                if let Some((code, stdout, stderr)) = hit {
                    outcomes.push(Ok(Outcome {
                        code,
                        stdout,
                        stderr,
                        counters: Counters::default(),
                        term: None,
                    }));
                } else {
                    let sp = main.begin("pool", Vec::new());
                    let tt = new_task_tracer(sp.raw());
                    let tracer = tt.tracer.clone();
                    task_traces.push(tt);
                    let cmd = unit.cmd;
                    let submit = Instant::now();
                    let r =
                        pool.run_one(move || run_task(cmd, &prog.full_source(), &tracer, submit));
                    main.end(sp);
                    let r = r.map(|(o, wait, busy)| {
                        rec.tasks.push((wait, busy));
                        o
                    });
                    if let Ok(o) = &r {
                        let sp = main.begin("cache", Vec::new());
                        cache.insert(key, (o.code, o.stdout.clone(), o.stderr.clone()));
                        main.end(sp);
                    }
                    outcomes.push(r);
                }
            }
        }
        main.end(op);
        rec.wall = t0.elapsed();
        out.ops.push(rec);
        // Checking costs no op time: it runs after the op's clock stops.
        let mut failed = false;
        for (prog, o) in unit.progs.iter().zip(&outcomes) {
            let verdict = match o {
                Ok(o) => {
                    out.counters.add(&o.counters);
                    out.counters.sf_nodes += o.term.as_ref().map_or(0, term_nodes);
                    check_one(unit.cmd, prog, o.code, &o.stdout, &o.stderr, false)
                }
                Err(panic) => Err(format!("pipeline panicked: {panic}")),
            };
            if let Err(e) = verdict {
                failed = true;
                out.first_error
                    .get_or_insert_with(|| format!("replay op {i} `{}`: {e}", unit.cmd));
            }
        }
        out.failed_ops += u64::from(failed);
    }
    out.steals = pool.as_ref().map_or(0, |p| p.stats().steals) - steals0;
    if traced {
        out.events = merge(main.events(), task_traces);
    }
    out
}

/// A pool task: the pipeline under a `worker` span, plus its queue wait
/// and running time.
fn run_task(
    cmd: &str,
    full: &str,
    tracer: &Tracer,
    submit: Instant,
) -> (Outcome, Duration, Duration) {
    let start = Instant::now();
    let wait = start - submit;
    let w = tracer.begin("worker", Vec::new());
    let o = pipeline(cmd, full, tracer);
    tracer.end(w);
    (o, wait, start.elapsed())
}

/// Grafts each task record under its parent span: span ids are shifted
/// past the ids already used, timestamps onto the main tracer's clock.
fn merge(mut events: Vec<Event>, tasks: Vec<TaskTrace>) -> Vec<Event> {
    let mut next = events
        .iter()
        .filter_map(|e| match e {
            Event::Begin { span, .. } => Some(*span),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    for t in tasks {
        let base = next;
        for e in t.tracer.events() {
            events.push(match e {
                Event::Begin {
                    span,
                    parent,
                    name,
                    ts_ns,
                    attrs,
                } => {
                    next = next.max(span + base);
                    Event::Begin {
                        span: span + base,
                        parent: Some(parent.map_or(t.parent, |p| p + base)),
                        name,
                        ts_ns: ts_ns + t.offset_ns,
                        attrs,
                    }
                }
                Event::End {
                    span,
                    name,
                    ts_ns,
                    attrs,
                } => Event::End {
                    span: span + base,
                    name,
                    ts_ns: ts_ns + t.offset_ns,
                    attrs,
                },
                Event::Instant {
                    span,
                    name,
                    ts_ns,
                    attrs,
                } => Event::Instant {
                    span: span.map(|s| s + base),
                    name,
                    ts_ns: ts_ns + t.offset_ns,
                    attrs,
                },
            });
        }
    }
    events.sort_by_key(Event::ts_ns);
    events
}

/// One op's in-process time split into layer self times.
pub struct OpSplit {
    /// In-process time the layers share: op wall × pool width for a
    /// `--jobs` batch, whose workers run side by side; op wall otherwise.
    pub basis_ns: u64,
    /// Self time per entry of [`LAYERS`].
    pub self_ns: [u64; LAYERS.len()],
    pub vm_compile_ns: Option<u64>,
    pub vm_run_ns: Option<u64>,
}

struct SpanRec {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<u64>,
    capacity: u64,
    op: Option<u64>,
}

fn layer_of(name: &str, capacity: u64) -> usize {
    let layer = match name {
        "op" if capacity > 1 => "pool",
        "vm.compile" | "vm.run" => "vm",
        "op" | "worker" => "other",
        n => n,
    };
    LAYERS
        .iter()
        .position(|l| *l == layer)
        .unwrap_or(LAYERS.len() - 1)
}

/// Splits every op of a span record into layer self times. A span's
/// self time is its duration (times its capacity) minus its children's
/// durations. Fails if a span's children overrun it, i.e. if the layer
/// times and `other` could not sum to the op's in-process time.
pub fn split(events: &[Event]) -> Result<Vec<OpSplit>, String> {
    let mut spans: HashMap<u64, SpanRec> = HashMap::new();
    for e in events {
        match e {
            Event::Begin {
                span,
                parent,
                name,
                ts_ns,
                attrs,
            } => {
                let attr = |k: &str| {
                    attrs
                        .iter()
                        .find(|(n, _)| *n == k)
                        .and_then(|(_, v)| v.as_u64())
                };
                spans.insert(
                    *span,
                    SpanRec {
                        name,
                        start: *ts_ns,
                        end: *ts_ns,
                        parent: *parent,
                        capacity: attr("capacity").unwrap_or(1),
                        op: attr("op"),
                    },
                );
            }
            Event::End { span, ts_ns, .. } => {
                if let Some(s) = spans.get_mut(span) {
                    s.end = *ts_ns;
                }
            }
            Event::Instant { .. } => {}
        }
    }
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.values() {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end - s.start;
        }
    }
    let op_of = |mut id: u64| -> Option<u64> {
        loop {
            let s = spans.get(&id)?;
            match s.parent {
                Some(p) => id = p,
                None => return s.op,
            }
        }
    };
    let mut ops: HashMap<u64, OpSplit> = HashMap::new();
    for (id, s) in &spans {
        let op = op_of(*id).ok_or_else(|| format!("span {id} `{}` belongs to no op", s.name))?;
        let own = (s.end - s.start) * s.capacity;
        let children = child_ns.get(id).copied().unwrap_or(0);
        let self_ns = own
            .checked_sub(children)
            .ok_or_else(|| format!("children of span {id} `{}` outlast it", s.name))?;
        let entry = ops.entry(op).or_insert(OpSplit {
            basis_ns: 0,
            self_ns: [0; LAYERS.len()],
            vm_compile_ns: None,
            vm_run_ns: None,
        });
        entry.self_ns[layer_of(s.name, s.capacity)] += self_ns;
        match s.name {
            "op" => entry.basis_ns = own,
            "vm.compile" => entry.vm_compile_ns = Some(self_ns),
            "vm.run" => entry.vm_run_ns = Some(self_ns),
            _ => {}
        }
    }
    let mut out: Vec<(u64, OpSplit)> = ops.into_iter().collect();
    out.sort_by_key(|(op, _)| *op);
    for (op, s) in &out {
        let sum: u64 = s.self_ns.iter().sum();
        if sum != s.basis_ns {
            return Err(format!(
                "op {op}: layer times sum to {sum} ns, op time is {} ns",
                s.basis_ns
            ));
        }
    }
    Ok(out.into_iter().map(|(_, s)| s).collect())
}
