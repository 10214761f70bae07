//! The F_G pipeline as one library API: parse → check and translate →
//! System F typecheck → evaluator or VM, under one resource budget.
//!
//! [`run_request`] runs one command the way `fg <cmd>` does and buffers
//! everything it would print; the CLI's sequential path, `--jobs`
//! batches, and `fg serve` all call it. [`compile`] and [`run`] are the
//! governed entry points for library callers: [`crate::compile`] /
//! [`crate::run`] with a [`Budget`] threaded through every stage (parser
//! recursion depth, checker fuel and dictionary nodes, congruence nodes,
//! evaluator fuel/depth, and the wall-clock deadline).
//!
//! The governance protocol is *sticky exhaustion*: the first failed charge
//! latches an [`Exhausted`] record on the budget, every later charge
//! short-circuits, and fallible layers poll [`Budget::ok`] to convert the
//! latched record into a structured, phase-tagged error. Infallible hot
//! paths (congruence hash-consing, dictionary-plan construction) charge
//! and degrade gracefully; the nearest fallible caller reports the trip.
//! See DESIGN.md §10 for the full model.
//!
//! Every stage runs on the caller's thread. Its recursion is bounded by
//! the budget's depth cap; a caller that accepts the default cap provides
//! a [`crate::pool::WORKER_STACK`]-sized stack, which running on a
//! [`crate::pool::WorkerPool`] does (DESIGN.md §11).
//!
//! ```
//! use fg::pipeline::{run, Limits, PipelineError};
//!
//! // Ω diverges; a fuel budget turns that into a structured error.
//! let omega = "(fix f: fn(int) -> int. lam x: int. f(x))(0)";
//! let limits = Limits { fuel: Some(500), max_depth: Some(64), ..Limits::UNLIMITED };
//! let err = run(omega, limits).unwrap_err();
//! assert!(matches!(err, PipelineError::Eval(_)));
//! assert!(err.exhausted().is_some());
//! ```

use std::fmt::{self, Write as _};
use std::sync::Arc;

pub use telemetry::fault::{FaultMode, FaultPlan};
pub use telemetry::limits::{Budget, Exhausted, Limits, Resource};

use crate::check::{check_program_budgeted, Compiled};
use crate::error::CheckError;
use crate::parser::parse_expr_budgeted;
use system_f::{EvalError, ParseError};
use telemetry::trace::Tracer;
use telemetry::Metrics;

pub mod explain;
mod snapshot;

/// A failure in any stage of the governed pipeline, tagged by phase.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The parser rejected the program (including depth exhaustion).
    Parse(ParseError),
    /// The checker rejected the program (including budget exhaustion).
    Check(CheckError),
    /// Evaluation failed (including budget exhaustion).
    Eval(EvalError),
}

impl PipelineError {
    /// The pipeline phase that failed: `"parse"`, `"check"`, or `"eval"`.
    pub fn phase(&self) -> &'static str {
        match self {
            PipelineError::Parse(_) => "parse",
            PipelineError::Check(_) => "check",
            PipelineError::Eval(_) => "eval",
        }
    }

    /// The budget-exhaustion record, if this failure was a resource trip
    /// rather than an ordinary diagnostic.
    pub fn exhausted(&self) -> Option<Exhausted> {
        match self {
            PipelineError::Parse(ParseError::TooDeep { limit, .. }) => Some(Exhausted {
                resource: Resource::Depth,
                limit: *limit,
            }),
            PipelineError::Parse(_) => None,
            PipelineError::Check(e) => match e.kind {
                crate::ErrorKind::ResourceExhausted { exhausted, .. } => Some(exhausted),
                _ => None,
            },
            PipelineError::Eval(EvalError::ResourceExhausted(x)) => Some(*x),
            PipelineError::Eval(_) => None,
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "parse error: {e}"),
            PipelineError::Check(e) => write!(f, "{e}"),
            PipelineError::Eval(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Parses, typechecks, and translates against a caller-owned budget
/// (shared across stages or inspected afterwards for `fuel_spent` and
/// friends).
///
/// # Errors
///
/// A phase-tagged [`PipelineError`]: any ordinary diagnostic the stages
/// produce, or a structured exhaustion error once the budget trips.
pub fn compile(src: &str, budget: &Arc<Budget>) -> Result<Compiled, PipelineError> {
    let expr = parse_expr_budgeted(src, budget.clone()).map_err(PipelineError::Parse)?;
    check_program_budgeted(&expr, Tracer::disabled(), budget.clone()).map_err(PipelineError::Check)
}

/// Parses, compiles, and evaluates (on the System F evaluator) under a
/// fresh budget with `limits`: [`crate::run`] with every stage governed.
///
/// # Errors
///
/// As [`compile`], plus evaluation failures.
pub fn run(src: &str, limits: Limits) -> Result<system_f::Value, PipelineError> {
    let budget = Arc::new(Budget::new(limits));
    let compiled = compile(src, &budget)?;
    system_f::eval_budgeted(&compiled.term, &budget).map_err(PipelineError::Eval)
}

/// Exit code: the program was rejected or failed at runtime.
pub const EXIT_DIAGNOSTIC: u8 = 1;
/// Exit code: the command line was malformed.
pub const EXIT_USAGE: u8 = 2;
/// Exit code: the pipeline itself crashed (caught panic).
pub const EXIT_CRASH: u8 = 3;

/// One request's buffered outcome: the exit code plus everything the
/// pipeline would have printed. Buffering is what makes the pipeline
/// reentrant — the pool prints batches in input order, the daemon ships
/// output over the wire, and the compile cache replays it verbatim.
pub struct RunOutput {
    /// The request's exit code (0, [`EXIT_DIAGNOSTIC`] or
    /// [`EXIT_USAGE`]).
    pub code: u8,
    /// Buffered standard output.
    pub stdout: String,
    /// Buffered standard error.
    pub stderr: String,
    /// The request's phase timings and counters.
    pub metrics: Metrics,
    /// The budget cap that tripped, if one did.
    pub exhausted: Option<Exhausted>,
}

impl RunOutput {
    /// A request that failed before the pipeline ran (say, an unreadable
    /// file): exit [`EXIT_DIAGNOSTIC`] with `stderr` as its only output.
    pub fn diagnostic(stderr: String) -> RunOutput {
        RunOutput {
            code: EXIT_DIAGNOSTIC,
            stdout: String::new(),
            stderr,
            metrics: Metrics::new(),
            exhausted: None,
        }
    }

    /// Whether the outcome follows from the request alone, so that a
    /// compile cache may replay it: not when the wall-clock deadline or
    /// an injected fault cut it short.
    pub fn is_deterministic(&self) -> bool {
        !matches!(
            self.exhausted,
            Some(Exhausted {
                resource: Resource::WallClock | Resource::Injected,
                ..
            })
        )
    }
}

/// A cached request outcome: exit code plus the buffered streams. The
/// value a [`crate::pool::CompileCache`] replays on a hit.
pub type CachedRun = (u8, String, String);

/// The reentrant pipeline entry point: parses, checks, and runs one
/// program according to `cmd` (`check`, `translate`, `run`, `direct`,
/// `elaborate`, `explain`, `vm`, `bytecode`, `fmt` or `ast`) under a
/// fresh budget, emitting telemetry on success *and* failure paths.
/// Shared by the sequential driver, the `--jobs` pool, and `fg serve`.
///
/// With `use_prelude`, `source` is the body of [`crate::stdlib::PRELUDE`].
/// When the output cannot tell the difference, only the body is parsed
/// and checked, against this thread's prelude snapshot (DESIGN.md §13).
pub fn run_request(
    cmd: &str,
    path: &str,
    source: &str,
    use_prelude: bool,
    limits: Limits,
    tracer: &Tracer,
) -> RunOutput {
    let mut metrics = Metrics::new();
    metrics.set_command(cmd);
    metrics.set_source(path);
    let budget = Arc::new(Budget::new(limits));
    let full = if use_prelude {
        crate::stdlib::with_prelude(source)
    } else {
        source.to_owned()
    };
    let mut out = String::new();
    let mut err = String::new();
    let mut run = |front: Option<&snapshot::PreludeSnapshot>| {
        stages(cmd, path, &full, front, &budget, tracer, &mut metrics, &mut out, &mut err)
    };
    let status = if use_prelude && snapshot::eligible(cmd, source, tracer) {
        snapshot::with_snapshot(|snap| run(snap.filter(|s| s.admits(&limits))))
    } else {
        run(None)
    };
    record_limits(&mut metrics, &budget, tracer);
    RunOutput {
        code: status.err().unwrap_or(0),
        stdout: out,
        stderr: err,
        metrics,
        exhausted: budget.exhausted(),
    }
}

/// The command pipeline proper: everything from parse to output. All
/// output goes into the `out`/`err` buffers so the caller decides where
/// it lands (terminal, batch slot, RPC response, cache entry). With a
/// `snapshot`, `full` is a prelude program and only its body is parsed
/// and checked.
#[allow(clippy::too_many_arguments)]
fn stages(
    cmd: &str,
    path: &str,
    full: &str,
    snapshot: Option<&snapshot::PreludeSnapshot>,
    budget: &Arc<Budget>,
    tracer: &Tracer,
    metrics: &mut Metrics,
    out: &mut String,
    err: &mut String,
) -> Result<(), u8> {
    let sp = tracer.begin("parse", vec![("source", path.into())]);
    let parsed = metrics.phase("parse", || match snapshot {
        Some(snap) => snap.parse_body(full, budget),
        None => parse_expr_budgeted(full, budget.clone()),
    });
    tracer.end(sp);
    let expr = match parsed {
        Ok(e) => e,
        Err(e) => {
            let _ = writeln!(err, "fg: parse error: {e}");
            return Err(EXIT_DIAGNOSTIC);
        }
    };

    if cmd == "ast" {
        let _ = writeln!(out, "{expr:#?}");
        return Ok(());
    }
    if cmd == "fmt" {
        let _ = write!(out, "{}", crate::format::format_program(&expr));
        return Ok(());
    }
    let sp = tracer.begin("check", vec![("source", path.into())]);
    let checked = metrics.phase("check_translate", || match snapshot {
        Some(snap) => snap.check_body(&expr, budget),
        None => check_program_budgeted(&expr, tracer.clone(), budget.clone()),
    });
    tracer.end(sp);
    let compiled = match checked {
        Ok(c) => c,
        Err(e) => {
            let _ = writeln!(err, "fg: {}", e.render(full));
            return Err(EXIT_DIAGNOSTIC);
        }
    };
    record_check_stats(metrics, &compiled);

    match cmd {
        "check" => {
            let _ = writeln!(out, "{}", compiled.ty);
            Ok(())
        }
        "explain" => {
            let _ = write!(out, "{}", explain::render(&tracer.events(), full));
            Ok(())
        }
        "elaborate" => {
            let _ = writeln!(out, "{}", compiled.elaborated);
            Ok(())
        }
        "direct" => {
            let sp = tracer.begin("direct_eval", Vec::new());
            let outcome = metrics.phase("direct_eval", || {
                crate::interp::run_direct_budgeted(
                    &compiled.elaborated,
                    tracer.clone(),
                    budget.clone(),
                )
            });
            tracer.end(sp);
            match outcome {
                Ok((v, stats)) => {
                    record_eval_stats(metrics, &stats);
                    let _ = writeln!(out, "{v}");
                    Ok(())
                }
                Err(e) => {
                    let _ = writeln!(err, "fg: runtime error: {e}");
                    Err(EXIT_DIAGNOSTIC)
                }
            }
        }
        "translate" => {
            let _ = writeln!(out, "{}", compiled.term);
            Ok(())
        }
        "bytecode" => {
            let outcome = metrics.phase("vm_compile", || system_f::vm::compile(&compiled.term));
            match outcome {
                Ok(p) => {
                    let _ = write!(out, "{p}");
                    Ok(())
                }
                Err(e) => {
                    let _ = writeln!(err, "fg: compile error: {e}");
                    Err(EXIT_DIAGNOSTIC)
                }
            }
        }
        "vm" => {
            let sp = tracer.begin("vm_compile", Vec::new());
            let program = metrics.phase("vm_compile", || system_f::vm::compile(&compiled.term));
            tracer.end(sp);
            match program {
                Ok(p) => {
                    let sp = tracer.begin("vm_run", Vec::new());
                    let outcome =
                        metrics.phase("vm_run", || system_f::vm::run_profiled_budgeted(&p, budget));
                    tracer.end(sp);
                    match outcome {
                        Ok((v, stats)) => {
                            record_vm_stats(metrics, &stats);
                            let _ = writeln!(out, "{v}");
                            Ok(())
                        }
                        Err(e) => {
                            let _ = writeln!(err, "fg: vm error: {e}");
                            Err(EXIT_DIAGNOSTIC)
                        }
                    }
                }
                Err(e) => {
                    let _ = writeln!(err, "fg: compile error: {e}");
                    Err(EXIT_DIAGNOSTIC)
                }
            }
        }
        "run" => {
            let sp = tracer.begin("sf_typecheck", Vec::new());
            let well_typed = metrics.phase("sf_typecheck", || system_f::typecheck(&compiled.term));
            tracer.end(sp);
            if let Err(e) = well_typed {
                let _ = writeln!(err, "fg: internal error: translation is ill-typed: {e}");
                return Err(EXIT_DIAGNOSTIC);
            }
            let sp = tracer.begin("sf_eval", Vec::new());
            let outcome = metrics.phase("sf_eval", || {
                system_f::eval_budgeted(&compiled.term, budget)
            });
            tracer.end(sp);
            match outcome {
                Ok(v) => {
                    let _ = writeln!(out, "{v}");
                    Ok(())
                }
                Err(e) => {
                    let _ = writeln!(err, "fg: runtime error: {e}");
                    Err(EXIT_DIAGNOSTIC)
                }
            }
        }
        other => {
            let _ = writeln!(err, "fg: unknown command `{other}`");
            Err(EXIT_USAGE)
        }
    }
}

/// The checker's counters: scoped model lookup plus dictionary
/// construction (the `check` group) and congruence-closure work (the
/// `congruence` group).
fn record_check_stats(metrics: &mut Metrics, compiled: &Compiled) {
    let cs = compiled.check_stats;
    for (key, value) in [
        ("model_lookups", cs.model_lookups),
        ("model_hits", cs.model_hits),
        ("model_misses", cs.model_misses),
        ("candidates_scanned", cs.candidates_scanned),
        ("max_scope_depth", cs.max_scope_depth),
        ("dicts_built", cs.dicts_built),
        ("dict_instantiations", cs.dict_instantiations),
    ] {
        metrics.set_counter("check", key, value);
    }
    let is = compiled.intern_stats;
    for (key, value) in [
        ("hits", is.hits),
        ("misses", is.misses),
        ("subst_hits", is.subst_hits),
        ("subst_misses", is.subst_misses),
        ("arena_types", is.arena_types),
        ("arena_constraints", is.arena_constraints),
    ] {
        metrics.set_counter("intern", key, value);
    }
    let ts = compiled.type_eq_stats;
    for (key, value) in [
        ("eq_queries", ts.eq_queries),
        ("assertions", ts.assertions),
        ("resolves", ts.resolves),
        ("merges", ts.merges),
        ("unions", ts.unions),
        ("finds", ts.finds),
        ("terms", ts.terms),
        ("term_bank_peak", ts.term_bank_peak),
    ] {
        metrics.set_counter("congruence", key, value);
    }
}

/// The direct interpreter's runtime counters (the `direct_eval` group).
fn record_eval_stats(metrics: &mut Metrics, stats: &crate::interp::EvalStats) {
    for (key, value) in [
        ("eval_steps", stats.eval_steps),
        ("model_lookups", stats.model_lookups),
        ("model_hits", stats.model_hits),
        ("model_misses", stats.model_misses),
        ("candidates_scanned", stats.candidates_scanned),
        ("max_scope_depth", stats.max_scope_depth),
        ("dicts_built", stats.dicts_built),
        ("dict_instantiations", stats.dict_instantiations),
    ] {
        metrics.set_counter("direct_eval", key, value);
    }
}

/// The VM's per-opcode dispatch counts and stack gauges (the
/// `vm_dispatch` group).
fn record_vm_stats(metrics: &mut Metrics, stats: &system_f::vm::VmStats) {
    metrics.set_counter("vm_dispatch", "instructions", stats.instructions());
    for &(name, count) in &stats.by_opcode {
        metrics.set_counter("vm_dispatch", name, count);
    }
    metrics.set_counter("vm_dispatch", "max_frame_depth", stats.max_frame_depth);
    metrics.set_counter("vm_dispatch", "max_stack_depth", stats.max_stack_depth);
}

/// The budget's consumption gauges (the `limits` group), plus a
/// `budget_exhausted` trace instant if a cap tripped.
fn record_limits(metrics: &mut Metrics, budget: &Budget, tracer: &Tracer) {
    for (key, value) in [
        ("fuel_spent", budget.fuel_spent()),
        ("depth_peak", budget.depth_peak()),
        ("cc_terms", budget.cc_terms()),
        ("dict_nodes", budget.dict_nodes()),
        ("elapsed_ms", budget.elapsed_ms()),
    ] {
        metrics.set_counter("limits", key, value);
    }
    if let Some(x) = budget.exhausted() {
        metrics.set_counter("limits", "exhausted", 1);
        tracer.instant(
            "budget_exhausted",
            vec![
                ("resource", x.resource.as_str().into()),
                ("limit", x.limit.into()),
            ],
        );
    }
}

/// The pool's dispatch and cache counters (the `pool` counter group),
/// merged into the batch report and served by the daemon's `stats`
/// method.
pub fn record_pool_stats(
    metrics: &mut Metrics,
    workers: usize,
    stats: &crate::pool::PoolStats,
    cache: &crate::pool::CompileCache<CachedRun>,
) {
    for (key, value) in [
        ("workers", workers as u64),
        ("jobs", stats.jobs),
        ("steals", stats.steals),
        ("queue_depth_peak", stats.queue_depth_peak),
        ("panics", stats.panics),
        ("cache_hits", cache.hits()),
        ("cache_misses", cache.misses()),
        ("cache_entries", cache.len() as u64),
    ] {
        metrics.set_counter("pool", key, value);
    }
    for (id, ns) in stats.worker_busy_ns.iter().enumerate() {
        metrics.set_counter("pool", &format!("worker{id}_busy_ns"), *ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_compiles_and_runs() {
        let v = run("iadd(40, 2)", Limits::UNLIMITED).unwrap();
        assert_eq!(v, system_f::Value::Int(42));
    }

    #[test]
    fn omega_trips_fuel_not_forever() {
        let omega = "(fix f: fn(int) -> int. lam x: int. f(x))(0)";
        // Small caps: Ω deepens the Rust stack as it burns fuel, and test
        // threads have small stacks. The depth cap backstops the fuel cap.
        let err = run(
            omega,
            Limits {
                fuel: Some(500),
                max_depth: Some(64),
                ..Limits::UNLIMITED
            },
        )
        .unwrap_err();
        let x = err.exhausted().unwrap();
        assert!(
            matches!(x.resource, Resource::Fuel | Resource::Depth),
            "{x:?}"
        );
        assert_eq!(err.phase(), "eval");
    }

    #[test]
    fn deep_nesting_trips_parser_depth() {
        let mut src = String::new();
        src.push_str(&"(".repeat(200));
        src.push('1');
        src.push_str(&")".repeat(200));
        let budget = Arc::new(Budget::new(Limits {
            max_depth: Some(64),
            ..Limits::UNLIMITED
        }));
        let err = compile(&src, &budget).unwrap_err();
        assert_eq!(err.phase(), "parse");
        assert_eq!(err.exhausted().unwrap().resource, Resource::Depth);
    }

    #[test]
    fn exhaustion_is_latched_on_the_shared_budget() {
        let budget = Arc::new(Budget::new(Limits {
            fuel: Some(5),
            ..Limits::UNLIMITED
        }));
        let err = compile("iadd(iadd(1, 2), iadd(3, 4))", &budget).unwrap_err();
        assert!(err.exhausted().is_some());
        assert_eq!(budget.exhausted().unwrap().resource, Resource::Fuel);
    }
}
