//! The prelude snapshot: the checker stopped at the body hole of
//! [`PRELUDE`], built once per thread, so that a `--prelude` request
//! parses and checks only its body (DESIGN.md §13).
//!
//! [`run_request`](super::run_request) takes this path only when it is
//! observably the same as checking the whole program (see [`eligible`]
//! and [`PreludeSnapshot::admits`]) and the thread has had an eligible
//! request before (see [`with_snapshot`]); every other request re-parses
//! and re-checks the prelude.

use std::cell::{Cell, OnceCell};
use std::sync::{Arc, OnceLock};

use system_f::ParseError;
use telemetry::limits::{Budget, Limits};
use telemetry::trace::Tracer;

use crate::ast::Expr;
use crate::check::{Compiled, Hole};
use crate::error::{CheckError, ErrorKind};
use crate::parser::{parse_body_budgeted, parse_expr_peak};
use crate::stdlib::{with_prelude, PRELUDE};

/// The byte offset of the body in `with_prelude(body)`.
const BODY_OFFSET: usize = PRELUDE.len() + 1;

/// The state a prelude body is checked against: the checker at the hole
/// (its environment, the declarations' frames, and what checking them
/// charged) plus the depth the prelude's own parse reaches.
pub(super) struct PreludeSnapshot {
    hole: Hole<'static>,
    parse_peak: u64,
}

/// The prelude with a placeholder body, parsed once per process, and the
/// depth its parse reaches. Every thread's snapshot frames borrow their
/// declarations from it.
fn parsed_prelude() -> &'static (Expr, usize) {
    static PARSED: OnceLock<(Expr, usize)> = OnceLock::new();
    PARSED.get_or_init(|| parse_expr_peak(&with_prelude("0")).expect("the prelude parses"))
}

impl PreludeSnapshot {
    /// Checks the prelude up to its hole.
    fn build() -> PreludeSnapshot {
        let (expr, parse_peak) = parsed_prelude();
        let (hole, body) = Hole::build(expr).expect("the prelude checks");
        assert_eq!(body.span.start, BODY_OFFSET, "the prelude ends in its hole");
        PreludeSnapshot {
            hole,
            parse_peak: *parse_peak as u64,
        }
    }

    /// Whether `limits` let the whole prelude through: the full path
    /// would trip inside the prelude exactly when they do not.
    pub(super) fn admits(&self, limits: &Limits) -> bool {
        limits.admits(&self.hole.consumed())
            && limits.max_depth.is_none_or(|cap| self.parse_peak <= cap)
    }

    /// Parses the body of `full` (a `with_prelude` program) at the hole.
    /// Each declaration parses its body one level deeper, so the parser's
    /// depth there is the number of declarations.
    pub(super) fn parse_body(&self, full: &str, budget: &Arc<Budget>) -> Result<Expr, ParseError> {
        let text = &full[BODY_OFFSET..];
        parse_body_budgeted(text, BODY_OFFSET, self.hole.depth(), budget.clone())
    }

    /// Charges the prelude's consumption to `budget`, then checks `body`
    /// in a fork of the hole.
    pub(super) fn check_body(
        &self,
        body: &Expr,
        budget: &Arc<Budget>,
    ) -> Result<Compiled, CheckError> {
        let _levels = budget
            .replay(&self.hole.consumed(), self.hole.depth() as u64)
            .map_err(|exhausted| {
                CheckError::new(
                    ErrorKind::ResourceExhausted {
                        exhausted,
                        phase: "check",
                    },
                    body.span,
                )
            })?;
        self.hole.fork(budget).check_body(body)
    }
}

/// Whether a `--prelude` request may use the snapshot, before its caps
/// are looked at: no tracer (a traced check must report the prelude's
/// events too, and the where-clause memo follows the same rule), no
/// armed fault plan (fault points count visits inside the prelude), a
/// command that works on the checked program, and a body that cannot
/// capture a name the snapshot minted.
pub(super) fn eligible(cmd: &str, body: &str, tracer: &Tracer) -> bool {
    !tracer.is_enabled()
        && !telemetry::fault::armed()
        && !matches!(cmd, "ast" | "fmt" | "explain")
        && !may_raise_floor(body)
}

/// Whether `body` could spell an identifier `…_N`: any `_` followed by
/// a digit counts. Such an identifier raises the full path's floor (see
/// [`system_f::Names`]), so the full check would number every generated
/// name, the prelude's included, from above it; the snapshot numbered
/// the prelude's names from the prelude's own floor, 0. The body could
/// then also bind one of the snapshot's names and capture a prelude
/// dictionary.
fn may_raise_floor(body: &str) -> bool {
    body.as_bytes()
        .windows(2)
        .any(|w| w[0] == b'_' && w[1].is_ascii_digit())
}

thread_local! {
    /// Whether this thread has had an eligible request yet.
    static SEEN: Cell<bool> = const { Cell::new(false) };
    /// This thread's snapshot, built on its second eligible request. Type
    /// arenas are `!Send`, and pool workers live as long as their pool.
    static SNAPSHOT: OnceCell<PreludeSnapshot> = const { OnceCell::new() };
}

/// Runs `f` with this thread's snapshot, building it first if needed;
/// with `None` on the thread's first eligible request. Building the
/// snapshot and forking it costs more than one full check, so a
/// one-shot `--prelude` run only pays for it once a second request
/// arrives that can use it.
pub(super) fn with_snapshot<R>(f: impl FnOnce(Option<&PreludeSnapshot>) -> R) -> R {
    if !SEEN.replace(true) {
        return f(None);
    }
    SNAPSHOT.with(|cell| f(Some(cell.get_or_init(PreludeSnapshot::build))))
}
