//! Checks every answer against the reference computed by the generator.
//! `translate` output is checked as Theorem 1 predicts: it must re-parse
//! as System F, typecheck, and evaluate to the program's value.

use std::collections::HashMap;
use std::sync::Arc;

use telemetry::limits::{Budget, Limits};

use crate::drive::Reply;
use crate::gen::{Expect, Prog, Unit};

/// The text `fg explain` prints for a resolution of the model the
/// explain programs (Figs. 5 and 6) instantiate.
const EXPLAIN_MARKER: &str = "resolve Monoid<int>";

fn theorem1(term_text: &str, v: crate::gen::Val) -> Result<(), String> {
    let term =
        system_f::parse_term(term_text).map_err(|e| format!("translation does not parse: {e}"))?;
    system_f::typecheck(&term).map_err(|e| format!("translation does not typecheck: {e}"))?;
    let budget = Budget::new(Limits::DEFAULT_CAPS);
    let got =
        system_f::eval_budgeted(&term, &budget).map_err(|e| format!("translation fails: {e}"))?;
    if v.matches(&got) {
        Ok(())
    } else {
        Err(format!(
            "translation evaluates to {got}, expected {}",
            v.render()
        ))
    }
}

/// Checks one program's answer to `cmd`. `explain_text` is false for the
/// in-process replay, which checks but does not render explanations.
pub fn check_one(
    cmd: &str,
    prog: &Prog,
    code: i32,
    stdout: &str,
    stderr: &str,
    explain_text: bool,
) -> Result<(), String> {
    match prog.expect {
        Expect::Reject(msg) => {
            if code == 1 && stdout.is_empty() && stderr.contains(msg) {
                Ok(())
            } else {
                Err(format!(
                    "expected exit 1 naming `{msg}`, got exit {code}: {stdout}{stderr}"
                ))
            }
        }
        Expect::Val(v) => {
            if code != 0 {
                return Err(format!("expected exit 0, got exit {code}: {stderr}"));
            }
            let line = stdout.strip_suffix('\n').unwrap_or(stdout);
            let ok = match cmd {
                "check" => line == v.ty() || Some(line) == prog.alt_ty,
                "run" | "vm" | "direct" => line == v.render(),
                "translate" => return theorem1(line, v),
                "explain" => !explain_text || stdout.contains(EXPLAIN_MARKER),
                other => return Err(format!("no reference for command `{other}`")),
            };
            if ok {
                Ok(())
            } else {
                Err(format!(
                    "`{cmd}` printed {line:?}, expected {}",
                    if cmd == "check" {
                        v.ty().to_owned()
                    } else {
                        v.render()
                    }
                ))
            }
        }
    }
}

/// Checks a unit's reply: one program, or a `--jobs` batch whose
/// stdout holds one line per file, in input order.
pub fn check_unit(unit: &Unit, reply: &Reply) -> Result<(), String> {
    if let [prog] = unit.progs.as_slice() {
        return check_one(
            unit.cmd,
            prog,
            reply.code,
            &reply.stdout,
            &reply.stderr,
            true,
        );
    }
    if reply.code != 0 {
        return Err(format!("batch exited {}: {}", reply.code, reply.stderr));
    }
    let lines: Vec<&str> = reply.stdout.lines().collect();
    if lines.len() != unit.progs.len() {
        return Err(format!(
            "batch printed {} lines for {} files",
            lines.len(),
            unit.progs.len()
        ));
    }
    for (prog, line) in unit.progs.iter().zip(lines) {
        check_one(unit.cmd, prog, 0, &format!("{line}\n"), "", true)?;
    }
    Ok(())
}

/// Verifies replies after the measured window, so checking costs no
/// measured time. A reply byte-identical to the first reply for the same
/// input shares its verdict; any other reply is checked on its own.
#[derive(Default)]
pub struct Verifier {
    first: HashMap<usize, (Arc<Unit>, Reply, u64)>,
    odd: Vec<(Arc<Unit>, Reply)>,
}

impl Verifier {
    pub fn record(&mut self, unit: &Arc<Unit>, reply: Reply) {
        match self.first.get_mut(&unit.key) {
            Some((_, first, n))
                if first.stdout == reply.stdout
                    && first.stderr == reply.stderr
                    && first.code == reply.code =>
            {
                *n += 1
            }
            Some(_) => self.odd.push((Arc::clone(unit), reply)),
            None => {
                self.first.insert(unit.key, (Arc::clone(unit), reply, 1));
            }
        }
    }

    /// Returns (failed ops, failed programs, first failure message).
    pub fn finish(self) -> (u64, u64, Option<String>) {
        let mut failed_ops = 0;
        let mut failed_progs = 0;
        let mut first_err = None;
        let all = self
            .first
            .into_values()
            .chain(self.odd.into_iter().map(|(u, r)| (u, r, 1)));
        for (unit, reply, n) in all {
            if let Err(e) = check_unit(&unit, &reply) {
                failed_ops += n;
                failed_progs += n * unit.progs.len() as u64;
                first_err.get_or_insert_with(|| format!("{} `{}`: {e}", unit.key, unit.cmd));
            }
        }
        (failed_ops, failed_progs, first_err)
    }
}
