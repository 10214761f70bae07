//! Typechecking errors for F_G.

use std::fmt;

use system_f::lexer::Span;
use system_f::Symbol;

use crate::rty::RTy;

/// A typechecking (or translation) error, with the source span of the
/// expression under scrutiny when it was raised.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckError {
    /// What went wrong.
    pub kind: ErrorKind,
    /// Where (the enclosing expression's span; zero for programmatic ASTs).
    pub span: Span,
}

impl CheckError {
    /// Creates an error at a span.
    pub fn new(kind: ErrorKind, span: Span) -> CheckError {
        CheckError { kind, span }
    }

    /// Renders the error with a line/column position computed from `src`,
    /// followed by an excerpt of the offending source line with a caret
    /// underline beneath the erroneous span:
    ///
    /// ```text
    /// 2:3: error: no model for `A<int>` is in scope
    ///   |   f[int](1)
    ///   |   ^^^^^^
    /// ```
    ///
    /// The underline covers the span's extent on its first line (clamped to
    /// the line end, at least one caret). Programmatic ASTs with a zero
    /// span, or spans past the end of `src`, render without an excerpt.
    pub fn render(&self, src: &str) -> String {
        let (line, col) = self.span.line_col(src);
        let mut out = format!("{}:{}: error: {}", line, col, self.kind);
        if self.span.end == 0 || self.span.start >= src.len() {
            return out;
        }
        let Some(text) = src.lines().nth(line - 1) else {
            return out;
        };
        // Underline in characters, from `col` to where the span leaves the
        // line (assuming char == byte for the ASCII concrete syntax, and
        // clamping otherwise).
        let chars_on_line = text.chars().count();
        let start = (col - 1).min(chars_on_line);
        let span_chars = self.span.end.saturating_sub(self.span.start).max(1);
        let width = span_chars.min(chars_on_line.saturating_sub(start)).max(1);
        let pad: String = text
            .chars()
            .take(start)
            .map(|c| if c == '\t' { '\t' } else { ' ' })
            .collect();
        out.push_str(&format!(
            "\n  |   {text}\n  |   {pad}{carets}",
            carets = "^".repeat(width)
        ));
        out
    }
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)
    }
}

impl std::error::Error for CheckError {}

/// The kinds of F_G type errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ErrorKind {
    /// Reference to an unbound term variable.
    UnboundVar(Symbol),
    /// Reference to a type variable not in scope.
    UnboundTyVar(Symbol),
    /// Reference to an undeclared concept.
    UnknownConcept(Symbol),
    /// Wrong number of arguments, type arguments, or concept arguments.
    ArityMismatch {
        /// What was being applied ("function", "concept `C`", …).
        what: String,
        /// Expected count.
        expected: usize,
        /// Supplied count.
        found: usize,
    },
    /// Applied a non-function.
    NotAFunction(RTy),
    /// Instantiated a non-polymorphic term.
    NotAForall(RTy),
    /// An argument's type does not match the parameter's.
    ArgMismatch {
        /// The parameter type.
        expected: RTy,
        /// The argument's type.
        found: RTy,
    },
    /// `if` condition is not `bool`.
    CondNotBool(RTy),
    /// `if` branches disagree.
    BranchMismatch(RTy, RTy),
    /// `fix` annotation does not match its body.
    FixMismatch {
        /// The annotation.
        annotated: RTy,
        /// The body's type.
        found: RTy,
    },
    /// A binder list repeats a name.
    DuplicateBinder(Symbol),
    /// A concept declares the same associated type or member twice, or an
    /// associated type collides with a type parameter.
    DuplicateConceptItem(Symbol),
    /// Projection of an associated type the concept does not declare.
    UnknownAssocType {
        /// The concept's name.
        concept: Symbol,
        /// The missing associated type.
        name: Symbol,
    },
    /// Member access to a member the concept (transitively) lacks.
    UnknownMember {
        /// The concept's name.
        concept: Symbol,
        /// The missing member.
        member: Symbol,
    },
    /// A model omits a member that has no default.
    MissingMember {
        /// The concept's name.
        concept: Symbol,
        /// The missing member.
        member: Symbol,
    },
    /// A model provides a member the concept does not declare.
    UnknownMemberInModel {
        /// The concept's name.
        concept: Symbol,
        /// The extraneous member.
        member: Symbol,
    },
    /// A model omits an associated-type assignment.
    MissingAssocAssignment {
        /// The concept's name.
        concept: Symbol,
        /// The unassigned associated type.
        name: Symbol,
    },
    /// A model assigns the same associated type (or member) twice.
    DuplicateModelItem(Symbol),
    /// No model for `C<τ̄>` is in scope.
    NoModel {
        /// The concept's name.
        concept: Symbol,
        /// Rendered type arguments.
        args: Vec<RTy>,
    },
    /// A refined (or required) concept of a model has no model in scope.
    MissingRefinedModel {
        /// The refined concept's name.
        concept: Symbol,
        /// Rendered type arguments.
        args: Vec<RTy>,
    },
    /// A model member's type does not match the concept's requirement.
    MemberTypeMismatch {
        /// The member.
        member: Symbol,
        /// The concept's required type (instantiated).
        expected: RTy,
        /// The implementation's type.
        found: RTy,
    },
    /// A same-type requirement does not hold at instantiation.
    SameTypeViolation(RTy, RTy),
    /// An associated type could not be resolved to a concrete System F
    /// type during translation.
    CannotResolveAssoc(RTy),
    /// A default body used a member that has no binding yet (defaults may
    /// only refer to members declared before them).
    DefaultUsesLaterMember {
        /// The concept.
        concept: Symbol,
        /// The too-early member reference.
        member: Symbol,
    },
    /// A concept was used where its dictionary is still under
    /// construction (inside a default body).
    ModelUnderConstruction {
        /// The concept's name.
        concept: Symbol,
    },
    /// Implicit instantiation could not determine all type arguments from
    /// the value arguments (§6: inference is restricted to monomorphic
    /// type arguments determined by matching).
    CannotInferTypeArgs {
        /// The type variables left undetermined.
        vars: Vec<Symbol>,
    },
    /// A parameterized model quantifies a parameter that never occurs in
    /// its head arguments. Model resolution is first-order matching
    /// against the head (§6), so such a parameter can never be
    /// determined at a use site and the model would be unusable.
    UnusedModelParam {
        /// The concept being modeled.
        concept: Symbol,
        /// The undeterminable parameter.
        param: Symbol,
    },
    /// An identifier `…_N` whose `N` is above
    /// [`system_f::Names::MAX_SUFFIX`]: no generated name can lie above
    /// it.
    SuffixTooLarge(Symbol),
    /// A configured resource budget (fuel, recursion depth, congruence
    /// nodes, dictionary nodes, or wall clock) was exhausted in some
    /// pipeline phase: an expected, recoverable outcome of running with
    /// limits.
    ResourceExhausted {
        /// Which budget tripped and at what limit.
        exhausted: telemetry::limits::Exhausted,
        /// The pipeline phase that tripped it ("parse", "check",
        /// "translate", "eval", …).
        phase: &'static str,
    },
}

fn fmt_args(args: &[RTy], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "<")?;
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{a}")?;
    }
    write!(f, ">")
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorKind::UnboundVar(x) => write!(f, "unbound variable `{x}`"),
            ErrorKind::UnboundTyVar(t) => write!(f, "unbound type variable `{t}`"),
            ErrorKind::UnknownConcept(c) => write!(f, "unknown concept `{c}`"),
            ErrorKind::ArityMismatch {
                what,
                expected,
                found,
            } => write!(f, "{what} expects {expected} argument(s), found {found}"),
            ErrorKind::NotAFunction(t) => write!(f, "expected a function, found `{t}`"),
            ErrorKind::NotAForall(t) => {
                write!(f, "expected a polymorphic term, found `{t}`")
            }
            ErrorKind::ArgMismatch { expected, found } => {
                write!(f, "argument type mismatch: expected `{expected}`, found `{found}`")
            }
            ErrorKind::CondNotBool(t) => write!(f, "condition must be `bool`, found `{t}`"),
            ErrorKind::BranchMismatch(a, b) => {
                write!(f, "branches of `if` disagree: `{a}` vs `{b}`")
            }
            ErrorKind::FixMismatch { annotated, found } => {
                write!(f, "fix body has type `{found}`, annotation says `{annotated}`")
            }
            ErrorKind::DuplicateBinder(x) => write!(f, "duplicate binder `{x}`"),
            ErrorKind::SuffixTooLarge(x) => write!(
                f,
                "identifier `{x}` ends in a number above {}",
                system_f::Names::MAX_SUFFIX
            ),
            ErrorKind::DuplicateConceptItem(x) => {
                write!(f, "duplicate name `{x}` in concept declaration")
            }
            ErrorKind::UnknownAssocType { concept, name } => {
                write!(f, "concept `{concept}` has no associated type `{name}`")
            }
            ErrorKind::UnknownMember { concept, member } => {
                write!(f, "concept `{concept}` has no member `{member}`")
            }
            ErrorKind::MissingMember { concept, member } => write!(
                f,
                "model does not define member `{member}` required by concept `{concept}`"
            ),
            ErrorKind::UnknownMemberInModel { concept, member } => write!(
                f,
                "model defines `{member}`, which concept `{concept}` does not declare"
            ),
            ErrorKind::MissingAssocAssignment { concept, name } => write!(
                f,
                "model does not assign associated type `{name}` required by concept `{concept}`"
            ),
            ErrorKind::DuplicateModelItem(x) => {
                write!(f, "duplicate definition of `{x}` in model declaration")
            }
            ErrorKind::NoModel { concept, args } => {
                write!(f, "no model for `{concept}")?;
                fmt_args(args, f)?;
                write!(f, "` is in scope")
            }
            ErrorKind::MissingRefinedModel { concept, args } => {
                write!(f, "missing model for refined concept `{concept}")?;
                fmt_args(args, f)?;
                write!(f, "`")
            }
            ErrorKind::MemberTypeMismatch {
                member,
                expected,
                found,
            } => write!(
                f,
                "member `{member}` has type `{found}` but the concept requires `{expected}`"
            ),
            ErrorKind::SameTypeViolation(a, b) => {
                write!(f, "same-type constraint violated: `{a}` is not equal to `{b}`")
            }
            ErrorKind::CannotResolveAssoc(t) => write!(
                f,
                "cannot resolve associated type `{t}` to a concrete type (no model assignment in scope)"
            ),
            ErrorKind::DefaultUsesLaterMember { concept, member } => write!(
                f,
                "default body refers to member `{member}` of `{concept}` before it is defined"
            ),
            ErrorKind::ModelUnderConstruction { concept } => write!(
                f,
                "the model for `{concept}` is still under construction here and cannot be used as a whole dictionary"
            ),
            ErrorKind::CannotInferTypeArgs { vars } => {
                write!(f, "cannot infer type argument(s)")?;
                for (i, v) in vars.iter().enumerate() {
                    write!(f, "{} `{v}`", if i == 0 { "" } else { "," })?;
                }
                write!(f, "; supply them explicitly with `[…]`")
            }
            ErrorKind::UnusedModelParam { concept, param } => write!(
                f,
                "model parameter `{param}` does not occur in the arguments of `{concept}`, \
                 so it can never be determined at a use site"
            ),
            ErrorKind::ResourceExhausted { exhausted, phase } => {
                write!(f, "{exhausted} during {phase}; raise the limit or simplify the program")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_model_at(start: usize, end: usize) -> CheckError {
        CheckError::new(
            ErrorKind::NoModel {
                concept: Symbol::intern("A"),
                args: vec![RTy::Int],
            },
            Span::new(start, end),
        )
    }

    #[test]
    fn render_pins_position_excerpt_and_caret_format() {
        let src = "concept A<t> { }\nf[int](1)\n";
        // Span of `f[int]` on line 2 (bytes 17..23).
        let err = no_model_at(17, 23);
        assert_eq!(
            err.render(src),
            "2:1: error: no model for `A<int>` is in scope\n\
             \x20 |   f[int](1)\n\
             \x20 |   ^^^^^^"
        );
    }

    #[test]
    fn render_caret_is_clamped_to_the_line_end() {
        let src = "x\nfoo bar\n";
        // A span that runs past the end of line 2 from column 5.
        let err = no_model_at(6, 60);
        let rendered = err.render(src);
        assert!(
            rendered.ends_with("  |   foo bar\n  |       ^^^"),
            "unexpected render:\n{rendered}"
        );
    }

    #[test]
    fn render_zero_span_has_no_excerpt() {
        let err = no_model_at(0, 0);
        assert_eq!(
            err.render("whatever\n"),
            "1:1: error: no model for `A<int>` is in scope"
        );
    }

    #[test]
    fn render_span_past_source_end_has_no_excerpt() {
        let err = no_model_at(100, 104);
        let rendered = err.render("short\n");
        assert!(!rendered.contains('|'), "unexpected excerpt:\n{rendered}");
    }
}
