//! A shared lexer for the concrete syntaxes of System F and F_G.
//!
//! Both languages draw from the same token alphabet (identifiers, integer
//! literals, and a small set of punctuation); keywords are recognized by the
//! parsers, not the lexer, so this module is reused by the `fg` crate.

use std::fmt;

use crate::Symbol;

/// A half-open byte range into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Start byte offset (inclusive).
    pub start: usize,
    /// End byte offset (exclusive).
    pub end: usize,
}

impl Span {
    /// Creates a span covering `start..end`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Computes the 1-based line and column of the span start in `src`.
    pub fn line_col(self, src: &str) -> (usize, usize) {
        let mut line = 1;
        let mut col = 1;
        for (i, c) in src.char_indices() {
            if i >= self.start {
                break;
            }
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }
}

/// The kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident(Symbol),
    /// A non-negative integer literal.
    Int(i64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `.`
    Dot,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `=`
    Eq,
    /// `==`
    EqEq,
    /// `->`
    Arrow,
    /// `-` (only used to form negative literals in parsers)
    Minus,
    /// End of input (always the final token).
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Int(n) => write!(f, "`{n}`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBracket => write!(f, "`[`"),
            TokenKind::RBracket => write!(f, "`]`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::Lt => write!(f, "`<`"),
            TokenKind::Gt => write!(f, "`>`"),
            TokenKind::Dot => write!(f, "`.`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::Semi => write!(f, "`;`"),
            TokenKind::Eq => write!(f, "`=`"),
            TokenKind::EqEq => write!(f, "`==`"),
            TokenKind::Arrow => write!(f, "`->`"),
            TokenKind::Minus => write!(f, "`-`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it was lexed from.
    pub span: Span,
}

/// A lexical error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LexError {
    /// A character that starts no token.
    UnexpectedChar {
        /// The offending character.
        ch: char,
        /// Its position.
        at: usize,
    },
    /// An integer literal that overflows `i64`.
    IntOverflow {
        /// The literal's span.
        span: Span,
    },
    /// A `/*` comment with no matching `*/`.
    UnterminatedComment {
        /// Where the comment started.
        at: usize,
    },
}

impl LexError {
    /// The same error with its position shifted by `offset` bytes: for
    /// text lexed apart from the program it sits in.
    pub fn offset_by(self, offset: usize) -> LexError {
        match self {
            LexError::UnexpectedChar { ch, at } => LexError::UnexpectedChar {
                ch,
                at: at + offset,
            },
            LexError::IntOverflow { span } => LexError::IntOverflow {
                span: Span::new(span.start + offset, span.end + offset),
            },
            LexError::UnterminatedComment { at } => {
                LexError::UnterminatedComment { at: at + offset }
            }
        }
    }
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LexError::UnexpectedChar { ch, at } => {
                write!(f, "unexpected character {ch:?} at byte {at}")
            }
            LexError::IntOverflow { span } => {
                write!(f, "integer literal at bytes {}..{} overflows", span.start, span.end)
            }
            LexError::UnterminatedComment { at } => {
                write!(f, "unterminated block comment starting at byte {at}")
            }
        }
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `src`, appending a final [`TokenKind::Eof`] token.
///
/// Identifiers are `[A-Za-z_][A-Za-z0-9_']*`. Line comments start with `//`,
/// block comments are `/* … */` (non-nesting). Keywords are *not*
/// distinguished here — parsers match on identifier symbols.
///
/// # Errors
///
/// Returns a [`LexError`] for characters outside the alphabet, overflowing
/// integer literals, and unterminated block comments.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LexError::UnterminatedComment { at: start });
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let span = Span::new(start, i);
                let text = &src[start..i];
                let n: i64 = text.parse().map_err(|_| LexError::IntOverflow { span })?;
                tokens.push(Token {
                    kind: TokenKind::Int(n),
                    span,
                });
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'\'')
                {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(Symbol::intern(&src[start..i])),
                    span: Span::new(start, i),
                });
            }
            _ => {
                let single = |kind| Token {
                    kind,
                    span: Span::new(i, i + 1),
                };
                let double = |kind| Token {
                    kind,
                    span: Span::new(i, i + 2),
                };
                let (tok, adv) = match b {
                    b'(' => (single(TokenKind::LParen), 1),
                    b')' => (single(TokenKind::RParen), 1),
                    b'[' => (single(TokenKind::LBracket), 1),
                    b']' => (single(TokenKind::RBracket), 1),
                    b'{' => (single(TokenKind::LBrace), 1),
                    b'}' => (single(TokenKind::RBrace), 1),
                    b'<' => (single(TokenKind::Lt), 1),
                    b'>' => (single(TokenKind::Gt), 1),
                    b'.' => (single(TokenKind::Dot), 1),
                    b',' => (single(TokenKind::Comma), 1),
                    b':' => (single(TokenKind::Colon), 1),
                    b';' => (single(TokenKind::Semi), 1),
                    b'=' if bytes.get(i + 1) == Some(&b'=') => (double(TokenKind::EqEq), 2),
                    b'=' => (single(TokenKind::Eq), 1),
                    b'-' if bytes.get(i + 1) == Some(&b'>') => (double(TokenKind::Arrow), 2),
                    b'-' => (single(TokenKind::Minus), 1),
                    _ => {
                        let ch = src[i..].chars().next().unwrap_or('\u{FFFD}');
                        return Err(LexError::UnexpectedChar { ch, at: i });
                    }
                };
                tokens.push(tok);
                i += adv;
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        span: Span::new(src.len(), src.len()),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_identifiers_and_ints() {
        let ks = kinds("foo 42 bar_baz x'");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident(Symbol::intern("foo")),
                TokenKind::Int(42),
                TokenKind::Ident(Symbol::intern("bar_baz")),
                TokenKind::Ident(Symbol::intern("x'")),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_punctuation() {
        let ks = kinds("( ) [ ] { } < > . , : ; = == -> -");
        assert_eq!(
            ks,
            vec![
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::LBracket,
                TokenKind::RBracket,
                TokenKind::LBrace,
                TokenKind::RBrace,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Dot,
                TokenKind::Comma,
                TokenKind::Colon,
                TokenKind::Semi,
                TokenKind::Eq,
                TokenKind::EqEq,
                TokenKind::Arrow,
                TokenKind::Minus,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn skips_comments() {
        let ks = kinds("a // line comment\n b /* block \n comment */ c");
        assert_eq!(ks.len(), 4); // a b c eof
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        assert!(matches!(
            lex("/* oops"),
            Err(LexError::UnterminatedComment { at: 0 })
        ));
    }

    #[test]
    fn unexpected_char_is_an_error() {
        assert!(matches!(
            lex("a @ b"),
            Err(LexError::UnexpectedChar { ch: '@', at: 2 })
        ));
    }

    #[test]
    fn int_overflow_is_an_error() {
        assert!(matches!(
            lex("99999999999999999999999999"),
            Err(LexError::IntOverflow { .. })
        ));
    }

    #[test]
    fn spans_point_into_source() {
        let src = "ab  cd";
        let toks = lex(src).unwrap();
        assert_eq!(&src[toks[0].span.start..toks[0].span.end], "ab");
        assert_eq!(&src[toks[1].span.start..toks[1].span.end], "cd");
    }

    #[test]
    fn line_col_reporting() {
        let src = "a\nbb c";
        let toks = lex(src).unwrap();
        assert_eq!(toks[0].span.line_col(src), (1, 1));
        assert_eq!(toks[1].span.line_col(src), (2, 1));
        assert_eq!(toks[2].span.line_col(src), (2, 4));
    }
}
