//! SQL tokenizer.
//!
//! Produces a flat token stream with byte positions for error messages in
//! the `line:col:` style Presto users expect. Keywords are recognized
//! case-insensitively; identifiers can be double-quoted, strings are
//! single-quoted with `''` escaping.

use presto_common::{PrestoError, Result};
use std::fmt;

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Unquoted identifier or keyword, normalized to lowercase.
    Ident(String),
    /// Double-quoted identifier, case preserved.
    QuotedIdent(String),
    /// Single-quoted string literal.
    String(String),
    /// Integer literal.
    Integer(i64),
    /// Floating-point literal.
    Float(f64),
    // punctuation
    Comma,
    Dot,
    LParen,
    RParen,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// End of input sentinel.
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::QuotedIdent(s) => write!(f, "\"{s}\""),
            Token::String(s) => write!(f, "'{s}'"),
            Token::Integer(v) => write!(f, "{v}"),
            Token::Float(v) => write!(f, "{v}"),
            Token::Comma => f.write_str(","),
            Token::Dot => f.write_str("."),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::Star => f.write_str("*"),
            Token::Plus => f.write_str("+"),
            Token::Minus => f.write_str("-"),
            Token::Slash => f.write_str("/"),
            Token::Percent => f.write_str("%"),
            Token::Eq => f.write_str("="),
            Token::Ne => f.write_str("<>"),
            Token::Lt => f.write_str("<"),
            Token::Le => f.write_str("<="),
            Token::Gt => f.write_str(">"),
            Token::Ge => f.write_str(">="),
            Token::Eof => f.write_str("<eof>"),
        }
    }
}

/// A token plus its source position (1-based line and column).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    pub token: Token,
    pub line: u32,
    pub col: u32,
}

/// Tokenize `sql` into a vector ending with [`Token::Eof`].
pub fn tokenize(sql: &str) -> Result<Vec<Spanned>> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = sql.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    macro_rules! bump {
        () => {{
            if chars[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }
    while i < chars.len() {
        let (start_line, start_col) = (line, col);
        let c = chars[i];
        let token = match c {
            c if c.is_whitespace() => {
                bump!();
                continue;
            }
            '-' if i + 1 < chars.len() && chars[i + 1] == '-' => {
                // line comment
                while i < chars.len() && chars[i] != '\n' {
                    bump!();
                }
                continue;
            }
            ',' => {
                bump!();
                Token::Comma
            }
            '.' => {
                bump!();
                Token::Dot
            }
            '(' => {
                bump!();
                Token::LParen
            }
            ')' => {
                bump!();
                Token::RParen
            }
            '*' => {
                bump!();
                Token::Star
            }
            '+' => {
                bump!();
                Token::Plus
            }
            '-' => {
                bump!();
                Token::Minus
            }
            '/' => {
                bump!();
                Token::Slash
            }
            '%' => {
                bump!();
                Token::Percent
            }
            '=' => {
                bump!();
                Token::Eq
            }
            '!' if i + 1 < chars.len() && chars[i + 1] == '=' => {
                bump!();
                bump!();
                Token::Ne
            }
            '<' => {
                bump!();
                if i < chars.len() && chars[i] == '=' {
                    bump!();
                    Token::Le
                } else if i < chars.len() && chars[i] == '>' {
                    bump!();
                    Token::Ne
                } else {
                    Token::Lt
                }
            }
            '>' => {
                bump!();
                if i < chars.len() && chars[i] == '=' {
                    bump!();
                    Token::Ge
                } else {
                    Token::Gt
                }
            }
            '\'' => {
                bump!();
                let mut s = String::new();
                loop {
                    if i >= chars.len() {
                        return Err(PrestoError::user(format!(
                            "line {start_line}:{start_col}: unterminated string literal"
                        )));
                    }
                    if chars[i] == '\'' {
                        if i + 1 < chars.len() && chars[i + 1] == '\'' {
                            s.push('\'');
                            bump!();
                            bump!();
                        } else {
                            bump!();
                            break;
                        }
                    } else {
                        s.push(chars[i]);
                        bump!();
                    }
                }
                Token::String(s)
            }
            '"' => {
                bump!();
                let mut s = String::new();
                loop {
                    if i >= chars.len() {
                        return Err(PrestoError::user(format!(
                            "line {start_line}:{start_col}: unterminated quoted identifier"
                        )));
                    }
                    if chars[i] == '"' {
                        bump!();
                        break;
                    }
                    s.push(chars[i]);
                    bump!();
                }
                Token::QuotedIdent(s)
            }
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                let mut is_float = false;
                while i < chars.len()
                    && (chars[i].is_ascii_digit()
                        || chars[i] == '.'
                        || chars[i] == 'e'
                        || chars[i] == 'E'
                        || ((chars[i] == '+' || chars[i] == '-') && s.ends_with(['e', 'E'])))
                {
                    if chars[i] == '.' {
                        // `1.x` where x isn't a digit: the dot is punctuation.
                        if i + 1 >= chars.len() || !chars[i + 1].is_ascii_digit() {
                            break;
                        }
                        is_float = true;
                    }
                    if chars[i] == 'e' || chars[i] == 'E' {
                        is_float = true;
                    }
                    s.push(chars[i]);
                    bump!();
                }
                if is_float {
                    Token::Float(s.parse().map_err(|_| {
                        PrestoError::user(format!(
                            "line {start_line}:{start_col}: invalid number '{s}'"
                        ))
                    })?)
                } else {
                    Token::Integer(s.parse().map_err(|_| {
                        PrestoError::user(format!(
                            "line {start_line}:{start_col}: invalid number '{s}'"
                        ))
                    })?)
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    s.push(chars[i]);
                    bump!();
                }
                Token::Ident(s.to_ascii_lowercase())
            }
            c => {
                return Err(PrestoError::user(format!(
                    "line {start_line}:{start_col}: unexpected character '{c}'"
                )))
            }
        };
        tokens.push(Spanned {
            token,
            line: start_line,
            col: start_col,
        });
    }
    tokens.push(Spanned {
        token: Token::Eof,
        line,
        col,
    });
    Ok(tokens)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn toks(sql: &str) -> Vec<Token> {
        tokenize(sql)
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    #[test]
    fn keywords_lowercased_identifiers() {
        assert_eq!(
            toks("SELECT Foo FROM bar"),
            vec![
                Token::Ident("select".into()),
                Token::Ident("foo".into()),
                Token::Ident("from".into()),
                Token::Ident("bar".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("1 2.5 3e2 10.0"),
            vec![
                Token::Integer(1),
                Token::Float(2.5),
                Token::Float(300.0),
                Token::Float(10.0),
                Token::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            toks("'it''s'"),
            vec![Token::String("it's".into()), Token::Eof]
        );
        assert!(tokenize("'unterminated").is_err());
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("a <= b <> c != d >= e"),
            vec![
                Token::Ident("a".into()),
                Token::Le,
                Token::Ident("b".into()),
                Token::Ne,
                Token::Ident("c".into()),
                Token::Ne,
                Token::Ident("d".into()),
                Token::Ge,
                Token::Ident("e".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("select -- comment\n 1"),
            vec![Token::Ident("select".into()), Token::Integer(1), Token::Eof]
        );
    }

    #[test]
    fn qualified_dotted_name() {
        assert_eq!(
            toks("t.x"),
            vec![
                Token::Ident("t".into()),
                Token::Dot,
                Token::Ident("x".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn positions_reported() {
        let spanned = tokenize("a\n  b").unwrap();
        assert_eq!((spanned[0].line, spanned[0].col), (1, 1));
        assert_eq!((spanned[1].line, spanned[1].col), (2, 3));
    }

    #[test]
    fn error_on_garbage() {
        assert!(tokenize("select @").is_err());
    }
}
