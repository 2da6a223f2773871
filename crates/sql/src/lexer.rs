//! SQL tokenizer.

use crate::span::Span;
use std::fmt;

/// SQL tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    /// Keywords are uppercased identifiers from the reserved list.
    Keyword(String),
    Comma,
    Dot,
    LParen,
    RParen,
    Semi,
    Star,
    Plus,
    Minus,
    Slash,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Keyword(k) => write!(f, "{k}"),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Semi => write!(f, ";"),
            Token::Star => write!(f, "*"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
        }
    }
}

/// A lexing failure with the byte range it occurred at.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    pub message: String,
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.span.start)
    }
}

const KEYWORDS: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "BY",
    "HAVING",
    "ORDER",
    "AS",
    "AND",
    "OR",
    "NOT",
    "SUM",
    "COUNT",
    "MIN",
    "MAX",
    "AVG",
    "ASC",
    "DESC",
    "IS",
    "NULL",
    "BETWEEN",
    "CREATE",
    "MATERIALIZED",
    "VIEW",
    "DISTINCT",
];

/// Tokenize SQL text, returning each token with the half-open byte span
/// it was lexed from.
pub(crate) fn tokenize_spanned(input: &str) -> Result<Vec<(Token, Span)>, LexError> {
    let bytes = input.as_bytes();
    let mut i = 0usize;
    let mut out: Vec<(Token, Span)> = Vec::new();
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            ',' => {
                out.push((Token::Comma, Span::new(i, i + 1)));
                i += 1;
            }
            '.' => {
                out.push((Token::Dot, Span::new(i, i + 1)));
                i += 1;
            }
            '(' => {
                out.push((Token::LParen, Span::new(i, i + 1)));
                i += 1;
            }
            ')' => {
                out.push((Token::RParen, Span::new(i, i + 1)));
                i += 1;
            }
            ';' => {
                out.push((Token::Semi, Span::new(i, i + 1)));
                i += 1;
            }
            '*' => {
                out.push((Token::Star, Span::new(i, i + 1)));
                i += 1;
            }
            '+' => {
                out.push((Token::Plus, Span::new(i, i + 1)));
                i += 1;
            }
            '-' => {
                out.push((Token::Minus, Span::new(i, i + 1)));
                i += 1;
            }
            '/' => {
                out.push((Token::Slash, Span::new(i, i + 1)));
                i += 1;
            }
            '=' => {
                out.push((Token::Eq, Span::new(i, i + 1)));
                i += 1;
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push((Token::Le, Span::new(i, i + 2)));
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    out.push((Token::Ne, Span::new(i, i + 2)));
                    i += 2;
                } else {
                    out.push((Token::Lt, Span::new(i, i + 1)));
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push((Token::Ge, Span::new(i, i + 2)));
                    i += 2;
                } else {
                    out.push((Token::Gt, Span::new(i, i + 1)));
                    i += 1;
                }
            }
            '!' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => {
                out.push((Token::Ne, Span::new(i, i + 2)));
                i += 2;
            }
            '\'' => {
                let quote = i;
                let start = i + 1;
                let mut j = start;
                let mut s = String::new();
                loop {
                    if j >= bytes.len() {
                        return Err(LexError {
                            message: "unterminated string literal".to_string(),
                            span: Span::new(quote, bytes.len()),
                        });
                    }
                    if bytes[j] == b'\'' {
                        // doubled quote = escaped quote
                        if j + 1 < bytes.len() && bytes[j + 1] == b'\'' {
                            s.push('\'');
                            j += 2;
                            continue;
                        }
                        break;
                    }
                    s.push(bytes[j] as char);
                    j += 1;
                }
                out.push((Token::Str(s), Span::new(quote, j + 1)));
                i = j + 1;
            }
            '0'..='9' => {
                let start = i;
                let mut seen_dot = false;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit() || (bytes[i] == b'.' && !seen_dot))
                {
                    if bytes[i] == b'.' {
                        // Don't eat "1." in "1.x" (no such syntax here, but safe).
                        if i + 1 >= bytes.len() || !bytes[i + 1].is_ascii_digit() {
                            break;
                        }
                        seen_dot = true;
                    }
                    i += 1;
                }
                let text = &input[start..i];
                let span = Span::new(start, i);
                if seen_dot {
                    let f = text.parse().map_err(|e| LexError {
                        message: format!("bad float {text}: {e}"),
                        span,
                    })?;
                    out.push((Token::Float(f), span));
                } else {
                    let n = text.parse().map_err(|e| LexError {
                        message: format!("bad int {text}: {e}"),
                        span,
                    })?;
                    out.push((Token::Int(n), span));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == 'Δ' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] >= 0x80)
                {
                    i += 1;
                }
                let word = &input[start..i];
                let upper = word.to_ascii_uppercase();
                let span = Span::new(start, i);
                if KEYWORDS.contains(&upper.as_str()) {
                    out.push((Token::Keyword(upper), span));
                } else {
                    out.push((Token::Ident(word.to_string()), span));
                }
            }
            c if (c as u32) >= 0x80 => {
                // Unicode identifier start (delta tables: Δcustomer+ is
                // registered programmatically, not parsed; but accept the
                // bytes as part of identifiers).
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] >= 0x80)
                {
                    i += 1;
                }
                out.push((
                    Token::Ident(input[start..i].to_string()),
                    Span::new(start, i),
                ));
            }
            other => {
                return Err(LexError {
                    message: format!("unexpected character '{other}'"),
                    span: Span::new(i, i + 1),
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokenize(input: &str) -> Result<Vec<Token>, String> {
        tokenize_spanned(input)
            .map(|toks| toks.into_iter().map(|(t, _)| t).collect())
            .map_err(|e| e.to_string())
    }

    #[test]
    fn tokenizes_simple_select() {
        let toks = tokenize("select a, b from t where a < 10").unwrap();
        assert_eq!(toks[0], Token::Keyword("SELECT".into()));
        assert_eq!(toks[1], Token::Ident("a".into()));
        assert!(toks.contains(&Token::Lt));
        assert!(toks.contains(&Token::Int(10)));
    }

    #[test]
    fn strings_and_escapes() {
        let toks = tokenize("'1996-07-01' 'it''s'").unwrap();
        assert_eq!(toks[0], Token::Str("1996-07-01".into()));
        assert_eq!(toks[1], Token::Str("it's".into()));
    }

    #[test]
    fn numbers() {
        let toks = tokenize("3.5 42").unwrap();
        assert_eq!(toks[0], Token::Float(3.5));
        assert_eq!(toks[1], Token::Int(42));
    }

    #[test]
    fn operators() {
        let toks = tokenize("<= >= <> != = < >").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Le,
                Token::Ge,
                Token::Ne,
                Token::Ne,
                Token::Eq,
                Token::Lt,
                Token::Gt
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = tokenize("select -- comment\n a").unwrap();
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'abc").is_err());
    }

    #[test]
    fn keywords_case_insensitive() {
        let toks = tokenize("SeLeCt SUM").unwrap();
        assert_eq!(toks[0], Token::Keyword("SELECT".into()));
        assert_eq!(toks[1], Token::Keyword("SUM".into()));
    }

    #[test]
    fn spans_index_source_bytes() {
        let src = "select a from t where a < 10";
        let toks = tokenize_spanned(src).unwrap();
        // Every span slices back to text that re-lexes to the same token.
        for (tok, span) in &toks {
            let text = span.slice(src);
            assert!(!text.is_empty(), "empty slice for {tok:?}");
            match tok {
                Token::Ident(s) => assert_eq!(text, s),
                Token::Int(i) => assert_eq!(text, i.to_string()),
                Token::Keyword(k) => assert_eq!(text.to_ascii_uppercase(), *k),
                _ => {}
            }
        }
        // `10` sits at the end of the input.
        let (last, span) = toks.last().unwrap();
        assert_eq!(*last, Token::Int(10));
        assert_eq!(span.to_pair(), (26, 28));
    }

    #[test]
    fn string_spans_include_quotes() {
        let src = "x = '1996-07-01'";
        let toks = tokenize_spanned(src).unwrap();
        let (tok, span) = &toks[2];
        assert_eq!(*tok, Token::Str("1996-07-01".into()));
        assert_eq!(span.slice(src), "'1996-07-01'");
    }

    #[test]
    fn lex_error_carries_span() {
        let err = tokenize_spanned("select a ? b").unwrap_err();
        assert_eq!(err.span.to_pair(), (9, 10));
        assert!(err.message.contains("unexpected character"));
    }
}
