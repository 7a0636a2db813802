//! Token definitions for the MiniC lexer.

use crate::span::Span;
use std::fmt;

/// A lexed token: its kind plus the span it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub span: Span,
}

/// All MiniC token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    // Literals and identifiers
    Ident(String),
    IntLit(i64),
    CharLit(u8),
    StrLit(String),

    // Base-type and declaration keywords
    KwInt,
    KwChar,
    KwBool,
    KwVoid,
    KwMutex,
    KwCond,
    KwStruct,
    KwTypedef,

    // Sharing-mode qualifier keywords (the SharC annotations)
    KwPrivate,
    KwReadonly,
    KwRacy,
    KwDynamic,
    KwLocked,

    // Control flow
    KwIf,
    KwElse,
    KwWhile,
    KwFor,
    KwReturn,
    KwBreak,
    KwContinue,

    // Built-in value keywords
    KwNull,
    KwTrue,
    KwFalse,

    // Allocation and sharing-cast keywords
    KwNew,
    KwNewArray,
    KwScast,
    KwSizeof,

    // Punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Arrow, // ->

    // Operators
    Assign,  // =
    PlusEq,  // +=
    MinusEq, // -=
    StarEq,  // *=
    SlashEq, // /=
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,      // &
    AmpAmp,   // &&
    Pipe,     // |
    PipePipe, // ||
    Caret,    // ^
    Bang,     // !
    Tilde,    // ~
    Shl,      // <<
    Shr,      // >>
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    PlusPlus,   // ++
    MinusMinus, // --
    Question,
    Colon,

    /// End of input.
    Eof,
}

impl TokenKind {
    /// Keyword lookup for an identifier-shaped lexeme.
    pub fn keyword(s: &str) -> Option<TokenKind> {
        use TokenKind::*;
        Some(match s {
            "int" => KwInt,
            "char" => KwChar,
            "bool" => KwBool,
            "void" => KwVoid,
            "mutex" => KwMutex,
            "cond" => KwCond,
            "struct" => KwStruct,
            "typedef" => KwTypedef,
            "private" => KwPrivate,
            "readonly" => KwReadonly,
            "racy" => KwRacy,
            "dynamic" => KwDynamic,
            "locked" => KwLocked,
            "if" => KwIf,
            "else" => KwElse,
            "while" => KwWhile,
            "for" => KwFor,
            "return" => KwReturn,
            "break" => KwBreak,
            "continue" => KwContinue,
            "NULL" => KwNull,
            "true" => KwTrue,
            "false" => KwFalse,
            "new" => KwNew,
            "newarray" => KwNewArray,
            "SCAST" => KwScast,
            "sizeof" => KwSizeof,
            _ => return None,
        })
    }

    /// Returns true for tokens that can begin a type (used by the parser
    /// to distinguish declarations from expression statements).
    pub fn starts_type(&self) -> bool {
        use TokenKind::*;
        matches!(
            self,
            KwInt | KwChar | KwBool | KwVoid | KwMutex | KwCond | KwStruct
        )
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TokenKind::*;
        let s: &str = match self {
            Ident(name) => return write!(f, "identifier `{name}`"),
            IntLit(v) => return write!(f, "integer `{v}`"),
            CharLit(c) => return write!(f, "char literal `{}`", *c as char),
            StrLit(s) => return write!(f, "string literal {s:?}"),
            KwInt => "int",
            KwChar => "char",
            KwBool => "bool",
            KwVoid => "void",
            KwMutex => "mutex",
            KwCond => "cond",
            KwStruct => "struct",
            KwTypedef => "typedef",
            KwPrivate => "private",
            KwReadonly => "readonly",
            KwRacy => "racy",
            KwDynamic => "dynamic",
            KwLocked => "locked",
            KwIf => "if",
            KwElse => "else",
            KwWhile => "while",
            KwFor => "for",
            KwReturn => "return",
            KwBreak => "break",
            KwContinue => "continue",
            KwNull => "NULL",
            KwTrue => "true",
            KwFalse => "false",
            KwNew => "new",
            KwNewArray => "newarray",
            KwScast => "SCAST",
            KwSizeof => "sizeof",
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Dot => ".",
            Arrow => "->",
            Assign => "=",
            PlusEq => "+=",
            MinusEq => "-=",
            StarEq => "*=",
            SlashEq => "/=",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            Amp => "&",
            AmpAmp => "&&",
            Pipe => "|",
            PipePipe => "||",
            Caret => "^",
            Bang => "!",
            Tilde => "~",
            Shl => "<<",
            Shr => ">>",
            EqEq => "==",
            NotEq => "!=",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            PlusPlus => "++",
            MinusMinus => "--",
            Question => "?",
            Colon => ":",
            Eof => "end of input",
        };
        write!(f, "`{s}`")
    }
}
