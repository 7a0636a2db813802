//! Byte-offset source spans and the source map used to render them as
//! `file: line` locations in diagnostics and runtime conflict reports.

use std::fmt;

/// A half-open byte range `[lo, hi)` into a single source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub lo: u32,
    /// Byte offset one past the last character.
    pub hi: u32,
}

impl Span {
    /// Creates a span covering `[lo, hi)`.
    pub fn new(lo: u32, hi: u32) -> Self {
        debug_assert!(lo <= hi, "span lo must not exceed hi");
        Span { lo, hi }
    }

    /// A zero-width span at offset zero, used for synthesized nodes.
    pub const DUMMY: Span = Span { lo: 0, hi: 0 };

    /// Returns the smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

/// A line/column pair (both 1-based) produced by [`SourceMap::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineCol {
    pub line: u32,
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Maps byte offsets back to line/column positions for one source file.
///
/// # Examples
///
/// ```
/// use minic::span::{SourceMap, Span};
/// let sm = SourceMap::new("test.c", "int x;\nint y;\n");
/// let loc = sm.lookup(Span::new(7, 10));
/// assert_eq!(loc.line, 2);
/// assert_eq!(loc.col, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SourceMap {
    name: String,
    src: String,
    line_starts: Vec<u32>,
}

impl SourceMap {
    /// Builds a source map for `src`, remembering `name` for reports.
    pub fn new(name: impl Into<String>, src: impl Into<String>) -> Self {
        let src = src.into();
        let mut line_starts = vec![0u32];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        SourceMap {
            name: name.into(),
            src,
            line_starts,
        }
    }

    /// The file name this map was built for.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The full source text.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// Returns the 1-based line/column of the start of `span`.
    pub fn lookup(&self, span: Span) -> LineCol {
        let pos = span.lo;
        let line_idx = match self.line_starts.binary_search(&pos) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        LineCol {
            line: line_idx as u32 + 1,
            col: pos - self.line_starts[line_idx] + 1,
        }
    }

    /// Returns the source text of `span`, or an empty string for
    /// out-of-range spans.
    pub fn snippet(&self, span: Span) -> &str {
        self.src
            .get(span.lo as usize..span.hi as usize)
            .unwrap_or("")
    }

    /// Formats `span` as `file: line`, the style used by SharC's
    /// conflict reports (e.g. `pipeline_test.c: 15`).
    pub fn location(&self, span: Span) -> String {
        format!("{}: {}", self.name, self.lookup(span).line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_first_line() {
        let sm = SourceMap::new("a.c", "abc\ndef");
        assert_eq!(sm.lookup(Span::new(0, 1)), LineCol { line: 1, col: 1 });
        assert_eq!(sm.lookup(Span::new(2, 3)), LineCol { line: 1, col: 3 });
    }

    #[test]
    fn lookup_later_lines() {
        let sm = SourceMap::new("a.c", "abc\ndef\nghi\n");
        assert_eq!(sm.lookup(Span::new(4, 5)), LineCol { line: 2, col: 1 });
        assert_eq!(sm.lookup(Span::new(10, 11)), LineCol { line: 3, col: 3 });
    }

    #[test]
    fn span_join() {
        let a = Span::new(3, 5);
        let b = Span::new(8, 9);
        assert_eq!(a.to(b), Span::new(3, 9));
        assert_eq!(b.to(a), Span::new(3, 9));
    }

    #[test]
    fn snippet_and_location() {
        let sm = SourceMap::new("pipeline_test.c", "x = 1;\ny = 2;\n");
        assert_eq!(sm.snippet(Span::new(7, 13)), "y = 2;");
        assert_eq!(sm.location(Span::new(7, 13)), "pipeline_test.c: 2");
    }

    #[test]
    fn empty_source() {
        let sm = SourceMap::new("e.c", "");
        assert_eq!(sm.lookup(Span::DUMMY), LineCol { line: 1, col: 1 });
        assert_eq!(sm.snippet(Span::new(0, 4)), "");
    }
}
