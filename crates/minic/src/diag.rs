//! Diagnostics: structured errors/warnings with source spans, rendered
//! against a [`SourceMap`].

use crate::span::{SourceMap, Span};
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A hint, e.g. SharC's suggested sharing-cast insertions.
    Suggestion,
    /// Something that may be wrong but does not stop compilation,
    /// e.g. a pointer definitely live after being nulled by a cast.
    Warning,
    /// A hard error; compilation cannot continue to the next phase.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Suggestion => write!(f, "suggestion"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A single diagnostic with optional secondary notes.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub severity: Severity,
    pub message: String,
    pub span: Span,
    pub notes: Vec<(String, Span)>,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Error,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Creates a warning diagnostic.
    pub fn warning(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Creates a suggestion diagnostic (e.g. "insert SCAST here").
    pub fn suggestion(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Suggestion,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Attaches a secondary note pointing at `span`.
    pub fn with_note(mut self, message: impl Into<String>, span: Span) -> Self {
        self.notes.push((message.into(), span));
        self
    }

    /// Renders the diagnostic with locations resolved through `sm`.
    pub fn render(&self, sm: &SourceMap) -> String {
        let mut out = format!(
            "{}: {} @ {}",
            self.severity,
            self.message,
            sm.location(self.span)
        );
        for (msg, span) in &self.notes {
            out.push_str(&format!("\n  note: {} @ {}", msg, sm.location(*span)));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.severity, self.message)
    }
}

impl std::error::Error for Diagnostic {}

/// An ordered collection of diagnostics accumulated across a phase.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// Returns true if any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.first_error().is_some()
    }

    /// The first hard error, in insertion order.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.items.iter().find(|d| d.severity == Severity::Error)
    }

    /// Number of diagnostics collected.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns true if no diagnostics were collected.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over the diagnostics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Renders all diagnostics, one per line.
    pub fn render(&self, sm: &SourceMap) -> String {
        self.items
            .iter()
            .map(|d| d.render(sm))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl Extend<Diagnostic> for Diagnostics {
    fn extend<T: IntoIterator<Item = Diagnostic>>(&mut self, iter: T) {
        self.items.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_location_and_notes() {
        let sm = SourceMap::new("t.c", "int x;\nint y;\n");
        let d = Diagnostic::error("bad thing", Span::new(7, 10))
            .with_note("declared here", Span::new(0, 3));
        let rendered = d.render(&sm);
        assert!(rendered.contains("error: bad thing @ t.c: 2"));
        assert!(rendered.contains("note: declared here @ t.c: 1"));
    }

    #[test]
    fn has_errors_tracks_severity() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::warning("w", Span::DUMMY));
        assert!(!ds.has_errors());
        assert!(ds.first_error().is_none());
        ds.push(Diagnostic::error("e", Span::DUMMY));
        ds.push(Diagnostic::error("f", Span::DUMMY));
        assert!(ds.has_errors());
        assert_eq!(ds.first_error().map(|d| d.message.as_str()), Some("e"));
        assert_eq!(ds.len(), 3);
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Suggestion < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }
}
