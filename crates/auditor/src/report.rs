//! CI-native reporting: the output formats of `check`.
//!
//! Two formats: `text` (human, one finding per line) and `github`
//! (workflow commands that annotate PR diffs). Findings arrive pre-sorted
//! by the engine, so two runs over the same tree render byte-identically.

use crate::rules::Violation;

/// Output format for `check` findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// One `path:line: rule: message` line per finding.
    Text,
    /// GitHub Actions `::error` workflow commands.
    Github,
}

impl Format {
    /// Parses a `--format` value.
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "text" => Some(Format::Text),
            "github" => Some(Format::Github),
            _ => None,
        }
    }
}

/// Renders findings in the requested format.
pub fn render(format: Format, violations: &[Violation]) -> String {
    let mut s = String::new();
    for v in violations {
        match format {
            Format::Text => s.push_str(&v.to_string()),
            Format::Github => s.push_str(&format!(
                "::error file={},line={},title={}::{}",
                command_value(&v.path),
                v.line,
                command_value(v.rule),
                command_message(&v.message),
            )),
        }
        s.push('\n');
    }
    s
}

/// Escapes a GitHub workflow-command property value.
fn command_value(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
        .replace(':', "%3A")
        .replace(',', "%2C")
}

/// Escapes a GitHub workflow-command message body.
fn command_message(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn github_format_escapes_commands() {
        let vs = vec![Violation {
            path: "a,b.rs".to_string(),
            line: 4,
            rule: "lock-order",
            message: "50% bad\nsecond line".to_string(),
        }];
        let out = render(Format::Github, &vs);
        assert_eq!(
            out,
            "::error file=a%2Cb.rs,line=4,title=lock-order::50%25 bad%0Asecond line\n"
        );
    }
}
