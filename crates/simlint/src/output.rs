//! The GitHub Actions renderer: findings as workflow annotations. (The
//! canonical text format is [`crate::render`].)

use crate::rules::Finding;

/// Renders findings as GitHub Actions `::error` workflow commands, one
/// per line, so a CI lint job annotates the offending lines of a PR
/// diff in place.
pub fn render_github(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str("::error file=");
        out.push_str(&escape_property(&f.file));
        out.push_str(&format!(
            ",line={},title={}",
            f.line,
            escape_property(&format!("simlint: {}", f.rule))
        ));
        out.push_str("::");
        out.push_str(&escape_data(&f.message));
        out.push('\n');
    }
    out
}

/// Escapes a workflow-command data section (the message after `::`).
fn escape_data(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

/// Escapes a workflow-command property value (`file=`, `title=`), which
/// additionally reserves `:` and `,`.
fn escape_property(s: &str) -> String {
    escape_data(s).replace(':', "%3A").replace(',', "%2C")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            file: "crates/doh/src/dot.rs".into(),
            line: 7,
            rule: "no-wall-clock",
            message: "wall clock `Instant::now` — use \"Sim::now()\"".into(),
        }
    }

    #[test]
    fn github_annotations_escape_properties_and_data() {
        let mut f = finding();
        f.message = "50% lost\nsecond line".into();
        let line = render_github(&[f]);
        assert_eq!(
            line,
            "::error file=crates/doh/src/dot.rs,line=7,title=simlint%3A no-wall-clock\
             ::50%25 lost%0Asecond line\n"
        );
    }
}
