//! Rule `probe-coverage`: every probe registered on the `hbc-probe`
//! registry is actually used, and every probe read actually exists.
//!
//! The registry's lazy-registration API makes two silent failure modes
//! possible. A `reg.counter("x.y");` whose handle is discarded registers a
//! statistic that can never move — it exports as a permanent zero and
//! looks like a real measurement. And `get("x.y")` / `get_histogram(…)` /
//! `scoped("prefix")` look names up by string at runtime, so a typo reads
//! `None` (or an empty scope) instead of failing — report code quietly
//! drops the statistic it meant to show.
//!
//! The rule cross-references the whole workspace:
//!
//! * a registration (`counter("…")` / `histogram("…")` with a literal
//!   name) must be *used*: its handle chained into a call (`.set(…)`,
//!   `.add(…)`, …), bound (`let h = …;`), assigned through
//!   (`*reg.histogram(…) = …;`), or passed along as an argument — a bare
//!   discarded registration is a finding;
//! * an exact read (`get("…")` / `get_histogram("…")`) must name a
//!   registered probe of the matching kind;
//! * a `scoped("prefix")` view must match at least one registered name
//!   under `prefix.`.
//!
//! Only literals that are valid dotted probe names participate, so string
//! lookups on unrelated maps (e.g. JSON fields like `get("experiment")`)
//! never fire. Names built at runtime are outside the scanner's reach,
//! as with `probe-naming`.

use crate::lexer::TokKind;
use crate::model::Model;
use crate::rules::probe_naming::valid;
use crate::Finding;
use std::collections::BTreeMap;

/// What a name was registered as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Histogram,
}

/// A literal-name call site: `marker("name")`.
struct Site {
    fi: usize,
    line: usize,
    /// Token index of the marker identifier.
    tok: usize,
    name: String,
}

/// Collects non-test `marker("…")` sites across the workspace.
fn sites(model: &Model<'_>, marker: &str) -> Vec<Site> {
    let mut out = Vec::new();
    for (fi, fm) in model.files.iter().enumerate() {
        for (ti, tok) in fm.tokens.iter().enumerate() {
            if !tok.is_ident(marker) || model.is_test_line(fi, tok.line) {
                continue;
            }
            let (Some(open), Some(lit)) = (fm.tokens.get(ti + 1), fm.tokens.get(ti + 2)) else {
                continue;
            };
            if open.is_punct('(') && lit.kind == TokKind::Str {
                out.push(Site { fi, line: tok.line, tok: ti, name: lit.text.clone() });
            }
        }
    }
    out
}

/// True when the registration at token `site.tok` uses its handle: the
/// statement binds or assigns it, chains a method, or passes it along.
/// Only `reg.counter("x");` with nothing else is bare.
fn handle_used(model: &Model<'_>, site: &Site) -> bool {
    let toks = &model.files[site.fi].tokens;
    // Statement bounds around the marker token.
    let mut start = site.tok;
    while start > 0 {
        let t = &toks[start - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        start -= 1;
    }
    // `let` binding or any assignment in the statement uses the handle.
    let mut j = start;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct(';') || (j > site.tok && (t.is_punct('{') || t.is_punct('}'))) {
            break;
        }
        if t.is_ident("let") || t.is_punct('=') {
            return true;
        }
        j += 1;
    }
    // After `marker ( "name" )`, a `.` chains and a `)` passes it as an
    // argument; only `;` (or `,` into a discarding macro) leaves it bare.
    match toks.get(site.tok + 4) {
        Some(t) => !t.is_punct(';'),
        None => true,
    }
}

/// Runs the rule over the workspace model.
pub fn check(model: &Model<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Registrations: name → kind (first registration wins; duplicates are
    // probe-naming's findings, not ours).
    let mut registered: BTreeMap<String, Kind> = BTreeMap::new();
    let mut reg_sites = Vec::new();
    for (marker, kind) in [("counter", Kind::Counter), ("histogram", Kind::Histogram)] {
        for site in sites(model, marker) {
            if !valid(&site.name) {
                continue; // not a probe literal; probe-naming owns bad names
            }
            registered.entry(site.name.clone()).or_insert(kind);
            reg_sites.push((site, kind));
        }
    }

    // A registration whose handle is discarded is a permanent zero.
    for (site, _) in &reg_sites {
        if !handle_used(model, site) && !model.allowed(site.fi, site.line, "probe-coverage") {
            findings.push(Finding {
                rule: "probe-coverage",
                path: model.sources[site.fi].path.clone(),
                line: site.line,
                message: format!(
                    "probe {:?} is registered but its handle is discarded — the statistic \
                     can never move; chain `.set(…)`/`.add(…)` or bind the handle",
                    site.name
                ),
            });
        }
    }

    // Exact reads must hit a registration of the right kind.
    for (marker, expect) in [("get", Kind::Counter), ("get_histogram", Kind::Histogram)] {
        for site in sites(model, marker) {
            if !valid(&site.name) || model.allowed(site.fi, site.line, "probe-coverage") {
                continue;
            }
            match registered.get(&site.name) {
                None => findings.push(Finding {
                    rule: "probe-coverage",
                    path: model.sources[site.fi].path.clone(),
                    line: site.line,
                    message: format!(
                        "`{marker}({:?})` reads a probe no code registers — the lookup \
                         returns nothing at runtime",
                        site.name
                    ),
                }),
                Some(kind) if *kind != expect => findings.push(Finding {
                    rule: "probe-coverage",
                    path: model.sources[site.fi].path.clone(),
                    line: site.line,
                    message: format!(
                        "`{marker}({:?})` reads a probe registered as a {} — wrong accessor",
                        site.name,
                        match kind {
                            Kind::Counter => "counter",
                            Kind::Histogram => "histogram",
                        }
                    ),
                }),
                Some(_) => {}
            }
        }
    }

    // Scoped views must cover at least one registered name.
    for site in sites(model, "scoped") {
        let prefix_ok = !site.name.is_empty()
            && site.name.split('.').all(|s| {
                !s.is_empty()
                    && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            });
        if !prefix_ok || model.allowed(site.fi, site.line, "probe-coverage") {
            continue;
        }
        let covers = registered.keys().any(|n| n.starts_with(&format!("{}.", site.name)));
        if !covers {
            findings.push(Finding {
                rule: "probe-coverage",
                path: model.sources[site.fi].path.clone(),
                line: site.line,
                message: format!(
                    "`scoped({:?})` matches no registered probe — the view is empty",
                    site.name
                ),
            });
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use std::path::PathBuf;

    fn run(text: &str) -> Vec<Finding> {
        let files = [SourceFile::parse(PathBuf::from("f.rs"), "hbc-serve", text, false)];
        check(&Model::build(&files))
    }

    #[test]
    fn bare_registration_fires() {
        let f = run("fn f(reg: &mut R) {\n    reg.counter(\"serve.requests.total\");\n}\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("discarded"));
    }

    #[test]
    fn chained_bound_and_assigned_handles_pass() {
        assert!(run("fn f(reg: &mut R) {\n    reg.counter(\"a.hits\").set(1);\n    \
             let h = reg.histogram(\"a.lat\");\n    \
             *reg.histogram(\"a.lat\") = h2;\n    \
             export(reg.counter(\"a.hits\"));\n}\n",)
        .is_empty());
    }

    #[test]
    fn read_of_unregistered_probe_fires() {
        let f = run("fn f(reg: &R) {\n    reg.get(\"mem.never.registered\");\n}\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("no code registers"));
    }

    #[test]
    fn registered_reads_pass_and_kind_mismatch_fires() {
        let ok = "fn f(reg: &mut R) {\n    reg.counter(\"a.hits\").set(1);\n    \
                  reg.get(\"a.hits\");\n}\n";
        assert!(run(ok).is_empty());
        let bad = "fn f(reg: &mut R) {\n    reg.counter(\"a.hits\").set(1);\n    \
                   reg.get_histogram(\"a.hits\");\n}\n";
        let f = run(bad);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("wrong accessor"));
    }

    #[test]
    fn non_probe_literals_are_ignored() {
        // Single-segment names (JSON fields, map keys) are not probes.
        assert!(run(
            "fn f(m: &Map) {\n    m.get(\"experiment\");\n    m.get(\"Results.Raw\");\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn scoped_prefix_must_cover_something() {
        let ok = "fn f(reg: &mut R) {\n    reg.counter(\"serve.cache.hits\").set(1);\n    \
                  reg.scoped(\"serve\");\n}\n";
        assert!(run(ok).is_empty());
        let f = run("fn f(reg: &mut R) {\n    reg.scoped(\"nothing\");\n}\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("matches no registered probe"));
    }

    #[test]
    fn tests_and_allows_are_exempt() {
        assert!(
            run("#[cfg(test)]\nmod t {\n fn f(r: &mut R) { r.counter(\"a.b\"); }\n}\n").is_empty()
        );
        assert!(run(
            "fn f(reg: &mut R) {\n    // hbc-allow: probe-coverage (registered for export shape)\n    \
             reg.counter(\"serve.reserved.slot\");\n}\n",
        )
        .is_empty());
    }

    #[test]
    fn fixtures_match_expectations() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join("probe_coverage");
        let bad = std::fs::read_to_string(dir.join("violation.rs")).unwrap();
        let ok = std::fs::read_to_string(dir.join("allowed.rs")).unwrap();
        assert!(!run(&bad).is_empty(), "probe_coverage/violation.rs should fire");
        assert!(run(&ok).is_empty(), "probe_coverage/allowed.rs should be clean");
    }
}
