//! # retina-filtergen
//!
//! Compile-time filter checks (§4 of the paper).
//!
//! The paper compiles filters to static code because a trie walker was
//! slower. This repo's runtime filter is a flat op program that runs
//! within a few nanoseconds of generated code per call, so there is one
//! engine, [`CompiledFilter`], and these macros check filter text at
//! compile time before building it:
//!
//! ```ignore
//! retina_filtergen::filter!(com_filter, r"tls.sni matches '.*\.com$'");
//! retina_filtergen::filter_union!(tls_and_http, "tls", "http");
//! let f = com_filter(); // one subscription
//! let u = tls_and_http(); // num_subscriptions() == 2, drives a MultiRuntime
//! ```
//!
//! Both forms share one expansion. It decodes the string literals as
//! rustc does and runs the semantic analyzer over them: E-codes abort the
//! build with a `compile_error!` on the offending literal, carrying the
//! caret-rendered diagnostic; W-codes are printed as build notes. It then
//! builds the filter against `ProtocolRegistry::default()` and emits
//! `pub fn name() -> retina_filter::FilterUnion`, whose body makes the same
//! `CompiledFilter::build` / `build_union` call on the same decoded text.
//! Success at expansion therefore implies success at run time.
//!
//! The macro is built without `syn`/`quote`: the input grammar is an
//! identifier and string literals, parsed by hand from the token stream.

use proc_macro::{Delimiter, Group, Ident, Literal, Punct, Spacing, Span, TokenStream, TokenTree};

use retina_filter::diag::render_filter_error;
use retina_filter::registry::ProtocolRegistry;
use retina_filter::CompiledFilter;

/// Runs the semantic analyzer over the filter sources.
///
/// Hard E-code diagnostics (unsatisfiable conjunctions, contradictory
/// constraints, …) fail with the index of the first offending source and
/// the full rustc-style rendering — caret snippet included — of every
/// error. Warnings (dead disjuncts, lost hardware offload, redundant
/// predicates, duplicate union subscriptions) are printed to stderr as
/// build notes, exactly once per macro expansion.
fn analyze_sources(srcs: &[&str], origin: &str) -> Result<(), (usize, String)> {
    let registry = ProtocolRegistry::default();
    match retina_filter::analyze_union(srcs, &registry, None) {
        Ok(analysis) => {
            for w in analysis.warnings() {
                let src = srcs.get(w.sub).copied().unwrap_or("");
                eprint!("{}", w.render(src, origin));
            }
            let mut first = None;
            let mut msg = String::new();
            for d in analysis.errors() {
                let src = srcs.get(d.sub).copied().unwrap_or("");
                first.get_or_insert(d.sub);
                msg.push_str(&d.render(src, origin));
            }
            first.map_or(Ok(()), |sub| Err((sub, msg)))
        }
        Err(_) => {
            // Re-parse each source individually to attribute the lex/parse
            // error to the right subscription and render a caret snippet.
            for (i, src) in srcs.iter().enumerate() {
                if let Err(err) = retina_filter::parse(src) {
                    return Err((i, render_filter_error(src, origin, &err)));
                }
            }
            unreachable!("analyze_union failed but every source parses");
        }
    }
}

/// Single-subscription form: `filter!(name, "filter expression")`.
///
/// Expands to `pub fn name() -> retina_filter::FilterUnion` building the
/// filter with `CompiledFilter::build`.
#[proc_macro]
pub fn filter(input: TokenStream) -> TokenStream {
    expand(input, false)
}

/// Union form: `filter_union!(name, "tls", "http", ...)`.
///
/// Expands to `pub fn name() -> retina_filter::FilterUnion` building one
/// multi-subscription filter with `CompiledFilter::build_union`, whose
/// subscription `i` is source `i`.
#[proc_macro]
pub fn filter_union(input: TokenStream) -> TokenStream {
    expand(input, true)
}

/// The expansion both forms share: parse, analyze, build, emit.
fn expand(input: TokenStream, union: bool) -> TokenStream {
    let origin = if union { "filter_union!" } else { "filter!" };
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let Some((name, sources)) = parse_args(&tokens, union) else {
        let usage = if union {
            "expected `filter_union!(fn_name, \"src0\", \"src1\", ...)` with string literal sources"
        } else {
            "expected `filter!(fn_name, \"filter expression\")` with a string literal source"
        };
        return compile_error(usage, Span::call_site());
    };
    let srcs: Vec<&str> = sources.iter().map(|(s, _)| s.as_str()).collect();
    if let Err((sub, msg)) = analyze_sources(&srcs, origin) {
        return compile_error(&msg, sources[sub].1);
    }
    let registry = ProtocolRegistry::default();
    let built = if union {
        CompiledFilter::build_union(&srcs, &registry)
    } else {
        CompiledFilter::build(srcs[0], &registry)
    };
    if let Err(e) = built {
        return compile_error(&format!("invalid filter: {e}"), Span::call_site());
    }
    let call = if union {
        format!("build_union(&{srcs:?}")
    } else {
        format!("build({:?}", srcs[0])
    };
    format!(
        "/// Builds the `{name}` filter (checked when the macro expanded).\n\
         pub fn {name}() -> retina_filter::FilterUnion {{\n\
             retina_filter::CompiledFilter::{call}, &retina_filter::ProtocolRegistry::default())\n\
                 .expect(\"filter checked at compile time\")\n\
         }}\n"
    )
    .parse()
    .expect("the emitted function is valid Rust")
}

/// `name, "src"` (and, for a union, more `, "src"`s and an optional
/// trailing comma): the function name and each decoded source with the
/// span of its literal.
fn parse_args(tokens: &[TokenTree], union: bool) -> Option<(String, Vec<(String, Span)>)> {
    let (TokenTree::Ident(name), rest) = tokens.split_first()? else {
        return None;
    };
    let mut sources = Vec::new();
    let mut rest = rest.iter();
    while let Some(tok) = rest.next() {
        match (tok, rest.next()) {
            (TokenTree::Punct(p), Some(TokenTree::Literal(lit))) if p.as_char() == ',' => {
                sources.push((parse_string_literal(&lit.to_string())?, lit.span()));
            }
            (TokenTree::Punct(p), None) if p.as_char() == ',' && union => {}
            _ => return None,
        }
    }
    let arity_ok = if union {
        !sources.is_empty()
    } else {
        sources.len() == 1
    };
    arity_ok.then(|| (name.to_string(), sources))
}

/// Decodes a Rust string-literal token (`"…"`, `r"…"`, `r#"…"#`) into its
/// value, with rustc's escapes. `None` for anything else.
fn parse_string_literal(text: &str) -> Option<String> {
    if let Some(rest) = text.strip_prefix('r') {
        // Raw string: r"…" or r#"…"# (any number of #).
        let hashes = rest.chars().take_while(|&c| c == '#').count();
        let body = rest[hashes..].strip_prefix('"')?;
        let body = body.strip_suffix(&format!("\"{}", "#".repeat(hashes)))?;
        return Some(body.to_string());
    }
    let body = text.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            'n' => out.push('\n'),
            't' => out.push('\t'),
            'r' => out.push('\r'),
            '\\' => out.push('\\'),
            '"' => out.push('"'),
            '\'' => out.push('\''),
            '0' => out.push('\0'),
            'x' => {
                let hex: String = [chars.next()?, chars.next()?].iter().collect();
                let byte = u8::from_str_radix(&hex, 16).ok().filter(u8::is_ascii)?;
                out.push(char::from(byte));
            }
            'u' => {
                if chars.next()? != '{' {
                    return None;
                }
                let mut hex = String::new();
                loop {
                    match chars.next()? {
                        '}' => break,
                        '_' => {}
                        d => hex.push(d),
                    }
                }
                out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
            }
            '\n' => {
                // Line continuation: `\` + newline swallows all following
                // whitespace, as in Rust string literals.
                while chars.next_if(char::is_ascii_whitespace).is_some() {}
            }
            // rustc rejects every other escape before a macro sees it.
            _ => return None,
        }
    }
    Some(out)
}

/// `compile_error!("msg");` reported at `span`.
fn compile_error(msg: &str, span: Span) -> TokenStream {
    let mut lit = Literal::string(msg);
    lit.set_span(span);
    let mut bang = Punct::new('!', Spacing::Alone);
    bang.set_span(span);
    let mut args = Group::new(Delimiter::Parenthesis, TokenTree::Literal(lit).into());
    args.set_span(span);
    let mut semi = Punct::new(';', Spacing::Alone);
    semi.set_span(span);
    [
        TokenTree::Ident(Ident::new("compile_error", span)),
        TokenTree::Punct(bang),
        TokenTree::Group(args),
        TokenTree::Punct(semi),
    ]
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::{analyze_sources, parse_string_literal};

    // `filter!("tcp and udp")` must expand to a `compile_error!` whose
    // message carries the same stable E-codes `RuntimeBuilder::build`
    // reports for the same source (see
    // `tests/tests/analysis.rs::runtime_builder_rejects_unsatisfiable_filter_with_e_code`),
    // plus the caret snippet pointing at the offending predicate.
    #[test]
    fn unsatisfiable_filter_is_a_compile_error_with_span() {
        let (sub, msg) = analyze_sources(&["tcp and udp"], "filter!").unwrap_err();
        assert_eq!(sub, 0);
        assert!(msg.contains("error[E001]"), "{msg}");
        assert!(msg.contains("error[E004]"), "{msg}");
        assert!(msg.contains("--> filter!:1:"), "{msg}");
        assert!(msg.contains("tcp and udp"), "{msg}");
        assert!(msg.contains('^'), "{msg}");
    }

    #[test]
    fn contradictory_constraints_are_a_compile_error() {
        let (_, msg) =
            analyze_sources(&["tcp.src_port > 100 and tcp.src_port < 50"], "filter!").unwrap_err();
        assert!(msg.contains("error[E002]"), "{msg}");
    }

    #[test]
    fn union_duplicates_are_not_errors() {
        // W004 is a warning: the union still compiles.
        assert!(analyze_sources(&["tls", "tls"], "filter_union!").is_ok());
    }

    #[test]
    fn clean_filters_pass() {
        assert!(analyze_sources(
            &["(ipv4 and tcp.port >= 100 and tls.sni ~ 'netflix') or http"],
            "filter!"
        )
        .is_ok());
    }

    #[test]
    fn union_errors_name_the_offending_source() {
        let (sub, _) = analyze_sources(&["tls", "tcp and udp"], "filter_union!").unwrap_err();
        assert_eq!(sub, 1);
        let (sub, _) = analyze_sources(&["tls", "tcp.port = "], "filter_union!").unwrap_err();
        assert_eq!(sub, 1);
    }

    #[test]
    fn hex_and_unicode_escapes_decode_as_rustc_does() {
        // The token text of `"tls.sni ~ 'a\x2ecom'"` and friends.
        assert_eq!(
            parse_string_literal(r#""tls.sni ~ 'a\x2ecom'""#).as_deref(),
            Some("tls.sni ~ 'a.com'")
        );
        assert_eq!(
            parse_string_literal(r#""caf\u{e9} \u{1_F600}""#).as_deref(),
            Some("café 😀")
        );
        assert_eq!(
            parse_string_literal(r#""\n\t\r\\\"\'\0""#).as_deref(),
            Some("\n\t\r\\\"'\0")
        );
        // Outside what rustc accepts in a `str` literal: not ours to guess.
        assert_eq!(parse_string_literal(r#""\x80""#), None);
        assert_eq!(parse_string_literal(r#""\u{110000}""#), None);
        assert_eq!(parse_string_literal(r#""\d""#), None);
        assert_eq!(parse_string_literal(r#"b"tls""#), None);
    }

    #[test]
    fn raw_strings_are_taken_verbatim() {
        assert_eq!(
            parse_string_literal(r#"r"tls.sni ~ '\.com$'""#).as_deref(),
            Some(r"tls.sni ~ '\.com$'")
        );
        assert_eq!(
            parse_string_literal(r###"r##"a "#quoted"# \x2e"##"###).as_deref(),
            Some(r##"a "#quoted"# \x2e"##)
        );
        assert_eq!(parse_string_literal(r##"r#"unterminated""##), None);
    }

    #[test]
    fn line_continuation_swallows_leading_whitespace() {
        assert_eq!(
            parse_string_literal("\"ipv4 and \\\n     \t\n  tcp\"").as_deref(),
            Some("ipv4 and tcp")
        );
    }
}
