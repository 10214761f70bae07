//! Rendering of `fg explain`: a human-readable account of the checker's
//! model-resolution and type-equality decisions, reconstructed from the
//! structured trace (see the `telemetry` crate's `trace` module).
//!
//! For every instantiation site the report shows the scoped model lookup
//! as a decision tree — which scope entries were considered, why the
//! losers were rejected, which model won and where it was declared — and
//! for every same-type constraint the minimal chain of declared
//! equalities that discharges it.

use telemetry::trace::{AttrValue, Attrs, SpanNode, TreeItem};

/// Renders the explain report for a trace collected while checking
/// `source`.
pub fn render(events: &[telemetry::trace::Event], source: &str) -> String {
    let tree = telemetry::trace::build_tree(events);
    let mut out = String::new();
    for item in &tree {
        render_item(item, source, 0, &mut out);
    }
    if out.is_empty() {
        out.push_str("(no model resolutions or same-type constraints traced)\n");
    }
    out
}

fn line_col(src: &str, offset: u64) -> (usize, usize) {
    let offset = offset as usize;
    let mut line = 1;
    let mut col = 1;
    for (i, c) in src.char_indices() {
        if i >= offset {
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

fn attr<'a>(attrs: &'a Attrs, key: &str) -> Option<&'a AttrValue> {
    attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn str_attr(attrs: &Attrs, key: &str) -> String {
    attr(attrs, key).map(AttrValue::render).unwrap_or_default()
}

fn loc(attrs: &Attrs, key: &str, src: &str) -> String {
    match attr(attrs, key).and_then(AttrValue::as_u64) {
        Some(off) => {
            let (l, c) = line_col(src, off);
            format!("{l}:{c}")
        }
        None => "?:?".to_owned(),
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render_item(item: &TreeItem, src: &str, depth: usize, out: &mut String) {
    match item {
        TreeItem::Span(node) => render_span(node, src, depth, out),
        TreeItem::Instant { name, attrs, .. } => render_instant(name, attrs, src, depth, out),
    }
}

fn render_children(node: &SpanNode, src: &str, depth: usize, out: &mut String) {
    for item in &node.items {
        render_item(item, src, depth, out);
    }
}

fn render_span(node: &SpanNode, src: &str, depth: usize, out: &mut String) {
    match node.name {
        "instantiate" => {
            indent(out, depth);
            let args = str_attr(&node.attrs, "args");
            let at = loc(&node.attrs, "span_start", src);
            out.push_str(&format!("instantiation {args} at {at}\n"));
            render_children(node, src, depth + 1, out);
        }
        "model_resolve" => {
            indent(out, depth);
            let concept = str_attr(&node.attrs, "concept");
            let args = str_attr(&node.attrs, "args");
            let site = str_attr(&node.attrs, "site");
            let scope = str_attr(&node.attrs, "scope_depth");
            let outcome = node
                .end_attr("outcome")
                .map(AttrValue::render)
                .unwrap_or_else(|| "?".to_owned());
            out.push_str(&format!(
                "resolve {concept}{args} (site {site}, {scope} models in scope) -> {outcome}\n"
            ));
            render_children(node, src, depth + 1, out);
        }
        "dict_build" => {
            indent(out, depth);
            let concept = str_attr(&node.attrs, "concept");
            let at = loc(&node.attrs, "span_start", src);
            let kind = match attr(&node.attrs, "parameterized").and_then(AttrValue::as_u64) {
                Some(1) => "parameterized model",
                _ => "model",
            };
            out.push_str(&format!("{kind} {concept} declared at {at}\n"));
            render_children(node, src, depth + 1, out);
        }
        "where_enter" => {
            // An empty where clause explains nothing; skip the header.
            if attr(&node.attrs, "constraints").and_then(AttrValue::as_u64) == Some(0) {
                render_children(node, src, depth, out);
                return;
            }
            indent(out, depth);
            let n = attr(&node.attrs, "constraints")
                .and_then(AttrValue::as_u64)
                .unwrap_or(0);
            let plural = if n == 1 { "constraint" } else { "constraints" };
            let at = loc(&node.attrs, "span_start", src);
            out.push_str(&format!("where clause ({n} {plural}) at {at}\n"));
            render_children(node, src, depth + 1, out);
        }
        // Structural spans (parse/check/eval phases): no line of their
        // own, but their children still render.
        _ => render_children(node, src, depth, out),
    }
}

fn render_instant(name: &str, attrs: &Attrs, src: &str, depth: usize, out: &mut String) {
    match name {
        "candidate" => {
            indent(out, depth);
            let index = str_attr(attrs, "index");
            let head = str_attr(attrs, "head");
            let mut line = format!("candidate #{index}: head {head}");
            if attr(attrs, "decl_start").is_some() {
                line.push_str(&format!(" (declared at {})", loc(attrs, "decl_start", src)));
            }
            out.push_str(&line);
            out.push('\n');
        }
        "candidate_rejected" => {
            indent(out, depth);
            let index = str_attr(attrs, "index");
            let reason = str_attr(attrs, "reason");
            out.push_str(&format!("rejected #{index}: {reason}\n"));
        }
        "model_selected" => {
            indent(out, depth);
            let index = str_attr(attrs, "index");
            let concept = str_attr(attrs, "concept");
            let args = str_attr(attrs, "args");
            let mut line = format!("selected #{index}: model {concept}{args}");
            if attr(attrs, "decl_start").is_some() {
                line.push_str(&format!(" declared at {}", loc(attrs, "decl_start", src)));
            }
            let dict = str_attr(attrs, "dict");
            if !dict.is_empty() {
                let path = str_attr(attrs, "path");
                line.push_str(&format!(" (dictionary {dict}{path})"));
            }
            out.push_str(&line);
            out.push('\n');
        }
        "same_type" => {
            indent(out, depth);
            let lhs = str_attr(attrs, "lhs");
            let rhs = str_attr(attrs, "rhs");
            let holds = attr(attrs, "holds").and_then(AttrValue::as_u64) == Some(1);
            let proof = str_attr(attrs, "proof");
            if holds {
                out.push_str(&format!("same-type {lhs} = {rhs}: holds ({proof})\n"));
            } else {
                out.push_str(&format!("same-type {lhs} = {rhs}: VIOLATED\n"));
            }
        }
        "where_proxy" => {
            indent(out, depth);
            let concept = str_attr(attrs, "concept");
            let args = str_attr(attrs, "args");
            out.push_str(&format!(
                "assume model {concept}{args} (where-clause proxy)\n"
            ));
        }
        // Low-level congruence/assertion events stay in the raw trace;
        // the report keeps to resolution decisions and proofs.
        _ => {}
    }
}
