//! Source scanning helpers: a light lexer that strips comments and
//! string/char literals (preserving line structure so violation line
//! numbers stay exact), plus region detection for `#[cfg(test)]`
//! items and the token matchers the rules use.

/// Replace comments and string/char-literal contents with spaces,
/// keeping every newline, so downstream matchers only ever see code.
pub(crate) fn strip_comments_and_strings(source: &str) -> String {
    let bytes: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut i = 0usize;
    let n = bytes.len();

    // Emit `c` verbatim if it's a newline, else a space.
    fn blank(out: &mut String, c: char) {
        out.push(if c == '\n' { '\n' } else { ' ' });
    }

    while i < n {
        let c = bytes[i];
        match c {
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                // Line comment: blank to end of line.
                while i < n && bytes[i] != '\n' {
                    blank(&mut out, bytes[i]);
                    i += 1;
                }
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
                // Block comment, nested per Rust.
                let mut depth = 0usize;
                while i < n {
                    if i + 1 < n && bytes[i] == '/' && bytes[i + 1] == '*' {
                        depth += 1;
                        blank(&mut out, bytes[i]);
                        blank(&mut out, bytes[i + 1]);
                        i += 2;
                    } else if i + 1 < n && bytes[i] == '*' && bytes[i + 1] == '/' {
                        depth -= 1;
                        blank(&mut out, bytes[i]);
                        blank(&mut out, bytes[i + 1]);
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        blank(&mut out, bytes[i]);
                        i += 1;
                    }
                }
            }
            'r' if i + 1 < n && (bytes[i + 1] == '"' || bytes[i + 1] == '#') => {
                // Possible raw string r"..." / r#"..."#.
                let mut j = i + 1;
                let mut hashes = 0usize;
                while j < n && bytes[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && bytes[j] == '"' {
                    // It is a raw string; blank through the close.
                    out.push(' '); // the 'r'
                    for &b in &bytes[(i + 1)..=j] {
                        blank(&mut out, b);
                    }
                    i = j + 1;
                    'raw: while i < n {
                        if bytes[i] == '"' {
                            let mut k = i + 1;
                            let mut seen = 0usize;
                            while k < n && seen < hashes && bytes[k] == '#' {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                for &b in &bytes[i..k] {
                                    blank(&mut out, b);
                                }
                                i = k;
                                break 'raw;
                            }
                        }
                        blank(&mut out, bytes[i]);
                        i += 1;
                    }
                } else {
                    // `r#ident` raw identifier or plain 'r': keep.
                    out.push(c);
                    i += 1;
                }
            }
            '"' => {
                // String literal with escapes; blank the contents.
                blank(&mut out, c);
                i += 1;
                while i < n {
                    if bytes[i] == '\\' && i + 1 < n {
                        blank(&mut out, bytes[i]);
                        blank(&mut out, bytes[i + 1]);
                        i += 2;
                    } else if bytes[i] == '"' {
                        blank(&mut out, bytes[i]);
                        i += 1;
                        break;
                    } else {
                        blank(&mut out, bytes[i]);
                        i += 1;
                    }
                }
            }
            '\'' => {
                // Char literal or lifetime. A char literal closes with
                // a quote one (possibly escaped) scalar later; a
                // lifetime has no closing quote.
                if i + 2 < n && bytes[i + 1] == '\\' {
                    // Escaped char literal: blank to the closing quote.
                    blank(&mut out, bytes[i]);
                    i += 1;
                    while i < n && bytes[i] != '\'' {
                        blank(&mut out, bytes[i]);
                        i += 1;
                    }
                    if i < n {
                        blank(&mut out, bytes[i]);
                        i += 1;
                    }
                } else if i + 2 < n && bytes[i + 2] == '\'' {
                    blank(&mut out, bytes[i]);
                    blank(&mut out, bytes[i + 1]);
                    blank(&mut out, bytes[i + 2]);
                    i += 3;
                } else {
                    // Lifetime: keep the tick and identifier.
                    out.push(c);
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// For each (stripped) line, is it inside a `#[cfg(test)]` item? The
/// attribute line itself, the item header, and everything through the
/// item's closing brace are marked. Handles `#[cfg(all(test, ...))]`
/// too.
pub(crate) fn test_region_lines(lines: &[&str]) -> Vec<bool> {
    let mut out = vec![false; lines.len()];
    let mut i = 0usize;
    while i < lines.len() {
        let l = lines[i];
        let is_test_attr =
            l.contains("#[cfg(test)]") || (l.contains("#[cfg(all(") && l.contains("test"));
        if !is_test_attr {
            i += 1;
            continue;
        }
        let mut depth = 0i64;
        let mut started = false;
        let mut j = i;
        while j < lines.len() {
            out[j] = true;
            for c in lines[j].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if started && depth <= 0 {
                break;
            }
            // A braceless item (`#[cfg(test)] use ...;`) ends at the
            // first statement-terminating line.
            if !started && lines[j].trim_end().ends_with(';') {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    out
}

/// Function-body line ranges (inclusive, 0-based), found by tracking
/// brace depth from each `fn` item header in the (stripped) source.
/// Nested functions and closures stay inside their containing range —
/// R6 pairs acquire/release per *outermost* function, which is where
/// an RAII guard or finalize call discharges the obligation. Trait
/// method declarations (`fn f(...);`) have no body and no range.
/// Is this line a `fn` *item* header? The keyword must be followed by
/// an identifier (`fn name…`), which excludes fn-pointer types
/// (`fn(usize)`) and the `Fn(...)` closure traits.
fn is_fn_header(line: &str) -> bool {
    let mut start = 0usize;
    while let Some(pos) = line[start..].find("fn ") {
        let at = start + pos;
        let before_ok = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let rest = line[at + 3..].trim_start();
        if before_ok
            && rest
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            return true;
        }
        start = at + 3;
    }
    false
}

pub(crate) fn fn_regions(lines: &[&str]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < lines.len() {
        if !is_fn_header(lines[i]) {
            i += 1;
            continue;
        }
        let mut depth = 0i64;
        let mut started = false;
        let mut j = i;
        while j < lines.len() {
            for c in lines[j].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if started && depth <= 0 {
                break;
            }
            // Bodyless declaration (trait method, extern item).
            if !started && lines[j].trim_end().ends_with(';') {
                break;
            }
            j += 1;
        }
        if started {
            out.push((i, j.min(lines.len() - 1)));
        }
        i = j + 1;
    }
    out
}

/// Does `hay` contain `needle` as a whole identifier (not a fragment
/// of a longer `ident_like_this`)?
fn has_word(hay: &str, needle: &str) -> bool {
    let mut start = 0usize;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= hay.len()
            || !hay[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = after;
    }
    false
}

/// Does this (stripped) line open an `unsafe { ... }` block? Function
/// and impl headers (`unsafe fn`, `unsafe impl`) are the compiler's
/// department (`deny(unsafe_op_in_unsafe_fn)` forces explicit inner
/// blocks, which this rule then catches).
pub(crate) fn has_unsafe_intro(line: &str) -> bool {
    let mut start = 0usize;
    while let Some(pos) = line[start..].find("unsafe") {
        let at = start + pos;
        let before_ok = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + "unsafe".len();
        let rest = line[after..].trim_start();
        let after_ok = !line[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok && rest.starts_with('{') {
            return true;
        }
        start = after;
    }
    false
}

/// Does this line `use` Instant/SystemTime out of `std::time`?
pub(crate) fn imports_std_time_type(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("use ")
        && t.contains("std::time")
        && (has_word(t, "Instant") || has_word(t, "SystemTime"))
}

/// The raw `std::sync` lock primitive this line names, if any.
pub(crate) fn std_sync_primitive(line: &str) -> Option<&'static str> {
    if !line.contains("std::sync") {
        return None;
    }
    ["Mutex", "RwLock", "Condvar", "Barrier"]
        .into_iter()
        .find(|prim| has_word(line, prim))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = "let a = \"std::time::Instant\"; // std::sync::Mutex\nlet b = 1;";
        let out = strip_comments_and_strings(src);
        assert!(!out.contains("Instant"));
        assert!(!out.contains("Mutex"));
        assert_eq!(out.lines().count(), src.lines().count());
        assert!(out.contains("let b = 1;"));
    }

    #[test]
    fn nested_block_comments_strip() {
        let src = "a /* one /* two */ still */ b";
        let out = strip_comments_and_strings(src);
        assert!(out.contains('a') && out.contains('b'));
        assert!(!out.contains("two"));
        assert!(!out.contains("still"));
    }

    #[test]
    fn raw_strings_strip() {
        let src = "let s = r#\"unsafe { std::sync::Mutex }\"#; done";
        let out = strip_comments_and_strings(src);
        assert!(!out.contains("Mutex"));
        assert!(out.contains("done"));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let e = '\\n'; }";
        let out = strip_comments_and_strings(src);
        assert!(out.contains("<'a>"));
        assert!(!out.contains("'x'"));
        assert!(!out.contains("\\n"));
    }

    #[test]
    fn test_regions_cover_mod_to_close() {
        let lines = vec![
            "fn real() {",       // 0
            "}",                 // 1
            "#[cfg(test)]",      // 2
            "mod tests {",       // 3
            "    fn t() { x; }", // 4
            "}",                 // 5
            "fn after() {}",     // 6
        ];
        let marks = test_region_lines(&lines);
        assert_eq!(marks, vec![false, false, true, true, true, true, false]);
    }

    #[test]
    fn unsafe_block_detection() {
        assert!(has_unsafe_intro("let p = unsafe { System.alloc(l) };"));
        assert!(has_unsafe_intro("unsafe {"));
        assert!(!has_unsafe_intro("unsafe fn alloc(&self) {"));
        assert!(!has_unsafe_intro("unsafe impl Send for X {}"));
        assert!(!has_unsafe_intro("deny(unsafe_op_in_unsafe_fn)"));
        assert!(!has_unsafe_intro("// nothing here"));
    }

    #[test]
    fn fn_regions_span_bodies_and_skip_declarations() {
        let lines = vec![
            "struct S { f: fn(usize) -> bool }", // 0: pointer type, not a header
            "trait T {",                         // 1
            "    fn decl(&self);",               // 2: bodyless
            "}",                                 // 3
            "pub fn outer(x: u32) -> u32 {",     // 4
            "    let g = |y| y + 1;",            // 5
            "    fn inner(z: u32) -> u32 { z }", // 6: nested, stays inside
            "    g(inner(x))",                   // 7
            "}",                                 // 8
            "fn after() {}",                     // 9
        ];
        assert_eq!(fn_regions(&lines), vec![(4, 8), (9, 9)]);
    }

    #[test]
    fn matchers() {
        assert!(imports_std_time_type("use std::time::{Duration, Instant};"));
        assert!(!imports_std_time_type("use std::time::Duration;"));
        assert_eq!(std_sync_primitive("use std::sync::Mutex;"), Some("Mutex"));
        assert_eq!(std_sync_primitive("use std::sync::{Arc, OnceLock};"), None);
        assert_eq!(std_sync_primitive("let b = Barrier::new(2);"), None);
    }
}
