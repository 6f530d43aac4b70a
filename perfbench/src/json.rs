//! JSON string quoting for the result line, the provenance line, the trace
//! file and `BENCHMARK.json`.

/// Escapes `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotes_escapes_and_control_characters() {
        assert_eq!(quote("plain"), "\"plain\"");
        assert_eq!(quote("q\"\\\n"), "\"q\\\"\\\\\\n\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }
}
