//! The flat-JSONL codec every observer stream shares: flow traces,
//! packet captures, causal spans and audit reports are all one flat
//! JSON object per line with known keys, string and unsigned-integer
//! values, and (captures only) one `u64` array.
//!
//! [`escape`] is the writer half; [`parse_lines`] with [`get_u64`],
//! [`get_str`] and [`get_u64_array`] is the reader half — an
//! escape-aware key scanner, not a general JSON parser. Readers return
//! `Err` on malformed input and never panic.

/// Escape `s` for the inside of a JSON string: `"`, `\` and control
/// characters; everything else (multi-byte UTF-8 included) verbatim.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Find the value start of `"key":` in a flat JSON object, skipping
/// occurrences embedded in string values (their quote is escaped, so
/// the preceding byte is a backslash).
fn find_key(line: &str, key: &str) -> Option<usize> {
    let pat = format!("\"{key}\":");
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(rel) = line[start..].find(&pat) {
        let pos = start + rel;
        if pos == 0 || bytes[pos - 1] != b'\\' {
            return Some(pos + pat.len());
        }
        start = pos + 1;
    }
    None
}

/// The unsigned integer value of `key`.
pub fn get_u64(line: &str, key: &str) -> Result<u64, String> {
    let at = find_key(line, key).ok_or_else(|| format!("missing field {key:?}"))?;
    let digits = &line[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    if end == 0 {
        return Err(format!("field {key:?} is not a number"));
    }
    digits[..end]
        .parse()
        .map_err(|e| format!("field {key:?}: {e}"))
}

/// The string value of `key`, unescaped (the inverse of [`escape`]).
pub fn get_str(line: &str, key: &str) -> Result<String, String> {
    let at = find_key(line, key).ok_or_else(|| format!("missing field {key:?}"))?;
    let rest = &line[at..];
    if !rest.starts_with('"') {
        return Err(format!("field {key:?} is not a string"));
    }
    let mut out = String::new();
    let mut chars = rest[1..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Ok(out),
            '\\' => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|e| format!("field {key:?}: bad \\u escape: {e}"))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| format!("field {key:?}: bad codepoint {code}"))?,
                    );
                }
                other => return Err(format!("field {key:?}: bad escape {other:?}")),
            },
            c => out.push(c),
        }
    }
    Err(format!("field {key:?}: unterminated string"))
}

/// The `[n,n,...]` array value of `key`.
pub fn get_u64_array(line: &str, key: &str) -> Result<Vec<u64>, String> {
    let at = find_key(line, key).ok_or_else(|| format!("missing field {key:?}"))?;
    let rest = &line[at..];
    if !rest.starts_with('[') {
        return Err(format!("field {key:?} is not an array"));
    }
    let close = rest
        .find(']')
        .ok_or_else(|| format!("field {key:?}: unterminated array"))?;
    let body = &rest[1..close];
    if body.trim().is_empty() {
        return Ok(Vec::new());
    }
    body.split(',')
        .map(|s| s.trim().parse().map_err(|e| format!("field {key:?}: {e}")))
        .collect()
}

/// Decode every non-blank line of `text` with `decode`, in order. An
/// error names its 1-based line number.
pub fn parse_lines<T>(
    text: &str,
    mut decode: impl FnMut(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    text.lines()
        .enumerate()
        .map(|(idx, line)| (idx, line.trim()))
        .filter(|(_, line)| !line.is_empty())
        .map(|(idx, line)| decode(line).map_err(|e| format!("line {}: {e}", idx + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_values_are_errors() {
        assert!(get_u64("{\"a\":\"x\"}", "a").is_err());
        assert!(get_u64("{\"a\":99999999999999999999}", "a").is_err());
        assert!(get_u64("{\"a\":", "a").is_err());
        assert!(get_str("{\"a\":1}", "a").is_err());
        assert!(get_str("{\"a\":\"open", "a").is_err());
        assert!(get_str("{\"a\":\"\\q\"}", "a").is_err());
        assert!(get_str("{\"a\":\"\\ud800\"}", "a").is_err());
        assert!(get_u64_array("{\"a\":[1,2", "a").is_err());
        assert!(get_u64_array("{\"a\":[1,x]}", "a").is_err());
        assert_eq!(get_u64_array("{\"a\":[]}", "a").unwrap(), Vec::<u64>::new());
        assert_eq!(get_u64_array("{\"a\":[1,2]}", "a").unwrap(), vec![1, 2]);
        assert!(get_u64("{}", "a").is_err());
        let err = parse_lines("{\"a\":1}\n\n{}", |l| get_u64(l, "a")).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
    }
}
