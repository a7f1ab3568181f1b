//! JSON primitives for the exporters. Every export is written in one
//! pass straight into its output `String`: objects are spelled out
//! member by member with fixed key literals, so no value tree, key
//! string or per-number temporary is ever allocated.
//!
//! Values render exactly as the workspace's `serde_json` printer renders
//! them: integers in decimal, floats by `{}` Display (`null` when not
//! finite — JSON has no NaN or infinity), strings with `\"`, `\\`, `\n`,
//! `\r`, `\t` and lowercase `\u00XX` for the other control characters.
//!
//! The member writers are `#[inline(always)]` so that each literal key
//! compiles to fixed-size stores at its call site; left to the inliner
//! they stay calls, and the per-request lines get measurably slower.

use std::fmt::Write as _;

/// Starts member `name`: writes `"name":`, preceded by a comma unless
/// it is the first member of the object. Keys are literals that need no
/// escaping.
#[inline(always)]
pub(crate) fn key(out: &mut String, name: &str) {
    if out.as_bytes().last() != Some(&b'{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
}

/// Member `name` with an unsigned integer value.
#[inline(always)]
pub(crate) fn uint(out: &mut String, name: &str, v: u64) {
    key(out, name);
    let _ = write!(out, "{v}");
}

/// Member `name` with a signed integer value.
#[inline(always)]
pub(crate) fn int(out: &mut String, name: &str, v: i64) {
    key(out, name);
    let _ = write!(out, "{v}");
}

/// Member `name` with a float value, `null` when NaN or infinite.
#[inline(always)]
pub(crate) fn float(out: &mut String, name: &str, v: f64) {
    key(out, name);
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Member `name` with a quoted, escaped string value.
#[inline(always)]
pub(crate) fn string(out: &mut String, name: &str, s: &str) {
    key(out, name);
    out.push('"');
    if s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        escaped(out, s);
    } else {
        out.push_str(s);
    }
    out.push('"');
}

/// The body of a string that needs escaping. Every escaped character is
/// ASCII, so each index below is a char boundary and the unescaped runs
/// between them copy as whole slices.
#[cold]
fn escaped(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}
