//! Property tests for the lexer's losslessness invariant.
//!
//! Everything downstream — token trees, item extraction, the rules, the
//! call graph — assumes that concatenating `Token::text` in order
//! reproduces the input byte-for-byte. These properties hammer that
//! invariant from two directions: structured soup built from the
//! trickiest Rust fragments (raw strings, nested block comments,
//! lifetimes vs char literals), and fully random character streams
//! where quote/comment openers appear in broken, unterminated
//! positions. The lexer must stay total and lossless on *any* input; on
//! garbage it may classify poorly, but it may never drop a byte.
//! (`main.rs` has the companion test running the same check over every
//! real workspace source file.)

use crate::lex;
use proptest::prelude::*;

/// Fragments chosen to collide interestingly when concatenated:
/// prefixes of one token kind that are valid starts of another.
const FRAGMENTS: &[&str] = &[
    "fn f() { }\n",
    "r#\"raw \"quoted\" text\"#",
    "r##\"nested \"# hash\"##",
    "br#\"byte raw\"#",
    "b\"bytes\\\"esc\"",
    "/* outer /* inner */ still outer */",
    "/** doc block */",
    "//! inner doc\n",
    "/// outer doc\n",
    "// plain trailing\n",
    "'a",
    "'static",
    "'x'",
    "'\\n'",
    "b'q'",
    "r#match",
    "0..5",
    "1.5e-3",
    "0x_ff",
    "1_000_000u64",
    "::",
    "->",
    "=>",
    "<<=",
    "\"str with \\\" escape\"",
    "\"multi\nline\"",
    "#![allow(dead_code)]\n",
    "#[cfg(test)]",
    "let x: Vec<u8> = vec![1, 2];\n",
    "m!{ weird $tokens }",
    " ",
    "\t",
    "\n",
    "日本語",
    "€",
];

/// Characters for the unstructured stream: heavy on token-opener
/// ambiguity (quotes, slashes, hashes, `r`/`b` prefixes, backslashes).
const CHARS: &[char] = &[
    'r',
    'b',
    '#',
    '"',
    '\'',
    '/',
    '*',
    '\\',
    'a',
    'z',
    '_',
    '0',
    '9',
    '.',
    'e',
    '+',
    '-',
    '<',
    '>',
    ':',
    ';',
    '(',
    ')',
    '{',
    '}',
    '[',
    ']',
    ' ',
    '\n',
    '\t',
    '!',
    '&',
    '|',
    '=',
    ',',
    'é',
    '\u{1F600}',
];

fn reassemble(src: &str) -> String {
    lex::lex(src).iter().map(|t| t.text.as_str()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Structured soup: random concatenations of tricky fragments.
    #[test]
    fn fragment_soup_is_lossless(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..40)
    ) {
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        prop_assert_eq!(reassemble(&src), src);
    }

    /// Unstructured streams: arbitrary character sequences, including
    /// unterminated strings, half-open comments and stray prefixes.
    #[test]
    fn random_char_stream_is_lossless(
        picks in prop::collection::vec(0usize..CHARS.len(), 0..120)
    ) {
        let src: String = picks.iter().map(|&i| CHARS[i]).collect();
        prop_assert_eq!(reassemble(&src), src);
    }

    /// Raw strings with arbitrary hash counts and embedded terminator
    /// look-alikes survive round-tripping, surrounded by junk.
    #[test]
    fn raw_strings_with_hashes_are_lossless(
        hashes in 0usize..5,
        byte in any::<bool>(),
        tail in 0usize..FRAGMENTS.len(),
    ) {
        let h = "#".repeat(hashes);
        let inner = format!("a\"{}b", "#".repeat(hashes.saturating_sub(1)));
        let prefix = if byte { "br" } else { "r" };
        let src = format!("let s = {prefix}{h}\"{inner}\"{h};{}", FRAGMENTS[tail]);
        prop_assert_eq!(reassemble(&src), src);
    }
}
