//! JSON string parsing in the vendored `serde_json`: multi-byte UTF-8
//! characters at every offset around escapes and string ends, every
//! escape form, surrogate pairs, malformed strings, and a ~1 MB
//! string-heavy document (model blobs and bench records are parsed by
//! this code, so a parse that grows faster than linearly shows here).

/// One character of each UTF-8 encoded length.
const CHARS: [char; 4] = ['a', 'é', '€', '😀'];

fn parse(json: &str) -> String {
    serde_json::from_str::<String>(json).unwrap_or_else(|e| panic!("{json:?}: {e}"))
}

#[test]
fn multibyte_characters_at_every_offset_round_trip() {
    for &c in &CHARS[1..] {
        for before in 0..9 {
            for after in 0..9 {
                let s = format!("{}{c}{}", "x".repeat(before), "y".repeat(after));
                let json = serde_json::to_string(&s).unwrap();
                assert_eq!(parse(&json), s);
                // The same character right before and right after an
                // escape, and as the last byte before the closing quote.
                let escaped = format!(
                    "\"{}{c}\\n{c}{}\\\"{c}\"",
                    "x".repeat(before),
                    "y".repeat(after)
                );
                let want = format!("{}{c}\n{c}{}\"{c}", "x".repeat(before), "y".repeat(after));
                assert_eq!(parse(&escaped), want);
            }
        }
    }
}

#[test]
fn adjacent_multibyte_runs_of_mixed_lengths() {
    for &a in &CHARS {
        for &b in &CHARS {
            for &c in &CHARS {
                let s: String = [a, b, c, b, a].iter().collect();
                assert_eq!(parse(&format!("\"{s}\"")), s);
            }
        }
    }
}

#[test]
fn every_escape_form_decodes() {
    assert_eq!(parse(r#""\"\\\/\b\f\n\r\t""#), "\"\\/\u{8}\u{c}\n\r\t");
    assert_eq!(parse(r#""A\u00e9\u20ac""#), "Aé€");
    assert_eq!(parse(r#""é\u0000€""#), "é\u{0}€");
    // Surrogate pairs, alone and between raw multi-byte characters.
    assert_eq!(parse(r#""\ud83d\ude00""#), "😀");
    assert_eq!(parse(r#""€\ud83d\ude00é""#), "€😀é");
    assert_eq!(
        parse(r#""\ud800\udc00\udbff\udfff""#),
        "\u{10000}\u{10ffff}"
    );
}

#[test]
fn malformed_strings_are_errors() {
    for bad in [
        r#""é"#,
        r#""€\"#,
        r#""\x""#,
        r#""\u12""#,
        r#""\ud83d""#,
        r#""\ud83dx""#,
        r#""\ud83dA""#,
        "\"😀",
    ] {
        assert!(
            serde_json::from_str::<String>(bad).is_err(),
            "{bad:?} parsed"
        );
    }
}

#[test]
fn megabyte_string_heavy_document_round_trips() {
    let pieces = [
        "plain ascii text ",
        "quote \" and backslash \\ ",
        "newline\ttab\r\n",
        "control \u{1}\u{1f} ",
        "café ",
        "€uro ",
        "emoji 😀🚀 ",
        "中文字符 ",
    ];
    let strings: Vec<String> = (0..24_000)
        .map(|i| {
            (0..3)
                .map(|j| pieces[(i * 3 + j) % pieces.len()])
                .collect::<String>()
        })
        .collect();
    let json = serde_json::to_string(&strings).unwrap();
    assert!(json.len() > 1_000_000, "document is {} bytes", json.len());
    let back: Vec<String> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, strings);
}
