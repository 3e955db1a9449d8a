//! Parser fuzzing: arbitrary text, golden lines cut short or with
//! characters spliced in, and labels mixing multibyte characters with
//! escapes all go through the line parser and the replay cursor. None may
//! panic; every document-level error names a line that really fails to
//! parse; the cursor folds exactly what the whole-document parser reads,
//! blank lines included; and whatever parses re-serializes to canonical
//! text that parses back to the same value and the same bytes. Golden
//! lines with their keys permuted and whitespace spread between their
//! tokens still parse to the canonical record, and a repeated key never
//! parses, so the accepted language neither narrows nor widens.

use std::borrow::Cow;
use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;
use sim_kernel::json::{push_json_str, Scanner};
use spotverse::replay::parse_trace_line;
use spotverse::{
    parse_trace_jsonl, render_analysis, render_analysis_json, replay_lines, trace_lines_to_jsonl,
    ReplayCursor, TimeWindow, TraceLine,
};

const GOLDENS: [&str; 5] = [
    "spotverse_ngs3_seed2024_t4.jsonl",
    "spotverse_ngs3_seed2024_t5.jsonl",
    "spotverse_ngs3_seed2024_t6.jsonl",
    "spotverse_genome10_seed2024_region_flap.jsonl",
    "fleet_ngs3_seed2024_cap1.jsonl",
];

/// Text spliced into golden lines: JSON punctuation, escapes (whole,
/// partial and surrogate halves), number fragments and multibyte
/// characters, so mutations reach every branch of the scanner.
const SPLICES: [&str; 31] = [
    "\"",
    "\\",
    "\\u",
    "\\ud83d",
    "\\ude00",
    "\\u00e9",
    "\\u+041",
    "\\n",
    "\\\"",
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "0",
    "9",
    "-",
    ".",
    "e",
    "1e999",
    "99999999999999999999",
    "18446744073709551615",
    "é",
    "€",
    "😀",
    " ",
    "null",
    "true",
    "\u{1}",
    "\"cell\":\"x\",",
];

/// Label pieces that are all valid JSON string content, each with the
/// text it decodes to: raw multibyte characters directly next to escapes.
const LABEL_PIECES: [(&str, &str); 12] = [
    ("é", "é"),
    ("€", "€"),
    ("😀", "😀"),
    ("a", "a"),
    ("\\n", "\n"),
    ("\\\"", "\""),
    ("\\\\", "\\"),
    ("\\t", "\t"),
    ("\\u00e9", "é"),
    ("\\ud83d\\ude00", "😀"),
    ("\\u0001", "\u{1}"),
    ("\\/", "/"),
];

/// Arbitrary Unicode text, half of it ASCII so JSON punctuation turns up.
fn unicode_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((any::<bool>(), 0u32..0x80, 0u32..0x11_0000), 0..64).prop_map(
        |draws| {
            draws
                .into_iter()
                .map(|(ascii, low, any)| {
                    char::from_u32(if ascii { low } else { any }).unwrap_or('\u{FFFD}')
                })
                .collect()
        },
    )
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run scripts/regen-golden.sh",
            path.display()
        )
    })
}

fn golden_lines() -> Vec<String> {
    GOLDENS
        .iter()
        .flat_map(|name| golden(name).lines().map(str::to_owned).collect::<Vec<_>>())
        .collect()
}

/// The largest char boundary of `s` at or below `i % (len + 1)`.
fn boundary(s: &str, i: usize) -> usize {
    let mut i = i % (s.len() + 1);
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// `line` with `insert` spliced in at `at` after deleting up to `delete`
/// characters there.
fn splice(line: &str, at: usize, delete: usize, insert: &str) -> String {
    let start = boundary(line, at);
    let end = line[start..]
        .char_indices()
        .nth(delete)
        .map_or(line.len(), |(i, _)| start + i);
    format!("{}{insert}{}", &line[..start], &line[end..])
}

/// Whatever parses re-serializes to canonical text that parses back to
/// the same line and the same bytes.
fn check_line(line: &str) -> Result<Option<TraceLine<'_>>, TestCaseError> {
    let Ok(parsed) = parse_trace_line(line) else {
        return Ok(None);
    };
    let canonical = trace_lines_to_jsonl(std::slice::from_ref(&parsed));
    let again = parse_trace_jsonl(&canonical)
        .map_err(|e| TestCaseError::fail(format!("canonical form of {line:?} fails: {e}")))?;
    prop_assert_eq!(&again, &vec![parsed.clone()], "{:?}", line);
    prop_assert_eq!(trace_lines_to_jsonl(&again), canonical);
    Ok(Some(parsed))
}

/// Document-level checks: errors name a line that really fails, the
/// cursor agrees with the whole-document parser, and any replayed state
/// renders.
fn check_document(doc: &str, splits: &[usize]) -> Result<(), TestCaseError> {
    let segments: Vec<&str> = doc.split('\n').collect();
    let parsed = parse_trace_jsonl(doc);
    if let Err(e) = &parsed {
        let bad = segments.get(e.line.wrapping_sub(1));
        prop_assert!(
            bad.is_some(),
            "error names line {} of {}",
            e.line,
            segments.len()
        );
        prop_assert!(
            parse_trace_line(bad.expect("checked")).is_err(),
            "line {} parses",
            e.line
        );
    }

    let mut cursor = ReplayCursor::new(TimeWindow::ALL);
    let mut prev = 0;
    let mut fed = Ok(());
    for &split in splits {
        fed = fed.and_then(|()| cursor.feed(&doc[prev..split]));
        prev = split;
    }
    let replayed = fed
        .and_then(|()| cursor.feed(&doc[prev..]))
        .and_then(|()| cursor.finish());
    match (&parsed, replayed) {
        (Err(p), Err(e)) => {
            prop_assert_eq!(p.line, e.line, "the parser and the cursor fail at one line");
        }
        (Ok(lines), Ok(state)) => {
            prop_assert_eq!(&state, &replay_lines(lines, TimeWindow::ALL));
            let _ = render_analysis(&state);
            let _ = render_analysis_json(&state);
        }
        (p, c) => {
            return Err(TestCaseError::fail(format!(
                "parser gave {p:?}, cursor gave {c:?}"
            )));
        }
    }
    Ok(())
}

/// A splitmix64 stream: the shuffles and whitespace of one case.
struct Draws(u64);

impl Draws {
    fn next(&mut self, below: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % below as u64) as usize
    }

    /// JSON whitespace, often none.
    fn ws(&mut self, out: &mut String) {
        for _ in 0..self.next(3) {
            out.push([' ', '\t', '\n', '\r'][self.next(4)]);
        }
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.next(i + 1));
        }
    }
}

/// A golden line as a tree whose keys can be permuted: objects keep their
/// entries in source order, and each scalar is its source text.
#[derive(Clone)]
enum Tree<'a> {
    Scalar(&'a str),
    Arr(Vec<Tree<'a>>),
    Obj(Entries<'a>),
}

/// An object's entries in source order.
type Entries<'a> = Vec<(Cow<'a, str>, Tree<'a>)>;

/// Reads `line`, one JSON value, into a tree.
fn tree_of(line: &str) -> Result<Tree<'_>, String> {
    let mut r = Scanner::new(line);
    let tree = read_tree(&mut r)?;
    r.finish().map(|()| tree)
}

/// Reads the value `r` is at into a tree, one pull read at a time.
fn read_tree<'a>(r: &mut Scanner<'a>) -> Result<Tree<'a>, String> {
    if r.begin_object().is_ok() {
        let mut entries = Vec::new();
        while let Some(key) = r.next_key()? {
            entries.push((key, read_tree(r)?));
        }
        Ok(Tree::Obj(entries))
    } else if r.begin_array().is_ok() {
        let mut items = Vec::new();
        while r.next_item()? {
            items.push(read_tree(r)?);
        }
        Ok(Tree::Arr(items))
    } else {
        r.skip_value().map(Tree::Scalar)
    }
}

/// Shuffles the keys of the line's top-level object and of the objects
/// inside its `candidates` array.
fn permute_keys(value: &mut Tree<'_>, draws: &mut Draws) {
    let Tree::Obj(entries) = value else { return };
    draws.shuffle(entries);
    for (key, item) in entries.iter_mut() {
        if key == "candidates" {
            if let Tree::Arr(candidates) = item {
                for candidate in candidates {
                    if let Tree::Obj(fields) = candidate {
                        draws.shuffle(fields);
                    }
                }
            }
        }
    }
}

/// Writes `value` with random whitespace before and after every token.
fn write_spaced(value: &Tree<'_>, draws: &mut Draws, out: &mut String) {
    draws.ws(out);
    match value {
        Tree::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_spaced(item, draws, out);
            }
            draws.ws(out);
            out.push(']');
        }
        Tree::Obj(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                draws.ws(out);
                push_json_str(out, key);
                draws.ws(out);
                out.push(':');
                write_spaced(item, draws, out);
            }
            draws.ws(out);
            out.push('}');
        }
        Tree::Scalar(text) => out.push_str(text),
    }
    draws.ws(out);
}

/// The object the line holds at `index`: 0 is the line itself, `i > 0`
/// the `i`-th object of its `candidates` array.
fn object_at<'v, 'a>(value: &'v mut Tree<'a>, index: usize) -> Option<&'v mut Entries<'a>> {
    let Tree::Obj(entries) = value else {
        return None;
    };
    if index == 0 {
        return Some(entries);
    }
    let (_, Tree::Arr(candidates)) = entries.iter_mut().find(|(k, _)| k == "candidates")? else {
        return None;
    };
    match candidates.get_mut(index - 1)? {
        Tree::Obj(fields) => Some(fields),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_never_panics(text in unicode_text()) {
        check_line(&text)?;
        check_document(&text, &[])?;
    }

    #[test]
    fn json_shaped_text_never_panics(text in "[{}\\[\\]\",:\\\\u0-9a-fA-F.eE+\\- éü€😀]{0,64}") {
        check_line(&text)?;
    }

    #[test]
    fn truncated_golden_lines_are_rejected_cleanly(pick in any::<usize>(), cut in any::<usize>()) {
        let lines = golden_lines();
        let line = &lines[pick % lines.len()];
        let cut = boundary(line, cut);
        let parsed = check_line(&line[..cut])?;
        // A record line cut short loses its closing brace.
        prop_assert_eq!(parsed.is_some(), cut == line.len(), "cut at {}", cut);
    }

    #[test]
    fn spliced_golden_lines_never_panic(
        pick in any::<usize>(),
        at in any::<usize>(),
        delete in 0usize..4,
        pieces in proptest::collection::vec(0..SPLICES.len(), 1..4),
        (cut, keep) in (any::<bool>(), 0usize..6),
    ) {
        let lines = golden_lines();
        let line = &lines[pick % lines.len()];
        let insert: String = pieces.iter().map(|&i| SPLICES[i]).collect();
        let at = boundary(line, at);
        let mut mutated = splice(line, at, delete, &insert);
        if cut {
            // End the line just after the splice, inside an escape or a
            // surrogate pair if one was spliced in.
            let end = (at + insert.len() + keep).min(mutated.len());
            mutated.truncate(boundary(&mutated, end));
        }
        check_line(&mutated)?;
    }

    #[test]
    fn labels_mixing_multibyte_and_escapes_round_trip(
        pick in any::<usize>(),
        pieces in proptest::collection::vec(0..LABEL_PIECES.len(), 0..12),
    ) {
        let lines = golden_lines();
        let line = &lines[pick % lines.len()];
        let label: String = pieces.iter().map(|&i| LABEL_PIECES[i].0).collect();
        let expected: String = pieces.iter().map(|&i| LABEL_PIECES[i].1).collect();
        let labelled = format!("{{\"cell\":\"{label}\",{}", &line[1..]);
        let parsed = check_line(&labelled)?;
        let parsed = parsed.ok_or_else(|| TestCaseError::fail(format!("{labelled} must parse")))?;
        prop_assert_eq!(parsed.cell(), Some(expected.as_str()));
    }

    #[test]
    fn mutated_documents_report_real_lines(
        name in 0..GOLDENS.len(),
        edits in proptest::collection::vec((any::<usize>(), 0usize..4, 0..SPLICES.len()), 0..3),
        raw_splits in proptest::collection::vec(any::<usize>(), 0..4),
    ) {
        let mut doc = golden(GOLDENS[name]);
        for (at, delete, piece) in edits {
            doc = splice(&doc, at, delete, SPLICES[piece]);
        }
        let mut splits: Vec<usize> = raw_splits.iter().map(|&s| boundary(&doc, s)).collect();
        splits.sort_unstable();
        check_document(&doc, &splits)?;
    }

    #[test]
    fn permuted_keys_and_whitespace_parse_to_the_canonical_line(
        with_candidates in any::<bool>(),
        pick in any::<usize>(),
        seed in any::<u64>(),
        dup in any::<usize>(),
    ) {
        let lines: Vec<String> = golden_lines()
            .into_iter()
            .filter(|l| !with_candidates || l.contains("\"candidates\":["))
            .collect();
        let line = &lines[pick % lines.len()];
        let canonical = parse_trace_line(line).expect("golden lines parse");
        let mut draws = Draws(seed);
        let mut tree = tree_of(line).expect("golden lines are JSON");
        permute_keys(&mut tree, &mut draws);
        let mut permuted = String::new();
        write_spaced(&tree, &mut draws, &mut permuted);
        prop_assert_eq!(
            parse_trace_line(&permuted).map_err(|e| format!("{permuted:?}: {e}")),
            Ok(canonical)
        );

        // Repeating any key of any object is rejected, wherever the copy lands.
        let objects = (0..).take_while(|&i| object_at(&mut tree, i).is_some()).count();
        let target = object_at(&mut tree, dup % objects).expect("object exists");
        let entry = target[dup % target.len()].clone();
        let at = draws.next(target.len() + 1);
        target.insert(at, entry);
        let mut repeated = String::new();
        write_spaced(&tree, &mut draws, &mut repeated);
        prop_assert!(parse_trace_line(&repeated).is_err(), "{:?} parses", repeated);
    }
}
