//! Differential testing of the Thompson-NFA regex engine against an
//! independent, obviously-correct backtracking reference matcher, over
//! randomly generated patterns and inputs.
//!
//! The reference supports the shared grammar subset (literals, `.`,
//! single-char classes, `* + ?` on atoms, one level of alternation) and
//! is exponential-time in the worst case — fine for the tiny inputs used
//! here.

use proptest::prelude::*;

use microfaas_workloads::algorithms::regex::Regex;

/// Reference AST: an alternation of concatenations of repeated atoms.
#[derive(Debug, Clone)]
enum RefAtom {
    Literal(u8),
    Any,
    Class(Vec<u8>, bool), // (members, negated)
}

#[derive(Debug, Clone)]
struct RefPiece {
    atom: RefAtom,
    min: u32,
    max: Option<u32>,
}

#[derive(Debug, Clone)]
struct RefPattern {
    branches: Vec<Vec<RefPiece>>,
}

impl RefAtom {
    fn matches(&self, byte: u8) -> bool {
        match self {
            RefAtom::Literal(b) => byte == *b,
            RefAtom::Any => byte != b'\n',
            RefAtom::Class(members, negated) => members.contains(&byte) != *negated,
        }
    }

    fn to_pattern(&self) -> String {
        match self {
            RefAtom::Literal(b) => (*b as char).to_string(),
            RefAtom::Any => ".".to_string(),
            RefAtom::Class(members, negated) => {
                let inner: String = members.iter().map(|&b| b as char).collect();
                if *negated {
                    format!("[^{inner}]")
                } else {
                    format!("[{inner}]")
                }
            }
        }
    }
}

impl RefPiece {
    fn to_pattern(&self) -> String {
        let suffix = match (self.min, self.max) {
            (0, None) => "*".to_string(),
            (1, None) => "+".to_string(),
            (0, Some(1)) => "?".to_string(),
            (1, Some(1)) => String::new(),
            (min, Some(max)) if min == max => format!("{{{min}}}"),
            (min, Some(max)) => format!("{{{min},{max}}}"),
            (min, None) => format!("{{{min},}}"),
        };
        format!("{}{suffix}", self.atom.to_pattern())
    }
}

impl RefPattern {
    fn to_pattern(&self) -> String {
        let branches: Vec<String> = self
            .branches
            .iter()
            .map(|pieces| pieces.iter().map(RefPiece::to_pattern).collect())
            .collect();
        branches.join("|")
    }

    /// True if any branch matches a prefix of `text` starting at 0.
    fn matches_at(&self, text: &[u8]) -> bool {
        self.branches
            .iter()
            .any(|pieces| match_pieces(pieces, text))
    }

    /// Unanchored search, the engine's `is_match` semantics.
    fn is_match(&self, text: &[u8]) -> bool {
        (0..=text.len()).any(|from| self.matches_at(&text[from..]))
    }
}

/// Backtracking match of a piece sequence against a prefix of `text`.
fn match_pieces(pieces: &[RefPiece], text: &[u8]) -> bool {
    match pieces.split_first() {
        None => true,
        Some((piece, rest)) => {
            // Count how many leading bytes the atom could consume.
            let mut available = 0;
            while available < text.len() && piece.atom.matches(text[available]) {
                available += 1;
            }
            let upper = piece.max.map_or(available, |m| (m as usize).min(available));
            if (piece.min as usize) > upper {
                return false;
            }
            // Greedy-to-lazy backtracking over the repetition count.
            for take in (piece.min as usize..=upper).rev() {
                if match_pieces(rest, &text[take..]) {
                    return true;
                }
            }
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn atom_strategy() -> impl Strategy<Value = RefAtom> {
    prop_oneof![
        (b'a'..=b'e').prop_map(RefAtom::Literal),
        Just(RefAtom::Any),
        (
            prop::collection::btree_set(b'a'..=b'e', 1..4),
            any::<bool>()
        )
            .prop_map(|(set, negated)| RefAtom::Class(set.into_iter().collect(), negated)),
    ]
}

fn piece_strategy() -> impl Strategy<Value = RefPiece> {
    (atom_strategy(), 0u32..3, prop::option::of(0u32..4)).prop_map(|(atom, min, max_extra)| {
        let max = max_extra.map(|extra| min + extra);
        RefPiece { atom, min, max }
    })
}

fn pattern_strategy() -> impl Strategy<Value = RefPattern> {
    prop::collection::vec(prop::collection::vec(piece_strategy(), 1..5), 1..4)
        .prop_map(|branches| RefPattern { branches })
}

fn text_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop_oneof![b'a'..=b'f', Just(b'\n')], 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The script interpreter never panics on arbitrary source text —
    /// parse errors and runtime errors only (here because this test
    /// binary already links proptest).
    #[test]
    fn interpreter_never_panics(source in ".{0,120}") {
        use microfaas_workloads::interp::Script;
        if let Ok(script) = Script::compile(&source) {
            let _ = script.run(5_000);
        }
    }

    /// Script-shaped token soup never panics the interpreter either.
    #[test]
    fn interpreter_token_soup_never_panics(
        tokens in prop::collection::vec(
            prop_oneof![
                Just("let"), Just("if"), Just("else"), Just("while"), Just("return"),
                Just("true"), Just("false"), Just("and"), Just("or"),
                Just("x"), Just("y"), Just("1"), Just("2.5"), Just("\"s\""),
                Just("+"), Just("-"), Just("*"), Just("/"), Just("%"),
                Just("=="), Just("="), Just("<"), Just("("), Just(")"),
                Just("{"), Just("}"), Just(";"), Just(","), Just("len"),
            ],
            0..16,
        )
    ) {
        use microfaas_workloads::interp::Script;
        let source = tokens.join(" ");
        if let Ok(script) = Script::compile(&source) {
            let _ = script.run(5_000);
        }
    }

    /// The NFA engine and the backtracking reference agree on `is_match`
    /// for every generated (pattern, input) pair.
    #[test]
    fn nfa_agrees_with_backtracking_reference(
        pattern in pattern_strategy(),
        text in text_strategy(),
    ) {
        let source = pattern.to_pattern();
        let engine = Regex::new(&source)
            .unwrap_or_else(|e| panic!("generated pattern /{source}/ must parse: {e}"));
        let text_str = std::str::from_utf8(&text).expect("ascii input");
        prop_assert_eq!(
            engine.is_match(text_str),
            pattern.is_match(&text),
            "pattern /{}/ on {:?}", source, text_str
        );
    }

    /// Every generated pattern round-trips through the parser.
    #[test]
    fn generated_patterns_parse(pattern in pattern_strategy()) {
        let source = pattern.to_pattern();
        prop_assert!(Regex::new(&source).is_ok(), "/{}/", source);
    }

    /// find_all ranges really match and do not overlap.
    #[test]
    fn find_all_ranges_are_valid(
        pattern in pattern_strategy(),
        text in text_strategy(),
    ) {
        let source = pattern.to_pattern();
        let engine = Regex::new(&source).expect("parses");
        let text_str = std::str::from_utf8(&text).expect("ascii input");
        let matches = engine.find_all(text_str);
        let mut last_end = 0;
        for (start, end) in matches {
            prop_assert!(start <= end && end <= text.len());
            prop_assert!(start >= last_end, "overlap at {start}");
            last_end = end.max(start);
            if start < end {
                // The matched substring must itself match at position 0.
                prop_assert!(
                    pattern.matches_at(&text[start..]),
                    "reported match at {start} does not verify for /{source}/"
                );
            }
        }
    }
}
