//! A small regular-expression engine that runs in linear time.
//!
//! Supports the subset the filter language actually uses (see the
//! patterns in `crates/filter` and the paper's §7 case studies):
//! literals, `.`, escapes (`\.`, `\d`, `\w`, `\s` and negations),
//! character classes with ranges and negation, groups (capturing and
//! `(?:…)`), alternation, greedy and lazy quantifiers (`*`, `+`, `?`,
//! `{m}`, `{m,}`, `{m,n}`), and the `^`/`$` anchors.
//!
//! [`Regex::new`] parses the pattern, unrolls counted repetitions and
//! builds its Glushkov automaton: one state per character-consuming atom
//! (a *position*), no ε-moves. A pattern of more than [`POSITION_CAP`]
//! positions is rejected (`a{100000}` is; [`Regex::check`] tells without
//! building anything). The automaton runs bit-parallel: the live
//! positions are one fixed-size bit vector, and a char moves it by one
//! precomputed follow row per byte of the vector, then a mask of the
//! positions that accept the char. A char thus costs
//! `⌈positions / 8⌉ + 1` rows of `⌈positions / 64⌉` words however many
//! positions are live — at the cap, 33 rows of 4 words — and a match is
//! linear in the text. It reads the text once, forwards, on the stack —
//! no allocation, no recursion, no shared mutable state — so a compiled
//! pattern is immutable and any number of cores may share it.
//!
//! The semantics are those of an exhaustive backtracker, on any valid
//! UTF-8 text: `.` and negated classes match one `char`; `^` and `$`
//! assert the start and end of the whole text; `is_match` searches for
//! any matching substring and `is_full_match` anchors both ends; lazy
//! and greedy quantifiers accept the same texts. Such a backtracker is
//! the test oracle (`oracle` in this file's tests), and the automaton
//! is held to it by a differential property test.
//!
//! The same AST doubles as a *generator*: [`Regex::sample`] produces a
//! random string matching the pattern, which the property-test harness
//! uses for `"[a-z][a-z0-9_]{0,8}"`-style string strategies.

// Narrowing casts in this file are intentional: PRNG/fuzzing utilities extract lanes and bytes from u64 state.
#![allow(clippy::cast_possible_truncation)]

use std::fmt;

/// The most positions — character-consuming atoms, after counted
/// repetitions are unrolled — a pattern may have. An unrolled copy of a
/// group that consumes nothing (`(){9}`) counts as one, so the work of
/// unrolling is capped too.
pub const POSITION_CAP: usize = 256;

/// Words of the bit vector that holds a set of positions.
const MAX_WORDS: usize = POSITION_CAP / 64;

/// A compiled pattern.
#[derive(Clone)]
pub struct Regex {
    pattern: String,
    ast: Alt,
    nfa: Nfa,
}

/// Pattern compilation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex parse error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

type Alt = Vec<Seq>;
type Seq = Vec<Piece>;

#[derive(Debug, Clone)]
struct Piece {
    atom: Atom,
    min: u32,
    max: Option<u32>,
    /// Lazy and greedy accept the same texts; only the test oracle,
    /// which backtracks in the order it names, reads this.
    #[cfg_attr(not(test), allow(dead_code))]
    lazy: bool,
}

#[derive(Debug, Clone)]
enum Atom {
    Char(char),
    Any,
    Class(Class),
    Group(Alt),
    Start,
    End,
}

#[derive(Debug, Clone)]
struct Class {
    negated: bool,
    /// Inclusive char ranges; single chars are `(c, c)`.
    ranges: Vec<(char, char)>,
}

impl Class {
    fn contains(&self, c: char) -> bool {
        let inside = self.ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi);
        inside != self.negated
    }
}

/// Reads a pattern one `char` at a time; `pos` is a byte offset.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, Error> {
        Err(Error { msg: msg.into() })
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    /// The char after [`Parser::peek`]'s.
    fn peek2(&self) -> Option<char> {
        self.src[self.pos..].chars().nth(1)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn parse_alt(&mut self) -> Result<Alt, Error> {
        let mut branches = vec![self.parse_seq()?];
        while self.eat('|') {
            branches.push(self.parse_seq()?);
        }
        Ok(branches)
    }

    fn parse_seq(&mut self) -> Result<Seq, Error> {
        let mut pieces = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            let atom = self.parse_atom()?;
            let (min, max, lazy) = self.parse_quantifier(&atom)?;
            pieces.push(Piece {
                atom,
                min,
                max,
                lazy,
            });
        }
        Ok(pieces)
    }

    fn parse_atom(&mut self) -> Result<Atom, Error> {
        match self.bump().expect("caller checked peek") {
            '(' => {
                // Optional non-capturing marker; we don't track captures.
                if self.peek() == Some('?') {
                    let save = self.pos;
                    self.bump();
                    if !self.eat(':') {
                        // `(?=`, `(?!` etc. are unsupported lookarounds.
                        if matches!(self.peek(), Some('=') | Some('!') | Some('<')) {
                            return self.err("lookaround is not supported");
                        }
                        self.pos = save;
                    }
                }
                let inner = self.parse_alt()?;
                if !self.eat(')') {
                    return self.err("unclosed group");
                }
                Ok(Atom::Group(inner))
            }
            '[' => self.parse_class(),
            '.' => Ok(Atom::Any),
            '^' => Ok(Atom::Start),
            '$' => Ok(Atom::End),
            '\\' => self.parse_escape(),
            '*' | '+' | '?' => self.err("quantifier with nothing to repeat"),
            '{' => {
                // A `{` not following an atom: treat as a literal brace
                // only when it cannot start a repetition (like the real
                // regex crate's lenient mode would not; we reject to be
                // safe and predictable).
                self.err("repetition with nothing to repeat")
            }
            c => Ok(Atom::Char(c)),
        }
    }

    fn parse_escape(&mut self) -> Result<Atom, Error> {
        let Some(c) = self.bump() else {
            return self.err("trailing backslash");
        };
        let class = |negated, ranges: &[(char, char)]| {
            Ok(Atom::Class(Class {
                negated,
                ranges: ranges.to_vec(),
            }))
        };
        match c {
            'd' => class(false, &[('0', '9')]),
            'D' => class(true, &[('0', '9')]),
            'w' => class(false, &[('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')]),
            'W' => class(true, &[('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')]),
            's' => class(
                false,
                &[(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')],
            ),
            'S' => class(
                true,
                &[(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')],
            ),
            'n' => Ok(Atom::Char('\n')),
            't' => Ok(Atom::Char('\t')),
            'r' => Ok(Atom::Char('\r')),
            '0' => Ok(Atom::Char('\0')),
            // Escaped metacharacters and punctuation are literal.
            c if !c.is_alphanumeric() => Ok(Atom::Char(c)),
            c => self.err(format!("unsupported escape \\{c}")),
        }
    }

    fn parse_class(&mut self) -> Result<Atom, Error> {
        let negated = self.eat('^');
        let mut ranges = Vec::new();
        let mut first = true;
        loop {
            let Some(c) = self.bump() else {
                return self.err("unclosed character class");
            };
            match c {
                ']' if !first => break,
                // `]` first in the class is a literal, per POSIX.
                _ => {
                    let lo = if c == '\\' {
                        match self.parse_escape()? {
                            Atom::Char(l) => l,
                            Atom::Class(cls) => {
                                // \d etc. inside a class: merge ranges.
                                if cls.negated {
                                    return self.err("negated escape class inside character class");
                                }
                                ranges.extend(cls.ranges);
                                first = false;
                                continue;
                            }
                            _ => return self.err("bad escape in character class"),
                        }
                    } else {
                        c
                    };
                    // Range `a-z` unless the `-` is trailing.
                    if self.peek() == Some('-') && matches!(self.peek2(), Some(c) if c != ']') {
                        self.bump(); // '-'
                        let hic = self.bump().expect("checked above");
                        let hi = if hic == '\\' {
                            match self.parse_escape()? {
                                Atom::Char(h) => h,
                                _ => return self.err("bad range end in character class"),
                            }
                        } else {
                            hic
                        };
                        if hi < lo {
                            return self.err(format!("invalid range {lo}-{hi}"));
                        }
                        ranges.push((lo, hi));
                    } else {
                        ranges.push((lo, lo));
                    }
                }
            }
            first = false;
        }
        if ranges.is_empty() && !negated {
            return self.err("empty character class");
        }
        Ok(Atom::Class(Class { negated, ranges }))
    }

    fn parse_quantifier(&mut self, atom: &Atom) -> Result<(u32, Option<u32>, bool), Error> {
        let (min, max) = match self.peek() {
            Some('*') => {
                self.bump();
                (0, None)
            }
            Some('+') => {
                self.bump();
                (1, None)
            }
            Some('?') => {
                self.bump();
                (0, Some(1))
            }
            Some('{') => {
                let save = self.pos;
                self.bump();
                match self.parse_repetition() {
                    Ok(r) => r,
                    Err(e) => {
                        self.pos = save;
                        return Err(e);
                    }
                }
            }
            _ => return Ok((1, Some(1), false)),
        };
        if matches!(atom, Atom::Start | Atom::End) {
            return self.err("cannot repeat an anchor");
        }
        let lazy = self.eat('?');
        Ok((min, max, lazy))
    }

    fn parse_repetition(&mut self) -> Result<(u32, Option<u32>), Error> {
        let min = self.parse_number()?;
        if self.eat('}') {
            return Ok((min, Some(min)));
        }
        if !self.eat(',') {
            return self.err("malformed repetition");
        }
        if self.eat('}') {
            return Ok((min, None));
        }
        let max = self.parse_number()?;
        if !self.eat('}') {
            return self.err("malformed repetition");
        }
        if max < min {
            return self.err(format!("repetition {{{min},{max}}} has max < min"));
        }
        Ok((min, Some(max)))
    }

    fn parse_number(&mut self) -> Result<u32, Error> {
        let mut digits = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                digits.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if digits.is_empty() {
            return self.err("expected number in repetition");
        }
        digits.parse().map_err(|_| Error {
            msg: format!("repetition count {digits} too large"),
        })
    }
}

/// Parses `pattern`; the size is not checked.
fn parse(pattern: &str) -> Result<Alt, Error> {
    let mut parser = Parser {
        src: pattern,
        pos: 0,
    };
    let ast = parser.parse_alt()?;
    if parser.pos != pattern.len() {
        // A stray `)` is the only way to stop early.
        return Err(Error {
            msg: "unmatched )".into(),
        });
    }
    Ok(ast)
}

/// The positions `ast` unrolls to, or an error past [`POSITION_CAP`].
fn size(ast: &Alt) -> Result<usize, Error> {
    match positions(ast) {
        n if n <= POSITION_CAP as u64 => Ok(n as usize),
        n => Err(Error {
            msg: format!("pattern unrolls to {n} positions, over the cap of {POSITION_CAP}"),
        }),
    }
}

/// The positions `alt` unrolls to, saturating; a copy of a group counts
/// at least one.
fn positions(alt: &Alt) -> u64 {
    let piece = |p: &Piece| {
        let atom = match &p.atom {
            Atom::Char(_) | Atom::Any | Atom::Class(_) => 1,
            Atom::Group(alt) => positions(alt).max(1),
            Atom::Start | Atom::End => 0,
        };
        // `a{m,}` unrolls to m - 1 copies and one `a+`, `a*` to one copy.
        let copies = p.max.unwrap_or(p.min.max(1));
        atom.saturating_mul(u64::from(copies))
    };
    let seq = |s: &Seq| s.iter().map(piece).fold(0u64, u64::saturating_add);
    alt.iter().map(seq).fold(0, u64::saturating_add)
}

/// A random string matching `pattern`, as [`Regex::sample`] draws it,
/// from the parse alone: no automaton is built and no cap applies.
pub(crate) fn sample(pattern: &str, rnd: &mut dyn FnMut(u64) -> u64) -> Result<String, Error> {
    let mut out = String::new();
    sample_alt(&parse(pattern)?, rnd, &mut out);
    Ok(out)
}

impl Regex {
    /// Compiles `pattern`, rejecting syntax outside the supported subset
    /// and patterns over [`POSITION_CAP`], and builds its automaton.
    pub fn new(pattern: &str) -> Result<Self, Error> {
        let ast = parse(pattern)?;
        let nfa = Nfa::new(&ast, size(&ast)?);
        Ok(Regex {
            pattern: pattern.to_string(),
            ast,
            nfa,
        })
    }

    /// Whether [`Regex::new`] would accept `pattern`: the parse and the
    /// size check, without building an automaton.
    pub fn check(pattern: &str) -> Result<(), Error> {
        size(&parse(pattern)?).map(drop)
    }

    /// The original pattern text.
    pub fn as_str(&self) -> &str {
        &self.pattern
    }

    /// Unanchored search: does any substring of `text` match?
    pub fn is_match(&self, text: &str) -> bool {
        // An empty match with no `^`, no `$` or one of them is found at
        // some position of every text; one with both needs an empty text.
        if self.nfa.empty & !AT_BOTH != 0 {
            return true;
        }
        if text.is_empty() {
            return self.nfa.empty != 0;
        }
        self.nfa.search(text)
    }

    /// Anchored whole-string match.
    pub fn is_full_match(&self, text: &str) -> bool {
        self.nfa.full_match(text)
    }

    /// Generates a random string matching the pattern.
    ///
    /// `rnd(bound)` must return a uniform value in `[0, bound)`. Anchors
    /// are ignored (the generated string *is* the whole match).
    /// Unbounded repetitions are sampled up to `min + 8`.
    pub fn sample(&self, rnd: &mut dyn FnMut(u64) -> u64) -> String {
        let mut out = String::new();
        sample_alt(&self.ast, rnd, &mut out);
        out
    }
}

impl fmt::Debug for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Regex({:?})", self.pattern)
    }
}

impl fmt::Display for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pattern)
    }
}

// ----------------------------------------------------------- bit sets

fn or(dst: &mut [u64], src: &[u64]) {
    dst.iter_mut().zip(src).for_each(|(d, s)| *d |= s);
}

fn and(dst: &mut [u64], src: &[u64]) {
    dst.iter_mut().zip(src).for_each(|(d, s)| *d &= s);
}

fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

fn is_empty(set: &[u64]) -> bool {
    set.iter().all(|&w| w == 0)
}

/// The first `W` words of `set`, by value.
fn array<const W: usize>(set: &[u64]) -> [u64; W] {
    set[..W].try_into().expect("a slice of W words")
}

fn insert(set: &mut [u64], p: usize) {
    set[p / 64] |= 1 << (p % 64);
}

/// The members of `set`, ascending.
fn ones(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(i, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                i * 64 + b
            })
        })
    })
}

/// Counts automaton transitions for the step-budget tests; nothing
/// outside tests.
#[inline(always)]
fn note_steps(_steps: usize) {
    #[cfg(test)]
    tests::STEPS.with(|s| s.set(s.get() + _steps as u64));
}

// ---------------------------------------------------------- automaton

/// The anchors an empty path crosses, as a set: bit 0 `^`, bit 1 `$`.
/// A fragment's `empty` holds one bit per crossing set that some empty
/// match of it achieves (`1 << set`).
const EMPTY_FREE: u8 = 1 << 0;
const AT_BOS: u8 = 1 << 1;
const AT_EOS: u8 = 1 << 2;
const AT_BOTH: u8 = 1 << 3;

/// The crossing sets of an empty path through `a` then `b`.
fn compose(a: u8, b: u8) -> u8 {
    let mut out = 0;
    for i in 0..4 {
        for j in 0..4 {
            if (a >> i) & (b >> j) & 1 != 0 {
                out |= 1 << (i | j);
            }
        }
    }
    out
}

/// What a position consumes: one `char`.
#[derive(Debug, Clone)]
enum Leaf {
    Char(char),
    Any,
    Class(Class),
}

impl Leaf {
    fn accepts(&self, c: char) -> bool {
        match self {
            Leaf::Char(l) => *l == c,
            Leaf::Any => true,
            Leaf::Class(class) => class.contains(c),
        }
    }
}

/// A sub-pattern's Glushkov sets. A path that crosses `^` after a
/// consumed char, or `$` before one, can never match, so only the
/// crossings at a fragment's ends are kept.
struct Frag {
    empty: u8,
    /// Positions that can consume a fragment's first char …
    first: Vec<u64>,
    /// … and those that can only after a `^` (at the text's start).
    first_bos: Vec<u64>,
    /// Positions that can consume its last char …
    last: Vec<u64>,
    /// … and those that can only before a `$` (at the text's end).
    last_eos: Vec<u64>,
}

/// The position automaton under construction.
struct Glushkov {
    words: usize,
    leaves: Vec<Leaf>,
    /// `follow[p]`: the positions that can consume the char after `p`'s
    /// (`words` words each).
    follow: Vec<u64>,
}

impl Glushkov {
    fn frag(&self, empty: u8) -> Frag {
        let set = vec![0; self.words];
        Frag {
            empty,
            first: set.clone(),
            first_bos: set.clone(),
            last: set.clone(),
            last_eos: set,
        }
    }

    fn leaf(&mut self, leaf: Leaf) -> Frag {
        let p = self.leaves.len();
        self.leaves.push(leaf);
        let mut f = self.frag(0);
        insert(&mut f.first, p);
        insert(&mut f.last, p);
        f
    }

    fn alt(&mut self, alt: &Alt) -> Frag {
        let mut out = self.frag(0);
        for seq in alt {
            let f = self.seq(seq);
            out.empty |= f.empty;
            or(&mut out.first, &f.first);
            or(&mut out.first_bos, &f.first_bos);
            or(&mut out.last, &f.last);
            or(&mut out.last_eos, &f.last_eos);
        }
        out
    }

    fn seq(&mut self, seq: &Seq) -> Frag {
        let mut acc = self.frag(EMPTY_FREE);
        for piece in seq {
            let f = self.piece(piece);
            acc = self.concat(acc, f);
        }
        acc
    }

    /// Unrolls `a{m,n}` to m copies and n - m nested optional ones
    /// (`a(a(a)?)?`), `a{m,}` to m - 1 copies and an `a+`.
    fn piece(&mut self, piece: &Piece) -> Frag {
        let mut acc = self.frag(EMPTY_FREE);
        let Some(max) = piece.max else {
            for _ in 1..piece.min {
                let f = self.atom(&piece.atom);
                acc = self.concat(acc, f);
            }
            let mut f = self.atom(&piece.atom);
            for p in ones(&f.last) {
                or(&mut self.follow[p * self.words..][..self.words], &f.first);
            }
            if piece.min == 0 {
                f.empty |= EMPTY_FREE;
            }
            return self.concat(acc, f);
        };
        for _ in 0..piece.min {
            let f = self.atom(&piece.atom);
            acc = self.concat(acc, f);
        }
        let mut tail: Option<Frag> = None;
        for _ in piece.min..max {
            let f = self.atom(&piece.atom);
            let mut t = match tail.take() {
                None => f,
                Some(t) => self.concat(f, t),
            };
            t.empty |= EMPTY_FREE;
            tail = Some(t);
        }
        match tail {
            Some(t) => self.concat(acc, t),
            None => acc,
        }
    }

    fn atom(&mut self, atom: &Atom) -> Frag {
        match atom {
            Atom::Char(c) => self.leaf(Leaf::Char(*c)),
            Atom::Any => self.leaf(Leaf::Any),
            Atom::Class(class) => self.leaf(Leaf::Class(class.clone())),
            Atom::Group(alt) => self.alt(alt),
            Atom::Start => self.frag(AT_BOS),
            Atom::End => self.frag(AT_EOS),
        }
    }

    fn concat(&mut self, a: Frag, b: Frag) -> Frag {
        let w = self.words;
        for p in ones(&a.last) {
            or(&mut self.follow[p * w..][..w], &b.first);
        }
        let (mut first, mut first_bos) = (a.first, a.first_bos);
        if a.empty & EMPTY_FREE != 0 {
            or(&mut first, &b.first);
            or(&mut first_bos, &b.first_bos);
        }
        if a.empty & AT_BOS != 0 {
            or(&mut first_bos, &b.first);
            or(&mut first_bos, &b.first_bos);
        }
        let (mut last, mut last_eos) = (b.last, b.last_eos);
        if b.empty & EMPTY_FREE != 0 {
            or(&mut last, &a.last);
            or(&mut last_eos, &a.last_eos);
        }
        if b.empty & AT_EOS != 0 {
            or(&mut last_eos, &a.last);
            or(&mut last_eos, &a.last_eos);
        }
        Frag {
            empty: compose(a.empty, b.empty),
            first,
            first_bos,
            last,
            last_eos,
        }
    }
}

/// A pattern's Glushkov automaton, run bit-parallel: the live positions
/// are one bit vector, and a char moves it with one table row per byte
/// of the vector, however many positions are live.
#[derive(Debug, Clone)]
struct Nfa {
    words: usize,
    leaves: Vec<Leaf>,
    /// Row `k * 256 + b`: the union of the follow sets of the positions
    /// that value `b` of byte `k` of a position set names — what can
    /// consume the next char (`words` words each).
    follow: Vec<u64>,
    /// Per ASCII byte, the positions that accept it (`words` words each).
    ascii: Vec<u64>,
    /// The positions that can consume a match's first char, and those
    /// that can at the text's start (past a `^` too).
    first: Vec<u64>,
    start: Vec<u64>,
    /// The positions that can consume a match's last char, and those
    /// that can at the text's end (before a `$` too).
    last: Vec<u64>,
    end: Vec<u64>,
    empty: u8,
}

impl Nfa {
    /// `n` bounds the positions `ast` unrolls to.
    fn new(ast: &Alt, n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        let mut g = Glushkov {
            words,
            leaves: Vec::with_capacity(n),
            follow: vec![0; n * words],
        };
        let root = g.alt(ast);
        let positions = g.leaves.len();
        // A row is the row of its value less the lowest bit, plus that
        // bit's position's follow set.
        let mut follow = vec![0; positions.div_ceil(8) * 256 * words];
        for row in 0..follow.len() / words {
            let b = row % 256;
            let p = (row - b) / 32 + b.trailing_zeros() as usize;
            if b == 0 || p >= positions {
                continue;
            }
            let (done, rest) = follow.split_at_mut(row * words);
            let out = &mut rest[..words];
            out.copy_from_slice(&done[(row - b + (b & (b - 1))) * words..][..words]);
            or(out, &g.follow[p * words..][..words]);
        }
        let (mut start, mut end) = (root.first.clone(), root.last.clone());
        or(&mut start, &root.first_bos);
        or(&mut end, &root.last_eos);
        let mut ascii = vec![0; 128 * words];
        for (b, row) in ascii.chunks_mut(words).enumerate() {
            for (p, leaf) in g.leaves.iter().enumerate() {
                if leaf.accepts(char::from(b as u8)) {
                    insert(row, p);
                }
            }
        }
        Nfa {
            words,
            leaves: g.leaves,
            follow,
            ascii,
            start,
            first: root.first,
            last: root.last,
            end,
            empty: root.empty,
        }
    }

    /// Unanchored search: does a match end anywhere in `text`?
    fn search(&self, text: &str) -> bool {
        match self.words {
            1 => self.search_in::<1>(text),
            2 => self.search_in::<2>(text),
            3 => self.search_in::<3>(text),
            _ => self.search_in::<MAX_WORDS>(text),
        }
    }

    fn full_match(&self, text: &str) -> bool {
        match self.words {
            1 => self.full_match_in::<1>(text),
            2 => self.full_match_in::<2>(text),
            3 => self.full_match_in::<3>(text),
            _ => self.full_match_in::<MAX_WORDS>(text),
        }
    }

    /// The positions that consume `c` after one of `from`'s or, starting
    /// a match at `c`, one of `seed`'s. `W` is `self.words`.
    fn step<const W: usize>(&self, from: &[u64; W], c: char, seed: &[u64; W]) -> [u64; W] {
        let mut next = *seed;
        for (k, rows) in self.follow.chunks_exact(256 * W).enumerate() {
            let b = usize::from((from[k / 8] >> (k % 8 * 8)) as u8);
            or(&mut next, &rows[b * W..][..W]);
        }
        if c.is_ascii() {
            and(&mut next, &self.ascii[c as usize * W..][..W]);
        } else {
            for (i, word) in next.iter_mut().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    if !self.leaves[i * 64 + b as usize].accepts(c) {
                        *word &= !(1 << b);
                    }
                }
            }
        }
        note_steps(self.follow.len() / 256 + W);
        next
    }

    fn search_in<const W: usize>(&self, text: &str) -> bool {
        let [first, start, last]: [[u64; W]; 3] =
            [array(&self.first), array(&self.start), array(&self.last)];
        let anchored = is_empty(&first);
        let mut state = [0; W];
        for (i, c) in text.char_indices() {
            state = self.step(&state, c, if i == 0 { &start } else { &first });
            if intersects(&state, &last) {
                return true;
            }
            // An anchored pattern past its start: nothing is live or can be.
            if anchored && is_empty(&state) {
                return false;
            }
        }
        intersects(&state, &self.end)
    }

    fn full_match_in<const W: usize>(&self, text: &str) -> bool {
        if text.is_empty() {
            return self.empty != 0;
        }
        let (start, none) = (array(&self.start), [0; W]);
        let mut state = [0; W];
        for (i, c) in text.char_indices() {
            state = self.step(&state, c, if i == 0 { &start } else { &none });
            if is_empty(&state) {
                return false;
            }
        }
        intersects(&state, &self.end)
    }
}

// ------------------------------------------------------------ sampling

const PRINTABLE: (char, char) = ('!', '~');

fn sample_alt(alt: &Alt, rnd: &mut dyn FnMut(u64) -> u64, out: &mut String) {
    let branch = rnd(alt.len() as u64) as usize;
    for piece in &alt[branch] {
        let spread = match piece.max {
            Some(max) => max - piece.min + 1,
            None => 9, // min..=min+8
        };
        let count = piece.min + rnd(spread as u64) as u32;
        for _ in 0..count {
            sample_atom(&piece.atom, rnd, out);
        }
    }
}

fn sample_atom(atom: &Atom, rnd: &mut dyn FnMut(u64) -> u64, out: &mut String) {
    match atom {
        Atom::Char(c) => out.push(*c),
        Atom::Any => {
            let (lo, hi) = PRINTABLE;
            out.push(
                char::from_u32(lo as u32 + rnd((hi as u64) - (lo as u64) + 1) as u32)
                    .expect("printable ascii"),
            );
        }
        Atom::Class(class) if !class.negated => {
            let total: u64 = class
                .ranges
                .iter()
                .map(|&(lo, hi)| (hi as u64) - (lo as u64) + 1)
                .sum();
            let mut target = rnd(total);
            for &(lo, hi) in &class.ranges {
                let size = (hi as u64) - (lo as u64) + 1;
                if target < size {
                    out.push(char::from_u32(lo as u32 + target as u32).expect("valid char"));
                    return;
                }
                target -= size;
            }
            unreachable!("target bounded by total");
        }
        Atom::Class(class) => {
            // Negated class: rejection-sample from printable ASCII.
            let (lo, hi) = PRINTABLE;
            for _ in 0..64 {
                let c = char::from_u32(lo as u32 + rnd((hi as u64) - (lo as u64) + 1) as u32)
                    .expect("printable ascii");
                if class.contains(c) {
                    out.push(c);
                    return;
                }
            }
            out.push(' '); // pathological class; give up gracefully
        }
        Atom::Group(alt) => sample_alt(alt, rnd, out),
        Atom::Start | Atom::End => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proptest::data::DataSource;
    use crate::proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Words of follow rows read on this thread: per char, one row
        /// per byte of the live-position vector and one for the seed.
        pub(super) static STEPS: Cell<u64> = const { Cell::new(0) };
    }

    fn re(p: &str) -> Regex {
        Regex::new(p).unwrap()
    }

    /// `(result, steps)` of `f`.
    fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = STEPS.with(Cell::get);
        let out = f();
        (out, STEPS.with(Cell::get) - before)
    }

    /// The continuation-passing backtracker the automaton replaced: the
    /// definition of what a pattern matches. Exponential on nested
    /// quantifiers and recursive in the text's length, so only short
    /// texts go through it.
    mod oracle {
        use super::super::{Alt, Atom, Piece, Regex, Seq};

        /// Unanchored search: does any substring of `text` match?
        pub fn is_match(re: &Regex, text: &str) -> bool {
            let chars: Vec<char> = text.chars().collect();
            (0..=chars.len()).any(|start| m_alt(&re.ast, &chars, start, &mut |_| true))
        }

        /// Anchored whole-string match.
        pub fn is_full_match(re: &Regex, text: &str) -> bool {
            let chars: Vec<char> = text.chars().collect();
            m_alt(&re.ast, &chars, 0, &mut |pos| pos == chars.len())
        }

        /// Matches one alternation at `pos`; `k` is the continuation
        /// applied to the position after the match.
        fn m_alt(alt: &Alt, chars: &[char], pos: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
            alt.iter().any(|seq| m_seq(seq, 0, chars, pos, k))
        }

        fn m_seq(
            seq: &Seq,
            idx: usize,
            chars: &[char],
            pos: usize,
            k: &mut dyn FnMut(usize) -> bool,
        ) -> bool {
            match seq.get(idx) {
                None => k(pos),
                Some(piece) => m_piece(piece, 0, chars, pos, &mut |p| {
                    m_seq(seq, idx + 1, chars, p, k)
                }),
            }
        }

        /// Matches `piece` having already consumed `count` repetitions.
        fn m_piece(
            piece: &Piece,
            count: u32,
            chars: &[char],
            pos: usize,
            k: &mut dyn FnMut(usize) -> bool,
        ) -> bool {
            let can_repeat = piece.max.is_none_or(|m| count < m);
            let satisfied = count >= piece.min;
            let try_one_more = |k2: &mut dyn FnMut(usize) -> bool| -> bool {
                m_atom(&piece.atom, chars, pos, &mut |p| {
                    // Progress guard: an unbounded repetition of an atom
                    // that can match empty (e.g. `(a?)*`) must not loop
                    // forever.
                    if p == pos && piece.max.is_none() && count >= piece.min {
                        return false;
                    }
                    m_piece(piece, count + 1, chars, p, k2)
                })
            };
            // The branches differ only in evaluation order, and that
            // order IS the backtracking semantics: lazy tries the shortest
            // match (continue first), greedy consumes more first. Clippy
            // sees commutative `||` here.
            #[allow(clippy::if_same_then_else)]
            if piece.lazy {
                (satisfied && k(pos)) || (can_repeat && try_one_more(k))
            } else {
                (can_repeat && try_one_more(k)) || (satisfied && k(pos))
            }
        }

        fn m_atom(
            atom: &Atom,
            chars: &[char],
            pos: usize,
            k: &mut dyn FnMut(usize) -> bool,
        ) -> bool {
            match atom {
                Atom::Char(c) => chars.get(pos) == Some(c) && k(pos + 1),
                Atom::Any => pos < chars.len() && k(pos + 1),
                Atom::Class(class) => {
                    chars.get(pos).is_some_and(|&c| class.contains(c)) && k(pos + 1)
                }
                Atom::Group(alt) => m_alt(alt, chars, pos, k),
                Atom::Start => pos == 0 && k(pos),
                Atom::End => pos == chars.len() && k(pos),
            }
        }
    }

    #[test]
    fn literal_substring_search() {
        // The dominant filter-language use: `tls.sni ~ 'netflix'`.
        let r = re("netflix");
        assert!(r.is_match("video.netflix.com"));
        assert!(r.is_match("netflix"));
        assert!(!r.is_match("example.com"));
        assert!(!r.is_match(""));
    }

    #[test]
    fn escaped_dot_and_anchor() {
        // `tls.sni ~ '\.com$'` from the filter test suite.
        let r = re(r"\.com$");
        assert!(r.is_match("example.com"));
        assert!(!r.is_match("example.com.evil.net"));
        assert!(!r.is_match("examplecom"));
    }

    #[test]
    fn optional_group_lazy_plus() {
        // The ablations binary's CDN matcher:
        // `tls.sni ~ '(.+?\.)?nflxvideo\.net'`.
        let r = re(r"(.+?\.)?nflxvideo\.net");
        assert!(r.is_match("nflxvideo.net"));
        assert!(r.is_match("edge-7.nflxvideo.net"));
        assert!(r.is_match("a.b.nflxvideo.net"));
        assert!(!r.is_match("nflxvideoXnet"));
        assert!(!r.is_match("netflix.com"));
    }

    #[test]
    fn alternation_and_groups() {
        let r = re("(foo|bar)+baz");
        assert!(r.is_match("xfoobarbaz"));
        assert!(r.is_match("barbaz"));
        assert!(!r.is_match("baz"));
    }

    #[test]
    fn char_classes() {
        let r = re("[a-z][0-9]{2,3}");
        assert!(r.is_match("x42"));
        assert!(r.is_match("abc123"));
        assert!(!r.is_match("X42X"));
        assert!(!r.is_match("a4"));
        let neg = re("[^0-9]+");
        assert!(neg.is_match("abc"));
        assert!(!neg.is_match("123"));
    }

    #[test]
    fn caret_anchor() {
        let r = re("^GET ");
        assert!(r.is_match("GET / HTTP/1.1"));
        assert!(!r.is_match("TARGET / HTTP/1.1"));
    }

    #[test]
    fn perl_classes() {
        assert!(re(r"\d+").is_match("port 443"));
        assert!(!re(r"\d").is_match("no digits"));
        assert!(re(r"\w+\s\w+").is_match("hello world"));
    }

    #[test]
    fn invalid_patterns_rejected() {
        // The exact invalid patterns the filter tests feed in.
        assert!(Regex::new("[bad").is_err());
        assert!(Regex::new("[unclosed").is_err());
        assert!(Regex::new("(open").is_err());
        assert!(Regex::new("*x").is_err());
        assert!(Regex::new("a{3,1}").is_err());
        assert!(Regex::new("a)b").is_err());
        assert!(Regex::new("(?=look)").is_err());
    }

    #[test]
    fn lazy_vs_greedy_equivalent_for_is_match() {
        for (pat, text, expect) in [
            ("a.*b", "axxb", true),
            ("a.*?b", "axxb", true),
            ("a+?", "aaa", true),
            ("x??y", "y", true),
        ] {
            assert_eq!(re(pat).is_match(text), expect, "{pat} vs {text}");
        }
    }

    #[test]
    fn repetition_forms() {
        assert!(re("a{3}").is_match("aaa"));
        assert!(!re("^a{3}$").is_full_match("aa"));
        assert!(re("a{2,}").is_match("aa"));
        assert!(!re("^a{2,}$").is_full_match("a"));
        assert!(re("^a{1,2}$").is_full_match("aa"));
        assert!(!re("^a{1,2}$").is_full_match("aaa"));
    }

    #[test]
    fn empty_repetition_terminates() {
        // Must not hang on nested empty-matching repetition.
        assert!(re("(a?)*b").is_match("b"));
        assert!(!re("(a?)*c").is_match("b"));
    }

    #[test]
    fn samples_match_their_own_pattern() {
        // Sampling via a deterministic pseudo-random draw must produce
        // strings the matcher accepts — for the exact string-strategy
        // patterns used in the workspace's property tests.
        let mut state = 0x5EED_u64;
        let mut rnd = move |bound: u64| crate::rand::splitmix64(&mut state) % bound.max(1);
        for pat in [
            "[a-z][a-z0-9.*$-]{0,12}",
            "[a-z][a-z0-9_]{0,8}",
            r"(.+?\.)?nflxvideo\.net",
            "(foo|bar)+",
            r"\d{1,4}",
        ] {
            let r = re(pat);
            for _ in 0..200 {
                let s = r.sample(&mut rnd);
                assert!(
                    r.is_full_match(&s),
                    "sample {s:?} does not match its pattern {pat:?}"
                );
            }
        }
    }

    #[test]
    fn class_metachars_are_literal() {
        // `.`, `*`, `$` inside a class are plain characters; trailing `-`
        // is literal.
        let r = re("^[a-z0-9.*$-]+$");
        assert!(r.is_full_match("a.b*c$d-e"));
        assert!(!r.is_full_match("a_b"));
    }

    #[test]
    fn patterns_past_the_position_cap_are_rejected() {
        for pat in [
            "a{100000}",
            "a{4294967295}",
            "(ab){129}",
            "a{257}",
            "(a{100}){3}",
            // Groups that consume nothing still cost a copy each.
            "(){4294967295}",
            "(?:a{0}){4294967295}",
            "((?:){65535}){65535}",
            "(^){300}",
        ] {
            let err = Regex::new(pat).unwrap_err().to_string();
            assert!(err.contains("cap of 256"), "{pat}: {err}");
            assert_eq!(Regex::check(pat).map_err(|e| e.to_string()), Err(err));
        }
        // At the cap, a pattern compiles.
        for (pat, text) in [
            ("a{256}", "a".repeat(256)),
            ("(ab){128}", "ab".repeat(128)),
            ("a{0,255}b", format!("{}b", "a".repeat(300))),
            ("a{5,}", "a".repeat(5)),
            ("(){255}a", "aa".to_string()),
        ] {
            Regex::check(pat).unwrap();
            let r = re(pat);
            assert!(r.is_match(&text), "{pat}");
            assert!(!r.is_match(&text[1..text.len() - 1]), "{pat}");
        }
    }

    #[test]
    fn sampling_needs_no_automaton() {
        // String strategies parse only: no cap, no tables.
        let mut rnd = |bound: u64| bound - 1;
        assert_eq!(sample("a{1000}b?", &mut rnd).unwrap().len(), 1001);
        assert!(sample("(open", &mut rnd).is_err());
    }

    #[test]
    fn a_4k_text_reads_a_bounded_number_of_rows_per_char() {
        // The backtracker took quadratic time on the second and third
        // and exponential time on `(a+)+$` (here: no match, a trailing
        // `!`). Each char reads one follow row per byte of the live-
        // position vector and one for the seed, so the cost per char is
        // set by the pattern's size, not by how many positions are live:
        // `a{255}b` keeps 255 of them live.
        let text = format!("{}!", "a".repeat(4095));
        for (pat, rows_per_char) in [
            (r"(a+)+$", 2),
            (r"(.+?\.)?nflxvideo\.net", 3),
            (r".*x", 2),
            (r"a{255}b", 33),
        ] {
            let r = re(pat);
            let words = r.nfa.words as u64;
            assert_eq!(1 + r.nfa.leaves.len().div_ceil(8) as u64, rows_per_char);
            let (found, steps) = counted(|| r.is_match(&text));
            assert!(!found, "{pat}");
            assert!(
                steps <= text.len() as u64 * words * rows_per_char,
                "{pat}: {steps} steps over {} bytes",
                text.len()
            );
        }
    }

    /// Random patterns over the supported subset: literals (one of them
    /// non-ASCII), `.`, classes, escapes, anchors, groups, alternation
    /// and every quantifier form, greedy and lazy, nested two deep.
    /// Smaller draws give simpler patterns.
    #[derive(Clone)]
    struct Patterns;

    impl Strategy for Patterns {
        type Value = String;
        fn generate(&self, ds: &mut DataSource) -> String {
            let mut out = String::new();
            gen_alt(ds, 2, &mut out);
            out
        }
    }

    fn gen_alt(ds: &mut DataSource, depth: u32, out: &mut String) {
        for i in 0..=ds.draw_below(3) {
            if i > 0 {
                out.push('|');
            }
            for _ in 0..ds.draw_below(4) {
                gen_piece(ds, depth, out);
            }
        }
    }

    fn gen_piece(ds: &mut DataSource, depth: u32, out: &mut String) {
        const LEAVES: &[&str] = &[
            "a",
            "b",
            ".",
            "\u{e9}",
            "[ab]",
            "[^a]",
            r"\d",
            r"\.",
            "[\u{e0}-\u{ff}]",
            r"\W",
            "[a-c.]",
            r"\s",
        ];
        let pick = ds.draw_below(LEAVES.len() as u64 + 4) as usize;
        match pick.checked_sub(LEAVES.len()) {
            None => out.push_str(LEAVES[pick]),
            Some(0) => return out.push('^'),
            Some(1) => return out.push('$'),
            Some(_) if depth == 0 => out.push('a'),
            Some(k) => {
                out.push_str(if k == 2 { "(" } else { "(?:" });
                gen_alt(ds, depth - 1, out);
                out.push(')');
            }
        }
        let quantifier = match ds.draw_below(10) {
            0..=4 => return,
            5 => "*".to_string(),
            6 => "+".to_string(),
            7 => "?".to_string(),
            8 => format!("{{{}}}", ds.draw_below(3)),
            _ => {
                let min = ds.draw_below(3);
                match ds.draw_below(2) {
                    0 => format!("{{{min},}}"),
                    _ => format!("{{{min},{}}}", min + ds.draw_below(3)),
                }
            }
        };
        out.push_str(&quantifier);
        if ds.draw_below(2) == 1 {
            out.push('?');
        }
    }

    /// Short texts over an alphabet that exercises every leaf: ASCII, two-
    /// byte Latin-1 chars (what DNS's decoding produces), one three-byte
    /// char.
    fn texts() -> impl Strategy<Value = Vec<String>> {
        const ALPHABET: &[char] = &[
            'a', 'b', 'c', '.', '1', ' ', '_', '\u{e0}', '\u{e9}', '\u{ff}', '\u{80}', '\u{2713}',
        ];
        let text = collection::vec(0..ALPHABET.len(), 0..9)
            .prop_map(|idx| idx.into_iter().map(|i| ALPHABET[i]).collect::<String>());
        collection::vec(text, 1..6)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The automaton accepts exactly what the backtracker accepts.
        #[test]
        fn automaton_matches_the_backtracker(pattern in Patterns, texts in texts()) {
            let r = Regex::new(&pattern)
                .unwrap_or_else(|e| panic!("generated pattern {pattern:?}: {e}"));
            let adversarial = ["aaaaaaaa", "a.a.\u{e9}", "\u{e9}\u{e9}\u{e9}", "ab1ab1."];
            for text in texts.iter().map(String::as_str).chain(adversarial) {
                let search = oracle::is_match(&r, text);
                prop_assert_eq!(r.is_match(text), search, "{:?} ~ {:?}", pattern, text);
                let full = oracle::is_full_match(&r, text);
                prop_assert_eq!(r.is_full_match(text), full, "{:?} full {:?}", pattern, text);
            }
        }
    }
}
