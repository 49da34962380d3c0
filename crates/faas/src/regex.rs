//! A small regular-expression engine (Thompson NFA construction, breadth-
//! first simulation — no backtracking, linear time).
//!
//! The paper's "regular expression filtering of URLs" FaaS workload (§6.4.3)
//! needs a real matcher; the offline crate policy excludes the `regex`
//! crate, so this is a from-scratch engine supporting the subset URL
//! filters use: literals, `.`, `*`, `+`, `?`, character classes
//! (`[a-z0-9-]`, negated `[^/]`), alternation `|`, grouping `(...)` and
//! anchors `^`/`$`.
//!
//! [`Dfa`] memoizes the NFA simulation's per-byte step, work count and
//! all, for callers that match many inputs against one pattern.

use std::collections::HashMap;

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    prog: Vec<Inst>,
    anchored_start: bool,
}

/// Compilation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError {
    /// Byte position in the pattern.
    pub pos: usize,
    /// Description.
    pub msg: String,
}

impl core::fmt::Display for RegexError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "regex error at {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for RegexError {}

#[derive(Debug, Clone)]
enum Inst {
    /// Match one byte against a class.
    Byte(ByteClass),
    /// Unconditional jump.
    Jmp(usize),
    /// Fork execution (both targets).
    Split(usize, usize),
    /// Accept.
    Match,
    /// End-of-input anchor.
    EndAnchor,
}

#[derive(Debug, Clone)]
enum ByteClass {
    Literal(u8),
    Any,
    /// Sorted inclusive ranges; `negated` flips the sense.
    Ranges { ranges: Vec<(u8, u8)>, negated: bool },
}

impl ByteClass {
    fn matches(&self, b: u8) -> bool {
        match self {
            ByteClass::Literal(l) => b == *l,
            ByteClass::Any => true,
            ByteClass::Ranges { ranges, negated } => {
                let inside = ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&b));
                inside != *negated
            }
        }
    }
}

// ---- parser: pattern → AST ----

#[derive(Debug, Clone)]
enum Ast {
    Empty,
    Class(ByteClass),
    Concat(Vec<Ast>),
    Alt(Box<Ast>, Box<Ast>),
    Star(Box<Ast>),
    Plus(Box<Ast>),
    Quest(Box<Ast>),
    EndAnchor,
}

struct Parser<'a> {
    pat: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> RegexError {
        RegexError { pos: self.pos, msg: msg.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.pat.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn parse_alt(&mut self) -> Result<Ast, RegexError> {
        let mut lhs = self.parse_concat()?;
        while self.peek() == Some(b'|') {
            self.bump();
            let rhs = self.parse_concat()?;
            lhs = Ast::Alt(lhs.into(), rhs.into());
        }
        Ok(lhs)
    }

    fn parse_concat(&mut self) -> Result<Ast, RegexError> {
        let mut items = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            items.push(self.parse_repeat()?);
        }
        Ok(match items.len() {
            0 => Ast::Empty,
            1 => items.pop().expect("len checked"),
            _ => Ast::Concat(items),
        })
    }

    fn parse_repeat(&mut self) -> Result<Ast, RegexError> {
        let atom = self.parse_atom()?;
        Ok(match self.peek() {
            Some(b'*') => {
                self.bump();
                Ast::Star(atom.into())
            }
            Some(b'+') => {
                self.bump();
                Ast::Plus(atom.into())
            }
            Some(b'?') => {
                self.bump();
                Ast::Quest(atom.into())
            }
            _ => atom,
        })
    }

    fn parse_atom(&mut self) -> Result<Ast, RegexError> {
        match self.bump().ok_or_else(|| self.err("unexpected end of pattern"))? {
            b'(' => {
                let inner = self.parse_alt()?;
                if self.bump() != Some(b')') {
                    return Err(self.err("unclosed group"));
                }
                Ok(inner)
            }
            b'[' => self.parse_class(),
            b'.' => Ok(Ast::Class(ByteClass::Any)),
            b'$' => Ok(Ast::EndAnchor),
            b'\\' => {
                let c = self.bump().ok_or_else(|| self.err("dangling escape"))?;
                Ok(Ast::Class(match c {
                    b'd' => ByteClass::Ranges { ranges: vec![(b'0', b'9')], negated: false },
                    b'w' => ByteClass::Ranges {
                        ranges: vec![(b'a', b'z'), (b'A', b'Z'), (b'0', b'9'), (b'_', b'_')],
                        negated: false,
                    },
                    other => ByteClass::Literal(other),
                }))
            }
            b'*' | b'+' | b'?' => Err(self.err("repetition with nothing to repeat")),
            lit => Ok(Ast::Class(ByteClass::Literal(lit))),
        }
    }

    fn parse_class(&mut self) -> Result<Ast, RegexError> {
        let negated = if self.peek() == Some(b'^') {
            self.bump();
            true
        } else {
            false
        };
        let mut ranges = Vec::new();
        loop {
            let b = self.bump().ok_or_else(|| self.err("unclosed character class"))?;
            if b == b']' {
                break;
            }
            let lo = if b == b'\\' {
                self.bump().ok_or_else(|| self.err("dangling escape in class"))?
            } else {
                b
            };
            if self.peek() == Some(b'-') && self.pat.get(self.pos + 1) != Some(&b']') {
                self.bump();
                let hi = self.bump().ok_or_else(|| self.err("unclosed range"))?;
                if hi < lo {
                    return Err(self.err("inverted range"));
                }
                ranges.push((lo, hi));
            } else {
                ranges.push((lo, lo));
            }
        }
        Ok(Ast::Class(ByteClass::Ranges { ranges, negated }))
    }
}

// ---- compiler: AST → NFA program ----

fn emit(ast: &Ast, prog: &mut Vec<Inst>) {
    match ast {
        Ast::Empty => {}
        Ast::Class(c) => prog.push(Inst::Byte(c.clone())),
        Ast::Concat(items) => {
            for i in items {
                emit(i, prog);
            }
        }
        Ast::Alt(a, b) => {
            let split = prog.len();
            prog.push(Inst::Jmp(0)); // placeholder → Split
            emit(a, prog);
            let jmp = prog.len();
            prog.push(Inst::Jmp(0)); // placeholder → end
            let b_start = prog.len();
            emit(b, prog);
            let end = prog.len();
            prog[split] = Inst::Split(split + 1, b_start);
            prog[jmp] = Inst::Jmp(end);
        }
        Ast::Star(a) => {
            let split = prog.len();
            prog.push(Inst::Jmp(0));
            emit(a, prog);
            prog.push(Inst::Jmp(split));
            let end = prog.len();
            prog[split] = Inst::Split(split + 1, end);
        }
        Ast::Plus(a) => {
            let start = prog.len();
            emit(a, prog);
            let split = prog.len();
            prog.push(Inst::Split(start, split + 1));
        }
        Ast::Quest(a) => {
            let split = prog.len();
            prog.push(Inst::Jmp(0));
            emit(a, prog);
            let end = prog.len();
            prog[split] = Inst::Split(split + 1, end);
        }
        Ast::EndAnchor => prog.push(Inst::EndAnchor),
    }
}

impl Regex {
    /// Compiles `pattern`.
    pub fn new(pattern: &str) -> Result<Regex, RegexError> {
        let anchored_start = pattern.starts_with('^');
        let body = if anchored_start { &pattern[1..] } else { pattern };
        let mut p = Parser { pat: body.as_bytes(), pos: 0 };
        let ast = p.parse_alt()?;
        if p.pos != body.len() {
            return Err(p.err("unbalanced ')'"));
        }
        let mut prog = Vec::new();
        emit(&ast, &mut prog);
        prog.push(Inst::Match);
        Ok(Regex { prog, anchored_start })
    }

    /// Whether the pattern matches anywhere in `input` (or from the start
    /// if `^`-anchored). Also returns the number of NFA state-steps
    /// executed — the work metric the FaaS simulation converts to cycles.
    ///
    /// Unanchored search is single-pass: the start state is re-injected at
    /// every position (an implicit leading `.*`), so matching is linear in
    /// `input.len() × pattern states` with no restarts.
    pub fn is_match_counted(&self, input: &str) -> (bool, u64) {
        let bytes = input.as_bytes();
        let n = self.prog.len();
        let mut cur = vec![false; n];
        let mut next = vec![false; n];
        let mut stack = Vec::new();
        let mut work = self.start(bytes.is_empty(), &mut cur, &mut stack);
        for (i, &b) in bytes.iter().enumerate() {
            if self.accepts(&cur) {
                return (true, work);
            }
            work += self.step(&cur, b, i + 1 == bytes.len(), &mut next, &mut stack);
            std::mem::swap(&mut cur, &mut next);
        }
        (self.accepts(&cur), work)
    }

    /// Whether the pattern matches.
    pub fn is_match(&self, input: &str) -> bool {
        self.is_match_counted(input).0
    }

    /// Fills `set` (all clear) with the start state's ε-closure; `at_end`
    /// says whether the input is empty. Returns the state-steps it cost.
    fn start(&self, at_end: bool, set: &mut [bool], stack: &mut Vec<usize>) -> u64 {
        let mut work = 0;
        add_state(&self.prog, set, stack, 0, at_end, &mut work);
        work
    }

    /// One byte of the breadth-first simulation: every live state of `cur`
    /// consumes `b` into `next` (cleared first), with `at_end_after`
    /// telling `$` whether `b` is the input's last byte. Returns the
    /// state-steps it executed. This is the only definition of a step and
    /// its count: [`Regex::is_match_counted`] runs it byte by byte and
    /// [`Dfa`] memoizes it.
    fn step(
        &self,
        cur: &[bool],
        b: u8,
        at_end_after: bool,
        next: &mut [bool],
        stack: &mut Vec<usize>,
    ) -> u64 {
        next.fill(false);
        let mut work = 0u64;
        for (pc, &live) in cur.iter().enumerate() {
            if !live {
                continue;
            }
            work += 1;
            if let Inst::Byte(c) = &self.prog[pc] {
                if c.matches(b) {
                    add_state(&self.prog, next, stack, pc + 1, at_end_after, &mut work);
                }
            }
        }
        if !self.anchored_start {
            // Implicit `.*` prefix: a match may start at the next byte.
            add_state(&self.prog, next, stack, 0, at_end_after, &mut work);
        }
        work
    }

    /// Whether `set` holds the live `Match` state.
    fn accepts(&self, set: &[bool]) -> bool {
        set[self.prog.len() - 1]
    }
}

/// A transition slot not built yet.
const UNBUILT: u32 = u32::MAX;

/// A lazily built counting DFA over one [`Regex`]. A DFA state is an NFA
/// state set; a transition memoizes one [`Regex::step`], keyed by (state
/// set, byte, whether the byte is the input's last), together with the
/// state-steps that step cost. [`Dfa::is_match_counted`] therefore returns
/// the NFA simulation's match bit *and* work count, at one table lookup per
/// byte once the transitions an input meets are built. The tables grow
/// with the distinct sets inputs reach — a few dozen for URL filters — and
/// belong to one caller; matching needs `&mut self`.
#[derive(Debug)]
pub struct Dfa {
    re: Regex,
    /// State id → its NFA state set.
    sets: Vec<Box<[bool]>>,
    ids: HashMap<Box<[bool]>, u32>,
    /// Whether each state holds the live `Match`.
    accepting: Vec<bool>,
    /// `trans[state][at_end << 8 | byte]` = (next state, state-steps), or
    /// ([`UNBUILT`], 0).
    trans: Vec<Box<[(u32, u32)]>>,
    /// Start state and its closure steps, indexed by "input is empty".
    start: [Option<(u32, u64)>; 2],
    stack: Vec<usize>,
}

impl Dfa {
    /// An empty DFA over `re`; states are built as inputs reach them.
    pub fn new(re: Regex) -> Dfa {
        Dfa {
            re,
            sets: Vec::new(),
            ids: HashMap::new(),
            accepting: Vec::new(),
            trans: Vec::new(),
            start: [None; 2],
            stack: Vec::new(),
        }
    }

    /// Exactly [`Regex::is_match_counted`] on the wrapped regex: the same
    /// early return on a live `Match` before each byte, the same steps.
    pub fn is_match_counted(&mut self, input: &str) -> (bool, u64) {
        let bytes = input.as_bytes();
        let (mut s, mut work) = self.start_state(bytes.is_empty());
        for (i, &b) in bytes.iter().enumerate() {
            if self.accepting[s as usize] {
                return (true, work);
            }
            let (next, w) = self.next(s, b, i + 1 == bytes.len());
            s = next;
            work += w;
        }
        (self.accepting[s as usize], work)
    }

    fn start_state(&mut self, at_end: bool) -> (u32, u64) {
        if let Some(hit) = self.start[usize::from(at_end)] {
            return hit;
        }
        let mut set = vec![false; self.re.prog.len()];
        let work = self.re.start(at_end, &mut set, &mut self.stack);
        let built = (self.intern(set.into()), work);
        self.start[usize::from(at_end)] = Some(built);
        built
    }

    fn next(&mut self, s: u32, b: u8, at_end: bool) -> (u32, u64) {
        let slot = usize::from(at_end) << 8 | usize::from(b);
        let (t, w) = self.trans[s as usize][slot];
        if t != UNBUILT {
            return (t, u64::from(w));
        }
        let mut next = vec![false; self.re.prog.len()];
        let work = self.re.step(&self.sets[s as usize], b, at_end, &mut next, &mut self.stack);
        let t = self.intern(next.into());
        let w = u32::try_from(work).expect("one step costs at most a few states²");
        self.trans[s as usize][slot] = (t, w);
        (t, work)
    }

    /// The id of `set`, adding a state with no built transitions if new.
    fn intern(&mut self, set: Box<[bool]>) -> u32 {
        if let Some(&id) = self.ids.get(&set) {
            return id;
        }
        let id = u32::try_from(self.sets.len()).expect("DFA state count fits u32");
        self.accepting.push(self.re.accepts(&set));
        self.trans.push(vec![(UNBUILT, 0); 512].into());
        self.ids.insert(set.clone(), id);
        self.sets.push(set);
        id
    }
}

/// ε-closure insertion.
fn add_state(
    prog: &[Inst],
    set: &mut [bool],
    stack: &mut Vec<usize>,
    pc: usize,
    at_end: bool,
    work: &mut u64,
) {
    stack.push(pc);
    while let Some(pc) = stack.pop() {
        if pc >= prog.len() || set[pc] {
            continue;
        }
        *work += 1;
        match &prog[pc] {
            Inst::Jmp(t) => stack.push(*t),
            Inst::Split(a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            Inst::EndAnchor => {
                if at_end {
                    stack.push(pc + 1);
                }
            }
            Inst::Byte(_) | Inst::Match => set[pc] = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, s: &str) -> bool {
        Regex::new(pat).unwrap().is_match(s)
    }

    #[test]
    fn literals_and_any() {
        assert!(m("abc", "xxabcxx"));
        assert!(!m("abc", "ab"));
        assert!(m("a.c", "abc"));
        assert!(m("a.c", "axc"));
        assert!(!m("a.c", "ac"));
    }

    #[test]
    fn anchors() {
        assert!(m("^abc", "abcdef"));
        assert!(!m("^abc", "xabc"));
        assert!(m("abc$", "xxabc"));
        assert!(!m("abc$", "abcx"));
        assert!(m("^abc$", "abc"));
        assert!(!m("^abc$", "abcd"));
    }

    #[test]
    fn repetition() {
        assert!(m("ab*c", "ac"));
        assert!(m("ab*c", "abbbc"));
        assert!(m("ab+c", "abc"));
        assert!(!m("ab+c", "ac"));
        assert!(m("ab?c", "ac"));
        assert!(m("ab?c", "abc"));
        assert!(!m("ab?c", "abbc"));
    }

    #[test]
    fn classes() {
        assert!(m("[a-z]+", "hello"));
        assert!(!m("^[a-z]+$", "Hello"));
        assert!(m("[^/]+", "segment"));
        assert!(!m("^[^/]+$", "a/b"));
        assert!(m("[a-z0-9-]+", "my-url-9"));
        assert!(m("\\d+", "route66"));
        assert!(m("\\w+", "under_score"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(m("cat|dog", "hotdog"));
        assert!(m("^(cat|dog)$", "cat"));
        assert!(!m("^(cat|dog)$", "cow"));
        assert!(m("^a(b|c)*d$", "abcbcd"));
        assert!(m("(ab)+", "ababab"));
    }

    #[test]
    fn url_filters() {
        // The kind of patterns an edge URL filter uses.
        let api = Regex::new("^/api/v[0-9]+/users/[0-9]+$").unwrap();
        assert!(api.is_match("/api/v2/users/12345"));
        assert!(!api.is_match("/api/v2/users/12345/edit"));
        assert!(!api.is_match("/apiv2/users/1"));

        let stat = Regex::new("\\.(css|js|png|jpg)$").unwrap();
        assert!(stat.is_match("/assets/app.js"));
        assert!(stat.is_match("/img/logo.png"));
        assert!(!stat.is_match("/assets/app.js.map"));
    }

    #[test]
    fn pathological_patterns_stay_linear() {
        // (a*)* style blowups are linear in a Thompson engine.
        let r = Regex::new("a*a*a*a*a*a*b").unwrap();
        let input = "a".repeat(200);
        let (matched, work) = r.is_match_counted(&input);
        assert!(!matched);
        assert!(work < 3_000_000, "NFA simulation must stay linear-ish: {work}");
    }

    #[test]
    fn errors() {
        assert!(Regex::new("(ab").is_err());
        assert!(Regex::new("[ab").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new("[z-a]").is_err());
    }

    /// Patterns with the inputs that exercise each construct: `^`, `$` on
    /// the last byte and before it, alternation, negated classes, empty
    /// input and empty patterns.
    const CASES: &[(&str, &[&str])] = &[
        ("abc", &["xxabcxx", "ab", "", "abc"]),
        ("a.c", &["abc", "axc", "ac"]),
        ("^abc", &["abcdef", "xabc", ""]),
        ("abc$", &["abcabc", "xxabc", "abcx", "abc", "abcab"]),
        ("^abc$", &["abc", "abcd", "", "xabc"]),
        ("ab*c", &["ac", "abbbc", "abx"]),
        ("ab+c", &["abc", "ac"]),
        ("ab?c", &["ac", "abc", "abbc"]),
        ("[^/]+", &["segment", "", "/", "//a"]),
        ("^[^/]+$", &["a/b", "ab", "", "/"]),
        ("[a-z0-9-]+", &["my-url-9", "/", "A"]),
        ("\\d+", &["route66", "x"]),
        ("cat|dog", &["hotdog", "cow", ""]),
        ("^(cat|dog)$", &["cat", "cow", "dog", "catdog"]),
        ("^a(b|c)*d$", &["abcbcd", "ad", "abx", "abcbcdd"]),
        ("(ab)+", &["ababab", "a", ""]),
        ("\\.(css|js|png|jpg)$", &["/assets/app.js", "/img/logo.png", "/app.js.map", ".js", "js"]),
        (
            "^/api/v[0-9]+/users/[0-9]+$",
            &["/api/v2/users/12345", "/api/v2/users/1/edit", "/apiv2/users/1"],
        ),
        ("a*a*a*b", &["aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "aab", "b"]),
        ("x$|y", &["ax", "xa", "ya", "", "x"]),
        ("$", &["", "x"]),
        ("", &["", "x"]),
    ];

    /// The first `(pattern, input)` on which a matcher built by `build`
    /// and run by `run` disagrees with the NFA, in match bit or work. Each
    /// pattern's matcher sees its inputs forwards and then backwards, so
    /// memoized transitions are reused across inputs.
    fn first_disagreement<M>(
        mut build: impl FnMut(Regex) -> M,
        run: impl Fn(&mut M, &str) -> (bool, u64),
    ) -> Option<String> {
        for &(pat, inputs) in CASES {
            let re = Regex::new(pat).unwrap();
            let mut m = build(re.clone());
            for input in inputs.iter().chain(inputs.iter().rev()) {
                let (want, got) = (re.is_match_counted(input), run(&mut m, input));
                if want != got {
                    return Some(format!("{pat:?} on {input:?}: nfa {want:?}, memo {got:?}"));
                }
            }
        }
        None
    }

    #[test]
    fn dfa_matches_and_counts_exactly_like_the_nfa() {
        assert_eq!(first_disagreement(Dfa::new, Dfa::is_match_counted), None);
    }

    /// A step memo keyed by (state set, byte) alone — without the at-end
    /// flag `$` depends on.
    struct AtEndBlind {
        re: Regex,
        memo: HashMap<(Vec<bool>, u8), (Vec<bool>, u64)>,
    }

    impl AtEndBlind {
        fn is_match_counted(&mut self, input: &str) -> (bool, u64) {
            let bytes = input.as_bytes();
            let mut stack = Vec::new();
            let mut cur = vec![false; self.re.prog.len()];
            let mut work = self.re.start(bytes.is_empty(), &mut cur, &mut stack);
            for (i, &b) in bytes.iter().enumerate() {
                if self.re.accepts(&cur) {
                    return (true, work);
                }
                let re = &self.re;
                let (next, w) = self.memo.entry((cur.clone(), b)).or_insert_with(|| {
                    let mut next = vec![false; re.prog.len()];
                    let w = re.step(&cur, b, i + 1 == bytes.len(), &mut next, &mut stack);
                    (next, w)
                });
                work += *w;
                cur = next.clone();
            }
            (self.re.accepts(&cur), work)
        }
    }

    #[test]
    fn a_memo_blind_to_the_input_end_is_caught() {
        let found = first_disagreement(
            |re| AtEndBlind { re, memo: HashMap::new() },
            AtEndBlind::is_match_counted,
        );
        assert!(found.is_some(), "the oracle must catch a memo keyed without the at-end flag");
    }

    #[test]
    fn work_counter_grows_with_input() {
        let r = Regex::new("[a-z]+@[a-z]+").unwrap();
        let (_, small) = r.is_match_counted("xx");
        let (_, big) = r.is_match_counted(&"x".repeat(500));
        assert!(big > small);
    }
}
