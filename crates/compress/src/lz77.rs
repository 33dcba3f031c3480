//! LZ77 match finding with a hash-chain index.
//!
//! The tokenizer works over the concatenation `dictionary || input`, so
//! matches may reach back into a shared static dictionary — this is how the
//! brotli profile gets its head start on certificate data.
//!
//! # The encoder's contract
//!
//! The container format has one encoder, and which matches it finds is part
//! of that format: every downstream size, ratio and digest is a function of
//! the exact token sequence. However the tables below are laid out, the
//! sequence is the one this procedure yields:
//!
//! * Positions `0..n` of `dict || input` are hashed four bytes at a time
//!   into `1 << HASH_BITS` buckets; a position with fewer than four bytes
//!   after it is never inserted. Each bucket is a chain, newest first.
//! * All dictionary positions are on their chains, in ascending order,
//!   before the first input byte is looked at. The last three hash across
//!   the dictionary/input boundary (and are left out when the input is too
//!   short to complete their four bytes), which is why the once-built
//!   `DictIndex` of the built-in dictionary stops at `pos + 4 <=
//!   dict.len()` and those three are inserted by every call.
//! * A search walks its chain newest first and visits at most
//!   `CHAIN_LIMIT` candidates; *every* visited candidate counts,
//!   including one skipped by the defensive `cand >= pos` test. A
//!   candidate further back than `window` ends the walk. A candidate
//!   replaces the best so far only when strictly longer, so among equal
//!   lengths the nearest wins; `MAX_MATCH` (or the end of input) ends the
//!   walk at once.
//! * A greedy profile emits the match and inserts every position it
//!   covers. The lazy profile inserts `pos`, searches `pos + 1`, and defers
//!   when that match is longer than `len + 1`: `pos` becomes a literal, the
//!   longer match is emitted — and the position it starts at is **never
//!   inserted** (insertion resumes one past it). That omission is as much a
//!   part of the format as the chain limit.
//!
//! What a call may keep from earlier calls is therefore nothing observable:
//! the per-thread `Scratch` keeps allocations and stale table entries,
//! the latter made unreadable by a position base that only moves forward.
//!
//! A position's bucket and chain head are read once, and that one read
//! serves both its search and its insertion: nothing is inserted between
//! the two. An empty chain returns before the walk is set up, which is
//! what most literals of key and signature bytes find.

use std::cell::RefCell;
use std::sync::OnceLock;

use crate::dict;

/// Tuning parameters of an LZ profile.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Maximum match distance in bytes.
    pub window: usize,
    /// Minimum match length worth emitting.
    pub min_match: usize,
    /// Whether to do one-step-lazy matching (try position+1 for a longer
    /// match before committing).
    pub lazy: bool,
}

/// Longest match the tokenizer will emit.
pub(crate) const MAX_MATCH: usize = 1 << 16;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes behind the
    /// current output position (may reach into the dictionary).
    Match {
        /// Match length (≥ the profile's `min_match`).
        len: usize,
        /// Backward distance (≥ 1).
        dist: usize,
    },
}

const HASH_BITS: u32 = 16;
const CHAIN_LIMIT: usize = 64;
/// "No position": the end of a hash chain.
const NIL: u32 = u32::MAX;

#[inline]
fn hash4(data: &[u8], pos: usize) -> usize {
    let b = &data[pos..pos + 4];
    let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, at most
/// `max_len`, compared a word at a time. The ranges may overlap.
#[inline]
fn common_prefix(data: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    let (x, y) = (&data[a..a + max_len], &data[b..b + max_len]);
    let (x_words, x_tail) = x.as_chunks::<8>();
    let (y_words, y_tail) = y.as_chunks::<8>();
    for (i, (xw, yw)) in x_words.iter().zip(y_words).enumerate() {
        let diff = u64::from_le_bytes(*xw) ^ u64::from_le_bytes(*yw);
        if diff != 0 {
            return i * 8 + (diff.trailing_zeros() / 8) as usize;
        }
    }
    let tail = x_tail.iter().zip(y_tail).take_while(|(p, q)| p == q);
    x_words.len() * 8 + tail.count()
}

/// The hash chains of a dictionary's own bytes: every position whose four
/// hashed bytes lie inside the dictionary, chained in ascending insertion
/// order. A call's chains continue into it where they run out.
struct DictIndex {
    /// Newest indexed position per bucket; empty for "no index".
    head: Vec<u32>,
    /// Next-older position on the chain of each indexed position.
    prev: Vec<u32>,
}

/// What a caller-supplied dictionary gets: all of its positions are
/// inserted by the call.
static NO_INDEX: DictIndex = DictIndex {
    head: Vec::new(),
    prev: Vec::new(),
};

impl DictIndex {
    fn build(dict: &[u8]) -> DictIndex {
        let mut head = vec![NIL; 1 << HASH_BITS];
        let mut prev = vec![NIL; dict.len().saturating_sub(3)];
        for (pos, prev) in prev.iter_mut().enumerate() {
            let h = hash4(dict, pos);
            *prev = head[h];
            head[h] = pos as u32;
        }
        DictIndex { head, prev }
    }

    /// The index to run `dict` with: the built-in certificate dictionary's
    /// is built on first use and kept; anything else has none.
    fn of(dict: &[u8]) -> &'static DictIndex {
        static CERT_INDEX: OnceLock<DictIndex> = OnceLock::new();
        if !dict.is_empty() && std::ptr::eq(dict, dict::cert_dictionary()) {
            CERT_INDEX.get_or_init(|| DictIndex::build(dict))
        } else {
            &NO_INDEX
        }
    }
}

/// Match-finder state a thread keeps between calls, so a call costs what
/// its input costs: no table is allocated or cleared per call. The buckets
/// are 256 KiB; `data` and `prev` stay sized to the longest `dict || input`
/// the thread has compressed (5 B a position).
struct Scratch {
    /// `dict || input` of the call in progress.
    data: Vec<u8>,
    /// Newest inserted position per bucket, stored as `base + pos`. An
    /// entry below the running call's base was written by an earlier call
    /// and reads as empty.
    head: Vec<u32>,
    /// Next-older position on the chain of each inserted position of the
    /// running call (call-relative, or [`NIL`]); written before it is read.
    prev: Vec<u32>,
    /// First position value no earlier call has used.
    base: u32,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            data: Vec::new(),
            head: Vec::new(),
            prev: Vec::new(),
            base: 1,
        })
    };
}

impl Scratch {
    /// Load `dict || input` and hand out a matcher over position values no
    /// earlier call has written. The range is claimed before the call runs,
    /// so nothing a call leaves behind — finished or not — is readable by
    /// the next; only when the 32-bit space is used up are the buckets
    /// cleared and the base started over.
    fn matcher(&mut self, dict: &[u8], input: &[u8], params: Params) -> Matcher<'_> {
        self.data.clear();
        self.data.extend_from_slice(dict);
        self.data.extend_from_slice(input);
        let n = self.data.len();
        assert!(
            n < NIL as usize,
            "dictionary and input exceed 32-bit positions"
        );
        if self.head.is_empty() {
            self.head = vec![0; 1 << HASH_BITS];
        }
        if self.base > NIL - n as u32 {
            self.head.fill(0);
            self.base = 1;
        }
        if self.prev.len() < n {
            self.prev.resize(n, NIL);
        }
        let base = self.base;
        self.base += n as u32;
        Matcher {
            data: &self.data,
            head: &mut self.head,
            prev: &mut self.prev,
            base,
            index: DictIndex::of(dict),
            params,
        }
    }
}

struct Matcher<'a> {
    data: &'a [u8],
    head: &'a mut [u32],
    prev: &'a mut [u32],
    base: u32,
    index: &'a DictIndex,
    params: Params,
}

impl Matcher<'_> {
    /// Newest position on bucket `h`'s chain: this call's, else the
    /// dictionary index's.
    #[inline]
    fn newest(&self, h: usize) -> u32 {
        let stamped = self.head[h];
        if stamped >= self.base {
            stamped - self.base
        } else {
            self.index.head.get(h).copied().unwrap_or(NIL)
        }
    }

    /// Next-older position after `pos` on its chain.
    #[inline]
    fn older(&self, pos: usize) -> u32 {
        match self.index.prev.get(pos) {
            Some(&older) => older,
            None => self.prev[pos],
        }
    }

    /// The bucket `pos` hashes to and the newest position on its chain, or
    /// `None` when fewer than four bytes follow `pos` (it is never inserted
    /// and never matches). One read serves the position's search and its
    /// insertion.
    #[inline]
    fn bucket(&self, pos: usize) -> Option<(usize, u32)> {
        if pos + 4 > self.data.len() {
            return None;
        }
        let h = hash4(self.data, pos);
        Some((h, self.newest(h)))
    }

    /// Put `pos` at the head of bucket `h`, whose chain began at `newest`.
    #[inline]
    fn link(&mut self, pos: usize, h: usize, newest: u32) {
        self.prev[pos] = newest;
        self.head[h] = self.base + pos as u32;
    }

    #[inline]
    fn insert(&mut self, pos: usize) {
        if let Some((h, newest)) = self.bucket(pos) {
            self.link(pos, h, newest);
        }
    }

    /// The best match for `pos` on the chain that starts at `newest`, as
    /// `(len, dist)`. An empty chain returns before any walk is set up.
    #[inline]
    fn search(&self, pos: usize, newest: u32) -> Option<(usize, usize)> {
        if newest == NIL || pos + self.params.min_match > self.data.len() {
            return None;
        }
        self.walk(pos, newest)
    }

    /// Walk the chain from `candidate` for the longest match of `pos`.
    #[inline(never)]
    fn walk(&self, pos: usize, mut candidate: u32) -> Option<(usize, usize)> {
        let mut best_len = self.params.min_match - 1;
        let mut best_dist = 0usize;
        let max_len = (self.data.len() - pos).min(MAX_MATCH);
        let mut chain = 0;
        while candidate != NIL && chain < CHAIN_LIMIT {
            let cand = candidate as usize;
            candidate = self.older(cand);
            chain += 1;
            if cand >= pos {
                // Defensive: never self-match (dist 0 would corrupt output).
                continue;
            }
            let dist = pos - cand;
            if dist > self.params.window {
                break;
            }
            // Quick check on the byte that would extend the best match.
            if self.data[cand + best_len] == self.data[pos + best_len] {
                let len = common_prefix(self.data, cand, pos, max_len);
                if len > best_len {
                    best_len = len;
                    best_dist = dist;
                    if len >= max_len {
                        break;
                    }
                }
            }
        }
        if best_len >= self.params.min_match {
            Some((best_len, best_dist))
        } else {
            None
        }
    }
}

/// Run the match finder over `input` and report each match as
/// `(offset into input, len, dist)`, in order; the input bytes no match
/// covers are the literals. Matches may reach into `dict`.
pub(crate) fn for_each_match(
    dict: &[u8],
    input: &[u8],
    params: Params,
    mut emit: impl FnMut(usize, usize, usize),
) {
    SCRATCH.with_borrow_mut(|scratch| {
        let mut matcher = scratch.matcher(dict, input, params);
        let end = dict.len() + input.len();
        // The built-in dictionary's index covers all but its last three
        // positions; a caller's dictionary has no index at all.
        for pos in matcher.index.prev.len()..dict.len() {
            matcher.insert(pos);
        }

        let mut pos = dict.len();
        while pos < end {
            let Some((h, newest)) = matcher.bucket(pos) else {
                pos += 1;
                continue;
            };
            let found = matcher.search(pos, newest);
            // `pos` goes on its chain whether or not it starts a match.
            matcher.link(pos, h, newest);
            let Some((mut len, mut dist)) = found else {
                pos += 1;
                continue;
            };
            if params.lazy && pos + 1 < end {
                // One-step lazy evaluation: a longer match at pos+1 may be
                // worth deferring for. After a deferral the position
                // stepped onto is not inserted.
                let next = matcher.bucket(pos + 1);
                if let Some((len2, dist2)) =
                    next.and_then(|(_, newest)| matcher.search(pos + 1, newest))
                {
                    if len2 > len + 1 {
                        pos += 1;
                        (len, dist) = (len2, dist2);
                    }
                }
            }
            emit(pos - dict.len(), len, dist);
            for p in pos + 1..pos + len {
                matcher.insert(p);
            }
            pos += len;
        }
    });
}

/// Tokenize `input`, allowing matches into `dict` (which is *not* emitted).
pub fn tokenize(dict: &[u8], input: &[u8], params: Params) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut literals_from = 0;
    for_each_match(dict, input, params, |at, len, dist| {
        tokens.extend(input[literals_from..at].iter().map(|&b| Token::Literal(b)));
        tokens.push(Token::Match { len, dist });
        literals_from = at + len;
    });
    tokens.extend(input[literals_from..].iter().map(|&b| Token::Literal(b)));
    tokens
}

/// Reconstruct the input from tokens (used by tests; the container decoder
/// has its own incremental version).
pub fn detokenize(dict: &[u8], tokens: &[Token]) -> Vec<u8> {
    let mut out = dict.to_vec();
    for token in tokens {
        match *token {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let start = out.len() - dist;
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
    }
    out.split_off(dict.len())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    const P: Params = Params {
        window: 32 * 1024,
        min_match: 4,
        lazy: false,
    };

    #[test]
    fn roundtrip_simple() {
        let input = b"abcabcabcabcabcabc";
        let tokens = tokenize(&[], input, P);
        assert_eq!(detokenize(&[], &tokens), input);
        // Must find the period-3 repetition (overlapping match).
        assert!(tokens
            .iter()
            .any(|t| matches!(t, Token::Match { dist: 3, .. })));
    }

    #[test]
    fn roundtrip_incompressible() {
        // A de Bruijn-ish byte sequence with no 4-grams repeated.
        let input: Vec<u8> = (0u32..2000)
            .flat_map(|i| (i.wrapping_mul(2654435761)).to_be_bytes())
            .collect();
        let tokens = tokenize(&[], &input, P);
        assert_eq!(detokenize(&[], &tokens), input);
    }

    #[test]
    fn dictionary_matches_reach_back() {
        let dict = b"certificate transparency log entry";
        let input = b"certificate transparency!";
        let tokens = tokenize(dict, input, P);
        assert_eq!(detokenize(dict, &tokens), input);
        // The first token should be a long match into the dictionary.
        match tokens[0] {
            Token::Match { len, dist } => {
                assert!(len >= 24, "len {len}");
                assert_eq!(dist, dict.len());
            }
            ref t => panic!("expected dictionary match, got {t:?}"),
        }
    }

    #[test]
    fn window_limits_distance() {
        let tight = Params {
            window: 8,
            min_match: 4,
            lazy: false,
        };
        // Repetition with period 16 cannot be matched in an 8-byte window.
        let unit = b"0123456789ABCDEF";
        let mut input = Vec::new();
        for _ in 0..4 {
            input.extend_from_slice(unit);
        }
        let tokens = tokenize(&[], &input, tight);
        assert!(
            tokens.iter().all(|t| matches!(t, Token::Literal(_))),
            "no match may exceed the window"
        );
        assert_eq!(detokenize(&[], &tokens), input);
    }

    #[test]
    fn lazy_matching_still_roundtrips() {
        let lazy = Params {
            window: 64 * 1024,
            min_match: 4,
            lazy: true,
        };
        let mut input = Vec::new();
        for i in 0..50 {
            input.extend_from_slice(b"prefix-");
            input.extend_from_slice(format!("{i:04}").as_bytes());
            input.extend_from_slice(b"-suffix of considerable length;");
        }
        let tokens = tokenize(&[], &input, lazy);
        assert_eq!(detokenize(&[], &tokens), input);
        let matched: usize = tokens
            .iter()
            .map(|t| match t {
                Token::Match { len, .. } => *len,
                _ => 0,
            })
            .sum();
        assert!(matched * 10 > input.len() * 8, "most bytes should match");
    }

    #[test]
    fn min_match_is_respected() {
        let strict = Params {
            window: 1024,
            min_match: 6,
            lazy: false,
        };
        let input = b"abcd-abcd-abcdef-abcdef";
        let tokens = tokenize(&[], input, strict);
        for t in &tokens {
            if let Token::Match { len, .. } = t {
                assert!(*len >= 6);
            }
        }
        assert_eq!(detokenize(&[], &tokens), input);
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        assert!(tokenize(&[], &[], P).is_empty());
        assert!(tokenize(b"dict", &[], P).is_empty());
    }

    // ------------------------------------- the allocate-per-call reference --

    /// Verbatim copy of the tokenizer this module replaced: fresh `i64`
    /// tables per call, every dictionary position inserted per call,
    /// byte-at-a-time extension. What the reusable matcher must reproduce
    /// token for token.
    mod reference {
        use super::super::{hash4, Params, Token, CHAIN_LIMIT, HASH_BITS, MAX_MATCH};

        struct Matcher<'a> {
            data: &'a [u8],
            head: Vec<i64>,
            prev: Vec<i64>,
            params: Params,
        }

        impl<'a> Matcher<'a> {
            fn new(data: &'a [u8], params: Params) -> Self {
                Matcher {
                    data,
                    head: vec![-1; 1 << HASH_BITS],
                    prev: vec![-1; data.len()],
                    params,
                }
            }

            fn insert(&mut self, pos: usize) {
                if pos + 4 > self.data.len() {
                    return;
                }
                let h = hash4(self.data, pos);
                self.prev[pos] = self.head[h];
                self.head[h] = pos as i64;
            }

            fn best_match(&self, pos: usize) -> Option<(usize, usize)> {
                if pos + self.params.min_match > self.data.len() || pos + 4 > self.data.len() {
                    return None;
                }
                let h = hash4(self.data, pos);
                let mut candidate = self.head[h];
                let mut best_len = self.params.min_match - 1;
                let mut best_dist = 0usize;
                let max_len = (self.data.len() - pos).min(MAX_MATCH);
                let mut chain = 0;
                while candidate >= 0 && chain < CHAIN_LIMIT {
                    let cand = candidate as usize;
                    if cand >= pos {
                        candidate = self.prev[cand];
                        chain += 1;
                        continue;
                    }
                    let dist = pos - cand;
                    if dist > self.params.window {
                        break;
                    }
                    if best_len < max_len && self.data[cand + best_len] == self.data[pos + best_len]
                    {
                        let mut len = 0;
                        while len < max_len && self.data[cand + len] == self.data[pos + len] {
                            len += 1;
                        }
                        if len > best_len {
                            best_len = len;
                            best_dist = dist;
                            if len >= max_len {
                                break;
                            }
                        }
                    }
                    candidate = self.prev[cand];
                    chain += 1;
                }
                if best_len >= self.params.min_match {
                    Some((best_len, best_dist))
                } else {
                    None
                }
            }
        }

        pub(crate) fn tokenize(dict: &[u8], input: &[u8], params: Params) -> Vec<Token> {
            let mut data = Vec::with_capacity(dict.len() + input.len());
            data.extend_from_slice(dict);
            data.extend_from_slice(input);
            let mut matcher = Matcher::new(&data, params);
            for pos in 0..dict.len() {
                matcher.insert(pos);
            }

            let mut tokens = Vec::new();
            let mut pos = dict.len();
            while pos < data.len() {
                let found = matcher.best_match(pos);
                match found {
                    Some((mut len, mut dist)) => {
                        if params.lazy && pos + 1 < data.len() {
                            matcher.insert(pos);
                            if let Some((len2, dist2)) = matcher.best_match(pos + 1) {
                                if len2 > len + 1 {
                                    tokens.push(Token::Literal(data[pos]));
                                    pos += 1;
                                    len = len2;
                                    dist = dist2;
                                }
                            }
                            tokens.push(Token::Match { len, dist });
                            for p in pos + 1..pos + len {
                                matcher.insert(p);
                            }
                            pos += len;
                            continue;
                        }
                        tokens.push(Token::Match { len, dist });
                        for p in pos..pos + len {
                            matcher.insert(p);
                        }
                        pos += len;
                    }
                    None => {
                        tokens.push(Token::Literal(data[pos]));
                        matcher.insert(pos);
                        pos += 1;
                    }
                }
            }
            tokens
        }
    }

    fn profiles() -> [Params; 3] {
        crate::Algorithm::ALL.map(crate::Algorithm::params)
    }

    /// Deterministic bytes over a small alphabet (so four-grams repeat and
    /// chains grow long), with slices of the certificate dictionary mixed in.
    fn sample(seed: u64, len: usize, alphabet: u64) -> Vec<u8> {
        let dict = dict::cert_dictionary();
        let mut z = seed;
        let mut next = move || crate::splitmix(&mut z);
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            if next() % 8 == 0 {
                let at = next() as usize % dict.len();
                let take = (next() as usize % 40).min(dict.len() - at);
                out.extend_from_slice(&dict[at..at + take]);
            } else {
                for _ in 0..next() % 24 {
                    out.push((next() % alphabet) as u8);
                }
            }
        }
        out.truncate(len);
        out
    }

    /// A post-quantum-shaped chain: runs of noise the size of ML-DSA keys
    /// and signatures between slices of DER structure and of the
    /// dictionary, so that most positions find their bucket empty.
    fn post_quantum_shaped(seed: u64) -> Vec<u8> {
        const DER: &[u8] = b"\x30\x82\x0f\x39\x30\x82\x0a\x21\xa0\x03\x02\x01\x02\
                             \x06\x09\x60\x86\x48\x01\x65\x03\x04\x03\x11\x03\x82\x09\x75\x00";
        let dict = dict::cert_dictionary();
        let mut z = seed;
        let mut out = Vec::new();
        for run in [1_312, 2_420, 1_952, 3_309, 2_420] {
            out.extend_from_slice(DER);
            let at = crate::splitmix(&mut z) as usize % (dict.len() - 64);
            out.extend_from_slice(&dict[at..at + 64]);
            out.extend((0..run).map(|_| crate::splitmix(&mut z) as u8));
        }
        out
    }

    /// Inputs that exercise the chains: short, long, skewed, noisy, one
    /// 70 KiB run, the dictionary itself and a post-quantum-shaped chain.
    pub(crate) fn samples() -> Vec<Vec<u8>> {
        let mut inputs: Vec<Vec<u8>> = (0..8usize).map(|n| sample(n as u64, n, 3)).collect();
        for (seed, len, alphabet) in [
            (11, 64, 2),
            (12, 700, 3),
            (13, 3_000, 4),
            (14, 3_000, 200),
            (15, 9_000, 2),
            (16, 40_000, 16),
        ] {
            inputs.push(sample(seed, len, alphabet));
        }
        inputs.push(vec![7; MAX_MATCH + 4_000]);
        inputs.push(dict::cert_dictionary().to_vec());
        inputs.push(post_quantum_shaped(17));
        inputs
    }

    #[test]
    fn tokens_equal_the_reference_tokenizer() {
        let builtin = dict::cert_dictionary();
        let copied = builtin.to_vec();
        let dicts: [&[u8]; 5] = [&[], builtin, &copied, b"abc", &sample(99, 500, 3)];
        for input in samples() {
            for params in profiles() {
                for dict in dicts {
                    assert_eq!(
                        tokenize(dict, &input, params),
                        reference::tokenize(dict, &input, params),
                        "input of {} bytes, dict of {}, {params:?}",
                        input.len(),
                        dict.len()
                    );
                }
            }
        }
        // A window shorter than the chains reach, and a long minimum match.
        let odd = Params {
            window: 100,
            min_match: 7,
            lazy: true,
        };
        for input in samples() {
            assert_eq!(
                tokenize(builtin, &input, odd),
                reference::tokenize(builtin, &input, odd)
            );
        }
    }

    #[test]
    fn a_deferred_match_start_is_never_inserted() {
        // "abcd" matches four bytes at 23, "bcdeUVWXYZ" ten at 24: the lazy
        // profile defers. Position 24 then stays off its chain, so the final
        // "bcdeUVWXYZ!" finds the ten bytes at 9, not the eleven at 24.
        let input = b"abcdX1234bcdeUVWXYZ_-+=abcdeUVWXYZ!5678bcdeUVWXYZ!";
        let lazy = Params {
            window: 1 << 16,
            min_match: 4,
            lazy: true,
        };
        let tokens = tokenize(&[], input, lazy);
        assert_eq!(tokens, reference::tokenize(&[], input, lazy));
        let matches: Vec<(usize, Token)> = tokens
            .into_iter()
            .enumerate()
            .filter(|(_, t)| matches!(t, Token::Match { .. }))
            .collect();
        assert_eq!(
            matches,
            [
                (24, Token::Match { len: 10, dist: 15 }),
                (30, Token::Match { len: 10, dist: 30 }),
            ]
        );
    }

    #[test]
    fn the_position_base_wraps_without_a_trace() {
        let builtin = dict::cert_dictionary();
        let input = sample(21, 3_000, 4);
        let run = || {
            profiles().map(|params| {
                (
                    tokenize(builtin, &input, params),
                    tokenize(b"abc", &input, params),
                )
            })
        };
        let fresh = run();
        assert_eq!(
            fresh[1].0,
            reference::tokenize(builtin, &input, profiles()[1])
        );
        // Leave the thread's tables full of entries stamped just below the
        // top of the position space, then cross it: the six calls below
        // need about 21,000 position values and 10,000 remain.
        SCRATCH.with_borrow_mut(|scratch| scratch.base = NIL - 10_000);
        let before = SCRATCH.with_borrow(|scratch| scratch.base);
        assert_eq!(run(), fresh, "calls straddling the wrap");
        let after = SCRATCH.with_borrow(|scratch| scratch.base);
        assert!(after < before, "the base started over: {before} -> {after}");
        assert_eq!(run(), fresh, "calls after the wrap");
    }

    #[test]
    fn an_unfinished_call_leaves_nothing_readable() {
        let input = sample(22, 2_000, 3);
        let fresh = tokenize(&[], &input, P);
        let aborted = std::panic::catch_unwind(|| {
            for_each_match(&[], &input, P, |at, _, _| {
                assert!(at < 1_000, "abandon the call half way");
            })
        });
        assert!(aborted.is_err());
        assert_eq!(tokenize(&[], &input, P), fresh);
    }
}
