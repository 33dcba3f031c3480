//! Canonical Huffman coding over byte alphabets.
//!
//! Code lengths are limited to [`MAX_CODE_LEN`] bits so they can be stored
//! as 4-bit nibbles in the container header. Length limiting uses the
//! standard clamp-then-repair approach on the Kraft sum; the loss versus an
//! optimal length-limited code is negligible on certificate data.
//!
//! # The encoder's contract
//!
//! Code lengths go into the container, so which of several equally good
//! trees gets built is part of the format. The tree is the one a min-heap
//! keyed `(weight, tiebreak)` yields when the two smallest nodes are merged
//! until one is left, where
//!
//! * a leaf's tiebreak is its rank among the used symbols in ascending
//!   symbol order, and an internal node's is the next number up, in
//!   creation order — so on equal weight a leaf precedes every internal
//!   node and an older internal node a younger one;
//! * weights add saturating;
//! * a symbol's length is its leaf's depth, at least 1; a lone used symbol
//!   gets length 1 without a tree;
//! * lengths above [`MAX_CODE_LEN`] are clamped to it, and while the Kraft
//!   sum is over budget the symbols are swept in `(frequency, symbol)`
//!   order, each still-short code one bit longer per sweep, stopping the
//!   moment the sum fits.
//!
//! `build_lengths` gets that tree from two sorted queues on the stack
//! instead of a heap of boxed nodes; a unit test holds it to the heap
//! construction it replaced, length for length.

use crate::bitio::{BitReader, BitWriter};

/// Maximum Huffman code length in bits (fits a 4-bit nibble).
pub(crate) const MAX_CODE_LEN: u8 = 15;

/// A canonical Huffman code over the 256-symbol byte alphabet.
#[derive(Debug, Clone)]
pub(crate) struct Code {
    /// Code length per symbol; 0 = symbol unused.
    pub lengths: [u8; 256],
    codes: [u32; 256],
}

impl Code {
    /// Build a length-limited canonical code from symbol frequencies.
    pub(crate) fn from_frequencies(freqs: &[u64; 256]) -> Code {
        let lengths = build_lengths(freqs);
        Code::from_lengths(lengths)
    }

    /// Reconstruct the canonical code from stored lengths.
    pub(crate) fn from_lengths(lengths: [u8; 256]) -> Code {
        let mut codes = [0u32; 256];
        // Canonical assignment: count codes per length, then assign
        // consecutive values in (length, symbol) order.
        let mut count = [0u32; (MAX_CODE_LEN + 1) as usize];
        for &len in lengths.iter() {
            if len > 0 {
                count[len as usize] += 1;
            }
        }
        let mut next = [0u32; (MAX_CODE_LEN + 2) as usize];
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code + count[len - 1]) << 1;
            next[len] = code;
        }
        for sym in 0..256 {
            let len = lengths[sym] as usize;
            if len > 0 {
                codes[sym] = next[len];
                next[len] += 1;
            }
        }
        Code { lengths, codes }
    }

    /// Encode one symbol.
    pub(crate) fn write_symbol(&self, w: &mut BitWriter, sym: u8) {
        let len = self.lengths[sym as usize];
        debug_assert!(len > 0, "symbol {sym} has no code");
        w.write_bits(self.codes[sym as usize], len);
    }

    /// Total encoded size in bits for the given frequencies.
    pub(crate) fn cost_bits(&self, freqs: &[u64; 256]) -> u64 {
        freqs
            .iter()
            .zip(self.lengths.iter())
            .map(|(&f, &l)| f * l as u64)
            .sum()
    }

    /// Build a decoder for this code.
    pub(crate) fn decoder(&self) -> Decoder {
        Decoder::new(&self.lengths)
    }
}

/// Compute length-limited Huffman code lengths for `freqs`.
fn build_lengths(freqs: &[u64; 256]) -> [u8; 256] {
    let mut lengths = [0u8; 256];
    // The used symbols as `(weight, symbol)`, ascending by symbol: a
    // leaf's rank among them is its tiebreak.
    let mut leaves = [(0u64, 0u8); 256];
    let mut used = 0;
    for (sym, &freq) in freqs.iter().enumerate() {
        if freq > 0 {
            leaves[used] = (freq, sym as u8);
            used += 1;
        }
    }
    let leaves = &mut leaves[..used];
    match *leaves {
        [] => return lengths,
        [(_, only)] => {
            lengths[only as usize] = 1;
            return lengths;
        }
        _ => {}
    }
    // Pop order of the leaves: by weight, rank (= symbol) breaking ties.
    leaves.sort_unstable();

    // Two queues instead of a heap. Merged weights never decrease, so the
    // internal nodes sit in their creation order already sorted by
    // `(weight, tiebreak)`, and the minimum of the whole forest is at the
    // front of one of the two queues. Nodes are numbered leaves first (in
    // pop order), then internals in creation order; `parent` is the tree.
    let mut merged = [0u64; 255];
    let mut parent = [0u16; 511];
    let (mut next_leaf, mut next_merged) = (0, 0);
    for created in 0..used - 1 {
        let mut pop = || {
            // A leaf's tiebreak is below every internal's, so it wins an
            // equal weight.
            let leaf = next_leaf < used
                && (next_merged == created || leaves[next_leaf].0 <= merged[next_merged]);
            if leaf {
                next_leaf += 1;
                (leaves[next_leaf - 1].0, next_leaf - 1)
            } else {
                next_merged += 1;
                (merged[next_merged - 1], used + next_merged - 1)
            }
        };
        let ((weight_a, a), (weight_b, b)) = (pop(), pop());
        // Saturating: astronomically skewed inputs still produce a valid
        // (if marginally suboptimal) tree instead of overflowing.
        merged[created] = weight_a.saturating_add(weight_b);
        parent[a] = (used + created) as u16;
        parent[b] = (used + created) as u16;
    }
    // Every parent has a higher number than its children, so walking down
    // from the root (the last node, depth 0) meets parents first.
    let root = 2 * used - 2;
    let mut depth = [0u8; 511];
    for node in (0..root).rev() {
        depth[node] = depth[parent[node] as usize] + 1;
    }
    for (&(_, sym), &depth) in leaves.iter().zip(&depth) {
        lengths[sym as usize] = depth.max(1);
    }

    // Length-limit: clamp, then repair the Kraft inequality by lengthening
    // the cheapest (least frequent) still-short codes.
    let mut over = false;
    for len in lengths.iter_mut() {
        if *len > MAX_CODE_LEN {
            *len = MAX_CODE_LEN;
            over = true;
        }
    }
    if over {
        let kraft = |lengths: &[u8; 256]| -> u64 {
            lengths
                .iter()
                .filter(|&&l| l > 0)
                .map(|&l| 1u64 << (MAX_CODE_LEN - l))
                .sum()
        };
        let budget = 1u64 << MAX_CODE_LEN;
        let mut k = kraft(&lengths);
        // Lengthen least-frequent symbols until the code is feasible
        // again: by frequency, symbol breaking ties — the order `leaves`
        // is already in.
        'outer: while k > budget {
            for &(_, sym) in leaves.iter() {
                let s = sym as usize;
                if lengths[s] > 0 && lengths[s] < MAX_CODE_LEN {
                    k -= 1 << (MAX_CODE_LEN - lengths[s]);
                    lengths[s] += 1;
                    k += 1 << (MAX_CODE_LEN - lengths[s]);
                    if k <= budget {
                        break 'outer;
                    }
                }
            }
        }
    }
    lengths
}

/// A canonical Huffman decoder (per-length first-code tables).
#[derive(Debug, Clone)]
pub(crate) struct Decoder {
    // For each length: the first canonical code of that length, and the
    // index into `symbols` where codes of that length start.
    first_code: [u32; (MAX_CODE_LEN + 1) as usize],
    first_index: [u32; (MAX_CODE_LEN + 1) as usize],
    count: [u32; (MAX_CODE_LEN + 1) as usize],
    symbols: Vec<u8>,
}

impl Decoder {
    /// Build a decoder from code lengths.
    pub(crate) fn new(lengths: &[u8; 256]) -> Decoder {
        let mut count = [0u32; (MAX_CODE_LEN + 1) as usize];
        for &len in lengths.iter() {
            if len > 0 {
                count[len as usize] += 1;
            }
        }
        let mut first_code = [0u32; (MAX_CODE_LEN + 1) as usize];
        let mut first_index = [0u32; (MAX_CODE_LEN + 1) as usize];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code + count[len - 1]) << 1;
            first_code[len] = code;
            first_index[len] = index;
            index += count[len];
        }
        // Symbols sorted by (length, symbol) — canonical order.
        let mut symbols = Vec::with_capacity(index as usize);
        for len in 1..=MAX_CODE_LEN {
            for (sym, &l) in lengths.iter().enumerate() {
                if l == len {
                    symbols.push(sym as u8);
                }
            }
        }
        Decoder {
            first_code,
            first_index,
            count,
            symbols,
        }
    }

    /// Decode one symbol from the bit stream.
    pub(crate) fn read_symbol(&self, r: &mut BitReader<'_>) -> Option<u8> {
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code << 1) | r.read_bit()? as u32;
            let n = self.count[len];
            if n > 0 {
                let first = self.first_code[len];
                if code < first + n {
                    if code < first {
                        return None; // malformed stream
                    }
                    let idx = self.first_index[len] + (code - first);
                    return self.symbols.get(idx as usize).copied();
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn freq_of(data: &[u8]) -> [u64; 256] {
        let mut f = [0u64; 256];
        for &b in data {
            f[b as usize] += 1;
        }
        f
    }

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let code = Code::from_frequencies(&freq_of(data));
        let mut w = BitWriter::default();
        for &b in data {
            code.write_symbol(&mut w, b);
        }
        let bits = w.finish();
        let dec = code.decoder();
        let mut r = BitReader::new(&bits);
        (0..data.len())
            .map(|_| dec.read_symbol(&mut r).expect("decode"))
            .collect()
    }

    #[test]
    fn roundtrip_text() {
        let data = b"the quick brown fox jumps over the lazy dog, repeatedly! \
                     the quick brown fox jumps over the lazy dog";
        assert_eq!(roundtrip(data), data);
    }

    #[test]
    fn roundtrip_single_symbol() {
        let data = vec![0x42u8; 100];
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn roundtrip_two_symbols() {
        let data: Vec<u8> = (0..100).map(|i| if i % 3 == 0 { 1 } else { 2 }).collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn roundtrip_all_bytes() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 90% 'a', rest uniform: entropy well under 8 bits/symbol.
        let mut data = vec![b'a'; 9000];
        data.extend((0..1000).map(|i| (i % 256) as u8));
        let code = Code::from_frequencies(&freq_of(&data));
        let bits = code.cost_bits(&freq_of(&data));
        assert!(bits < data.len() as u64 * 8 / 2, "cost {bits} bits");
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn kraft_inequality_holds() {
        // Exponentially skewed frequencies force deep trees that must be
        // length-limited.
        let mut freqs = [0u64; 256];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = 1u64 << (63 - (i / 5).min(62) as u64);
        }
        let code = Code::from_frequencies(&freqs);
        let kraft: f64 = code
            .lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft sum {kraft}");
        assert!(code.lengths.iter().all(|&l| l <= MAX_CODE_LEN));
    }

    #[test]
    fn decoder_rejects_garbage_gracefully() {
        let mut freqs = [0u64; 256];
        freqs[b'x' as usize] = 10;
        freqs[b'y' as usize] = 1;
        let code = Code::from_frequencies(&freqs);
        let dec = code.decoder();
        // All-ones padding cannot decode forever; eventually returns None
        // instead of panicking.
        let bits = vec![0xFFu8; 4];
        let mut r = BitReader::new(&bits);
        let mut decoded = 0;
        while dec.read_symbol(&mut r).is_some() {
            decoded += 1;
            assert!(decoded < 64, "runaway decode");
        }
    }

    /// Verbatim copy of the boxed-tree, binary-heap construction
    /// `build_lengths` replaced: the `(weight, tiebreak)` pop order and the
    /// clamp-then-repair pass it must reproduce length for length.
    fn reference_build_lengths(freqs: &[u64; 256]) -> [u8; 256] {
        let mut lengths = [0u8; 256];
        let used: Vec<usize> = (0..256).filter(|&s| freqs[s] > 0).collect();
        match used.len() {
            0 => return lengths,
            1 => {
                lengths[used[0]] = 1;
                return lengths;
            }
            _ => {}
        }

        // Standard Huffman tree construction over a (weight, tiebreak) min-heap.
        #[derive(Debug)]
        enum Node {
            Leaf(usize),
            Internal(Box<Node>, Box<Node>),
        }
        #[derive(Debug)]
        struct HeapItem {
            weight: u64,
            tiebreak: usize,
            node: Node,
        }
        impl PartialEq for HeapItem {
            fn eq(&self, other: &Self) -> bool {
                (self.weight, self.tiebreak) == (other.weight, other.tiebreak)
            }
        }
        impl Eq for HeapItem {}
        impl PartialOrd for HeapItem {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for HeapItem {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reversed: BinaryHeap is a max-heap, we want the minimum.
                (other.weight, other.tiebreak).cmp(&(self.weight, self.tiebreak))
            }
        }
        let mut heap: std::collections::BinaryHeap<HeapItem> = used
            .iter()
            .enumerate()
            .map(|(i, &s)| HeapItem {
                weight: freqs[s],
                tiebreak: i,
                node: Node::Leaf(s),
            })
            .collect();
        let mut tiebreak = used.len();
        while heap.len() > 1 {
            let a = heap.pop().unwrap();
            let b = heap.pop().unwrap();
            heap.push(HeapItem {
                // Saturating: astronomically skewed inputs still produce a
                // valid (if marginally suboptimal) tree instead of overflowing.
                weight: a.weight.saturating_add(b.weight),
                tiebreak,
                node: Node::Internal(Box::new(a.node), Box::new(b.node)),
            });
            tiebreak += 1;
        }
        let root = heap.pop().unwrap().node;

        fn assign(node: &Node, depth: u8, lengths: &mut [u8; 256]) {
            match node {
                Node::Leaf(sym) => lengths[*sym] = depth.max(1),
                Node::Internal(a, b) => {
                    assign(a, depth + 1, lengths);
                    assign(b, depth + 1, lengths);
                }
            }
        }
        assign(&root, 0, &mut lengths);

        // Length-limit: clamp, then repair the Kraft inequality by lengthening
        // the cheapest (least frequent) still-short codes.
        let mut over = false;
        for len in lengths.iter_mut() {
            if *len > MAX_CODE_LEN {
                *len = MAX_CODE_LEN;
                over = true;
            }
        }
        if over {
            let kraft = |lengths: &[u8; 256]| -> u64 {
                lengths
                    .iter()
                    .filter(|&&l| l > 0)
                    .map(|&l| 1u64 << (MAX_CODE_LEN - l))
                    .sum()
            };
            let budget = 1u64 << MAX_CODE_LEN;
            let mut k = kraft(&lengths);
            // Lengthen least-frequent symbols until the code is feasible again.
            let mut by_freq: Vec<usize> = used.clone();
            by_freq.sort_by_key(|&s| freqs[s]);
            'outer: while k > budget {
                for &s in &by_freq {
                    if lengths[s] > 0 && lengths[s] < MAX_CODE_LEN {
                        k -= 1 << (MAX_CODE_LEN - lengths[s]);
                        lengths[s] += 1;
                        k += 1 << (MAX_CODE_LEN - lengths[s]);
                        if k <= budget {
                            break 'outer;
                        }
                    }
                }
            }
        }
        lengths
    }

    #[test]
    fn lengths_equal_the_heap_construction() {
        // Deep trees that the clamp has to repair: Fibonacci weights,
        // ascending and descending by symbol, and the saturating tail.
        let mut fib = [0u64; 256];
        let (mut a, mut b) = (1u64, 1u64);
        for f in fib.iter_mut().take(90) {
            *f = a;
            (a, b) = (b, a + b);
        }
        let mut rev = fib;
        rev.reverse();
        let mut cases: Vec<[u64; 256]> = vec![
            fib,
            rev,
            std::array::from_fn(|i| 1u64 << (63 - (i / 5).min(62))),
            std::array::from_fn(|i| u64::MAX >> (i % 64)),
            // Ties everywhere: equal weights, powers of two, few values.
            [1; 256],
            [u64::MAX; 256],
            std::array::from_fn(|i| 1 << (i % 8)),
            std::array::from_fn(|i| (i % 3) as u64),
        ];
        // Random alphabets of every size, weights from tiny to huge.
        let mut z = 0x4855_4646u64;
        for used in 0..=256usize {
            for shift in [0, 40, 56, 61] {
                let mut freqs = [0u64; 256];
                for _ in 0..used {
                    let sym = crate::splitmix(&mut z) as usize % 256;
                    freqs[sym] = (crate::splitmix(&mut z) >> shift).max(1);
                }
                cases.push(freqs);
            }
        }
        for freqs in &cases {
            assert_eq!(
                build_lengths(freqs),
                reference_build_lengths(freqs),
                "{freqs:?}"
            );
        }
    }
}
