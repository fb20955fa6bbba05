//! The key hash and the `hash → slot` index shared by the exact cache
//! ([`crate::cache`]) and the cell index ([`crate::interp`]).
//!
//! Every key carries one 64-bit hash, computed once when the key is built
//! ([`WordHash`]: one multiply per key word, then a full-avalanche
//! finish). That hash picks the shard, indexes the shard's table, and
//! places the key on the cluster ring, so a lane is hashed once per node
//! and once by the router.
//!
//! Each table stores its keys exactly once, in its own slots (the LRU
//! slab, the FIFO ring of cells). [`SlotIndex`] maps a hash to those
//! slots: an open-addressed array of `(hash, slot)` pairs, at most half
//! full, probed linearly from the hash's home entry over at most
//! [`WINDOW`] entries. A lookup compares the stored hash and then the full
//! key in the slot, so two keys that share a hash never answer for each
//! other. The hash is unkeyed, so colliding keys can be crafted; when all
//! [`WINDOW`] entries of a window are taken, an insert replaces the
//! window's first entry instead of probing further. A crafted collision
//! therefore costs an eviction, never a wrong answer, a longer probe or a
//! bigger index.

/// Longest probe sequence, in entries. With the index at most half full
/// an honest hash fills a whole window about once in 10^4 inserts.
pub(crate) const WINDOW: usize = 8;

const EMPTY: u32 = u32::MAX;

/// Word-at-a-time key hash: each 64-bit word is folded in with one
/// rotate, xor and odd multiply (a bijection of the state for a fixed
/// word, and of the word for a fixed state), and [`WordHash::finish`]
/// applies MurmurHash3's 64-bit finalizer, so every input bit moves every
/// output bit. Routers and nodes must run the same function: it places
/// keys on the cluster ring (DESIGN.md §15).
#[derive(Clone, Copy)]
pub(crate) struct WordHash(u64);

impl WordHash {
    pub(crate) fn new() -> Self {
        WordHash(0x243f_6a88_85a3_08d3)
    }

    pub(crate) fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(23) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    pub(crate) fn finish(self) -> u64 {
        #[cfg(test)]
        if let Some(forced) = forced::get() {
            return forced;
        }
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Test seam: while a [`forced::Hash`] guard lives, every key built on its
/// thread hashes to one chosen value, so tests can put different keys on
/// one hash.
#[cfg(test)]
pub(crate) mod forced {
    use std::cell::Cell;

    thread_local! {
        static FORCED: Cell<Option<u64>> = const { Cell::new(None) };
    }

    pub(crate) fn get() -> Option<u64> {
        FORCED.with(Cell::get)
    }

    /// Forces the hash until dropped.
    pub(crate) struct Hash;

    impl Hash {
        pub(crate) fn to(hash: u64) -> Hash {
            FORCED.with(|f| f.set(Some(hash)));
            Hash
        }
    }

    impl Drop for Hash {
        fn drop(&mut self) {
            FORCED.with(|f| f.set(None));
        }
    }
}

/// Where a new entry for a hash can go.
pub(crate) enum Vacancy {
    /// Entry `pos` of the hash's window is free.
    Free(usize),
    /// The whole window is taken; entry `pos` (the window's first) indexes
    /// `slot`, which the caller evicts and reuses for the new key.
    Full { pos: usize, slot: usize },
}

/// Open-addressed `hash → slot` index over a table of at most `capacity`
/// slots. Invariant: every entry sits within [`WINDOW`] entries of its
/// home, with no free entry between its home and itself, so a probe stops
/// at the first free entry.
pub(crate) struct SlotIndex {
    entries: Box<[(u64, u32)]>,
    mask: usize,
}

impl SlotIndex {
    pub(crate) fn new(capacity: usize) -> Self {
        let size = (2 * capacity).next_power_of_two().max(WINDOW);
        SlotIndex {
            entries: vec![(0, EMPTY); size].into_boxed_slice(),
            mask: size - 1,
        }
    }

    /// The home entry of `hash`. Bits 16 and up: the low bits pick the
    /// shard, and the top bits are the ring position, which every key a
    /// node owns shares in part.
    fn home(&self, hash: u64) -> usize {
        (hash >> 16) as usize & self.mask
    }

    /// The slot indexed under `hash` for which `is` holds.
    pub(crate) fn find(&self, hash: u64, mut is: impl FnMut(usize) -> bool) -> Option<usize> {
        let mut pos = self.home(hash);
        for _ in 0..WINDOW {
            let (h, slot) = self.entries[pos];
            if slot == EMPTY {
                return None;
            }
            if h == hash && is(slot as usize) {
                return Some(slot as usize);
            }
            pos = (pos + 1) & self.mask;
        }
        None
    }

    /// Where an entry for `hash` can go: the first free entry of its
    /// window, or the window's first entry when none is free.
    pub(crate) fn vacancy(&self, hash: u64) -> Vacancy {
        let home = self.home(hash);
        for i in 0..WINDOW {
            let pos = (home + i) & self.mask;
            if self.entries[pos].1 == EMPTY {
                return Vacancy::Free(pos);
            }
        }
        Vacancy::Full {
            pos: home,
            slot: self.entries[home].1 as usize,
        }
    }

    /// Index `slot` under `hash` at `pos`, which [`SlotIndex::vacancy`]
    /// returned for `hash` (overwriting a full window's first entry).
    pub(crate) fn put(&mut self, pos: usize, hash: u64, slot: usize) {
        self.entries[pos] = (hash, slot as u32);
    }

    /// Entries in use.
    #[cfg(test)]
    pub(crate) fn occupied(&self) -> usize {
        self.entries.iter().filter(|e| e.1 != EMPTY).count()
    }

    /// Drop the entry indexing `slot` under `hash`, then shift later
    /// entries of the run back over the hole (so no probe stops early).
    /// Free entries stay free: only the hole is ever filled.
    pub(crate) fn remove(&mut self, hash: u64, slot: usize) {
        let Some(mut hole) = (0..WINDOW)
            .map(|i| (self.home(hash) + i) & self.mask)
            .find(|&pos| self.entries[pos] == (hash, slot as u32))
        else {
            return;
        };
        let mut pos = hole;
        loop {
            pos = (pos + 1) & self.mask;
            let (h, s) = self.entries[pos];
            // An entry more than a window past the hole cannot move into it.
            if s == EMPTY || (pos.wrapping_sub(hole) & self.mask) >= WINDOW {
                break;
            }
            // Move it back iff the hole lies between its home and itself.
            let home = self.home(h);
            if (hole.wrapping_sub(home) & self.mask) < (pos.wrapping_sub(home) & self.mask) {
                self.entries[hole] = (h, s);
                hole = pos;
            }
        }
        self.entries[hole] = (0, EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every entry is within a window of its home with no free entry
    /// before it, and indexes a distinct slot.
    fn assert_invariant(index: &SlotIndex) {
        let mut slots = std::collections::HashSet::new();
        for (pos, &(h, s)) in index.entries.iter().enumerate() {
            if s == EMPTY {
                continue;
            }
            assert!(slots.insert(s), "slot {s} indexed twice");
            let home = index.home(h);
            let dist = pos.wrapping_sub(home) & index.mask;
            assert!(dist < WINDOW, "entry {pos} is {dist} past its home");
            for i in 0..dist {
                assert_ne!(index.entries[(home + i) & index.mask].1, EMPTY);
            }
        }
    }

    #[test]
    fn removal_keeps_every_entry_reachable() {
        // Hashes on a few adjacent homes, so runs overlap and removals
        // shift entries across homes.
        let mut index = SlotIndex::new(32);
        let mut live: Vec<(u64, usize)> = Vec::new();
        let mut next = 0;
        for round in 0..2000u64 {
            let hash = ((round * 7919) % 5) << 16 | round << 40;
            if live.len() < 24 && round % 3 != 0 {
                match index.vacancy(hash) {
                    Vacancy::Free(pos) => {
                        index.put(pos, hash, next);
                        live.push((hash, next));
                    }
                    Vacancy::Full { pos, slot } => {
                        index.put(pos, hash, slot);
                        live.retain(|&(_, s)| s != slot);
                        live.push((hash, slot));
                    }
                }
                next += 1;
            } else if !live.is_empty() {
                let (h, s) = live.remove((round as usize * 31) % live.len());
                index.remove(h, s);
            }
            assert_invariant(&index);
            for &(h, s) in &live {
                assert_eq!(index.find(h, |x| x == s), Some(s), "lost {s}");
            }
        }
    }

    #[test]
    fn a_full_window_replaces_its_first_entry() {
        let mut index = SlotIndex::new(64);
        for slot in 0..WINDOW {
            let Vacancy::Free(pos) = index.vacancy(42) else {
                panic!("window full after {slot}");
            };
            index.put(pos, 42, slot);
        }
        let Vacancy::Full { pos, slot } = index.vacancy(42) else {
            panic!("window of one hash must be full");
        };
        assert_eq!(slot, 0);
        index.put(pos, 42, 99);
        assert_eq!(index.find(42, |s| s == 0), None);
        assert_eq!(index.find(42, |s| s == 99), Some(99));
        assert_invariant(&index);
    }

    #[test]
    fn hash_avalanches_single_bit_changes() {
        let hash = |words: &[u64]| {
            let mut h = WordHash::new();
            words.iter().for_each(|&w| h.add(w));
            h.finish()
        };
        let base = [
            0u64,
            32,
            25f64.to_bits(),
            200f64.to_bits(),
            0,
            1000f64.to_bits(),
        ];
        let h0 = hash(&base);
        let mut flips = 0;
        let mut trials = 0;
        for word in 0..base.len() {
            for bit in 0..64 {
                let mut w = base;
                w[word] ^= 1 << bit;
                flips += (hash(&w) ^ h0).count_ones();
                trials += 1;
            }
        }
        let mean = flips as f64 / trials as f64;
        assert!((28.0..36.0).contains(&mean), "mean flipped bits {mean}");
    }
}
