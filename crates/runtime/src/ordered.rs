//! Ordered aggregate index: one bucket of a view's entries kept in key order
//! with subtree multiplicity sums, so a range sum costs O(log n).
//!
//! A [`SumTree`] holds the entries of one hash bucket (one value of the bound
//! key prefix) ordered on the remaining key column by [`Value`]'s own
//! ordering — the comparison `CmpFilter` evaluates, so "every entry the filter
//! `k > b` keeps" is exactly "every entry right of `b` in the tree". It is a
//! treap over an index arena: each node carries its multiplicity and the sum
//! of its subtree, recomputed from the children on every change, so an
//! insert, update or removal is O(log n) expected and a range sum is two
//! root-to-leaf descents.
//!
//! ## Exactness
//!
//! A range sum reassociates the float additions a traversal does in map
//! order, so the tree answers only when every such order gives the same bits.
//! Three O(1) counters guard that:
//!
//! * `inexact` counts multiplicities that are not finite integers within
//!   ±2^53, and `abs_sum` is Σ|m| over the rest. With no inexact entry and
//!   `abs_sum < 2^53`, every partial sum of every subset is an integer of
//!   magnitude below 2^53, so every addition is exact in any order.
//! * `wide` counts entries keyed by a `Long` beyond ±2^53. Those compare
//!   against doubles through a rounding cast, which breaks the transitivity a
//!   search tree relies on, so they are counted but never stored, and the
//!   tree does not answer while any exists.
//! * `nonintegral` counts keys that are not nonzero integral numbers within
//!   ±2^53. A bound rearranged across arithmetic (`p - k > c` asked as
//!   `k < p - c`, see [`KeyRange::slack`]) is only exact over such keys.
//!
//! Because subtree sums are recomputed rather than adjusted by deltas, an
//! inexact multiplicity leaves no residue once it is gone: the tree answers
//! again as soon as the counters clear.

use dbtoaster_agca::eval::{exactly_ordered, KeyRange};
use dbtoaster_gmr::Value;
use std::cmp::Ordering;

const NIL: u32 = u32::MAX;
/// Every integer of at most this magnitude is an exact `f64`.
const EXACT: f64 = (1u64 << 53) as f64;

#[derive(Clone, Debug)]
struct Node {
    key: Value,
    mult: f64,
    /// `mult` plus both subtrees' sums.
    sum: f64,
    prio: u64,
    left: u32,
    right: u32,
}

/// One bucket of an ordered aggregate index (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct SumTree {
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: u32,
    /// Priority generator state (a fixed seed: the shape never affects a
    /// result, only the balance).
    rng: u64,
    inexact: u32,
    abs_sum: u128,
    wide: u32,
    nonintegral: u32,
}

impl Default for SumTree {
    fn default() -> Self {
        SumTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            rng: 0x9e37_79b9_7f4a_7c15,
            inexact: 0,
            abs_sum: 0,
            wide: 0,
            nonintegral: 0,
        }
    }
}

fn exact_mult(m: f64) -> bool {
    m.is_finite() && m.fract() == 0.0 && m.abs() <= EXACT
}

fn integral_key(v: &Value) -> bool {
    match v {
        Value::Long(x) => *x != 0 && x.unsigned_abs() <= 1u64 << 53,
        Value::Double(d) => d.is_finite() && d.fract() == 0.0 && *d != 0.0 && d.abs() <= EXACT,
        Value::Str(_) => false,
    }
}

impl SumTree {
    /// No entries at all (stored or counted)?
    pub(crate) fn is_empty(&self) -> bool {
        self.root == NIL && self.wide == 0
    }

    /// Add a new entry.
    pub(crate) fn insert(&mut self, key: &Value, mult: f64) {
        if !exactly_ordered(key) {
            self.wide += 1;
            return;
        }
        self.count(mult, true);
        self.nonintegral += !integral_key(key) as u32;
        let prio = self.next_prio();
        let node = Node {
            key: key.clone(),
            mult,
            sum: mult,
            prio,
            left: NIL,
            right: NIL,
        };
        let n = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.root = self.insert_at(self.root, n);
    }

    /// Set an existing entry's multiplicity.
    pub(crate) fn update(&mut self, key: &Value, mult: f64) {
        if !exactly_ordered(key) {
            return;
        }
        match self.update_at(self.root, key, mult) {
            Some(old) => {
                self.count(old, false);
                self.count(mult, true);
            }
            None => debug_assert!(false, "ordered index lost key {key}"),
        }
    }

    /// Remove an entry.
    pub(crate) fn remove(&mut self, key: &Value) {
        if !exactly_ordered(key) {
            self.wide -= 1;
            return;
        }
        let (root, old) = self.remove_at(self.root, key);
        self.root = root;
        match old {
            Some(old) => {
                self.count(old, false);
                self.nonintegral -= !integral_key(key) as u32;
            }
            None => debug_assert!(false, "ordered index lost key {key}"),
        }
    }

    /// The exact multiplicity sum over the keys in `range`, or `None` when a
    /// guard in the module docs does not hold.
    pub(crate) fn range_sum(&self, range: &KeyRange) -> Option<f64> {
        if self.wide > 0 || self.inexact > 0 || self.abs_sum >= 1u128 << 53 {
            return None;
        }
        let (lo, hi) = (range.lo.as_ref(), range.hi.as_ref());
        if lo.into_iter().chain(hi).any(|(b, _)| !exactly_ordered(b)) {
            return None;
        }
        if let Some(slack) = range.slack {
            // A NaN slack compares as unordered and is refused too.
            let span = slack + self.max_abs_key();
            if self.nonintegral > 0 || span.partial_cmp(&EXACT) != Some(Ordering::Less) {
                return None;
            }
        }
        if let (Some((l, li)), Some((h, hi_inc))) = (lo, hi) {
            match l.total_cmp(h) {
                Ordering::Greater => return Some(0.0),
                Ordering::Equal if !(*li && *hi_inc) => return Some(0.0),
                _ => {}
            }
        }
        let upper = match hi {
            Some((b, inclusive)) => self.below(b, *inclusive),
            None => self.sum_of(self.root),
        };
        let lower = match lo {
            Some((b, inclusive)) => self.below(b, !*inclusive),
            None => 0.0,
        };
        Some(upper - lower)
    }

    /// Approximate heap footprint in bytes.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>() + self.free.capacity() * 4
    }

    fn count(&mut self, mult: f64, add: bool) {
        if exact_mult(mult) {
            let a = mult.abs() as u128;
            if add {
                self.abs_sum += a;
            } else {
                self.abs_sum -= a;
            }
        } else if add {
            self.inexact += 1;
        } else {
            self.inexact -= 1;
        }
    }

    /// splitmix64.
    fn next_prio(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn sum_of(&self, t: u32) -> f64 {
        if t == NIL {
            0.0
        } else {
            self.nodes[t as usize].sum
        }
    }

    fn pull(&mut self, t: u32) {
        let n = &self.nodes[t as usize];
        let sum = self.sum_of(n.left) + n.mult + self.sum_of(n.right);
        self.nodes[t as usize].sum = sum;
    }

    /// Σ mult over the keys ordered before `bound` (or equal to it, when
    /// `inclusive`).
    fn below(&self, bound: &Value, inclusive: bool) -> f64 {
        let (mut t, mut acc) = (self.root, 0.0);
        while t != NIL {
            let n = &self.nodes[t as usize];
            let ord = n.key.total_cmp(bound);
            if ord == Ordering::Less || (inclusive && ord == Ordering::Equal) {
                acc += self.sum_of(n.left) + n.mult;
                t = n.right;
            } else {
                t = n.left;
            }
        }
        acc
    }

    /// Largest |key| (every stored key is numeric when this is consulted).
    fn max_abs_key(&self) -> f64 {
        let extreme = |mut t: u32, left: bool| {
            let mut key = 0.0f64;
            while t != NIL {
                let n = &self.nodes[t as usize];
                key = n.key.as_f64().unwrap_or(f64::INFINITY);
                t = if left { n.left } else { n.right };
            }
            key.abs()
        };
        extreme(self.root, true).max(extreme(self.root, false))
    }

    fn rotate_right(&mut self, t: u32) -> u32 {
        let l = self.nodes[t as usize].left;
        self.nodes[t as usize].left = self.nodes[l as usize].right;
        self.nodes[l as usize].right = t;
        self.pull(t);
        self.pull(l);
        l
    }

    fn rotate_left(&mut self, t: u32) -> u32 {
        let r = self.nodes[t as usize].right;
        self.nodes[t as usize].right = self.nodes[r as usize].left;
        self.nodes[r as usize].left = t;
        self.pull(t);
        self.pull(r);
        r
    }

    fn insert_at(&mut self, t: u32, n: u32) -> u32 {
        if t == NIL {
            return n;
        }
        let (ti, prio) = (t as usize, self.nodes[n as usize].prio);
        if self.nodes[n as usize].key.total_cmp(&self.nodes[ti].key) == Ordering::Less {
            let l = self.insert_at(self.nodes[ti].left, n);
            self.nodes[ti].left = l;
            if l == n && prio > self.nodes[ti].prio {
                return self.rotate_right(t);
            }
        } else {
            let r = self.insert_at(self.nodes[ti].right, n);
            self.nodes[ti].right = r;
            if r == n && prio > self.nodes[ti].prio {
                return self.rotate_left(t);
            }
        }
        self.pull(t);
        t
    }

    fn update_at(&mut self, t: u32, key: &Value, mult: f64) -> Option<f64> {
        if t == NIL {
            return None;
        }
        let ti = t as usize;
        let old = match key.total_cmp(&self.nodes[ti].key) {
            Ordering::Less => self.update_at(self.nodes[ti].left, key, mult),
            Ordering::Greater => self.update_at(self.nodes[ti].right, key, mult),
            Ordering::Equal => Some(std::mem::replace(&mut self.nodes[ti].mult, mult)),
        };
        self.pull(t);
        old
    }

    fn remove_at(&mut self, t: u32, key: &Value) -> (u32, Option<f64>) {
        if t == NIL {
            return (NIL, None);
        }
        let ti = t as usize;
        match key.total_cmp(&self.nodes[ti].key) {
            Ordering::Less => {
                let (l, old) = self.remove_at(self.nodes[ti].left, key);
                self.nodes[ti].left = l;
                self.pull(t);
                (t, old)
            }
            Ordering::Greater => {
                let (r, old) = self.remove_at(self.nodes[ti].right, key);
                self.nodes[ti].right = r;
                self.pull(t);
                (t, old)
            }
            Ordering::Equal => {
                let Node {
                    mult, left, right, ..
                } = self.nodes[ti];
                // Drop the key (it may hold a shared string) and recycle.
                self.nodes[ti].key = Value::Long(0);
                self.free.push(t);
                (self.merge(left, right), Some(mult))
            }
        }
    }

    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.nodes[a as usize].prio > self.nodes[b as usize].prio {
            let r = self.merge(self.nodes[a as usize].right, b);
            self.nodes[a as usize].right = r;
            self.pull(a);
            a
        } else {
            let l = self.merge(a, self.nodes[b as usize].left);
            self.nodes[b as usize].left = l;
            self.pull(b);
            b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic xorshift stream for the randomized checks.
    fn rng(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    fn brute(entries: &[(Value, f64)], range: &KeyRange) -> f64 {
        let inside = |k: &Value| {
            range
                .lo
                .as_ref()
                .is_none_or(|(b, inc)| if *inc { k >= b } else { k > b })
                && range
                    .hi
                    .as_ref()
                    .is_none_or(|(b, inc)| if *inc { k <= b } else { k < b })
        };
        entries
            .iter()
            .filter(|(k, _)| inside(k))
            .fold(0.0, |acc, (_, m)| acc + m)
    }

    #[test]
    fn random_updates_match_brute_force_and_stay_balanced() {
        let mut seed = 0x2545_f491_4f6c_dd1d;
        let mut tree = SumTree::default();
        let mut entries: Vec<(Value, f64)> = Vec::new();
        for step in 0..4000 {
            let k = (rng(&mut seed) % 300) as i64 - 150;
            // Mix the numeric types of one key space: `Long(3)` and
            // `Double(3.0)` (and `-0.0` / `0`) are one entry, identified by
            // the key it was first stored under.
            let key = match rng(&mut seed) % 3 {
                0 if k == 0 => Value::double(-0.0),
                0 => Value::double(k as f64),
                _ => Value::long(k),
            };
            let delta = (rng(&mut seed) % 7) as f64 - 3.0;
            match entries.iter().position(|(e, _)| *e == key) {
                Some(i) => {
                    let m = entries[i].1 + delta;
                    if m == 0.0 {
                        tree.remove(&entries[i].0);
                        entries.swap_remove(i);
                    } else {
                        entries[i].1 = m;
                        tree.update(&entries[i].0, m);
                    }
                }
                None if delta != 0.0 => {
                    tree.insert(&key, delta);
                    entries.push((key, delta));
                }
                None => {}
            }
            if step % 50 == 0 {
                let b1 = Value::long((rng(&mut seed) % 340) as i64 - 170);
                let b2 = Value::double((rng(&mut seed) % 340) as f64 - 170.0);
                for range in [
                    KeyRange {
                        lo: Some((b1.clone(), false)),
                        ..KeyRange::default()
                    },
                    KeyRange {
                        hi: Some((b2.clone(), true)),
                        ..KeyRange::default()
                    },
                    KeyRange {
                        lo: Some((b1.clone(), true)),
                        hi: Some((b2.clone(), false)),
                        slack: None,
                    },
                ] {
                    let got = tree.range_sum(&range).expect("integral tree answers");
                    assert_eq!(got.to_bits(), brute(&entries, &range).to_bits());
                }
            }
        }
        // Expected depth of a treap is O(log n); 4000 steps over 300 keys
        // must stay far below a degenerate list.
        fn depth(t: &SumTree, n: u32) -> usize {
            if n == NIL {
                0
            } else {
                let n = &t.nodes[n as usize];
                1 + depth(t, n.left).max(depth(t, n.right))
            }
        }
        assert!(depth(&tree, tree.root) < 40);
    }

    #[test]
    fn guards_refuse_inexact_state_and_recover_when_it_leaves() {
        let mut t = SumTree::default();
        t.insert(&Value::long(1), 2.0);
        t.insert(&Value::long(2), 0.5);
        let all = KeyRange::default();
        assert_eq!(t.range_sum(&all), None);
        t.remove(&Value::long(2));
        assert_eq!(t.range_sum(&all), Some(2.0));
        // A wide Long key is counted, never stored.
        t.insert(&Value::long(i64::MAX), 1.0);
        assert_eq!(t.range_sum(&all), None);
        t.remove(&Value::long(i64::MAX));
        assert_eq!(t.range_sum(&all), Some(2.0));
        // A wide bound is refused.
        let wide = KeyRange {
            lo: Some((Value::long(1 << 60), false)),
            ..KeyRange::default()
        };
        assert_eq!(t.range_sum(&wide), None);
        // Rearranged bounds need integral keys and headroom.
        let slack = |s: f64| KeyRange {
            slack: Some(s),
            ..KeyRange::default()
        };
        assert_eq!(t.range_sum(&slack(10.0)), Some(2.0));
        assert_eq!(t.range_sum(&slack(EXACT)), None);
        t.insert(&Value::double(2.5), 1.0);
        assert_eq!(t.range_sum(&slack(10.0)), None);
        assert_eq!(t.range_sum(&all), Some(3.0));
        // Σ|m| reaching 2^53 is refused even though each entry is exact.
        t.insert(&Value::long(9), EXACT);
        assert_eq!(t.range_sum(&all), None);
    }

    #[test]
    fn nan_and_signed_zero_keys_order_like_filters() {
        let mut t = SumTree::default();
        let keys = [
            Value::double(f64::NAN),
            Value::double(-f64::NAN),
            Value::double(-0.0),
            Value::long(3),
            Value::double(f64::INFINITY),
            Value::str("s"),
        ];
        let entries: Vec<(Value, f64)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), (i + 1) as f64))
            .collect();
        for (k, m) in &entries {
            t.insert(k, *m);
        }
        for b in [
            Value::long(0),
            Value::double(-0.0),
            Value::double(f64::NAN),
            Value::double(f64::NEG_INFINITY),
            Value::str("a"),
        ] {
            for inc in [false, true] {
                for range in [
                    KeyRange {
                        lo: Some((b.clone(), inc)),
                        ..KeyRange::default()
                    },
                    KeyRange {
                        hi: Some((b.clone(), inc)),
                        ..KeyRange::default()
                    },
                ] {
                    assert_eq!(t.range_sum(&range), Some(brute(&entries, &range)));
                }
            }
        }
    }
}
