//! One stable argsort by packed key, shared by every lexicographic
//! layout: the CSF (and its swapped order), the §IV-C fiber profile,
//! the linearized order, Lexi-Order's renumbering and the HiCOO/ALTO
//! baselines. `CooTensor::sort_dedup` shares its keys and comparator
//! but not its tie rule ([`unstable_argsort`]).
//!
//! An item's key is a tuple of unsigned fields compared most
//! significant first ([`Keys`]). When the key's bits plus the bits of
//! the item index fit a `u64` (else a `u128`), each item becomes one
//! record `key << idx_bits | index`. Records are distinct, so sorting
//! them by value is a *stable* argsort: equal keys keep their input
//! order, and duplicates merge in input order wherever a scan sums
//! them.
//!
//! The sort makes one counting pass over the records' top 11 bits
//! (inputs under 4096 items are one bucket), writes every record
//! straight into its bucket,
//! and sorts each bucket with `sort_unstable`. That sort is adaptive:
//! a bucket that is already in order (as it is for the suite tensors
//! and most `.tns` files in their stored order) costs one linear check.
//! Keys too wide for a `u128` record keep a comparison argsort of a
//! `u32` permutation with the same tie rule — the only second path.
//!
//! A [`Cursor`] reads the result in order: each item's source index,
//! its fields, and the first field in which it differs from its
//! predecessor. On records the fields are read out of the sorted word
//! and the first differing field comes from the leading bit of
//! `prev ^ rec`, so scans never go back to the source columns.

use core::cmp::Ordering;

/// Bits of each record the counting pass buckets on (at most 2¹¹
/// buckets).
const RADIX_BITS: u32 = 11;

/// Inputs shorter than this are sorted as one bucket.
const BUCKETED_MIN: usize = 1 << 12;

/// A record word: `u64` or `u128`.
pub trait Word: Copy + Ord + Send + Sync {
    /// Width in bits.
    const BITS: u32;
    /// All bits clear.
    const ZERO: Self;
    /// Widens a `u64`.
    fn from_u64(x: u64) -> Self;
    /// Bits 0..64.
    fn low_u64(self) -> u64;
    /// Left shift; 0 when `s >= BITS`.
    fn shl(self, s: u32) -> Self;
    /// Right shift; 0 when `s >= BITS`.
    fn shr(self, s: u32) -> Self;
    /// Bitwise or.
    fn or(self, o: Self) -> Self;
    /// Bitwise xor.
    fn xor(self, o: Self) -> Self;
    /// Leading zero bits.
    fn leading_zeros(self) -> u32;
    /// Bit `p < BITS`.
    fn bit(self, p: u32) -> u64;
}

macro_rules! impl_word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            const BITS: u32 = <$t>::BITS;
            const ZERO: Self = 0;
            #[inline(always)]
            fn from_u64(x: u64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn low_u64(self) -> u64 {
                self as u64
            }
            #[inline(always)]
            fn shl(self, s: u32) -> Self {
                self.checked_shl(s).unwrap_or(0)
            }
            #[inline(always)]
            fn shr(self, s: u32) -> Self {
                self.checked_shr(s).unwrap_or(0)
            }
            #[inline(always)]
            fn or(self, o: Self) -> Self {
                self | o
            }
            #[inline(always)]
            fn xor(self, o: Self) -> Self {
                self ^ o
            }
            #[inline(always)]
            fn leading_zeros(self) -> u32 {
                <$t>::leading_zeros(self)
            }
            #[inline(always)]
            fn bit(self, p: u32) -> u64 {
                ((self >> p) & 1) as u64
            }
        }
    )*};
}
impl_word!(u64, u128);

/// Bits needed to store every value in `0..n` (0 for `n <= 1`).
#[inline]
pub fn bits_for(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// The items to sort: `len()` keys of `widths().len()` fields each.
/// Field `f` is `widths()[f]` bits wide (at most 64) and compares before
/// field `f + 1`.
pub trait Keys {
    /// Number of items.
    fn len(&self) -> usize;
    /// Whether there are no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Bit width of each field, most significant first.
    fn widths(&self) -> &[u32];
    /// Field `f` of item `i`; less than `2^widths()[f]`.
    fn field(&self, i: usize, f: usize) -> u64;
}

/// `u32` columns as key fields: field `f` of item `i` is `cols[f][i]`,
/// as wide as a coordinate below `dims[f]` needs.
pub struct Columns<'a> {
    cols: Vec<&'a [u32]>,
    widths: Vec<u32>,
}

impl<'a> Columns<'a> {
    /// Fields `cols`, with `cols[f]`'s values below `dims[f]`.
    pub fn new(cols: Vec<&'a [u32]>, dims: &[usize]) -> Self {
        assert_eq!(cols.len(), dims.len());
        let widths = dims.iter().map(|&n| bits_for(n)).collect();
        Columns { cols, widths }
    }

    /// Exchanges the last two fields.
    pub fn swap_last_two(&mut self) {
        let k = self.cols.len();
        self.cols.swap(k - 2, k - 1);
        self.widths.swap(k - 2, k - 1);
    }
}

impl Keys for Columns<'_> {
    fn len(&self) -> usize {
        self.cols.first().map_or(0, |c| c.len())
    }
    fn widths(&self) -> &[u32] {
        &self.widths
    }
    #[inline(always)]
    fn field(&self, i: usize, f: usize) -> u64 {
        self.cols[f][i] as u64
    }
}

/// Precomputed keys of `bits <= 128` bits, as one field (`bits <= 64`)
/// or as the bits above 64 followed by the low 64.
pub struct WordKeys<'a, W> {
    keys: &'a [W],
    widths: Vec<u32>,
}

impl<'a, W: Word> WordKeys<'a, W> {
    /// Keys `keys`, each below `2^bits`.
    pub fn new(keys: &'a [W], bits: u32) -> Self {
        assert!(bits <= W::BITS);
        let widths = if bits <= 64 {
            vec![bits]
        } else {
            vec![bits - 64, 64]
        };
        WordKeys { keys, widths }
    }

    /// Reassembles the key from its fields.
    #[inline(always)]
    pub fn join(&self, fields: impl Fn(usize) -> u64) -> W {
        if self.widths.len() == 1 {
            W::from_u64(fields(0))
        } else {
            W::from_u64(fields(0)).shl(64).or(W::from_u64(fields(1)))
        }
    }
}

impl<W: Word> Keys for WordKeys<'_, W> {
    fn len(&self) -> usize {
        self.keys.len()
    }
    fn widths(&self) -> &[u32] {
        &self.widths
    }
    #[inline(always)]
    fn field(&self, i: usize, f: usize) -> u64 {
        if self.widths.len() == 2 && f == 0 {
            self.keys[i].shr(64).low_u64()
        } else {
            self.keys[i].low_u64()
        }
    }
}

/// Where each field sits in a record.
#[derive(Clone, Debug)]
struct Layout {
    widths: Vec<u32>,
    /// Bit offset of each field in the record.
    shifts: Vec<u32>,
    masks: Vec<u64>,
    idx_bits: u32,
    idx_mask: u64,
    /// `field_of_bit[b]` = the field holding key bit `b` (bit 0 is the
    /// key's least significant bit, just above the index).
    field_of_bit: Vec<u8>,
}

impl Layout {
    fn new(widths: &[u32], idx_bits: u32) -> Self {
        assert!(
            widths.iter().all(|&w| w <= 64),
            "key fields are at most 64 bits"
        );
        let k = widths.len();
        let mut shifts = vec![0; k];
        let mut field_of_bit = Vec::new();
        let mut at = idx_bits;
        for f in (0..k).rev() {
            shifts[f] = at;
            at += widths[f];
            field_of_bit.extend(std::iter::repeat_n(f as u8, widths[f] as usize));
        }
        let mask = |w: u32| u64::MAX.checked_shr(64 - w).unwrap_or(0);
        Layout {
            widths: widths.to_vec(),
            shifts,
            masks: widths.iter().map(|&w| mask(w)).collect(),
            idx_bits,
            idx_mask: mask(idx_bits),
            field_of_bit,
        }
    }

    fn total_bits(&self) -> u32 {
        self.idx_bits + self.field_of_bit.len() as u32
    }

    #[inline(always)]
    fn pack<W: Word, K: Keys>(&self, keys: &K, i: usize) -> W {
        let mut r = W::from_u64(i as u64);
        for f in 0..self.widths.len() {
            r = r.or(W::from_u64(keys.field(i, f)).shl(self.shifts[f]));
        }
        r
    }

    #[inline(always)]
    fn field<W: Word>(&self, r: W, f: usize) -> u64 {
        r.shr(self.shifts[f]).low_u64() & self.masks[f]
    }

    #[inline(always)]
    fn src<W: Word>(&self, r: W) -> usize {
        (r.low_u64() & self.idx_mask) as usize
    }

    #[inline(always)]
    fn first_diff<W: Word>(&self, prev: W, r: W) -> usize {
        let x = prev.xor(r).shr(self.idx_bits);
        if x == W::ZERO {
            self.widths.len()
        } else {
            self.field_of_bit[(W::BITS - 1 - x.leading_zeros()) as usize] as usize
        }
    }
}

enum Store {
    U64(Vec<u64>),
    U128(Vec<u128>),
    /// The fallback: a permutation sorted by comparison.
    Perm(Vec<u32>),
}

/// Items in ascending key order, ties in input order. Read it through
/// [`Sorted::view`] with the keys it was sorted by.
pub struct Sorted {
    store: Store,
    layout: Layout,
}

/// Sorts `keys` (see the module docs).
///
/// # Panics
/// Panics if there are more than `u32::MAX` items.
pub fn sort<K: Keys>(keys: &K) -> Sorted {
    let n = keys.len();
    assert!(n <= u32::MAX as usize, "at most u32::MAX items");
    let layout = Layout::new(keys.widths(), bits_for(n));
    let store = match layout.total_bits() {
        0..=64 => Store::U64(sort_records(keys, &layout)),
        65..=128 => Store::U128(sort_records(keys, &layout)),
        _ => Store::Perm(sort_perm(keys)),
    };
    Sorted { store, layout }
}

/// Packs every item, counts the records per top-bits bucket, places
/// each record in its bucket, and sorts each bucket.
fn sort_records<W: Word, K: Keys>(keys: &K, layout: &Layout) -> Vec<W> {
    let n = keys.len();
    let total = layout.total_bits();
    let radix = if n < BUCKETED_MIN {
        0
    } else {
        RADIX_BITS.min(total)
    };
    let shift = total - radix;
    let bucket = |r: W| r.shr(shift).low_u64() as usize;
    let mut next = vec![0usize; 1 << radix];
    for i in 0..n {
        next[bucket(layout.pack::<W, K>(keys, i))] += 1;
    }
    let mut start = 0;
    for slot in next.iter_mut() {
        let count = *slot;
        *slot = start;
        start += count;
    }
    let mut recs = vec![W::ZERO; n];
    for i in 0..n {
        let r = layout.pack::<W, K>(keys, i);
        let slot = &mut next[bucket(r)];
        recs[*slot] = r;
        *slot += 1;
    }
    // `next[b]` is now bucket `b`'s end.
    let mut lo = 0;
    for &hi in &next {
        recs[lo..hi].sort_unstable();
        lo = hi;
    }
    recs
}

/// Compares items `a` and `b` by their fields.
fn cmp_fields<K: Keys>(keys: &K, a: usize, b: usize) -> Ordering {
    (0..keys.widths().len())
        .map(|f| keys.field(a, f).cmp(&keys.field(b, f)))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Compares items `a` and `b` by their fields, then by index.
fn cmp_items<K: Keys>(keys: &K, a: usize, b: usize) -> Ordering {
    cmp_fields(keys, a, b).then(a.cmp(&b))
}

fn sort_perm<K: Keys>(keys: &K) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..keys.len() as u32).collect();
    perm.sort_unstable_by(|&a, &b| cmp_items(keys, a as usize, b as usize));
    perm
}

/// The permutation that sorts `keys` with equal keys in whatever order
/// `sort_unstable_by` leaves them — not [`sort`]'s input order. Only
/// [`crate::CooTensor::sort_dedup`] uses it: the generated suite tensors
/// merge their duplicates through it, and their values (and every fit
/// pinned on them) depend on that summation order.
pub fn unstable_argsort<K: Keys>(keys: &K) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..keys.len() as u32).collect();
    perm.sort_unstable_by(|&a, &b| cmp_fields(keys, a as usize, b as usize));
    perm
}

impl Sorted {
    /// Number of items.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::U64(r) => r.len(),
            Store::U128(r) => r.len(),
            Store::Perm(p) => p.len(),
        }
    }

    /// Whether there are no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the keys fell back to the comparison sort.
    #[cfg(test)]
    fn is_fallback(&self) -> bool {
        matches!(self.store, Store::Perm(_))
    }

    /// Reads the order; `keys` must be the keys it was sorted by.
    pub fn view<'a, K: Keys>(&'a self, keys: &'a K) -> View<'a, K> {
        let layout = &self.layout;
        match &self.store {
            Store::U64(recs) => View::U64(Records { recs, layout }),
            Store::U128(recs) => View::U128(Records { recs, layout }),
            Store::Perm(perm) => View::Perm(Permuted { perm, keys }),
        }
    }

    /// Re-sorts for the keys with their last two fields exchanged,
    /// `swapped` (which must be those keys): only within each run of
    /// items whose other fields are equal, since the runs' order does
    /// not change.
    pub fn swap_last_two<K: Keys>(&mut self, swapped: &K) {
        let layout = Layout::new(swapped.widths(), self.layout.idx_bits);
        match &mut self.store {
            Store::U64(recs) => swap_records(recs, &self.layout, &layout),
            Store::U128(recs) => swap_records(recs, &self.layout, &layout),
            Store::Perm(perm) => {
                let k = layout.widths.len();
                let prefix = |e: u32| (0..k - 2).map(move |f| swapped.field(e as usize, f));
                for run in perm.chunk_by_mut(|&a, &b| prefix(a).eq(prefix(b))) {
                    run.sort_unstable_by(|&a, &b| cmp_items(swapped, a as usize, b as usize));
                }
            }
        }
        self.layout = layout;
    }
}

/// Rewrites each record's last two fields in `new`'s order and sorts
/// each run of records that share every other field.
fn swap_records<W: Word>(recs: &mut [W], old: &Layout, new: &Layout) {
    let k = old.widths.len();
    let low = old.shifts[k - 2] + old.widths[k - 2];
    for r in recs.iter_mut() {
        let (a, b) = (old.field(*r, k - 2), old.field(*r, k - 1));
        *r = r
            .shr(low)
            .shl(low)
            .or(W::from_u64(b).shl(new.shifts[k - 2]))
            .or(W::from_u64(a).shl(new.shifts[k - 1]))
            .or(W::from_u64(old.src(*r) as u64));
    }
    for run in recs.chunk_by_mut(|a, b| a.shr(low) == b.shr(low)) {
        run.sort_unstable();
    }
}

/// Sequential read access to a sorted order.
pub trait Cursor {
    /// Number of items.
    fn len(&self) -> usize;
    /// Whether there are no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Source index of the `i`-th item in order.
    fn src(&self, i: usize) -> usize;
    /// Field `f` of the `i`-th item's key.
    fn field(&self, i: usize, f: usize) -> u64;
    /// The first field in which item `i >= 1` differs from item `i - 1`;
    /// the field count when their keys are equal.
    fn first_diff(&self, i: usize) -> usize;
}

/// A [`Cursor`] over packed records.
pub struct Records<'a, W> {
    recs: &'a [W],
    layout: &'a Layout,
}

impl<W: Word> Cursor for Records<'_, W> {
    fn len(&self) -> usize {
        self.recs.len()
    }
    #[inline(always)]
    fn src(&self, i: usize) -> usize {
        self.layout.src(self.recs[i])
    }
    #[inline(always)]
    fn field(&self, i: usize, f: usize) -> u64 {
        self.layout.field(self.recs[i], f)
    }
    #[inline(always)]
    fn first_diff(&self, i: usize) -> usize {
        self.layout.first_diff(self.recs[i - 1], self.recs[i])
    }
}

/// A [`Cursor`] over the fallback permutation; fields are read from the
/// keys.
pub struct Permuted<'a, K> {
    perm: &'a [u32],
    keys: &'a K,
}

impl<K: Keys> Cursor for Permuted<'_, K> {
    fn len(&self) -> usize {
        self.perm.len()
    }
    #[inline(always)]
    fn src(&self, i: usize) -> usize {
        self.perm[i] as usize
    }
    #[inline(always)]
    fn field(&self, i: usize, f: usize) -> u64 {
        self.keys.field(self.perm[i] as usize, f)
    }
    fn first_diff(&self, i: usize) -> usize {
        let k = self.keys.widths().len();
        (0..k)
            .find(|&f| self.field(i, f) != self.field(i - 1, f))
            .unwrap_or(k)
    }
}

/// The cursor a [`Sorted`] offers; [`with_cursor!`](crate::with_cursor)
/// runs one scan body on whichever it is.
pub enum View<'a, K> {
    /// Records in a `u64`.
    U64(Records<'a, u64>),
    /// Records in a `u128`.
    U128(Records<'a, u128>),
    /// The comparison-sorted permutation.
    Perm(Permuted<'a, K>),
}

/// `with_cursor!(view, |c| body)` evaluates `body` with `c` bound to the
/// [`Cursor`] inside `view` (a [`View`]), compiling `body` once per
/// cursor type so scans stay monomorphic.
#[macro_export]
macro_rules! with_cursor {
    ($view:expr, |$c:ident| $body:expr) => {
        match $view {
            $crate::keysort::View::U64($c) => $body,
            $crate::keysort::View::U128($c) => $body,
            $crate::keysort::View::Perm($c) => $body,
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order_of<K: Keys>(keys: &K) -> (Vec<usize>, bool) {
        let sorted = sort(keys);
        let order = with_cursor!(sorted.view(keys), |c| (0..c.len())
            .map(|i| c.src(i))
            .collect());
        (order, sorted.is_fallback())
    }

    fn reference<K: Keys>(keys: &K) -> Vec<usize> {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by(|&a, &b| cmp_items(keys, a, b));
        order
    }

    fn columns(dims: &[usize], n: usize, seed: u64) -> Vec<Vec<u32>> {
        let mut x = seed | 1;
        dims.iter()
            .map(|&dim| {
                (0..n)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((x >> 33) % dim as u64) as u32
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn every_record_width_is_a_stable_argsort() {
        // 12 + 20 bits + index: u64; 3 x 31 bits + index: u128; 5 x 28
        // bits: the comparison fallback. Small dims force ties.
        for (dims, n, fallback) in [
            (vec![4096usize, 1 << 20], 9000, false),
            (vec![3, 2, 5], 5000, false),
            (vec![1 << 31, 1 << 31, 1 << 31], 6000, false),
            (vec![1 << 28; 5], 3000, true),
        ] {
            let cols = columns(&dims, n, dims.len() as u64);
            let keys = Columns::new(cols.iter().map(|c| c.as_slice()).collect(), &dims);
            let (order, is_fallback) = order_of(&keys);
            assert_eq!(is_fallback, fallback, "{dims:?}");
            assert_eq!(order, reference(&keys), "{dims:?}");
        }
    }

    #[test]
    fn cursor_reads_fields_and_first_difference() {
        let dims = [3usize, 1 << 30, 7];
        let cols = columns(&dims, 5000, 9);
        let keys = Columns::new(cols.iter().map(|c| c.as_slice()).collect(), &dims);
        let sorted = sort(&keys);
        with_cursor!(sorted.view(&keys), |c| {
            for i in 0..c.len() {
                for f in 0..3 {
                    assert_eq!(c.field(i, f), cols[f][c.src(i)] as u64);
                }
                if i > 0 {
                    let want = (0..3)
                        .find(|&f| c.field(i, f) != c.field(i - 1, f))
                        .unwrap_or(3);
                    assert_eq!(c.first_diff(i), want);
                }
            }
        });
    }

    #[test]
    fn swapping_the_last_two_fields_matches_a_fresh_sort() {
        for dims in [vec![5usize, 9, 4], vec![1 << 28; 5], vec![13, 1 << 31]] {
            let cols = columns(&dims, 4000, 3);
            let mut keys = Columns::new(cols.iter().map(|c| c.as_slice()).collect(), &dims);
            let mut sorted = sort(&keys);
            keys.swap_last_two();
            sorted.swap_last_two(&keys);
            let got = with_cursor!(sorted.view(&keys), |c| (0..c.len())
                .map(|i| c.src(i))
                .collect::<Vec<_>>());
            assert_eq!(got, reference(&keys), "{dims:?}");
        }
    }

    #[test]
    fn word_keys_split_past_64_bits() {
        let keys: Vec<u128> = (0..3000u128)
            .map(|i| (i * 0x9E37_79B9_7F4A_7C15_F39C) % (1 << 100))
            .collect();
        let wk = WordKeys::new(&keys, 100);
        let (order, _) = order_of(&wk);
        let mut want: Vec<usize> = (0..keys.len()).collect();
        want.sort_by_key(|&i| keys[i]);
        assert_eq!(order, want);
        assert_eq!(wk.join(|f| wk.field(7, f)), keys[7]);
    }
}
