//! Fixed-size nearest-`K` selection over a stream of points.
//!
//! Both pingClient kernels, the marketplace's per-tier nearest-8 and the
//! taxi replay's, answer a query with one pass over every candidate,
//! offering each one's squared distance to a [`NearestK`]. At the sizes
//! they scan (tens of cars per tier, a few hundred taxis) one pass is
//! cheaper than building and searching a spatial index every tick, and it
//! needs no heap: the kept entries live in two stack arrays.

/// The `K` nearest points offered so far, nearest first.
///
/// Entries are ordered by [`f64::total_cmp`] on the squared distance.
/// Only a strictly nearer point displaces the `K`-th entry, and a point
/// tied with a kept one ranks after it, so offering points in index order
/// keeps exactly the first `K` of a stable sort by
/// [`Meters::dist2`](crate::Meters::dist2).
#[derive(Debug, Clone)]
pub struct NearestK<const K: usize> {
    len: usize,
    /// [`total_order_key`]s of the kept squared distances, ascending.
    keys: [i64; K],
    /// The kept points' indices, in `keys` order.
    indices: [usize; K],
}

impl<const K: usize> NearestK<K> {
    /// An empty selection.
    pub fn new() -> Self {
        const { assert!(K > 0, "NearestK must keep at least one point") };
        NearestK { len: 0, keys: [0; K], indices: [0; K] }
    }

    /// Offers point `index` at squared distance `d2`. Inserts from the
    /// back, behind every kept entry that is not farther.
    #[inline]
    pub fn offer(&mut self, d2: f64, index: usize) {
        let key = total_order_key(d2);
        let mut at = if self.len < K {
            self.len += 1;
            self.len - 1
        } else if key < self.keys[K - 1] {
            K - 1
        } else {
            return;
        };
        while at > 0 && self.keys[at - 1] > key {
            self.keys[at] = self.keys[at - 1];
            self.indices[at] = self.indices[at - 1];
            at -= 1;
        }
        self.keys[at] = key;
        self.indices[at] = index;
    }

    /// Indices of the kept points, nearest first.
    pub fn indices(&self) -> &[usize] {
        &self.indices[..self.len]
    }
}

impl<const K: usize> Default for NearestK<K> {
    fn default() -> Self {
        NearestK::new()
    }
}

/// An integer whose order is [`f64::total_cmp`]'s order on `x`: the
/// transform `total_cmp` applies to both operands of every comparison,
/// applied once per offered point instead.
#[inline]
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Meters;

    /// The reference: the first `k` of a stable sort by `dist2`.
    pub(super) fn stable_sort_k(points: &[Meters], pos: Meters, k: usize) -> Vec<usize> {
        let mut v: Vec<(f64, usize)> =
            points.iter().enumerate().map(|(i, p)| (p.dist2(pos), i)).collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        v.truncate(k);
        v.into_iter().map(|(_, i)| i).collect()
    }

    pub(super) fn nearest_8(points: &[Meters], pos: Meters) -> Vec<usize> {
        let mut near = NearestK::<8>::new();
        for (i, p) in points.iter().enumerate() {
            near.offer(p.dist2(pos), i);
        }
        near.indices().to_vec()
    }

    #[test]
    fn ties_rank_in_offer_order() {
        // Coincident points plus a nearer singleton, and more tied points
        // than slots: the tie at the cutoff keeps the earliest offered.
        let mut pts = vec![
            Meters::new(100.0, 0.0),
            Meters::new(100.0, 0.0),
            Meters::new(50.0, 0.0),
            Meters::new(100.0, 0.0),
            Meters::new(100.0, 0.0),
        ];
        let pos = Meters::new(0.0, 0.0);
        let mut near = NearestK::<3>::new();
        for (i, p) in pts.iter().enumerate() {
            near.offer(p.dist2(pos), i);
        }
        assert_eq!(near.indices(), &[2, 0, 1]);
        pts.extend([Meters::new(0.0, 100.0); 6]);
        assert_eq!(nearest_8(&pts, pos), vec![2, 0, 1, 3, 4, 5, 6, 7]);
        // Fewer points than slots: all of them, nearest first.
        assert_eq!(nearest_8(&pts[..3], pos), vec![2, 0, 1]);
        assert!(nearest_8(&[], pos).is_empty());
    }

    /// Every snapped point set, query and seed here is deterministic, so
    /// the coverage asserts below fail the same way on every run if the
    /// sweep stops producing ties at the cutoff.
    #[test]
    fn lattice_sweep_matches_stable_sort_with_ties_at_the_cutoff() {
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut tie_inside, mut tie_across, mut outside) = (0, 0, 0);
        for _ in 0..400 {
            let n = (next() % 40) as usize;
            let pts: Vec<Meters> = (0..n)
                .map(|_| Meters::new((next() % 11) as f64 * 100.0, (next() % 11) as f64 * 100.0))
                .collect();
            let pos = Meters::new(
                (next() % 31) as f64 * 50.0 - 250.0,
                (next() % 31) as f64 * 50.0 - 250.0,
            );
            let kept = nearest_8(&pts, pos);
            assert_eq!(kept, stable_sort_k(&pts, pos, 8), "pos {pos:?} points {pts:?}");
            let d2: Vec<u64> = kept.iter().map(|&i| pts[i].dist2(pos).to_bits()).collect();
            tie_inside += usize::from(d2.windows(2).any(|w| w[0] == w[1]));
            if let Some(&last) = d2.last().filter(|_| d2.len() == 8) {
                let at_cut = pts.iter().filter(|p| p.dist2(pos).to_bits() == last).count();
                tie_across += usize::from(at_cut > d2.iter().filter(|&&b| b == last).count());
            }
            outside +=
                usize::from(!(0.0..=1_000.0).contains(&pos.x) || !(0.0..=1_000.0).contains(&pos.y));
        }
        assert!(tie_inside > 0, "no tie ranked inside the kept 8");
        assert!(tie_across > 0, "no tie straddled the 8th slot");
        assert!(outside > 0, "no query fell outside the points' box");
    }

    #[test]
    fn total_order_key_orders_like_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{nearest_8, stable_sort_k};
    use crate::Meters;
    use proptest::prelude::*;

    // Points on a 100 m lattice coincide and tie exactly; queries on a
    // 50 m lattice add mirror-image ties, and reach outside the points' box.
    fn arb_points() -> impl Strategy<Value = Vec<Meters>> {
        proptest::collection::vec((-10i32..11, -10i32..11), 0..60).prop_map(|v| {
            v.into_iter().map(|(x, y)| Meters::new(x as f64 * 100.0, y as f64 * 100.0)).collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn nearest_k_matches_stable_sort(
            pts in arb_points(),
            qx in -60i32..61,
            qy in -60i32..61,
        ) {
            let pos = Meters::new(qx as f64 * 50.0, qy as f64 * 50.0);
            prop_assert_eq!(nearest_8(&pts, pos), stable_sort_k(&pts, pos, 8));
        }
    }
}
