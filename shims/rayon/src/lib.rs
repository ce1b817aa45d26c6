//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace-local package provides the (small) slice of rayon's API the
//! repo actually uses — `par_iter`/`par_iter_mut`, `filter_map`, `zip`,
//! `for_each`, `collect`, `current_num_threads` — with the same
//! semantics: closures run across OS threads via `std::thread::scope`,
//! and results keep slice order. Like rayon's work stealing, items are
//! handed out one at a time, so a worker that finishes early takes the
//! next item instead of idling beside a slower worker's fixed share.
//!
//! It is intentionally minimal, not a general parallel-iterator library;
//! grow it as call sites need more of the real rayon surface.

#![forbid(unsafe_code)]

use std::sync::Mutex;
use std::thread;

/// How many worker threads a parallel call fans out over: one per
/// available core.
pub fn current_num_threads() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub mod prelude {
    pub use crate::{ParallelIterator, ParallelSlice, ParallelSliceMut};
}

/// Entry point: `slice.par_iter()`.
pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { items: self }
    }
}

/// Entry point: `slice.par_iter_mut()`.
pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { items: self }
    }
}

/// Marker trait so `use rayon::prelude::*` keeps reading like rayon.
pub trait ParallelIterator {}

pub struct ParIter<'a, T> {
    items: &'a [T],
}

pub struct ParIterMut<'a, T> {
    items: &'a mut [T],
}

impl<T> ParallelIterator for ParIter<'_, T> {}
impl<T> ParallelIterator for ParIterMut<'_, T> {}

impl<'a, T: Sync> ParIter<'a, T> {
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    pub fn filter_map<R, F>(self, f: F) -> ParFilterMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> Option<R> + Sync,
    {
        ParFilterMap {
            items: self.items,
            f,
        }
    }

    pub fn zip<U: Send>(self, other: ParIterMut<'a, U>) -> ParZipMut<'a, T, U> {
        ParZipMut {
            a: self.items,
            b: other.items,
        }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        par_dynamic(self.items.iter(), f);
    }
}

pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> R + Sync> ParMap<'a, T, F> {
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let f = &self.f;
        par_collect(self.items, |it| Some(f(it))).into()
    }
}

pub struct ParFilterMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> Option<R> + Sync> ParFilterMap<'a, T, F> {
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let f = &self.f;
        par_collect(self.items, f).into()
    }
}

pub struct ParZipMut<'a, T, U> {
    a: &'a [T],
    b: &'a mut [U],
}

impl<T: Sync, U: Send> ParZipMut<'_, T, U> {
    /// `for_each` over `(&T, &mut U)` pairs, handed out one at a time.
    pub fn for_each<F>(self, f: F)
    where
        F: for<'b> Fn((&'b T, &'b mut U)) + Sync,
    {
        par_dynamic(self.a.iter().zip(self.b.iter_mut()), f);
    }
}

/// Runs `f` on every item of `items` on up to one worker per core. A
/// worker takes the next item whenever it finishes one, so uneven item
/// costs balance across workers. Returns each worker's results in the
/// order that worker produced them.
fn par_dynamic<I, R, F>(items: I, f: F) -> Vec<Vec<R>>
where
    I: ExactSizeIterator + Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let nw = current_num_threads().min(items.len());
    if nw <= 1 {
        return vec![items.map(f).collect()];
    }
    let items = Mutex::new(items);
    let next = || items.lock().unwrap_or_else(|e| e.into_inner()).next();
    thread::scope(|s| {
        let handles: Vec<_> = (0..nw)
            .map(|_| s.spawn(|| std::iter::from_fn(next).map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rayon shim worker panicked"))
            .collect()
    })
}

/// Order-preserving parallel filter-map over a slice.
fn par_collect<'a, T: Sync, R: Send>(
    items: &'a [T],
    f: impl Fn(&'a T) -> Option<R> + Sync,
) -> Vec<R> {
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let done = par_dynamic(items.iter().enumerate(), |(i, it)| (i, f(it)));
    for (i, r) in done.into_iter().flatten() {
        slots[i] = r;
    }
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn filter_map_collect_preserves_order() {
        let v: Vec<u32> = (0..1000).collect();
        let out: Vec<u32> = v
            .par_iter()
            .filter_map(|&x| if x % 3 == 0 { Some(x * 2) } else { None })
            .collect();
        let want: Vec<u32> = (0..1000).filter(|x| x % 3 == 0).map(|x| x * 2).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn zip_for_each_writes_every_slot() {
        let keys: Vec<usize> = (0..37).collect();
        let mut vals = vec![0usize; 37];
        keys.par_iter()
            .zip(vals.par_iter_mut())
            .for_each(|(&k, v)| *v = k + 1);
        assert!(vals.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    fn uneven_item_costs_keep_slice_order() {
        // The early items are the slow ones, as the dgemm space lists
        // its small shapes first: every result still lands in its
        // item's slot, whichever worker took it.
        let costs: Vec<(usize, u64)> = (0..24)
            .map(|i| (i, if i < 6 { 8 } else { i as u64 % 3 }))
            .collect();
        let out: Vec<(usize, u64)> = costs
            .par_iter()
            .map(|&(i, ms)| {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                (i, ms * 10)
            })
            .collect();
        let want: Vec<(usize, u64)> = costs.iter().map(|&(i, ms)| (i, ms * 10)).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn map_collect() {
        let v = [1, 2, 3];
        let out: Vec<i32> = v.par_iter().map(|x| x * 10).collect();
        assert_eq!(out, vec![10, 20, 30]);
    }
}
