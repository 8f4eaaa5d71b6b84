//! A seeded property runner for the root test suites.
//!
//! [`check`] draws `cases` inputs from a generator and runs a property on
//! each. Every case's stream is derived from one base seed and the
//! property's name, and the input size ramps from small to large over the
//! cases, so the first failing case tends to be a small one. There is no
//! shrinking. A failure panics with the property name, the base seed, the
//! case index and the input's `Debug`.
//!
//! The base seed is [`DEFAULT_SEED`] unless `CTUP_PROP_SEED` is set to a
//! decimal `u64` (an empty value counts as unset). That variable is the
//! runner's only input, and rerunning with the printed value replays the
//! failing case. Under Miri every property runs at most [`MIRI_CASES`]
//! cases.
//!
//! Include it with `#[path = "support/prop.rs"] mod prop;`.

#![allow(dead_code)]

use ctup::mogen::rng::SeededRng;
use std::fmt::Debug;
use std::ops::{Deref, DerefMut, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The base seed when `CTUP_PROP_SEED` is unset.
pub const DEFAULT_SEED: u64 = 0x00C7_0950_5EED;

/// The case count every property is cut to under Miri.
pub const MIRI_CASES: usize = 4;

/// One case's source of randomness: the seeded stream (every
/// [`SeededRng`] draw, by deref) plus the case's size in `(0, 1]`, which
/// scales the lengths [`Gen::len`] and [`Gen::vec`] draw.
#[derive(Debug)]
pub struct Gen {
    rng: SeededRng,
    size: f64,
}

impl Gen {
    /// A length in `range` whose upper end grows with the case's size:
    /// the first cases draw near `range.start()`, the last from all of it.
    pub fn len(&mut self, range: RangeInclusive<usize>) -> usize {
        let (lo, hi) = (*range.start(), *range.end());
        let top = lo + ((hi - lo) as f64 * self.size).ceil() as usize;
        self.rng.gen_range(lo..top.min(hi) + 1)
    }

    /// A vector of [`Gen::len`]`(range)` elements drawn by `element`.
    pub fn vec<T>(
        &mut self,
        range: RangeInclusive<usize>,
        mut element: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.len(range);
        (0..n).map(|_| element(self)).collect()
    }

    /// An integer in `range`, both ends included.
    pub fn int(&mut self, range: RangeInclusive<i64>) -> i64 {
        let span = range.end().abs_diff(*range.start()) + 1;
        range
            .start()
            .wrapping_add((self.rng.next_u64() % span) as i64)
    }
}

impl Deref for Gen {
    type Target = SeededRng;
    fn deref(&self) -> &SeededRng {
        &self.rng
    }
}

impl DerefMut for Gen {
    fn deref_mut(&mut self) -> &mut SeededRng {
        &mut self.rng
    }
}

/// Runs `prop` on `cases` inputs drawn by `gen`; see the module docs.
pub fn check<T: Debug>(name: &str, cases: usize, gen: impl Fn(&mut Gen) -> T, prop: impl Fn(&T)) {
    let base = base_seed();
    let cases = if cfg!(miri) {
        cases.min(MIRI_CASES)
    } else {
        cases
    };
    let mut seeds = SeededRng::seed_from_u64(base ^ fnv1a(name));
    for case in 0..cases {
        let mut g = Gen {
            rng: SeededRng::seed_from_u64(seeds.next_u64()),
            size: (case + 1) as f64 / cases as f64,
        };
        let input = gen(&mut g);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| prop(&input))) {
            let cause = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("a non-string panic");
            panic!(
                "property `{name}` failed on case {case} of {cases} with base seed {base} \
                 (replay: CTUP_PROP_SEED={base})\ncause: {cause}\ninput: {input:?}"
            );
        }
    }
}

fn base_seed() -> u64 {
    match std::env::var("CTUP_PROP_SEED") {
        Ok(text) if !text.trim().is_empty() => text
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("CTUP_PROP_SEED must be a decimal u64, not {text:?}")),
        _ => DEFAULT_SEED,
    }
}

/// FNV-1a of the property name, so properties sharing a base seed draw
/// unrelated streams.
fn fnv1a(name: &str) -> u64 {
    name.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}
