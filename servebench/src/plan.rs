//! Seeded, fixed-work op sequences: the only inputs that depend on the
//! workload seed.
//!
//! Row numbers index a workload's pre-built pools (queries, online
//! observations); key numbers name item-memory entries. A plan holds
//! exactly the work one run performs, one `Vec<Op>` per caller.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One closed-loop request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A multi-row predict over these query rows.
    Batch(Vec<u32>),
    /// A single-row predict of one query row.
    Single(u32),
    /// An acknowledged online observation of one training row.
    Fit(u32),
    /// An acknowledged keyed insert of one query row's vector.
    Insert {
        /// Key number.
        key: u32,
        /// Query row whose vector is stored.
        row: u32,
    },
}

impl Op {
    /// Rows the op predicts or writes.
    #[must_use]
    pub fn rows(&self) -> usize {
        match self {
            Op::Batch(rows) => rows.len(),
            Op::Single(_) | Op::Fit(_) | Op::Insert { .. } => 1,
        }
    }
}

/// Endless passes over `0..len`, each pass a fresh seeded permutation, so
/// the first `len` rows drawn cover every row exactly once.
#[derive(Debug)]
pub struct Passes {
    order: Vec<u32>,
    next: usize,
}

impl Passes {
    /// Passes over `0..len` (`len >= 1`).
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            order: (0..len as u32).collect(),
            next: len,
        }
    }

    /// The next row.
    pub fn draw(&mut self, rng: &mut StdRng) -> u32 {
        if self.next == self.order.len() {
            self.order.shuffle(rng);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }

    /// The next `n` rows.
    pub fn take(&mut self, n: usize, rng: &mut StdRng) -> Vec<u32> {
        (0..n).map(|_| self.draw(rng)).collect()
    }
}

/// The sizes a plan draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pools {
    /// Query rows.
    pub queries: usize,
    /// Online-observation rows.
    pub online: usize,
    /// Distinct item-memory keys.
    pub keys: u32,
}

fn rng_for(seed: u64, caller: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ caller.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `gesture-wire`: caller 0 sends `batches` 64-row predicts walking
/// passes over the queries; caller 1 sends `singles` single-row predicts,
/// every eighth of them replaced by a keyed insert.
#[must_use]
pub fn wire(seed: u64, pools: Pools, batches: usize, singles: usize) -> Vec<Vec<Op>> {
    let mut rng = rng_for(seed, 0);
    let mut passes = Passes::new(pools.queries);
    let batch_ops = (0..batches)
        .map(|_| Op::Batch(passes.take(64, &mut rng)))
        .collect();
    let mut rng = rng_for(seed, 1);
    let single_ops = (0..singles)
        .map(|i| {
            let row = rng.random_range(0..pools.queries as u32);
            if i % 8 == 7 {
                Op::Insert {
                    key: rng.random_range(0..pools.keys),
                    row,
                }
            } else {
                Op::Single(row)
            }
        })
        .collect();
    vec![batch_ops, single_ops]
}

/// `forecast-online`: one caller alternating a 64-row predict with one
/// online fit; every eighth predict is a single row instead.
#[must_use]
pub fn forecast(seed: u64, pools: Pools, rounds: usize) -> Vec<Vec<Op>> {
    let mut rng = rng_for(seed, 0);
    let mut fits = Passes::new(pools.online);
    let mut ops = Vec::with_capacity(2 * rounds);
    for i in 0..rounds {
        if i % 8 == 7 {
            ops.push(Op::Single(rng.random_range(0..pools.queries as u32)));
        } else {
            ops.push(Op::Batch(
                (0..64)
                    .map(|_| rng.random_range(0..pools.queries as u32))
                    .collect(),
            ));
        }
        ops.push(Op::Fit(fits.draw(&mut rng)));
    }
    vec![ops]
}

/// `gesture-durable`: two writers, each mixing online fits and keyed
/// inserts half and half, with a 16-row predict every eighth op and a
/// single-row predict every eighth op (offset by four). Each writer owns
/// its half of the key space, so the last acknowledged insert of every
/// key is known.
#[must_use]
pub fn durable(seed: u64, pools: Pools, ops_per_caller: usize) -> Vec<Vec<Op>> {
    (0..2u32)
        .map(|caller| {
            let mut rng = rng_for(seed, u64::from(caller));
            let mut fits = Passes::new(pools.online);
            let half = pools.keys / 2;
            (0..ops_per_caller)
                .map(|i| match i % 8 {
                    7 => Op::Batch(
                        (0..16)
                            .map(|_| rng.random_range(0..pools.queries as u32))
                            .collect(),
                    ),
                    3 => Op::Single(rng.random_range(0..pools.queries as u32)),
                    _ if rng.random_bool(0.5) => Op::Fit(fits.draw(&mut rng)),
                    _ => Op::Insert {
                        key: caller * half + rng.random_range(0..half),
                        row: rng.random_range(0..pools.queries as u32),
                    },
                })
                .collect()
        })
        .collect()
}

/// `gesture-cluster`: one caller; of every eight ops, five are 64-row
/// keyed predicts walking passes over the queries, two are routed
/// inserts and one is a single-row predict.
#[must_use]
pub fn cluster(seed: u64, pools: Pools, ops: usize) -> Vec<Vec<Op>> {
    let mut rng = rng_for(seed, 0);
    let mut passes = Passes::new(pools.queries);
    let plan = (0..ops)
        .map(|i| match i % 8 {
            2 | 6 => Op::Insert {
                key: rng.random_range(0..pools.keys),
                row: rng.random_range(0..pools.queries as u32),
            },
            4 => Op::Single(rng.random_range(0..pools.queries as u32)),
            _ => Op::Batch(passes.take(64, &mut rng)),
        })
        .collect();
    vec![plan]
}

#[cfg(test)]
mod tests {
    use super::*;

    const POOLS: Pools = Pools {
        queries: 500,
        online: 300,
        keys: 64,
    };

    fn all_plans(seed: u64) -> Vec<Vec<Vec<Op>>> {
        vec![
            wire(seed, POOLS, 20, 40),
            forecast(seed, POOLS, 30),
            durable(seed, POOLS, 50),
            cluster(seed, POOLS, 40),
        ]
    }

    #[test]
    fn plans_are_deterministic_for_a_seed() {
        assert_eq!(all_plans(7), all_plans(7));
        assert_ne!(all_plans(7), all_plans(8));
    }

    #[test]
    fn a_pass_covers_every_row_once() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut passes = Passes::new(10);
        let mut first = passes.take(10, &mut rng);
        first.sort_unstable();
        assert_eq!(first, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn durable_writers_own_disjoint_key_halves() {
        let plan = durable(11, POOLS, 400);
        for (caller, ops) in plan.iter().enumerate() {
            for op in ops {
                if let Op::Insert { key, .. } = op {
                    assert_eq!(*key / (POOLS.keys / 2), caller as u32);
                }
            }
        }
    }

    #[test]
    fn plans_have_the_stated_shape() {
        let w = wire(1, POOLS, 20, 40);
        assert!(w[0].iter().all(|op| op.rows() == 64));
        assert_eq!(
            w[1].iter()
                .filter(|op| matches!(op, Op::Insert { .. }))
                .count(),
            5
        );
        let f = forecast(1, POOLS, 30);
        assert_eq!(f[0].len(), 60);
        assert!(f[0]
            .iter()
            .skip(1)
            .step_by(2)
            .all(|op| matches!(op, Op::Fit(_))));
    }
}
