//! Synthetic workload generators.
//!
//! The paper's inputs (8 GB of Wikipedia text, a 67 M-vertex R-MAT graph,
//! PARSEC's `native` option batch, NPB class-C grids) are replaced by
//! seeded generators that preserve the *access pattern* at a size a
//! discrete-event run can finish in seconds. Everything is deterministic
//! in the seed.
//!
//! An input is built once, like the paper's applications read theirs from
//! a file once: each generator keeps, per OS thread, its last input and the
//! arguments it was built from, and returns an [`Arc`] of it. A call with
//! the same arguments shares that input; a call with other arguments
//! replaces it. So repeated runs of one application at one seed and scale
//! in one process build the input once, and what stays alive is the last
//! input of each generator on each thread: at `Evaluation` scale about
//! 6 MiB for KMN, 8 MiB for GRP, 6 MiB for BLK and 0.2 MiB for BFS.

use std::cell::RefCell;
use std::sync::Arc;
use std::thread::LocalKey;

use dex_sim::SimRng;

/// One generator's last input and the arguments it was built from.
type Memo<K, V> = RefCell<Option<(K, Arc<V>)>>;

std::thread_local! {
    static CORPUS: Memo<(u64, usize), TextCorpus> = const { RefCell::new(None) };
    static POINTS: Memo<(u64, usize, usize), Vec<[f64; 3]>> = const { RefCell::new(None) };
    static GRAPH: Memo<(u64, usize, usize), Csr> = const { RefCell::new(None) };
    static OPTIONS: Memo<(u64, usize), Vec<OptionContract>> = const { RefCell::new(None) };
}

/// Returns the input memoised in `memo` if it was built for `key`, else
/// builds it with `build`, keeps it in place of the previous one, and
/// returns it.
fn memoised<K: PartialEq, V>(
    memo: &'static LocalKey<Memo<K, V>>,
    key: K,
    build: impl FnOnce() -> V,
) -> Arc<V> {
    memo.with(|memo| {
        let mut memo = memo.borrow_mut();
        if let Some((built_for, input)) = &*memo {
            if *built_for == key {
                return Arc::clone(input);
            }
        }
        // Release the previous input first, or the build would peak at two.
        *memo = None;
        let input = Arc::new(build());
        *memo = Some((key, Arc::clone(&input)));
        input
    })
}

/// Generated text corpus for the string-match application.
#[derive(Clone, PartialEq, Debug)]
pub struct TextCorpus {
    /// The text bytes (lowercase letters and spaces, with keys embedded).
    pub bytes: Vec<u8>,
    /// The keys to search for (7–10 bytes each, like the paper's).
    pub keys: Vec<Vec<u8>>,
}

/// Generates `len` bytes of text with the four search keys embedded at a
/// controlled rate (about one occurrence per kilobyte). Memoised (see the
/// module doc).
pub fn text_corpus(seed: u64, len: usize) -> Arc<TextCorpus> {
    memoised(&CORPUS, (seed, len), || build_text_corpus(seed, len))
}

fn build_text_corpus(seed: u64, len: usize) -> TextCorpus {
    let keys: Vec<Vec<u8>> = ["morpheus", "trinity", "nebuchad", "zionward"]
        .iter()
        .map(|k| k.as_bytes().to_vec())
        .collect();
    let mut rng = SimRng::new(seed ^ 0x7e87);
    let mut bytes = Vec::with_capacity(len);
    while bytes.len() < len {
        if rng.gen_bool(0.006) {
            let key = &keys[rng.gen_range(0..keys.len() as u64) as usize];
            if bytes.len() + key.len() <= len {
                bytes.extend_from_slice(key);
                continue;
            }
        }
        let c = match rng.gen_range(0..8) {
            0 => b' ',
            _ => b'a' + (rng.gen_range(0..26) as u8),
        };
        bytes.push(c);
    }
    bytes.truncate(len);
    TextCorpus { bytes, keys }
}

/// Counts occurrences of each key in `text` (sequential reference).
pub fn count_keys(text: &[u8], keys: &[Vec<u8>]) -> Vec<u64> {
    keys.iter()
        .map(|key| {
            if key.is_empty() || key.len() > text.len() {
                return 0;
            }
            let mut count = 0u64;
            for window in text.windows(key.len()) {
                if window == key.as_slice() {
                    count += 1;
                }
            }
            count
        })
        .collect()
}

/// Gaussian point clusters for k-means: `n` points in 3-D around `k`
/// well-separated centers. Memoised (see the module doc).
pub fn gaussian_points(seed: u64, n: usize, k: usize) -> Arc<Vec<[f64; 3]>> {
    memoised(&POINTS, (seed, n, k), || build_gaussian_points(seed, n, k))
}

fn build_gaussian_points(seed: u64, n: usize, k: usize) -> Vec<[f64; 3]> {
    let mut rng = SimRng::new(seed ^ 0x4b4d);
    let centers: Vec<[f64; 3]> = (0..k)
        .map(|_| std::array::from_fn(|_| rng.gen_f64() * 1000.0))
        .collect();
    (0..n)
        .map(|_| {
            let c = &centers[rng.gen_range(0..k as u64) as usize];
            std::array::from_fn(|d| c[d] + rng.gen_normal(0.0, 15.0))
        })
        .collect()
}

/// A graph in compressed-sparse-row form.
#[derive(Clone, PartialEq, Debug)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for vertex `v`.
    pub offsets: Vec<u32>,
    /// Edge targets.
    pub targets: Vec<u32>,
}

impl Csr {
    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (directed) edges.
    pub fn edges(&self) -> usize {
        self.targets.len()
    }

    /// The out-neighbors of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// Generates an R-MAT graph with the Graph500 parameters (α = 0.57,
/// β = γ = 0.19) used by the paper's Ligra generator, symmetrized and
/// deduplicated, as CSR. Memoised (see the module doc).
///
/// # Panics
///
/// Panics unless `vertices` is a power of two (R-MAT recursion).
pub fn rmat_graph(seed: u64, vertices: usize, edges: usize) -> Arc<Csr> {
    memoised(&GRAPH, (seed, vertices, edges), || {
        build_rmat_graph(seed, vertices, edges)
    })
}

fn build_rmat_graph(seed: u64, vertices: usize, edges: usize) -> Csr {
    assert!(
        vertices.is_power_of_two(),
        "R-MAT needs a power-of-two vertex count"
    );
    let (a, b, c) = (0.57, 0.19, 0.19);
    let mut rng = SimRng::new(seed ^ 0x524d);
    let levels = vertices.trailing_zeros();
    let mut edge_list: Vec<(u32, u32)> = Vec::with_capacity(edges * 2);
    for _ in 0..edges {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..levels {
            let r = rng.gen_f64();
            let (ubit, vbit) = if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | ubit;
            v = (v << 1) | vbit;
        }
        if u != v {
            edge_list.push((u as u32, v as u32));
            edge_list.push((v as u32, u as u32)); // symmetrize
        }
    }
    edge_list.sort_unstable();
    edge_list.dedup();

    let mut offsets = vec![0u32; vertices + 1];
    for &(u, _) in &edge_list {
        offsets[u as usize + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let targets = edge_list.iter().map(|&(_, v)| v).collect();
    Csr { offsets, targets }
}

/// One Black-Scholes option contract.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct OptionContract {
    /// Spot price.
    pub spot: f64,
    /// Strike price.
    pub strike: f64,
    /// Risk-free rate.
    pub rate: f64,
    /// Volatility.
    pub volatility: f64,
    /// Time to maturity in years.
    pub expiry: f64,
    /// Call (true) or put.
    pub call: bool,
}

/// Generates `n` option contracts with PARSEC-like parameter ranges.
/// Memoised (see the module doc).
pub fn option_batch(seed: u64, n: usize) -> Arc<Vec<OptionContract>> {
    memoised(&OPTIONS, (seed, n), || build_option_batch(seed, n))
}

fn build_option_batch(seed: u64, n: usize) -> Vec<OptionContract> {
    let mut rng = SimRng::new(seed ^ 0x424c);
    (0..n)
        .map(|_| OptionContract {
            spot: 20.0 + rng.gen_f64() * 80.0,
            strike: 20.0 + rng.gen_f64() * 80.0,
            rate: 0.01 + rng.gen_f64() * 0.09,
            volatility: 0.05 + rng.gen_f64() * 0.55,
            expiry: 0.1 + rng.gen_f64() * 2.0,
            call: rng.gen_bool(0.5),
        })
        .collect()
}

/// Black–Scholes closed-form price (the PARSEC kernel, sequential
/// reference).
pub fn black_scholes(option: &OptionContract) -> f64 {
    let OptionContract {
        spot: s,
        strike: k,
        rate: r,
        volatility: v,
        expiry: t,
        call,
    } = *option;
    let sqrt_t = t.sqrt();
    let d1 = ((s / k).ln() + (r + v * v / 2.0) * t) / (v * sqrt_t);
    let d2 = d1 - v * sqrt_t;
    let price_call = s * cnd(d1) - k * (-r * t).exp() * cnd(d2);
    if call {
        price_call
    } else {
        // Put-call parity.
        price_call - s + k * (-r * t).exp()
    }
}

/// Cumulative normal distribution (Abramowitz–Stegun polynomial, the same
/// approximation PARSEC ships).
fn cnd(x: f64) -> f64 {
    let neg = x < 0.0;
    let x = x.abs();
    let k = 1.0 / (1.0 + 0.2316419 * x);
    let poly = k
        * (0.319381530
            + k * (-0.356563782 + k * (1.781477937 + k * (-1.821255978 + k * 1.330274429))));
    let w = 1.0 - (1.0 / (2.0 * std::f64::consts::PI).sqrt()) * (-x * x / 2.0).exp() * poly;
    if neg {
        1.0 - w
    } else {
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// For keys `a` and `b` of one generator: a repeat call shares the
    /// memoised input, the input equals a fresh build, and an A, B, A
    /// sequence returns A's data again.
    fn check_memo<K: Copy, V: PartialEq + std::fmt::Debug>(
        memoised: impl Fn(K) -> Arc<V>,
        build: impl Fn(K) -> V,
        a: K,
        b: K,
    ) {
        let first = memoised(a);
        assert!(Arc::ptr_eq(&first, &memoised(a)), "a repeat call shares");
        assert_eq!(*first, build(a), "the memo equals a fresh build");
        assert_ne!(*memoised(b), *first, "another key builds another input");
        assert_eq!(*memoised(a), *first, "A, B, A returns A's data");
    }

    #[test]
    fn generators_memoise_their_last_input() {
        check_memo(
            |(seed, len)| text_corpus(seed, len),
            |(seed, len)| build_text_corpus(seed, len),
            (7, 10_000),
            (8, 10_000),
        );
        check_memo(
            |(seed, n, k)| gaussian_points(seed, n, k),
            |(seed, n, k)| build_gaussian_points(seed, n, k),
            (3, 1_000, 4),
            (3, 1_000, 5),
        );
        check_memo(
            |(seed, v, e)| rmat_graph(seed, v, e),
            |(seed, v, e)| build_rmat_graph(seed, v, e),
            (5, 256, 1024),
            (5, 256, 512),
        );
        check_memo(
            |(seed, n)| option_batch(seed, n),
            |(seed, n)| build_option_batch(seed, n),
            (11, 500),
            (11, 400),
        );
    }

    #[test]
    fn text_corpus_is_deterministic_and_sized() {
        let a = text_corpus(7, 10_000);
        let b = text_corpus(7, 10_000);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.bytes.len(), 10_000);
        assert_eq!(a.keys.len(), 4);
    }

    #[test]
    fn text_corpus_embeds_keys() {
        let corpus = text_corpus(7, 200_000);
        let counts = count_keys(&corpus.bytes, &corpus.keys);
        let total: u64 = counts.iter().sum();
        assert!(total > 20, "keys should occur: {counts:?}");
    }

    #[test]
    fn count_keys_matches_manual() {
        let text = b"abcXabcXXabc".to_vec();
        let keys = vec![b"abc".to_vec(), b"XX".to_vec(), b"zz".to_vec()];
        assert_eq!(count_keys(&text, &keys), vec![3, 1, 0]);
    }

    #[test]
    fn gaussian_points_cluster_near_centers() {
        let pts = gaussian_points(3, 1_000, 4);
        assert_eq!(pts.len(), 1_000);
        for p in pts.iter() {
            for d in p {
                assert!((-200.0..1400.0).contains(d), "point {p:?}");
            }
        }
    }

    #[test]
    fn rmat_graph_is_valid_csr() {
        let g = rmat_graph(5, 256, 1024);
        assert_eq!(g.vertices(), 256);
        assert!(g.edges() > 0);
        assert_eq!(*g.offsets.last().unwrap() as usize, g.targets.len());
        for v in 0..g.vertices() {
            for &t in g.neighbors(v) {
                assert!((t as usize) < g.vertices());
                // Symmetry: the reverse edge exists.
                assert!(
                    g.neighbors(t as usize).contains(&(v as u32)),
                    "missing reverse edge {t}->{v}"
                );
            }
        }
    }

    #[test]
    fn rmat_is_skewed() {
        // R-MAT with Graph500 parameters concentrates edges on low ids.
        let g = rmat_graph(5, 1024, 8192);
        let low: usize = (0..256).map(|v| g.neighbors(v).len()).sum();
        let high: usize = (768..1024).map(|v| g.neighbors(v).len()).sum();
        assert!(low > high * 2, "low {low} vs high {high}");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rmat_requires_power_of_two() {
        let _ = rmat_graph(5, 100, 200);
    }

    #[test]
    fn black_scholes_sane_prices() {
        let call = OptionContract {
            spot: 100.0,
            strike: 100.0,
            rate: 0.05,
            volatility: 0.2,
            expiry: 1.0,
            call: true,
        };
        let price = black_scholes(&call);
        // Known value ~10.45 for these canonical parameters.
        assert!((10.0..11.0).contains(&price), "price {price}");
        let put = OptionContract {
            call: false,
            ..call
        };
        let put_price = black_scholes(&put);
        // Put-call parity: C - P = S - K e^{-rT}.
        let parity = price - put_price;
        let expected = 100.0 - 100.0 * (-0.05f64).exp();
        assert!((parity - expected).abs() < 1e-9);
    }

    #[test]
    fn option_batch_in_ranges() {
        for o in option_batch(11, 500).iter() {
            assert!((20.0..=100.0).contains(&o.spot));
            assert!((0.05..=0.6).contains(&o.volatility));
            assert!(o.expiry > 0.0);
        }
    }
}
