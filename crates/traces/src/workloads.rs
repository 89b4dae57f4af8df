//! The four trace families from the paper's evaluation.

use std::sync::LazyLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dist::{GeneralizedExtremeValue, LogNormal, Pareto, Zipfian};

/// A key-value operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Read a value.
    Get,
    /// Write/update a value.
    Put,
}

/// One foreground request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Operation kind.
    pub op: Op,
    /// Key identity (maps to a storage node in the cluster model).
    pub key: u64,
    /// Bytes moved by the request.
    pub value_size: u64,
}

/// A source of foreground requests. Implementations are infinite streams;
/// experiments bound how many they replay.
pub trait Workload: Send {
    /// Draws the next request.
    fn next_request(&mut self) -> Request;
}

/// Identifies one of the built-in trace families; handy for experiment
/// configuration tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// YCSB-A on HBase: 50/50 read/update, 512 KB values, Zipfian keys.
    YcsbA,
    /// IBM Cloud Object Storage trace 000: value sizes 16 B – 2.4 GB.
    IbmObjectStore,
    /// Twitter in-memory caching, cluster 37: 63% GET, ~20 KB values.
    TwitterMemcached,
    /// Facebook ETC Memcached pool: 30:1 GET/UPDATE, tiny heavy-tailed values.
    FacebookEtc,
}

impl TraceKind {
    /// All built-in traces, in the paper's Fig. 12 order.
    pub const ALL: [TraceKind; 4] = [
        TraceKind::YcsbA,
        TraceKind::IbmObjectStore,
        TraceKind::TwitterMemcached,
        TraceKind::FacebookEtc,
    ];

    /// Instantiates the workload with a seed.
    pub fn build(self, seed: u64) -> Box<dyn Workload> {
        match self {
            TraceKind::YcsbA => Box::new(YcsbA::new(seed)),
            TraceKind::IbmObjectStore => Box::new(IbmObjectStore::new(seed)),
            TraceKind::TwitterMemcached => Box::new(TwitterMemcached::new(seed)),
            TraceKind::FacebookEtc => Box::new(FacebookEtc::new(seed)),
        }
    }

    /// The trace's display name.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::YcsbA => "YCSB-A",
            TraceKind::IbmObjectStore => "IBM-COS",
            TraceKind::TwitterMemcached => "Memcached",
            TraceKind::FacebookEtc => "FB-ETC",
        }
    }
}

impl std::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of distinct keys the synthetic traces draw from. Small enough for
/// exact Zipfian normalization, large enough to spread load across a
/// 20-node cluster.
const KEY_SPACE: u64 = 10_000;

// Each trace's key popularity. The key space and skews are constants, so a
// normalisation (a sum of `KEY_SPACE` powers) is computed once per process
// and every generator borrows it; a client costs its seed, not its keys.
static YCSB_KEYS: LazyLock<Zipfian> = LazyLock::new(|| Zipfian::new(KEY_SPACE, 0.99));
static IBM_KEYS: LazyLock<Zipfian> = LazyLock::new(|| Zipfian::new(KEY_SPACE, 0.9));
static TWITTER_KEYS: LazyLock<Zipfian> = LazyLock::new(|| Zipfian::new(KEY_SPACE, 0.95));

/// YCSB workload A: 50% reads, 50% updates, 512 KB values, Zipfian
/// (α = 0.99) key popularity — the paper's default foreground load
/// (§V-A).
#[derive(Debug)]
pub struct YcsbA {
    rng: StdRng,
    keys: &'static Zipfian,
}

impl YcsbA {
    /// Creates the workload with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        YcsbA {
            rng: StdRng::seed_from_u64(seed),
            keys: &YCSB_KEYS,
        }
    }
}

impl Workload for YcsbA {
    fn next_request(&mut self) -> Request {
        let op = if self.rng.gen_bool(0.5) {
            Op::Get
        } else {
            Op::Put
        };
        Request {
            op,
            key: self.keys.sample(&mut self.rng),
            value_size: 512 * 1024,
        }
    }
}

/// Synthetic stand-in for IBM Cloud Object Storage trace 000: object sizes
/// vary wildly (16 B to 2.4 GB in the original), modeled here as a
/// log-normal with a ~128 KB median and a very wide sigma, clamped to the
/// published extremes. Reads dominate object-store traffic.
#[derive(Debug)]
pub struct IbmObjectStore {
    rng: StdRng,
    keys: &'static Zipfian,
    sizes: LogNormal,
}

impl IbmObjectStore {
    /// Minimum object size observed in the trace (16 B).
    pub const MIN_SIZE: u64 = 16;
    /// Maximum object size observed in the trace (2.4 GB).
    pub const MAX_SIZE: u64 = 2_400_000_000;

    /// Creates the workload with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        IbmObjectStore {
            rng: StdRng::seed_from_u64(seed),
            keys: &IBM_KEYS,
            sizes: LogNormal::with_median(128.0 * 1024.0, 2.5),
        }
    }
}

impl Workload for IbmObjectStore {
    fn next_request(&mut self) -> Request {
        let op = if self.rng.gen_bool(0.78) {
            Op::Get
        } else {
            Op::Put
        };
        let size = self
            .sizes
            .sample(&mut self.rng)
            .clamp(Self::MIN_SIZE as f64, Self::MAX_SIZE as f64) as u64;
        Request {
            op,
            key: self.keys.sample(&mut self.rng),
            value_size: size,
        }
    }
}

/// Synthetic stand-in for Twitter's cluster-37 Memcached trace: 63% GET /
/// 37% SET with ~20 KB (20,134 B average) log-normal values.
#[derive(Debug)]
pub struct TwitterMemcached {
    rng: StdRng,
    keys: &'static Zipfian,
    sizes: LogNormal,
}

impl TwitterMemcached {
    /// Creates the workload with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        // Mean of log-normal = exp(mu + sigma^2/2); with sigma = 0.8 and a
        // 20,134 B target mean, mu = ln(20134) - 0.32.
        let mu = (20_134.0f64).ln() - 0.32;
        TwitterMemcached {
            rng: StdRng::seed_from_u64(seed),
            keys: &TWITTER_KEYS,
            sizes: LogNormal::new(mu, 0.8),
        }
    }
}

impl Workload for TwitterMemcached {
    fn next_request(&mut self) -> Request {
        let op = if self.rng.gen_bool(0.63) {
            Op::Get
        } else {
            Op::Put
        };
        let size = self.sizes.sample(&mut self.rng).clamp(64.0, 1_048_576.0) as u64;
        Request {
            op,
            key: self.keys.sample(&mut self.rng),
            value_size: size,
        }
    }
}

/// Synthetic stand-in for Facebook's ETC Memcached pool (Atikoglu et al.):
/// GET/UPDATE ratio 30:1, key sizes from a GEV distribution, value sizes
/// from a Pareto distribution — small objects with a heavy tail.
#[derive(Debug)]
pub struct FacebookEtc {
    rng: StdRng,
    key_sizes: GeneralizedExtremeValue,
    value_sizes: Pareto,
}

impl FacebookEtc {
    /// Creates the workload with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        FacebookEtc {
            rng: StdRng::seed_from_u64(seed),
            // GEV(30.7, 8.20, 0.078) — the paper's cited key-size fit.
            key_sizes: GeneralizedExtremeValue::new(30.7, 8.20, 0.078),
            // Pareto(xm = 16 B, alpha = 1.5); values are mostly tiny.
            value_sizes: Pareto::new(16.0, 1.5),
        }
    }
}

impl Workload for FacebookEtc {
    fn next_request(&mut self) -> Request {
        let op = if self.rng.gen_ratio(30, 31) {
            Op::Get
        } else {
            Op::Put
        };
        // The GEV key size is hashed down to a key id so popularity still
        // concentrates (size duplicates collide into hot keys).
        let key_size = self.key_sizes.sample(&mut self.rng).max(1.0) as u64;
        let key = key_size % KEY_SPACE;
        let value = self
            .value_sizes
            .sample(&mut self.rng)
            .clamp(16.0, 1_048_576.0) as u64;
        Request {
            op,
            key,
            value_size: value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(w: &mut dyn Workload, n: usize) -> (f64, f64) {
        let mut gets = 0usize;
        let mut total = 0u64;
        for _ in 0..n {
            let r = w.next_request();
            if r.op == Op::Get {
                gets += 1;
            }
            total += r.value_size;
        }
        (gets as f64 / n as f64, total as f64 / n as f64)
    }

    #[test]
    fn ycsb_a_is_half_reads_512k() {
        let mut w = YcsbA::new(1);
        let (get_frac, mean_size) = stats(&mut w, 20_000);
        assert!((get_frac - 0.5).abs() < 0.02, "get fraction {get_frac}");
        assert_eq!(mean_size, 512.0 * 1024.0);
    }

    #[test]
    fn ibm_sizes_span_orders_of_magnitude() {
        let mut w = IbmObjectStore::new(2);
        let sizes: Vec<u64> = (0..50_000).map(|_| w.next_request().value_size).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(min < 4 * 1024, "min {min}");
        assert!(max > 100 * 1024 * 1024, "max {max}");
        assert!(max <= IbmObjectStore::MAX_SIZE);
        assert!(min >= IbmObjectStore::MIN_SIZE);
    }

    #[test]
    fn twitter_mix_and_mean_match_cluster37() {
        let mut w = TwitterMemcached::new(3);
        let (get_frac, mean_size) = stats(&mut w, 50_000);
        assert!((get_frac - 0.63).abs() < 0.02, "get fraction {get_frac}");
        assert!(
            (mean_size / 20_134.0 - 1.0).abs() < 0.25,
            "mean size {mean_size}"
        );
    }

    #[test]
    fn etc_is_read_dominated_and_small() {
        let mut w = FacebookEtc::new(4);
        let (get_frac, mean_size) = stats(&mut w, 50_000);
        assert!(get_frac > 0.94, "get fraction {get_frac}");
        assert!(mean_size < 4096.0, "mean size {mean_size}");
    }

    #[test]
    fn trace_kinds_build_and_are_deterministic() {
        for kind in TraceKind::ALL {
            let mut a = kind.build(9);
            let mut b = kind.build(9);
            for _ in 0..100 {
                assert_eq!(a.next_request(), b.next_request(), "{kind}");
            }
            assert!(!kind.name().is_empty());
        }
    }

    /// Each shared key distribution is the one its generator used to build
    /// per client: every field bit for bit, and the requests it draws.
    #[test]
    fn shared_key_distributions_are_the_per_client_ones_bit_for_bit() {
        let fresh = |theta: f64| -> &'static Zipfian {
            Box::leak(Box::new(Zipfian::new(KEY_SPACE, theta)))
        };
        for (shared, theta) in [(&YCSB_KEYS, 0.99), (&IBM_KEYS, 0.9), (&TWITTER_KEYS, 0.95)] {
            assert_eq!(shared.bits(), fresh(theta).bits(), "theta {theta}");
        }
        for seed in [1, 7, 0xDEAD_BEEF] {
            let pairs: [(Box<dyn Workload>, Box<dyn Workload>); 3] = [
                (
                    Box::new(YcsbA::new(seed)),
                    Box::new(YcsbA {
                        keys: fresh(0.99),
                        ..YcsbA::new(seed)
                    }),
                ),
                (
                    Box::new(IbmObjectStore::new(seed)),
                    Box::new(IbmObjectStore {
                        keys: fresh(0.9),
                        ..IbmObjectStore::new(seed)
                    }),
                ),
                (
                    Box::new(TwitterMemcached::new(seed)),
                    Box::new(TwitterMemcached {
                        keys: fresh(0.95),
                        ..TwitterMemcached::new(seed)
                    }),
                ),
            ];
            for (mut shared, mut own) in pairs {
                for draw in 0..10_000 {
                    assert_eq!(
                        shared.next_request(),
                        own.next_request(),
                        "seed {seed} draw {draw}"
                    );
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = YcsbA::new(1);
        let mut b = YcsbA::new(2);
        let same = (0..100)
            .filter(|_| a.next_request() == b.next_request())
            .count();
        assert!(same < 100);
    }
}
