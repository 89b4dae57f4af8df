//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::BTreeMap;
use std::sync::Arc;

use chameleon_codes::{Butterfly, ErasureCode, Lrc, ReedSolomon};
use chameleon_simnet::FaultPlan;

/// Parsed `--key value` flags.
#[derive(Debug, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
}

impl Flags {
    /// Parses `--key value` pairs; rejects positional arguments and
    /// dangling flags.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{arg}`"));
            };
            let Some(value) = it.next() else {
                return Err(format!("flag --{key} needs a value"));
            };
            if values.insert(key.to_string(), value.clone()).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
        }
        Ok(Flags { values })
    }

    /// A string flag with a default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A numeric flag with a default.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: `{v}`")),
        }
    }

    /// A rate or size flag the simulator divides by: positive and finite,
    /// or an error (`NodeCaps::symmetric` panics on anything else).
    pub fn positive_or(&self, key: &str, default: f64) -> Result<f64, String> {
        let v: f64 = self.num_or(key, default)?;
        if v.is_finite() && v > 0.0 {
            Ok(v)
        } else {
            Err(format!("--{key} must be positive and finite, got `{v}`"))
        }
    }

    /// A comma-separated list of floats.
    pub fn f64_list_or(&self, key: &str, default: &[f64]) -> Result<Vec<f64>, String> {
        match self.values.get(key) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|x| {
                    x.trim()
                        .parse()
                        .map_err(|_| format!("invalid number `{x}` in --{key}"))
                })
                .collect(),
        }
    }

    /// Rejects flags outside the allowed set.
    pub fn ensure_known(&self, allowed: &[&str]) -> Result<(), String> {
        for key in self.values.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(format!(
                    "unknown flag --{key}; allowed: {}",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                ));
            }
        }
        Ok(())
    }
}

/// Parses a code spec: `rs:K,M`, `lrc:K,L,M`, or `butterfly`.
pub fn parse_code(spec: &str) -> Result<Arc<dyn ErasureCode>, String> {
    if spec == "butterfly" {
        return Ok(Arc::new(Butterfly::new()));
    }
    let (family, params) = spec.split_once(':').ok_or_else(|| {
        format!("invalid code spec `{spec}` (try rs:10,4 / lrc:10,2,2 / butterfly)")
    })?;
    let nums: Vec<usize> = params
        .split(',')
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| format!("invalid code parameter `{p}`"))
        })
        .collect::<Result<_, String>>()?;
    match (family, nums.as_slice()) {
        ("rs", [k, m]) => ReedSolomon::new(*k, *m)
            .map(|c| Arc::new(c) as Arc<dyn ErasureCode>)
            .map_err(|e| e.to_string()),
        ("lrc", [k, l, m]) => Lrc::new(*k, *l, *m)
            .map(|c| Arc::new(c) as Arc<dyn ErasureCode>)
            .map_err(|e| e.to_string()),
        _ => Err(format!("invalid code spec `{spec}`")),
    }
}

/// Storage nodes of every command's cluster for a code of width `n`: the
/// paper's 20, or one more than the stripe, so that every stripe has an
/// off-stripe node to rebuild onto.
pub fn storage_nodes(n: usize) -> usize {
    20.max(n + 1)
}

/// Parses `--faults` for a cluster of `total_nodes` simulator nodes (storage
/// and clients). A spec naming a node outside the cluster is rejected here:
/// the simulator would only notice when the fault's timer fires, and panic.
pub fn parse_faults(flags: &Flags, total_nodes: usize) -> Result<Option<FaultPlan>, String> {
    let spec = flags.str_or("faults", "");
    if spec.is_empty() {
        return Ok(None);
    }
    let plan = FaultPlan::parse_list(&spec)?;
    match plan.specs().iter().find(|s| s.node() >= total_nodes) {
        Some(bad) => Err(format!(
            "--faults names node {}, but the cluster has {total_nodes} nodes (0..={})",
            bad.node(),
            total_nodes - 1
        )),
        None => Ok(Some(plan)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flag_pairs() {
        let f = Flags::parse(&argv(&["--algo", "cr", "--clients", "4"])).unwrap();
        assert_eq!(f.str_or("algo", "x"), "cr");
        assert_eq!(f.num_or("clients", 0usize).unwrap(), 4);
        assert_eq!(f.num_or("missing", 7usize).unwrap(), 7);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Flags::parse(&argv(&["positional"])).is_err());
        assert!(Flags::parse(&argv(&["--dangling"])).is_err());
        assert!(Flags::parse(&argv(&["--a", "1", "--a", "2"])).is_err());
        let f = Flags::parse(&argv(&["--bad", "x"])).unwrap();
        assert!(f.ensure_known(&["good"]).is_err());
    }

    #[test]
    fn positive_flags_reject_zero_negative_and_non_finite() {
        for bad in ["0", "-1", "nan", "inf", "x"] {
            let f = Flags::parse(&argv(&["--gbps", bad])).unwrap();
            assert!(f.positive_or("gbps", 10.0).is_err(), "--gbps {bad}");
        }
        let f = Flags::parse(&argv(&["--gbps", "2.5"])).unwrap();
        assert_eq!(f.positive_or("gbps", 10.0).unwrap(), 2.5);
        assert_eq!(f.positive_or("disk-mbps", 500.0).unwrap(), 500.0);
    }

    #[test]
    fn parses_code_specs() {
        assert_eq!(parse_code("rs:10,4").unwrap().n(), 14);
        assert_eq!(parse_code("lrc:4,2,2").unwrap().n(), 8);
        assert_eq!(parse_code("butterfly").unwrap().n(), 4);
        assert!(parse_code("rs:0,4").is_err());
        assert!(parse_code("nonsense").is_err());
    }

    #[test]
    fn parses_float_lists() {
        let f = Flags::parse(&argv(&["--throughput", "50, 100,500"])).unwrap();
        assert_eq!(
            f.f64_list_or("throughput", &[]).unwrap(),
            vec![50.0, 100.0, 500.0]
        );
    }
}
