//! The `reliability` subcommand: the Fig. 2 analytical model.

use chameleon_bench::flags::{Command, Flags};
use chameleon_cluster::reliability::ReliabilityModel;

/// `reliability`'s flags.
pub const COMMAND: Command = Command {
    name: "reliability",
    about: "Data-loss probability vs repair throughput (Fig. 2)",
    flags: &[
        ("throughput", "10,50,100,500,1000", "repair MB/s list"),
        ("k", "10", "data chunks per stripe"),
        ("m", "4", "parity chunks per stripe"),
        ("node-tb", "96", "storage per node in TB"),
        ("lifetime-years", "10", "mean node lifetime theta in years"),
    ],
};

/// Runs the subcommand.
pub fn run(flags: &Flags) -> Result<String, String> {
    let throughputs = flags.positive_list("throughput")?;
    let model = ReliabilityModel {
        k: flags.num("k")?,
        m: flags.num("m")?,
        node_capacity_bytes: flags.positive("node-tb")? * 1e12,
        node_lifetime_years: flags.positive("lifetime-years")?,
    };
    if model.k == 0 || model.m == 0 {
        return Err("k and m must be positive".to_string());
    }

    let mut text = format!(
        "data-loss probability during single-node repair — RS({},{}), {:.0} TB/node, \
         theta = {} years\n{:>12} {:>16} {:>12}\n",
        model.k,
        model.m,
        model.node_capacity_bytes / 1e12,
        model.node_lifetime_years,
        "MB/s",
        "repair time (h)",
        "Pr_dl"
    );
    for mbps in throughputs {
        let bps = mbps * 1e6;
        text += &format!(
            "{:>12.0} {:>16.1} {:>12.3e}\n",
            mbps,
            model.repair_duration_secs(bps) / 3600.0,
            model.data_loss_probability(bps)
        );
    }
    Ok(text)
}
