//! The `help` subcommand.

/// Prints usage information.
pub fn print() {
    println!(
        "\
chameleonec — low-interference erasure-coded repair (HPCA 2025 reproduction)

USAGE:
    chameleonec <COMMAND> [--flag value]...

COMMANDS:
    repair        Simulate a full-node repair, optionally under foreground load
                    --code       rs:K,M | lrc:K,L,M | butterfly   (default rs:10,4)
                    --algo       {algos}
                                                                  (default chameleon)
                    --failures   number of failed nodes            (default 1)
                    --chunks     chunks lost per failed node       (default 20)
                    --clients    foreground YCSB clients           (default 0)
                    --requests   requests per client               (default 4000)
                    --gbps       link bandwidth in Gb/s            (default 10)
                    --disk-mbps  disk bandwidth in MB/s            (default 500)
                    --chunk-mb   chunk size in MB                  (default 64)
                    --seed       RNG seed                          (default 7)
                    --faults     comma list of scheduled faults:
                                 crash:NODE@T | recover:NODE@T |
                                 slow:NODE@TxF+D | disk:NODE@TxF+D (default none)
                                 NODE is a cluster node id: storage nodes
                                 first, then clients; others are rejected
                    --trace      write a JSONL observability trace
                                 (flow events + repair spans +
                                 engine profile) to this path       (default off)

    orchestrate   Run a continuous multi-failure repair campaign under the
                  cluster-wide orchestrator (admission control + repair ledger)
                    --code       rs:K,M | lrc:K,L,M | butterfly   (default rs:4,2)
                    --algo       as repair                        (default chameleon)
                    --duration   fault-injection horizon in s     (default 90)
                    --mttf       mean time to failure per node, s (default 150)
                    --recover    crashed nodes return after this
                                 many seconds (0 = never)         (default 30)
                    --policy     fifo | priority                  (default priority)
                    --budget     unlimited | MB/s fixed rate |
                                 negotiated[:HEADROOM,FLOOR_MBPS] (default unlimited)
                    --max-in-flight  concurrent chunk repairs     (default 8)
                    --chunks, --clients, --requests, --gbps, --disk-mbps,
                    --chunk-mb, --seed as repair
                    --ledger     write the repair ledger (data-loss
                                 events + per-chunk terminal states)
                                 as JSONL to this path            (default off)

    sweep         Run an algorithm x seed grid in parallel worker threads
                    --algos      comma list (as --algo above)   (default cr,ppr,ecpipe,chameleon)
                    --seeds      seeds per algorithm            (default 3)
                    --clients    foreground YCSB clients        (default 4)
                    --requests   requests per client            (default 4000)
                    --chunks     chunks lost on the failed node (default 20)
                    --jobs       worker threads (0 = --jobs/CHAMELEON_JOBS/
                                 available parallelism)         (default 0)
                    --faults     scheduled faults (as repair), applied
                                 to every cell                  (default none)
                    --trace      write every cell's JSONL trace to this
                                 path, in spec order — byte-identical
                                 at any --jobs count            (default off)

    plan          Show the repair plan ChameleonEC builds for one chunk
                    --code, --gbps, --seed as above

    trace         Summarize a JSONL trace written by repair/sweep --trace
                    --file       path to the .jsonl trace file

    traces        Sample a synthetic workload and print its statistics
                    --kind       ycsb | ibm | memcached | etc      (default ycsb)
                    --count      requests to sample                (default 100000)
                    --seed       RNG seed                          (default 1)

    reliability   Data-loss probability vs repair throughput (Fig. 2)
                    --throughput comma-separated MB/s list (default 10,50,100,500,1000)

    help          This message
",
        algos = chameleon_bench::AlgoKind::NAMED
            .map(|(name, _)| name)
            .join(" | ")
    );
}
