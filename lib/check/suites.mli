(** The invariant/metamorphic/oracle catalogue run by [conex check].

    Each suite bundles the properties of one subsystem:

    - [pareto]      front vs quadratic oracle (tied, continuous and
                    NaN/infinity/signed-zero/repeated points),
                    idempotence, permutation invariance, front2/front
                    agreement
    - [cluster]     levels vs naive bottom-up oracle, conservation laws,
                    ordered-variant invariants
    - [assign]      enumeration vs exhaustive cartesian oracle,
                    feasibility, deduplication
    - [trace]       Trace_io round-trips
    - [stats]       percentile/stddev/spearman vs naive oracles,
                    totality on degenerate inputs
    - [fingerprint] relabeling invariance, mutation sensitivity,
                    assembly-order insensitivity, content addressing
    - [sim]         recorded-column simulator vs straight-line
                    replay oracle, bit-exact on the wire form, over
                    L2/victim/write-buffer architectures, random
                    windows and CPU models, one column timed under
                    several connectivities; determinism,
                    sampled-vs-exact bounds
    - [eval]        cached evaluation vs direct recomputation,
                    connectivities sharing recorded columns per
                    fidelity, cache-on/off equality,
                    Exact-promotes-Sampled
    - [estimate]    one {!Mx_sim.Estimator.prepare} plan run under
                    several generated connectivities (one with a
                    binding dropped) vs {!Oracle.estimate} per
                    connectivity, bit-exact on the wire form and on
                    the [Invalid_argument] message, over simulator and
                    APEX-style architectures
    - [pipeline]    composed group profiles of every APEX candidate
                    (L1s and L2s of drawn replacement policies, with
                    victim buffers) vs one {!Mx_mem.Mem_sim.run} each,
                    whole-flow sanity under random workloads and
                    architectures (never crashes, metrics finite)
    - [explore]     cache-on/off and jobs=1/jobs=N run parity,
                    estimate-vs-exact rank correlation floors,
                    event-log terminal-verdict coverage
    - [replacement] per-policy differential fuzz of {!Mx_mem.Cache}
                    against the {!Oracle.repl_cache} reference
                    simulators (identical hit/writeback/evict
                    sequences for every policy), plus metamorphic
                    cross-policy invariants: fully-associative
                    true-LRU equals the stack-distance oracle, all
                    policies agree on compulsory misses, true-LRU
                    misses are monotone in associativity
    - [persist]     the persistent evaluation store: warm-start
                    {!Conex.Explore.run} equals the cold run and is
                    served from disk, Exact-serves-Sampled promotion
                    survives the disk tier, stale-revision segments
                    read as empty while the original revision keeps
                    its data, torn tails lose only the uncommitted
                    record, corrupt records and everything behind
                    them are quarantined

    Three hidden suites (reachable by name, excluded from {!all}) carry
    intentionally broken oracle comparisons used by the CLI contract
    tests to exercise the failure path end to end — counterexample
    found, shrunk, reproduction line printed, exit 1: [selftest]
    (sample-variance stddev oracle), [replacement-selftest] (a
    promotion-blind true-LRU oracle) and [persist-selftest] (digest
    verification disabled over a corrupted store). *)

val names : string list
(** The public suite names, in the order {!all} runs them. *)

val all : ?jobs:int -> unit -> (string * Runner.prop list) list
(** Every public suite.  [jobs] (default
    {!Mx_util.Task_pool.default_jobs}) is the parallel arm width used
    by the jobs-parity properties of the [explore] suite. *)

val find : ?jobs:int -> string -> Runner.prop list option
(** Look up one suite by name; resolves the hidden [selftest] and
    [replacement-selftest] suites too. *)
