(** The invariant/metamorphic/oracle catalogue run by [conex check].

    Each suite bundles the properties of one subsystem:

    - [pareto]      front vs quadratic oracle (tied, continuous and
                    NaN/infinity/signed-zero/repeated points), the
                    incremental {!Mx_util.Pareto.Flat} front fed in
                    random chunks and merged vs the oracle in input
                    order, idempotence, permutation invariance,
                    front2/front agreement
    - [cluster]     levels vs naive bottom-up oracle, conservation laws,
                    ordered-variant invariants
    - [assign]      enumeration vs exhaustive cartesian oracle,
                    feasibility, no design repeated across levels
    - [trace]       Trace_io round-trips
    - [stats]       percentile/stddev/spearman vs naive oracles,
                    totality on degenerate inputs
    - [json]        [parse (to_string v) = v], numbers bit for bit,
                    over generated values (arbitrary bytes in strings
                    and keys, duplicate keys, nesting, finite numbers
                    of every magnitude), and the rendering is one line;
                    a valid UTF-8 string written with every code point
                    escaped reads back as the same bytes
    - [fingerprint] relabeling invariance, mutation sensitivity,
                    assembly-order insensitivity, content addressing
    - [sim]         recorded-column simulator vs straight-line
                    replay oracle, bit-exact on the wire form, over
                    L2/victim/write-buffer architectures, random
                    windows and CPU models, one column timed in one
                    {!Mx_sim.Cycle_sim.time_many} pass of 1 to 24
                    connectivities (the first unroutable one raising
                    its own error); determinism, sampled-vs-exact
                    bounds
    - [eval]        cached evaluation vs direct recomputation,
                    connectivities sharing recorded columns per
                    fidelity, cache-on/off equality,
                    Exact-promotes-Sampled
    - [estimate]    one {!Mx_sim.Estimator.prepare} plan run under
                    several generated connectivities (one with a
                    binding dropped) vs {!Oracle.estimate} per
                    connectivity, bit-exact on the wire form and on
                    the [Invalid_argument] message, over simulator and
                    APEX-style architectures; one
                    {!Mx_sim.Estimator.level} over every assignment of
                    a clustering level (full choice lists, a drawn
                    cap, sometimes a cluster missing) vs the oracle on
                    each materialised connectivity
    - [pipeline]    composed group profiles of every APEX candidate
                    (L1s and L2s of drawn replacement policies, with
                    victim buffers) vs one {!Mx_mem.Mem_sim.run} each,
                    whole-flow sanity under random workloads and
                    architectures (never crashes, metrics finite)
    - [explore]     cache-on/off and jobs=1/jobs=N run parity,
                    estimate-vs-exact rank correlation floors,
                    event-log terminal-verdict coverage over the full
                    module and component catalogues
    - [shard]       sharded vs monolithic runs over the full
                    catalogues (tens to hundreds of estimates per
                    architecture, so four shards split a level), the
                    streamed run
                    (events off and on, shards 1/4 x jobs 1/N) vs
                    {!Conex.Explore.phase1} +
                    {!Conex.Explore.local_promising} and its verdict
                    events vs {!Oracle.phase1_verdicts}, Neighborhood
                    vs [local_promising] + {!Oracle.neighbors_of},
                    shard plans vs
                    the monolithic enumeration (designs, assign.*
                    level counters and events), the anytime archive vs
                    front2, eps and capacity thinning, interrupted
                    runs
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
                    survives the disk tier, one
                    {!Mx_sim.Eval.eval_many} batch over hot,
                    disk-resident, promotable, new and repeated
                    connectivities takes the ladder's rung for each
                    and equals {!Mx_sim.Eval.eval_prov} one at a time
                    (results, provenance, tier counts), stale-revision segments
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
