(* Algorithmic property suites from the Mx_check correctness harness:
   pareto-front laws against the quadratic oracle, clustering
   conservation laws against the bottom-up oracle, assignment
   enumeration against the cartesian oracle, the statistics oracles,
   and the JSON writer/reader round trip.  Each harness property is
   its own alcotest case (see Test_check.check_prop_cases), so `dune
   runtest` exercises exactly the same generators and oracles as
   `conex check` and names the failing property directly; the failure
   message carries the CLI reproduction line (CONEX_CHECK_SEED=...
   conex check --suite ...) so the shrunk counterexample can be
   replayed outside the test harness. *)

let suite =
  ( "properties",
    List.concat_map
      (Test_check.check_prop_cases ~count:200)
      [ "pareto"; "cluster"; "assign"; "stats"; "json" ] )
