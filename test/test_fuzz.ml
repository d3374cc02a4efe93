(* Randomised whole-pipeline suites from the Mx_check correctness
   harness: arbitrary synthetic workloads and arbitrary (valid)
   architectures through serialisation, fingerprinting, simulation
   (against the straight-line replay oracle), the Phase I estimator
   (against the straight-line estimate oracle), cached evaluation and
   the persistent result store.  Each harness property is registered as its
   own alcotest case (see Test_check.check_prop_cases); a failure
   prints the CLI reproduction line so the shrunk counterexample can be
   replayed with `conex check`. *)

let cases ?count name = Test_check.check_prop_cases ?count name

let suite =
  ( "fuzz",
    List.concat
      [
        cases "trace";
        cases "fingerprint";
        cases ~count:100 "sim";
        cases ~count:100 "eval";
        cases ~count:200 "estimate";
        cases "pipeline";
        cases ~count:100 "replacement";
        cases ~count:60 "persist";
      ] )
