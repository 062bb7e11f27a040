(* Tests for the CDCL SAT solver, including cross-checks against the
   reference CDCL and brute force on random CNFs. *)

open Satkit

let lit v neg = Lit.of_var v ~negated:neg

let test_trivial_sat () =
  let s = Solver.create () in
  Solver.add_clause s [ lit 0 false ];
  Solver.add_clause s [ lit 1 true ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "x0 = true" true (Solver.model_value s 0);
  Alcotest.(check bool) "x1 = false" false (Solver.model_value s 1)

let test_trivial_unsat () =
  let s = Solver.create () in
  Solver.add_clause s [ lit 0 false ];
  Solver.add_clause s [ lit 0 true ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_implication_chain () =
  let s = Solver.create () in
  (* x0 -> x1 -> ... -> x20, x0, !x20 : unsat *)
  for i = 0 to 19 do
    Solver.add_clause s [ lit i true; lit (i + 1) false ]
  done;
  Solver.add_clause s [ lit 0 false ];
  Solver.add_clause s [ lit 20 true ];
  Alcotest.(check bool) "unsat chain" true (Solver.solve s = Solver.Unsat)

(* Pigeonhole principle: n+1 pigeons in n holes is UNSAT and requires real
   conflict-driven search. *)
let pigeonhole n =
  let s = Solver.create () in
  let var p h = (p * n) + h in
  (* every pigeon in some hole *)
  for p = 0 to n do
    Solver.add_clause s (List.init n (fun h -> lit (var p h) false))
  done;
  (* no two pigeons share a hole *)
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Solver.add_clause s [ lit (var p1 h) true; lit (var p2 h) true ]
      done
    done
  done;
  Solver.solve s

let test_pigeonhole () =
  Alcotest.(check bool) "php(4,3) unsat" true (pigeonhole 3 = Solver.Unsat);
  Alcotest.(check bool) "php(6,5) unsat" true (pigeonhole 5 = Solver.Unsat)

let test_assumptions () =
  let s = Solver.create () in
  (* (x0 | x1) & (!x0 | x2) *)
  Solver.add_clause s [ lit 0 false; lit 1 false ];
  Solver.add_clause s [ lit 0 true; lit 2 false ];
  Alcotest.(check bool) "sat under x0" true
    (Solver.solve ~assumptions:[ lit 0 false ] s = Solver.Sat);
  Alcotest.(check bool) "x2 forced" true (Solver.model_value s 2);
  Alcotest.(check bool) "unsat under x0 & !x2" true
    (Solver.solve ~assumptions:[ lit 0 false; lit 2 true ] s = Solver.Unsat);
  Alcotest.(check bool) "still sat without assumptions" true
    (Solver.solve s = Solver.Sat)

(* A random 3-CNF over [n] variables near the satisfiability threshold
   (about 4.26 clauses per variable), where SAT and UNSAT are about
   equally likely and the search is hardest. *)
let random_3sat rng n =
  let num_clauses = (426 * n / 100) + Random.State.int rng 5 - 2 in
  List.init num_clauses (fun _ ->
      List.init 3 (fun _ -> lit (Random.State.int rng n) (Random.State.bool rng)))

(* Solve [cnf] under [assumptions] and check the answer: a model must
   satisfy the clauses and the assumptions, an Unsat must be confirmed by
   the reference CDCL.  Unknown (no budget was set) is always wrong. *)
let agrees_with_reference ?(assumptions = []) s cnf =
  let units = List.map (fun l -> [ l ]) assumptions in
  match Solver.solve ~assumptions s with
  | Solver.Sat ->
    let model = Array.init (Solver.num_vars s) (Solver.model_value s) in
    Reference_sat.satisfies model (cnf @ units)
  | Solver.Unsat -> Reference_sat.solve (cnf @ units) = Reference_sat.Unsat
  | Solver.Unknown -> false

(* Small enough to enumerate, so brute force also checks the reference. *)
let prop_random_3sat =
  QCheck.Test.make ~name:"random 3-SAT agrees with brute force" ~count:120
    QCheck.(make Gen.(pair (int_range 5 16) (int_bound 1000000)))
    (fun (n, seed) ->
      let cnf = random_3sat (Random.State.make [| seed |]) n in
      let s = Solver.create () in
      List.iter (Solver.add_clause s) cnf;
      let reference_sat =
        match Reference_sat.solve ~num_vars:n cnf with
        | Reference_sat.Sat m -> Reference_sat.satisfies m cnf
        | Reference_sat.Unsat -> false
      in
      agrees_with_reference s cnf
      && reference_sat = Reference_sat.brute_force n cnf)

let prop_random_3sat_assumptions =
  QCheck.Test.make
    ~name:"random 3-SAT with assumptions agrees with the reference" ~count:120
    QCheck.(make Gen.(pair (int_range 5 40) (int_bound 1000000)))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let cnf = random_3sat rng n in
      let assumptions =
        List.init 2 (fun _ -> lit (Random.State.int rng n) (Random.State.bool rng))
      in
      let s = Solver.create () in
      List.iter (Solver.add_clause s) cnf;
      agrees_with_reference ~assumptions s cnf)

let test_repeated_solves_with_assumptions () =
  (* the same solver instance must answer a sequence of assumption queries
     correctly (the FRAIG usage pattern) *)
  let s = Solver.create () in
  (* x2 = x0 xor x1 *)
  Solver.add_clause s [ lit 2 true; lit 0 false; lit 1 false ];
  Solver.add_clause s [ lit 2 true; lit 0 true; lit 1 true ];
  Solver.add_clause s [ lit 2 false; lit 0 false; lit 1 true ];
  Solver.add_clause s [ lit 2 false; lit 0 true; lit 1 false ];
  Alcotest.(check bool) "x2 possible" true
    (Solver.solve ~assumptions:[ lit 2 false ] s = Solver.Sat);
  Alcotest.(check bool) "!x2 possible" true
    (Solver.solve ~assumptions:[ lit 2 true ] s = Solver.Sat);
  Alcotest.(check bool) "x2 & x0 & x1 impossible" true
    (Solver.solve ~assumptions:[ lit 2 false; lit 0 false; lit 1 false ] s
    = Solver.Unsat);
  Alcotest.(check bool) "still solvable afterwards" true
    (Solver.solve s = Solver.Sat)

let test_conflict_budget () =
  (* a hard instance with a tiny budget returns Unknown, not a wrong answer *)
  let s = Solver.create () in
  let n = 8 in
  let var p h = (p * n) + h in
  for p = 0 to n do
    Solver.add_clause s (List.init n (fun h -> lit (var p h) false))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Solver.add_clause s [ lit (var p1 h) true; lit (var p2 h) true ]
      done
    done
  done;
  match Solver.solve ~conflict_budget:10 s with
  | Solver.Unknown | Solver.Unsat -> ()
  | Solver.Sat -> Alcotest.fail "php(9,8) cannot be SAT"

(* Learnt-clause minimization runs on every conflict, so an unsound
   minimization shows up here as a wrong answer or an invalid model.
   Instances this small finish in far fewer conflicts than the kernel's
   reduction and inprocessing cadences; the php(9,8) snapshot test in
   test_telemetry.ml is the one that reaches those. *)
let prop_minimization_preserves_models =
  QCheck.Test.make
    ~name:"minimization/inprocessing never drops satisfying assignments"
    ~count:150
    QCheck.(make Gen.(pair (int_range 6 11) (int_bound 1000000)))
    (fun (n, seed) ->
      let cnf = random_3sat (Random.State.make [| seed + 7 |]) n in
      let s = Solver.create () in
      List.iter (Solver.add_clause s) cnf;
      agrees_with_reference s cnf)

let suite =
  [
    Alcotest.test_case "trivial sat + model" `Quick test_trivial_sat;
    Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
    Alcotest.test_case "implication chain" `Quick test_implication_chain;
    Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
    Alcotest.test_case "assumptions" `Quick test_assumptions;
    Alcotest.test_case "conflict budget" `Quick test_conflict_budget;
    Seed.to_alcotest prop_random_3sat;
    Seed.to_alcotest prop_random_3sat_assumptions;
    Alcotest.test_case "repeated assumption solves" `Quick test_repeated_solves_with_assumptions;
    Seed.to_alcotest prop_minimization_preserves_models;
  ]
