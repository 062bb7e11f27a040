(* DIMACS regression suite for the satkit kernel.

   Every instance under [cnf/] is solved by the kernel and by the test-only
   reference CDCL ({!Reference_sat}).  The expected status is encoded in
   the file name ([*_sat.cnf] / [*_unsat.cnf]) and was fixed at generation
   time by brute force or by construction (pigeonhole, contradiction
   cycles).  Answers are not taken on faith:

   - Sat: the kernel's model (and the reference's) is evaluated against
     every clause of the file.
   - Unsat: the reference must answer Unsat too, and small instances are
     additionally brute-forced. *)

module Solver = Satkit.Solver
module Dimacs = Satkit.Dimacs

(* cwd is [_build/default/test] under `dune runtest` (the corpus is
   attached via the dune deps glob) but the project root under
   `dune exec test/main.exe` *)
let cnf_dir = if Sys.file_exists "cnf" then "cnf" else "test/cnf"

let files () =
  if not (Sys.file_exists cnf_dir) then []
  else
    Sys.readdir cnf_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cnf")
    |> List.sort compare

let check_file file () =
  let path = Filename.concat cnf_dir file in
  let num_vars, clauses = Dimacs.read_file path in
  let expect_unsat =
    Filename.check_suffix (Filename.remove_extension file) "_unsat"
  in
  let s = Solver.create () in
  Solver.ensure_var s (num_vars - 1);
  List.iter (Solver.add_clause s) clauses;
  let model () = Array.init num_vars (Solver.model_value s) in
  (match (Solver.solve s, expect_unsat) with
  | Solver.Unknown, _ -> Alcotest.failf "%s: unknown without budget" file
  | Solver.Sat, true -> Alcotest.failf "%s: expected unsat, got sat" file
  | Solver.Unsat, false -> Alcotest.failf "%s: expected sat, got unsat" file
  | Solver.Sat, false ->
    if not (Reference_sat.satisfies (model ()) clauses) then
      Alcotest.failf "%s: model does not satisfy the formula" file
  | Solver.Unsat, true -> ());
  (match Reference_sat.solve ~num_vars clauses with
  | Reference_sat.Unsat when not expect_unsat ->
    Alcotest.failf "%s: reference disagrees: unsat" file
  | Reference_sat.Sat m when expect_unsat || not (Reference_sat.satisfies m clauses) ->
    Alcotest.failf "%s: reference disagrees: sat" file
  | Reference_sat.Sat _ | Reference_sat.Unsat -> ());
  if num_vars <= 18 && Reference_sat.brute_force num_vars clauses = expect_unsat
  then Alcotest.failf "%s: brute force disagrees with the file name" file

let test_all_files_present () =
  (* the corpus is part of the repo; an empty directory means the test
     dependencies were not attached *)
  let n = List.length (files ()) in
  if n < 9 then Alcotest.failf "expected >= 9 cnf files, found %d" n

let suite =
  Alcotest.test_case "corpus present" `Quick test_all_files_present
  :: List.map
       (fun f -> Alcotest.test_case f `Quick (check_file f))
       (files ())
