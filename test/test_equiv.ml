(* Equivalence-fuzz harness: every optimization pass, on every
   representation it supports, must preserve functional equivalence on
   random networks — proven by SAT CEC against a cleaned-up copy of the
   input.

   Budget: 25 pass/representation pairs x 8 seeds = 200 combos per run.
   GENLOG_FUZZ_ITERS=k multiplies the seed set k-fold (the nightly CI job
   uses 10).  A failure prints the seed; replay locally with
   GENLOG_TEST_SEED=<seed>, and set GENLOG_FUZZ_LOG=<file> to append
   failing combos for artifact upload. *)

open Network

let base_seeds = [ 101; 102; 103; 104; 105; 106; 107; 108 ]

(* GENLOG_FUZZ_ITERS widens the sweep; GENLOG_TEST_SEED collapses it to
   one replayed seed (Seed.list). *)
let seeds =
  Seed.list
    (List.concat
       (List.init Seed.fuzz_iters (fun k ->
            List.map (fun s -> s + (1000 * k)) base_seeds)))

let combos = ref 0

let fuzz_log name seed =
  match Sys.getenv_opt "GENLOG_FUZZ_LOG" with
  | None | Some "" -> ()
  | Some path ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    Printf.fprintf oc "%s seed=%d\n" name seed;
    close_out oc

(* Run [pass] over random networks and CEC the result against the input.
   [pass] returns the network to check so both in-place passes (return
   the argument) and rebuilding passes (partition) fit. *)
let check_pass (type t) ~name (module N : Intf.NETWORK with type t = t)
    ~(pass : t -> t) () =
  let module G = Gen.Make (N) in
  let module C = Algo.Cec.Make (N) (N) in
  let module Cl = Convert.Cleanup (N) in
  let use_maj = N.max_fanin >= 3 in
  List.iter
    (fun seed ->
      incr combos;
      let t = G.generate ~use_maj ~seed ~num_pis:5 ~num_gates:40 ~num_pos:3 () in
      let reference = Cl.cleanup t in
      let result = pass t in
      (match N.check_integrity result with
      | [] -> ()
      | errs ->
        fuzz_log name seed;
        Alcotest.failf "%s: GENLOG_TEST_SEED=%d integrity: %s" name seed
          (String.concat "; " errs));
      match C.check reference result with
      | Algo.Cec.Equivalent -> ()
      | Algo.Cec.Counterexample _ ->
        fuzz_log name seed;
        Alcotest.failf "%s: GENLOG_TEST_SEED=%d produced a counterexample" name
          seed
      | Algo.Cec.Unknown ->
        fuzz_log name seed;
        Alcotest.failf "%s: GENLOG_TEST_SEED=%d cec unknown" name seed)
    seeds

(* shared per-representation exact-synthesis databases (warm across seeds) *)
let aig_db = lazy (Exact.Database.create Exact.Synth.aig_config)
let xag_db = lazy (Exact.Database.create Exact.Synth.xag_config)
let mig_db = lazy (Exact.Database.create Exact.Synth.mig_config)
let xmg_db = lazy (Exact.Database.create Exact.Synth.xmg_config)

(* one engine env per representation for the partition pass, sharing the
   database above so cold NPN classes are synthesized once per run (MIG
   exact synthesis dominates the budget otherwise) *)
let env_with db kernel =
  lazy
    {
      Flow.Engine.db = Lazy.force db;
      kernel;
      max_refactor_inputs = 10;
      cost = Algo.Cost.Spec.Area;
    }

let aig_env = env_with aig_db Algo.Resub.And_or
let xag_env = env_with xag_db Algo.Resub.And_or_xor
let mig_env = env_with mig_db Algo.Resub.Maj3
let xmg_env = env_with xmg_db Algo.Resub.Maj3

let partition_pass (type t) (module N : Intf.NETWORK with type t = t) env ~jobs
    (t : t) : t =
  let module P = Flow.Partition.Make (N) in
  (* tiny cap so 40-gate networks split into several pieces *)
  let r, _ =
    P.run ~size_cap:12 ~jobs ~script:"rw; bz"
      ~make_env:(fun () -> Lazy.force env)
      t
  in
  r

(* -- per-representation pass suites -- *)

let test_rewrite (type t) name (module N : Intf.NETWORK with type t = t) db () =
  let module Rw = Algo.Rewrite.Make (N) in
  check_pass ~name:("rewrite/" ^ name) (module N)
    ~pass:(fun t ->
      ignore (Rw.run t ~db:(Lazy.force db) ());
      t)
    ()

let test_resub (type t) name (module N : Intf.NETWORK with type t = t) kernel () =
  let module Rs = Algo.Resub.Make (N) in
  check_pass ~name:("resub/" ^ name) (module N)
    ~pass:(fun t ->
      ignore (Rs.run t ~kernel ~max_inserted:2 ());
      t)
    ()

let test_refactor (type t) name (module N : Intf.NETWORK with type t = t) () =
  let module Rf = Algo.Refactor.Make (N) in
  check_pass ~name:("refactor/" ^ name) (module N)
    ~pass:(fun t ->
      ignore (Rf.run t ());
      t)
    ()

let test_balance (type t) name (module N : Intf.NETWORK with type t = t) () =
  let module B = Algo.Balance.Make (N) in
  check_pass ~name:("balance/" ^ name) (module N)
    ~pass:(fun t ->
      ignore (B.run t);
      t)
    ()

let test_fraig (type t) name (module N : Intf.NETWORK with type t = t) () =
  let module Fr = Algo.Fraig.Make (N) in
  check_pass ~name:("fraig/" ^ name) (module N)
    ~pass:(fun t ->
      ignore (Fr.run t ());
      t)
    ()

let test_mig_algebraic () =
  check_pass ~name:"mig_algebraic/mig" (module Mig)
    ~pass:(fun t ->
      ignore (Algo.Mig_algebraic.run t ());
      t)
    ()

(* -- the cost dimension: pass x representation x cost x seeds --

   Every non-default objective must (a) stay CEC-equivalent and (b) never
   be accepted with a worsened objective: the whole-pass objective delta,
   measured by [Cost.eval] on cleaned copies, must be <= 0.  A failure
   prints the replay seed augmented with the cost spec. *)

let cost_seeds = Seed.list [ 101; 102 ]
let cost_specs = [ Algo.Cost.Spec.Depth; Algo.Cost.Spec.Edges; Algo.Cost.Spec.Activity ]

let check_pass_cost (type t) ~name ~(spec : Algo.Cost.Spec.t)
    (module N : Intf.NETWORK with type t = t)
    ~(pass : Algo.Cost.Spec.t -> t -> t) () =
  let module G = Gen.Make (N) in
  let module C = Algo.Cec.Make (N) (N) in
  let module Cl = Convert.Cleanup (N) in
  let module Co = Algo.Cost.Make (N) in
  let cost_name = Algo.Cost.Spec.to_string spec in
  let use_maj = N.max_fanin >= 3 in
  List.iter
    (fun seed ->
      incr combos;
      let t = G.generate ~use_maj ~seed ~num_pis:5 ~num_gates:40 ~num_pos:3 () in
      let reference = Cl.cleanup t in
      let before = Co.eval spec reference in
      let result = pass spec t in
      (match N.check_integrity result with
      | [] -> ()
      | errs ->
        fuzz_log name seed;
        Alcotest.failf "%s: GENLOG_TEST_SEED=%d cost=%s integrity: %s" name
          seed cost_name
          (String.concat "; " errs));
      let after = Co.eval spec (Cl.cleanup result) in
      if after > before then begin
        fuzz_log name seed;
        Alcotest.failf "%s: GENLOG_TEST_SEED=%d cost=%s objective worsened (%d -> %d)"
          name seed cost_name before after
      end;
      match C.check reference result with
      | Algo.Cec.Equivalent -> ()
      | Algo.Cec.Counterexample _ ->
        fuzz_log name seed;
        Alcotest.failf "%s: GENLOG_TEST_SEED=%d cost=%s produced a counterexample"
          name seed cost_name
      | Algo.Cec.Unknown ->
        fuzz_log name seed;
        Alcotest.failf "%s: GENLOG_TEST_SEED=%d cost=%s cec unknown" name seed
          cost_name)
    cost_seeds

let cost_pass_instances (type t) rep (module N : Intf.NETWORK with type t = t)
    db kernel =
  let mk pname pass spec =
    Alcotest.test_case
      (Printf.sprintf "%s %s cost=%s" pname rep
         (Algo.Cost.Spec.to_string spec))
      `Quick
      (check_pass_cost
         ~name:(Printf.sprintf "%s/%s" pname rep)
         ~spec
         (module N)
         ~pass)
  in
  List.concat_map
    (fun spec ->
      [
        mk "rewrite"
          (fun cost t ->
            let module Rw = Algo.Rewrite.Make (N) in
            ignore (Rw.run t ~db:(Lazy.force db) ~cost ());
            t)
          spec;
        mk "refactor"
          (fun cost t ->
            let module Rf = Algo.Refactor.Make (N) in
            ignore (Rf.run t ~cost ());
            t)
          spec;
        mk "resub"
          (fun cost t ->
            let module Rs = Algo.Resub.Make (N) in
            ignore (Rs.run t ~kernel ~cost ~max_inserted:2 ());
            t)
          spec;
        mk "balance"
          (fun cost t ->
            let module B = Algo.Balance.Make (N) in
            ignore (B.run ~cost t);
            t)
          spec;
      ])
    cost_specs

let cost_fraig_instances =
  List.map
    (fun spec ->
      Alcotest.test_case
        (Printf.sprintf "fraig aig cost=%s" (Algo.Cost.Spec.to_string spec))
        `Quick
        (check_pass_cost ~name:"fraig/aig" ~spec (module Aig)
           ~pass:(fun cost t ->
             let module Fr = Algo.Fraig.Make (Aig) in
             ignore (Fr.run t ~cost ());
             t)))
    cost_specs

(* 4 passes x 2 representations x 3 costs, plus fraig on aig x 3 costs *)
let cost_combo_instances = (4 * 2 * 3) + 3

(* two workers on the aig suite exercise the cross-domain path; the other
   representations run single-worker (spawning a domain pair per combo is
   pure overhead on small boxes) *)
let test_partition (type t) ?(jobs = 1) name
    (module N : Intf.NETWORK with type t = t) env () =
  check_pass ~name:("partition/" ^ name) (module N)
    ~pass:(partition_pass (module N) env ~jobs)
    ()

let test_combo_count () =
  (* runs last: every combo above must have executed (Alcotest runs the
     suite sequentially in one process) *)
  let expected =
    (25 * List.length seeds)
    + (cost_combo_instances * List.length cost_seeds)
  in
  Alcotest.(check int) "all pass/rep/seed combos executed" expected !combos

let suite =
  [
    Alcotest.test_case "rewrite aig" `Quick (test_rewrite "aig" (module Aig) aig_db);
    Alcotest.test_case "rewrite xag" `Quick (test_rewrite "xag" (module Xag) xag_db);
    Alcotest.test_case "rewrite mig" `Quick (test_rewrite "mig" (module Mig) mig_db);
    Alcotest.test_case "rewrite xmg" `Quick (test_rewrite "xmg" (module Xmg) xmg_db);
    Alcotest.test_case "resub aig" `Quick
      (test_resub "aig" (module Aig) Algo.Resub.And_or);
    Alcotest.test_case "resub xag" `Quick
      (test_resub "xag" (module Xag) Algo.Resub.And_or_xor);
    Alcotest.test_case "resub mig" `Quick
      (test_resub "mig" (module Mig) Algo.Resub.Maj3);
    Alcotest.test_case "resub xmg" `Quick
      (test_resub "xmg" (module Xmg) Algo.Resub.Maj3);
    Alcotest.test_case "refactor aig" `Quick (test_refactor "aig" (module Aig));
    Alcotest.test_case "refactor xag" `Quick (test_refactor "xag" (module Xag));
    Alcotest.test_case "refactor mig" `Quick (test_refactor "mig" (module Mig));
    Alcotest.test_case "refactor xmg" `Quick (test_refactor "xmg" (module Xmg));
    Alcotest.test_case "balance aig" `Quick (test_balance "aig" (module Aig));
    Alcotest.test_case "balance xag" `Quick (test_balance "xag" (module Xag));
    Alcotest.test_case "balance mig" `Quick (test_balance "mig" (module Mig));
    Alcotest.test_case "balance xmg" `Quick (test_balance "xmg" (module Xmg));
    Alcotest.test_case "fraig aig" `Quick (test_fraig "aig" (module Aig));
    Alcotest.test_case "fraig xag" `Quick (test_fraig "xag" (module Xag));
    Alcotest.test_case "fraig mig" `Quick (test_fraig "mig" (module Mig));
    Alcotest.test_case "fraig xmg" `Quick (test_fraig "xmg" (module Xmg));
    Alcotest.test_case "mig algebraic" `Quick test_mig_algebraic;
    Alcotest.test_case "partition aig" `Quick
      (test_partition ~jobs:2 "aig" (module Aig) aig_env);
    Alcotest.test_case "partition xag" `Quick
      (test_partition "xag" (module Xag) xag_env);
    Alcotest.test_case "partition mig" `Quick
      (test_partition "mig" (module Mig) mig_env);
    Alcotest.test_case "partition xmg" `Quick
      (test_partition "xmg" (module Xmg) xmg_env);
  ]
  @ cost_pass_instances "aig" (module Aig) aig_db Algo.Resub.And_or
  @ cost_pass_instances "mig" (module Mig) mig_db Algo.Resub.Maj3
  @ cost_fraig_instances
  @ [ Alcotest.test_case "combo count" `Quick test_combo_count ]
