(* One knob for every random seed in the test suite.

   Each [Random.State.make] site routes its constant through [get] (or
   builds its state with [state], or its seed list with [list]), so a CI
   failure that prints a seed is replayable locally with

     GENLOG_TEST_SEED=<seed> dune runtest

   Without the environment override everything defaults to the historical
   constants, keeping the suite deterministic; only the QCheck properties
   draw a fresh seed per run (see [qcheck_seed]). *)

let override =
  match Sys.getenv_opt "GENLOG_TEST_SEED" with
  | None | Some "" -> None
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> Some n
    | None ->
      Printf.eprintf "GENLOG_TEST_SEED=%S is not an integer; ignoring\n%!" s;
      None)

(* The seed actually used where the suite historically used [default]. *)
let get default = Option.value override ~default

(* A RNG state seeded with [get default]. *)
let state default = Random.State.make [| get default |]

(* A seed list: the historical list, or just the override when set (one
   replayed failure instead of the whole sweep). *)
let list defaults = match override with None -> defaults | Some s -> [ s ]

(* The QCheck properties' seed: the override when set, otherwise a fresh
   one per run, printed at start-up so a failing property is replayable
   with GENLOG_TEST_SEED=<seed>.  The properties sample new inputs on
   every run on purpose; pinning a seed that happens to pass would hide
   their failures. *)
let qcheck_seed =
  let s =
    match override with
    | Some s -> s
    | None -> Random.State.bits (Random.State.make_self_init ())
  in
  Printf.printf "qcheck seed: %d (replay with GENLOG_TEST_SEED=%d)\n%!" s s;
  s

(* [QCheck_alcotest.to_alcotest] with the generator seeded from
   [qcheck_seed]; every property in the suite goes through it. *)
let to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) t

(* Iteration-budget multiplier for the fuzz suites: nightly CI runs with
   GENLOG_FUZZ_ITERS=10 for a 10x deeper sweep. *)
let fuzz_iters =
  match Sys.getenv_opt "GENLOG_FUZZ_ITERS" with
  | None | Some "" -> 1
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ ->
      Printf.eprintf "GENLOG_FUZZ_ITERS=%S is not a positive integer; using 1\n%!" s;
      1)
