(* The genlog benchmark: seeded workloads over the public library API,
   timed and counted from outside.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads (see README.md in this directory for the metric list):
   - cold_small    small designs on AIG/MIG/XAG/XMG, a fresh exact
                   database per design x representation;
   - warm_large    large AIG designs against an exact database warmed
                   during set-up;
   - verify        CEC of (input, optimized) pairs and of deliberately
                   mutated, non-equivalent pairs;
   - partition_j2  a large design through the partition engine with two
                   domains and a warm shared database.

   Set-up generates the designs from the seed, writes them as AIGER and
   prepares what the workload needs.  The timed region then runs cycles,
   each running every operation once, and starts another only while it
   should end within [--seconds].  Every output is checked after its
   cycle, outside the timed region, with this file's own AIGER simulator.
   The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With [--trace 1] the
   metrics are the per-layer ones, derived from spans recorded around the
   library calls. *)

open Genlog

let now = Unix.gettimeofday

(* ---------------------------------------------------------------- *)
(* Spans and layer counters (traced runs only)                       *)
(* ---------------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;  (* -1 for a root *)
  name : string;
  op : string;  (* design/representation of the operation *)
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_span = ref 0
let current_op = ref ""

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_span in
    incr next_span;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        open_spans := List.tl !open_spans;
        spans := { id; parent; name; op = !current_op; t0; t1 } :: !spans)
      f
  end

(* counters of the current traced cycle, by metric name *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let count name v =
  if !tracing then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let counti name v = count name (float_of_int v)

(* Self time of each span name: duration minus the time its children
   cover. *)
let self_times (spans : span list) : (string, float) Hashtbl.t =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.t1 -. s.t0
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let own =
        s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      Hashtbl.replace self s.name
        (own +. Option.value ~default:0. (Hashtbl.find_opt self s.name)))
    spans;
  self

let write_spans path (spans : span list) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%S,\"op\":%S,\"start\":%.6f,\"end\":%.6f}\n"
            s.id s.parent s.name s.op s.t0 s.t1)
        (List.rev spans))

(* ---------------------------------------------------------------- *)
(* Machine speed                                                     *)
(* ---------------------------------------------------------------- *)

(* A shared machine's speed drifts, by up to 1.8x over minutes on a
   2-core virtual machine, and every wall time drifts with it.  Each
   operation is therefore preceded by a sample of a reference kernel
   that uses no library code: hash-table updates that allocate and
   promote list cells, run under fixed GC settings so that the library
   cannot move it by changing its own, then a loop of integer
   arithmetic.  Memory-bound and compute-bound work slow down by
   different amounts as the machine gets busier; this mix tracked the
   workloads' own slow-downs better than either half alone.  Each time is
   multiplied by [scale] of the samples taken right before and after it,
   and so reads in seconds at the speed at which the kernel takes
   [reference_s]: a change to the library moves it as it moves the wall
   time, a change of machine speed does not. *)
module Speed = struct
  let reference_s = 0.040

  let kernel () =
    let h = Hashtbl.create 16 in
    let a = Array.make 4096 0 in
    let x = ref 12345 in
    for i = 0 to 100_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      let k = !x land 0xffff in
      Hashtbl.replace h k (i :: Option.value ~default:[] (Hashtbl.find_opt h k));
      a.(k land 4095) <- a.(k land 4095) + i
    done;
    ignore (Sys.opaque_identity (h, a));
    let acc = ref 0 in
    for i = 0 to 8_000_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      acc := (!acc lxor (!x lsr 7)) + i
    done;
    ignore (Sys.opaque_identity !acc)

  (* every sample taken since the last [reset], newest first *)
  let taken = ref []
  let reset () = taken := []

  let sample () =
    let saved = Gc.get () in
    Gc.set { saved with minor_heap_size = 262_144; space_overhead = 120 };
    Gc.minor ();
    let s = now () in
    kernel ();
    let t = now () -. s in
    Gc.set saved;
    taken := t :: !taken;
    t

  let scale samples =
    reference_s *. float_of_int (List.length samples)
    /. List.fold_left ( +. ) 0. samples
end

(* ---------------------------------------------------------------- *)
(* Reference AIGER parser and simulator                              *)
(* ---------------------------------------------------------------- *)

(* Outputs are checked with this independent evaluator, not with the
   library under test: it parses the ASCII AIGER the library wrote and
   simulates 63 patterns per machine word. *)
module Ref = struct
  type aag = {
    max_var : int;
    inputs : int array;  (* literals *)
    outputs : int array;  (* literals *)
    ands : (int * int * int) array;  (* lhs, rhs0, rhs1 *)
  }

  let parse path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let ints () =
          String.split_on_char ' ' (String.trim (input_line ic))
          |> List.map int_of_string
        in
        match String.split_on_char ' ' (String.trim (input_line ic)) with
        | [ "aag"; m; i; "0"; o; a ] ->
          let one () = match ints () with [ x ] -> x | _ -> failwith "aag" in
          let inputs = Array.init (int_of_string i) (fun _ -> one ()) in
          let outputs = Array.init (int_of_string o) (fun _ -> one ()) in
          let ands =
            Array.init (int_of_string a) (fun _ ->
                match ints () with
                | [ x; y; z ] -> (x, y, z)
                | _ -> failwith "aag: and line")
          in
          { max_var = int_of_string m; inputs; outputs; ands }
        | _ -> failwith (path ^ ": not a combinational ASCII AIGER file"))

  let write path g =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc "aag %d %d 0 %d %d\n" g.max_var
          (Array.length g.inputs) (Array.length g.outputs)
          (Array.length g.ands);
        Array.iter (Printf.fprintf oc "%d\n") g.inputs;
        Array.iter (Printf.fprintf oc "%d\n") g.outputs;
        Array.iter (fun (x, y, z) -> Printf.fprintf oc "%d %d %d\n" x y z) g.ands)

  (* One word of patterns per input; gates must be defined before use,
     which the library's writer guarantees. *)
  let simulate g (words : int array) : int array =
    let v = Array.make (g.max_var + 1) 0 in
    let defined = Array.make (g.max_var + 1) false in
    defined.(0) <- true;
    let lit l =
      if not defined.(l lsr 1) then failwith "aag: use before definition";
      if l land 1 = 1 then lnot v.(l lsr 1) else v.(l lsr 1)
    in
    Array.iteri
      (fun k l ->
        v.(l lsr 1) <- words.(k);
        defined.(l lsr 1) <- true)
      g.inputs;
    Array.iter
      (fun (x, y, z) ->
        v.(x lsr 1) <- lit y land lit z;
        defined.(x lsr 1) <- true)
      g.ands;
    Array.map lit g.outputs

  let same_shape a b =
    Array.length a.inputs = Array.length b.inputs
    && Array.length a.outputs = Array.length b.outputs

  (* Random simulation over [rounds] x 63 patterns. *)
  let agree ~seed ?(rounds = 16) a b =
    same_shape a b
    &&
    let rng = Random.State.make [| seed; 0x5157 |] in
    let rec go r =
      r = 0
      ||
      let words =
        Array.init (Array.length a.inputs) (fun _ -> Int64.to_int (Random.State.bits64 rng))
      in
      simulate a words = simulate b words && go (r - 1)
    in
    go rounds

  (* A counterexample is valid when the two circuits disagree on it. *)
  let distinguishes a b (cex : bool array) =
    Array.length cex = Array.length a.inputs
    &&
    let words = Array.map (fun x -> if x then -1 else 0) cex in
    Array.exists2
      (fun x y -> x land 1 <> y land 1)
      (simulate a words) (simulate b words)

  (* A seeded permutation of the inputs and of the outputs.  Every cut
     function keeps its NPN class, so the exact-synthesis work of a
     design stays close to the same while the network the library reads
     changes with the seed.  Inputs are not negated: that flips the
     polarity of cut functions, and with it which exact-synthesis
     instances run into their conflict budget, which moved a 60-gate
     design's MIG time by 2x from seed to seed. *)
  let scramble ~rng g =
    let shuffle a =
      let a = Array.copy a in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      a
    in
    { g with inputs = shuffle g.inputs; outputs = shuffle g.outputs }

  (* Complement one fanin of one gate, picked from [rng], such that the
     simulated outputs change: the result is non-equivalent by
     construction. *)
  let mutate ~rng g =
    let n = Array.length g.ands in
    let start = Random.State.int rng n in
    let rec try_gate k =
      if k = n then failwith "mutate: no observable gate"
      else begin
        let i = (start + k) mod n in
        let ands = Array.copy g.ands in
        let x, y, z = ands.(i) in
        ands.(i) <- (x, y lxor 1, z);
        let m = { g with ands } in
        if agree ~seed:i m g then try_gate (k + 1) else m
      end
    in
    try_gate 0
end

(* ---------------------------------------------------------------- *)
(* Designs                                                           *)
(* ---------------------------------------------------------------- *)

module Sg = Suite_gen.Make (Aig)
module Ctl = Control.Make (Aig)

type design = { dname : string; build : Aig.t -> unit }

(* Sub-seed [k] of the workload seed. *)
let derive seed k = Hashtbl.hash (seed, k, "genlog-perfbench")

(* The suite's generators: control logic is [Control.random_logic] at the
   scale of its EPFL namesake; the seed scrambles each design (see
   [Ref.scramble]). *)
let design dname build = { dname; build }

(* Build [d], scramble it with a sub-seed of [seed] unless [scramble] is
   false, and write it as AIGER. *)
let write_design ?(scramble = true) ~seed dir d =
  let t = Aig.create () in
  d.build t;
  let path = Filename.concat dir (d.dname ^ ".aag") in
  Aiger.write_file t path;
  if scramble then begin
    let rng = Random.State.make [| derive seed (Hashtbl.hash d.dname) |] in
    Ref.write path (Ref.scramble ~rng (Ref.parse path))
  end;
  (* reading the file back is part of set-up: the library only ever
     receives the generated AIGER *)
  ignore (Aiger.read_file path);
  path

(* ---------------------------------------------------------------- *)
(* Operations                                                        *)
(* ---------------------------------------------------------------- *)

type qor = { gates : int; levels : int; luts : int; lut_levels : int }

(* [Failed]: the operation raised, degraded or stayed undecided;
   [Wrong]: its output or verdict is incorrect *)
type verdict = Pass | Failed of string | Wrong of string

type outcome = {
  qor : qor option;
  check : unit -> verdict;  (* run after the cycle, outside the timing *)
  missed : (string * Exact_synth.config * string) list;
      (* exact classes the operation synthesized: rep, config, key *)
}

type op = { label : string; run : unit -> outcome }

let layer_of = function
  | Script.Balance -> "algo.bz"
  | Script.Rewrite _ -> "algo.rw"
  | Script.Refactor _ -> "algo.rf"
  | Script.Resub _ -> "algo.rs"
  | Script.Fraig -> "algo.fraig"

let compress2rs = Script.parse Script.compress2rs

(* compress2rs without its rewriting passes: no exact synthesis, so the
   verify workload's pairs are cheap to produce. *)
let no_rewrite =
  List.filter (function Script.Rewrite _ -> false | _ -> true) compress2rs

(* When tracing, the exact-database activity of one operation: counter
   deltas, and the classes it added (the ones it missed and synthesized). *)
let with_db (db : Database.t) rep (f : unit -> 'a) : 'a * (string * Exact_synth.config * string) list =
  if not !tracing then (f (), [])
  else begin
    let h0, m0, f0 = Database.stats db in
    let keys0 = Hashtbl.copy db.Database.cache in
    let r = f () in
    let h1, m1, f1 = Database.stats db in
    counti "exact.hits" (h1 - h0);
    counti "exact.misses" (m1 - m0);
    counti "exact.failures" (f1 - f0);
    let missed =
      Hashtbl.fold
        (fun k _ acc ->
          if Hashtbl.mem keys0 k then acc else (rep, db.Database.config, k) :: acc)
        db.Database.cache []
    in
    (r, missed)
  end

(* compress2rs one command at a time, then cleanup, 6-LUT mapping and the
   AIGER write-back: what one [genlog opt] process does to one file. *)
module Pipeline
    (N : Intf.NETWORK)
    (X : sig
      val of_aig : Aig.t -> N.t
      val to_aig : N.t -> Aig.t
    end) =
struct
  module F = Flow.Make (N)
  module Cl = Convert.Cleanup (N)
  module Dp = Depth.Make (N)
  module Lm = Lutmap.Make (N)

  let optimize ?(commands = compress2rs) (env : Flow.env) in_path out_path : qor =
    let aig = span "lsio.read" (fun () -> Aiger.read_file in_path) in
    let net = span "network.convert" (fun () -> X.of_aig aig) in
    List.iteri
      (fun index cmd ->
        let layer = layer_of cmd in
        let before = N.num_gates net in
        span layer (fun () -> F.run_command env ~index net cmd);
        counti (layer ^ ".gates_removed") (before - N.num_gates net))
      commands;
    let net = span "network.cleanup" (fun () -> Cl.cleanup net) in
    let m = span "algo.lutmap" (fun () -> Lm.map net ~k:6 ()) in
    let out = span "network.convert" (fun () -> X.to_aig net) in
    span "lsio.write" (fun () -> Aiger.write_file out out_path);
    {
      gates = N.num_gates net;
      levels = Dp.depth net;
      luts = m.Lm.lut_count;
      lut_levels = m.Lm.depth;
    }
end

type rep = {
  rname : string;
  new_env : unit -> Flow.env;
  optimize : ?commands:Script.command list -> Flow.env -> string -> string -> qor;
}

let reps =
  let module A = Pipeline (Aig) (struct
    let of_aig = Fun.id
    let to_aig = Fun.id
  end) in
  let module M = Pipeline (Mig) (struct
    module To = Convert.Make (Aig) (Mig)
    module Back = Convert.Make (Mig) (Aig)

    let of_aig = To.convert
    let to_aig = Back.convert
  end) in
  let module X = Pipeline (Xag) (struct
    module To = Convert.Make (Aig) (Xag)
    module Back = Convert.Make (Xag) (Aig)

    let of_aig = To.convert
    let to_aig = Back.convert
  end) in
  let module XM = Pipeline (Xmg) (struct
    module To = Convert.Make (Aig) (Xmg)
    module Back = Convert.Make (Xmg) (Aig)

    let of_aig = To.convert
    let to_aig = Back.convert
  end) in
  [
    { rname = "aig"; new_env = (fun () -> Flow.aig_env ()); optimize = A.optimize };
    { rname = "mig"; new_env = (fun () -> Flow.mig_env ()); optimize = M.optimize };
    { rname = "xag"; new_env = (fun () -> Flow.xag_env ()); optimize = X.optimize };
    { rname = "xmg"; new_env = (fun () -> Flow.xmg_env ()); optimize = XM.optimize };
  ]

let aig_rep = List.hd reps

(* The output must simulate like the input. *)
let equivalence_check ~seed in_path out_path () =
  if Ref.agree ~seed (Ref.parse in_path) (Ref.parse out_path) then Pass
  else Wrong (out_path ^ " differs from " ^ in_path)

(* Optimize [in_path] with [env] (a fresh database when [env] is None). *)
let opt_op ~seed ~dir rep ?env ?commands in_path =
  let base = Filename.remove_extension (Filename.basename in_path) in
  let out_path = Filename.concat dir (Printf.sprintf "%s.%s.out.aag" base rep.rname) in
  {
    label = base ^ "/" ^ rep.rname;
    run =
      (fun () ->
        let env = match env with Some e -> e | None -> rep.new_env () in
        let qor, missed =
          with_db env.Flow.db rep.rname (fun () -> rep.optimize ?commands env in_path out_path)
        in
        { qor = Some qor; check = equivalence_check ~seed in_path out_path; missed });
  }

module Cec_aig = Cec.Make (Aig) (Aig)

(* CEC of a pair whose answer is known: [expect_equal] for an input and
   its optimized output, otherwise a mutant that simulation already told
   apart. *)
let cec_op ~label ~expect_equal ?qor a_path b_path =
  {
    label;
    run =
      (fun () ->
        let a = span "lsio.read" (fun () -> Aiger.read_file a_path) in
        let b = span "lsio.read" (fun () -> Aiger.read_file b_path) in
        let r, rep = span "algo.cec" (fun () -> Cec_aig.check_full a b) in
        counti "algo.cec.conflicts" rep.Cec_aig.conflicts;
        counti "algo.cec.rungs" rep.Cec_aig.rungs_used;
        let check () =
          match (r, expect_equal) with
          | Cec.Equivalent, true -> Pass
          | Cec.Counterexample cex, false ->
            if Ref.distinguishes (Ref.parse a_path) (Ref.parse b_path) cex then Pass
            else Wrong (label ^ ": counterexample does not distinguish the pair")
          | Cec.Unknown, _ -> Failed (label ^ ": UNKNOWN")
          | Cec.Equivalent, false -> Wrong (label ^ ": non-equivalent pair proved equivalent")
          | Cec.Counterexample _, true -> Wrong (label ^ ": equivalent pair refuted")
        in
        { qor; check; missed = [] });
  }

module Part = Flow.Partition.Make (Aig)
module Aig_lm = Lutmap.Make (Aig)
module Aig_depth = Depth.Make (Aig)

let partition_op ~seed ~dir ~size_cap ~jobs (env : Flow.env) in_path =
  let base = Filename.remove_extension (Filename.basename in_path) in
  let out_path = Filename.concat dir (base ^ ".part.out.aag") in
  {
    label = base ^ "/partition";
    run =
      (fun () ->
        let (qor, st), missed =
          with_db env.Flow.db "aig" (fun () ->
              let aig = span "lsio.read" (fun () -> Aiger.read_file in_path) in
              let out, st =
                span "flow.partition.run" (fun () ->
                    Part.run ~size_cap ~jobs ~make_env:(fun () -> env) aig)
              in
              let m = span "algo.lutmap" (fun () -> Aig_lm.map out ~k:6 ()) in
              span "lsio.write" (fun () -> Aiger.write_file out out_path);
              ( {
                  gates = Aig.num_gates out;
                  levels = Aig_depth.depth out;
                  luts = m.Aig_lm.lut_count;
                  lut_levels = m.Aig_lm.depth;
                },
                st ))
        in
        count "flow.partition.carve_s" st.Part.carve_seconds;
        counti "flow.partition.pieces" st.Part.partitions;
        counti "flow.partition.accepted" st.Part.accepted;
        counti "flow.partition.rejected_cost" st.Part.rejected_cost;
        counti "flow.partition.rejected_cex" st.Part.rejected_cex;
        counti "flow.partition.sim_mismatches" st.Part.sim_mismatches;
        let check () =
          if st.Part.failed + st.Part.degraded_pieces + st.Part.stitch_fallbacks > 0
          then Failed (base ^ ": partition run degraded")
          else equivalence_check ~seed in_path out_path ()
        in
        { qor = Some qor; check; missed });
  }

(* ---------------------------------------------------------------- *)
(* Workloads                                                         *)
(* ---------------------------------------------------------------- *)

(* Run [ops] once, untimed, on one domain, sampling the machine's speed
   after each. *)
let run_untimed =
  List.iter (fun op ->
      ignore (op.run ());
      ignore (Speed.sample ()))

(* Each workload is its set-up: everything before the timed region.  It
   returns the operations of one cycle. *)

let cold_small ~dir ~seed =
  (* small enough for several cycles per run: control logic below ctrl
     scale, a round-robin arbiter and a comparator/mux tree *)
  let designs =
    [
      design "ctrl60" (fun t ->
          Ctl.random_logic t ~seed:0xC7 ~num_pis:7 ~num_pos:8 ~num_gates:60);
      design "arbiter8" (Sg.arbiter ~width:8);
      design "max4x4" (Sg.max4 ~width:4);
    ]
  in
  List.concat_map
    (fun f -> List.map (fun rep -> opt_op ~seed ~dir rep f) reps)
    (List.map (write_design ~seed dir) designs)

let warm_large ~dir ~seed =
  let designs =
    [
      design "i2c" Sg.i2c;
      design "voter101" (Sg.voter ~n:101);
      design "sin10" (Sg.sin ~width:10);
    ]
  in
  let env = aig_rep.new_env () in
  let ops =
    List.map (opt_op ~seed ~dir aig_rep ~env) (List.map (write_design ~seed dir) designs)
  in
  (* fill the database as a --cache store would be *)
  run_untimed ops;
  ops

let verify ~dir ~seed =
  (* The seed only picks the mutated gates: a scrambled input reorders
     the miter's variables, and that alone moves a CEC's SAT time up to
     5x from seed to seed. *)
  (* (design, whether a mutant of its output is checked too) *)
  let designs =
    [
      (design "cavlc" Sg.cavlc, false);
      (design "mult6" (Sg.multiplier ~width:6), true);
      (design "square10" (Sg.square ~width:10), false);
      (design "sqrt16" (Sg.sqrt ~width:16), false);
      (design "sqrt20" (Sg.sqrt ~width:20), true);
    ]
  in
  let env = aig_rep.new_env () in
  let rng = Random.State.make [| derive seed 9 |] in
  List.concat_map
    (fun (d, mutate) ->
      let inp = write_design ~scramble:false ~seed dir d in
      let op = opt_op ~seed ~dir aig_rep ~env ~commands:no_rewrite inp in
      let o = op.run () in
      let out = Filename.concat dir (d.dname ^ ".aig.out.aag") in
      (match o.check () with
      | Pass -> ()
      | Failed m | Wrong m -> failwith ("verify set-up: " ^ m));
      cec_op ~label:(d.dname ^ "/opt") ~expect_equal:true ?qor:o.qor inp out
      ::
      (if mutate then begin
         let mutant = Filename.concat dir (d.dname ^ ".mutant.aag") in
         Ref.write mutant (Ref.mutate ~rng (Ref.parse out));
         [ cec_op ~label:(d.dname ^ "/mutant") ~expect_equal:false inp mutant ]
       end
       else []))
    designs

let partition_j2 ~dir ~seed =
  let file = write_design ~seed dir (design "mem_ctrl" Sg.mem_ctrl) in
  let env = aig_rep.new_env () in
  let op jobs = partition_op ~seed ~dir ~size_cap:1500 ~jobs env file in
  (* warm the shared database through the same pieces on one domain *)
  run_untimed [ op 1 ];
  [ op 2 ]

let workloads =
  [
    ("cold_small", cold_small);
    ("warm_large", warm_large);
    ("verify", verify);
    ("partition_j2", partition_j2);
  ]

(* ---------------------------------------------------------------- *)
(* Measurement                                                       *)
(* ---------------------------------------------------------------- *)

type result = {
  label : string;
  seconds : float;
  scale : float;  (* [Speed.scale] of the samples around the operation *)
  outcome : (outcome, string) Stdlib.result;
  verdict : verdict;
}

(* [wall]: the cycle's timed region, the sum of its operation times *)
type cycle = { wall : float; results : result list; layer : (string * float) list }

let gc_snapshot () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words, s.Gc.major_collections)

(* One cycle: every operation once, then the checks of its outputs
   before the next cycle overwrites them.  Returns the cycle's timed
   region and, when [traced], the layer counters it produced. *)
let run_cycle ~traced ops =
  tracing := traced;
  Hashtbl.reset counters;
  let results =
    List.map
      (fun (op : op) ->
        current_op := op.label;
        (* every operation starts from a compacted heap, as a fresh
           process would *)
        Gc.compact ();
        let before = Speed.sample () in
        let g0 = gc_snapshot () and x0 = Exact_synth.telemetry () in
        let s = now () in
        let outcome =
          match span "op" op.run with
          | o -> Ok o
          | exception e -> Error (op.label ^ ": " ^ Printexc.to_string e)
        in
        let seconds = now () -. s in
        if traced then begin
          let minor1, major1, coll1 = gc_snapshot () and minor0, major0, coll0 = g0 in
          count "gc.minor_words" (minor1 -. minor0);
          count "gc.major_words" (major1 -. major0);
          counti "gc.major_collections" (coll1 - coll0);
          let x1 = Exact_synth.telemetry () in
          let d k = List.assoc k x1 - List.assoc k x0 in
          counti "satkit.exact.calls" (d "calls");
          counti "satkit.exact.conflicts" (d "solver_conflicts");
          counti "satkit.exact.propagations" (d "solver_propagations");
          counti "satkit.exact.unknown" (d "unknown")
        end;
        (op.label, seconds, outcome, before))
      ops
  in
  (* the sample after an operation is the one before the next *)
  let afters = List.tl (List.map (fun (_, _, _, r) -> r) results) @ [ Speed.sample () ] in
  let results =
    List.map2
      (fun (label, seconds, outcome, before) after ->
        let verdict =
          match outcome with Ok o -> o.check () | Error m -> Failed m
        in
        { label; seconds; scale = Speed.scale [ before; after ]; outcome; verdict })
      results afters
  in
  let wall = List.fold_left (fun a r -> a +. r.seconds) 0. results in
  tracing := false;
  let layer = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters [] in
  { wall; results; layer }

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* Peak resident set size (Linux). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match Scanf.sscanf (input_line ic) "VmHWM: %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.
        | exception Scanf.Scan_failure _ -> find ()
      in
      find ())

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

(* Re-synthesize every class the operations missed, one class at a time,
   to split the exact layer's time by class.  Each class is timed once
   and charged for every miss. *)
let exact_synthesis_times missed =
  let memo = Hashtbl.create 64 in
  List.fold_left
    (fun (total, worst) (rep, config, key) ->
      let t =
        match Hashtbl.find_opt memo (rep, key) with
        | Some t -> t
        | None ->
          let n, hex = Database.split_key key in
          let tt = Tt.of_hex n hex in
          let s = now () in
          ignore (Exact_synth.synthesize config tt);
          let t = now () -. s in
          Hashtbl.replace memo (rep, key) t;
          t
      in
      (total +. t, Float.max worst t))
    (0., 0.) missed

let json_number v =
  if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-32s %s %s\n" name (json_number v) unit)
    metrics;
  let ms =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed region");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let setup =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  let seed = !seed and traced = !trace = 1 in
  let root = "_perfbench" in
  let dir =
    Filename.concat root
      (Printf.sprintf "%s-%d-%d" !workload seed (Unix.getpid ()))
  in
  mkdir_p dir;
  exit @@ Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* set-up, repeated while it is cheap (at most 20 times, no new one
     after 3 s) for a steady median, each scaled by the speed sampled
     around and during it; the last one is used *)
  let rec setups spent acc =
    Speed.reset ();
    ignore (Speed.sample ());
    let s = now () in
    let ops = setup ~dir ~seed in
    let t = now () -. s in
    ignore (Speed.sample ());
    let acc = (t, Speed.scale !Speed.taken, ops) :: acc in
    let spent = spent +. t in
    if traced || List.length acc >= 20 || spent >= 3. then acc else setups spent acc
  in
  let setups = setups 0. [] in
  let setup_s = median (List.map (fun (t, scale, _) -> t *. scale) setups) in
  let ops = match setups with (_, _, ops) :: _ -> ops | [] -> assert false in
  Printf.printf "workload %s seed %d: %d operations per cycle, set-up %.3f s\n%!"
    !workload seed (List.length ops) setup_s;
  (* timed cycles; a traced run alternates untraced and traced cycles,
     whose difference is the tracing overhead, after one untimed cycle so
     that neither pays for the first cycle after set-up *)
  if traced then ignore (run_cycle ~traced:false ops);
  let start = now () in
  (* memory is read after the first cycle: later cycles add heap growth
     that depends on how many cycles the machine's speed allows *)
  let peak_rss = ref 0. in
  let rec loop acc =
    let s = now () in
    let plain = run_cycle ~traced:false ops in
    if acc = [] then peak_rss := peak_rss_mb ();
    let acc =
      if traced then (plain, Some (run_cycle ~traced:true ops)) :: acc
      else (plain, None) :: acc
    in
    (* start another cycle only if it should end within [--seconds] *)
    if now () -. start +. (now () -. s) <= !seconds then loop acc
    else List.rev acc
  in
  let cycles = loop [] in
  let plain = List.map fst cycles in
  let traced_cycles = List.filter_map snd cycles in
  let results = List.concat_map (fun c -> c.results) (plain @ traced_cycles) in
  let failed = List.filter (fun r -> r.verdict <> Pass) results in
  List.iter
    (fun r ->
      match r.verdict with
      | Pass -> ()
      | Failed m -> Printf.printf "FAILED %s\n" m
      | Wrong m -> Printf.printf "WRONG %s\n" m)
    failed;
  let correct =
    List.for_all (fun r -> match r.verdict with Wrong _ -> false | _ -> true) results
  in
  let first = List.hd plain in
  List.iter
    (fun r ->
      match r.outcome with
      | Ok { qor = Some q; _ } ->
        Printf.printf "  %-28s %8.3f s  gates %6d  levels %4d  luts %6d  lut_levels %3d\n"
          r.label r.seconds q.gates q.levels q.luts q.lut_levels
      | _ -> Printf.printf "  %-28s %8.3f s\n" r.label r.seconds)
    first.results;
  let qor_sum f =
    List.fold_left
      (fun acc r ->
        match r.outcome with
        | Ok { qor = Some q; _ } -> acc + f q
        | _ -> acc)
      0 first.results
  in
  (* an operation's time is its median over the cycles, each scaled by
     the samples around it (see [Speed]); a cycle's time is the sum of
     those and p50_s is their median *)
  let op_times ?(scaled = true) cycles =
    List.mapi
      (fun i _ ->
        median
          (List.map
             (fun c ->
               let r = List.nth c.results i in
               if scaled then r.seconds *. r.scale else r.seconds)
             cycles))
      ops
  in
  let sum = List.fold_left ( +. ) 0. in
  let per_op = op_times plain in
  let total_s = sum per_op in
  let n_ops = List.length ops in
  let scales = List.concat_map (fun c -> List.map (fun r -> r.scale) c.results) plain in
  Printf.printf "cycles (s): %s\n"
    (String.concat " " (List.map (fun c -> Printf.sprintf "%.3f" c.wall) plain));
  Printf.printf "median speed scale %.3f\n" (median scales);
  Printf.printf "p50_s over %d operations x %d cycles\n" n_ops (List.length plain);
  let metrics =
    if not traced then
      [
        ("setup_s", setup_s, "s");
        ("total_s", total_s, "s");
        ("p50_s", median per_op, "s");
        ("ops", float_of_int n_ops, "count");
        ("gates", float_of_int (qor_sum (fun q -> q.gates)), "count");
        ("levels", float_of_int (qor_sum (fun q -> q.levels)), "count");
        ("luts", float_of_int (qor_sum (fun q -> q.luts)), "count");
        ("lut_levels", float_of_int (qor_sum (fun q -> q.lut_levels)), "count");
        ("peak_rss_mb", !peak_rss, "MB");
      ]
    else begin
      let tc = List.hd traced_cycles in
      let layer k = Option.value ~default:0. (List.assoc_opt k tc.layer) in
      let missed = List.concat_map (fun r ->
          match r.outcome with Ok o -> o.missed | Error _ -> []) tc.results in
      let synth_s, synth_max = exact_synthesis_times missed in
      let selfs = self_times !spans in
      let ntraced = float_of_int (List.length traced_cycles) in
      let self k = Option.value ~default:0. (Hashtbl.find_opt selfs k) /. ntraced in
      let hits = layer "exact.hits" and misses = layer "exact.misses" in
      let cycle_failed = List.length (List.filter (fun r -> r.verdict <> Pass) first.results) in
      write_spans
        (Filename.concat root (Printf.sprintf "spans-%s-%d.jsonl" !workload seed))
        !spans;
      [
        ("failed_ratio", float_of_int cycle_failed /. float_of_int n_ops, "ratio");
        ("exact.misses", misses, "count");
        ("exact.hits", hits, "count");
        ("exact.hit_ratio", (if hits +. misses > 0. then hits /. (hits +. misses) else 0.), "ratio");
        ("exact.failures", layer "exact.failures", "count");
        ("exact.synth_s", synth_s, "s");
        ("exact.synth_max_class_s", synth_max, "s");
        ("satkit.exact.calls", layer "satkit.exact.calls", "count");
        ("satkit.exact.conflicts", layer "satkit.exact.conflicts", "count");
        ("satkit.exact.propagations", layer "satkit.exact.propagations", "count");
        ("satkit.exact.unknown", layer "satkit.exact.unknown", "count");
        ("algo.cec_s", self "algo.cec", "s");
        ("algo.cec.conflicts", layer "algo.cec.conflicts", "count");
        ("algo.cec.rungs", layer "algo.cec.rungs", "count");
        ("algo.bz_s", self "algo.bz", "s");
        ("algo.rw_s", self "algo.rw", "s");
        ("algo.rf_s", self "algo.rf", "s");
        ("algo.rs_s", self "algo.rs", "s");
        ("algo.bz.gates_removed", layer "algo.bz.gates_removed", "count");
        ("algo.rw.gates_removed", layer "algo.rw.gates_removed", "count");
        ("algo.rf.gates_removed", layer "algo.rf.gates_removed", "count");
        ("algo.rs.gates_removed", layer "algo.rs.gates_removed", "count");
        ("algo.lutmap_s", self "algo.lutmap", "s");
        ("lsio.read_s", self "lsio.read", "s");
        ("lsio.write_s", self "lsio.write", "s");
        ("network.convert_s", self "network.convert", "s");
        ("network.cleanup_s", self "network.cleanup", "s");
        ("gc.minor_words", layer "gc.minor_words", "words");
        ("gc.major_words", layer "gc.major_words", "words");
        ("gc.major_collections", layer "gc.major_collections", "count");
        ("flow.partition.carve_s", layer "flow.partition.carve_s", "s");
        ("flow.partition.run_s", self "flow.partition.run", "s");
        ("flow.partition.pieces", layer "flow.partition.pieces", "count");
        ("flow.partition.accepted", layer "flow.partition.accepted", "count");
        ("flow.partition.rejected_cost", layer "flow.partition.rejected_cost", "count");
        ("flow.partition.rejected_cex", layer "flow.partition.rejected_cex", "count");
        ("flow.partition.sim_mismatches", layer "flow.partition.sim_mismatches", "count");
        ("obs.trace_overhead_s",
          sum (op_times traced_cycles) -. total_s, "s");
        ("obs.unscaled_total_s", sum (op_times ~scaled:false plain), "s");
        ("obs.speed_scale", median scales, "ratio");
      ]
    end
  in
  print_result ~correct ~attempted:(List.length results) ~failed:(List.length failed)
    metrics;
  if correct then 0 else 1
