(* Tests for the solver-depth telemetry layer: Solver snapshot
   monotonicity, per-pass SAT aggregation in
   Trace.summarize, and the HTML dashboard's golden structure. *)

module T = Obs.Trace
module J = Obs.Json
module Solver = Satkit.Solver

let lit v neg = Satkit.Lit.of_var v ~negated:neg

(* php(n+1, n): UNSAT with real conflict-driven search, so every counter
   the snapshot tracks actually moves. *)
let add_php s n =
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
  done

(* -- snapshot monotonicity -- *)

let monotone_fields (a : Solver.snapshot) (b : Solver.snapshot) =
  [
    ("learned_total", a.Solver.s_learned_total, b.Solver.s_learned_total);
    ("conflicts", a.Solver.s_conflicts, b.Solver.s_conflicts);
    ("decisions", a.Solver.s_decisions, b.Solver.s_decisions);
    ("propagations", a.Solver.s_propagations, b.Solver.s_propagations);
    ("restarts", a.Solver.s_restarts, b.Solver.s_restarts);
    ("reduces", a.Solver.s_reduces, b.Solver.s_reduces);
    ("inprocess_rounds", a.Solver.s_inprocess_rounds, b.Solver.s_inprocess_rounds);
    ("minimized_lits", a.Solver.s_minimized_lits, b.Solver.s_minimized_lits);
    ("subsumed", a.Solver.s_subsumed, b.Solver.s_subsumed);
    ("strengthened", a.Solver.s_strengthened, b.Solver.s_strengthened);
    ("vivified", a.Solver.s_vivified, b.Solver.s_vivified);
  ]

let check_snapshot_monotone n name =
  let s = Solver.create () in
  add_php s n;
  let s0 = Solver.snapshot s in
  (* fresh solver: every counter starts at zero *)
  List.iter
    (fun (k, v, _) ->
      Alcotest.(check int) (name ^ ": " ^ k ^ " starts at 0") 0 v)
    (monotone_fields s0 s0);
  Alcotest.(check bool)
    (name ^ ": unsat") true
    (Solver.solve s = Solver.Unsat);
  let s1 = Solver.snapshot s in
  List.iter
    (fun (k, before, after) ->
      Alcotest.(check bool)
        (name ^ ": " ^ k ^ " monotone")
        true (after >= before))
    (monotone_fields s0 s1);
  Alcotest.(check bool)
    (name ^ ": search happened") true
    (s1.Solver.s_conflicts > 0 && s1.Solver.s_propagations > 0
    && s1.Solver.s_decisions > 0);
  (* the learn-time LBD histogram accounts for every learnt clause *)
  Alcotest.(check int)
    (name ^ ": lbd histogram sums to learned_total")
    s1.Solver.s_learned_total
    (Array.fold_left ( + ) 0 s1.Solver.s_lbd);
  (* diff against the zero snapshot is the snapshot itself (counters) *)
  let d = Solver.diff_snapshot s0 s1 in
  Alcotest.(check int)
    (name ^ ": diff conflicts")
    s1.Solver.s_conflicts d.Solver.s_conflicts;
  (* stats_of_snapshot exposes the counters under stable labels *)
  let labels = List.map fst (Solver.stats_of_snapshot s1) in
  List.iter
    (fun k ->
      Alcotest.(check bool) (name ^ ": stats carries " ^ k) true
        (List.mem k labels))
    [ "conflicts"; "propagations"; "learned_total"; "lbd_glue"; "lbd_mid";
      "lbd_high" ];
  s1

let test_snapshot_modern () = ignore (check_snapshot_monotone 6 "php(7,6)")

(* php(9,8) takes enough conflicts (about 14k) for the kernel's clause-DB
   reduction and inprocessing to run, so their counters move too and the
   UNSAT answer is reached through both paths. *)
let test_snapshot_reduce_inprocess () =
  let s1 = check_snapshot_monotone 8 "php(9,8)" in
  Alcotest.(check bool) "reductions ran" true (s1.Solver.s_reduces > 0);
  Alcotest.(check bool) "inprocessing ran" true
    (s1.Solver.s_inprocess_rounds > 0 && s1.Solver.s_subsumed > 0
    && s1.Solver.s_vivified > 0)

(* Hand-built event stream: gauges from the span's own flow and from child
   flows must fold into the nearest open ancestor span. *)
let test_summarize_sat_attribution () =
  let events =
    [
      T.Pass_begin { t = 0.0; flow = "opt"; pass = "rw"; index = 0; gates = 10; depth = 3 };
      (* single-solver telemetry: solver_* gauges through a metrics event,
         emitted from a child flow of the open span *)
      T.Metrics
        {
          t = 0.1; flow = "opt/part1"; algo = "cec"; counters = [];
          gauges = [ ("solver_conflicts", 5); ("solver_propagations", 100) ];
          hists = [];
        };
      (* and a second solver on the span's own flow *)
      T.Metrics
        {
          t = 0.2; flow = "opt"; algo = "exact"; counters = [];
          gauges = [ ("solver_conflicts", 10); ("solver_propagations", 80) ];
          hists = [];
        };
      T.Pass_end
        {
          t = 0.3; flow = "opt"; pass = "rw"; index = 0; gates = 8; depth = 3;
          elapsed = 0.3; gc = T.gc_zero;
        };
    ]
  in
  match T.summarize (T.of_events events) with
  | [ row ] ->
    Alcotest.(check int) "conflicts summed" (5 + 10) row.T.row_sat_conflicts;
    Alcotest.(check int) "propagations summed" (100 + 80)
      row.T.row_sat_propagations
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* Empty / meta-only traces degrade to a clean message, not a table. *)
let test_empty_trace_graceful () =
  let str pp v = Format.asprintf "%a" pp v in
  let empty = T.of_events [] in
  Alcotest.(check string) "pp_trace empty"
    "trace: no spans recorded (empty or meta-only file)\n"
    (str Obs.Report.pp_trace empty);
  (* a run that failed before its first span still shows its fault tallies *)
  let faults_only = T.create () in
  Obs.Metrics.emit_counters faults_only ~algo:"faults"
    [ ("engine.pass.draws", 2); ("engine.pass.fired", 1) ];
  Alcotest.(check string) "pp_trace faults without spans"
    "trace: no spans recorded (empty or meta-only file)\n\
     faults: engine.pass.draws=2 engine.pass.fired=1\n"
    (str Obs.Report.pp_trace faults_only);
  (* a real file holding only the meta line parses to zero events *)
  let path = Filename.temp_file "meta" ".jsonl" in
  T.write_file empty path;
  let parsed, _ = Obs.Report.load_trace path in
  Sys.remove path;
  Alcotest.(check int) "meta-only file has no events" 0
    (List.length (T.events parsed))

(* -- exact synthesis telemetry -- *)

let test_exact_telemetry () =
  Exact.Synth.reset_telemetry ();
  let get k l = match List.assoc_opt k l with Some v -> v | None -> -1 in
  let before = Exact.Synth.telemetry () in
  Alcotest.(check int) "calls reset" 0 (get "calls" before);
  (* a 2-input XOR needs 3 AND gates: several SAT calls, some UNSAT *)
  let f = Kitty.Tt.of_hex 2 "6" in
  (match Exact.Synth.(synthesize aig_config f) with
  | Exact.Synth.Chain _ -> ()
  | _ -> Alcotest.fail "xor2 must synthesize as a chain");
  let after = Exact.Synth.telemetry () in
  Alcotest.(check bool) "calls counted" true (get "calls" after > 0);
  Alcotest.(check bool) "sat+unsat+unknown = calls" true
    (get "sat" after + get "unsat" after + get "unknown" after
    = get "calls" after);
  Alcotest.(check bool) "propagations counted" true
    (get "solver_propagations" after > 0)

let bench_payload ~seconds ~nodes =
  J.parse
    (Printf.sprintf
       "{\"bench\":\"smoke\",\"schema\":2,\"rows\":[{\"benchmark\":\"voter\",\
        \"stage\":\"generic\",\"nodes\":%d,\"seconds\":%f}]}"
       nodes seconds)

(* -- HTML dashboard golden structure -- *)

let test_html_structure () =
  let trace =
    T.of_events
      [
        T.Pass_begin { t = 0.0; flow = "aig"; pass = "rw"; index = 0; gates = 10; depth = 3 };
        T.Metrics
          {
            t = 0.1; flow = "aig"; algo = "cec"; counters = [];
            gauges = [ ("solver_conflicts", 4); ("solver_propagations", 9) ];
            hists = [];
          };
        T.Metrics
          {
            t = 0.15; flow = "aig"; algo = "rewrite";
            counters = [ ("tried", 5); ("accepted", 2) ]; gauges = []; hists = [];
          };
        T.Pass_end
          { t = 0.2; flow = "aig"; pass = "rw"; index = 0; gates = 8; depth = 3;
            elapsed = 0.2; gc = T.gc_zero };
      ]
  in
  let bench = bench_payload ~seconds:1.0 ~nodes:100 in
  let html = Obs.Html.render ~trace ~bench () in
  let contains needle =
    let nl = String.length needle and hl = String.length html in
    let rec go i =
      i + nl <= hl && (String.sub html i nl = needle || go (i + 1))
    in
    go 0
  in
  (* well-formed shell *)
  Alcotest.(check bool) "doctype" true (contains "<!DOCTYPE html>");
  Alcotest.(check bool) "closes html" true (contains "</html>");
  (* every section anchor present *)
  List.iter
    (fun anchor ->
      Alcotest.(check bool) ("anchor " ^ anchor) true
        (contains (Printf.sprintf "id=\"%s\"" anchor)))
    [ "meta"; "passes"; "sat"; "bench" ];
  (* content made it in: SAT totals, bench row *)
  Alcotest.(check bool) "sat conflicts shown" true
    (contains "conflicts <b>4</b>");
  Alcotest.(check bool) "benchmark row shown" true (contains "voter");
  (* the per-pass table carries the counters column, rendered like the
     text table's *)
  Alcotest.(check bool) "counters column" true
    (contains "<th class=\"l\">counters</th>");
  Alcotest.(check bool) "counters rendered as in pp_trace" true
    (contains
       (Format.asprintf "<td class=\"l\">%a</td>" Obs.Report.pp_counters
          [ ("rewrite", [ ("tried", 5); ("accepted", 2) ]) ]));
  Alcotest.(check bool) "counters text" true
    (contains "rewrite(tried=5,accepted=2)");
  (* self-contained: no external requests of any kind *)
  List.iter
    (fun banned ->
      Alcotest.(check bool) ("no " ^ banned) true (not (contains banned)))
    [ "http://"; "https://"; "src="; "href="; "url("; "@import" ]

let suite =
  [
    Alcotest.test_case "snapshot monotone (modern kernel)" `Quick
      test_snapshot_modern;
    Alcotest.test_case "snapshot monotone (reduction + inprocessing)" `Quick
      test_snapshot_reduce_inprocess;
    Alcotest.test_case "summarize attributes SAT work to spans" `Quick
      test_summarize_sat_attribution;
    Alcotest.test_case "empty trace renders gracefully" `Quick
      test_empty_trace_graceful;
    Alcotest.test_case "exact synthesis telemetry counters" `Quick
      test_exact_telemetry;
    Alcotest.test_case "html dashboard golden structure" `Quick
      test_html_structure;
  ]
