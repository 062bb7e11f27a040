(* Tests for the offline observability consumers: the minimal JSON
   parser, the BENCH QoR regression gate ([Report.check]), the JSONL
   round-trip through [Report.load_trace], and the Chrome trace-event
   export (valid JSON, per-track timestamp monotonicity). *)

module T = Obs.Trace
module J = Obs.Json
module R = Obs.Report

(* -- the JSON parser -- *)

let test_json_parser () =
  (match J.parse "  {\"a\": 1, \"b\": [true, false, null], \"c\": \"x\\ny\"} " with
  | J.Obj kvs ->
    Alcotest.(check int) "object size" 3 (List.length kvs);
    Alcotest.(check (option (float 0.0))) "int member" (Some 1.0)
      (Option.bind (List.assoc_opt "a" kvs) J.to_num);
    (match List.assoc_opt "b" kvs with
    | Some (J.Arr [ J.Bool true; J.Bool false; J.Null ]) -> ()
    | _ -> Alcotest.fail "array member");
    Alcotest.(check (option string)) "escaped string" (Some "x\ny")
      (Option.bind (List.assoc_opt "c" kvs) J.to_string)
  | _ -> Alcotest.fail "expected object");
  (match J.parse "-12.5e1" with
  | J.Num f -> Alcotest.(check (float 1e-9)) "scientific number" (-125.0) f
  | _ -> Alcotest.fail "expected number");
  (match J.parse "\"\\u0041\\\\\\\"\"" with
  | J.Str s -> Alcotest.(check string) "unicode + escapes" "A\\\"" s
  | _ -> Alcotest.fail "expected string");
  List.iter
    (fun bad ->
      let rejected =
        match J.parse bad with
        | exception J.Parse_error _ -> true
        | _ -> false
      in
      Alcotest.(check bool) ("rejects " ^ bad) true rejected)
    [ "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\" 1}"; "1 2" ]

(* -- the QoR gate -- *)

let bench_json ?cost rows =
  let cost_header =
    match cost with
    | None -> ""
    | Some c -> Printf.sprintf "\"cost\":\"%s\"," c
  in
  J.parse
    (Printf.sprintf
       "{\"bench\":\"t\",\"schema\":2,%s\"rows\":[%s]}" cost_header
       (String.concat ","
          (List.map
             (fun (b, s, fields) ->
               Printf.sprintf
                 "{\"benchmark\":\"%s\",\"stage\":\"%s\"%s}" b s
                 (String.concat ""
                    (List.map
                       (fun (k, v) -> Printf.sprintf ",\"%s\":%g" k v)
                       fields)))
             rows)))

let base_rows =
  [
    ("ctrl", "generic", [ ("nodes", 150.0); ("luts", 61.0); ("seconds", 1.0) ]);
    ("cavlc", "generic", [ ("nodes", 450.0); ("luts", 182.0); ("seconds", 2.0) ]);
  ]

let test_check_self_passes () =
  let b = bench_json base_rows in
  Alcotest.(check (list string))
    "identical files pass" []
    (R.check ~baseline:b ~current:b R.default_thresholds);
  (* improvements and sub-threshold jitter also pass *)
  let better =
    bench_json
      [
        ("ctrl", "generic", [ ("nodes", 140.0); ("luts", 60.0); ("seconds", 0.9) ]);
        ("cavlc", "generic",
         [ ("nodes", 450.0); ("luts", 183.0); ("seconds", 2.01) ]);
        ("extra", "generic", [ ("nodes", 10.0) ]);
      ]
  in
  Alcotest.(check (list string))
    "improvement + jitter + new coverage pass" []
    (R.check ~baseline:(bench_json base_rows) ~current:better
       { R.default_thresholds with R.qor_pct = 2.0 })

let test_check_flags_regressions () =
  let regressed =
    bench_json
      [
        ("ctrl", "generic", [ ("nodes", 150.0); ("luts", 80.0); ("seconds", 1.0) ]);
        ("cavlc", "generic",
         [ ("nodes", 450.0); ("luts", 182.0); ("seconds", 9.0) ]);
      ]
  in
  let problems =
    R.check ~baseline:(bench_json base_rows) ~current:regressed
      R.default_thresholds
  in
  (* luts 61 -> 80 breaks the QoR threshold; seconds 2 -> 9 breaks the
     time threshold *)
  Alcotest.(check int) "two regressions" 2 (List.length problems);
  let mentions needle =
    List.exists
      (fun p ->
        let n = String.length p and m = String.length needle in
        let rec scan i = i + m <= n && (String.sub p i m = needle || scan (i + 1)) in
        scan 0)
      problems
  in
  Alcotest.(check bool) "flags luts" true (mentions "luts");
  Alcotest.(check bool) "flags seconds" true (mentions "seconds");
  (* --ignore-time keeps only the QoR failure *)
  let qor_only =
    R.check ~baseline:(bench_json base_rows) ~current:regressed
      { R.default_thresholds with R.check_time = false }
  in
  Alcotest.(check int) "time ignored" 1 (List.length qor_only)

let test_check_missing_row_fails () =
  let dropped = bench_json [ List.hd base_rows ] in
  let problems =
    R.check ~baseline:(bench_json base_rows) ~current:dropped
      R.default_thresholds
  in
  Alcotest.(check int) "dropped benchmark is a regression" 1
    (List.length problems)

(* -- the cost-aware gate -- *)

let mentions problems needle =
  List.exists
    (fun p ->
      let n = String.length p and m = String.length needle in
      let rec scan i = i + m <= n && (String.sub p i m = needle || scan (i + 1)) in
      scan 0)
    problems

let test_check_cost_mismatch () =
  (* comparing runs optimized for different objectives is meaningless and
     must be flagged rather than silently passing *)
  let rows = [ ("ctrl", "generic", [ ("nodes", 150.0) ]) ] in
  let problems =
    R.check
      ~baseline:(bench_json ~cost:"area" rows)
      ~current:(bench_json ~cost:"depth" rows)
      R.default_thresholds
  in
  Alcotest.(check bool) "mismatch flagged" true
    (mentions problems "cost-spec mismatch");
  (* same spec on both sides: no mismatch problem *)
  Alcotest.(check (list string))
    "matching cost passes" []
    (R.check
       ~baseline:(bench_json ~cost:"depth" rows)
       ~current:(bench_json ~cost:"depth" rows)
       R.default_thresholds)

let test_check_cost_gated_fields () =
  (* a depth run gates levels, not nodes: an area explosion alone passes,
     a level regression fails *)
  let base =
    bench_json ~cost:"depth"
      [ ("ctrl", "generic", [ ("nodes", 150.0); ("levels", 20.0) ]) ]
  in
  let fatter_but_flat =
    bench_json ~cost:"depth"
      [ ("ctrl", "generic", [ ("nodes", 400.0); ("levels", 20.0) ]) ]
  in
  Alcotest.(check (list string))
    "depth gate ignores node growth" []
    (R.check ~baseline:base ~current:fatter_but_flat R.default_thresholds);
  let deeper =
    bench_json ~cost:"depth"
      [ ("ctrl", "generic", [ ("nodes", 150.0); ("levels", 30.0) ]) ]
  in
  let problems =
    R.check ~baseline:base ~current:deeper R.default_thresholds
  in
  Alcotest.(check bool) "depth gate flags levels" true
    (mentions problems "levels");
  (* the engine's own objective field is gated whenever present *)
  let with_obj v =
    bench_json ~cost:"depth"
      [ ("ctrl", "generic", [ ("objective", v); ("levels", 20.0) ]) ]
  in
  let problems =
    R.check ~baseline:(with_obj 20.0) ~current:(with_obj 40.0)
      R.default_thresholds
  in
  Alcotest.(check bool) "objective regression flagged" true
    (mentions problems "objective")

(* -- JSONL round-trip through the offline loader -- *)

let sample_trace () =
  let trace = T.create ~flow:"root" ~sample:1 () in
  let a = T.child trace ~flow:"a" in
  let b = T.child trace ~flow:"b" in
  List.iter
    (fun tr ->
      T.pass_begin tr ~pass:"rw" ~index:0 ~gates:100 ~depth:10;
      T.report tr ~algo:"rewrite" [ ("tried", 5) ];
      T.node_event tr ~algo:"rewrite" ~node:7 ~gain:2 ~accepted:true;
      T.pass_end tr ~pass:"rw" ~index:0 ~gates:90 ~depth:9 ~elapsed:0.25 ();
      T.pass_begin tr ~pass:"bz" ~index:1 ~gates:90 ~depth:9;
      T.pass_end tr ~pass:"bz" ~index:1 ~gates:90 ~depth:8 ~elapsed:0.5 ())
    [ a; b ];
  T.merge trace [ a; b ];
  trace

let test_trace_roundtrip () =
  let trace = sample_trace () in
  let path = Filename.temp_file "genlog_report" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      T.write_file trace path;
      let reloaded = R.load_trace path in
      Alcotest.(check int) "event count survives"
        (List.length (T.events trace))
        (List.length (T.events reloaded));
      let rows = T.summarize reloaded and orig = T.summarize trace in
      Alcotest.(check int) "row count" (List.length orig) (List.length rows);
      List.iter2
        (fun (a : T.pass_row) (b : T.pass_row) ->
          Alcotest.(check string) "pass" a.T.row_pass b.T.row_pass;
          Alcotest.(check string) "flow" a.T.row_flow b.T.row_flow;
          Alcotest.(check int) "gates" a.T.gates_after b.T.gates_after;
          Alcotest.(check (float 1e-9)) "elapsed" a.T.row_elapsed b.T.row_elapsed)
        orig rows)

(* Traces written before portfolio racing was removed may carry "race"
   events; the loader skips them, so such a trace yields exactly the pass
   rows of the same trace without them. *)
let test_trace_skips_retired_race () =
  let clean = Filename.temp_file "genlog_report" ".jsonl" in
  let old = Filename.temp_file "genlog_report_race" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove clean; Sys.remove old)
    (fun () ->
      T.write_file (sample_trace ()) clean;
      let race flow =
        Printf.sprintf
          "{\"event\":\"race\",\"t\":0.000100,\"flow\":\"%s\",\"algo\":\"cec\",\
           \"winner\":\"luby\",\"configs\":[{\"name\":\"luby\",\"result\":\"unsat\",\
           \"counters\":{\"conflicts\":7,\"propagations\":50}}]}"
          flow
      in
      let ic = open_in clean and oc = open_out old in
      (* the race line goes right after the first pass_begin, inside its
         span, where an old loader would have charged its SAT work *)
      let placed = ref false in
      (try
         while true do
           let line = input_line ic in
           output_string oc (line ^ "\n");
           let j = J.parse line in
           if J.str_member "event" j = Some "pass_begin" && not !placed then begin
             let flow = Option.value ~default:"" (J.str_member "flow" j) in
             output_string oc (race flow ^ "\n");
             placed := true
           end
         done
       with End_of_file -> ());
      close_in ic;
      close_out oc;
      Alcotest.(check bool) "race line inserted" true !placed;
      let rows path = T.summarize (R.load_trace path) in
      Alcotest.(check bool) "same pass rows" true (rows clean = rows old);
      Alcotest.(check int) "same event count"
        (List.length (T.events (R.load_trace clean)))
        (List.length (T.events (R.load_trace old))))

(* -- Chrome trace-event export -- *)

let test_chrome_export () =
  let trace = sample_trace () in
  let s = Obs.Chrome.to_string trace in
  let j = J.parse s in
  let events =
    match Option.bind (J.member "traceEvents" j) J.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  (* runmeta footer *)
  (match J.member "otherData" j with
  | Some other ->
    Alcotest.(check bool) "otherData has schema" true
      (J.int_member "schema" other <> None)
  | None -> Alcotest.fail "no otherData");
  (* split metadata from timed events *)
  let is_meta e = J.str_member "ph" e = Some "M" in
  let meta, timed = List.partition is_meta events in
  (* one process_name + one thread_name per flow with events (a, b; the
     root sink itself logged nothing) *)
  Alcotest.(check int) "metadata events" 3 (List.length meta);
  List.iter
    (fun e ->
      Alcotest.(check bool) "timed event has ts" true
        (J.num_member "ts" e <> None))
    timed;
  (* ts monotone per tid — the Perfetto-friendliness invariant *)
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let tid = Option.get (J.int_member "tid" e) in
      let ts = Option.get (J.num_member "ts" e) in
      let prev = Option.value ~default:neg_infinity (Hashtbl.find_opt by_tid tid) in
      Alcotest.(check bool)
        (Printf.sprintf "tid %d monotone" tid)
        true (ts >= prev);
      Hashtbl.replace by_tid tid ts)
    timed;
  (* complete events carry duration and the pass args *)
  let spans =
    List.filter (fun e -> J.str_member "ph" e = Some "X") timed
  in
  Alcotest.(check int) "one span per pass" 4 (List.length spans);
  List.iter
    (fun e ->
      Alcotest.(check bool) "span has dur" true (J.num_member "dur" e <> None);
      match J.member "args" e with
      | Some args ->
        Alcotest.(check bool) "span args carry gates" true
          (J.int_member "gates_after" args <> None)
      | None -> Alcotest.fail "span without args")
    spans

let suite =
  [
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "qor gate: self-comparison passes" `Quick
      test_check_self_passes;
    Alcotest.test_case "qor gate: regressions flagged" `Quick
      test_check_flags_regressions;
    Alcotest.test_case "qor gate: dropped row fails" `Quick
      test_check_missing_row_fails;
    Alcotest.test_case "qor gate: cost-spec mismatch" `Quick
      test_check_cost_mismatch;
    Alcotest.test_case "qor gate: cost-gated fields" `Quick
      test_check_cost_gated_fields;
    Alcotest.test_case "trace jsonl round-trip" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace loader skips retired race events" `Quick
      test_trace_skips_retired_race;
    Alcotest.test_case "chrome export golden" `Quick test_chrome_export;
  ]
