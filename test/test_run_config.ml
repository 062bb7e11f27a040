(* The typed run configuration: builder defaults and the environment
   override layer. *)

module RC = Flow.Run_config

let with_env kvs f =
  let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) kvs in
  List.iter (fun (k, v) -> Unix.putenv k v) kvs;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (k, old) -> Unix.putenv k (Option.value ~default:"" old))
        saved)
    f

let test_env_overrides () =
  with_env
    [
      ("GENLOG_PARTITION", "250");
      ("GENLOG_JOBS", "not-a-number");
      ("GENLOG_TIMEOUT", "2.5");
      ("GENLOG_RETRIES", "3");
      ("GENLOG_FAULTS", "engine.pass:1:1");
    ]
    (fun () ->
      let c = RC.of_env () in
      Alcotest.(check int) "partition from env" 250 c.RC.partition;
      Alcotest.(check (float 1e-9)) "timeout from env" 2.5 c.RC.timeout;
      Alcotest.(check int) "retries from env" 3 c.RC.retries;
      Alcotest.(check (option string))
        "faults from env"
        (Some "engine.pass:1:1")
        c.RC.faults;
      (* unparsable integers keep the default rather than failing *)
      Alcotest.(check int) "bad int ignored" RC.default.RC.jobs c.RC.jobs)

let test_env_cost () =
  Alcotest.(check string) "default cost is area" "area" RC.default.RC.cost;
  with_env
    [ ("GENLOG_COST", "depth") ]
    (fun () ->
      Alcotest.(check string) "cost from env" "depth" (RC.of_env ()).RC.cost);
  with_env
    [ ("GENLOG_COST", "bogus") ]
    (fun () ->
      (* invalid specs are ignored, like unparsable integers *)
      Alcotest.(check string) "bad cost ignored" "area" (RC.of_env ()).RC.cost)

let test_env_layering () =
  (* env overrides defaults, explicit values override env *)
  with_env
    [ ("GENLOG_RETRIES", "7") ]
    (fun () ->
      let base = RC.of_env () in
      Alcotest.(check int) "env wins over default" 7 base.RC.retries;
      let explicit = { base with RC.retries = 2 } in
      Alcotest.(check int) "explicit wins over env" 2 explicit.RC.retries)

let test_representation_strings () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        "round-trips" true
        (RC.representation_of_string (RC.representation_to_string r) = Some r))
    [ RC.Aig; RC.Mig; RC.Xag; RC.Xmg ];
  Alcotest.(check bool)
    "unknown rejected" true
    (RC.representation_of_string "klut" = None)

let suite =
  [
    Alcotest.test_case "env overrides" `Quick test_env_overrides;
    Alcotest.test_case "env cost spec" `Quick test_env_cost;
    Alcotest.test_case "env layering" `Quick test_env_layering;
    Alcotest.test_case "representation strings" `Quick
      test_representation_strings;
  ]
