(* One typed record for every run-configuration knob.

   Five PRs of growth sprawled the run surface into per-command optional
   arguments and ad-hoc environment variables; this module is the single
   place they all live.  Resolution order is

     built-in defaults  <  GENLOG_* environment  <  explicit flags

   — the CLI seeds its flag defaults from [of_env ()], so a flag given on
   the command line always wins, and an exported GENLOG_* variable wins
   over the built-ins. *)

type representation = Aig | Mig | Xag | Xmg

type t = {
  representation : representation;
  script : string;  (* optimization script, e.g. Script.compress2rs *)
  trace_path : string option;  (* write a JSONL trace here *)
  stats : bool;  (* print the per-pass summary table *)
  sample : int;  (* node-event sampling rate; 0 = off *)
  partition : int;  (* partition size cap; 0 = whole-network flow *)
  jobs : int;  (* worker domains for partition/batch parallelism *)
  cost : string;  (* optimization objective spec, e.g. "area", "depth" *)
  timeout : float;  (* wall-clock budget per network, seconds; 0 = none *)
  retries : int;  (* extra attempts for a failed batch/partition job *)
  faults : string option;  (* fault-injection spec (see Fault), testing only *)
}

let representation_to_string = function
  | Aig -> "aig"
  | Mig -> "mig"
  | Xag -> "xag"
  | Xmg -> "xmg"

let representation_of_string = function
  | "aig" -> Some Aig
  | "mig" -> Some Mig
  | "xag" -> Some Xag
  | "xmg" -> Some Xmg
  | _ -> None

let default =
  {
    representation = Aig;
    script = Script.compress2rs;
    trace_path = None;
    stats = false;
    sample = 0;
    partition = 0;
    jobs = Domain.recommended_domain_count ();
    cost = "area";
    timeout = 0.;
    retries = 0;
    faults = None;
  }

let make ?(representation = default.representation) ?(script = default.script)
    ?trace_path ?(stats = false) ?(sample = 0) ?(partition = 0)
    ?(jobs = default.jobs) ?(cost = default.cost) ?(timeout = 0.) ?(retries = 0)
    ?faults () =
  {
    representation;
    script;
    trace_path;
    stats;
    sample;
    partition;
    jobs;
    cost;
    timeout;
    retries;
    faults;
  }

(* ------------------------------------------- environment override layer *)

let int_env name current =
  match Sys.getenv_opt name with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v -> v
    | None -> current)
  | None -> current

let str_env name current =
  match Sys.getenv_opt name with
  | Some s when String.trim s <> "" -> String.trim s
  | _ -> current

let float_env name current =
  match Sys.getenv_opt name with
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some v -> v
    | None -> current)
  | None -> current

let opt_env name current =
  match Sys.getenv_opt name with
  | Some s when String.trim s <> "" -> Some (String.trim s)
  | _ -> current

let with_env cfg =
  {
    cfg with
    script = str_env "GENLOG_SCRIPT" cfg.script;
    sample = int_env "GENLOG_SAMPLE" cfg.sample;
    partition = int_env "GENLOG_PARTITION" cfg.partition;
    jobs = int_env "GENLOG_JOBS" cfg.jobs;
    cost =
      (let c = str_env "GENLOG_COST" cfg.cost in
       match Algo.Cost.Spec.validate_string c with
       | Ok () -> c
       | Error _ -> cfg.cost);
    timeout = float_env "GENLOG_TIMEOUT" cfg.timeout;
    retries = int_env "GENLOG_RETRIES" cfg.retries;
    faults = opt_env "GENLOG_FAULTS" cfg.faults;
  }

let of_env () = with_env default
