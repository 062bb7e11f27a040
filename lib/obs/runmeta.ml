(* Run metadata stamped on every trace and benchmark artifact so results
   are comparable across PRs and machines: without the producing commit,
   compiler version, and domain count, two BENCH_*.json files cannot be
   diffed responsibly.  The schema version is bumped whenever the event
   or row layout changes incompatibly, so [report] can refuse to join
   artifacts written by incompatible producers. *)

(* v1: PR 1 BENCH rows / PR 2 trace events.
   v2: gc deltas on pass_end, metrics/node events, meta stamping. *)
let schema_version = 2

let git_commit () =
  match Sys.getenv_opt "GENLOG_GIT_COMMIT" with
  | Some c when c <> "" -> c
  | _ -> (
    try
      let ic =
        Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null"
      in
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
    with _ -> "unknown")

(* Lazy: one subprocess per process, not one per artifact. *)
let commit = lazy (git_commit ())

let domains () = Domain.recommended_domain_count ()

(* The shared key/value set, as strings; consumers render them into their
   own container format. *)
let fields () =
  [
    ("schema", string_of_int schema_version);
    ("git_commit", Lazy.force commit);
    ("ocaml", Sys.ocaml_version);
    ("domains", string_of_int (domains ()));
  ]

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Optional per-run exact_db block: where the exact-synthesis database
   came from ([source]: "shipped" or "none") and its counters (classes
   loaded and skipped, hits, misses, failures), stamped by [genlog opt]
   and [bench smoke] via [set_exact_db].  Rendered into the trace meta
   line and BENCH headers only when set, so schema-v2 consumers that
   predate the block are unaffected.  Artifacts of older releases carry a
   "cache" block (the retired on-disk store) instead; readers skip or
   print it as is. *)
let exact_db_fields : (string * (string * int) list) option ref = ref None
let set_exact_db ~source kvs = exact_db_fields := Some (source, kvs)

let exact_db_json () =
  Option.map
    (fun (source, kvs) ->
      "{"
      ^ String.concat ","
          (Printf.sprintf "\"source\":\"%s\"" (escape source)
          :: List.map
               (fun (k, v) -> Printf.sprintf "\"%s\":%d" (escape k) v)
               kvs)
      ^ "}")
    !exact_db_fields

(* Optional cost-objective spec ("area", "depth", "weights:FILE", ...)
   stamped by the driver via [set_cost]; rendered into the trace meta line
   and BENCH headers only when set, mirroring the exact_db block, so the QoR
   gate ([Report.check]) can refuse to compare runs optimized for
   different objectives. *)
let cost_field : string option ref = ref None
let set_cost spec = cost_field := Some spec
let cost () = !cost_field
let cost_json () = Option.map (fun s -> "\"" ^ escape s ^ "\"") !cost_field

(* The fields as the inner part of a JSON object (no braces), numbers
   unquoted: [ "schema":2,"git_commit":"6cdd9ab",... ]. *)
let json_fields () =
  String.concat ","
    (List.map
       (fun (k, v) ->
         let quoted =
           match int_of_string_opt v with
           | Some _ -> v
           | None -> Printf.sprintf "\"%s\"" (escape v)
         in
         Printf.sprintf "\"%s\":%s" k quoted)
       (fields ()))
