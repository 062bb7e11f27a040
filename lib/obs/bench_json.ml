(* Tiny JSON writer for machine-readable benchmark results.

   Every bench subcommand emits a [BENCH_<name>.json] next to the working
   directory so that successive PRs have a perf trajectory to regress
   against (see EXPERIMENTS.md).  A result file holds one row per
   (benchmark, stage) pair; fields are flat scalars, no dependencies.

   Living in the obs library (rather than next to the bench driver) makes
   the schema-v2 runmeta header a property of the writer itself: every
   subcommand that goes through [write] — sat included — is
   stamped identically, so [report --check] can refuse to compare runs
   made under different objectives. *)

type value = Int of int | Float of float | Str of string

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write name (rows : (string * value) list list) =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out file in
  (* run metadata first: commit, compiler, domain count, schema — the
     fields [report --check] needs to compare two BENCH files honestly *)
  let exact_db =
    match Runmeta.exact_db_json () with
    | Some c -> Printf.sprintf "  \"exact_db\": %s,\n" c
    | None -> ""
  in
  let cost =
    match Runmeta.cost_json () with
    | Some c -> Printf.sprintf "  \"cost\": %s,\n" c
    | None -> ""
  in
  Printf.fprintf oc
    "{\n  \"bench\": \"%s\",\n  %s,\n%s%s  \"generated_unix\": %.0f,\n  \"rows\": [\n"
    (escape name)
    (Runmeta.json_fields ())
    exact_db cost (Unix.time ());
  List.iteri
    (fun i row ->
      if i > 0 then output_string oc ",\n";
      output_string oc "    {";
      List.iteri
        (fun j (k, v) ->
          if j > 0 then output_string oc ", ";
          Printf.fprintf oc "\"%s\": %s" (escape k)
            (match v with
            | Int n -> string_of_int n
            | Float f -> Printf.sprintf "%.6f" f
            | Str s -> Printf.sprintf "\"%s\"" (escape s)))
        row;
      output_string oc "}")
    rows;
  output_string oc "\n  ]\n}\n";
  close_out oc;
  Printf.printf "[bench] wrote %s (%d rows)\n%!" file (List.length rows)
