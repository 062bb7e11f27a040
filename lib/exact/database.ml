(* NPN-keyed database of optimal chains.

   Rewriting asks for the optimum implementation of millions of cut
   functions, but only a few hundred NPN classes occur: 243 canonical
   classes cover every function of at most 4 variables, rewriting's cut
   size.  The library ships the synthesis result of every one of them for
   each representation's preset config (Synth.aig/xag/mig/xmg_config),
   generated once by [bench npn-table] with this repository's own exact
   synthesizer and embedded in the binary (Shipped_tables).  This is
   option (i) of paper §2.3.2, a precomputed database.

   [create config] pre-fills the table from the shipped store whose
   fingerprint equals [config]'s; a config with no shipped table (another
   budget, say) starts empty.  Either way a lookup that misses falls back
   to option (ii), exact synthesis on the fly, and caches the result — or
   the fact that synthesis gave up — under the canonical truth table.

   The database is domain-safe: accesses are mutex-guarded so one
   database can be shared across parallel workers (the partition engine's
   work-stealing pool).  Synthesis of a miss runs *outside* the lock: two
   workers missing different classes synthesize concurrently, and the
   rare race where both miss the same class costs one duplicated
   synthesis (the first inserted result wins), never a wrong answer. *)

open Kitty

type t = {
  config : Synth.config;
  cache : (string, Synth.result) Hashtbl.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable failures : int;
  source : string; (* "shipped", or "none" for a config with no table *)
  loaded : int; (* entries pre-filled from the shipped table *)
  skipped : int; (* shipped entries that failed the store's checks *)
}

(* Cache keys carry the variable count: a bare hex string is ambiguous
   below three variables (0-, 1- and 2-variable tables all print as a
   single nibble). *)
let key_of num_vars hex = string_of_int num_vars ^ ":" ^ hex

let split_key k =
  match String.index_opt k ':' with
  | Some i ->
    ( int_of_string (String.sub k 0 i),
      String.sub k (i + 1) (String.length k - i - 1) )
  | None -> invalid_arg "Database.split_key"

(* The shipped tables go through the same checks as any store (CRC,
   decode, fingerprint, semantic validity) and are decoded at most once
   per process, on first use. *)
let shipped_lock = Mutex.create ()
let shipped_decoded : (string, Store.load_result) Hashtbl.t = Hashtbl.create 4

let shipped config =
  let fp = Some (Store.fingerprint config) in
  match
    List.find_opt
      (fun (_, data) -> Store.header_fingerprint data = fp)
      Shipped_tables.tables
  with
  | None -> None
  | Some (name, data) ->
    Mutex.lock shipped_lock;
    let l =
      match Hashtbl.find_opt shipped_decoded name with
      | Some l -> l
      | None ->
        let l =
          Store.of_string ~config ~source:("shipped " ^ name ^ " table") data
        in
        Hashtbl.replace shipped_decoded name l;
        l
    in
    Mutex.unlock shipped_lock;
    Some l

let create config =
  let cache = Hashtbl.create 512 in
  let source, loaded, skipped =
    match shipped config with
    | Some l ->
      List.iter
        (fun (e : Store.entry) ->
          Hashtbl.replace cache (key_of e.Store.num_vars e.Store.key)
            e.Store.result)
        l.Store.entries;
      ("shipped", l.Store.loaded, l.Store.skipped)
    | None -> ("none", 0, 0)
  in
  {
    config;
    cache;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    failures = 0;
    source;
    loaded;
    skipped;
  }

(* Result for the *canonical* representative of [f]'s NPN class, plus the
   transform mapping [f] to that representative. *)
let lookup db f =
  let canonical, tr = Npn.canonize f in
  let key = key_of (Tt.num_vars canonical) (Tt.to_hex canonical) in
  Mutex.lock db.lock;
  match Hashtbl.find_opt db.cache key with
  | Some e ->
    db.hits <- db.hits + 1;
    Mutex.unlock db.lock;
    (e, tr)
  | None ->
    db.misses <- db.misses + 1;
    Mutex.unlock db.lock;
    let e = Synth.synthesize db.config canonical in
    Mutex.lock db.lock;
    let e =
      match Hashtbl.find_opt db.cache key with
      | Some winner -> winner (* another worker raced us; keep its result *)
      | None ->
        if e = Synth.Failed then db.failures <- db.failures + 1;
        Hashtbl.replace db.cache key e;
        e
    in
    Mutex.unlock db.lock;
    (e, tr)

let with_lock db f =
  Mutex.lock db.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock db.lock) f

let size db = with_lock db (fun () -> Hashtbl.length db.cache)
let misses db = db.misses
let failures db = db.failures
let stats db = (db.hits, db.misses, db.failures)
let source db = db.source

(* Counter snapshot in the shape the obs layer wants (metrics gauges, the
   run-metadata exact_db block, which adds [source]). *)
let obs_gauges db =
  [
    ("classes", size db);
    ("loaded", db.loaded);
    ("skipped", db.skipped);
    ("hits", db.hits);
    ("misses", db.misses);
    ("failures", db.failures);
  ]

let pp_stats fmt db =
  Format.fprintf fmt "db: %d classes cached, %d hits, %d failures"
    (Hashtbl.length db.cache) db.hits db.failures
