(* Robustness tests for the persistent exact-synthesis store: round-trip,
   torn-tail recovery, corrupt-entry skipping, multi-writer appends,
   compaction, and the domain-fingerprint guard. *)

open Kitty

let config = Exact.Synth.xag_config

let fresh_path () =
  let path = Filename.temp_file "genlog_store" ".glxs" in
  Sys.remove path;
  path

(* A handful of 3-variable functions spanning several NPN classes; cheap
   to synthesize under the XAG config. *)
let vals = [ 0x80; 0x96; 0xe8; 0x1e; 0x6a; 0xca ]

let lookup_all db =
  List.iter
    (fun v ->
      ignore (Exact.Database.lookup db (Tt.of_int64 3 (Int64.of_int v))))
    vals

(* Build a store at [path] holding every class [lookup_all] touches;
   returns the class count. *)
let populate path =
  let db = Exact.Database.create ~store:path config in
  lookup_all db;
  Exact.Database.flush db;
  Exact.Database.size db

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> Bytes.of_string (really_input_string ic (in_channel_length ic)))

let write_bytes path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_round_trip () =
  let path = fresh_path () in
  let db = Exact.Database.create ~store:path config in
  lookup_all db;
  let classes = Exact.Database.size db in
  Alcotest.(check bool) "cold run misses" true (Exact.Database.misses db > 0);
  Exact.Database.flush db;
  let db2 = Exact.Database.create ~store:path config in
  Alcotest.(check int) "all classes reloaded" classes (Exact.Database.size db2);
  lookup_all db2;
  Alcotest.(check int) "warm run: zero misses" 0 (Exact.Database.misses db2);
  Alcotest.(check bool) "warm run hits" true (Exact.Database.hits db2 > 0);
  (* both databases answer identically *)
  List.iter
    (fun v ->
      let f = Tt.of_int64 3 (Int64.of_int v) in
      let r1, _ = Exact.Database.lookup db f in
      let r2, _ = Exact.Database.lookup db2 f in
      Alcotest.(check bool) "same result" true (r1 = r2))
    vals;
  Sys.remove path

let test_truncated_tail () =
  let path = fresh_path () in
  let n = populate path in
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (size - 3);
  let l = Exact.Store.load ~config path in
  Alcotest.(check bool) "domain ok" true l.Exact.Store.domain_ok;
  Alcotest.(check int) "torn tail skipped" 1 l.Exact.Store.skipped;
  Alcotest.(check int) "rest loaded" (n - 1) l.Exact.Store.loaded;
  (* a database still attaches and re-synthesizes only the lost class *)
  let db = Exact.Database.create ~store:path config in
  Alcotest.(check int) "merged" (n - 1) (Exact.Database.size db);
  lookup_all db;
  Alcotest.(check bool) "at most one miss" true (Exact.Database.misses db <= 1);
  Sys.remove path

let test_corrupt_entry_skipped () =
  let path = fresh_path () in
  let n = populate path in
  (* flip one payload byte of the first entry: its checksum must fail but
     the frame stays delimited, so every later entry still loads *)
  let b = read_bytes path in
  let off = 12 + 8 + 1 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
  write_bytes path b;
  let l = Exact.Store.load ~config path in
  Alcotest.(check bool) "domain ok" true l.Exact.Store.domain_ok;
  Alcotest.(check int) "one skipped" 1 l.Exact.Store.skipped;
  Alcotest.(check int) "others loaded" (n - 1) l.Exact.Store.loaded;
  Sys.remove path

(* Two databases attached to the same path (the in-process equivalent of
   two processes): both flush, nobody's records are lost. *)
let test_two_writers () =
  let path = fresh_path () in
  let db_a = Exact.Database.create ~store:path config in
  let db_b = Exact.Database.create ~store:path config in
  let fa = Tt.of_int64 3 0x80L in
  let fb = Tt.of_int64 3 0x96L in
  ignore (Exact.Database.lookup db_a fa);
  ignore (Exact.Database.lookup db_b fb);
  Exact.Database.flush db_a (* creates the file, writes a's record *);
  Exact.Database.flush db_b (* appends to the existing file *);
  let db_c = Exact.Database.create ~store:path config in
  ignore (Exact.Database.lookup db_c fa);
  ignore (Exact.Database.lookup db_c fb);
  Alcotest.(check int) "no re-synthesis" 0 (Exact.Database.misses db_c);
  Alcotest.(check int) "both records present" 2 (Exact.Database.hits db_c);
  Sys.remove path

let test_compaction_preserves () =
  let path = fresh_path () in
  let n = populate path in
  (* duplicate every entry on disk; the in-memory merge dedups, and
     compaction rewrites the file without the duplicates *)
  let l = Exact.Store.load ~config path in
  Alcotest.(check bool) "append dups" true
    (Exact.Store.append ~config path l.Exact.Store.entries);
  let l2 = Exact.Store.load ~config path in
  Alcotest.(check int) "duplicated on disk" (2 * n) l2.Exact.Store.loaded;
  let db = Exact.Database.create ~store:path config in
  Alcotest.(check int) "merge dedups" n (Exact.Database.size db);
  Exact.Database.compact db;
  let l3 = Exact.Store.load ~config path in
  Alcotest.(check int) "compacted to unique" n l3.Exact.Store.loaded;
  Alcotest.(check int) "nothing skipped" 0 l3.Exact.Store.skipped;
  let db2 = Exact.Database.create ~store:path config in
  lookup_all db2;
  Alcotest.(check int) "contents preserved" 0 (Exact.Database.misses db2);
  Sys.remove path

(* A store written under one synthesis config must not feed a database
   with a different one: the fingerprint detaches it, data intact. *)
let test_domain_mismatch_detaches () =
  let path = fresh_path () in
  let n = populate path in
  let db = Exact.Database.create ~store:path Exact.Synth.mig_config in
  Alcotest.(check int) "nothing merged" 0 (Exact.Database.size db);
  let si = Exact.Database.store_info db in
  Alcotest.(check bool) "detached" true (si.Exact.Database.path = None);
  ignore (Exact.Database.lookup db (Tt.of_int64 3 0xe8L));
  Exact.Database.flush db (* no-op: detached *);
  let l = Exact.Store.load ~config path in
  Alcotest.(check int) "original store untouched" n l.Exact.Store.loaded;
  Sys.remove path

(* The fingerprints of the four shipped configs are pinned: a change to
   [Synth.config] or to the hash would silently detach every existing
   store file, so it must show up here first. *)
let test_fingerprints_pinned () =
  List.iter
    (fun (name, config, expected) ->
      Alcotest.(check int32)
        (name ^ " fingerprint") expected
        (Exact.Store.fingerprint config))
    [
      ("aig", Exact.Synth.aig_config, 0x9ec88cf0l);
      ("xag", Exact.Synth.xag_config, 0x8a6e75cfl);
      ("mig", Exact.Synth.mig_config, 0x8a0691ael);
      ("xmg", Exact.Synth.xmg_config, 0x7176e086l);
    ]

(* -- injected crash points (the GENLOG_FAULTS registry) -- *)

let with_faults spec f =
  (match Flow.Fault.configure spec with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Flow.Fault.disable f

(* A flush that crashes mid-append leaves exactly the torn tail [load]
   skips; compaction then heals the file. *)
let test_injected_torn_append () =
  let path = fresh_path () in
  let db = Exact.Database.create ~store:path config in
  lookup_all db;
  let n = Exact.Database.size db in
  with_faults "store.append:1:1" (fun () ->
      Exact.Database.flush db;
      Alcotest.(check bool) "fault fired" true (Flow.Fault.fired ()));
  let l = Exact.Store.load ~config path in
  Alcotest.(check bool) "domain ok" true l.Exact.Store.domain_ok;
  Alcotest.(check int) "torn tail skipped" 1 l.Exact.Store.skipped;
  Alcotest.(check int) "nothing loaded past the tear" 0 l.Exact.Store.loaded;
  (* heal: re-synthesize and compact; the rewrite replaces the torn file *)
  let db2 = Exact.Database.create ~store:path config in
  lookup_all db2;
  Alcotest.(check int) "lost classes re-synthesized" n
    (Exact.Database.misses db2);
  Exact.Database.compact db2;
  let l2 = Exact.Store.load ~config path in
  Alcotest.(check int) "healed: all loaded" n l2.Exact.Store.loaded;
  Alcotest.(check int) "healed: nothing skipped" 0 l2.Exact.Store.skipped;
  let db3 = Exact.Database.create ~store:path config in
  lookup_all db3;
  Alcotest.(check int) "healed store is warm" 0 (Exact.Database.misses db3);
  Sys.remove path

(* A compaction that crashes after writing the temp file but before the
   rename must leave the original store untouched. *)
let test_injected_compact_crash () =
  let path = fresh_path () in
  let n = populate path in
  let db = Exact.Database.create ~store:path config in
  with_faults "store.compact:1:1" (fun () -> Exact.Database.compact db);
  let l = Exact.Store.load ~config path in
  Alcotest.(check int) "original intact" n l.Exact.Store.loaded;
  Alcotest.(check int) "nothing skipped" 0 l.Exact.Store.skipped;
  (* no leftover temp files *)
  let dir = Filename.dirname path and base = Filename.basename path in
  Array.iter
    (fun f ->
      Alcotest.(check bool)
        ("no temp residue: " ^ f)
        false
        (String.length f > String.length base
        && String.sub f 0 (String.length base) = base))
    (Sys.readdir dir);
  (* the next, un-faulted compaction succeeds *)
  Exact.Database.compact db;
  let l2 = Exact.Store.load ~config path in
  Alcotest.(check int) "clean compaction" n l2.Exact.Store.loaded;
  Sys.remove path

let suite =
  [
    Alcotest.test_case "write -> reopen round-trip" `Quick test_round_trip;
    Alcotest.test_case "truncated tail recovered" `Quick test_truncated_tail;
    Alcotest.test_case "corrupt entry skipped" `Quick test_corrupt_entry_skipped;
    Alcotest.test_case "two writers lose nothing" `Quick test_two_writers;
    Alcotest.test_case "compaction preserves contents" `Quick
      test_compaction_preserves;
    Alcotest.test_case "domain mismatch detaches" `Quick
      test_domain_mismatch_detaches;
    Alcotest.test_case "shipped config fingerprints pinned" `Quick
      test_fingerprints_pinned;
    Alcotest.test_case "injected torn append heals" `Quick
      test_injected_torn_append;
    Alcotest.test_case "injected compact crash keeps original" `Quick
      test_injected_compact_crash;
  ]
