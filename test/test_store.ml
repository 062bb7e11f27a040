(* The exact-synthesis store format and the NPN tables shipped in the
   binary: round-trip, torn-tail recovery, corrupt-entry skipping, foreign
   headers, the domain-fingerprint guard, and the shipped tables' coverage,
   fingerprints and agreement with runtime synthesis. *)

open Kitty

let config = Exact.Synth.xag_config

(* A handful of 3-variable functions spanning several NPN classes; cheap
   to synthesize under the XAG config. *)
let vals = [ 0x80; 0x96; 0xe8; 0x1e; 0x6a; 0xca ]

(* One entry per distinct class of [vals], synthesized now. *)
let entries =
  lazy
    (List.sort_uniq compare
       (List.map
          (fun v ->
            let f, _ = Npn.canonize (Tt.of_int64 3 (Int64.of_int v)) in
            {
              Exact.Store.num_vars = 3;
              key = Tt.to_hex f;
              result = Exact.Synth.synthesize config f;
            })
          vals))

let store () = Exact.Store.to_string ~config (Lazy.force entries)

let test_round_trip () =
  let es = Lazy.force entries in
  let l = Exact.Store.of_string ~config (store ()) in
  Alcotest.(check bool) "domain ok" true l.Exact.Store.domain_ok;
  Alcotest.(check int) "all loaded" (List.length es) l.Exact.Store.loaded;
  Alcotest.(check int) "nothing skipped" 0 l.Exact.Store.skipped;
  Alcotest.(check bool) "same entries" true (l.Exact.Store.entries = es);
  (* the encoding is canonical: input order does not change the bytes *)
  Alcotest.(check string) "sorted encoding" (store ())
    (Exact.Store.to_string ~config (List.rev es));
  (* and the file writer writes exactly those bytes *)
  let path = Filename.temp_file "genlog_store" ".glxs" in
  Exact.Store.write ~config path es;
  Alcotest.(check string) "write = to_string" (store ())
    (Exact.Store.read_file path);
  Sys.remove path

let test_truncated_tail () =
  let n = List.length (Lazy.force entries) in
  let s = store () in
  let l = Exact.Store.of_string ~config (String.sub s 0 (String.length s - 3)) in
  Alcotest.(check bool) "domain ok" true l.Exact.Store.domain_ok;
  Alcotest.(check int) "torn tail skipped" 1 l.Exact.Store.skipped;
  Alcotest.(check int) "rest loaded" (n - 1) l.Exact.Store.loaded

let test_corrupt_entry_skipped () =
  let n = List.length (Lazy.force entries) in
  (* flip one payload byte of the first entry: its checksum must fail but
     the frame stays delimited, so every later entry still loads *)
  let b = Bytes.of_string (store ()) in
  let off = 12 + 8 + 1 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
  let l = Exact.Store.of_string ~config (Bytes.to_string b) in
  Alcotest.(check bool) "domain ok" true l.Exact.Store.domain_ok;
  Alcotest.(check int) "one skipped" 1 l.Exact.Store.skipped;
  Alcotest.(check int) "others loaded" (n - 1) l.Exact.Store.loaded

let test_foreign_magic () =
  let s = store () in
  let foreign = "XXXX" ^ String.sub s 4 (String.length s - 4) in
  let l = Exact.Store.of_string ~config foreign in
  Alcotest.(check bool) "ignored" false l.Exact.Store.domain_ok;
  Alcotest.(check int) "nothing loaded" 0 l.Exact.Store.loaded;
  let empty = Exact.Store.of_string ~config "" in
  Alcotest.(check bool) "empty is a valid store" true
    empty.Exact.Store.domain_ok;
  Alcotest.(check int) "empty loads nothing" 0 empty.Exact.Store.loaded

(* A store written under one synthesis config must not feed another. *)
let test_domain_mismatch_detaches () =
  let l = Exact.Store.of_string ~config:Exact.Synth.mig_config (store ()) in
  Alcotest.(check bool) "detached" false l.Exact.Store.domain_ok;
  Alcotest.(check int) "nothing loaded" 0 l.Exact.Store.loaded

(* The fingerprints of the four shipped configs are pinned: a change to
   [Synth.config] or to the hash would silently detach the shipped
   tables, so it must show up here first. *)
let pinned =
  [
    ("aig", Exact.Synth.aig_config, 0x9ec88cf0l);
    ("xag", Exact.Synth.xag_config, 0x8a6e75cfl);
    ("mig", Exact.Synth.mig_config, 0x8a0691ael);
    ("xmg", Exact.Synth.xmg_config, 0x7176e086l);
  ]

let test_fingerprints_pinned () =
  List.iter
    (fun (name, config, expected) ->
      Alcotest.(check int32)
        (name ^ " fingerprint") expected
        (Exact.Store.fingerprint config))
    pinned

(* -- the shipped tables -- *)

let key_of f = Exact.Database.key_of (Tt.num_vars f) (Tt.to_hex f)

(* Every canonical class of 0..4 variables: 1 + 2 + 4 + 14 + 222. *)
let all_classes =
  lazy
    (let seen = Hashtbl.create 256 in
     for n = 0 to 4 do
       for i = 0 to (1 lsl (1 lsl n)) - 1 do
         let f, _ = Npn.canonize (Tt.of_int64 n (Int64.of_int i)) in
         Hashtbl.replace seen (key_of f) f
       done
     done;
     seen)

(* The embedded header of each table equals the runtime config's
   fingerprint and the pinned literal: changing a budget without
   regenerating the tables fails here instead of silently starting every
   database empty. *)
let test_shipped_fingerprints () =
  List.iter
    (fun (name, config, expected) ->
      let data = List.assoc name Exact.Shipped_tables.tables in
      Alcotest.(check (option int32))
        (name ^ " header") (Some expected)
        (Exact.Store.header_fingerprint data);
      Alcotest.(check (option int32))
        (name ^ " runtime config")
        (Some (Exact.Store.fingerprint config))
        (Exact.Store.header_fingerprint data))
    pinned

let test_shipped_coverage () =
  let classes = Lazy.force all_classes in
  Alcotest.(check int) "canonical classes" 243 (Hashtbl.length classes);
  List.iter
    (fun (name, config, _) ->
      let db = Exact.Database.create config in
      Alcotest.(check string) (name ^ " source") "shipped"
        (Exact.Database.source db);
      Alcotest.(check int) (name ^ " entries") 243 (Exact.Database.size db);
      Hashtbl.iter
        (fun k _ ->
          if not (Hashtbl.mem db.Exact.Database.cache k) then
            Alcotest.failf "%s table lacks class %s" name k)
        classes;
      Alcotest.(check (list (pair string int)))
        (name ^ " loaded, nothing skipped")
        [ ("loaded", 243); ("skipped", 0) ]
        (List.filter
           (fun (k, _) -> k = "loaded" || k = "skipped")
           (Exact.Database.obs_gauges db)))
    pinned

(* Canonical 4-variable classes that synthesize in under 50 ms under
   every preset config. *)
let sampled_4var =
  [ "0001"; "0007"; "001b"; "003c"; "011f"; "01ab"; "0357"; "03c3" ]

let test_shipped_agrees () =
  List.iter
    (fun (name, config, _) ->
      let db = Exact.Database.create config in
      let check f =
        let k = key_of f in
        match Hashtbl.find_opt db.Exact.Database.cache k with
        | None -> Alcotest.failf "%s table lacks class %s" name k
        | Some shipped ->
          if shipped <> Exact.Synth.synthesize config f then
            Alcotest.failf "%s entry %s differs from synthesis" name k
      in
      Hashtbl.iter
        (fun _ f -> if Tt.num_vars f <= 3 then check f)
        (Lazy.force all_classes);
      List.iter (fun hex -> check (Tt.of_hex 4 hex)) sampled_4var)
    pinned

let suite =
  [
    Alcotest.test_case "write -> reopen round-trip" `Quick test_round_trip;
    Alcotest.test_case "truncated tail recovered" `Quick test_truncated_tail;
    Alcotest.test_case "corrupt entry skipped" `Quick test_corrupt_entry_skipped;
    Alcotest.test_case "foreign magic ignored" `Quick test_foreign_magic;
    Alcotest.test_case "domain mismatch detaches" `Quick
      test_domain_mismatch_detaches;
    Alcotest.test_case "shipped config fingerprints pinned" `Quick
      test_fingerprints_pinned;
    Alcotest.test_case "shipped table fingerprints" `Quick
      test_shipped_fingerprints;
    Alcotest.test_case "shipped table covers every class" `Quick
      test_shipped_coverage;
    Alcotest.test_case "shipped table agrees with synthesis" `Quick
      test_shipped_agrees;
  ]
