(* Deterministic fault-injection registry.

   Production code declares named injection points ([hit]/[fire] calls
   guarded by [active ()]); tests and the nightly fuzz harness arm them
   with a spec string:

     GENLOG_FAULTS="parmap.job:0.25,engine.pass:1,sat.solve:1:2"

   Each entry is [point:rate[:max_fires]] where [rate] is a firing
   probability in [0,1] and the optional [max_fires] caps how many times
   the point triggers.  Whether a given draw fires is a pure function of
   (seed, point name, per-point draw index), so a run is reproducible
   from its seed regardless of wall time — and, for a fixed schedule of
   draws per point, regardless of domain interleaving (which *item* a
   firing draw lands on can still vary under work stealing, but the
   multiset of fired draws cannot).

   When no spec is armed the whole module is one relaxed [Atomic.get]
   per call site: safe to leave in hot paths. *)

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected p -> Some (Printf.sprintf "Fault.Injected(%s)" p)
    | _ -> None)

type point = {
  name : string;
  rate_ppm : int; (* firing probability in parts-per-million *)
  max_fires : int; (* negative = unlimited *)
  draws : int Atomic.t;
  fires : int Atomic.t;
}

type config = { seed : int; points : point list }

(* [None] = disabled.  The config itself is immutable; only the per-point
   counters mutate, so readers never need the lock. *)
let state : config option Atomic.t = Atomic.make None
let armed = Atomic.make false
let env_consulted = Atomic.make false
let lock = Mutex.create ()
let default_seed = 0x6c6f67 (* "log" *)

(* SplitMix64 finalizer: full-avalanche mixing so consecutive draw
   indexes decorrelate. *)
let mix64 (z : int64) : int64 =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let draw_fires ~seed ~point ~index ~rate_ppm =
  if rate_ppm >= 1_000_000 then true
  else if rate_ppm <= 0 then false
  else
    let h =
      mix64
        (Int64.add
           (Int64.mul (Int64.of_int seed) 0x9e3779b97f4a7c15L)
           (Int64.of_int (Hashtbl.hash (point, index))))
    in
    let v = Int64.rem (Int64.logand h Int64.max_int) 1_000_000L in
    Int64.to_int v < rate_ppm

let parse_entry s =
  match String.split_on_char ':' (String.trim s) with
  | [ name; rate ] | [ name; rate; "" ] -> (
      match float_of_string_opt rate with
      | Some r when r >= 0. && r <= 1. && name <> "" ->
          Ok (name, int_of_float (r *. 1e6), -1)
      | _ -> Error (Printf.sprintf "bad rate in fault entry %S" s))
  | [ name; rate; max ] -> (
      match (float_of_string_opt rate, int_of_string_opt max) with
      | Some r, Some m when r >= 0. && r <= 1. && m >= 0 && name <> "" ->
          Ok (name, int_of_float (r *. 1e6), m)
      | _ -> Error (Printf.sprintf "bad fault entry %S" s))
  | _ -> Error (Printf.sprintf "bad fault entry %S (want point:rate[:max])" s)

let parse_spec spec =
  let entries =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest -> (
        match parse_entry e with
        | Ok (name, rate_ppm, max_fires) ->
            go
              ({
                 name;
                 rate_ppm;
                 max_fires;
                 draws = Atomic.make 0;
                 fires = Atomic.make 0;
               }
              :: acc)
              rest
        | Error _ as err -> err)
  in
  go [] entries

let install cfg =
  Mutex.lock lock;
  Atomic.set state cfg;
  Atomic.set armed (match cfg with Some c -> c.points <> [] | None -> false);
  Atomic.set env_consulted true;
  Mutex.unlock lock

let configure ?seed spec =
  let seed =
    match seed with
    | Some s -> s
    | None -> (
        match Sys.getenv_opt "GENLOG_FAULT_SEED" with
        | Some s -> ( match int_of_string_opt s with Some i -> i | None -> default_seed)
        | None -> default_seed)
  in
  match parse_spec spec with
  | Ok [] ->
      install None;
      Ok ()
  | Ok points ->
      install (Some { seed; points });
      Ok ()
  | Error _ as err -> err

let disable () = install None

(* First armed-state query consults GENLOG_FAULTS once, so library code
   picks the spec up without any CLI wiring.  An explicit [configure] or
   [disable] beforehand wins over the environment. *)
let ensure_env () =
  if not (Atomic.get env_consulted) then begin
    Mutex.lock lock;
    if not (Atomic.get env_consulted) then begin
      (match Sys.getenv_opt "GENLOG_FAULTS" with
      | Some spec when String.trim spec <> "" -> (
          match parse_spec spec with
          | Ok points when points <> [] ->
              let seed =
                match Sys.getenv_opt "GENLOG_FAULT_SEED" with
                | Some s -> (
                    match int_of_string_opt s with
                    | Some i -> i
                    | None -> default_seed)
                | None -> default_seed
              in
              Atomic.set state (Some { seed; points });
              Atomic.set armed true
          | Ok _ | Error _ ->
              prerr_endline
                ("fault: ignoring malformed GENLOG_FAULTS spec: " ^ spec))
      | _ -> ());
      Atomic.set env_consulted true
    end;
    Mutex.unlock lock
  end

let active () =
  if not (Atomic.get env_consulted) then ensure_env ();
  Atomic.get armed

(* Decide whether this draw of [name] fires.  Deterministic in the draw
   index; [max_fires] is enforced with a fetch-and-add so concurrent
   domains never overshoot the cap. *)
let hit name =
  active ()
  && (match Atomic.get state with
     | None -> false
     | Some cfg -> (
         match List.find_opt (fun p -> p.name = name) cfg.points with
         | None -> false
         | Some p ->
             let index = Atomic.fetch_and_add p.draws 1 in
             if
               draw_fires ~seed:cfg.seed ~point:name ~index
                 ~rate_ppm:p.rate_ppm
             then
               if p.max_fires < 0 then begin
                 Atomic.incr p.fires;
                 true
               end
               else Atomic.fetch_and_add p.fires 1 < p.max_fires
             else false))

let fire name = if hit name then raise (Injected name)

(* (point, draws, fires) for every armed point, in spec order. *)
let counts () =
  match Atomic.get state with
  | None -> []
  | Some cfg ->
      List.map
        (fun p ->
          let fires = Atomic.get p.fires in
          let fires = if p.max_fires >= 0 then min fires p.max_fires else fires in
          (p.name, Atomic.get p.draws, fires))
        cfg.points

let fired () = List.exists (fun (_, _, f) -> f > 0) (counts ())

let seed () =
  match Atomic.get state with Some cfg -> Some cfg.seed | None -> None
