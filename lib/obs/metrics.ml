(* Allocation-light metrics registries: everything an algorithm
   invocation reports beside its span in trace.ml.

   A registry belongs to one algorithm invocation and holds named
   counters (the pass's decision counters: candidates tried, accepted,
   rejected, gain, SAT verdicts, ...), gauges, and log2-bucketed
   histograms.  Handles ([counter], [histogram]) are looked up once
   outside the hot loop; recording into them is a couple of stores and
   never allocates, so metrics can sit inside per-node and per-cut
   loops.  A [Null] registry hands out a shared scratch handle whose
   updates go nowhere, so call sites need no branches — but hot loops
   should still guard with [enabled] to skip building observation
   values at all.

   Histograms bucket by log2: bucket 0 holds zero (and clamped negatives),
   bucket i >= 1 holds values in [2^(i-1), 2^i).  63 buckets cover the
   whole native int range including max_int, so bucketing needs no
   overflow checks.  [emit] renders the registry as one [Trace.Metrics]
   event; a registry built from a [Null] trace emits nothing. *)

type counter = { mutable c : int }

type histogram = {
  mutable n : int;
  mutable sum : float;  (* float: observations near max_int overflow ints *)
  mutable mn : int;
  mutable mx : int;
  buckets : int array;  (* 64 slots; index = bits of the observed value *)
}

(* One namespace per kind, each in registration order.  Kinds render
   into separate JSON objects, so a pass may count its total "gain" and
   keep a "gain" histogram side by side. *)
type 'a table = {
  index : (string, 'a) Hashtbl.t;
  mutable rev_items : (string * 'a) list;  (* newest first *)
}

type registry = {
  algo : string;
  counters : counter table;
  gauges : counter table;
  hists : histogram table;
}

type t = Null | Reg of registry

let null = Null
let enabled = function Null -> false | Reg _ -> true

let table () = { index = Hashtbl.create 8; rev_items = [] }

let create ~algo () =
  Reg { algo; counters = table (); gauges = table (); hists = table () }

(* The conventional constructor: a registry exactly when the trace is
   live, [Null] (free) otherwise. *)
let of_trace trace ~algo =
  if Trace.enabled trace then create ~algo () else Null

let new_histogram () =
  { n = 0; sum = 0.0; mn = max_int; mx = min_int; buckets = Array.make 64 0 }

(* Scratch sinks handed out by [Null] registries: shared, updated,
   never read. *)
let scratch_counter = { c = 0 }
let scratch_histogram = new_histogram ()

let register tbl name make =
  match Hashtbl.find_opt tbl.index name with
  | Some existing -> existing
  | None ->
    let item = make () in
    Hashtbl.replace tbl.index name item;
    tbl.rev_items <- (name, item) :: tbl.rev_items;
    item

let counter t name =
  match t with
  | Null -> scratch_counter
  | Reg reg -> register reg.counters name (fun () -> { c = 0 })

let gauge t name =
  match t with
  | Null -> scratch_counter
  | Reg reg -> register reg.gauges name (fun () -> { c = 0 })

let histogram t name =
  match t with
  | Null -> scratch_histogram
  | Reg reg -> register reg.hists name new_histogram

let incr c = c.c <- c.c + 1
let add c v = c.c <- c.c + v
let set c v = c.c <- v

(* Add each [(name, value)] to the counter of that name.  Callers guard
   with [enabled] so an untraced run does not even build the list. *)
let add_counters t kvs = List.iter (fun (name, v) -> add (counter t name) v) kvs

(* Bucket index of [v]: its bit count.  0 (and negatives, clamped) land in
   bucket 0; 1 in bucket 1; [2,3] in bucket 2; ... max_int (62 bits) in
   bucket 62. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x <> 0 do
      b := !b + 1;
      x := !x lsr 1
    done;
    !b
  end

(* Inclusive lower bound of bucket [i]. *)
let bucket_lo i = if i <= 0 then 0 else 1 lsl (i - 1)

let observe h v =
  h.n <- h.n + 1;
  h.sum <- h.sum +. float_of_int v;
  if v < h.mn then h.mn <- v;
  if v > h.mx then h.mx <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

(* Latency observation: seconds -> whole nanoseconds.  One log2 bucket is
   a factor of two in time, which is the right resolution for "where did
   rewrite's time go". *)
let observe_time h seconds =
  observe h (int_of_float (Float.max 0.0 (seconds *. 1e9)))

let summary (h : histogram) : Trace.hist =
  let buckets = ref [] in
  for i = Array.length h.buckets - 1 downto 0 do
    if h.buckets.(i) > 0 then buckets := (i, h.buckets.(i)) :: !buckets
  done;
  {
    Trace.h_count = h.n;
    h_sum = h.sum;
    h_min = (if h.n = 0 then 0 else h.mn);
    h_max = (if h.n = 0 then 0 else h.mx);
    h_buckets = !buckets;
  }

(* Render the registry as one [Trace.Metrics] event, items in
   registration order.  Empty registries stay silent. *)
let emit t trace =
  match t with
  | Null -> ()
  | Reg { algo; counters; gauges; hists } ->
    if counters.rev_items <> [] || gauges.rev_items <> [] || hists.rev_items <> []
    then
      let values tbl f = List.rev_map (fun (name, x) -> (name, f x)) tbl.rev_items in
      Trace.metrics trace ~algo
        ~counters:(values counters (fun c -> c.c))
        ~gauges:(values gauges (fun c -> c.c))
        ~hists:(values hists summary)

(* A one-shot registry for a caller that keeps no registry of its own
   (the portfolio roster, partition carving and pieces, the CLI's fault
   tallies): its counters become one metrics event. *)
let emit_counters trace ~algo kvs =
  let m = of_trace trace ~algo in
  if enabled m then begin
    add_counters m kvs;
    emit m trace
  end
