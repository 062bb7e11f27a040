(* Chrome trace-event export: render a merged trace as the JSON object
   format chrome://tracing and Perfetto load natively, so a portfolio run
   reads as a flamegraph timeline without any custom viewer.

   Mapping:
   - every distinct [flow] label becomes one thread track ([tid], named
     via a "thread_name" metadata event) — the portfolio's jobs show up
     as parallel tracks under one process;
   - each pass span becomes a complete event (ph "X") anchored at the
     span's [pass_begin] timestamp with the measured duration, carrying
     gates/depth before/after and the GC delta as [args];
   - counters / metrics / sampled node events become thread-scoped
     instant events (ph "i") at their timestamp.

   Timestamps are microseconds (the format's unit).  Complete events are
   anchored at their *begin* time while they are paired at their end
   event, so the output is stable-sorted by timestamp before writing —
   [ts] is monotone over the whole file and therefore per track. *)

let us t = t *. 1e6

(* Assign tids by first appearance so track order mirrors flow start
   order; the root flow "" renders as "main". *)
let flow_tracks events =
  let tids = Hashtbl.create 8 in
  let order = ref [] in
  let see flow =
    if not (Hashtbl.mem tids flow) then begin
      Hashtbl.replace tids flow (Hashtbl.length tids + 1);
      order := flow :: !order
    end
  in
  List.iter
    (function
      | Trace.Pass_begin { flow; _ }
      | Trace.Pass_end { flow; _ }
      | Trace.Counters { flow; _ }
      | Trace.Metrics { flow; _ }
      | Trace.Node_event { flow; _ }
      | Trace.Degraded { flow; _ } -> see flow)
    events;
  (tids, List.rev !order)

let track_name flow = if flow = "" then "main" else flow

let esc = Trace.escape

let counters_args cs =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" (esc k) v) cs)

(* Render every event as (sort timestamp, line); metadata events carry no
   timestamp and are emitted first, unsorted. *)
let lines (t : Trace.t) =
  let events = Trace.events t in
  let tids, order = flow_tracks events in
  let tid flow = Hashtbl.find tids flow in
  let meta =
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"genlog\"}}"
    :: List.map
         (fun flow ->
           Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
             (tid flow)
             (esc (track_name flow)))
         order
  in
  (* spans never nest within one flow, so one pending begin per flow
     pairs every end with its begin *)
  let pending : (string, float * int * int) Hashtbl.t = Hashtbl.create 8 in
  let timed = ref [] in
  let emit ts line = timed := (ts, line) :: !timed in
  List.iter
    (function
      | Trace.Pass_begin { t; flow; gates; depth; _ } ->
        Hashtbl.replace pending flow (t, gates, depth)
      | Trace.Pass_end { t; flow; pass; gates; depth; elapsed; gc; _ } ->
        let t0, gates0, depth0 =
          match Hashtbl.find_opt pending flow with
          | Some p ->
            Hashtbl.remove pending flow;
            p
          | None -> (t -. elapsed, gates, depth)
        in
        emit t0
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"pass\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"gates_before\":%d,\"gates_after\":%d,\"depth_before\":%d,\"depth_after\":%d,\"gc_minor_words\":%.0f,\"gc_major_words\":%.0f}}"
             (esc pass) (us t0)
             (us elapsed)
             (tid flow) gates0 gates depth0 depth gc.Trace.minor_words
             gc.Trace.major_words)
      | Trace.Counters { t; flow; algo; counters } ->
        emit t
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"counters\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{%s}}"
             (esc algo) (us t) (tid flow) (counters_args counters))
      | Trace.Metrics { t; flow; algo; counters; gauges; hists } ->
        let hist_args =
          List.map
            (fun (k, h) ->
              Printf.sprintf "\"%s_count\":%d,\"%s_max\":%d" (esc k)
                h.Trace.h_count (esc k) h.Trace.h_max)
            hists
        in
        let args =
          String.concat ","
            (List.filter
               (fun s -> s <> "")
               ([ counters_args counters; counters_args gauges ] @ hist_args))
        in
        emit t
          (Printf.sprintf
             "{\"name\":\"%s metrics\",\"cat\":\"metrics\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{%s}}"
             (esc algo) (us t) (tid flow) args)
      | Trace.Node_event { t; flow; algo; node; gain; accepted } ->
        emit t
          (Printf.sprintf
             "{\"name\":\"%s node\",\"cat\":\"node\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"node\":%d,\"gain\":%d,\"accepted\":%b}}"
             (esc algo) (us t) (tid flow) node gain accepted)
      | Trace.Degraded { t; flow; pass; reason; detail } ->
        (* an instant marker so degradations are visible on the timeline *)
        emit t
          (Printf.sprintf
             "{\"name\":\"degraded: %s\",\"cat\":\"degraded\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"pass\":\"%s\",\"detail\":\"%s\"}}"
             (esc reason) (us t) (tid flow) (esc pass) (esc detail)))
    events;
  let timed =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !timed)
  in
  meta @ List.map snd timed

let to_string t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  List.iteri
    (fun i line ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b line)
    (lines t);
  Buffer.add_string b
    (Printf.sprintf "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{%s}}\n"
       (Runmeta.json_fields ()));
  Buffer.contents b

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))
