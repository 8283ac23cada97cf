(* The benchmark program: one workload, one seed, one measured run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0) it prints the end-to-end metrics; traced
   (--trace 1) it runs the middle half of the time with spans on and
   the quarters around it untraced, and prints the per-layer metrics.
   The last line of standard output
   is the result object; diagnostics go to standard error.  A wrong
   answer prints a result with "correct": false and exits 1. *)

open Harness

module type WORKLOAD = sig
  type t

  val setup : seed:int -> t

  val run : t -> phase -> deadline:int -> max_ops:int -> (string * float) list
  (** Runs operations until the monotonic clock passes [deadline] or
      [max_ops] operations are done, and returns the phase's per-layer
      counters. *)

  val memory_ops : int
  (** Operations run after set-up, before the measured time, whose
      footprint peak_rss_mb reports. *)

  val finish : t -> unit
  (** End-of-run correctness check; raises {!Harness.Wrong_answer}. *)

  val spans : (string * string) list
  (** Span name and the per-layer metric reporting its self time. *)

  val backends : t -> Ldap.Backend.t list
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("branch-read", (module Branch_read));
    ("fleet-write", (module Fleet_write));
    ("sharded-mixed", (module Sharded_mixed));
  ]

let setup_reps = 3
let slices = 5

(* The longest the memory phase may take on a very slow machine. *)
let memory_cap_ns = 60_000_000_000

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("ops_s", "1/s");
    ("op_p50_us", "us");
  ]

let per_layer =
  [
    ("network.search_self_pct", "%");
    ("network.round_trips_per_query", "count");
    ("network.sync_rpcs_per_update", "count");
    ("network.sync_bytes_per_update", "B");
    ("network.dropped_pdus", "count");
    ("replica.answer_pct", "%");
    ("replica.admit_pct", "%");
    ("replica.comparisons_per_query", "count");
    ("replica.scanned_per_returned", "count");
    ("replica.sync_pct", "%");
    ("replica.resyncs", "count");
    ("replica.sync_failures", "count");
    ("backend.search_pct", "%");
    ("backend.apply_pct", "%");
    ("backend.words_per_entry", "words");
    ("content_store.bytes_per_entry", "B");
    ("master.serve_pct", "%");
    ("master.pending_max", "count");
    ("node.serve_pct", "%");
    ("node.scanned_per_poll", "count");
    ("node.rescans", "count");
    ("node.seen_residency", "count");
    ("engine.event_self_pct", "%");
    ("router.apply_pct", "%");
    ("router.search_pct", "%");
    ("router.shards_per_search", "count");
    ("router.plan_hit_ratio", "ratio");
    ("router.escalations", "count");
    ("shard.serve_pct", "%");
    ("store.wal_bytes_per_update", "B");
    ("client.ops_s", "1/s");
    ("client.op_p99_us", "us");
    ("client.hit_ratio", "ratio");
    ("client.stale_p50_ticks", "ticks");
    ("client.stale_p99_ticks", "ticks");
    ("client.failed_ratio", "ratio");
    ("trace.wall_us", "us");
    ("trace.other_pct", "%");
    ("trace.overhead_pct", "%");
  ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let short = Printf.sprintf "%.15g" v in
    if float_of_string short = v then short else Printf.sprintf "%.17g" v

let emit ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let with_units table values =
  List.map
    (fun (name, unit) ->
      (name, unit, Option.value ~default:0.0 (List.assoc_opt name values)))
    table

(* The [p]th percentile of a non-empty latency sample set, logged with
   the highest percentile the tail rule supports (at least ten samples
   beyond it), so a [p] beyond that shows as thin. *)
let percentile what samples p =
  let n = Stats.Samples.length samples in
  let sorted = Stats.Samples.sorted samples in
  (match Stats.tail_percentile n with
  | Some top ->
      log "%s: n=%d p%g=%.3fus, tail p%g=%.3fus%s" what n p (Stats.percentile sorted p) top
        (Stats.percentile sorted top)
        (if top < p then Printf.sprintf " (p%g rests on fewer than 10 samples)" p else "")
  | None -> log "%s: only %d samples" what n);
  Stats.percentile sorted p

let pooled phases kind =
  let all = Stats.Samples.create () in
  List.iter (fun ph -> Stats.Samples.append ~into:all (kind ph)) phases;
  all

(* The median of every operation of the phases. *)
let op_p50 phases =
  let all = pooled phases all_latencies in
  if Stats.Samples.length all = 0 then failwith "no operations in the measured time";
  percentile "op" all 50.0

(* The p99 is taken per kind of operation (reads, writes) and the
   larger reported: where one kind is rare in the mix, such as renames
   among sharded-mixed's operations, the p99 of all operations pooled
   would jump between kinds as the mix drifts across the 1% line. *)
let op_p99 phases =
  List.fold_left
    (fun acc (what, kind) ->
      let s = pooled phases kind in
      if Stats.Samples.length s = 0 then acc else Float.max acc (percentile what s 99.0))
    0.0
    [ ("read", fun ph -> ph.reads); ("write", fun ph -> ph.writes) ]

let memory_metrics backends =
  let entries = List.fold_left (fun acc b -> acc + Ldap.Backend.total_entries b) 0 backends in
  let words = Obj.reachable_words (Obj.repr (Array.of_list backends)) in
  let store_bytes, store_entries =
    List.fold_left
      (fun (by, en) b ->
        let cs = Ldap.Backend.content_store b in
        (by + Ldap.Content_store.approx_bytes cs, en + Ldap.Content_store.size cs))
      (0, 0) backends
  in
  [
    ("backend.words_per_entry", float_of_int words /. float_of_int (max 1 entries));
    ( "content_store.bytes_per_entry",
      float_of_int store_bytes /. float_of_int (max 1 store_entries) );
  ]

let client_metrics ph =
  let stale =
    if Array.length ph.stale = 0 then []
    else
      [
        ("client.stale_p50_ticks", float_of_int (Stats.hist_percentile ph.stale 50.0));
        ("client.stale_p99_ticks", float_of_int (Stats.hist_percentile ph.stale 99.0));
      ]
  in
  let reads = Stats.Samples.length ph.reads in
  [
    ("client.ops_s", ops_s ph);
    ("client.op_p99_us", op_p99 [ ph ]);
    ("client.failed_ratio", float_of_int ph.failed /. float_of_int (max 1 ph.ops));
  ]
  @ (if reads > 0 then [ ("client.hit_ratio", float_of_int ph.hits /. float_of_int reads) ]
     else [])
  @ stale

let run_workload (module W : WORKLOAD) ~seed ~seconds ~trace =
  let world = ref None in
  let setup_times =
    List.init setup_reps (fun _ ->
        world := None;
        Gc.compact ();
        let t0 = now_ns () in
        world := Some (W.setup ~seed);
        seconds_of_ns (now_ns () - t0))
  in
  let w = Option.get !world in
  log "setup: %s s, peak RSS %.0f MB"
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times))
    (peak_rss_mb ());
  (* The footprint after a fixed amount of work, so that it does not
     grow with the number of operations a faster program gets through
     in the measured time. *)
  let mem = new_phase () in
  let t0 = now_ns () in
  ignore (W.run w mem ~deadline:(t0 + memory_cap_ns) ~max_ops:W.memory_ops);
  let rss = peak_rss_mb () in
  log "memory: %d of %d ops in %.3f s, peak RSS %.1f MB" mem.ops W.memory_ops
    (seconds_of_ns (now_ns () - t0))
    rss;
  let budget_ns = int_of_float (seconds *. 1e9) in
  if not trace then begin
    (* The measured time is cut into slices and each metric reported as
       the median over slices, so a burst of interference from outside
       the process moves at most a minority of them. *)
    let slice_ns = budget_ns / slices in
    let phases =
      List.init slices (fun _ ->
          let ph = new_phase () in
          ignore (W.run w ph ~deadline:(now_ns () + slice_ns) ~max_ops:max_int);
          ph)
    in
    W.finish w;
    List.iter
      (fun ph ->
        let all = all_latencies ph in
        log "slice: %d ops, %.1f ops/s, p99 %.3f us" ph.ops (ops_s ph)
          (if Stats.Samples.length all = 0 then Float.nan
           else Stats.percentile (Stats.Samples.sorted all) 99.0))
      phases;
    let p50 = op_p50 phases in
    (* Reported with the per-layer metrics as client.op_p99_us: see
       README.md, "Steadiness". *)
    log "op_p99_us %.3f" (op_p99 phases);
    let sum f = List.fold_left (fun acc ph -> acc + f ph) 0 (mem :: phases) in
    ( sum (fun ph -> ph.ops),
      sum (fun ph -> ph.failed),
      with_units end_to_end
        [
          ("setup_s", Stats.median setup_times);
          ("peak_rss_mb", rss);
          ("ops_s", Stats.median (List.map ops_s phases));
          ("op_p50_us", p50);
        ] )
  end
  else begin
    (* Untraced quarters on both sides of the traced half, so a drift in
       machine load over the run does not read as tracing overhead. *)
    let untraced = new_phase () in
    ignore (W.run w untraced ~deadline:(now_ns () + (budget_ns / 4)) ~max_ops:max_int);
    let traced = new_phase () in
    Span.reset tracer;
    Span.set_enabled tracer true;
    let counters = W.run w traced ~deadline:(now_ns () + (budget_ns / 2)) ~max_ops:max_int in
    Span.set_enabled tracer false;
    ignore (W.run w untraced ~deadline:(now_ns () + (budget_ns / 4)) ~max_ops:max_int);
    W.finish w;
    (* Self times as shares of the traced wall: a layer a workload does
       not run reads 0%, and the shares plus [other] add up to 100%. *)
    let share ns = 100.0 *. float_of_int ns /. float_of_int (max 1 traced.busy_ns) in
    let span_metrics =
      List.map (fun (span, metric) -> (metric, share (Span.self_ns tracer span))) W.spans
    in
    List.iter
      (fun name ->
        if not (List.mem_assoc name W.spans) then failwith ("span without a metric: " ^ name))
      (Span.names tracer);
    let wall_per_op = 1e6 /. ops_s traced in
    let other = 100.0 -. share (Span.total_self_ns tracer) in
    let overhead = ((ops_s untraced /. ops_s traced) -. 1.0) *. 100.0 in
    log "trace: traced wall %.3f us/op = spans %.2f%% + other %.2f%%; untraced %.3f us/op \
         (overhead %.2f%%)"
      wall_per_op (100.0 -. other) other
      (1e6 /. ops_s untraced)
      overhead;
    List.iter
      (fun (metric, v) -> log "trace: %-28s %6.2f%% %10.3f us/op" metric v (v *. wall_per_op /. 100.0))
      span_metrics;
    let values =
      span_metrics @ counters @ memory_metrics (W.backends w) @ client_metrics untraced
      @ [
          ("trace.wall_us", wall_per_op);
          ("trace.other_pct", other);
          ("trace.overhead_pct", overhead);
        ]
    in
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name per_layer) then failwith ("unlisted metric: " ^ name))
      values;
    ( mem.ops + untraced.ops + traced.ops,
      mem.failed + untraced.failed + traced.failed,
      with_units per_layer values )
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured wall seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
      log "unknown workload %S (known: %s)" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some w -> (
      match run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
      | attempted, failed, metrics -> emit ~correct:true ~attempted ~failed metrics
      | exception Wrong_answer msg ->
          log "WRONG ANSWER: %s" msg;
          emit ~correct:false ~attempted:1 ~failed:1 [];
          exit 1)
