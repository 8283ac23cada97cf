(* Shared machinery of the workloads: the monotonic clock, the tracer,
   the per-phase operation record and the process-level readings. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let tracer = Span.create ~clock:now_ns

(* [span name] resolves the span's key once; hoist it out of hot loops:
   [let search = span "network.search"] then [search (fun () -> ...)]. *)
let span name =
  let key = Span.key tracer name in
  fun f -> Span.with_span tracer key f

let seconds_of_ns ns = float_of_int ns /. 1e9
let us_of_ns ns = float_of_int ns /. 1e3

exception Wrong_answer of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong_answer s)) fmt
let must what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

(* One measured phase of a workload: the client's operations, their
   wall-clock latencies split by kind, and the wall time the phase was
   busy (the sum of the timed intervals; bookkeeping such as answer
   checks happens outside them). *)
type phase = {
  mutable ops : int;
  mutable failed : int;
  mutable busy_ns : int;
  mutable hits : int;
  reads : Stats.Samples.t;  (* µs *)
  writes : Stats.Samples.t;  (* µs *)
  mutable stale : int array;  (* virtual ticks, commit to leaf ack *)
}

let new_phase () =
  {
    ops = 0;
    failed = 0;
    busy_ns = 0;
    hits = 0;
    reads = Stats.Samples.create ();
    writes = Stats.Samples.create ();
    stale = [||];
  }

let ops_s p = float_of_int p.ops /. seconds_of_ns (max 1 p.busy_ns)

let all_latencies p =
  let all = Stats.Samples.create () in
  Stats.Samples.append ~into:all p.reads;
  Stats.Samples.append ~into:all p.writes;
  all

(* Times [f] into the phase's busy wall and returns its result with
   the elapsed nanoseconds. *)
let timed p f =
  let t0 = now_ns () in
  let v = f () in
  let dt = now_ns () - t0 in
  p.busy_ns <- p.busy_ns + dt;
  (v, dt)

(* Peak resident set of the process (VmHWM), 0 where /proc is absent. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let prefix = "VmHWM:" in
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | line when String.starts_with ~prefix line ->
            Scanf.sscanf
              (String.sub line (String.length prefix)
                 (String.length line - String.length prefix))
              " %d" Fun.id
        | _ -> go ()
      in
      let kb = go () in
      close_in ic;
      float_of_int kb /. 1024.0

let log fmt = Printf.eprintf (fmt ^^ "\n%!")
