(* Tests for the discrete-event core: deterministic event ordering,
   latency draws, awaiting inside and outside running events, the
   engine-backed network and consumer paths, the periodic clock
   events, and the observational equivalence of zero and random link
   latency. *)
open Ldap
module Sim = Ldap_sim
module Resync = Ldap_resync
module Replication = Ldap_replication
module Selection = Ldap_selection
module Topology = Ldap_topology

let schema = Schema.default
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn
let f = Filter.of_string_exn

let org = Entry.make (dn "o=xyz") [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ]

let person name ?(dept = "100") () =
  Entry.make
    (dn (Printf.sprintf "cn=%s,o=xyz" name))
    [
      ("objectclass", [ "inetOrgPerson" ]);
      ("cn", [ name ]);
      ("sn", [ name ]);
      ("departmentNumber", [ dept ]);
    ]

let make_backend () =
  let b = Backend.create ~indexed:[ "departmentnumber" ] schema in
  (match Backend.add_context b org with Ok () -> () | Error e -> failwith e);
  b

let apply b op = match Backend.apply b op with Ok _ -> () | Error e -> failwith e

let dept_query dept =
  Query.make ~base:(dn "o=xyz") (f (Printf.sprintf "(departmentNumber=%s)" dept))

(* --- Engine core ----------------------------------------------------- *)

let test_event_order () =
  let e = Sim.Engine.create () in
  let trace = ref [] in
  let mark label () = trace := (label, Sim.Engine.now e) :: !trace in
  Sim.Engine.schedule e ~time:5 (mark "a5");
  Sim.Engine.schedule e ~time:3 (mark "b3");
  Sim.Engine.schedule e ~time:5 (mark "c5");
  Sim.Engine.after e ~delay:1 (fun () ->
      mark "d1" ();
      (* Scheduling from inside an event interleaves by time. *)
      Sim.Engine.after e ~delay:3 (mark "e4"));
  Sim.Engine.run e;
  Alcotest.(check (list (pair string int)))
    "time order, ties broken by scheduling order"
    [ ("d1", 1); ("b3", 3); ("e4", 4); ("a5", 5); ("c5", 5) ]
    (List.rev !trace);
  check_int "clock at last event" 5 (Sim.Engine.now e);
  check_int "queue drained" 0 (Sim.Engine.pending e)

let test_schedule_bounds () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~time:10 ignore;
  Sim.Engine.run e;
  check_bool "scheduling in the past rejected" true
    (match Sim.Engine.schedule e ~time:3 ignore with
    | () -> false
    | exception Invalid_argument _ -> true);
  (* [after] clamps negative delays to zero instead. *)
  let fired = ref false in
  Sim.Engine.after e ~delay:(-5) (fun () -> fired := true);
  Sim.Engine.run e;
  check_bool "negative delay clamped to now" true !fired;
  check_int "clock unchanged by clamped event" 10 (Sim.Engine.now e)

let test_every_and_run_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  Sim.Engine.every e ~every:10 ~until:35 (fun () -> incr count);
  Sim.Engine.run e;
  check_int "three firings within the bound" 3 !count;
  check_int "quiescent at the last occurrence" 30 (Sim.Engine.now e);
  let e2 = Sim.Engine.create () in
  let count2 = ref 0 in
  Sim.Engine.every e2 ~every:10 ~until:100 (fun () -> incr count2);
  Sim.Engine.run_until e2 ~time:45;
  check_int "four firings by 45" 4 !count2;
  check_int "clock advanced exactly to the bound" 45 (Sim.Engine.now e2);
  check_bool "later ticks still pending" true (Sim.Engine.pending e2 > 0)

let test_latency_draws () =
  let e = Sim.Engine.create ~seed:42 () in
  check_int "zero" 0 (Sim.Engine.draw e Sim.Latency.Zero);
  check_int "fixed" 7 (Sim.Engine.draw e (Sim.Latency.Fixed 7));
  for _ = 1 to 200 do
    let d = Sim.Engine.draw e (Sim.Latency.Uniform { lo = 2; hi = 8 }) in
    check_bool "uniform within bounds" true (d >= 2 && d <= 8)
  done;
  for _ = 1 to 200 do
    check_bool "exponential nonnegative" true
      (Sim.Engine.draw e (Sim.Latency.Exponential { mean = 5 }) >= 0)
  done;
  (* Same seed, same call sequence: identical draws. *)
  let a = Sim.Engine.create ~seed:9 () and b = Sim.Engine.create ~seed:9 () in
  for _ = 1 to 50 do
    check_int "deterministic stream"
      (Sim.Engine.draw a (Sim.Latency.Uniform { lo = 0; hi = 1000 }))
      (Sim.Engine.draw b (Sim.Latency.Uniform { lo = 0; hi = 1000 }))
  done

(* --- Engine-backed network ------------------------------------------- *)

let test_rpc_charges_round_trip () =
  (* The blocking exchange awaits the engine: the reply arrives one
     round trip later, with request and reply bytes accounted. *)
  let serve () = 41 + 1 in
  let net = Network.create () in
  let engine = Sim.Engine.create () in
  Network.attach_engine net engine;
  Network.set_link_latency net ~a:"c" ~b:"s" (Sim.Latency.Fixed 3);
  let r =
    Network.rpc net ~from:"c" ~host:"s" ~request_bytes:10
      ~reply_bytes:(fun r -> r) serve
  in
  check_bool "result delivered" true (r = Ok 42);
  let stats = Network.stats net in
  check_int "one exchange accounted" 1 stats.Network.sync_rpcs;
  check_int "request + reply bytes" 52 stats.Network.sync_bytes;
  check_int "round trip charged" 6 (Sim.Engine.now engine)

(* --- Await ------------------------------------------------------------ *)

let test_nested_await () =
  (* A blocking exchange made inside a running event blocks in virtual
     time: the clock moves to the reply, events due before it fire in
     order, and later events stay queued for the outer loop. *)
  let net = Network.create () in
  let engine = Network.engine net in
  Network.set_default_latency net (Sim.Latency.Fixed 5);
  let trace = ref [] in
  let mark label () = trace := (label, Sim.Engine.now engine) :: !trace in
  Sim.Engine.schedule engine ~time:4 (mark "during");
  Sim.Engine.schedule engine ~time:30 (mark "later");
  Sim.Engine.schedule engine ~time:2 (fun () ->
      let r =
        Network.rpc net ~from:"c" ~host:"s" ~request_bytes:1
          ~reply_bytes:(fun _ -> 1) (fun () -> 7)
      in
      check_bool "reply delivered inside the callback" true (r = Ok 7);
      check_int "clock at the reply time" 12 (Sim.Engine.now engine);
      check_int "later event still queued" 1 (Sim.Engine.pending engine);
      mark "replied" ());
  Sim.Engine.run engine;
  Alcotest.(check (list (pair string int)))
    "events interleave with the awaited exchange"
    [ ("during", 4); ("replied", 12); ("later", 30) ]
    (List.rev !trace)

let test_await_empty_queue () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~time:3 ignore;
  check_bool "nothing delivered" true (Sim.Engine.await e (fun _ -> ()) = None);
  check_int "queue drained" 0 (Sim.Engine.pending e);
  check_int "clock at the last event" 3 (Sim.Engine.now e);
  check_bool "immediate delivery steps nothing" true
    (Sim.Engine.await e (fun k -> k 5) = Some 5)

let test_attach_engine_guard () =
  let net = Network.create () in
  Sim.Engine.after (Network.engine net) ~delay:1 ignore;
  check_bool "queued events would be lost" true
    (match Network.attach_engine net (Sim.Engine.create ()) with
    | () -> false
    | exception Invalid_argument _ -> true);
  Network.settle net;
  let e = Sim.Engine.create () in
  Network.attach_engine net e;
  check_bool "attached once drained" true (Network.engine net == e)

let test_drop_reply_timing () =
  (* A dropped reply still runs the server thunk (its side effects
     stand) and the client only learns about the loss at the timeout. *)
  let net = Network.create () in
  let engine = Sim.Engine.create () in
  Network.attach_engine net engine;
  Network.set_default_latency net (Sim.Latency.Fixed 4);
  let faults = Network.Faults.create () in
  Network.Faults.script faults [ Network.Faults.Drop_reply ];
  let served_at = ref (-1) in
  let r =
    Network.rpc net ~faults ~from:"c" ~host:"s" ~request_bytes:5
      ~reply_bytes:(fun () -> 5)
      (fun () -> served_at := Sim.Engine.now engine)
  in
  check_bool "timeout surfaced" true (r = Error Network.Timeout);
  check_int "served after one leg" 4 !served_at;
  check_int "client waited the full round trip" 8 (Sim.Engine.now engine);
  check_int "loss accounted" 1 (Network.stats net).Network.dropped_pdus

(* --- Backoff as virtual time (the satellite fix) --------------------- *)

let test_backoff_advances_clock () =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"7" ()));
  let net = Network.create () in
  let engine = Sim.Engine.create () in
  Network.attach_engine net engine;
  let faults = Network.Faults.create () in
  let transport = Resync.Transport.create ~faults net in
  Resync.Transport.add_master transport ~name:"m" (Resync.Master.create b);
  let consumer = Resync.Consumer.create (dept_query "7") in
  (match Resync.Consumer.sync_over consumer transport ~host:"m" with
  | Ok _ -> ()
  | Error e -> failwith (Resync.Consumer.sync_error_to_string e));
  let t0 = Sim.Engine.now engine in
  Network.Faults.script faults
    [ Network.Faults.Drop_request; Network.Faults.Drop_request ];
  match Resync.Consumer.sync_over consumer transport ~host:"m" with
  | Ok o ->
      check_int "three attempts" 3 o.Resync.Consumer.attempts;
      (* Links default to zero latency, so every tick of elapsed
         virtual time is backoff: 1 after the first failure, 2 after
         the second. *)
      check_int "backoff stat" 3 o.Resync.Consumer.backoff;
      check_int "stat equals elapsed virtual time" (Sim.Engine.now engine - t0)
        o.Resync.Consumer.backoff
  | Error e -> failwith (Resync.Consumer.sync_error_to_string e)

let test_replica_backoff_stat () =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"7" ()));
  let net = Network.create () in
  let engine = Sim.Engine.create () in
  Network.attach_engine net engine;
  let faults = Network.Faults.create () in
  let transport = Resync.Transport.create ~faults net in
  Resync.Transport.add_master transport ~name:"m" (Resync.Master.create b);
  let replica =
    Replication.Filter_replica.create_over ~host:"r" transport ~master_host:"m"
  in
  (match Replication.Filter_replica.install_filter replica (dept_query "7") with
  | Ok () -> ()
  | Error e -> failwith e);
  apply b (Update.add (person "b" ~dept:"7" ()));
  let t0 = Sim.Engine.now engine in
  Network.Faults.script faults
    [ Network.Faults.Drop_request; Network.Faults.Drop_request ];
  Replication.Filter_replica.sync replica;
  let stats = Replication.Filter_replica.stats replica in
  check_int "two retries" 2 stats.Replication.Stats.sync_retries;
  check_int "backoff ticks equal elapsed virtual time"
    (Sim.Engine.now engine - t0) stats.Replication.Stats.sync_backoff_ticks

(* --- Periodic clock events ------------------------------------------- *)

let test_scheduled_expiry () =
  let b = make_backend () in
  let master = Resync.Master.create b in
  for _ = 1 to 3 do
    match
      Resync.Master.handle master
        { Resync.Protocol.mode = Resync.Protocol.Poll; cookie = None }
        (dept_query "7")
    with
    | Ok _ -> ()
    | Error e -> failwith e
  done;
  check_int "three sessions" 3 (Resync.Master.session_count master);
  let engine = Sim.Engine.create () in
  Resync.Master.schedule_expiry master engine ~every:5 ~until:20 ~idle_limit:0;
  Sim.Engine.run engine;
  check_int "expired on the clock" 0 (Resync.Master.session_count master);
  check_int "timer ran to its bound" 20 (Sim.Engine.now engine)

let test_scheduled_revolutions () =
  let b = make_backend () in
  let net = Network.create () in
  let transport = Resync.Transport.create net in
  Resync.Transport.add_master transport ~name:"m" (Resync.Master.create b);
  let replica =
    Replication.Filter_replica.create_over ~host:"r" transport ~master_host:"m"
  in
  let selector =
    Selection.Selector.create
      {
        Selection.Selector.rules = [];
        revolution_interval = 1000;
        size_budget = 10;
        min_hits = 1;
        include_queries = false;
      }
      replica
  in
  let engine = Sim.Engine.create () in
  Selection.Selector.schedule_revolutions selector engine ~every:10 ~until:35;
  Sim.Engine.run engine;
  check_int "three revolutions on the clock" 3
    (Selection.Selector.revolutions selector)

(* --- Latency equivalence property ---------------------------------------
   For the same seed (same update stream, same fault decisions) a
   zero-latency network and a random-latency one must leave the
   consumer with identical content, cookie and traffic accounting:
   virtual time reorders nothing observable. *)

let apply_scripted_ops b prng =
  for _ = 1 to 4 do
    let name = Printf.sprintf "q%d" (Ldap_dirgen.Prng.int prng 12) in
    match Ldap_dirgen.Prng.int prng 3 with
    | 0 ->
        ignore
          (Backend.apply b
             (Update.add
                (person name
                   ~dept:(string_of_int (7 + Ldap_dirgen.Prng.int prng 2))
                   ())))
    | 1 ->
        ignore
          (Backend.apply b
             (Update.modify
                (dn (Printf.sprintf "cn=%s,o=xyz" name))
                [ Update.replace_values "mail" [ Printf.sprintf "%s@x" name ] ]))
    | _ ->
        ignore (Backend.apply b (Update.delete (dn (Printf.sprintf "cn=%s,o=xyz" name))))
  done

let run_variant ~latency seed =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"7" ()));
  apply b (Update.add (person "b" ~dept:"8" ()));
  let net = Network.create () in
  Network.attach_engine net (Sim.Engine.create ~seed ());
  Network.set_default_latency net latency;
  (* Fault decisions come from their own stream, independent of the
     engine's latency draws, so both variants see the same outcomes. *)
  let fault_prng = Ldap_dirgen.Prng.create (seed + 1) in
  let faults =
    Network.Faults.create ~drop_request:0.15 ~drop_reply:0.15
      ~roll:(fun () -> Ldap_dirgen.Prng.float fault_prng 1.0)
      ()
  in
  let transport = Resync.Transport.create ~faults net in
  Resync.Transport.add_master transport ~name:"m" (Resync.Master.create b);
  let consumer = Resync.Consumer.create (dept_query "7") in
  let op_prng = Ldap_dirgen.Prng.create (seed + 2) in
  for _round = 1 to 6 do
    apply_scripted_ops b op_prng;
    ignore (Resync.Consumer.sync_over ~max_attempts:6 consumer transport ~host:"m")
  done;
  let entries =
    List.sort
      (fun a b -> Dn.compare (Entry.dn a) (Entry.dn b))
      (Resync.Consumer.entries consumer)
  in
  (entries, Resync.Consumer.cookie consumer, (Network.stats net).Network.sync_bytes)

let prop_zero_matches_random_latency =
  QCheck.Test.make ~name:"sim: zero and random latency agree"
    ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let r_entries, r_cookie, r_bytes =
        run_variant ~latency:(Sim.Latency.Uniform { lo = 1; hi = 6 }) seed
      in
      let z_entries, z_cookie, z_bytes = run_variant ~latency:Sim.Latency.Zero seed in
      r_cookie = z_cookie && r_bytes = z_bytes
      && List.length r_entries = List.length z_entries
      && List.for_all2 Entry.equal r_entries z_entries)

(* --- Latency/staleness sweep shape ----------------------------------- *)

let test_latency_staleness_ordering () =
  let config = Topology.Sweep.lat_smoke_config in
  let points = Topology.Sweep.latency_staleness ~config () in
  check_int "four variants" 4 (List.length points);
  let find shape faults =
    List.find
      (fun (p : Topology.Sweep.lat_point) ->
        p.Topology.Sweep.lp_shape = shape && p.Topology.Sweep.lp_faults = faults)
      points
  in
  let tree_shape = Printf.sprintf "tree%d" config.Topology.Sweep.lat_arity in
  let star_clean = find "star" "clean" and tree_clean = find tree_shape "clean" in
  let star_lossy = find "star" "lossy" and tree_lossy = find tree_shape "lossy" in
  List.iter
    (fun (p : Topology.Sweep.lat_point) ->
      check_bool "polls sampled" true (p.Topology.Sweep.lp_polls > 0);
      check_bool "staleness sampled" true (p.lp_stale_samples > 0);
      check_bool "nonzero response time" true (p.lp_resp_p50 > 0);
      check_bool "nonzero staleness" true (p.lp_stale_p50 > 0);
      check_bool "percentiles ordered" true
        (p.lp_resp_p50 <= p.lp_resp_p90
        && p.lp_resp_p90 <= p.lp_resp_p99
        && p.lp_resp_p99 <= p.lp_resp_max
        && p.lp_stale_p50 <= p.lp_stale_p90
        && p.lp_stale_p90 <= p.lp_stale_p99
        && p.lp_stale_p99 <= p.lp_stale_max))
    points;
  check_bool "tree staleness >= star (extra tier)" true
    (tree_clean.Topology.Sweep.lp_stale_p90 >= star_clean.Topology.Sweep.lp_stale_p90);
  check_bool "lossy response >= clean (retries burn virtual time)" true
    (star_lossy.Topology.Sweep.lp_resp_p90 >= star_clean.Topology.Sweep.lp_resp_p90
    && tree_lossy.Topology.Sweep.lp_resp_p90 >= tree_clean.Topology.Sweep.lp_resp_p90);
  (* Same config, same seed: the sweep is deterministic. *)
  let points2 = Topology.Sweep.latency_staleness ~config () in
  check_bool "deterministic rerun" true (points = points2)

(* --- Cancellable events ----------------------------------------------- *)

let test_cancellable_events () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  let mark label () = fired := label :: !fired in
  let h1 = Sim.Engine.schedule_cancellable e ~time:5 (mark "a") in
  let _h2 = Sim.Engine.schedule_cancellable e ~time:7 (mark "b") in
  Sim.Engine.cancel h1;
  check_bool "handle reports cancellation" true (Sim.Engine.cancelled h1);
  (* The queue entry stays: the clock still visits time 5 (determinism
     preserved), but the thunk is a no-op. *)
  check_int "cancelled event still queued" 2 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check (list string)) "only the live event fired" [ "b" ] !fired;
  check_int "clock visited the final event" 7 (Sim.Engine.now e)

let test_cancellable_series () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let h =
    Sim.Engine.every_cancellable e ~every:10 ~until:100 (fun () -> incr count)
  in
  (* Cancel mid-series from inside an event: one handle silences the
     whole chain of reschedules. *)
  Sim.Engine.schedule e ~time:35 (fun () -> Sim.Engine.cancel h);
  Sim.Engine.run e;
  check_int "ticks before cancellation" 3 !count;
  let h2 = Sim.Engine.after_cancellable e ~delay:5 (fun () -> incr count) in
  Sim.Engine.cancel h2;
  Sim.Engine.run e;
  check_int "cancelled after_cancellable never fires" 3 !count

let suite =
  [
    Alcotest.test_case "event order deterministic" `Quick test_event_order;
    Alcotest.test_case "cancellable events" `Quick test_cancellable_events;
    Alcotest.test_case "cancellable series" `Quick test_cancellable_series;
    Alcotest.test_case "schedule bounds" `Quick test_schedule_bounds;
    Alcotest.test_case "every + run_until" `Quick test_every_and_run_until;
    Alcotest.test_case "latency draws" `Quick test_latency_draws;
    Alcotest.test_case "rpc charges round trip" `Quick test_rpc_charges_round_trip;
    Alcotest.test_case "nested await" `Quick test_nested_await;
    Alcotest.test_case "await on empty queue" `Quick test_await_empty_queue;
    Alcotest.test_case "attach_engine guard" `Quick test_attach_engine_guard;
    Alcotest.test_case "drop_reply timing" `Quick test_drop_reply_timing;
    Alcotest.test_case "backoff advances clock" `Quick test_backoff_advances_clock;
    Alcotest.test_case "replica backoff stat" `Quick test_replica_backoff_stat;
    Alcotest.test_case "scheduled expiry" `Quick test_scheduled_expiry;
    Alcotest.test_case "scheduled revolutions" `Quick test_scheduled_revolutions;
    Alcotest.test_case "latency/staleness ordering" `Quick test_latency_staleness_ordering;
    QCheck_alcotest.to_alcotest prop_zero_matches_random_latency;
  ]
