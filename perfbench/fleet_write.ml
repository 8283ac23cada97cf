(* fleet-write: a replication cascade under an update-heavy stream.  A
   root master, interior nodes covering every department filter and a
   fleet of leaves, run on the discrete-event engine: staggered polls
   from Topology.drive_events, and an update committed at the root
   every few virtual ticks.  No reads.  An operation is one update,
   counted once every leaf has acknowledged it. *)

open Ldap
open Harness
module D = Ldap_dirgen
module Resync = Ldap_resync
module Topo = Ldap_topology
module Engine = Ldap_sim.Engine

let employees = 60_000
let nodes = 10
let leaves = 1000
let poll_every = 50
let update_every = 1
let max_stale = 4096
let log_keep = 4096

(* Virtual time the drain may take after the last commit before the
   remaining (update, leaf) pairs count as censored. *)
let drain_ticks = 20 * poll_every

(* Updates whose memory footprint peak_rss_mb reports: the live heap
   grows with every committed update, so the figure is taken at a fixed
   count rather than after however many a timed run gets through. *)
let memory_ops = 10_000

type t = {
  topo : Topo.Topology.t;
  backend : Backend.t;
  engine : Engine.t;
  stream : D.Update_stream.t;
  leaf_index : (string, int) Hashtbl.t;
  acked : int array;  (* per leaf, last acknowledged CSN *)
  (* The current phase's commits and acknowledgements, in time order. *)
  commits : (int * int) Queue.t;  (* CSN, virtual commit time *)
  acks : (int * int * int) Queue.t;  (* leaf, CSN, virtual time *)
  mutable phase : phase option;
  mutable committed : int;
  mutable commit_limit : int;  (* the phase stops committing here *)
  mutable pending_max : int;
}

let dept_query base d =
  Query.make ~base (Filter.of_string_exn (Printf.sprintf "(departmentNumber=%s)" d))

(* Re-registers an endpoint with its serving call inside a span.  The
   re-registered endpoint is no longer a root master for
   Transport.master lookups, which nothing in this topology uses. *)
let wrap_endpoint transport host name =
  match Resync.Transport.endpoint transport host with
  | None -> failwith ("no endpoint " ^ host)
  | Some ep ->
      let serve_span = span name in
      Resync.Transport.add_endpoint transport ~name:host
        {
          ep with
          Resync.Transport.ep_handle =
            (fun ~push req q -> serve_span (fun () -> ep.Resync.Transport.ep_handle ~push req q));
        }

let setup ~seed =
  let ent = D.Enterprise.build { D.Enterprise.default_config with seed; employees } in
  let backend = D.Enterprise.backend ent in
  let base = D.Enterprise.root_dn ent in
  let depts = Array.map (dept_query base) (D.Enterprise.dept_numbers ent) in
  let filters = Array.length depts in
  let topo = Topo.Topology.create backend in
  for i = 0 to nodes - 1 do
    let covers = List.filteri (fun j _ -> j mod nodes = i) (Array.to_list depts) in
    ignore
      (must "add_node"
         (Topo.Topology.add_node topo ~name:(Printf.sprintf "node%d" i)
            ~parent:(Topo.Topology.root topo) ~covers))
  done;
  let leaf_index = Hashtbl.create leaves in
  for i = 0 to leaves - 1 do
    let name = Printf.sprintf "leaf%d" i in
    Hashtbl.replace leaf_index name i;
    ignore
      (must "add_leaf"
         (Topo.Topology.add_leaf topo ~name
            ~parent:(Printf.sprintf "node%d" (i mod filters mod nodes))
            depts.(i mod filters)))
  done;
  let transport = Topo.Topology.transport topo in
  wrap_endpoint transport (Topo.Topology.root topo) "master.serve";
  List.iter (fun n -> wrap_endpoint transport (Topo.Node.host n) "node.serve")
    (Topo.Topology.nodes topo);
  let engine = Engine.create ~seed:(seed + 2) () in
  let net = Topo.Topology.network topo in
  Network.attach_engine net engine;
  Network.set_default_latency net (Ldap_sim.Latency.Uniform { lo = 1; hi = 4 });
  let t =
    {
      topo;
      backend;
      engine;
      stream =
        D.Update_stream.create ent { D.Update_stream.default_config with seed = seed + 1 };
      leaf_index;
      acked = Array.make leaves 0;
      commits = Queue.create ();
      acks = Queue.create ();
      phase = None;
      committed = 0;
      commit_limit = 0;
      pending_max = 0;
    }
  in
  let on_leaf_poll leaf ~start:_ ~finish =
    let i = Hashtbl.find t.leaf_index (Topo.Leaf.name leaf) in
    let csn = Csn.to_int (Topo.Leaf.acked_csn leaf) in
    if csn > t.acked.(i) then begin
      t.acked.(i) <- csn;
      Queue.add (i, csn, finish) t.acks
    end
  in
  Topo.Topology.drive_events ~on_leaf_poll topo engine ~poll_every ~until:(1 lsl 50);
  (* The update clock: one commit every [update_every] ticks while a
     phase is committing. *)
  let apply_span = span "backend.apply" in
  let rec tick () =
    Engine.after engine ~delay:update_every (fun () ->
        (match t.phase with
        | Some ph when t.committed < t.commit_limit ->
            let t0 = now_ns () in
            apply_span (fun () -> D.Update_stream.step t.stream);
            Stats.Samples.add ph.writes (us_of_ns (now_ns () - t0));
            Queue.add (Csn.to_int (Backend.csn t.backend), Engine.now engine) t.commits;
            t.committed <- t.committed + 1;
            if t.committed land 255 = 0 then begin
              t.pending_max <-
                max t.pending_max
                  (snd (Resync.Master.pending_stats (Topo.Topology.master t.topo)));
              (* The root keeps a bounded changelog, as a deployment
                 would; session-history serving never reads it. *)
              Backend.trim_log t.backend
                ~before:(Csn.of_int (Csn.to_int (Backend.csn t.backend) - log_keep))
            end
        | _ -> ());
        tick ())
  in
  tick ();
  t

(* Staleness of every (update, leaf) pair of the phase, from the
   recorded commits and acknowledgements; returns the histogram, the
   pairs never acknowledged and the updates some leaf never
   acknowledged. *)
let staleness t =
  let csns = Array.of_seq (Seq.map fst (Queue.to_seq t.commits)) in
  let times = Array.of_seq (Seq.map snd (Queue.to_seq t.commits)) in
  let n = Array.length csns in
  let hist = Array.make (max_stale + 1) 0 in
  let next = Array.make leaves 0 in
  Queue.iter
    (fun (l, csn, at) ->
      while next.(l) < n && csns.(next.(l)) <= csn do
        let s = at - times.(next.(l)) in
        hist.(min max_stale s) <- hist.(min max_stale s) + 1;
        next.(l) <- next.(l) + 1
      done)
    t.acks;
  ( hist,
    Array.fold_left (fun acc k -> acc + (n - k)) 0 next,
    n - Array.fold_left min n next )

let spans =
  [
    ("backend.apply", "backend.apply_pct");
    ("master.serve", "master.serve_pct");
    ("node.serve", "node.serve_pct");
    ("engine.event", "engine.event_self_pct");
  ]

let event_span = span "engine.event"
let step t = if not (event_span (fun () -> Engine.step t.engine)) then failwith "engine idle"

let node_cursors t =
  List.fold_left
    (fun (p, s, r) n ->
      let p', s', r' = Topo.Node.cursor_stats n in
      (p + p', s + s', r + r'))
    (0, 0, 0) (Topo.Topology.nodes t.topo)

let run t ph ~deadline ~max_ops =
  let net = Topo.Topology.network t.topo in
  let stats0 = Network.stats net in
  let polls0, scanned0, rescans0 = node_cursors t in
  Queue.clear t.commits;
  Queue.clear t.acks;
  t.pending_max <- 0;
  let committed0 = t.committed in
  t.commit_limit <- (if max_ops = max_int then max_int else committed0 + max_ops);
  let t0 = now_ns () in
  t.phase <- Some ph;
  while now_ns () < deadline && t.committed < t.commit_limit do
    step t
  done;
  t.phase <- None;
  (* Drain: run until every leaf has acknowledged the last commit. *)
  let target = Csn.to_int (Backend.csn t.backend) in
  let stop = Engine.now t.engine + drain_ticks in
  while Array.exists (fun a -> a < target) t.acked && Engine.now t.engine < stop do
    step t
  done;
  ph.busy_ns <- ph.busy_ns + (now_ns () - t0);
  let updates = t.committed - committed0 in
  let hist, censored, unacked = staleness t in
  if censored > 0 then
    log "fleet-write: %d (update, leaf) pairs censored, %d updates unacknowledged" censored
      unacked;
  ph.ops <- ph.ops + updates;
  ph.failed <- ph.failed + unacked;
  ph.stale <- (if Array.length ph.stale = 0 then hist else Array.map2 ( + ) ph.stale hist);
  let stats1 = Network.stats net in
  let polls1, scanned1, rescans1 = node_cursors t in
  let per_update x = float_of_int x /. float_of_int (max 1 updates) in
  [
    ("network.sync_rpcs_per_update", per_update (stats1.sync_rpcs - stats0.sync_rpcs));
    ("network.sync_bytes_per_update", per_update (stats1.sync_bytes - stats0.sync_bytes));
    ("network.dropped_pdus", float_of_int (stats1.dropped_pdus - stats0.dropped_pdus));
    ( "node.scanned_per_poll",
      float_of_int (scanned1 - scanned0) /. float_of_int (max 1 (polls1 - polls0)) );
    ("node.rescans", float_of_int (rescans1 - rescans0));
    ("master.pending_max", float_of_int t.pending_max);
    ( "node.seen_residency",
      float_of_int
        (List.fold_left (fun acc n -> acc + Topo.Node.seen_residency n) 0
           (Topo.Topology.nodes t.topo)) );
  ]

let finish t =
  if not (Topo.Topology.converged t.topo) then
    wrong "fleet-write: a leaf's content differs from the root's"

let backends t = [ t.backend ]
