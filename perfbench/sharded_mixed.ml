(* sharded-mixed: reads beside writes over a partitioned master.  A
   4-shard Router holds the directory; a durable branch replica (WAL on,
   in-memory medium) subscribes through the router.  One closed-loop
   client interleaves Table 1 queries at the branch with Router.apply
   writes and polls the branch, with the traffic of Figure 6.  Misses
   chase their referral to [hq], a handler over Router.search. *)

open Ldap
open Harness
module D = Ldap_dirgen
module R = Ldap_replication
module Resync = Ldap_resync
module Shard = Ldap_shard

let employees = 20_000
let shards = 4
let train_len = 10_000
let eval_len = 20_000
let budget_share = 0.10

(* The traffic of the paper's Figure 6 drive (Figures.figure6 through
   Scenario.drive_filter): 0.30 updates per query, interleaved before
   each query, and a branch sync every 250 queries. *)
let traffic = { Ldap_eval.Scenario.queries_between_syncs = 250; updates_per_query = 0.30 }

(* Operations whose memory footprint peak_rss_mb reports. *)
let memory_ops = 1_500

(* Changelog records each backend keeps: the shards' session-history
   serving never reads the log, and the source directory's only feeds
   the router, so a bounded log keeps the live heap, and with it the
   cost of a run's later operations, from growing with the number of
   writes a run gets through. *)
let log_keep = 1024

type t = {
  net : Network.t;
  router : Shard.Router.t;
  replica : R.Filter_replica.t;
  medium : Ldap_store.Medium.t;
  branch : Branch.t;
  stream : D.Update_stream.t;
  committed : Update.op Queue.t;
  queries : Query.t array;
  mutable next : int;
  mutable debt : float;  (* updates owed to the interleave rate *)
  logs : Backend.t list;  (* the source directory's and the shards' *)
}

let wal_bytes medium =
  List.fold_left
    (fun acc name ->
      if Filename.check_suffix name ".wal" then acc + Ldap_store.Medium.size medium ~name
      else acc)
    0 (Ldap_store.Medium.files medium)

let setup ~seed =
  let ent = D.Enterprise.build { D.Enterprise.default_config with seed; employees } in
  let backend = D.Enterprise.backend ent in
  let schema = D.Enterprise.schema ent in
  let net = Network.create () in
  let transport = Resync.Transport.create net in
  let router =
    Shard.Router.create
      (Shard.Partition.of_enterprise ent ~shards)
      transport
      (Array.init shards (fun id ->
           Shard.Shard_master.create ~indexed:D.Enterprise.indexed_attrs schema ~id))
  in
  must "seed router" (Shard.Router.seed_from_backend router backend);
  for i = 0 to shards - 1 do
    let host = Shard.Shard_master.host_of i in
    match Resync.Transport.endpoint transport host with
    | None -> failwith ("no endpoint " ^ host)
    | Some ep ->
        let serve_span = span "shard.serve" in
        Resync.Transport.add_endpoint transport ~name:host
          {
            ep with
            Resync.Transport.ep_handle =
              (fun ~push req q -> serve_span (fun () -> ep.Resync.Transport.ep_handle ~push req q));
          }
  done;
  let search_span = span "router.search" in
  Network.add_handler net ~name:"hq" (fun q ->
      search_span (fun () ->
          match Shard.Router.search router q with
          | Ok entries -> Server.Entries { Backend.entries; references = [] }
          | Error e -> Server.Failure e));
  let items =
    D.Workload.generate ent
      { D.Workload.default_config with seed = seed + 1; length = train_len + eval_len }
  in
  let filters =
    Ldap_eval.Scenario.select_static
      { Ldap_eval.Scenario.enterprise = ent; master = Resync.Master.create backend }
      ~rules:Branch.rules
      ~train:(Array.sub items 0 train_len)
      ~budget:(int_of_float (budget_share *. float_of_int employees))
  in
  let replica =
    R.Filter_replica.create_over transport ~host:"branch"
      ~master_host:(Shard.Router.host router)
  in
  let medium = Ldap_store.Medium.memory () in
  R.Filter_replica.attach_store replica medium ~prefix:"branch";
  must "branch install" (Ldap_selection.Selector.install_static replica filters);
  (* The write stream is generated against the source directory; each
     committed operation is then sent through the router. *)
  let committed = Queue.create () in
  Backend.subscribe backend (fun r -> Queue.add r.Update.op committed);
  {
    net;
    router;
    replica;
    medium;
    branch = Branch.register net ~name:"branch" ~master_host:"hq" replica;
    stream = D.Update_stream.create ent { D.Update_stream.default_config with seed = seed + 2 };
    committed;
    queries =
      Array.map
        (fun (it : D.Workload.item) -> it.D.Workload.query)
        (Array.sub items train_len eval_len);
    next = 0;
    debt = 0.0;
    logs =
      backend :: List.init shards (fun i -> Shard.Shard_master.backend (Shard.Router.shard router i));
  }

let spans =
  [
    ("network.search", "network.search_self_pct");
    ("replica.answer", "replica.answer_pct");
    ("replica.sync", "replica.sync_pct");
    ("router.search", "router.search_pct");
    ("router.apply", "router.apply_pct");
    ("shard.serve", "shard.serve_pct");
  ]

let apply_span = span "router.apply"
let sync_span = span "replica.sync"

let write t ph =
  D.Update_stream.step t.stream;
  while not (Queue.is_empty t.committed) do
    let op = Queue.pop t.committed in
    let res, dt = timed ph (fun () -> apply_span (fun () -> Shard.Router.apply t.router op)) in
    ph.ops <- ph.ops + 1;
    Stats.Samples.add ph.writes (us_of_ns dt);
    List.iter
      (fun b ->
        if Backend.log_length b > 2 * log_keep then
          Backend.trim_log b ~before:(Csn.of_int (Csn.to_int (Backend.csn b) - log_keep)))
      t.logs;
    match res with
    | Ok _ -> ()
    | Error e ->
        ph.failed <- ph.failed + 1;
        log "sharded-mixed: write %s failed: %s" (Update.op_kind_name op) e
  done

let sync t ph = ignore (timed ph (fun () -> sync_span (fun () -> R.Filter_replica.sync t.replica)))

let run t ph ~deadline ~max_ops =
  let stats0 = Network.stats t.net in
  let rstats = R.Filter_replica.stats t.replica in
  let resyncs0 = rstats.R.Stats.resyncs and failures0 = rstats.R.Stats.sync_failures in
  let report0 = Shard.Router.report t.router in
  Branch.reset t.branch;
  let cmp0 = Branch.comparisons t.branch in
  let wal0 = wal_bytes t.medium in
  while now_ns () < deadline && ph.ops < max_ops do
    t.debt <- t.debt +. traffic.updates_per_query;
    while t.debt >= 1.0 do
      write t ph;
      t.debt <- t.debt -. 1.0
    done;
    if t.next > 0 && t.next mod traffic.queries_between_syncs = 0 then sync t ph;
    let q = t.queries.(t.next mod Array.length t.queries) in
    t.next <- t.next + 1;
    ignore (Branch.query t.branch t.net ph q)
  done;
  let stats1 = Network.stats t.net in
  let report1 = Shard.Router.report t.router in
  let reads = Stats.Samples.length ph.reads and writes = Stats.Samples.length ph.writes in
  let resyncs = rstats.R.Stats.resyncs - resyncs0 in
  let failures = rstats.R.Stats.sync_failures - failures0 in
  let escalations = report1.rp_escalations - report0.rp_escalations in
  ph.failed <- ph.failed + failures + escalations;
  let searches = report1.rp_searches - report0.rp_searches in
  let plan_hits = report1.rp_plan_hits - report0.rp_plan_hits in
  let plans = plan_hits + report1.rp_plan_misses - report0.rp_plan_misses in
  let per x n = float_of_int x /. float_of_int (max 1 n) in
  log "sharded-mixed: %d reads (%d hits), %d writes, geo pruning %b" reads ph.hits writes
    report1.rp_geo_pruning;
  [
    ("network.round_trips_per_query", per (stats1.round_trips - stats0.round_trips) reads);
    ("network.dropped_pdus", float_of_int (stats1.dropped_pdus - stats0.dropped_pdus));
    ("replica.comparisons_per_query", per (Branch.comparisons t.branch - cmp0) reads);
    ("replica.admit_pct", Branch.admit_pct t.branch ph);
    ("replica.scanned_per_returned", Branch.scanned_per_returned t.branch);
    ("replica.resyncs", float_of_int resyncs);
    ("replica.sync_failures", float_of_int failures);
    ( "router.shards_per_search",
      per (report1.rp_search_contacts - report0.rp_search_contacts) searches );
    ("router.plan_hit_ratio", per plan_hits plans);
    ("router.escalations", float_of_int escalations);
    ("store.wal_bytes_per_update", per (wal_bytes t.medium - wal0) writes);
  ]

(* After a final poll, every stored filter's content (entries with
   their attributes, not only DNs) equals what the router answers. *)
let finish t =
  R.Filter_replica.sync t.replica;
  let by_dn entries =
    List.sort (fun a b -> Dn.compare (Entry.dn a) (Entry.dn b)) entries
  in
  List.iter
    (fun q ->
      let held =
        match R.Filter_replica.consumer_for t.replica q with
        | Some c -> by_dn (Resync.Consumer.entries c)
        | None -> wrong "sharded-mixed: stored filter %s has no consumer" (Query.to_string q)
      in
      match Shard.Router.search t.router q with
      | Error e -> wrong "sharded-mixed: router search %s: %s" (Query.to_string q) e
      | Ok want ->
          let want = by_dn want in
          if List.compare_lengths held want <> 0 || not (List.for_all2 Entry.equal held want)
          then
            wrong "sharded-mixed: branch content for %s differs from the router's (%d vs %d entries)"
              (Query.to_string q) (List.length held) (List.length want))
    (R.Filter_replica.stored_filters t.replica)

let backends t =
  List.init shards (fun i -> Shard.Shard_master.backend (Shard.Router.shard t.router i))
