(* branch-read: the paper's case study.  A branch filter replica in
   front of the enterprise master [hq]; one closed-loop client sends
   Table 1 root-based queries to the branch through Network.search and
   chases every miss to hq.  No writes. *)

open Ldap
open Harness
module D = Ldap_dirgen
module R = Ldap_replication
module Resync = Ldap_resync

let employees = 100_000
let train_len = 20_000
let eval_len = 40_000

(* The branch's size budget, as a share of the directory's employees,
   filled by benefit/size over the generalizations of the training
   prefix (section 6 of the paper). *)
let budget_share = 0.10

type t = {
  backend : Backend.t;
  net : Network.t;
  branch : Branch.t;
  queries : Query.t array;
  mutable next : int;
}

let setup ~seed =
  let ent = D.Enterprise.build { D.Enterprise.default_config with seed; employees } in
  let backend = D.Enterprise.backend ent in
  let items =
    D.Workload.generate ent
      { D.Workload.default_config with seed = seed + 1; length = train_len + eval_len }
  in
  let master = Resync.Master.create backend in
  let filters =
    Ldap_eval.Scenario.select_static
      { Ldap_eval.Scenario.enterprise = ent; master }
      ~rules:Branch.rules
      ~train:(Array.sub items 0 train_len)
      ~budget:(int_of_float (budget_share *. float_of_int employees))
  in
  let net = Network.create () in
  let transport = Resync.Transport.create net in
  Resync.Transport.add_master transport ~name:"hq" master;
  let replica = R.Filter_replica.create_over transport ~host:"branch" ~master_host:"hq" in
  must "branch install" (Ldap_selection.Selector.install_static replica filters);
  let hq = Server.create ~name:"hq" backend in
  let search_span = span "backend.search" in
  Network.add_handler net ~name:"hq" (fun q -> search_span (fun () -> Server.handle_search hq q));
  {
    backend;
    net;
    branch = Branch.register net ~name:"branch" ~master_host:"hq" replica;
    queries =
      Array.map
        (fun (it : D.Workload.item) -> it.D.Workload.query)
        (Array.sub items train_len eval_len);
    next = 0;
  }

let spans =
  [
    ("network.search", "network.search_self_pct");
    ("replica.answer", "replica.answer_pct");
    ("backend.search", "backend.search_pct");
  ]

(* Queries whose memory footprint peak_rss_mb reports. *)
let memory_ops = 50_000

let run t ph ~deadline ~max_ops =
  let stats0 = Network.stats t.net in
  Branch.reset t.branch;
  let cmp0 = Branch.comparisons t.branch in
  while now_ns () < deadline && ph.ops < max_ops do
    let q = t.queries.(t.next mod Array.length t.queries) in
    t.next <- t.next + 1;
    match Branch.query t.branch t.net ph q with
    | None -> ()
    | Some entries ->
        (* Every answer against hq's own evaluation, outside the timed
           interval. *)
        let want =
          match Backend.search t.backend q with
          | Ok { Backend.entries; _ } -> entries
          | Error _ -> []
        in
        if Branch.dn_set entries <> Branch.dn_set want then
          wrong "branch-read: %s answered %d entries, hq holds %d" (Query.to_string q)
            (List.length entries) (List.length want)
  done;
  let stats1 = Network.stats t.net in
  let per_op x = float_of_int x /. float_of_int (max 1 ph.ops) in
  [
    ("network.round_trips_per_query", per_op (stats1.round_trips - stats0.round_trips));
    ("network.dropped_pdus", float_of_int (stats1.dropped_pdus - stats0.dropped_pdus));
    ("replica.comparisons_per_query", per_op (Branch.comparisons t.branch - cmp0));
    ("replica.admit_pct", Branch.admit_pct t.branch ph);
    ("replica.scanned_per_returned", Branch.scanned_per_returned t.branch);
  ]

let finish _ = ()
let backends t = [ t.backend ]
