(* The branch replica's search handler, shared by the workloads that
   send queries to a branch.

   The handler is Replica_server's own, inside the replica.answer span.
   While tracing, each query is followed by an admission probe outside
   the timed interval: a second call to
   Filter_replica.containing_consumer, timed on its own, which also
   gives the stored entries a hit walks. *)

open Ldap
open Harness
module R = Ldap_replication
module Resync = Ldap_resync

(* Counted by the admission probe, that is while tracing only: stored
   entries walked and entries returned by hits, the probe's own
   containment comparisons (subtracted from the replica's count) and
   its wall time. *)
type t = {
  replica : R.Filter_replica.t;
  mutable scanned : int;
  mutable returned : int;
  mutable probe_comparisons : int;
  mutable admit_ns : int;
}

let register net ~name ~master_host replica =
  let rs = R.Replica_server.of_filter_replica ~master_host replica in
  let answer_span = span "replica.answer" in
  Network.add_handler net ~name (fun q ->
      answer_span (fun () -> R.Replica_server.handle_search rs q));
  { replica; scanned = 0; returned = 0; probe_comparisons = 0; admit_ns = 0 }

let reset t =
  t.scanned <- 0;
  t.returned <- 0;
  t.probe_comparisons <- 0;
  t.admit_ns <- 0

let scanned_per_returned t = float_of_int t.scanned /. float_of_int (max 1 t.returned)

(* Containment comparisons the program made, without the probe's. *)
let comparisons t = R.Filter_replica.comparisons t.replica - t.probe_comparisons

(* The probe's admission time as a share of a phase's busy wall.  It
   is part of replica.answer_pct, not in addition to it. *)
let admit_pct t ph = 100.0 *. float_of_int t.admit_ns /. float_of_int (max 1 ph.busy_ns)

let probe t q answer =
  let c0 = R.Filter_replica.comparisons t.replica in
  let t0 = now_ns () in
  let found = R.Filter_replica.containing_consumer t.replica q in
  t.admit_ns <- t.admit_ns + (now_ns () - t0);
  t.probe_comparisons <- t.probe_comparisons + (R.Filter_replica.comparisons t.replica - c0);
  match (found, answer) with
  | Some (_, c), Some entries ->
      t.scanned <- t.scanned + Resync.Consumer.size c;
      t.returned <- t.returned + List.length entries
  | _ -> ()

let search_span = span "network.search"

(* One client query sent to the branch, with referral chasing, timed
   into the phase; a query answered in one round trip is a hit. *)
let query t net ph q =
  let rt0 = (Network.stats net).Network.round_trips in
  let res, dt =
    timed ph (fun () -> search_span (fun () -> Network.search net ~from:"branch" q))
  in
  ph.ops <- ph.ops + 1;
  Stats.Samples.add ph.reads (us_of_ns dt);
  let hit = (Network.stats net).Network.round_trips - rt0 = 1 in
  if hit then ph.hits <- ph.hits + 1;
  let answer =
    match res with
    | Ok entries -> Some entries
    | Error e ->
        ph.failed <- ph.failed + 1;
        log "query %s failed: %s" (Query.to_string q) e;
        None
  in
  if Span.enabled tracer then probe t q (if hit then answer else None);
  answer

let dn_set entries =
  List.sort_uniq String.compare (List.map (fun e -> Dn.canonical (Entry.dn e)) entries)

(* The table 1 generalization rules the branch's filters are selected
   with: serial blocks and department regions. *)
let rules =
  [
    Ldap_selection.Generalize.Prefix_value { attr = "serialnumber"; keep = 6 };
    Ldap_selection.Generalize.Widen_to_presence { attr = "departmentnumber" };
    Ldap_selection.Generalize.Prefix_value { attr = "departmentnumber"; keep = 2 };
  ]
