open Ldap
module Resync = Ldap_resync
module R = Ldap_replication

module Session_server = Resync.Session_server

(* A downstream session tracks what it has sent as a cursor over the
   stored consumer's content-store change spine plus a table of sent
   image hashes — never a full entry-map snapshot.  Serving a poll
   walks only the DNs mutated since [spine_pos] (O(diff)); the hash
   table arbitrates Add vs Modify vs no-op per changed DN and costs
   one DN string and a hash per member instead of the entries
   themselves. *)
type state = {
  stored : Query.t;  (* the node's stored query this session is served from *)
  mutable seen : (string, Dn.t * int64) Hashtbl.t;
      (* canonical DN -> (DN, content hash of the sent selected image) *)
  mutable spine_pos : int;  (* store revision this session has consumed *)
}

type session = state Session_server.session

type t = {
  replica : R.Filter_replica.t;
  host : string;
  sessions : state Session_server.table;
  (* Serving cost counters, the O(diff) evidence the scale sweep
     gates on. *)
  mutable inc_polls : int;  (* incremental polls served *)
  mutable inc_scanned : int;  (* DNs/entries examined serving them *)
  mutable inc_rescans : int;  (* cursor fell off the spine: full diff *)
}

let replica t = t.replica
let host t = t.host
let upstream t = R.Filter_replica.master_host t.replica
let schema t = R.Filter_replica.schema t.replica
let stats t = R.Filter_replica.stats t.replica
let session_count t = Session_server.count t.sessions
let persistent_count t = Session_server.persistent_count t.sessions

(* --- Referral envelope ----------------------------------------------
   A subscription the node cannot prove contained is rejected with the
   LDAP URL of its own upstream; the subscriber chases it one tier up,
   like a search referral (Figure 2). *)

let referral_prefix = "referral:"

let referral_error url = referral_prefix ^ url

let referral_of_error msg =
  let n = String.length referral_prefix in
  if String.length msg > n && String.sub msg 0 n = referral_prefix then
    Some (String.sub msg n (String.length msg - n))
  else None

(* --- Content source --------------------------------------------------- *)

let store_for t stored =
  Option.map Resync.Consumer.content
    (R.Filter_replica.consumer_for t.replica stored)

let store_rev t stored =
  match store_for t stored with Some st -> Content_store.rev st | None -> 0

(* The node's own synchronization point for a stored query: the CSN of
   the cookie its upstream consumer holds.  All CSNs originate at the
   root backend, so this is directly comparable to whatever any
   downstream cookie carries. *)
let node_csn t stored =
  match R.Filter_replica.consumer_for t.replica stored with
  | Some c -> Option.value ~default:Csn.zero (Resync.Consumer.acked_csn c)
  | None -> Csn.zero

let stored_content t stored query =
  match R.Filter_replica.consumer_for t.replica stored with
  | Some c ->
      R.Replica.eval_over_entries (schema t) query (Resync.Consumer.entries_seq c)
  | None -> []

(* Entries are already selected when hashed, so the hash identifies
   the image as sent downstream, not the stored one. *)
let note_sent (session : session) e =
  Hashtbl.replace session.state.seen
    (Dn.canonical (Entry.dn e))
    (Entry.dn e, Entry.content_hash64 e)

let reset_seen (session : session) entries =
  session.state.seen <- Hashtbl.create (max 64 (2 * List.length entries));
  List.iter (note_sent session) entries

(* Incremental replies stream the stored consumer's change spine from
   the session's cursor: only the DNs mutated since its last poll are
   examined, the [seen] hash table resolving each to Add / Modify /
   Delete / no-op — the node keeps no per-session action history and
   no per-session content copy, the replica's store {e is} the
   history.  A cursor that fell off the trimmed spine rebuilds by one
   full diff against the hash table and resumes streaming.  Deletes
   first, like the master's coalescer. *)
let incremental_from_spine t (session : session) changed =
  let select = Query.attr_list session.query.Query.attrs in
  let st = store_for t session.state.stored in
  let seen = session.state.seen in
  let deletes = ref [] and upserts = ref [] in
  List.iter
    (fun dn ->
      t.inc_scanned <- t.inc_scanned + 1;
      let key = Dn.canonical dn in
      let now =
        match st with
        | Some st -> (
            match Content_store.find st dn with
            | Some e when Resync.Content.matches session.matcher e ->
                Some (Entry.select e select)
            | Some _ | None -> None)
        | None -> None
      in
      match (now, Hashtbl.find_opt seen key) with
      | Some img, Some (_, h0) ->
          if not (Int64.equal (Entry.content_hash64 img) h0) then begin
            note_sent session img;
            upserts := Resync.Action.Modify img :: !upserts
          end
      | Some img, None ->
          note_sent session img;
          upserts := Resync.Action.Add img :: !upserts
      | None, Some (dn0, _) ->
          Hashtbl.remove seen key;
          deletes := Resync.Action.Delete dn0 :: !deletes
      | None, None -> ())
    changed;
  List.rev !deletes @ List.rev !upserts

let incremental_by_rescan t (session : session) =
  t.inc_rescans <- t.inc_rescans + 1;
  let current = stored_content t session.state.stored session.query in
  let fresh = Hashtbl.create (max 64 (2 * List.length current)) in
  let upserts =
    List.filter_map
      (fun e ->
        t.inc_scanned <- t.inc_scanned + 1;
        let key = Dn.canonical (Entry.dn e) in
        let h = Entry.content_hash64 e in
        let action =
          match Hashtbl.find_opt session.state.seen key with
          | Some (_, h0) when Int64.equal h h0 -> None
          | Some _ -> Some (Resync.Action.Modify e)
          | None -> Some (Resync.Action.Add e)
        in
        Hashtbl.replace fresh key (Entry.dn e, h);
        action)
      current
  in
  let deletes =
    Hashtbl.fold
      (fun key (dn, _) acc ->
        t.inc_scanned <- t.inc_scanned + 1;
        if Hashtbl.mem fresh key then acc else Resync.Action.Delete dn :: acc)
      session.state.seen []
  in
  session.state.seen <- fresh;
  deletes @ upserts

let incremental_actions t (session : session) =
  t.inc_polls <- t.inc_polls + 1;
  let stored = session.state.stored in
  let pos = session.state.spine_pos in
  session.state.spine_pos <- store_rev t stored;
  let actions =
    match store_for t stored with
    | None -> incremental_by_rescan t session
    | Some st -> (
        match Content_store.changes_since st pos with
        | Some changed -> incremental_from_spine t session changed
        | None -> incremental_by_rescan t session)
  in
  (Resync.Protocol.Incremental, actions)

(* A downstream subscription is admitted iff it is provably contained
   in a stored query; otherwise the subscriber is referred to this
   node's own upstream.  A session's cursor is pinned when it opens,
   before its content is read: changes racing the read are re-examined
   on the next poll instead of falling between snapshot and cursor. *)
module Srv = Session_server.Make (struct
  type nonrec t = t
  type nonrec state = state
  type admit = Query.t

  let table t = t.sessions

  let admit t query =
    match R.Filter_replica.containing_consumer t.replica query with
    | Some (stored, _) -> Ok stored
    | None -> Error (referral_error (Referral.make ~host:(upstream t) ()))

  let start t stored ~id:_ _ =
    ({ stored; seen = Hashtbl.create 64; spine_pos = store_rev t stored }, node_csn t stored)

  let stop _ _ = ()
  let content = stored_content
  let sent _ session entries = reset_seen session (Lazy.force entries)
  let incremental = incremental_actions

  let advance t (session : session) ~incremental:_ =
    session.synced_csn <- node_csn t session.state.stored
end)

(* --- Serving -------------------------------------------------------- *)

let handle t ?push request query =
  let reply = Srv.handle t ?push request query in
  (* Served traffic counts poll and persist replies; a sync_end
     acknowledgement carries no content. *)
  if request.Resync.Protocol.mode <> Resync.Protocol.Sync_end then
    Result.iter (R.Stats.record_served_reply (stats t)) reply;
  reply

let abandon = Srv.abandon

(* Anti-entropy cascades tier-by-tier: a leaf repairs against its node
   while the node independently repairs against its parent. *)
let antientropy_serve = Srv.antientropy_serve

let estimate t query =
  match R.Filter_replica.containing_consumer t.replica query with
  | Some (_, c) ->
      List.length
        (R.Replica.eval_over_entries (schema t) query
           (Resync.Consumer.entries_seq c))
  | None -> 0

(* --- Persist relay --------------------------------------------------
   The replica's change observer: one upstream-applied content change,
   relayed to the persistent downstream sessions served from the same
   stored query.  With [Routed] dispatch only the sessions whose filter
   anchors the predicate index reports are classified exactly; the rest
   see [Stays_out] by the index's superset guarantee.  Either way every
   persist session of the stored query acknowledges the node's CSN and
   advances its spine cursor — the pushed actions carry everything the
   spine recorded (other stored queries advance independently — their
   own consumers define their synchronization point). *)
let relay t ~stored ~before ~after =
  if Session_server.persistent_count t.sessions > 0 then begin
    let csn = node_csn t stored in
    let rev = store_rev t stored in
    let affected = Session_server.affected t.sessions ~before ~after in
    let dead = ref [] in
    Session_server.iter_persist
      (fun (session : session) ->
        if Query.equal session.state.stored stored then begin
          (if Session_server.is_affected affected session.id then
             let alive = ref true in
             List.iter
               (fun a ->
                 (match a with
                 | Resync.Action.Add e | Resync.Action.Modify e ->
                     note_sent session e
                 | Resync.Action.Delete dn ->
                     Hashtbl.remove session.state.seen (Dn.canonical dn)
                 | Resync.Action.Retain _ -> ());
                 (match session.push with
                 | Some ch when !alive -> (
                     match ch.Resync.Protocol.pc_send a with
                     | Resync.Protocol.Push_ok -> ()
                     | Resync.Protocol.Push_stalled | Resync.Protocol.Push_gone ->
                         (* An intermediate node keeps no outbound
                            queue of its own: a downstream that stopped
                            draining (or reset) is cut here and resyncs
                            degraded when it reconnects.  Bounded
                            buffering lives at the root master. *)
                         alive := false;
                         ch.Resync.Protocol.pc_close ();
                         dead := session.id :: !dead)
                 | Some _ | None -> ());
                 R.Stats.record_served_push (stats t) a)
               (Session_server.actions_for session ~before ~after));
          session.synced_csn <- csn;
          session.state.spine_pos <- rev
        end)
      t.sessions;
    List.iter (Srv.remove t) !dead
  end

(* --- Scale reporting ------------------------------------------------- *)

let cursor_stats t = (t.inc_polls, t.inc_scanned, t.inc_rescans)

let cursor_depths t =
  Session_server.fold
    (fun (s : session) acc -> (store_rev t s.state.stored - s.state.spine_pos) :: acc)
    t.sessions []

let seen_residency t =
  Session_server.fold (fun (s : session) acc -> acc + Hashtbl.length s.state.seen) t.sessions 0

(* --- Construction --------------------------------------------------- *)

let endpoint t =
  {
    Resync.Transport.ep_schema = schema t;
    ep_handle = (fun ~push req q -> handle t ?push req q);
    ep_abandon = (fun ~cookie -> abandon t ~cookie);
    ep_estimate = (fun q -> estimate t q);
    ep_tree = (fun request q -> antientropy_serve t request q);
  }

let create ?(cache_capacity = 0) ?(dispatch = Resync.Master.Routed) transport
    ~host ~upstream =
  let replica =
    R.Filter_replica.create_over ~cache_capacity ~host transport
      ~master_host:upstream
  in
  let t =
    {
      replica;
      host;
      sessions = Session_server.create (R.Filter_replica.schema replica) dispatch;
      inc_polls = 0;
      inc_scanned = 0;
      inc_rescans = 0;
    }
  in
  R.Filter_replica.set_on_change replica (fun ~stored ~before ~after ->
      relay t ~stored ~before ~after);
  Resync.Transport.add_endpoint transport ~name:host (endpoint t);
  t

let install_cover t q = R.Filter_replica.install_filter t.replica q
let covers t = R.Filter_replica.stored_filters t.replica
let sync t = R.Filter_replica.sync t.replica
let sync_async t k = R.Filter_replica.sync_async t.replica k
let retarget t ~upstream = R.Filter_replica.retarget t.replica ~master_host:upstream
