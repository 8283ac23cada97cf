open Ldap
module PI = Ldap_containment.Predicate_index

type dispatch = Routed | Naive

type 'a session = {
  id : int;
  query : Query.t;
  matcher : Content.matcher;
  mutable synced_csn : Csn.t;
  mutable push : Protocol.push_channel option;
  mutable last_active : int;
  state : 'a;
}

type 'a table = {
  schema : Schema.t;
  sessions : (int, 'a session) Hashtbl.t;
  persist : (int, 'a session) Hashtbl.t;
      (* sessions holding a push channel; every update must advance
         their synced CSN even when it yields no actions *)
  index : PI.t option;  (* [Routed] only *)
  mutable next_id : int;
  mutable clock : int;  (* protocol activity ticks *)
}

let create schema dispatch =
  {
    schema;
    sessions = Hashtbl.create 16;
    persist = Hashtbl.create 16;
    index =
      (match dispatch with
      | Routed -> Some (PI.create schema)
      | Naive -> None);
    next_id = 1;
    clock = 0;
  }

let find tbl id = Hashtbl.find_opt tbl.sessions id
let fold f tbl init = Hashtbl.fold (fun _ s acc -> f s acc) tbl.sessions init
let iter_persist f tbl = Hashtbl.iter (fun _ s -> f s) tbl.persist
let count tbl = Hashtbl.length tbl.sessions
let persistent_count tbl = Hashtbl.length tbl.persist
let clock tbl = tbl.clock
let next_id tbl = tbl.next_id

let restore tbl ~next_id ~clock =
  tbl.next_id <- next_id;
  tbl.clock <- clock

(* The [persist] table and the dispatch index shadow [sessions]; all
   membership changes go through [add], [set_persist] and
   [Make.remove]. *)
let add tbl ~id query ~csn ~last_active state =
  let s =
    {
      id;
      query;
      matcher = Content.matcher tbl.schema query;
      synced_csn = csn;
      push = None;
      last_active;
      state;
    }
  in
  Hashtbl.replace tbl.sessions id s;
  Option.iter (fun idx -> PI.add idx id query.Query.filter) tbl.index;
  if id >= tbl.next_id then tbl.next_id <- id + 1;
  s

let set_persist tbl s push =
  s.push <- push;
  match push with
  | Some _ -> Hashtbl.replace tbl.persist s.id s
  | None -> Hashtbl.remove tbl.persist s.id

(* --- Update dispatch ------------------------------------------------- *)

type affected = PI.candidates option

let affected tbl ~before ~after =
  Option.map (fun idx -> PI.affected idx ~before ~after) tbl.index

let is_affected affected id =
  match affected with
  | None -> true
  | Some c -> PI.mem c id

let iter_affected f tbl = function
  | None -> Hashtbl.iter (fun _ s -> f s) tbl.sessions
  | Some c -> PI.iter (fun id -> Option.iter f (Hashtbl.find_opt tbl.sessions id)) c

(* Transmitted entries honour the session query's attribute selection,
   exactly like search results do. *)
let select_action (q : Query.t) = function
  | Action.Add e -> Action.Add (Entry.select e (Query.attr_list q.Query.attrs))
  | Action.Modify e -> Action.Modify (Entry.select e (Query.attr_list q.Query.attrs))
  | (Action.Delete _ | Action.Retain _) as a -> a

let actions_for s ~before ~after =
  List.map (select_action s.query)
    (Content.actions_of_transition (Content.classify_m s.matcher ~before ~after))

(* --- Replies --------------------------------------------------------- *)

(* An entry without a usable modifyTimestamp is conservatively taken
   as changed. *)
let modified_since since e =
  match Entry.get e "modifytimestamp" with
  | [ ts ] -> (
      match int_of_string_opt ts with
      | Some c -> Csn.( < ) since (Csn.of_int c)
      | None -> true)
  | _ -> true

let degraded_actions ~since members =
  List.map
    (fun e -> if modified_since since e then Action.Add e else Action.Retain (Entry.dn e))
    members

(* Poll replies carry the resume cookie; persist replies carry the
   same cookie as a reconnection handle — if the connection breaks,
   presenting it tells the server which CSN the consumer last
   acknowledged, so reconnection can resume (or degrade) instead of
   reloading. *)
let cookie s ~mode =
  match mode with
  | Protocol.Poll | Protocol.Persist ->
      Some (Protocol.cookie_of ~id:s.id ~csn:s.synced_csn)
  | Protocol.Sync_end -> None

module type SOURCE = sig
  type t
  type state
  type admit

  val table : t -> state table
  val admit : t -> Query.t -> (admit, string) result
  val start : t -> admit -> id:int -> Query.t -> state * Csn.t
  val stop : t -> state session -> unit
  val content : t -> admit -> Query.t -> Entry.t list
  val sent : t -> state session -> Entry.t list Lazy.t -> unit
  val incremental : t -> state session -> Protocol.reply_kind * Action.t list
  val advance : t -> state session -> incremental:bool -> unit
end

module Make (S : SOURCE) = struct
  let open_session env admit query ~push =
    let tbl = S.table env in
    (* Session id 0 is the reserved foreign-session marker
       ({!Protocol.reparent_cookie}); no server may allocate it, even
       if [next_id] wraps around. *)
    if tbl.next_id = 0 then tbl.next_id <- 1;
    let id = tbl.next_id in
    let state, csn = S.start env admit ~id query in
    let s = add tbl ~id query ~csn ~last_active:tbl.clock state in
    set_persist tbl s push;
    s

  let remove env id =
    let tbl = S.table env in
    match Hashtbl.find_opt tbl.sessions id with
    | Some s ->
        S.stop env s;
        Hashtbl.remove tbl.sessions id;
        Hashtbl.remove tbl.persist id;
        Option.iter (fun idx -> PI.remove idx id) tbl.index
    | None -> ()

  let full_reply env admit query ~kind ~actions_of ~mode ~push =
    let s = open_session env admit query ~push in
    let members = S.content env admit query in
    S.sent env s (Lazy.from_val members);
    let actions = actions_of members in
    S.advance env s ~incremental:false;
    { Protocol.kind; actions; cookie = cookie s ~mode }

  let initial env admit query =
    full_reply env admit query ~kind:Protocol.Initial_content
      ~actions_of:(List.map (fun e -> Action.Add e))

  (* Degraded mode, eq. (3): full entries for members changed since the
     cookie's CSN, [retain] for the rest; the consumer prunes
     everything not mentioned. *)
  let degraded env admit query ~since =
    full_reply env admit query ~kind:Protocol.Degraded
      ~actions_of:(degraded_actions ~since)

  let resume env s ~mode =
    let kind, actions = S.incremental env s in
    S.advance env s ~incremental:true;
    { Protocol.kind; actions; cookie = cookie s ~mode }

  let handle env ?push (request : Protocol.request) query =
    let tbl = S.table env in
    tbl.clock <- tbl.clock + 1;
    let mode = request.Protocol.mode in
    match mode with
    | Protocol.Sync_end -> (
        match request.cookie with
        | None -> Error "sync_end requires a cookie"
        | Some c -> (
            match Protocol.parse_cookie c with
            | None -> Error "malformed cookie"
            | Some (id, _) ->
                remove env id;
                Ok { Protocol.kind = Protocol.Incremental; actions = []; cookie = None }))
    | Protocol.Poll | Protocol.Persist -> (
        if mode = Protocol.Persist && Option.is_none push then
          Error "persist mode requires a push channel"
        else
          let push = if mode = Protocol.Persist then push else None in
          match S.admit env query with
          | Error _ as e -> e
          | Ok admit -> (
              match request.cookie with
              | None -> Ok (initial env admit query ~mode ~push)
              | Some c -> (
                  match Protocol.parse_cookie c with
                  | None -> Error "malformed cookie"
                  | Some (id, csn) -> (
                      match Hashtbl.find_opt tbl.sessions id with
                      | Some s
                        when Query.equal s.query query && Csn.equal csn s.synced_csn ->
                          s.last_active <- tbl.clock;
                          set_persist tbl s push;
                          Ok (resume env s ~mode)
                      | Some s when Query.equal s.query query ->
                          (* The consumer acknowledges a CSN other than
                             the one this session advanced to: a reply
                             (or a run of pushed actions) never arrived.
                             Whatever the session remembers about that
                             interval describes sent-not-received state,
                             so resuming from it would silently diverge —
                             resynchronize degraded from the CSN the
                             consumer actually holds. *)
                          remove env s.id;
                          Ok (degraded env admit query ~since:csn ~mode ~push)
                      | Some _ | None ->
                          (* Unknown or mismatched session — including
                             the reserved foreign id 0 a re-parented
                             consumer presents: degraded mode from the
                             cookie's CSN. *)
                          Ok (degraded env admit query ~since:csn ~mode ~push)))))

  let abandon env ~cookie =
    match Protocol.parse_cookie cookie with
    | Some (id, _) -> remove env id
    | None -> ()

  (* Merkle walk steps are answered from the content the admitted
     source holds for the query, the tree rebuilt per request.  A
     [Fetch] mints a session whose sent state is the content being
     shipped, so the consumer that installs it resumes incremental
     polling from there. *)
  let antientropy_serve env request query =
    match S.admit env query with
    | Error _ as e -> e
    | Ok admit ->
        let content () = S.content env admit query in
        Ok
          (Ldap_antientropy.Exchange.serve
             ~content:(fun () -> List.to_seq (content ()))
             ~cookie:(fun () ->
               let s = open_session env admit query ~push:None in
               S.sent env s (lazy (content ()));
               cookie s ~mode:Protocol.Poll)
             request)
end
