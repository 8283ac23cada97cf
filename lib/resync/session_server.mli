(** The serving side of ReSync (section 5.2), shared by every tier that
    keeps sessions: the root {!Master} and the intermediate nodes of a
    cascading topology.

    A server owns one session table — sessions by id, the persist
    sessions holding a push channel, the id allocator and the
    [Routed]/[Naive] update-dispatch index — and one request state
    machine over it:

    - [Sync_end] removes the session its cookie names; without a cookie
      it is rejected ["sync_end requires a cookie"].
    - [Persist] without a push channel is rejected.
    - A query the source does not admit is rejected with the source's
      error (an intermediate node's referral).
    - No cookie: a new session and its initial content.
    - A cookie naming a live session with the same query and the CSN
      that session advanced to: an incremental reply.
    - The same query with any other CSN: a reply or push was lost after
      the server recorded it as delivered, so the session is dropped
      and the consumer resynchronizes degraded (eq. (3)) from the CSN
      its cookie acknowledges.
    - An unknown id — including the reserved foreign id 0 of
      {!Protocol.reparent_cookie} — or a different query: degraded from
      the cookie's CSN.
    - A malformed cookie is rejected ["malformed cookie"].

    What differs between tiers is only where content and history come
    from, supplied as a {!SOURCE}: the master serves its backend and
    its history strategy, a node serves its replica content through
    spine cursors.  A session's source-specific state sits in its
    [state] field, so the shared code never branches on which side it
    serves. *)

open Ldap

type dispatch =
  | Routed
      (** Committed updates are routed through a
          {!Ldap_containment.Predicate_index} built over the live
          sessions' filters: only the sessions whose filter anchors are
          hit by the update's before/after images are classified, plus
          a fallback set for unanchorable filters.  Per-update cost is
          proportional to the affected sessions, not the session count.
          Observably equivalent to [Naive]. *)
  | Naive
      (** Every committed update is classified against every live
          session — the baseline linear fan-out, kept for comparison
          and for the equivalence tests. *)

type 'a session = {
  id : int;
  query : Query.t;
  matcher : Content.matcher;  (** The query compiled once, reused per update. *)
  mutable synced_csn : Csn.t;  (** The CSN the session has been served up to. *)
  mutable push : Protocol.push_channel option;  (** Set for persist sessions. *)
  mutable last_active : int;  (** {!clock} at the session's last request. *)
  state : 'a;  (** What the content source keeps per session. *)
}

type 'a table
(** Sessions carrying source state ['a]. *)

val create : Schema.t -> dispatch -> 'a table
(** An empty table; session ids start at 1. *)

val find : 'a table -> int -> 'a session option
(** The live session with the id. *)

val fold : ('a session -> 'b -> 'b) -> 'a table -> 'b -> 'b
(** Folds over every live session. *)

val iter_persist : ('a session -> unit) -> 'a table -> unit
(** Iterates over the sessions holding a push channel. *)

val count : 'a table -> int
(** Live sessions. *)

val persistent_count : 'a table -> int
(** Live sessions holding a push channel. *)

val clock : 'a table -> int
(** Requests handled so far — the activity clock idle expiry uses. *)

val next_id : 'a table -> int
(** The id the next session will get (modulo the reserved 0). *)

val restore : 'a table -> next_id:int -> clock:int -> unit
(** Reinstates a recovered allocator and clock. *)

val add :
  'a table -> id:int -> Query.t -> csn:Csn.t -> last_active:int -> 'a -> 'a session
(** Registers a session under a known id without a push channel — how
    recovery rebuilds a journaled table.  The allocator moves past
    [id]. *)

(** {1 Update dispatch} *)

type affected
(** The sessions a committed update may change. *)

val affected :
  'a table -> before:Entry.t option -> after:Entry.t option -> affected
(** Every session under [Naive]; the predicate index's candidates under
    [Routed].  Sessions outside the set see no content change. *)

val is_affected : affected -> int -> bool
(** Whether the session id is in the set. *)

val iter_affected : ('a session -> unit) -> 'a table -> affected -> unit
(** Iterates over the live sessions in the set. *)

val actions_for :
  'a session -> before:Entry.t option -> after:Entry.t option -> Action.t list
(** The session's actions for one update's pre/post images, with the
    query's attribute selection applied. *)

val select_action : Query.t -> Action.t -> Action.t
(** Applies the query's attribute selection to a transmitted entry. *)

(** {1 Replies} *)

val modified_since : Csn.t -> Entry.t -> bool
(** Whether the entry's modifyTimestamp is past the CSN; an entry
    without a usable one counts as modified. *)

val degraded_actions : since:Csn.t -> Entry.t list -> Action.t list
(** Eq. (3) over the current members: [add] for members
    {!modified_since} [since], [retain] for the rest. *)

(** {1 Serving} *)

(** A content source: the serving side's own state and the hooks the
    state machine calls. *)
module type SOURCE = sig
  type t
  (** The serving side. *)

  type state
  (** Per-session source state. *)

  type admit
  (** What admitting a query yields, handed to {!start} and
      {!content}. *)

  val table : t -> state table
  (** The serving side's session table. *)

  val admit : t -> Query.t -> (admit, string) result
  (** Whether this side can serve the query; the error is the reply. *)

  val start : t -> admit -> id:int -> Query.t -> state * Csn.t
  (** State and starting CSN of the session [id] being opened for the
      query; a durable source journals the opening here. *)

  val stop : t -> state session -> unit
  (** The session is being removed. *)

  val content : t -> admit -> Query.t -> Entry.t list
  (** The admitted query's current content, attribute selection
      applied. *)

  val sent : t -> state session -> Entry.t list Lazy.t -> unit
  (** The session was just sent this whole content (initial, degraded
      or anti-entropy fetch); forced only by sources that track it. *)

  val incremental : t -> state session -> Protocol.reply_kind * Action.t list
  (** The actions bringing a resumed session from its [synced_csn] to
      now, and the reply kind they form. *)

  val advance : t -> state session -> incremental:bool -> unit
  (** Moves the session's [synced_csn] to the source's current point
      after a reply; [incremental] tells an {!incremental} reply from a
      full one. *)
end

module Make (S : SOURCE) : sig
  val handle :
    S.t ->
    ?push:Protocol.push_channel ->
    Protocol.request ->
    Query.t ->
    (Protocol.reply, string) result
  (** Runs the request state machine described above. *)

  val remove : S.t -> int -> unit
  (** Removes a session ({!SOURCE.stop} runs first); unknown ids are
      ignored. *)

  val abandon : S.t -> cookie:string -> unit
  (** Removes the session a cookie names, like a [Sync_end]. *)

  val antientropy_serve :
    S.t ->
    Ldap_antientropy.Exchange.request ->
    Query.t ->
    (Ldap_antientropy.Exchange.reply, string) result
  (** Answers one Merkle walk step over the admitted query's content.
      A [Fetch] mints a session at the source's current point and
      ships its cookie, so the reconciled consumer resumes
      incrementally. *)
end
