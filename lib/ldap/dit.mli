(** One naming context: a subtree of entries rooted at a suffix
    (section 2.3).

    The tree is a persistent (functional) structure; updates return a
    new tree.  Referral objects are ordinary entries as far as the tree
    is concerned — {!Backend} gives them their protocol meaning. *)

type t

type error =
  | No_such_object of Dn.t
  | Already_exists of Dn.t
  | Not_a_leaf of Dn.t
  | No_such_parent of Dn.t
  | Not_in_context of Dn.t

val error_to_string : error -> string

val create : Entry.t -> t
(** A context containing just its suffix entry. *)

val suffix : t -> Dn.t
val size : t -> int
(** Number of entries, including the suffix entry. *)

val contains_dn : t -> Dn.t -> bool
(** Whether the DN falls under (or equals) the suffix — a namespace
    test, not an existence test. *)

val find : t -> Dn.t -> Entry.t option
val add : t -> Entry.t -> (t, error) result
(** The parent entry must already exist. *)

val replace : t -> Entry.t -> (t, error) result
(** Replaces the entry at [Entry.dn e]; the subtree below is kept. *)

val delete : t -> Dn.t -> (t, error) result
(** The entry must be a leaf; deleting the suffix entry is allowed only
    when it has no children. *)

val children : t -> Dn.t -> Entry.t list
(** Immediate children, or [[]] when the DN does not exist. *)

val has_children : t -> Dn.t -> bool
(** Whether the entry at the DN has a child: O(depth), with no list
    built.  [false] when the DN does not exist. *)

val fold_subtree : t -> Dn.t -> init:'a -> f:('a -> Entry.t -> 'a) -> 'a
(** Folds over the entry at the DN and its whole subtree (depth-first,
    parent before children).  Identity when the DN does not exist. *)

val fold : t -> init:'a -> f:('a -> Entry.t -> 'a) -> 'a
(** Folds over every entry in the context. *)

val iter : t -> f:(Entry.t -> unit) -> unit
