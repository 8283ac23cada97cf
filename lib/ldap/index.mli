(** Equality/prefix indexes over entry attributes.

    Maps a normalized attribute value to the set of DNs carrying it.
    Because values are kept in an ordered map, prefix assertions
    ([serialNumber=24*]) are answered with a range scan — the access
    path that makes the paper's generalized prefix filters cheap to
    materialize.  Posting sizes are not stored: a planner that needs
    one counts the posting lazily, only as far as it must. *)

type t

val create : Schema.t -> attrs:string list -> t
(** Index the listed attributes (case-insensitive). *)

val indexed_attrs : t -> string list
(** The indexed attribute names, lowercased, in no particular order. *)

val is_indexed : t -> string -> bool
(** Whether the attribute (case-insensitive) has an index. *)

val insert : t -> Entry.t -> unit
(** Register all indexed values of the entry under its DN. *)

val remove : t -> Entry.t -> unit
(** Unregister all indexed values of the entry from its DN; a value
    left with no DN is dropped from the index. *)

val lookup_eq : t -> attr:string -> string -> Dn.Set.t
(** DNs with the given value (normalized per the attribute syntax);
    empty when the attribute is not indexed. *)

val prefix_postings : t -> attr:string -> string -> Dn.Set.t Seq.t
(** The postings of every value starting with the given prefix, in
    value order, produced lazily by a range scan: a consumer that stops
    early pays only for the postings it read.  A DN carrying two such
    values appears in both postings. *)

val lookup_prefix : t -> attr:string -> string -> Dn.Set.t
(** DNs whose value starts with the given prefix: the union of
    {!prefix_postings}. *)

val cardinality : t -> attr:string -> int
(** Number of distinct values indexed for the attribute. *)
