module Vmap = Map.Make (String)

type t = {
  schema : Schema.t;
  tables : (string, Dn.Set.t Vmap.t ref) Hashtbl.t;
}

let create schema ~attrs =
  let tables = Hashtbl.create 16 in
  List.iter
    (fun a -> Hashtbl.replace tables (String.lowercase_ascii a) (ref Vmap.empty))
    attrs;
  { schema; tables }

let indexed_attrs t = Hashtbl.fold (fun k _ acc -> k :: acc) t.tables []
let is_indexed t attr = Hashtbl.mem t.tables (String.lowercase_ascii attr)

let norm t attr v = Value.normalize (Schema.syntax_of t.schema attr) v

let update_entry t entry ~add =
  let dn = Entry.dn entry in
  Hashtbl.iter
    (fun attr table ->
      List.iter
        (fun v ->
          let key = norm t attr v in
          let existing = Option.value ~default:Dn.Set.empty (Vmap.find_opt key !table) in
          let updated =
            if add then Dn.Set.add dn existing else Dn.Set.remove dn existing
          in
          if Dn.Set.is_empty updated then table := Vmap.remove key !table
          else table := Vmap.add key updated !table)
        (Entry.get entry attr))
    t.tables

let insert t entry = update_entry t entry ~add:true
let remove t entry = update_entry t entry ~add:false

let lookup_eq t ~attr v =
  match Hashtbl.find_opt t.tables (String.lowercase_ascii attr) with
  | None -> Dn.Set.empty
  | Some table ->
      Option.value ~default:Dn.Set.empty (Vmap.find_opt (norm t attr v) !table)

let prefix_postings t ~attr prefix =
  match Hashtbl.find_opt t.tables (String.lowercase_ascii attr) with
  | None -> Seq.empty
  | Some table ->
      let prefix = norm t attr prefix in
      Seq.take_while
        (fun (key, _) -> String.starts_with ~prefix key)
        (Vmap.to_seq_from prefix !table)
      |> Seq.map snd

let lookup_prefix t ~attr prefix =
  Seq.fold_left Dn.Set.union Dn.Set.empty (prefix_postings t ~attr prefix)

let cardinality t ~attr =
  match Hashtbl.find_opt t.tables (String.lowercase_ascii attr) with
  | None -> 0
  | Some table -> Vmap.cardinal !table
