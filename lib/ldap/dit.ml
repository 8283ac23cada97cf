module Smap = Map.Make (String)

type node = { entry : Entry.t; kids : node Smap.t }

type t = { suffix : Dn.t; root : node; count : int }

type error =
  | No_such_object of Dn.t
  | Already_exists of Dn.t
  | Not_a_leaf of Dn.t
  | No_such_parent of Dn.t
  | Not_in_context of Dn.t

let error_to_string = function
  | No_such_object dn -> "no such object: " ^ Dn.to_string dn
  | Already_exists dn -> "entry already exists: " ^ Dn.to_string dn
  | Not_a_leaf dn -> "entry is not a leaf: " ^ Dn.to_string dn
  | No_such_parent dn -> "parent does not exist: " ^ Dn.to_string dn
  | Not_in_context dn -> "DN outside this naming context: " ^ Dn.to_string dn

let create entry =
  { suffix = Entry.dn entry; root = { entry; kids = Smap.empty }; count = 1 }

let suffix t = t.suffix
let size t = t.count
let contains_dn t dn = Dn.ancestor_of t.suffix dn

(* Path from the context root down to [dn]: RDN keys root-most first. *)
let path_of t dn =
  match Dn.relative_to ~ancestor:t.suffix dn with
  | None -> None
  | Some rdns -> Some (List.rev_map Dn.rdn_canonical rdns)

let rec descend node = function
  | [] -> Some node
  | key :: rest -> (
      match Smap.find_opt key node.kids with
      | None -> None
      | Some child -> descend child rest)

let find_node t dn =
  match path_of t dn with None -> None | Some path -> descend t.root path

let find t dn = Option.map (fun n -> n.entry) (find_node t dn)

(* Rebuild the spine along [path], applying [f] to the node at the end.
   [f] receives [Some node] or [None] and returns the replacement (or
   [None] to delete).  Raises [Exit]-style via result in callers. *)
let rec update_at node path ~(f : node option -> (node option, error) result) :
    (node option, error) result =
  match path with
  | [] -> f (Some node)
  | key :: rest -> (
      match Smap.find_opt key node.kids with
      | None -> (
          match rest with
          | [] -> (
              match f None with
              | Error e -> Error e
              | Ok None -> Ok (Some node)
              | Ok (Some fresh) ->
                  Ok (Some { node with kids = Smap.add key fresh node.kids }))
          | _ :: _ -> Error (No_such_parent Dn.root))
      | Some child -> (
          match update_at child rest ~f with
          | Error e -> Error e
          | Ok None -> Ok (Some { node with kids = Smap.remove key node.kids })
          | Ok (Some child') ->
              Ok (Some { node with kids = Smap.add key child' node.kids })))

let add t entry =
  let dn = Entry.dn entry in
  match path_of t dn with
  | None -> Error (Not_in_context dn)
  | Some [] -> Error (Already_exists dn)
  | Some path -> (
      let parent_dn = Option.get (Dn.parent dn) in
      let f = function
        | Some _ -> Error (Already_exists dn)
        | None -> Ok (Some { entry; kids = Smap.empty })
      in
      match update_at t.root path ~f with
      | Error (No_such_parent _) -> Error (No_such_parent parent_dn)
      | Error e -> Error e
      | Ok None -> assert false
      | Ok (Some root) -> Ok { t with root; count = t.count + 1 })

let replace t entry =
  let dn = Entry.dn entry in
  match path_of t dn with
  | None -> Error (Not_in_context dn)
  | Some path -> (
      let f = function
        | None -> Error (No_such_object dn)
        | Some node -> Ok (Some { node with entry })
      in
      match update_at t.root path ~f with
      | Error (No_such_parent _) -> Error (No_such_object dn)
      | Error e -> Error e
      | Ok None -> assert false
      | Ok (Some root) -> Ok { t with root })

let delete t dn =
  match path_of t dn with
  | None -> Error (Not_in_context dn)
  | Some [] ->
      (* Deleting the suffix entry would leave no context. *)
      Error (Not_a_leaf dn)
  | Some path -> (
      let f = function
        | None -> Error (No_such_object dn)
        | Some node ->
            if Smap.is_empty node.kids then Ok None else Error (Not_a_leaf dn)
      in
      match update_at t.root path ~f with
      | Error (No_such_parent _) -> Error (No_such_object dn)
      | Error e -> Error e
      | Ok None -> assert false
      | Ok (Some root) -> Ok { t with root; count = t.count - 1 })

let children t dn =
  match find_node t dn with
  | None -> []
  | Some node -> Smap.fold (fun _ child acc -> child.entry :: acc) node.kids []

let has_children t dn =
  match find_node t dn with
  | None -> false
  | Some node -> not (Smap.is_empty node.kids)

let rec fold_node node ~init ~f =
  let acc = f init node.entry in
  Smap.fold (fun _ child acc -> fold_node child ~init:acc ~f) node.kids acc

let fold_subtree t dn ~init ~f =
  match find_node t dn with
  | None -> init
  | Some node -> fold_node node ~init ~f

let fold t ~init ~f = fold_node t.root ~init ~f
let iter t ~f = fold t ~init:() ~f:(fun () e -> f e)
