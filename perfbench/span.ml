(* Spans the benchmark puts around its calls into each layer.

   A span's self time is its duration minus the part covered by the
   spans opened inside it, so the self times of all spans opened in an
   interval never exceed that interval's wall time; the rest of the
   interval is reported as [other].  Spans nest through a stack, which
   is exact here because the benchmark is single-threaded and every
   span closes before its parent does. *)

type key = { name : string; mutable self_ns : int; mutable calls : int }

type frame = { key : key; start : int; mutable child_ns : int }

type t = {
  clock : unit -> int;
  mutable enabled : bool;
  mutable stack : frame list;
  mutable keys : key list;
}

let create ~clock = { clock; enabled = false; stack = []; keys = [] }
let set_enabled t on = t.enabled <- on
let enabled t = t.enabled

(* The aggregate a span name reports into; resolving it once, outside
   the hot path, keeps a span to two clock reads and a frame. *)
let key t name =
  match List.find_opt (fun k -> k.name = name) t.keys with
  | Some k -> k
  | None ->
      let k = { name; self_ns = 0; calls = 0 } in
      t.keys <- k :: t.keys;
      k

let close t frame stop =
  let dur = stop - frame.start in
  (match t.stack with
  | _ :: (parent :: _ as rest) ->
      parent.child_ns <- parent.child_ns + dur;
      t.stack <- rest
  | _ -> t.stack <- []);
  let k = frame.key in
  k.self_ns <- k.self_ns + dur - frame.child_ns;
  k.calls <- k.calls + 1

let with_span t key f =
  if not t.enabled then f ()
  else begin
    let frame = { key; start = t.clock (); child_ns = 0 } in
    t.stack <- frame :: t.stack;
    match f () with
    | v ->
        close t frame (t.clock ());
        v
    | exception e ->
        close t frame (t.clock ());
        raise e
  end

let find t name = List.find_opt (fun k -> k.name = name) t.keys
let self_ns t name = match find t name with Some k -> k.self_ns | None -> 0
let calls t name = match find t name with Some k -> k.calls | None -> 0
let total_self_ns t = List.fold_left (fun acc k -> acc + k.self_ns) 0 t.keys

let names t =
  List.filter_map (fun k -> if k.calls > 0 then Some k.name else None) t.keys
  |> List.sort compare

let reset t =
  List.iter
    (fun k ->
      k.self_ns <- 0;
      k.calls <- 0)
    t.keys
