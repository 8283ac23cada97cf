type t = {
  schema : Schema.t;
  mutable contexts : Dit.t list;  (* deepest suffix first *)
  index : Index.t;
  estore : Content_store.t;  (* flat mirror of every context, spine in commit order *)
  mutable referral_dns : Dn.Set.t;  (* referral objects, for references *)
  log : Changelog.t;
  mutable csn : Csn.t;
  mutable subscribers : (Update.record -> unit) array;  (* registration order *)
  mutable subscriber_count : int;
}

let create ?(indexed = []) schema =
  {
    schema;
    contexts = [];
    index = Index.create schema ~attrs:("objectclass" :: indexed);
    estore = Content_store.create ();
    referral_dns = Dn.Set.empty;
    log = Changelog.create ();
    csn = Csn.zero;
    subscribers = [||];
    subscriber_count = 0;
  }

let schema t = t.schema

let note_entry t entry ~add =
  (if add then Index.insert else Index.remove) t.index entry;
  (* The flat mirror follows every DIT mutation through this one choke
     point; the stamp is the CSN about to commit (or, on restore, a
     best-effort bound — the spine order is what cursors rely on). *)
  (if add then Content_store.upsert t.estore ~csn:(Csn.next t.csn) entry
   else Content_store.remove t.estore ~csn:(Csn.next t.csn) (Entry.dn entry));
  if Entry.is_referral entry then
    t.referral_dns <-
      (if add then Dn.Set.add else Dn.Set.remove) (Entry.dn entry) t.referral_dns

let add_context t entry =
  let suffix = Entry.dn entry in
  let clashes dit =
    Dn.ancestor_of (Dit.suffix dit) suffix || Dn.ancestor_of suffix (Dit.suffix dit)
  in
  if List.exists clashes t.contexts then
    Error
      (Printf.sprintf "context %S overlaps an existing naming context"
         (Dn.to_string suffix))
  else begin
    let by_depth a b = Int.compare (Dn.depth (Dit.suffix b)) (Dn.depth (Dit.suffix a)) in
    t.contexts <- List.sort by_depth (Dit.create entry :: t.contexts);
    note_entry t entry ~add:true;
    Ok ()
  end

let contexts t = t.contexts

let context_for t dn =
  (* contexts are sorted deepest first, so the first covering context
     is the most specific one. *)
  List.find_opt (fun dit -> Dit.contains_dn dit dn) t.contexts

let set_context t dit' =
  t.contexts <-
    List.map (fun dit -> if Dn.equal (Dit.suffix dit) (Dit.suffix dit') then dit' else dit)
      t.contexts

let find t dn =
  match context_for t dn with None -> None | Some dit -> Dit.find dit dn

let total_entries t = List.fold_left (fun acc dit -> acc + Dit.size dit) 0 t.contexts

let fold_entries t ~init ~f =
  List.fold_left (fun acc dit -> Dit.fold dit ~init:acc ~f) init t.contexts

let entries_seq t = Content_store.to_seq t.estore
let content_store t = t.estore

(* --- Search --------------------------------------------------------- *)

type search_error =
  | No_such_object of Dn.t
  | Base_referral of { dn : Dn.t; urls : string list }

type search_result = { entries : Entry.t list; references : string list list }

(* Name resolution: walk from the context suffix down to [base]; if a
   referral object sits at or above the base, the client must chase it. *)
let resolve_base t dit base =
  let rec ancestors acc dn =
    if Dn.equal dn (Dit.suffix dit) then dn :: acc
    else
      match Dn.parent dn with
      | None -> acc
      | Some p -> ancestors (dn :: acc) p
  in
  let path = ancestors [] base in
  let referral =
    List.find_map
      (fun dn ->
        if Dn.Set.mem dn t.referral_dns then
          Option.map (fun e -> (dn, Entry.referral_urls e)) (Dit.find dit dn)
        else None)
      path
  in
  match referral with
  | Some (dn, urls) -> Error (Base_referral { dn; urls })
  | None -> (
      match Dit.find dit base with
      | None -> Error (No_such_object base)
      | Some entry -> Ok entry)

(* Referral object strictly between [base] (exclusive) and [dn]
   (exclusive)?  Used to cut off index candidates living under
   subordinate referrals. *)
let crosses_referral t ~base dn =
  if Dn.Set.is_empty t.referral_dns then false
  else
    let rec go cur =
      match Dn.parent cur with
      | None -> false
      | Some p ->
          if Dn.equal p base then false
          else Dn.Set.mem p t.referral_dns || go p
    in
    go dn

(* --- Candidate planning ----------------------------------------------
   Some indexed conjunct's postings over-approximate a filter's matches;
   every candidate is then checked by the full compiled filter, so the
   choice of conjunct changes cost, never answers or their order.  No
   posting size is stored: sizes are counted lazily and never past the
   smallest candidate set found so far (the cap), so a search costs
   O(answer) even when the router has conjoined an ownership filter
   that covers a whole shard. *)

(* Whether some index bounds the filter's matches. *)
let rec indexable t = function
  | Filter.Pred (Filter.Equality (a, _))
  | Filter.Pred (Filter.Substrings (a, { initial = Some _; _ })) ->
      Index.is_indexed t.index a
  | Filter.And gs -> List.exists (indexable t) gs
  | Filter.Or gs -> List.for_all (indexable t) gs
  | Filter.Pred _ | Filter.Not _ -> false

(* The smallest posting and its size, walking all of them in lockstep:
   none is counted past the smallest, nor past [cap] (then [None]). *)
let smallest ~cap postings =
  let rec go n cursors =
    if n > cap then None
    else
      let rec step acc = function
        | [] -> Ok (List.rev acc)
        | (p, c) :: rest -> (
            match c () with
            | Seq.Nil -> Error p
            | Seq.Cons (_, c') -> step ((p, c') :: acc) rest)
      in
      match step [] cursors with
      | Error p -> Some (p, n)
      | Ok cursors -> go (n + 1) cursors
  in
  match postings with
  | [] -> None
  | _ -> go 0 (List.map (fun p -> (p, Dn.Set.to_seq p)) postings)

(* [dns] added to [acc] (of [n] DNs) one at a time; [Set.add] returns
   its argument when the DN is already there, which keeps the count
   exact.  [None] once the union exceeds [cap]. *)
let add_upto ~cap (acc, n) dns =
  let rec go acc n dns =
    if n > cap then None
    else
      match dns () with
      | Seq.Nil -> Some (acc, n)
      | Seq.Cons (dn, rest) ->
          let acc' = Dn.Set.add dn acc in
          go acc' (if acc' == acc then n else n + 1) rest
  in
  go acc n dns

(* A whole posting into an empty union is the posting itself, counted. *)
let add_set ~cap (acc, n) s =
  if n = 0 then smallest ~cap [ s ] else add_upto ~cap (acc, n) (Dn.Set.to_seq s)

(* An indexable filter's candidates unioned into [acc], or [None] once
   the union exceeds [cap]. *)
let rec union_into t ~cap acc g =
  match g with
  | Filter.Pred (Filter.Equality (a, v)) ->
      add_set ~cap acc (Index.lookup_eq t.index ~attr:a v)
  | Filter.Pred (Filter.Substrings (a, { initial = Some p; _ })) ->
      add_upto ~cap acc
        (Seq.flat_map Dn.Set.to_seq (Index.prefix_postings t.index ~attr:a p))
  | Filter.Or gs ->
      List.fold_left
        (fun acc g -> Option.bind acc (fun acc -> union_into t ~cap acc g))
        (Some acc) gs
  | Filter.And gs ->
      Option.bind (conjunction t ~cap gs) (fun (s, _) -> add_set ~cap acc s)
  | Filter.Pred _ | Filter.Not _ -> invalid_arg "Backend.union_into: unindexed filter"

(* Equality postings are free to fetch, so they go first, counted in
   lockstep; each further indexable conjunct is built only while it
   stays strictly smaller than the best set so far. *)
and conjunction t ~cap gs =
  let eqs, rest =
    List.partition_map
      (function
        | Filter.Pred (Filter.Equality (a, v)) when Index.is_indexed t.index a ->
            Either.Left (Index.lookup_eq t.index ~attr:a v)
        | g -> Either.Right g)
      gs
  in
  let best = smallest ~cap eqs in
  List.fold_left
    (fun best g ->
      if not (indexable t g) then best
      else
        let cap = match best with Some (_, n) -> n - 1 | None -> cap in
        match union_into t ~cap (Dn.Set.empty, 0) g with
        | Some _ as smaller -> smaller
        | None -> best)
    best rest

(* Candidate DNs for a search, or [None] when no index applies (fall
   back to traversal).  A lone predicate is returned uncounted. *)
let rec candidates t filter =
  if not (indexable t filter) then None
  else
    match filter with
    | Filter.Pred (Filter.Equality (a, v)) -> Some (Index.lookup_eq t.index ~attr:a v)
    | Filter.Pred (Filter.Substrings (a, { initial = Some p; _ })) ->
        Some (Index.lookup_prefix t.index ~attr:a p)
    | Filter.And gs -> (
        match List.filter (indexable t) gs with
        | [ g ] -> candidates t g
        | gs -> Option.map fst (conjunction t ~cap:max_int gs))
    | Filter.Or _ | Filter.Pred _ | Filter.Not _ ->
        Option.map fst (union_into t ~cap:max_int (Dn.Set.empty, 0) filter)

let in_scope_references t (q : Query.t) =
  Dn.Set.fold
    (fun dn acc -> if Query.in_scope q dn then dn :: acc else acc)
    t.referral_dns []

let requested_attrs (q : Query.t) = Query.attr_list q.attrs

(* Resolves the base, then folds [f] over the matching entries in the
   order that, consed, gives [search]'s answer order.  Returns the
   covering context with the fold's result. *)
let fold_matches t (q : Query.t) ~init ~f =
  match context_for t q.base with
  | None -> Error (No_such_object q.base)
  | Some dit -> (
      let manage = q.Query.manage_dsa_it in
      let resolved =
        if manage then
          (* manageDsaIT: name resolution sees referral objects as
             plain entries. *)
          match Dit.find dit q.base with
          | None -> Error (No_such_object q.base)
          | Some entry -> Ok entry
        else resolve_base t dit q.base
      in
      match resolved with
      | Error e -> Error e
      | Ok _base_entry ->
          let is_excluded entry =
            (not manage)
            && (Entry.is_referral entry
               || crosses_referral t ~base:q.base (Entry.dn entry))
          in
          (* Compile the filter once per search; every candidate then
             evaluates bytecode against its memoized compiled view
             instead of re-walking the AST with per-predicate schema
             lookups and value normalization. *)
          let filter_matches = Filter.matcher t.schema q.filter in
          let matches entry = (not (is_excluded entry)) && filter_matches entry in
          let step acc e = if matches e then f acc e else acc in
          let acc =
            match candidates t q.filter with
            | Some candidates ->
                Dn.Set.fold
                  (fun dn acc ->
                    if not (Query.in_scope q dn) then acc
                    else
                      match Dit.find dit dn with
                      | Some e -> step acc e
                      | None -> acc)
                  candidates init
            | None -> (
                match q.scope with
                | Scope.Base -> (
                    match Dit.find dit q.base with
                    | Some e -> step init e
                    | None -> init)
                | Scope.One ->
                    List.fold_right (fun e acc -> step acc e) (Dit.children dit q.base) init
                | Scope.Sub -> Dit.fold_subtree dit q.base ~init ~f:step)
          in
          Ok (dit, acc))

let search t (q : Query.t) =
  let attrs = requested_attrs q in
  match fold_matches t q ~init:[] ~f:(fun acc e -> Entry.select e attrs :: acc) with
  | Error e -> Error e
  | Ok (dit, entries) ->
      let references =
        if q.Query.manage_dsa_it then []
        else
          List.filter_map
            (fun dn -> Option.map Entry.referral_urls (Dit.find dit dn))
            (in_scope_references t q)
      in
      Ok { entries; references }

let compare_values t dn ~attr ~value =
  match find t dn with
  | None -> Error (Printf.sprintf "no such object: %s" (Dn.to_string dn))
  | Some entry ->
      Ok (Entry.has_value ~syntax:(Schema.syntax_of t.schema attr) entry attr value)

let count_matching t q =
  match fold_matches t q ~init:0 ~f:(fun n _ -> n + 1) with
  | Ok (_, n) -> n
  | Error _ -> 0

(* --- Updates -------------------------------------------------------- *)

let naming_values_present entry =
  match Dn.rdn (Entry.dn entry) with
  | None -> entry
  | Some avas ->
      List.fold_left
        (fun e (ava : Dn.ava) -> Entry.add_values e ava.attr [ ava.value ])
        entry avas

let validate_entry t entry =
  ignore t;
  if Entry.object_classes entry = [] then
    Error (Printf.sprintf "entry %S has no objectClass" (Dn.to_string (Entry.dn entry)))
  else Ok ()

let apply_mod schema entry (item : Update.mod_item) =
  let syntax = Schema.syntax_of schema item.mod_attr in
  match item.mod_kind with
  | Update.Add_values -> Ok (Entry.add_values ~syntax entry item.mod_attr item.mod_values)
  | Update.Replace_values -> Ok (Entry.replace_values entry item.mod_attr item.mod_values)
  | Update.Delete_values -> Entry.delete_values ~syntax entry item.mod_attr item.mod_values

let commit t op ~before ~after ~(mutate : unit -> (unit, string) result) =
  match mutate () with
  | Error _ as e -> e
  | Ok () ->
      t.csn <- Csn.next t.csn;
      let record = { Update.csn = t.csn; op; before; after } in
      Changelog.append t.log record;
      for i = 0 to t.subscriber_count - 1 do
        t.subscribers.(i) record
      done;
      Ok record

let dit_result dit_res ~on_ok =
  match dit_res with
  | Ok dit -> on_ok dit
  | Error e -> Error (Dit.error_to_string e)

let apply t op =
  (* Post-images carry the committing CSN as modifyTimestamp, which the
     degraded ReSync mode (eq. (3) of the paper) relies on. *)
  let stamp e =
    Entry.replace_values e "modifytimestamp" [ Csn.to_string (Csn.next t.csn) ]
  in
  match op with
  | Update.Add entry -> (
      let entry = stamp (naming_values_present entry) in
      let dn = Entry.dn entry in
      match validate_entry t entry with
      | Error _ as e -> e
      | Ok () -> (
          match context_for t dn with
          | None ->
              Error (Printf.sprintf "no naming context for %S" (Dn.to_string dn))
          | Some dit ->
              commit t op ~before:None ~after:(Some entry) ~mutate:(fun () ->
                  dit_result (Dit.add dit entry) ~on_ok:(fun dit' ->
                      set_context t dit';
                      note_entry t entry ~add:true;
                      Ok ()))))
  | Update.Delete dn -> (
      match context_for t dn with
      | None -> Error (Printf.sprintf "no naming context for %S" (Dn.to_string dn))
      | Some dit -> (
          match Dit.find dit dn with
          | None -> Error (Printf.sprintf "no such object: %s" (Dn.to_string dn))
          | Some before ->
              commit t op ~before:(Some before) ~after:None ~mutate:(fun () ->
                  dit_result (Dit.delete dit dn) ~on_ok:(fun dit' ->
                      set_context t dit';
                      note_entry t before ~add:false;
                      Ok ()))))
  | Update.Modify (dn, items) -> (
      match context_for t dn with
      | None -> Error (Printf.sprintf "no naming context for %S" (Dn.to_string dn))
      | Some dit -> (
          match Dit.find dit dn with
          | None -> Error (Printf.sprintf "no such object: %s" (Dn.to_string dn))
          | Some before -> (
              let applied =
                List.fold_left
                  (fun acc item ->
                    match acc with
                    | Error _ as e -> e
                    | Ok e -> apply_mod t.schema e item)
                  (Ok before) items
              in
              match applied with
              | Error _ as e -> e
              | Ok after -> (
                  let after = stamp after in
                  match validate_entry t after with
                  | Error _ as e -> e
                  | Ok () ->
                      commit t op ~before:(Some before) ~after:(Some after)
                        ~mutate:(fun () ->
                          dit_result (Dit.replace dit after) ~on_ok:(fun dit' ->
                              set_context t dit';
                              note_entry t before ~add:false;
                              note_entry t after ~add:true;
                              Ok ()))))))
  | Update.Modify_dn { dn; new_rdn; delete_old_rdn; new_superior } -> (
      match context_for t dn with
      | None -> Error (Printf.sprintf "no naming context for %S" (Dn.to_string dn))
      | Some dit -> (
          match Dit.find dit dn with
          | None -> Error (Printf.sprintf "no such object: %s" (Dn.to_string dn))
          | Some before -> (
              if Dit.has_children dit dn then
                Error
                  (Printf.sprintf "modifyDN on non-leaf entry: %s" (Dn.to_string dn))
              else
                let parent_dn =
                  match new_superior with
                  | Some sup -> sup
                  | None -> Option.value ~default:Dn.root (Dn.parent dn)
                in
                let new_dn = Dn.child parent_dn new_rdn in
                match context_for t new_dn with
                | None ->
                    Error
                      (Printf.sprintf "no naming context for new DN %S"
                         (Dn.to_string new_dn))
                | Some target_dit -> (
                    if not (Dn.equal (Dit.suffix target_dit) (Dit.suffix dit)) then
                      Error "modifyDN across naming contexts is not supported"
                    else if Dit.find dit new_dn <> None then
                      Error
                        (Printf.sprintf "entry already exists: %s" (Dn.to_string new_dn))
                    else if Dit.find dit parent_dn = None then
                      Error
                        (Printf.sprintf "new superior does not exist: %s"
                           (Dn.to_string parent_dn))
                    else
                      let stripped =
                        if delete_old_rdn then
                          match Dn.rdn dn with
                          | None -> before
                          | Some avas ->
                              List.fold_left
                                (fun e (ava : Dn.ava) ->
                                  match Entry.delete_values e ava.attr [ ava.value ] with
                                  | Ok e' -> e'
                                  | Error _ -> e)
                                before avas
                        else before
                      in
                      let after =
                        stamp (naming_values_present (Entry.with_dn stripped new_dn))
                      in
                      commit t op ~before:(Some before) ~after:(Some after)
                        ~mutate:(fun () ->
                          dit_result (Dit.delete dit dn) ~on_ok:(fun dit' ->
                              dit_result (Dit.add dit' after) ~on_ok:(fun dit'' ->
                                  set_context t dit'';
                                  note_entry t before ~add:false;
                                  note_entry t after ~add:true;
                                  Ok ())))))))

let csn t = t.csn

let log_since t since = Changelog.since t.log since
let log_complete_since t since = Changelog.complete_since t.log since
let trim_log t ~before = Changelog.trim t.log ~before
let log_length t = Changelog.length t.log
let log_floor t = Changelog.floor t.log

(* --- Recovery --------------------------------------------------------
   Hooks for the durable store: rebuild a backend from a snapshot image
   plus a replayed WAL suffix.  The images already carry their committed
   stamps, so nothing here validates, re-stamps or notifies
   subscribers. *)

let no_context dn =
  Error (Printf.sprintf "no naming context for %S" (Dn.to_string dn))

let restore_entry t entry =
  let dn = Entry.dn entry in
  match context_for t dn with
  | None -> no_context dn
  | Some dit -> (
      match Dit.find dit dn with
      | Some old ->
          dit_result (Dit.replace dit entry) ~on_ok:(fun dit' ->
              set_context t dit';
              note_entry t old ~add:false;
              note_entry t entry ~add:true;
              Ok ())
      | None ->
          dit_result (Dit.add dit entry) ~on_ok:(fun dit' ->
              set_context t dit';
              note_entry t entry ~add:true;
              Ok ()))

let restore_csn t csn = t.csn <- csn

let restore_log t ~floor records =
  if Csn.( < ) Csn.zero floor then
    Changelog.trim t.log ~before:(Csn.of_int (Csn.to_int floor + 1));
  List.iter (Changelog.append t.log) records

let replay_record t (r : Update.record) =
  let delete_image e =
    let dn = Entry.dn e in
    match context_for t dn with
    | None -> no_context dn
    | Some dit ->
        dit_result (Dit.delete dit dn) ~on_ok:(fun dit' ->
            set_context t dit';
            note_entry t e ~add:false;
            Ok ())
  in
  let add_image e =
    let dn = Entry.dn e in
    match context_for t dn with
    | None -> no_context dn
    | Some dit ->
        dit_result (Dit.add dit e) ~on_ok:(fun dit' ->
            set_context t dit';
            note_entry t e ~add:true;
            Ok ())
  in
  let step =
    match (r.Update.before, r.Update.after) with
    | None, None -> Ok ()
    | Some b, Some a when Dn.equal (Entry.dn b) (Entry.dn a) -> (
        (* In-place modify: replace keeps the subtree below. *)
        let dn = Entry.dn a in
        match context_for t dn with
        | None -> no_context dn
        | Some dit ->
            dit_result (Dit.replace dit a) ~on_ok:(fun dit' ->
                set_context t dit';
                note_entry t b ~add:false;
                note_entry t a ~add:true;
                Ok ()))
    | before, after -> (
        (* Delete and modifyDN only commit on leaves, so the old image
           is deletable; then install the new one, if any. *)
        let deleted =
          match before with None -> Ok () | Some b -> delete_image b
        in
        match deleted with
        | Error _ as e -> e
        | Ok () -> ( match after with None -> Ok () | Some a -> add_image a))
  in
  match step with
  | Error _ as e -> e
  | Ok () ->
      t.csn <- r.Update.csn;
      Changelog.append t.log r;
      Ok ()

let subscribe t f =
  if t.subscriber_count = Array.length t.subscribers then begin
    let grown = Array.make (max 4 (2 * t.subscriber_count)) f in
    Array.blit t.subscribers 0 grown 0 t.subscriber_count;
    t.subscribers <- grown
  end;
  t.subscribers.(t.subscriber_count) <- f;
  t.subscriber_count <- t.subscriber_count + 1
