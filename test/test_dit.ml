(* Direct tests for Ldap.Dit and Ldap.Index. *)
open Ldap

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn

let entry dn_s attrs = Entry.make (dn dn_s) attrs
let org = entry "o=xyz" [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ]

let node name parent =
  entry (Printf.sprintf "ou=%s,%s" name parent)
    [ ("objectclass", [ "organizationalUnit" ]); ("ou", [ name ]) ]

let must = function Ok x -> x | Error e -> failwith (Dit.error_to_string e)

let small () =
  let t = Dit.create org in
  let t = must (Dit.add t (node "a" "o=xyz")) in
  let t = must (Dit.add t (node "b" "o=xyz")) in
  let t = must (Dit.add t (node "a1" "ou=a,o=xyz")) in
  let t = must (Dit.add t (node "a2" "ou=a,o=xyz")) in
  t

let test_structure () =
  let t = small () in
  check_int "size" 5 (Dit.size t);
  check_bool "find root" true (Dit.find t (dn "o=xyz") <> None);
  check_bool "find deep" true (Dit.find t (dn "ou=a1,ou=a,o=xyz") <> None);
  check_bool "missing" true (Dit.find t (dn "ou=zz,o=xyz") = None);
  check_int "children of root" 2 (List.length (Dit.children t (dn "o=xyz")));
  check_int "children of a" 2 (List.length (Dit.children t (dn "ou=a,o=xyz")));
  check_int "children of leaf" 0 (List.length (Dit.children t (dn "ou=b,o=xyz")));
  check_bool "root has children" true (Dit.has_children t (dn "o=xyz"));
  check_bool "leaf has none" false (Dit.has_children t (dn "ou=b,o=xyz"));
  check_bool "missing has none" false (Dit.has_children t (dn "ou=zz,o=xyz"));
  check_bool "contains namespace" true (Dit.contains_dn t (dn "cn=any,ou=a,o=xyz"));
  check_bool "outside namespace" false (Dit.contains_dn t (dn "o=abc"))

let test_add_errors () =
  let t = small () in
  check_bool "duplicate" true (Result.is_error (Dit.add t (node "a" "o=xyz")));
  check_bool "orphan" true (Result.is_error (Dit.add t (node "x" "ou=zz,o=xyz")));
  check_bool "out of context" true
    (Result.is_error (Dit.add t (entry "ou=x,o=abc" [ ("objectclass", [ "top" ]) ])))

let test_delete_semantics () =
  let t = small () in
  check_bool "non-leaf refused" true (Result.is_error (Dit.delete t (dn "ou=a,o=xyz")));
  check_bool "suffix refused" true (Result.is_error (Dit.delete t (dn "o=xyz")));
  let t = must (Dit.delete t (dn "ou=a1,ou=a,o=xyz")) in
  let t = must (Dit.delete t (dn "ou=a2,ou=a,o=xyz")) in
  check_int "after deletes" 3 (Dit.size t);
  (* Now a is a leaf. *)
  let t = must (Dit.delete t (dn "ou=a,o=xyz")) in
  check_int "chain deleted" 2 (Dit.size t)

let test_replace_keeps_subtree () =
  let t = small () in
  let replacement =
    entry "ou=a,o=xyz"
      [ ("objectclass", [ "organizationalUnit" ]); ("ou", [ "a" ]); ("description", [ "new" ]) ]
  in
  let t = must (Dit.replace t replacement) in
  check_bool "replaced" true
    (Entry.has_value (Option.get (Dit.find t (dn "ou=a,o=xyz"))) "description" "new");
  check_bool "children kept" true (Dit.find t (dn "ou=a1,ou=a,o=xyz") <> None);
  check_bool "replace missing errors" true
    (Result.is_error (Dit.replace t (node "zz" "o=xyz")))

let test_fold_order () =
  let t = small () in
  let dns = List.rev (Dit.fold t ~init:[] ~f:(fun acc e -> Dn.to_string (Entry.dn e) :: acc)) in
  check_int "all visited" 5 (List.length dns);
  (* Parent appears before its children (depth-first, parent first). *)
  let index s = Option.get (List.find_index (fun x -> x = s) dns) in
  check_bool "root first" true (index "o=xyz" = 0);
  check_bool "parent before child" true (index "ou=a,o=xyz" < index "ou=a1,ou=a,o=xyz");
  (* Subtree fold only visits the subtree. *)
  check_int "subtree fold" 3
    (Dit.fold_subtree t (dn "ou=a,o=xyz") ~init:0 ~f:(fun n _ -> n + 1));
  check_int "missing subtree" 0
    (Dit.fold_subtree t (dn "ou=zz,o=xyz") ~init:0 ~f:(fun n _ -> n + 1))

(* --- Index -------------------------------------------------------------- *)

let schema = Schema.default

let person name serial =
  entry (Printf.sprintf "cn=%s,o=xyz" name)
    [ ("objectclass", [ "person" ]); ("cn", [ name ]); ("sn", [ name ]);
      ("serialNumber", [ serial ]) ]

let test_index_eq_prefix () =
  let idx = Index.create schema ~attrs:[ "serialnumber" ] in
  Index.insert idx (person "a" "2406");
  Index.insert idx (person "b" "2407");
  Index.insert idx (person "c" "2506");
  check_bool "indexed attr" true (Index.is_indexed idx "serialNumber");
  check_bool "other attr" false (Index.is_indexed idx "mail");
  check_int "eq lookup" 1 (Dn.Set.cardinal (Index.lookup_eq idx ~attr:"serialnumber" "2406"));
  check_int "eq miss" 0 (Dn.Set.cardinal (Index.lookup_eq idx ~attr:"serialnumber" "9999"));
  check_int "prefix 24" 2 (Dn.Set.cardinal (Index.lookup_prefix idx ~attr:"serialnumber" "24"));
  check_int "prefix 2" 3 (Dn.Set.cardinal (Index.lookup_prefix idx ~attr:"serialnumber" "2"));
  check_int "prefix miss" 0 (Dn.Set.cardinal (Index.lookup_prefix idx ~attr:"serialnumber" "9"));
  check_int "cardinality" 3 (Index.cardinality idx ~attr:"serialnumber");
  (* No string-prefix confusion across boundary values. *)
  Index.insert idx (person "d" "240");
  check_int "prefix 240 exact+longer" 3
    (Dn.Set.cardinal (Index.lookup_prefix idx ~attr:"serialnumber" "240"));
  (* The lazy range scan yields one posting per matching value, in
     value order, and stops at the first value past the prefix. *)
  Alcotest.(check (list int)) "prefix postings 24" [ 1; 1; 1 ]
    (List.of_seq
       (Seq.map Dn.Set.cardinal (Index.prefix_postings idx ~attr:"serialnumber" "24")));
  check_int "prefix postings miss" 0
    (Seq.length (Index.prefix_postings idx ~attr:"mail" "24"))

let test_index_remove () =
  let idx = Index.create schema ~attrs:[ "serialnumber" ] in
  let p = person "a" "2406" in
  Index.insert idx p;
  Index.remove idx p;
  check_int "removed" 0 (Dn.Set.cardinal (Index.lookup_eq idx ~attr:"serialnumber" "2406"));
  check_int "cardinality zero" 0 (Index.cardinality idx ~attr:"serialnumber")

let test_index_normalized () =
  let idx = Index.create schema ~attrs:[ "cn" ] in
  Index.insert idx (person "John Doe" "1");
  check_int "case-insensitive" 1
    (Dn.Set.cardinal (Index.lookup_eq idx ~attr:"cn" "JOHN DOE"))

let suite =
  [
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "add errors" `Quick test_add_errors;
    Alcotest.test_case "delete semantics" `Quick test_delete_semantics;
    Alcotest.test_case "replace keeps subtree" `Quick test_replace_keeps_subtree;
    Alcotest.test_case "fold order" `Quick test_fold_order;
    Alcotest.test_case "index eq/prefix" `Quick test_index_eq_prefix;
    Alcotest.test_case "index remove" `Quick test_index_remove;
    Alcotest.test_case "index normalized" `Quick test_index_normalized;
  ]
