open Perfbench_core

let float_t = Alcotest.float 1e-9
let some_p = Alcotest.(option (float 1e-9))

let test_tail_rule () =
  let check n want = Alcotest.check some_p (Printf.sprintf "n=%d" n) want (Stats.tail_percentile n) in
  check 0 None;
  check 19 None;
  check 20 (Some 50.0);
  check 99 (Some 50.0);
  check 100 (Some 90.0);
  check 999 (Some 90.0);
  check 1000 (Some 99.0);
  check 9999 (Some 99.0);
  check 10_000 (Some 99.9);
  check 100_000 (Some 99.99);
  check 5_000_000 (Some 99.99)

let test_beyond () =
  Alcotest.(check int) "p99 of 1000" 10 (Stats.beyond ~n:1000 99.0);
  Alcotest.(check int) "p99.9 of 10000" 10 (Stats.beyond ~n:10_000 99.9);
  Alcotest.(check int) "p50 of 7" 3 (Stats.beyond ~n:7 50.0)

let test_percentile () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check float_t "p50" 50.0 (Stats.percentile a 50.0);
  Alcotest.check float_t "p99" 99.0 (Stats.percentile a 99.0);
  Alcotest.check float_t "p100" 100.0 (Stats.percentile a 100.0);
  Alcotest.check float_t "p0" 1.0 (Stats.percentile a 0.0);
  Alcotest.check float_t "median of three" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check float_t "single" 7.0 (Stats.percentile [| 7.0 |] 99.0)

let test_hist_percentile () =
  let counts = [| 0; 3; 1 |] in
  Alcotest.(check int) "p50" 1 (Stats.hist_percentile counts 50.0);
  Alcotest.(check int) "p75" 1 (Stats.hist_percentile counts 75.0);
  Alcotest.(check int) "p99" 2 (Stats.hist_percentile counts 99.0)

let test_samples () =
  let s = Stats.Samples.create () in
  for i = 10_000 downto 1 do
    Stats.Samples.add s (float_of_int i)
  done;
  Alcotest.(check int) "length" 10_000 (Stats.Samples.length s);
  Alcotest.check float_t "p99.9" 9990.0 (Stats.percentile (Stats.Samples.sorted s) 99.9)

(* A tracer on a hand-driven clock. *)
let tracer () =
  let now = ref 0 in
  let t = Span.create ~clock:(fun () -> !now) in
  Span.set_enabled t true;
  (t, fun d -> now := !now + d)

let test_self_time () =
  let t, advance = tracer () in
  Span.with_span t (Span.key t "outer") (fun () ->
      advance 10;
      Span.with_span t (Span.key t "inner") (fun () -> advance 5);
      advance 2;
      Span.with_span t (Span.key t "inner") (fun () ->
          advance 1;
          Span.with_span t (Span.key t "leaf") (fun () -> advance 4)));
  Alcotest.(check int) "outer self" 12 (Span.self_ns t "outer");
  Alcotest.(check int) "inner self" 6 (Span.self_ns t "inner");
  Alcotest.(check int) "leaf self" 4 (Span.self_ns t "leaf");
  Alcotest.(check int) "inner calls" 2 (Span.calls t "inner");
  Alcotest.(check int) "self times add up to the wall" 22 (Span.total_self_ns t)

let test_same_name_nested () =
  let t, advance = tracer () in
  Span.with_span t (Span.key t "a") (fun () ->
      advance 3;
      Span.with_span t (Span.key t "a") (fun () -> advance 4));
  Alcotest.(check int) "self counts each level once" 7 (Span.self_ns t "a")

let test_exception_closes () =
  let t, advance = tracer () in
  (try
     Span.with_span t (Span.key t "outer") (fun () ->
         advance 1;
         Span.with_span t (Span.key t "boom") (fun () ->
             advance 2;
             failwith "boom"))
   with Failure _ -> ());
  Span.with_span t (Span.key t "after") (fun () -> advance 5);
  Alcotest.(check int) "outer self" 1 (Span.self_ns t "outer");
  Alcotest.(check int) "boom self" 2 (Span.self_ns t "boom");
  Alcotest.(check int) "after is a root span" 5 (Span.self_ns t "after");
  Alcotest.(check int) "total" 8 (Span.total_self_ns t)

let test_disabled () =
  let t, advance = tracer () in
  Span.set_enabled t false;
  Alcotest.(check int) "value passes through" 42
    (Span.with_span t (Span.key t "x") (fun () ->
         advance 3;
         42));
  Alcotest.(check (list string)) "nothing recorded" [] (Span.names t)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "samples beyond" `Quick test_beyond;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "histogram percentile" `Quick test_hist_percentile;
          Alcotest.test_case "sample buffer" `Quick test_samples;
        ] );
      ( "span",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "same name nested" `Quick test_same_name_nested;
          Alcotest.test_case "exception closes span" `Quick test_exception_closes;
          Alcotest.test_case "disabled" `Quick test_disabled;
        ] );
    ]
