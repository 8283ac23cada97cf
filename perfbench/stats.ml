(* Sample summaries for the benchmark: nearest-rank percentiles and the
   tail rule that decides which percentile a sample set can support. *)

let ladder = [ 50.0; 90.0; 99.0; 99.9; 99.99 ]

(* Nearest rank of the [p]th percentile of [n] samples, 1-based.  The
   tolerance keeps products such as 99.9% of 10000 from rounding up a
   whole rank. *)
let rank ~n p = max 1 (int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9)))

(* Samples strictly above the [p]th percentile of [n] samples. *)
let beyond ~n p = n - rank ~n p

let tail_percentile n =
  List.fold_left
    (fun acc p -> if beyond ~n p >= 10 then Some p else acc)
    None ladder

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted.(min n (rank ~n p) - 1)

let sorted_of samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

let median samples = percentile (sorted_of samples) 50.0

(* Percentile over an integer histogram: [counts.(v)] samples of value
   [v]; the last bucket also holds every larger value. *)
let hist_percentile counts p =
  let n = Array.fold_left ( + ) 0 counts in
  if n = 0 then invalid_arg "Stats.hist_percentile: no samples";
  let r = rank ~n p in
  let rec go v acc =
    let acc = acc + counts.(v) in
    if acc >= r || v = Array.length counts - 1 then v else go (v + 1) acc
  in
  go 0 0

(* A growable float buffer: the hot loops record one sample per
   operation without allocating a list cell for each. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 4096 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len

  let sorted t =
    let a = Array.sub t.data 0 t.len in
    Array.sort Float.compare a;
    a

  let append ~into t =
    for i = 0 to t.len - 1 do
      add into t.data.(i)
    done
end
