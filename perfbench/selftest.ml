(* The benchmark's own test.  On a small dataset the oracle must agree
   with a linear scan and with the library, and every answer checker the
   workloads use must reject one corrupted answer. *)

open Perfbench
module Is = Wt_core.Indexed_sequence
module Static = Wtrie.Static

let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let count_in data ~lo ~hi p =
  let c = ref 0 in
  for i = lo to hi - 1 do
    if p data.(i) then incr c
  done;
  !c

let nth data k p =
  let rec go i seen =
    if p data.(i) then if seen = k then i else go (i + 1) (seen + 1) else go (i + 1) seen
  in
  go 0 0

let linear_scan data (op : Is.op) : (Is.value, Is.error) result =
  let is s x = x = s and starts p x = String.starts_with ~prefix:p x in
  match op with
  | Access { pos } -> Ok (Str data.(pos))
  | Rank { s; pos } -> Ok (Int (count_in data ~lo:0 ~hi:pos (is s)))
  | Select { s; count } -> Ok (Int (nth data count (is s)))
  | Rank_prefix { prefix; pos } -> Ok (Int (count_in data ~lo:0 ~hi:pos (starts prefix)))
  | Select_prefix { prefix; count } -> Ok (Int (nth data count (starts prefix)))

let corrupt : (Is.value, Is.error) result -> (Is.value, Is.error) result = function
  | Ok (Int n) -> Ok (Int (n + 1))
  | Ok (Str s) -> Ok (Str (s ^ "x"))
  | Error _ as e -> e

let () =
  let g = Inputs.generator Hot ~seed:7 in
  let data = Wt_workload.Urls.raw_sequence g 3000 in
  let o = Oracle.of_array data in
  let ops, expected = Inputs.point_pool o g (Inputs.rng 7) 2000 in
  expect "oracle agrees with a linear scan"
    (Array.for_all2 (fun op e -> linear_scan data op = e) ops expected);
  let idx = Static.of_array data in
  let got = Static.query_batch idx ops in
  let tally_of answers =
    let t = Util.tally () in
    Array.iteri (fun i a -> Oracle.check t ~expected:expected.(i) a) answers;
    t
  in
  expect "library point answers pass the check" ((tally_of got).wrong = 0);
  List.iter
    (fun i ->
      let bad = Array.copy got in
      bad.(i) <- corrupt bad.(i);
      expect
        (Printf.sprintf "one corrupted point answer (%s) fails the check"
           (match ops.(i) with
           | Access _ -> "access"
           | Rank _ -> "rank"
           | Select _ -> "select"
           | Rank_prefix _ -> "rank_prefix"
           | Select_prefix _ -> "select_prefix"))
        ((tally_of bad).wrong = 1))
    (List.sort_uniq compare
       (List.filter_map
          (fun kind -> Array.find_index kind ops)
          [
            (function Is.Access _ -> true | _ -> false);
            (function Is.Rank _ -> true | _ -> false);
            (function Is.Select _ -> true | _ -> false);
            (function Is.Rank_prefix _ -> true | _ -> false);
            (function Is.Select_prefix _ -> true | _ -> false);
          ]));
  let prefix = List.hd (Oracle.prefixes data.(0)) and lo = 100 and hi = 2100 in
  let c = Result.get_ok (Static.range_count ~prefix idx ~lo ~hi) in
  expect "range_count matches the oracle" (c = Oracle.range_count o ~prefix ~lo ~hi);
  expect "a corrupted range_count does not" (c + 1 <> Oracle.range_count o ~prefix ~lo ~hi);
  let a = Result.get_ok (Static.select_all ~prefix ~lo ~hi idx) in
  expect "select_all matches the oracle" (a = Oracle.select_all o ~prefix ~lo ~hi);
  expect "a select_all missing its last position does not"
    (Array.sub a 0 (Array.length a - 1) <> Oracle.select_all o ~prefix ~lo ~hi);
  let k = 10 in
  let top = Result.get_ok (Static.range_topk ~lo ~hi idx ~k) in
  expect "range_topk passes the check" (Oracle.check_topk o ~lo ~hi ~k top);
  let bumped = Array.copy top in
  bumped.(k - 1) <- (fst top.(k - 1), snd top.(k - 1) + 1);
  expect "a top-k with a wrong count fails" (not (Oracle.check_topk o ~lo ~hi ~k bumped));
  let reversed = Array.of_list (List.rev (Array.to_list top)) in
  expect "a top-k out of order fails" (not (Oracle.check_topk o ~lo ~hi ~k reversed));
  let dl = 500 and dh = 1524 in
  let d = Result.get_ok (Static.range_distinct ~lo:dl ~hi:dh idx) in
  expect "range_distinct passes the check" (Oracle.check_distinct o ~lo:dl ~hi:dh d);
  expect "a range_distinct with one string dropped fails"
    (not (Oracle.check_distinct o ~lo:dl ~hi:dh (Array.sub d 1 (Array.length d - 1))));
  let n = Array.length data in
  let j = Option.get (Array.find_index (fun s -> s <> data.(0)) data) in
  let swapped i = if i = 0 then data.(j) else if i = j then data.(0) else data.(i) in
  expect "an intact reopened store passes" (Oracle.check_reopened o ~n_got:n ~got:(Array.get data) = 0);
  expect "two acknowledged strings swapped count twice"
    (Oracle.check_reopened o ~n_got:n ~got:swapped = 2);
  expect "a lost acknowledged string counts"
    (Oracle.check_reopened o ~n_got:(n - 1) ~got:(Array.get data) = 1);
  if !failures > 0 then exit 1
