(* Tests for the Section 5 range algorithms of lib/analytics (sequential
   access, distinct, at-least, majority, count, top-k, quantile), over
   all three Wavelet Trie variants, against naive scans. *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Xoshiro = Wt_bits.Xoshiro
module I = Wt_core.Indexed_sequence
module Analytics = Wt_analytics.Analytics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let tallies = Alcotest.(list (pair string int))

let words =
  [| "a"; "ab"; "abc"; "b"; "ba"; "bb"; "c"; "ca"; "cb"; "cc" |]

let make_seq rng n = Array.init n (fun _ -> words.(Xoshiro.int rng (Array.length words)))

let encode = Binarize.of_bytes

(* naive helpers over the raw word array *)
let naive_slice seq lo hi = Array.to_list (Array.sub seq lo (hi - lo))

let naive_distinct seq lo hi =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun w -> Hashtbl.replace tbl w (1 + Option.value ~default:0 (Hashtbl.find_opt tbl w)))
    (naive_slice seq lo hi);
  Hashtbl.fold (fun w c acc -> (w, c) :: acc) tbl [] |> List.sort compare

let naive_majority seq lo hi =
  let total = hi - lo in
  List.find_opt (fun (_, c) -> 2 * c > total) (naive_distinct seq lo hi)

let naive_at_least seq lo hi t =
  List.filter (fun (_, c) -> c >= t) (naive_distinct seq lo hi)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Format.asprintf "%a" I.pp_error e)

(* Small wrappers let the same exercise run over each variant: the
   byte-string front door for the QUERY_API ops, the bitstring-level
   functor for sequential access (which is not part of it). *)
type ops = {
  iter : ?prefix:string -> lo:int -> hi:int -> (string -> unit) -> unit;
  distinct : ?prefix:string -> lo:int -> hi:int -> unit -> (string * int) list;
  majority : ?prefix:string -> lo:int -> hi:int -> unit -> (string * int) option;
  at_least : ?prefix:string -> lo:int -> hi:int -> threshold:int -> unit -> (string * int) list;
  count_range : prefix:string -> lo:int -> hi:int -> int;
}

let word_prefix w =
  (* the encoded bit-prefix meaning "starts with byte string w" *)
  let e = encode w in
  Bitstring.prefix e (Bitstring.length e - 1)

let make_ops (type a) (module V : Wtrie.QUERY_API with type t = a)
    (iter_range : ?prefix:Bitstring.t -> a -> lo:int -> hi:int -> (Bitstring.t -> unit) -> unit)
    (wt : a) =
  {
    iter =
      (fun ?prefix ~lo ~hi f ->
        iter_range ?prefix:(Option.map word_prefix prefix) wt ~lo ~hi (fun s ->
            f (Binarize.to_bytes s)));
    distinct =
      (fun ?prefix ~lo ~hi () -> Array.to_list (ok (V.range_distinct ?prefix ~lo ~hi wt)));
    majority = (fun ?prefix ~lo ~hi () -> ok (V.range_majority ?prefix ~lo ~hi wt));
    at_least =
      (fun ?prefix ~lo ~hi ~threshold () ->
        Array.to_list (ok (V.range_distinct ?prefix ~min_count:threshold ~lo ~hi wt)));
    count_range = (fun ~prefix ~lo ~hi -> ok (V.range_count ~prefix wt ~lo ~hi));
  }

module Static_bits = Analytics.Make (Wt_core.Flat_wt.Node)
module Append_bits = Analytics.Make (Wt_core.Append_wt.Node)
module Dynamic_bits = Analytics.Make (Wt_core.Dynamic_wt.Node)

let static_ops seq =
  make_ops (module Wtrie.Static) Static_bits.iter_range (Wtrie.Static.of_array seq)

let append_ops seq =
  make_ops (module Wtrie.Append) Append_bits.iter_range (Wtrie.Append.of_array seq)

let dynamic_ops seq =
  make_ops (module Wtrie.Dynamic) Dynamic_bits.iter_range (Wtrie.Dynamic.of_array seq)

let exercise name ops seq rng =
  let n = Array.length seq in
  for _ = 1 to 60 do
    let lo = Xoshiro.int rng (n + 1) in
    let hi = lo + Xoshiro.int rng (n - lo + 1) in
    (* sequential access *)
    let got = ref [] in
    ops.iter ~lo ~hi (fun s -> got := s :: !got);
    Alcotest.(check (list string))
      (name ^ " iter_range") (naive_slice seq lo hi) (List.rev !got);
    (* distinct: lexicographic, no sorting needed *)
    Alcotest.check tallies (name ^ " distinct") (naive_distinct seq lo hi)
      (ops.distinct ~lo ~hi ());
    (* majority *)
    Alcotest.(check (option (pair string int)))
      (name ^ " majority") (naive_majority seq lo hi) (ops.majority ~lo ~hi ());
    (* at_least *)
    let t = 1 + Xoshiro.int rng 5 in
    Alcotest.check tallies (name ^ " at_least")
      (naive_at_least seq lo hi t)
      (ops.at_least ~lo ~hi ~threshold:t ());
    (* prefix-restricted variants, using byte prefixes "a", "b", "c" *)
    let p = [| "a"; "b"; "c" |].(Xoshiro.int rng 3) in
    let matching =
      List.filter (fun w -> String.length w >= 1 && String.sub w 0 1 = p) (naive_slice seq lo hi)
    in
    check_int (name ^ " count_range") (List.length matching) (ops.count_range ~prefix:p ~lo ~hi);
    let got = ref [] in
    ops.iter ~prefix:p ~lo ~hi (fun s -> got := s :: !got);
    Alcotest.(check (list string)) (name ^ " iter prefix") matching (List.rev !got);
    let naive_pref_distinct =
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun w -> Hashtbl.replace tbl w (1 + Option.value ~default:0 (Hashtbl.find_opt tbl w)))
        matching;
      Hashtbl.fold (fun w c acc -> (w, c) :: acc) tbl [] |> List.sort compare
    in
    Alcotest.check tallies (name ^ " distinct prefix") naive_pref_distinct
      (ops.distinct ~prefix:p ~lo ~hi ());
    (* majority among the prefix-matching positions *)
    let total = List.length matching in
    Alcotest.(check (option (pair string int)))
      (name ^ " majority prefix")
      (List.find_opt (fun (_, c) -> 2 * c > total) naive_pref_distinct)
      (ops.majority ~prefix:p ~lo ~hi ())
  done

let test_static () =
  let rng = Xoshiro.create 100 in
  let seq = make_seq rng 300 in
  exercise "static" (static_ops seq) seq rng

let test_variants () =
  let rng = Xoshiro.create 200 in
  let seq = make_seq rng 250 in
  let qrng = Xoshiro.create 999 in
  exercise "static" (static_ops seq) seq qrng;
  let qrng = Xoshiro.create 999 in
  exercise "append" (append_ops seq) seq qrng;
  let qrng = Xoshiro.create 999 in
  exercise "dynamic" (dynamic_ops seq) seq qrng

let test_edge_cases () =
  (* empty trie *)
  let ops = static_ops [||] in
  Alcotest.check tallies "distinct empty" [] (ops.distinct ~lo:0 ~hi:0 ());
  Alcotest.(check (option (pair string int)))
    "majority empty" None (ops.majority ~lo:0 ~hi:0 ());
  (* singleton *)
  let wt = Wtrie.Static.of_array [| "xyz" |] in
  let ops = static_ops [| "xyz" |] in
  Alcotest.(check (option (pair string int)))
    "majority singleton" (Some ("xyz", 1)) (ops.majority ~lo:0 ~hi:1 ());
  (* missing prefix *)
  check_int "absent prefix" 0 (ops.count_range ~prefix:"q" ~lo:0 ~hi:1);
  Alcotest.check tallies "absent prefix distinct" [] (ops.distinct ~prefix:"q" ~lo:0 ~hi:1 ());
  Alcotest.(check (option (pair string int)))
    "absent prefix majority" None (ops.majority ~prefix:"q" ~lo:0 ~hi:1 ());
  (* a threshold of 0 or 1 keeps every distinct string *)
  Alcotest.check tallies "at_least 0" [ ("xyz", 1) ] (ops.at_least ~lo:0 ~hi:1 ~threshold:0 ());
  (* bad ranges and negative counts are errors, not exceptions *)
  let err = Alcotest.testable I.pp_error ( = ) in
  let expect_error name want = function
    | Error e -> Alcotest.check err name want e
    | Ok _ -> Alcotest.failf "%s: expected an error" name
  in
  expect_error "bad range" (I.Position_out_of_bounds { pos = 0; len = 1 })
    (Wtrie.Static.range_distinct ~lo:1 ~hi:0 wt);
  expect_error "bad majority range" (I.Position_out_of_bounds { pos = 2; len = 1 })
    (Wtrie.Static.range_majority ~hi:2 wt);
  expect_error "bad threshold" (I.Negative_count { count = -1 })
    (Wtrie.Static.range_distinct ~min_count:(-1) wt);
  expect_error "bad quantile" (I.Negative_count { count = -1 })
    (Wtrie.Static.range_quantile wt ~k:(-1))

let naive_top_k seq lo hi k =
  naive_distinct seq lo hi
  |> List.stable_sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun i _ -> i < k)

let test_top_k () =
  let rng = Xoshiro.create 777 in
  let seq = make_seq rng 400 in
  let wt = Wtrie.Static.of_array seq in
  let top_k ?prefix ~lo ~hi k = Array.to_list (ok (Wtrie.Static.range_topk ?prefix ~lo ~hi wt ~k)) in
  for _ = 1 to 60 do
    let lo = Xoshiro.int rng 401 in
    let hi = lo + Xoshiro.int rng (400 - lo + 1) in
    let k = Xoshiro.int rng 6 in
    (* most frequent first; equal counts in lexicographic order (the
       naive list is lex-sorted before the stable count sort) *)
    Alcotest.check tallies "top-k" (naive_top_k seq lo hi k) (top_k ~lo ~hi k)
  done;
  (* k larger than the distinct count returns everything *)
  let all = top_k ~lo:0 ~hi:400 1000 in
  check_int "k too large" (List.length (naive_distinct seq 0 400)) (List.length all);
  (* with a prefix restriction *)
  let got = top_k ~prefix:"a" ~lo:0 ~hi:400 3 in
  check_int "prefixed k" 3 (List.length got);
  List.iter (fun (s, _) -> check_bool "prefixed" true (s.[0] = 'a')) got

let test_quantile () =
  let rng = Xoshiro.create 888 in
  let seq = make_seq rng 350 in
  let wt = Wtrie.Static.of_array seq in
  let quantile ?prefix ~lo ~hi k = ok (Wtrie.Static.range_quantile ?prefix ~lo ~hi wt ~k) in
  for _ = 1 to 80 do
    let lo = Xoshiro.int rng 351 in
    let hi = lo + Xoshiro.int rng (350 - lo + 1) in
    if hi > lo then begin
      (* sorted multiset of the byte strings in range *)
      let sorted = List.sort compare (naive_slice seq lo hi) in
      let k = Xoshiro.int rng (hi - lo) in
      Alcotest.(check (option string)) "quantile" (Some (List.nth sorted k)) (quantile ~lo ~hi k);
      Alcotest.(check (option string))
        "quantile out of range" None (quantile ~lo ~hi (hi - lo));
      (* median = quantile at (hi-lo)/2 *)
      Alcotest.(check (option string))
        "median"
        (Some (List.nth sorted ((hi - lo) / 2)))
        (quantile ~lo ~hi ((hi - lo) / 2))
    end
  done;
  (* prefix-restricted: k-th smallest among strings with the prefix *)
  let matching = List.sort compare (List.filter (fun w -> w.[0] = 'b') (naive_slice seq 0 350)) in
  List.iteri
    (fun k expected ->
      if k < 5 then
        Alcotest.(check (option string))
          "prefixed quantile" (Some expected)
          (quantile ~prefix:"b" ~lo:0 ~hi:350 k))
    matching

let test_big_skewed () =
  (* majority exists on a skewed range; at_least finds the heavy hitters *)
  let seq = Array.make 1000 "heavy" in
  for i = 0 to 399 do
    seq.(2 * i) <- [| "x"; "y"; "z" |].(i mod 3)
  done;
  (* seq has 600 "heavy" plus 400 others interleaved in the first 800 *)
  let ops = static_ops seq in
  (match ops.majority ~lo:0 ~hi:1000 () with
  | Some (s, c) ->
      Alcotest.(check string) "majority heavy" "heavy" s;
      check_bool "majority count" true (c > 500)
  | None -> Alcotest.fail "expected a majority");
  let heavies = ops.at_least ~lo:0 ~hi:1000 ~threshold:100 () in
  check_bool "at_least finds heavy+x,y,z" true (List.length heavies = 4)

let () =
  Alcotest.run "wt_range"
    [
      ( "range",
        [
          Alcotest.test_case "static vs naive" `Quick test_static;
          Alcotest.test_case "all variants vs naive" `Quick test_variants;
          Alcotest.test_case "edge cases" `Quick test_edge_cases;
          Alcotest.test_case "top-k vs naive" `Quick test_top_k;
          Alcotest.test_case "quantile vs naive" `Quick test_quantile;
          Alcotest.test_case "skewed data" `Quick test_big_skewed;
        ] );
    ]
