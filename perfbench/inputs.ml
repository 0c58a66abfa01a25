(** Inputs made from the seed: the two Zipf URL datasets and the op
    streams drawn over them.  Query strings and prefixes come from the
    same generator stream as the data, so popular strings repeat in the
    queries as they do in the data. *)

module Urls = Wt_workload.Urls
module Is = Wt_core.Indexed_sequence

(* [Hot]: 50 hosts x 40 paths, about 2k distinct strings; the index
   (~0.4 MB) fits in L2 and queries share heavily.  [Wide]: 2000 hosts
   x 200 paths, tens of thousands of distinct strings; the index
   (~6 MB) does not fit in L2 and queries share little. *)
type dataset = Hot | Wide

let generator ds ~seed =
  match ds with
  | Hot -> Urls.create ~seed ()
  | Wide -> Urls.create ~seed ~hosts:2000 ~paths_per_host:200 ()

let size = function Hot -> 131072 | Wide -> 262144
let rng seed = Random.State.make [| seed; 0x5eed |]

let pick_prefix rng s =
  match Oracle.prefixes s with
  | [ host; dir ] -> if Random.State.bool rng then host else dir
  | _ -> assert false

(* The point-op mix shared by the serve and local workloads: access 40%,
   rank 25%, rank_prefix 15%, select 10%, select_prefix 10%.  Selects
   name an occurrence that exists, redrawing strings that do not occur. *)
let rec point_op (o : Oracle.t) g rng : Is.op =
  let n = o.n in
  let x = Random.State.int rng 100 in
  let s = Urls.next g in
  if x < 40 then Access { pos = Random.State.int rng n }
  else if x < 65 then Rank { s; pos = Random.State.int rng n }
  else if x < 80 then Rank_prefix { prefix = pick_prefix rng s; pos = Random.State.int rng n }
  else if x < 90 then
    match Oracle.occurrences o s with
    | 0 -> point_op o g rng
    | c -> Select { s; count = Random.State.int rng c }
  else
    let prefix = pick_prefix rng s in
    match Oracle.prefix_occurrences o prefix with
    | 0 -> point_op o g rng
    | c -> Select_prefix { prefix; count = Random.State.int rng c }

(* [m] point ops with their expected answers. *)
let point_pool o g rng m =
  let ops = Array.init m (fun _ -> point_op o g rng) in
  (ops, Array.map (Oracle.expect o) ops)

(* The reads beside ingest: access, rank and rank_prefix in equal parts
   over what has been ingested so far. *)
let read_op (o : Oracle.t) g rng : Is.op =
  let s = Urls.next g in
  let pos = Random.State.int rng o.n in
  match Random.State.int rng 3 with
  | 0 -> Access { pos }
  | 1 -> Rank { s; pos }
  | _ -> Rank_prefix { prefix = pick_prefix rng s; pos }
