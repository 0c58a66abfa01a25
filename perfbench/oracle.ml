(** The plain-array oracle every workload checks its answers against:
    per-string and per-prefix sorted position arrays for the point ops,
    and a naive window tally for the range analytics.  It indexes a
    prefix [\[0, n)] of an input array and can grow by one string at a
    time, so the ingest workload checks reads against exactly what has
    been ingested so far. *)

module Is = Wt_core.Indexed_sequence

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  (* number of elements < [x] (the array is ascending) *)
  let lower_bound v x =
    let lo = ref 0 and hi = ref v.n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v.a.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo
end

(* A generated URL is "http://<host>.example.com/<dir>/.../file<i>";
   the workloads query two of its prefixes: the host, and the host plus
   its first directory.  Host names are unique and both prefixes end in
   '/', so a URL starts with one of these prefixes exactly when the
   prefix is one of its own two. *)
let prefixes url =
  let h = String.index_from url 7 '/' in
  let d = String.index_from url (h + 1) '/' in
  [ String.sub url 0 (h + 1); String.sub url 0 (d + 1) ]

type t = {
  strs : string array;
  mutable n : int;
  pos : (string, Vec.t) Hashtbl.t;
  ppos : (string, Vec.t) Hashtbl.t;
}

let create strs = { strs; n = 0; pos = Hashtbl.create 4096; ppos = Hashtbl.create 4096 }

let vec tbl k =
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None ->
      let v = Vec.create () in
      Hashtbl.add tbl k v;
      v

(* index the next string of [strs] *)
let add o =
  let s = o.strs.(o.n) in
  Vec.push (vec o.pos s) o.n;
  List.iter (fun p -> Vec.push (vec o.ppos p) o.n) (prefixes s);
  o.n <- o.n + 1

let of_array strs =
  let o = create strs in
  Array.iter (fun _ -> add o) strs;
  o

let empty = Vec.create ()
let find tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:empty
let occurrences o s = (find o.pos s).Vec.n
let prefix_occurrences o p = (find o.ppos p).Vec.n

(* The answer to a valid op; the generators only make valid ones. *)
let expect o (op : Is.op) : (Is.value, Is.error) result =
  let sel v count =
    if count < 0 || count >= v.Vec.n then invalid_arg "Oracle.expect: select past the end";
    Ok (Is.Int v.Vec.a.(count))
  in
  let rnk v pos =
    if pos < 0 || pos > o.n then invalid_arg "Oracle.expect: rank out of bounds";
    Ok (Is.Int (Vec.lower_bound v pos))
  in
  match op with
  | Access { pos } ->
      if pos < 0 || pos >= o.n then invalid_arg "Oracle.expect: access out of bounds";
      Ok (Is.Str o.strs.(pos))
  | Rank { s; pos } -> rnk (find o.pos s) pos
  | Select { s; count } -> sel (find o.pos s) count
  | Rank_prefix { prefix; pos } -> rnk (find o.ppos prefix) pos
  | Select_prefix { prefix; count } -> sel (find o.ppos prefix) count

(* Count one checked answer. *)
let check (t : Util.tally) ~expected got =
  t.attempted <- t.attempted + 1;
  if got <> expected then t.wrong <- t.wrong + 1

(* ---- range analytics ---- *)

let range_count o ~prefix ~lo ~hi =
  let v = find o.ppos prefix in
  Vec.lower_bound v hi - Vec.lower_bound v lo

let select_all o ~prefix ~lo ~hi =
  let v = find o.ppos prefix in
  let a = Vec.lower_bound v lo in
  Array.sub v.Vec.a a (Vec.lower_bound v hi - a)

(* the naive window tally: string -> occurrences in [lo, hi) *)
let tally o ~lo ~hi =
  let t = Hashtbl.create 1024 in
  for i = lo to hi - 1 do
    let s = o.strs.(i) in
    Hashtbl.replace t s (1 + Option.value (Hashtbl.find_opt t s) ~default:0)
  done;
  t

let check_distinct o ~lo ~hi (got : (string * int) array) =
  let want = Hashtbl.fold (fun s c acc -> (s, c) :: acc) (tally o ~lo ~hi) [] in
  List.sort compare want = List.sort compare (Array.to_list got)

(* Top-k ties may break either way, so check the defining properties:
   the right size, true counts, no repeats, most frequent first, and no
   left-out string more frequent than the last one reported. *)
let check_topk o ~lo ~hi ~k (got : (string * int) array) =
  let t = tally o ~lo ~hi in
  let n = Array.length got in
  let seen = Hashtbl.create 16 in
  n = min k (Hashtbl.length t)
  && Array.for_all
       (fun (s, c) ->
         let fresh = not (Hashtbl.mem seen s) in
         Hashtbl.replace seen s ();
         fresh && Hashtbl.find_opt t s = Some c)
       got
  && (let ok = ref true in
      for i = 1 to n - 1 do
        if snd got.(i) > snd got.(i - 1) then ok := false
      done;
      !ok)
  && (n = 0
     ||
     let last = snd got.(n - 1) in
     Hashtbl.fold (fun s c ok -> ok && (Hashtbl.mem seen s || c <= last)) t true)

(* After a reopen: [n_got] strings, [got i] the string at position [i].
   Returns the number of acknowledged strings that are missing or out
   of place, plus any extra strings. *)
let check_reopened o ~n_got ~got =
  let bad = ref (abs (n_got - o.n)) in
  for i = 0 to min n_got o.n - 1 do
    if got i <> o.strs.(i) then incr bad
  done;
  !bad
