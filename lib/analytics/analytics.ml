(** Range analytics (Section 5 of the paper): window queries answered
    by one root-to-frontier traversal instead of a loop of scalar
    queries.

    Every operation works over the position window [\[lo, hi)] of the
    sequence, optionally restricted to strings starting with a prefix
    (the traversal then starts at the node [n_p] of Lemma 3.3):

    - {!Make.select_all} reports every window position whose string
      matches the prefix, ascending — one Patricia descent, then the
      whole occurrence block is mapped back to root positions level by
      level (a batched Lemma 3.3, amortizing the per-level select work
      across the block);
    - {!Make.range_count} is [rank_prefix hi - rank_prefix lo] in a
      single descent, one rank cursor per trail node answering both
      endpoints;
    - {!Make.range_distinct} enumerates the distinct strings present in
      the window with their counts, visiting only subtrees whose window
      count reaches a [min_count] floor — the paper's pruning heuristic
      for frequent values (floor 1: every distinct string; floor
      [⌊w/2⌋+1]: the range majority, along a single path);
    - {!Make.range_topk} pops the [k] most frequent strings off a
      max-priority queue of trie nodes ordered by window count, so only
      nodes whose count can still beat the k-th answer are expanded;
    - {!Make.range_quantile} finds the k-th lexicographically smallest
      string of the window in one O(h) descent (the range-quantile
      algorithm of Gagie–Navarro–Puglisi, which Section 5 builds on);
    - {!Make.iter_range} enumerates the window in order with one lazily
      created bit iterator per touched node (the paper's sequential
      access) — bitstring level only, outside the string API.

    Written once over {!Wt_core.Node_view.CURSORED} and instantiated for
    the static, append-only and fully-dynamic tries; the descents reuse
    {!Wt_core.Query}'s trails and every per-node rank pair goes through
    one {!Wt_core.Node_view.CURSORED.bv_cursor} (the batch engine's
    cursor seam), since the two window endpoints arrive monotone.

    All operations are pure reads: they are safe on [Dynamic_wt.snapshot]
    copies published through [Wt_par.Snapshot] while the owner mutates. *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Probe = Wt_obs.Probe
module Trace = Wt_obs.Trace
module Iseq = Wt_core.Indexed_sequence

let bit0 = Bitstring.of_bool_list [ false ]
let bit1 = Bitstring.of_bool_list [ true ]

(** Bitstring-level algorithms.  Windows are assumed valid
    ([0 <= lo <= hi <= length]) and [k] non-negative; the byte-string
    façade ({!Make_string}) validates and reports {!Iseq.error}s. *)
module Make (N : Wt_core.Node_view.CURSORED) = struct
  module Q = Wt_core.Query.Make (N)

  type t = N.trie

  let length = N.length

  (* The window [lo, hi) down-mapped into the subsequence of the node
     covering the prefix (np of Lemma 3.3), plus the descent trail
     (root-first) and the bitstring spelled from the root down to and
     including np's label. *)
  type window = {
    node : N.node;
    trail : (N.node * bool) array;
    path : Bitstring.t;
    lo : int;
    hi : int;
  }

  (* One Patricia descent resolves the prefix; then one rank cursor per
     trail node down-maps both window endpoints (monotone: lo <= hi).
     [None] when the sequence is empty or no stored string starts with
     the prefix. *)
  let resolve ?prefix trie ~lo ~hi =
    match N.root trie with
    | None -> None
    | Some root -> (
        match prefix with
        | None -> Some { node = root; trail = [||]; path = N.label root; lo; hi }
        | Some p -> (
            match Q.prefix_trail trie p with
            | None -> None
            | Some (np, rev_trail) ->
                let trail = Array.of_list (List.rev rev_trail) in
                let lo = ref lo and hi = ref hi in
                let pieces = ref [] in
                Array.iter
                  (fun (node, b) ->
                    let cur = N.bv_cursor node in
                    lo := N.cursor_rank cur b !lo;
                    hi := N.cursor_rank cur b !hi;
                    pieces := (if b then bit1 else bit0) :: N.label node :: !pieces)
                  trail;
                let path = Bitstring.concat (List.rev (N.label np :: !pieces)) in
                Some { node = np; trail; path; lo = !lo; hi = !hi }))

  let range_count ?prefix trie ~lo ~hi =
    match resolve ?prefix trie ~lo ~hi with None -> 0 | Some w -> w.hi - w.lo

  (* Map one level's ascending occurrence indices [out] (indices into the
     [b]-subsequence of [node]'s β) back to β positions, in place.  When
     the block is dense in β — the hits span fewer than [scan_factor]
     positions per hit — a single bit scan from the first hit replaces
     the per-index directory selects; two boundary selects decide. *)
  let scan_factor = 8

  let up_level node b out =
    let c = Array.length out in
    Probe.hit Wt_nodes_visited;
    let first = N.bv_select node b out.(0) in
    if c = 1 then out.(0) <- first
    else begin
      let last = N.bv_select node b out.(c - 1) in
      if last - first < scan_factor * c then begin
        (* dense: one amortized-O(span) scan for the whole block *)
        let next = N.iter_bits node first in
        let cnt = ref out.(0) in
        let k = ref 0 in
        let pos = ref first in
        while !k < c do
          (if next () = b then begin
             if !cnt = out.(!k) then begin
               out.(!k) <- !pos;
               incr k
             end;
             incr cnt
           end);
          incr pos
        done
      end
      else begin
        out.(0) <- first;
        for i = 1 to c - 2 do
          out.(i) <- N.bv_select node b out.(i)
        done;
        out.(c - 1) <- last
      end
    end

  let select_all ?prefix trie ~lo ~hi =
    match resolve ?prefix trie ~lo ~hi with
    | None -> [||]
    | Some w ->
        let c = w.hi - w.lo in
        if c = 0 then [||]
        else begin
          let out = Array.init c (fun i -> w.lo + i) in
          for i = Array.length w.trail - 1 downto 0 do
            let node, b = w.trail.(i) in
            up_level node b out
          done;
          out
        end

  (* Subtrees whose window count is below [min_count] are pruned: a
     node's count bounds the count of every string below it. *)
  let range_distinct ?prefix ?(min_count = 1) trie ~lo ~hi =
    let floor = max 1 min_count in
    match resolve ?prefix trie ~lo ~hi with
    | None -> [||]
    | Some w ->
        let acc = ref [] in
        let rec go node path lo hi =
          Probe.hit Wt_nodes_visited;
          if N.is_leaf node then acc := (path, hi - lo) :: !acc
          else begin
            let cur = N.bv_cursor node in
            let z_lo = N.cursor_rank cur false lo in
            let z_hi = N.cursor_rank cur false hi in
            (if z_hi - z_lo >= floor then
               let c0 = N.child node false in
               go c0 (Bitstring.concat [ path; bit0; N.label c0 ]) z_lo z_hi);
            let o_lo = lo - z_lo and o_hi = hi - z_hi in
            if o_hi - o_lo >= floor then begin
              let c1 = N.child node true in
              go c1 (Bitstring.concat [ path; bit1; N.label c1 ]) o_lo o_hi
            end
          end
        in
        if w.hi - w.lo >= floor then go w.node w.path w.lo w.hi;
        (* 0-subtrees were visited first, so [acc] is reverse-lex *)
        Array.of_list (List.rev !acc)

  (* The k-th (0-based) smallest string of the window, counting
     multiplicity: take the 0-branch while it holds more than k window
     elements, else discount them and go right.  [k >= 0]. *)
  let range_quantile ?prefix trie ~lo ~hi ~k =
    match resolve ?prefix trie ~lo ~hi with
    | None -> None
    | Some w when k >= w.hi - w.lo -> None
    | Some w ->
        let rec go node path lo hi k =
          Probe.hit Wt_nodes_visited;
          if N.is_leaf node then Some path
          else begin
            let cur = N.bv_cursor node in
            let z_lo = N.cursor_rank cur false lo in
            let z_hi = N.cursor_rank cur false hi in
            let zeros = z_hi - z_lo in
            if k < zeros then
              let c0 = N.child node false in
              go c0 (Bitstring.concat [ path; bit0; N.label c0 ]) z_lo z_hi k
            else
              let c1 = N.child node true in
              go c1
                (Bitstring.concat [ path; bit1; N.label c1 ])
                (lo - z_lo) (hi - z_hi) (k - zeros)
          end
        in
        go w.node w.path w.lo w.hi k

  (* Sequential access: a lazily built tree of per-node bit iterators,
     each started at the window's down-mapped position on first use —
     one rank per touched node, then amortized O(1) per emitted bit. *)
  type cursor = {
    cnode : N.node;
    cpath : Bitstring.t;
    next_bit : (unit -> bool) option;  (** [None] for leaves *)
    start : int;  (** subsequence position of the window start *)
    mutable zero : cursor option;
    mutable one : cursor option;
  }

  let make_cursor cnode cpath start =
    let next_bit = if N.is_leaf cnode then None else Some (N.iter_bits cnode start) in
    { cnode; cpath; next_bit; start; zero = None; one = None }

  let child_cursor c b =
    let ch = N.child c.cnode b in
    make_cursor ch
      (Bitstring.concat [ c.cpath; (if b then bit1 else bit0); N.label ch ])
      (N.bv_rank c.cnode b c.start)

  let rec cursor_next c =
    match c.next_bit with
    | None -> c.cpath
    | Some next ->
        let child =
          if next () then (
            match c.one with
            | Some x -> x
            | None ->
                let x = child_cursor c true in
                c.one <- Some x;
                x)
          else
            match c.zero with
            | Some x -> x
            | None ->
                let x = child_cursor c false in
                c.zero <- Some x;
                x
        in
        cursor_next child

  let iter_range ?prefix trie ~lo ~hi f =
    match resolve ?prefix trie ~lo ~hi with
    | Some w when w.lo < w.hi ->
        let c = make_cursor w.node w.path w.lo in
        for _ = w.lo to w.hi - 1 do
          f (cursor_next c)
        done
    | _ -> ()

  type 'node entry = {
    cnt : int;
    path : Bitstring.t;
    enode : 'node;
    elo : int;
    ehi : int;
  }

  (* Entry order for the top-k priority queue: larger window count first,
     lexicographically smaller path on ties.  Path order is sound for
     tie-breaking: a node's path is a prefix of every descendant's, and
     prefixes compare smaller, so an expanded child never outranks a
     leaf already popped ahead of its parent. *)
  let better a b = a.cnt > b.cnt || (a.cnt = b.cnt && Bitstring.compare a.path b.path < 0)

  let range_topk ?prefix trie ~lo ~hi ~k =
    match resolve ?prefix trie ~lo ~hi with
    | None -> [||]
    | Some w ->
        if k = 0 || w.hi = w.lo then [||]
        else begin
          (* binary max-heap of disjoint subtrees, ordered by [better] *)
          let dummy = { cnt = 0; path = Bitstring.empty; enode = w.node; elo = 0; ehi = 0 } in
          let buf = ref (Array.make 16 dummy) in
          let size = ref 0 in
          let swap i j =
            let t = !buf.(i) in
            !buf.(i) <- !buf.(j);
            !buf.(j) <- t
          in
          let push e =
            if !size = Array.length !buf then begin
              let b = Array.make (2 * !size) dummy in
              Array.blit !buf 0 b 0 !size;
              buf := b
            end;
            !buf.(!size) <- e;
            let i = ref !size in
            incr size;
            while !i > 0 && better !buf.(!i) !buf.((!i - 1) / 2) do
              swap !i ((!i - 1) / 2);
              i := (!i - 1) / 2
            done
          in
          let pop () =
            let top = !buf.(0) in
            decr size;
            !buf.(0) <- !buf.(!size);
            let i = ref 0 in
            let sifting = ref true in
            while !sifting do
              let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
              let m = ref !i in
              if l < !size && better !buf.(l) !buf.(!m) then m := l;
              if r < !size && better !buf.(r) !buf.(!m) then m := r;
              if !m = !i then sifting := false
              else begin
                swap !i !m;
                i := !m
              end
            done;
            top
          in
          let out = ref [] in
          let taken = ref 0 in
          push { cnt = w.hi - w.lo; path = w.path; enode = w.node; elo = w.lo; ehi = w.hi };
          while !taken < k && !size > 0 do
            let e = pop () in
            Probe.hit Wt_nodes_visited;
            if N.is_leaf e.enode then begin
              (* no unexpanded subtree can beat a popped leaf *)
              out := (e.path, e.cnt) :: !out;
              incr taken
            end
            else begin
              let cur = N.bv_cursor e.enode in
              let z_lo = N.cursor_rank cur false e.elo in
              let z_hi = N.cursor_rank cur false e.ehi in
              (if z_hi > z_lo then
                 let c0 = N.child e.enode false in
                 push
                   {
                     cnt = z_hi - z_lo;
                     path = Bitstring.concat [ e.path; bit0; N.label c0 ];
                     enode = c0;
                     elo = z_lo;
                     ehi = z_hi;
                   });
              let o_lo = e.elo - z_lo and o_hi = e.ehi - z_hi in
              if o_hi > o_lo then begin
                let c1 = N.child e.enode true in
                push
                  {
                    cnt = o_hi - o_lo;
                    path = Bitstring.concat [ e.path; bit1; N.label c1 ];
                    enode = c1;
                    elo = o_lo;
                    ehi = o_hi;
                  }
              end
            end
          done;
          Array.of_list (List.rev !out)
        end
end

(** What {!Make_string} needs from a bitstring-level implementation:
    {!Make} over a single trie, or the tiered store's merged view.
    Windows are valid and [k >= 0] when these are called. *)
module type BITS = sig
  type t

  val length : t -> int
  val select_all : ?prefix:Bitstring.t -> t -> lo:int -> hi:int -> int array
  val range_count : ?prefix:Bitstring.t -> t -> lo:int -> hi:int -> int

  val range_distinct :
    ?prefix:Bitstring.t -> ?min_count:int -> t -> lo:int -> hi:int -> (Bitstring.t * int) array

  val range_topk :
    ?prefix:Bitstring.t -> t -> lo:int -> hi:int -> k:int -> (Bitstring.t * int) array

  val range_quantile : ?prefix:Bitstring.t -> t -> lo:int -> hi:int -> k:int -> Bitstring.t option
end

(** Byte-string façade: argument validation against the shared
    {!Iseq.error} shape, prefix binarization, leaf-path decoding, and
    observability (one [Analytics_*] counter hit plus a latency sample
    and an [analytics.*] span per call).  Signatures match the range
    half of {!Iseq.QUERY_API}. *)
(* No [type t] here: the module is [include]d next to the variant's
   string façade in [Wtrie], which already fixes [t = B.t]. *)
module Make_string (B : BITS) = struct
  let window t lo hi =
    let len = B.length t in
    let lo = Option.value lo ~default:0 in
    let hi = Option.value hi ~default:len in
    if lo < 0 || lo > len then Error (Iseq.Position_out_of_bounds { pos = lo; len })
    else if hi < lo || hi > len then Error (Iseq.Position_out_of_bounds { pos = hi; len })
    else Ok (lo, hi)

  (* [k] is an occurrence count or index: negative is a usage error *)
  let non_negative k f = if k < 0 then Error (Iseq.Negative_count { count = k }) else f ()
  let bits_prefix = Option.map Wt_core.String_api.encode_prefix
  let decode (path, n) = (Binarize.to_bytes path, n)

  let select_all ?prefix ?lo ?hi t =
    match window t lo hi with
    | Error e -> Error e
    | Ok (lo, hi) ->
        Probe.hit Analytics_select_all;
        Trace.with_span ~args:[ ("lo", lo); ("hi", hi) ] "analytics.select_all"
          (fun () ->
            Probe.time Analytics_select_all (fun () ->
                Ok (B.select_all ?prefix:(bits_prefix prefix) t ~lo ~hi)))

  let range_count ?prefix t ~lo ~hi =
    match window t (Some lo) (Some hi) with
    | Error e -> Error e
    | Ok (lo, hi) ->
        Probe.hit Analytics_range_count;
        Trace.with_span ~args:[ ("lo", lo); ("hi", hi) ] "analytics.range_count"
          (fun () ->
            Probe.time Analytics_range_count (fun () ->
                Ok (B.range_count ?prefix:(bits_prefix prefix) t ~lo ~hi)))

  (* [distinct] takes a validated window and a binarized prefix *)
  let distinct ?prefix ?min_count t ~lo ~hi =
    Probe.hit Analytics_distinct;
    Trace.with_span ~args:[ ("lo", lo); ("hi", hi) ] "analytics.distinct" (fun () ->
        Probe.time Analytics_distinct (fun () ->
            Array.map decode (B.range_distinct ?prefix ?min_count t ~lo ~hi)))

  let range_distinct ?prefix ?(min_count = 1) ?lo ?hi t =
    non_negative min_count @@ fun () ->
    match window t lo hi with
    | Error e -> Error e
    | Ok (lo, hi) -> Ok (distinct ?prefix:(bits_prefix prefix) ~min_count t ~lo ~hi)

  (* More than half of the window's matching strings: at most one
     string reaches that floor, so the pruned walk follows one path. *)
  let range_majority ?prefix ?lo ?hi t =
    match window t lo hi with
    | Error e -> Error e
    | Ok (lo, hi) -> (
        let prefix = bits_prefix prefix in
        let w =
          match prefix with None -> hi - lo | Some _ -> B.range_count ?prefix t ~lo ~hi
        in
        match distinct ?prefix ~min_count:((w / 2) + 1) t ~lo ~hi with
        | [| m |] -> Ok (Some m)
        | _ -> Ok None)

  let range_topk ?prefix ?lo ?hi t ~k =
    non_negative k @@ fun () ->
    match window t lo hi with
    | Error e -> Error e
    | Ok (lo, hi) ->
        Probe.hit Analytics_topk;
        Trace.with_span
          ~args:[ ("lo", lo); ("hi", hi); ("k", k) ]
          "analytics.topk"
          (fun () ->
            Probe.time Analytics_topk (fun () ->
                Ok (Array.map decode (B.range_topk ?prefix:(bits_prefix prefix) t ~lo ~hi ~k))))

  let range_quantile ?prefix ?lo ?hi t ~k =
    non_negative k @@ fun () ->
    match window t lo hi with
    | Error e -> Error e
    | Ok (lo, hi) ->
        Trace.with_span
          ~args:[ ("lo", lo); ("hi", hi); ("k", k) ]
          "analytics.quantile"
          (fun () ->
            Ok
              (Option.map Binarize.to_bytes
                 (B.range_quantile ?prefix:(bits_prefix prefix) t ~lo ~hi ~k)))
end

module Static = Make_string (Make (Wt_core.Flat_wt.Node))
module Pointer = Make_string (Make (Wt_core.Wavelet_trie.Node))
module Append = Make_string (Make (Wt_core.Append_wt.Node))
module Dynamic = Make_string (Make (Wt_core.Dynamic_wt.Node))
