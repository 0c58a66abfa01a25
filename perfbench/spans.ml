(** In-memory spans for the traced run, recorded by the benchmark around
    its calls into each layer and written out as Chrome [trace_event]
    JSON when the run ends (loadable in Perfetto, like [wtrie trace]
    output).  A span has a name, start, end, parent span and request
    id.  Each buffer belongs to one domain ("track"), so recording takes
    no locks; the id counter is the only shared state. *)

let on = ref false
(* Set before any recording domain is spawned and left alone while they
   run. *)

let next_id = Atomic.make 1

type buf = {
  track : int;
  mutable name : string array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable id : int array;
  mutable parent : int array;
  mutable rid : int array;
  mutable n : int;
}

let create track =
  let c = 1024 in
  {
    track;
    name = Array.make c "";
    t0 = Array.make c 0;
    t1 = Array.make c 0;
    id = Array.make c 0;
    parent = Array.make c 0;
    rid = Array.make c 0;
    n = 0;
  }

let grow b =
  let c = 2 * Array.length b.t0 in
  let g a d =
    let x = Array.make c d in
    Array.blit a 0 x 0 b.n;
    x
  in
  b.name <- g b.name "";
  b.t0 <- g b.t0 0;
  b.t1 <- g b.t1 0;
  b.id <- g b.id 0;
  b.parent <- g b.parent 0;
  b.rid <- g b.rid 0

let fresh_id () = Atomic.fetch_and_add next_id 1

(* Record a span measured elsewhere (e.g. a request timed from its
   scheduled send).  Ids come from {!fresh_id} when children need one. *)
let add b ?(id = fresh_id ()) ?(parent = -1) ?(rid = -1) name ~t0 ~t1 =
  if b.n = Array.length b.t0 then grow b;
  let i = b.n in
  b.name.(i) <- name;
  b.t0.(i) <- t0;
  b.t1.(i) <- t1;
  b.id.(i) <- id;
  b.parent.(i) <- parent;
  b.rid.(i) <- rid;
  b.n <- i + 1

(* [span b name f] times [f id] as a span when tracing is on; [id] is
   the span's id, to pass as [~parent] to its children (-1 when off). *)
let span b ?parent ?rid name f =
  if not !on then f (-1)
  else begin
    let id = fresh_id () in
    let t0 = Util.now_ns () in
    let r = f id in
    add b ~id ?parent ?rid name ~t0 ~t1:(Util.now_ns ());
    r
  end

(* Per span name: count, mean duration and mean self time in us, where
   self time is the span's duration minus the part its children cover. *)
let self_times bufs =
  let child = Hashtbl.create 4096 in
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        if b.parent.(i) >= 0 then
          Hashtbl.replace child b.parent.(i)
            ((b.t1.(i) - b.t0.(i)) + Option.value (Hashtbl.find_opt child b.parent.(i)) ~default:0)
      done)
    bufs;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        let dur = b.t1.(i) - b.t0.(i) in
        let self = max 0 (dur - Option.value (Hashtbl.find_opt child b.id.(i)) ~default:0) in
        let c, d, s = Option.value (Hashtbl.find_opt acc b.name.(i)) ~default:(0, 0, 0) in
        Hashtbl.replace acc b.name.(i) (c + 1, d + dur, s + self)
      done)
    bufs;
  Hashtbl.fold
    (fun name (c, d, s) l ->
      (name, c, float_of_int d /. float_of_int c /. 1e3, float_of_int s /. float_of_int c /. 1e3)
      :: l)
    acc []
  |> List.sort compare

let write path bufs =
  let oc = open_out path in
  let t_base =
    List.fold_left
      (fun m b ->
        let r = ref m in
        for i = 0 to b.n - 1 do
          r := min !r b.t0.(i)
        done;
        !r)
      max_int bufs
  in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        if not !first then output_char oc ',';
        first := false;
        Printf.fprintf oc
          "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"rid\":%d}}"
          b.name.(i) b.track
          (float_of_int (b.t0.(i) - t_base) /. 1e3)
          (float_of_int (b.t1.(i) - b.t0.(i)) /. 1e3)
          b.id.(i) b.parent.(i) b.rid.(i)
      done)
    bufs;
  output_string oc "\n]}\n";
  close_out oc
