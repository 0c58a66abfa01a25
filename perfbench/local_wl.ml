(** [query-local]: the [wide] index in process, no socket.  Batches of
    512 point ops go through [Wtrie.Static.query_batch ~domains:2];
    between batches the range analytics run through the front door:
    [range_count ~prefix] and [select_all ~prefix] over 64k windows,
    [range_topk ~k:10] over 16k and [range_distinct] over 1k. *)

open Util
module Probe = Wt_obs.Probe
module Static = Wtrie.Static

let batch_ops = 512
let pool_batches = 64
let pool_ranges = 32
let count_window = 65536
let topk_window = 16384
let topk_k = 10
let distinct_window = 1024

(* range analytics run after every [range_every]-th batch, so a run holds
   enough batches for a p99 with ten samples beyond it *)
let range_every = 8
let setups = 3

type range = { prefix : string; lo : int; hi : int }

let ranges o g rng w =
  Array.init pool_ranges (fun _ ->
      let lo = Random.State.int rng (o.Oracle.n - w) in
      { prefix = Inputs.pick_prefix rng (Wt_workload.Urls.next g); lo; hi = lo + w })

(* One timed front-door range call per kind; [ok] checks the answer. *)
type kind = { name : string; pool : range array; call : range -> bool; lat : Samples.t }

let kinds idx o g rng =
  let ok_res f = function Ok v -> f v | Error _ -> false in
  let k name w call = { name; pool = ranges o g rng w; call; lat = Samples.create () } in
  [|
    k "range_count" count_window (fun q ->
        ok_res
          (fun c -> c = Oracle.range_count o ~prefix:q.prefix ~lo:q.lo ~hi:q.hi)
          (Static.range_count ~prefix:q.prefix idx ~lo:q.lo ~hi:q.hi));
    k "select_all" count_window (fun q ->
        ok_res
          (fun a -> a = Oracle.select_all o ~prefix:q.prefix ~lo:q.lo ~hi:q.hi)
          (Static.select_all ~prefix:q.prefix ~lo:q.lo ~hi:q.hi idx));
    k "topk" topk_window (fun q ->
        ok_res (Oracle.check_topk o ~lo:q.lo ~hi:q.hi ~k:topk_k)
          (Static.range_topk ~lo:q.lo ~hi:q.hi idx ~k:topk_k));
    k "distinct" distinct_window (fun q ->
        ok_res (Oracle.check_distinct o ~lo:q.lo ~hi:q.hi)
          (Static.range_distinct ~lo:q.lo ~hi:q.hi idx));
  |]

let check t expected res = Array.iteri (fun j v -> Oracle.check t ~expected:expected.(j) v) res

(* Counters read around one call: the deltas attribute work to it. *)
let counters = [| Wt_obs.Metric.Rrr_rank; Rrr_select; Rrr_access; Wt_nodes_visited; Bv_cursor_hit; Bv_cursor_miss |]
let snap () = Array.map Probe.counter counters

type pass = {
  lat : Samples.t;  (** us per 512-op batch *)
  range_lat : Samples.t;  (** us per range query, all kinds *)
  mutable point_ns : int;
  mutable point_ops : int;
  (* traced only *)
  mutable par_ns : int;
  mutable exec_ns : int;
  mutable exec_levels : int;
  mutable exec_batches : int;
  deltas : int array;
}

let run ~seed ~seconds ~traced (r : report) =
  let g = Inputs.generator Wide ~seed in
  let data = Wt_workload.Urls.raw_sequence g (Inputs.size Wide) in
  let raw_bytes = Array.fold_left (fun a s -> a + String.length s) 0 data in
  let o = Oracle.of_array data in
  let rng = Inputs.rng seed in
  let batches = Array.init pool_batches (fun _ -> Inputs.point_pool o g rng batch_ops) in
  (* set-up: the index build; the last of [setups] is kept, the others
     are collected so they do not count in the peak RSS *)
  let rec build k times =
    let t0 = now_ns () in
    let idx = Static.of_array data in
    let times = ns_to_s (now_ns () - t0) :: times in
    if k = 1 then (idx, times)
    else begin
      Gc.full_major ();
      build (k - 1) times
    end
  in
  let idx, times = build (if traced then 1 else setups) [] in
  let build_s = List.hd times in
  let kinds = kinds idx o g rng in
  let buf = Spans.create 0 in
  let pass ~traced ~seconds =
    let p =
      { lat = Samples.create ();
        range_lat = Samples.create (); point_ns = 0; point_ops = 0;
        par_ns = 0; exec_ns = 0; exec_levels = 0; exec_batches = 0;
        deltas = Array.make (Array.length counters) 0 }
    in
    Array.iter (fun (k : kind) -> Samples.clear k.lat) kinds;
    let timed f =
      let t0 = now_ns () in
      let x = f () in
      (x, now_ns () - t0)
    in
    let round ~record i =
      let ops, expected = batches.(i mod pool_batches) in
      Spans.span buf ~rid:i "local.round" (fun parent ->
          let before = if traced then snap () else [||] in
          let res, ns =
            Spans.span buf ~parent ~rid:i "api.query_batch" (fun _ ->
                timed (fun () -> Static.query_batch ~domains:2 idx ops))
          in
          check r.t expected res;
          if record then begin
            Samples.add p.lat (ns_to_us ns);
            p.point_ns <- p.point_ns + ns;
            p.point_ops <- p.point_ops + batch_ops
          end;
          if traced then begin
            let after = snap () in
            Array.iteri (fun j b -> p.deltas.(j) <- p.deltas.(j) + after.(j) - b) before;
            let res, ns =
              Spans.span buf ~parent ~rid:i "par.query_batch" (fun _ ->
                  timed (fun () ->
                      Wt_par.Par_exec.query_batch ~domains:2 Wt_exec.Exec.Static.query_batch idx ops))
            in
            check r.t expected res;
            p.par_ns <- p.par_ns + ns;
            let lv0 = (Probe.histogram Exec_level).count and b0 = Probe.counter Exec_batch in
            let res, ns =
              Spans.span buf ~parent ~rid:i "exec.query_batch" (fun _ ->
                  timed (fun () -> Wt_exec.Exec.Static.query_batch idx ops))
            in
            check r.t expected res;
            p.exec_ns <- p.exec_ns + ns;
            p.exec_levels <- p.exec_levels + (Probe.histogram Exec_level).count - lv0;
            p.exec_batches <- p.exec_batches + Probe.counter Exec_batch - b0;
            ignore (Wt_obs.Runtime.poll ())
          end;
          if i mod range_every = 0 then
            Array.iter
              (fun k ->
                let q = k.pool.(i / range_every mod pool_ranges) in
                let ok, ns =
                  Spans.span buf ~parent ~rid:i ("api." ^ k.name) (fun _ ->
                      timed (fun () -> k.call q))
                in
                Oracle.check r.t ~expected:true ok;
                if record then begin
                  Samples.add k.lat (ns_to_us ns);
                  Samples.add p.range_lat (ns_to_us ns)
                end)
              kinds)
    in
    (* warm-up: caches and the domain pool, unrecorded *)
    for i = 0 to range_every - 1 do
      round ~record:false i
    done;
    let t_end = now_ns () + int_of_float (seconds *. 1e9) in
    let i = ref 0 in
    while now_ns () < t_end do
      round ~record:true !i;
      incr i
    done;
    p
  in
  (* point ops per second of batch time *)
  let tput p = float_of_int p.point_ops /. ns_to_s p.point_ns in
  let space_bits = Static.space_bits idx in
  if not traced then begin
    let p = pass ~traced:false ~seconds in
    report_lat "batch latency (512 ops)" p.lat;
    report_lat "range query latency" p.range_lat;
    Array.iter (fun (k : kind) -> report_lat k.name k.lat) kinds;
    set r "throughput_ops_s" (tput p);
    set r "lat_p50_us" (Samples.pct p.lat 0.50);
    set r "setup_s" (median (Array.of_list times));
    set r "space_ratio" (float_of_int space_bits /. 8. /. float_of_int raw_bytes);
    set r "peak_rss_mb" (peak_rss_mb ());
    []
  end
  else begin
    let half = seconds /. 2. in
    let pu = pass ~traced:false ~seconds:half in
    set r "lat_p90_us" (Samples.pct pu.lat 0.90);
    set r "lat_p99_us" (Samples.pct pu.lat 0.99);
    set r "range_p50_us" (Samples.pct pu.range_lat 0.50);
    set r "range_p99_us" (Samples.pct pu.range_lat 0.99);
    Probe.reset ();
    Probe.enable ();
    Wt_obs.Runtime.start ();
    Spans.on := true;
    let t0 = now_ns () in
    let p = pass ~traced:true ~seconds:half in
    let wall_ns = now_ns () - t0 in
    ignore (Wt_obs.Runtime.poll ());
    report_lat "batch latency (512 ops, traced)" p.lat;
    let ops = float_of_int p.point_ops in
    let per_op j = float_of_int p.deltas.(j) /. ops in
    let exec_ns_op = float_of_int p.exec_ns /. ops and par_ns_op = float_of_int p.par_ns /. ops in
    let stats = Wt_core.Flat_wt.stats idx in
    let k name = (Array.to_list kinds |> List.find (fun k -> k.name = name)).lat in
    List.iter
      (fun (k, v) -> set r k v)
      [
        ("api.ns_per_op", float_of_int p.point_ns /. ops);
        ("par.ns_per_op_2d", par_ns_op);
        ("par.speedup_2d", exec_ns_op /. par_ns_op);
        ("par.queue_wait_p50_us", ns_to_us (Probe.histogram Par_queue_wait).p50_ns);
        ( "par.steal_frac",
          float_of_int (Probe.counter Par_steal) /. float_of_int (max 1 (Probe.counter Par_task)) );
        ("exec.ns_per_op", exec_ns_op);
        ("exec.levels_per_batch", float_of_int p.exec_levels /. float_of_int (max 1 p.exec_batches));
        ( "bv.cursor_hit_ratio",
          float_of_int p.deltas.(4) /. float_of_int (max 1 (p.deltas.(4) + p.deltas.(5))) );
        ("flat.build_s", build_s);
        ("flat.bits_per_string", float_of_int space_bits /. float_of_int (Array.length data));
        ("flat.space_vs_lb", float_of_int space_bits /. Wt_core.Stats.lower_bound stats);
        ("core.nodes_per_op", per_op 3);
        ("rrr.rank_per_op", per_op 0);
        ("rrr.select_per_op", per_op 1);
        ("rrr.access_per_op", per_op 2);
        ("analytics.range_count_p50_us", Samples.pct (k "range_count") 0.5);
        ("analytics.select_all_p50_us", Samples.pct (k "select_all") 0.5);
        ("analytics.topk_p50_us", Samples.pct (k "topk") 0.5);
        ("analytics.distinct_p50_us", Samples.pct (k "distinct") 0.5);
        ("rt.gc_frac", float_of_int (Probe.counter Rt_gc_ns) /. float_of_int wall_ns);
        ("rt.gc_major_p99_us", ns_to_us (Probe.histogram Rt_gc_major).p99_ns);
        ("trace.overhead_frac", (tput pu /. tput p) -. 1.);
      ];
    [ buf ]
  end
