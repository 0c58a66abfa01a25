(** [ingest-mixed]: a [Wtrie.Tiered] store with the default threshold
    fed a [wide] stream, whose alphabet keeps growing.  Strings go in
    through [Tiered.ingest] in groups of 64, each group acknowledged by
    [Tiered.flush] (fsync); one point read per 8 ingests goes through
    [access]/[rank]/[rank_prefix] and is checked against the oracle of
    everything ingested so far.  Compaction runs on the store's own
    domain.  At the end the benchmark waits for compaction, closes and
    reopens the store, and checks that every acknowledged string is
    present, in order, at its position. *)

open Util
module Tiered = Wtrie.Tiered
module Probe = Wt_obs.Probe
module Is = Wt_core.Indexed_sequence

let group = 64
let read_every = 8
let stream_len = 262144
let setups = 21
let reopens = 5
let check_chunk = 4096

type pass = {
  lat : Samples.t;  (** us per read *)
  write : Samples.t;  (** us from a string's ingest call to the return of its flush *)
  ingest_call : Samples.t;
  flush : Samples.t;
  mutable acked : int;
  mutable raw_bytes : int;
  mutable wall_ns : int;
  mutable wal_written : int;
  mutable compactions : int;
  mutable final_wait_ns : int;
  mutable runs : int;
  mutable run_bytes : int;
  mutable store_bytes : int;
  mutable recover_s : float;
  mutable replayed : int;
}

let read t (op : Is.op) : (Is.value, Is.error) result =
  match op with
  | Access { pos } -> Result.map (fun s -> Is.Str s) (Tiered.access t ~pos)
  | Rank { s; pos } -> Result.map (fun c -> Is.Int c) (Tiered.rank t s ~pos)
  | Rank_prefix { prefix; pos } -> Result.map (fun c -> Is.Int c) (Tiered.rank_prefix t ~prefix ~pos)
  | Select _ | Select_prefix _ -> invalid_arg "Ingest_wl.read"

(* Reopen the closed store [reopens] times (each replays the WAL), then
   check the last reopened store against every acknowledged string. *)
let reopen_and_check dir (o : Oracle.t) (tally : tally) p =
  let rec go k times =
    let t0 = now_ns () in
    let t, rcv = Tiered.open_ dir in
    let times = ns_to_s (now_ns () - t0) :: times in
    if k > 1 then begin
      Tiered.close t;
      go (k - 1) times
    end
    else (t, rcv, times)
  in
  let t, rcv, times = go reopens [] in
  p.recover_s <- median (Array.of_list times);
  p.replayed <- rcv.Tiered.r_replayed;
  let n = Tiered.length t in
  let got = Array.make n "" in
  let lo = ref 0 in
  while !lo < n do
    let len = min check_chunk (n - !lo) in
    let res = Tiered.query_batch t (Array.init len (fun i -> Is.Access { pos = !lo + i })) in
    Array.iteri (fun i -> function Ok (Is.Str s) -> got.(!lo + i) <- s | _ -> ()) res;
    lo := !lo + len
  done;
  Tiered.close t;
  tally.attempted <- tally.attempted + o.n;
  tally.missing <- tally.missing + Oracle.check_reopened o ~n_got:n ~got:(Array.get got)

let run_files dir =
  Array.fold_left
    (fun (k, b) f ->
      if String.starts_with ~prefix:"run-" f then (k + 1, b + (Unix.stat (Filename.concat dir f)).st_size)
      else (k, b))
    (0, 0) (Sys.readdir dir)

(* [g] continues the stream's generator, so reads ask for the strings
   and prefixes the stream is made of. *)
let pass ~g ~rng ~seconds ~buf stream t dir (tally : tally) =
  let o = Oracle.create stream in
  let p =
    { lat = Samples.create ();
      write = Samples.create (); ingest_call = Samples.create ();
      flush = Samples.create (); acked = 0; raw_bytes = 0; wall_ns = 0; wal_written = 0;
      compactions = 0; final_wait_ns = 0; runs = 0; run_bytes = 0; store_bytes = 0;
      recover_s = 0.; replayed = 0 }
  in
  (* WAL bytes written, observed from outside: growth of the log, plus
     the whole rewritten log whenever a compaction rotates it *)
  let wal_prev = ref (Tiered.wal_bytes t) in
  p.wal_written <- !wal_prev;
  let observe_wal () =
    let cur = Tiered.wal_bytes t in
    p.wal_written <- p.wal_written + (if cur >= !wal_prev then cur - !wal_prev else cur);
    wal_prev := cur
  in
  let gen0 = Tiered.generation t in
  let starts = Array.make group 0 in
  let t_start = now_ns () in
  let t_end = t_start + int_of_float (seconds *. 1e9) in
  let gi = ref 0 in
  while now_ns () < t_end && o.n + group <= stream_len do
    Spans.span buf ~rid:!gi "ingest.group" (fun parent ->
        for j = 0 to group - 1 do
          let s = stream.(o.n) in
          let t0 = now_ns () in
          starts.(j) <- t0;
          Spans.span buf ~parent "tiered.ingest" (fun _ -> Tiered.ingest t s);
          Samples.add p.ingest_call (ns_to_us (now_ns () - t0));
          observe_wal ();
          Oracle.add o;
          p.raw_bytes <- p.raw_bytes + String.length s;
          if (j + 1) mod read_every = 0 then begin
            let op = Inputs.read_op o g rng in
            let t0 = now_ns () in
            let res = Spans.span buf ~parent "tiered.read" (fun _ -> read t op) in
            Samples.add p.lat (ns_to_us (now_ns () - t0));
            Oracle.check tally ~expected:(Oracle.expect o op) res
          end
        done;
        let t0 = now_ns () in
        Spans.span buf ~parent "tiered.flush" (fun _ -> Tiered.flush t);
        let t1 = now_ns () in
        Samples.add p.flush (ns_to_us (t1 - t0));
        Array.iter (fun s -> Samples.add p.write (ns_to_us (t1 - s))) starts;
        p.acked <- p.acked + group);
    ignore (Wt_obs.Runtime.poll ());
    incr gi
  done;
  p.wall_ns <- now_ns () - t_start;
  let t0 = now_ns () in
  Tiered.wait_compaction t;
  p.final_wait_ns <- now_ns () - t0;
  p.compactions <- Tiered.generation t - gen0;
  Tiered.close t;
  let runs, run_bytes = run_files dir in
  p.runs <- runs;
  p.run_bytes <- run_bytes;
  p.store_bytes <- dir_bytes dir;
  reopen_and_check dir o tally p;
  p

let run ~seed ~seconds ~traced ~workdir (r : report) =
  let g = Inputs.generator Wide ~seed in
  let stream = Wt_workload.Urls.raw_sequence g stream_len in
  let rng = Inputs.rng seed in
  rm_rf workdir;
  mkdir_p workdir;
  (* set-up: create a fresh store, median over several *)
  let create k =
    let dir = Filename.concat workdir (Printf.sprintf "store-%d" k) in
    let t0 = now_ns () in
    let t = Tiered.create dir in
    (t, dir, ns_to_s (now_ns () - t0))
  in
  let rec create_n k times =
    let t, dir, s = create k in
    if k = 1 then (t, dir, s :: times)
    else begin
      Tiered.close t;
      rm_rf dir;
      create_n (k - 1) (s :: times)
    end
  in
  let buf = Spans.create 0 in
  let tput p = float_of_int p.acked /. ns_to_s p.wall_ns in
  let bufs =
    if not traced then begin
      let t, dir, times = create_n setups [] in
      let p = pass ~g ~rng ~seconds ~buf stream t dir r.t in
      report_lat "read latency" p.lat;
      report_lat "write (ingest to acknowledging flush)" p.write;
      info "acked=%d compactions=%d runs=%d recover_s=%.4f replayed=%d" p.acked p.compactions
        p.runs p.recover_s p.replayed;
      set r "throughput_ops_s" (tput p);
      set r "lat_p50_us" (Samples.pct p.lat 0.50);
      set r "setup_s" (median (Array.of_list times));
      set r "space_ratio" (float_of_int p.store_bytes /. float_of_int p.raw_bytes);
      set r "peak_rss_mb" (peak_rss_mb ());
      []
    end
    else begin
      let half = seconds /. 2. in
      let t, dir, _ = create_n 1 [] in
      let pu = pass ~g ~rng ~seconds:half ~buf stream t dir r.t in
      List.iter
        (fun (k, v) -> set r k v)
        [
          ("lat_p90_us", Samples.pct pu.lat 0.90);
          ("lat_p99_us", Samples.pct pu.lat 0.99);
          ("write_p50_us", Samples.pct pu.write 0.50);
          ("write_p99_us", Samples.pct pu.write 0.99);
          ("write_amp", float_of_int (pu.wal_written + pu.run_bytes) /. float_of_int pu.raw_bytes);
          ("recover_s", pu.recover_s);
        ];
      rm_rf dir;
      let t, dir, _ = create_n 1 [] in
      Probe.reset ();
      Probe.enable ();
      Wt_obs.Runtime.start ();
      Spans.on := true;
      let p = pass ~g ~rng ~seconds:half ~buf stream t dir r.t in
      ignore (Wt_obs.Runtime.poll ());
      report_lat "read latency (traced)" p.lat;
      List.iter
        (fun (k, v) -> set r k v)
        [
          ("tiered.ingest_call_p50_us", Samples.pct p.ingest_call 0.50);
          ("tiered.ingest_call_p99_us", Samples.pct p.ingest_call 0.99);
          ("tiered.read_p50_us", Samples.pct p.lat 0.50);
          ("tiered.compactions", float_of_int p.compactions);
          ("tiered.compact_ms_mean", (Probe.histogram Tiered_compact).mean_ns /. 1e6);
          ("tiered.runs_at_end", float_of_int p.runs);
          ("tiered.final_wait_ms", float_of_int p.final_wait_ns /. 1e6);
          ("wal.flush_p50_us", Samples.pct p.flush 0.50);
          ("wal.fsyncs", float_of_int (Probe.counter Tiered_flush));
          ("wal.bytes_per_string", float_of_int p.wal_written /. float_of_int p.acked);
          ("run.bytes_written", float_of_int p.run_bytes);
          ("recover.replayed", float_of_int p.replayed);
          ("rt.gc_frac", float_of_int (Probe.counter Rt_gc_ns) /. float_of_int p.wall_ns);
          ("rt.gc_major_p99_us", ns_to_us (Probe.histogram Rt_gc_major).p99_ns);
          ("trace.overhead_frac", (tput pu /. tput p) -. 1.);
        ];
      [ buf ]
    end
  in
  rm_rf workdir;
  bufs
