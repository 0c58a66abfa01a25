(** [serve-trickle] and [serve-saturate]: the [hot] index behind an
    in-process {!Wt_serve.Server} on its own domain, configured as
    [wtrie serve] runs it ([Server.default_config ()], probes and the
    runtime-events bridge on), driven over loopback TCP by the
    benchmark's own [Wire]-level load generator, which checks every
    reply against the oracle.

    - trickle: open loop, 1 connection at a fixed 1000 req/s; each
      request is timed from its scheduled send time, so a stall also
      charges the requests queued behind it.  The generator polls
      for the last 250 us before each send instead of sleeping through
      it, so its own wake-up latency stays out of the measurement.
    - saturate: closed loop, 2 connections x 64 requests in flight (the
      shape of [Client.run_load ~conns:2 ~window:64]). *)

open Util
module Server = Wt_serve.Server
module Client = Wt_serve.Client
module Wire = Wt_serve.Wire
module Probe = Wt_obs.Probe

type mode = Trickle | Saturate

let rate = 1000.
let conns_of = function Trickle -> 1 | Saturate -> 2
let window = 64
let warmup_ns = 500_000_000
let drain_ns = 5_000_000_000
let pool_size = 65536

(* A trickle run whose generator sends more than one interval late at
   p90 has fallen behind its own schedule and measured itself, not the
   server: it is reported invalid.  (The p99 is reported but not used:
   on a shared 2-core VM even a bare [select] sleep overshoots by ~1 ms
   at p99.) *)
let late_limit_us = 1e6 /. rate

(* The trickle generator sleeps until this long before a send is due and
   polls from there, so its own wake-up latency stays out of the
   measurement without keeping a core busy between sends. *)
let spin_ns = 250_000.

(* ---- the engine closure handed to Server.create ---- *)

type meter = {
  mutable busy_ns : int;
  mutable ops : int;
  mutable op_weighted_ns : float;  (** sum over ops of their batch's engine time *)
  ebuf : Spans.buf;
}

let meter () = { busy_ns = 0; ops = 0; op_weighted_ns = 0.; ebuf = Spans.create 2 }

(* Only touched by the server domain; read after it is joined. *)
let metered_backend m =
  let b = Server.static_backend in
  {
    b with
    Server.engine =
      (fun ?pool ?domains trie ops ->
        let t0 = now_ns () in
        let r = b.Server.engine ?pool ?domains trie ops in
        let t1 = now_ns () in
        let k = Array.length ops in
        m.busy_ns <- m.busy_ns + (t1 - t0);
        m.ops <- m.ops + k;
        m.op_weighted_ns <- m.op_weighted_ns +. (float_of_int (t1 - t0) *. float_of_int k);
        Spans.add m.ebuf ~rid:k "engine.call" ~t0 ~t1;
        r);
  }

type running = { srv : Server.t; dom : unit Domain.t; t_start : int }

let start backend idx =
  let t_start = now_ns () in
  let srv =
    Server.create ~config:(Server.default_config ()) ~backend (Wt_par.Snapshot.create idx)
  in
  let dom = Domain.spawn (fun () -> Server.serve srv) in
  let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) () in
  if not (Client.ping c) then failwith "server did not answer ping";
  Client.close c;
  { srv; dom; t_start }

(* returns the server domain's wall time in ns *)
let stop r =
  Server.request_stop r.srv;
  Domain.join r.dom;
  now_ns () - r.t_start

(* ---- the load generator ---- *)

type conn = {
  fd : Unix.file_descr;
  rd : Wire.reader;
  out : Buffer.t;
  mutable off : int;
  inflight : (int, int * int) Hashtbl.t;  (** rid -> (pool index, scheduled ns) *)
  mutable alive : bool;
}

type pass = {
  lat : Samples.t;  (** us, requests due inside the measured window *)
  late : Samples.t;  (** us the generator sent after the schedule *)
  mutable replies : int;  (** replies arriving inside the measured window *)
  mutable enc_ns : int;
  mutable dec_ns : int;
  mutable enc_n : int;
  mutable dec_n : int;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  { fd; rd = Wire.reader (); out = Buffer.create 65536; off = 0; inflight = Hashtbl.create 256;
    alive = true }

let drive ~mode ~port ~ops ~expected ~seconds ~(tally : tally) ~traced ~cbuf =
  let p =
    { lat = Samples.create (); late = Samples.create ();
      replies = 0;
      enc_ns = 0; dec_ns = 0; enc_n = 0; dec_n = 0 }
  in
  let cs = Array.init (conns_of mode) (fun _ -> connect port) in
  let t_start = now_ns () in
  let t_warm = t_start + warmup_ns in
  let t_end = t_warm + int_of_float (seconds *. 1e9) in
  let next_rid = ref 1 and next_op = ref 0 in
  let next_due = ref (float_of_int t_start) in
  let interval = 1e9 /. rate in
  let scratch = Bytes.create 65536 in
  let send c ~sched =
    let i = !next_op mod Array.length ops in
    incr next_op;
    let rid = !next_rid in
    incr next_rid;
    let req = { Wire.id = rid; timeout_us = 0; body = Wire.Query ops.(i) } in
    let s =
      if traced then begin
        let t0 = now_ns () in
        let s = Wire.encode_request req in
        p.enc_ns <- p.enc_ns + (now_ns () - t0);
        p.enc_n <- p.enc_n + 1;
        s
      end
      else Wire.encode_request req
    in
    Buffer.add_string c.out s;
    Hashtbl.replace c.inflight rid (i, sched);
    tally.attempted <- tally.attempted + 1
  in
  let kill c =
    if c.alive then begin
      c.alive <- false;
      tally.lost <- tally.lost + Hashtbl.length c.inflight;
      Hashtbl.reset c.inflight;
      try Unix.close c.fd with Unix.Unix_error _ -> ()
    end
  in
  let flush c =
    let pending = Buffer.length c.out - c.off in
    if c.alive && pending > 0 then
      match Unix.write_substring c.fd (Buffer.contents c.out) c.off pending with
      | n ->
          c.off <- c.off + n;
          if c.off = Buffer.length c.out then begin
            Buffer.clear c.out;
            c.off <- 0
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> kill c
  in
  let absorb c payload =
    let decoded =
      if traced then begin
        let t0 = now_ns () in
        let d = Wire.decode_reply payload in
        p.dec_ns <- p.dec_ns + (now_ns () - t0);
        p.dec_n <- p.dec_n + 1;
        d
      end
      else Wire.decode_reply payload
    in
    let now = now_ns () in
    match decoded with
    | Error _ -> tally.bad <- tally.bad + 1
    | Ok { Wire.rid; status } -> (
        match Hashtbl.find_opt c.inflight rid with
        | None -> tally.bad <- tally.bad + 1
        | Some (i, sched) ->
            Hashtbl.remove c.inflight rid;
            (match status with
            | Wire.Ok_value v -> Oracle.check tally ~expected:expected.(i) (Ok v)
            | Wire.Query_error e -> Oracle.check tally ~expected:expected.(i) (Error e)
            | Wire.Overloaded -> tally.shed <- tally.shed + 1
            | Wire.Deadline_exceeded -> tally.expired <- tally.expired + 1
            | Wire.Pong | Wire.Bad_request _ -> tally.bad <- tally.bad + 1);
            if sched >= t_warm && sched < t_end then begin
              Samples.add p.lat (ns_to_us (now - sched))
            end;
            if now >= t_warm && now < t_end then p.replies <- p.replies + 1;
            if traced then Spans.add cbuf ~rid "client.request" ~t0:sched ~t1:now)
  in
  let read c =
    match Unix.read c.fd scratch 0 (Bytes.length scratch) with
    | 0 -> kill c
    | n ->
        Wire.feed c.rd scratch 0 n;
        let continue = ref true in
        while !continue do
          match Wire.next c.rd with
          | Wire.Frame payload -> absorb c payload
          | Wire.Need_more -> continue := false
          | Wire.Broken _ ->
              kill c;
              continue := false
        done
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> kill c
  in
  let outstanding () = Array.exists (fun c -> c.alive && Hashtbl.length c.inflight > 0) cs in
  let fin = ref false in
  while not !fin do
    let now = now_ns () in
    if now < t_end then begin
      match mode with
      | Trickle ->
          let c = cs.(0) in
          while c.alive && int_of_float !next_due <= now do
            let due = int_of_float !next_due in
            send c ~sched:due;
            if due >= t_warm then Samples.add p.late (ns_to_us (now - due));
            next_due := !next_due +. interval
          done
      | Saturate ->
          Array.iter
            (fun c ->
              while c.alive && Hashtbl.length c.inflight < window do
                send c ~sched:now
              done)
            cs
    end;
    Array.iter flush cs;
    if now >= t_end && ((not (outstanding ())) || now >= t_end + drain_ns) then fin := true
    else begin
      let timeout =
        match mode with
        | Trickle when now < t_end ->
            Float.max 0. ((!next_due -. float_of_int now -. spin_ns) /. 1e9)
        | _ -> 0.05
      in
      let live = List.filter (fun c -> c.alive) (Array.to_list cs) in
      let rds = List.map (fun c -> c.fd) live in
      let wrs = List.filter_map (fun c -> if Buffer.length c.out > c.off then Some c.fd else None) live in
      match Unix.select rds wrs [] timeout with
      | r, _, _ -> List.iter (fun c -> if List.memq c.fd r then read c) live
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  Array.iter kill cs;
  p

(* ---- the workload ---- *)

let setups = 3

let run ~mode ~seed ~seconds ~traced (r : report) =
  (* as [wtrie serve] runs: recording on, runtime-events bridge on *)
  Probe.enable ();
  Wt_obs.Runtime.start ();
  let g = Inputs.generator Hot ~seed in
  let data = Wt_workload.Urls.raw_sequence g (Inputs.size Hot) in
  let raw_bytes = Array.fold_left (fun a s -> a + String.length s) 0 data in
  let o = Oracle.of_array data in
  let ops, expected = Inputs.point_pool o g (Inputs.rng seed) pool_size in
  (* set-up: index build, server start and the first ping answered; the
     last of [setups] is kept, the others are stopped and collected so
     they do not count in the peak RSS *)
  let rec setup_n k times =
    let t0 = now_ns () in
    let idx = Wtrie.Static.of_array data in
    let build_s = ns_to_s (now_ns () - t0) in
    let running = start Server.static_backend idx in
    let times = ns_to_s (now_ns () - t0) :: times in
    if k = 1 then (idx, running, build_s, times)
    else begin
      ignore (stop running);
      Gc.full_major ();
      setup_n (k - 1) times
    end
  in
  let idx, running, build_s, times = setup_n (if traced then 1 else setups) [] in
  let port = Server.port running.srv in
  let space_ratio = float_of_int (Wtrie.Static.space_bits idx) /. 8. /. float_of_int raw_bytes in
  let tput (p : pass) secs = float_of_int p.replies /. secs in
  let late_check (p : pass) =
    if mode = Trickle then begin
      let late = Samples.pct p.late 0.9 in
      info "generator lateness: p50=%.1fus p90=%.1fus p99=%.1fus max=%.1fus over %d sends"
        (Samples.pct p.late 0.5) late (Samples.pct p.late 0.99) (Samples.pct p.late 1.)
        (Samples.count p.late);
      if late > late_limit_us then
        r.invalid <-
          Some
            (Printf.sprintf "open-loop generator sent %.0fus late at p90 (limit %.0fus)" late
               late_limit_us)
    end
  in
  let cbuf = Spans.create 1 in
  if not traced then begin
    let p = drive ~mode ~port ~ops ~expected ~seconds ~tally:r.t ~traced:false ~cbuf in
    ignore (stop running);
    report_lat "request latency" p.lat;
    late_check p;
    set r "throughput_ops_s" (tput p seconds);
    set r "lat_p50_us" (Samples.pct p.lat 0.50);
    set r "setup_s" (median (Array.of_list times));
    set r "space_ratio" space_ratio;
    set r "peak_rss_mb" (peak_rss_mb ());
    []
  end
  else begin
    (* untraced half first, for the tracing overhead; then a fresh server
       with the metered engine for the traced half *)
    let half = seconds /. 2. in
    let pu = drive ~mode ~port ~ops ~expected ~seconds:half ~tally:r.t ~traced:false ~cbuf in
    ignore (stop running);
    let m = meter () in
    let running = start (metered_backend m) idx in
    Probe.reset ();
    Spans.on := true;
    let p =
      drive ~mode ~port:(Server.port running.srv) ~ops ~expected ~seconds:half ~tally:r.t
        ~traced:true ~cbuf
    in
    let wall_ns = stop running in
    ignore (Wt_obs.Runtime.poll ());
    report_lat "request latency (traced)" p.lat;
    late_check p;
    let st = Server.stats running.srv in
    let qw = Probe.histogram Serve_queue_wait in
    let tput_u = tput pu half and tput_t = tput p half in
    let engine_mean_us = m.op_weighted_ns /. float_of_int (max 1 m.ops) /. 1e3 in
    let stats = Wt_core.Flat_wt.stats idx in
    List.iter
      (fun (k, v) -> set r k v)
      [
        ("lat_p90_us", Samples.pct pu.lat 0.90);
        ("lat_p99_us", Samples.pct pu.lat 0.99);
        ("serve.queue_wait_p50_us", ns_to_us qw.p50_ns);
        ("serve.queue_wait_p99_us", ns_to_us qw.p99_ns);
        ("serve.ops_per_batch", float_of_int st.requests /. float_of_int (max 1 st.batches));
        ("serve.batches", float_of_int st.batches);
        ("serve.engine_ns_per_op", float_of_int m.busy_ns /. float_of_int (max 1 m.ops));
        ("serve.engine_busy_frac", float_of_int m.busy_ns /. float_of_int wall_ns);
        ("serve.outside_engine_us_mean", Samples.mean p.lat -. (qw.mean_ns /. 1e3) -. engine_mean_us);
        ("serve.shed", float_of_int st.shed);
        ("serve.expired", float_of_int st.expired);
        ("serve.bad_frames", float_of_int st.bad_frames);
        ("client.encode_ns", float_of_int p.enc_ns /. float_of_int (max 1 p.enc_n));
        ("client.decode_ns", float_of_int p.dec_ns /. float_of_int (max 1 p.dec_n));
        ("client.gen_late_p99_us", if mode = Trickle then Samples.pct p.late 0.99 else 0.);
        ("flat.build_s", build_s);
        ("flat.bits_per_string", float_of_int (Wtrie.Static.space_bits idx) /. float_of_int (Array.length data));
        ("flat.space_vs_lb", float_of_int (Wtrie.Static.space_bits idx) /. Wt_core.Stats.lower_bound stats);
        ("rt.gc_frac", float_of_int (Probe.counter Rt_gc_ns) /. float_of_int wall_ns);
        ("rt.gc_major_p99_us", ns_to_us (Probe.histogram Rt_gc_major).p99_ns);
        ( "trace.overhead_frac",
          match mode with
          | Trickle -> (Samples.pct p.lat 0.5 /. Samples.pct pu.lat 0.5) -. 1.
          | Saturate -> (tput_u /. tput_t) -. 1. );
      ];
    [ cbuf; m.ebuf ]
  end
