(** Clock, sample sets, failure tallies and the result record every
    workload fills. *)

let now_ns () = Wt_obs.Probe.now_ns ()
let ns_to_us ns = float_of_int ns /. 1e3
let ns_to_s ns = float_of_int ns /. 1e9

(* A growable float array of samples; percentiles are exact
   nearest-rank over the sorted samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n
  let clear t = t.n <- 0

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  let mean t = if t.n = 0 then 0. else sum t /. float_of_int t.n

  let pct t q =
    if t.n = 0 then 0.
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort Float.compare s;
      let r = int_of_float (Float.ceil (q *. float_of_int t.n)) - 1 in
      s.(max 0 (min (t.n - 1) r))
    end

  (* how many samples lie strictly above the [q] percentile's rank *)
  let beyond t q = t.n - int_of_float (Float.ceil (q *. float_of_int t.n))
end

let median xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then 0. else if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Every answer is checked; anything that is not a correct answer counts
   as a failure against the attempts. *)
type tally = {
  mutable attempted : int;
  mutable wrong : int;
  mutable shed : int;
  mutable expired : int;
  mutable lost : int;
  mutable bad : int;
  mutable missing : int;  (** acknowledged strings absent after reopen *)
}

let tally () =
  { attempted = 0; wrong = 0; shed = 0; expired = 0; lost = 0; bad = 0; missing = 0 }

let failed t = t.wrong + t.shed + t.expired + t.lost + t.bad + t.missing

let pp_tally t =
  Printf.sprintf "attempted=%d wrong=%d shed=%d expired=%d lost=%d bad=%d missing=%d"
    t.attempted t.wrong t.shed t.expired t.lost t.bad t.missing

(* What one run reports: named metric values plus the tally.  [invalid]
   is set when the run could not measure what it claims (an open-loop
   generator that fell behind its schedule). *)
type report = {
  values : (string, float) Hashtbl.t;
  t : tally;
  mutable invalid : string option;
}

let report () = { values = Hashtbl.create 64; t = tally (); invalid = None }
let set r name v = Hashtbl.replace r.values name v

let info fmt = Printf.ksprintf (fun s -> print_string ("# " ^ s ^ "\n")) fmt

(* Latency percentiles with their sample counts, as the run log shows
   them. *)
let report_lat name s =
  info "%s: n=%d p50=%.1fus p75=%.1fus p90=%.1fus p99=%.1fus (%d samples beyond p99) mean=%.1fus"
    name (Samples.count s) (Samples.pct s 0.50) (Samples.pct s 0.75) (Samples.pct s 0.90)
    (Samples.pct s 0.99) (Samples.beyond s 0.99) (Samples.mean s)

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* Sum of the sizes of the regular files directly under [dir]. *)
let dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then acc else acc + (Unix.stat p).Unix.st_size)
    0 (Sys.readdir dir)
