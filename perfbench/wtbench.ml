(* wtbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one benchmark workload and prints, as its last line,
   "RESULT <json>" with the check tally and every metric it measured;
   perfbench/run.py turns that into the benchmark's result line.  Lines
   before it ("# ...", "ENV <json>") are the run log. *)

open Perfbench

let workloads = [ "serve-trickle"; "serve-saturate"; "query-local"; "ingest-mixed" ]
let out_dir = ".bench_build/perfbench"

let usage () =
  prerr_endline
    ("usage: wtbench --workload (" ^ String.concat "|" workloads
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let json_str s = Printf.sprintf "%S" s

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := int_of_string t; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1)
  then usage ();
  (* the program must run on its own defaults (Server.default_config,
     Pool.default_size), which WTRIE_* variables override *)
  (match
     List.filter
       (fun kv -> String.starts_with ~prefix:"WTRIE_" kv)
       (Array.to_list (Unix.environment ()))
   with
  | [] -> ()
  | set ->
      Printf.eprintf "wtbench: refusing to run with %s set\n" (String.concat ", " set);
      exit 2);
  let traced = !trace = 1 in
  Printf.printf "ENV {\"workload\":%s,\"seed\":%d,\"seconds\":%s,\"trace\":%d,\"ocaml\":%s,\"recommended_domain_count\":%d,\"pool_default_size\":%d}\n%!"
    (json_str !workload) !seed (json_float !seconds) !trace (json_str Sys.ocaml_version)
    (Domain.recommended_domain_count ()) (Wt_par.Pool.default_size ());
  Util.mkdir_p out_dir;
  let r = Util.report () in
  let seed = !seed and seconds = !seconds in
  let bufs =
    match !workload with
    | "serve-trickle" -> Serve_wl.run ~mode:Trickle ~seed ~seconds ~traced r
    | "serve-saturate" -> Serve_wl.run ~mode:Saturate ~seed ~seconds ~traced r
    | "query-local" -> Local_wl.run ~seed ~seconds ~traced r
    | _ ->
        Ingest_wl.run ~seed ~seconds ~traced
          ~workdir:(Filename.concat out_dir (Printf.sprintf "store-%d" (Unix.getpid ())))
          r
  in
  if traced then begin
    let path = Printf.sprintf "%s/trace-%s-seed%d.json" out_dir !workload seed in
    Spans.write path bufs;
    Util.info "spans written to %s" path;
    List.iter
      (fun (name, n, dur, self) ->
        Util.info "span %-22s n=%-7d mean=%9.1fus self=%9.1fus" name n dur self)
      (Spans.self_times bufs)
  end;
  Util.info "checks: %s" (Util.pp_tally r.t);
  let values =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.values [] |> List.sort compare
    |> List.map (fun (k, v) -> Printf.sprintf "%s:%s" (json_str k) (json_float v))
  in
  Printf.printf "RESULT {\"attempted\":%d,\"failed\":%d,\"invalid\":%s,\"values\":{%s}}\n%!"
    r.t.attempted (Util.failed r.t)
    (match r.invalid with Some m -> json_str m | None -> "null")
    (String.concat "," values)
