(* xfd_bench: the seeded benchmark.

   xfd_bench measure --workload W [--seed N] [--seconds S] [--trace 0|1]
                     [--format contract|detail] [--perfetto FILE]
       Measure one workload in this process.  The last line of stdout is
       one JSON object: the contract line (end-to-end metrics, or per-layer
       metrics with --trace 1) or, with --format detail, the full record.
   xfd_bench run [--seed N] [--seconds S] [--traced] [--workload W]...
                 [--out-dir DIR]
       Measure every workload (or the named ones), each in its own
       process, print the performance table and write the results file.
       With --traced, each workload runs twice, untraced and traced, and
       the traced record carries the tracing overhead.
   xfd_bench golden --seed N [--workload W] [--stdout]
       Write xfdbench/golden/seed-N.json (or print it) from the Fresh
       oracle; refuses when the Incremental engine disagrees.
   xfd_bench compare BASE.json... -- NEW.json...
       Judge every metric on every workload: exit 0 with no regression,
       1 with one, 2 on bad input.
   xfd_bench table RESULTS.json
       Print the Markdown performance table of a results file.

   Shared options: --benchmark FILE (default BENCHMARK.json),
   --golden-dir DIR (default xfdbench/golden), --cli FILE (the xfd_cli
   executable, default next to this one in the build tree). *)

open Xfdbench
module Json = Xfd_util.Json

let die code fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("xfd_bench: " ^ msg);
      exit code)
    fmt

let rec opt name = function
  | [] -> None
  | k :: v :: _ when k = name -> Some v
  | _ :: rest -> opt name rest

let rec opts name = function
  | [] -> []
  | k :: v :: rest when k = name -> v :: opts name rest
  | _ :: rest -> opts name rest

let int_opt name ~default args =
  match opt name args with
  | None -> default
  | Some s -> (
    match int_of_string_opt s with Some n -> n | None -> die 2 "%s wants an integer" name)

let benchmark args =
  match Results.load_benchmark (Option.value ~default:"BENCHMARK.json" (opt "--benchmark" args)) with
  | Ok b -> b
  | Error e -> die 2 "cannot read the benchmark definition: %s" e

let golden_dir args = Option.value ~default:"xfdbench/golden" (opt "--golden-dir" args)

let workload name =
  match Workload.find name with
  | Some w -> w
  | None ->
    die 2 "unknown workload %S (one of: %s)" name
      (String.concat ", " (List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all))

(* Run this executable with [args]; returns its stdout once it has
   exited successfully. *)
let child args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  match wait () with
  | Unix.WEXITED 0 -> out
  | _ -> die 1 "%s %s failed" exe (String.concat " " args)

let last_line out =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)) with
  | l :: _ -> l
  | [] -> ""

(* The expected verdicts for [w]'s draw: the committed golden when there
   is one, else computed from the Fresh oracle in a child process before
   any timing starts (so its memory and time stay out of the run). *)
let expected_for ~dir ~seed (w : Workload.t) =
  let entries =
    match Golden.load ~dir ~seed with
    | Error e -> die 2 "%s" e
    | Ok (Some g) when List.mem_assoc w.Workload.pool g -> List.assoc w.Workload.pool g
    | Ok _ -> (
      let out =
        child
          [ "golden"; "--seed"; string_of_int seed; "--workload"; w.Workload.name; "--stdout" ]
      in
      match Golden.parse out with
      | Ok g when List.mem_assoc w.Workload.pool g -> List.assoc w.Workload.pool g
      | _ -> die 1 "could not compute the goldens of %s" w.Workload.name)
  in
  if List.map Golden.label entries <> Workload.labels (w.Workload.draw seed) then
    die 2 "the golden of seed %d does not match the inputs %s draws" seed w.Workload.name;
  entries

let print_run (r : Workload.result) =
  Printf.eprintf "%s seed=%d %gs%s: %d attempted, %d failed\n" r.Workload.workload
    r.Workload.seed r.Workload.seconds
    (if r.Workload.traced then " traced" else "")
    r.Workload.attempted r.Workload.failed;
  List.iter
    (fun (name, unit, xs) ->
      match xs with
      | [] -> Printf.eprintf "  %-20s -\n" name
      | xs ->
        let s = Stats.summarize xs in
        Printf.eprintf "  %-20s %12.4g %-5s [%.4g-%.4g] n=%d\n" name s.Stats.median unit
          s.Stats.q1 s.Stats.q3 s.Stats.n)
    (Results.samples r);
  List.iter
    (fun (name, v, unit) -> Printf.eprintf "  %-36s %14.6g %s\n" name v unit)
    r.Workload.layers;
  flush stderr

let measure args =
  let bench = benchmark args in
  let w =
    match opt "--workload" args with
    | Some n -> workload n
    | None -> die 2 "measure needs --workload"
  in
  let seed = int_opt "--seed" ~default:1 args in
  let seconds =
    match opt "--seconds" args with
    | None -> float_of_int bench.Results.run_seconds
    | Some s -> (
      match float_of_string_opt s with
      | Some f when f > 0.0 -> f
      | _ -> die 2 "--seconds wants a positive number")
  in
  let traced =
    match opt "--trace" args with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some _ -> die 2 "--trace wants 0 or 1"
  in
  let detail =
    match opt "--format" args with
    | None | Some "contract" -> false
    | Some "detail" -> true
    | Some f -> die 2 "unknown --format %S" f
  in
  let expected = expected_for ~dir:(golden_dir args) ~seed w in
  let here = Filename.dirname Sys.executable_name in
  let cli =
    Option.value (opt "--cli" args)
      ~default:(Filename.concat here (Filename.concat Filename.parent_dir_name "bin/xfd_cli.exe"))
  in
  let probe = Filename.concat here "core_probe.exe" in
  let r =
    Workload.run
      { Workload.seed; seconds; traced; cli; probe; perfetto = opt "--perfetto" args }
      w expected
  in
  print_run r;
  if detail then print_endline (Json.to_string (Results.detail_json r))
  else
    match Results.contract_json bench r with
    | Ok j -> print_endline (Json.to_string j)
    | Error name -> die 1 "metric %s was not measured on %s" name w.Workload.name

let run args =
  let bench = benchmark args in
  let seed = int_opt "--seed" ~default:1 args in
  let seconds =
    Option.value (opt "--seconds" args) ~default:(string_of_int bench.Results.run_seconds)
  in
  let traced = List.mem "--traced" args in
  let names =
    match opts "--workload" args with
    | [] -> List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all
    | names -> List.map (fun n -> (workload n).Workload.name) names
  in
  let out_dir = Option.value ~default:"_xfdbench" (opt "--out-dir" args) in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p out_dir;
  let passthrough =
    List.concat_map
      (fun k -> match opt k args with Some v -> [ k; v ] | None -> [])
      [ "--benchmark"; "--golden-dir"; "--cli" ]
  in
  let measure_child ~traced name =
    let perfetto =
      if traced then
        [ "--perfetto"; Filename.concat out_dir (Printf.sprintf "%s-seed%d.perfetto.json" name seed) ]
      else []
    in
    let out =
      child
        ([
           "measure"; "--workload"; name; "--seed"; string_of_int seed; "--seconds"; seconds;
           "--trace"; (if traced then "1" else "0"); "--format"; "detail";
         ]
        @ perfetto @ passthrough)
    in
    match Json.of_string (last_line out) with
    | Ok j -> j
    | Error e -> die 1 "bad record from %s: %s" name e
  in
  let details =
    List.map
      (fun name ->
        if not traced then measure_child ~traced:false name
        else
          match (workload name).Workload.draw seed with
          | Workload.Serve _ ->
            (* The daemon runs untraced, so tracing adds nothing to the
               served jobs: no overhead to report. *)
            measure_child ~traced:true name
          | _ ->
            let untraced = measure_child ~traced:false name in
            Results.with_trace_overhead ~untraced (measure_child ~traced:true name))
      names
  in
  let results =
    Results.results_json ~seed ~seconds:(float_of_string seconds) ~traced details
  in
  let path =
    Filename.concat out_dir
      (Printf.sprintf "results-seed%d%s.json" seed (if traced then "-traced" else ""))
  in
  let oc = open_out path in
  output_string oc (Json.to_string_pretty results);
  output_char oc '\n';
  close_out oc;
  print_string (Results.table bench results);
  Printf.printf "(results written to %s)\n" path;
  let failed =
    List.exists (fun d -> Json.member "correct" d <> Some (Json.Bool true)) details
  in
  if failed then exit 1

let golden args =
  let seed = int_opt "--seed" ~default:1 args in
  let ws =
    match opt "--workload" args with
    | Some n -> [ workload n ]
    | None ->
      (* one workload per input pool *)
      List.fold_left
        (fun acc (w : Workload.t) ->
          if List.exists (fun (x : Workload.t) -> x.Workload.pool = w.Workload.pool) acc then acc
          else acc @ [ w ])
        [] Workload.all
  in
  let pools =
    List.map
      (fun (w : Workload.t) ->
        let family = w.Workload.draw seed in
        let fresh = Workload.expected ~engine:`Fresh family in
        (match family with
        | Workload.Detect _ | Workload.Serve _ ->
          if Workload.expected ~engine:`Incremental family <> fresh then
            die 1 "%s: the Incremental engine disagrees with the Fresh oracle; not writing"
              w.Workload.name
        | Workload.Fuzz _ ->
          if
            List.exists
              (fun e ->
                Json.member "divergences" e <> Some (Json.Int 0)
                || Json.member "meta_failures" e <> Some (Json.Int 0))
              fresh
          then die 1 "%s: a fuzz batch is not clean; not writing" w.Workload.name
        | Workload.Lint _ -> ());
        (w.Workload.pool, fresh))
      ws
  in
  if List.mem "--stdout" args then Golden.write stdout ~seed pools
  else begin
    let dir = golden_dir args in
    (match Golden.load ~dir ~seed with
    | Ok (Some old) ->
      let merged =
        List.map (fun (k, v) -> (k, Option.value ~default:v (List.assoc_opt k pools))) old
        @ List.filter (fun (k, _) -> not (List.mem_assoc k old)) pools
      in
      Golden.save ~dir ~seed merged
    | Ok None | Error _ -> Golden.save ~dir ~seed pools);
    Printf.printf "golden written to %s\n" (Golden.file ~dir ~seed)
  end

(* Positional arguments: everything but "--benchmark FILE". *)
let rec positional = function
  | "--benchmark" :: _ :: rest -> positional rest
  | a :: rest -> a :: positional rest
  | [] -> []

let load_all files =
  List.map
    (fun f -> match Results.load_results f with Ok j -> j | Error e -> die 2 "%s" e)
    files

let compare args =
  let bench = benchmark args in
  let files = positional args in
  let base, next =
    let rec split acc = function
      | "--" :: rest -> (List.rev acc, rest)
      | f :: rest -> split (f :: acc) rest
      | [] -> (
        match List.rev acc with
        | [ b; n ] -> ([ b ], [ n ])
        | _ -> die 2 "usage: compare BASE.json... -- NEW.json...")
    in
    split [] files
  in
  if base = [] || next = [] then die 2 "usage: compare BASE.json... -- NEW.json...";
  match Results.compare_sets bench ~base:(load_all base) ~next:(load_all next) with
  | Error e -> die 2 "%s" e
  | Ok rows ->
    Results.print_comparison rows;
    if List.exists (fun r -> r.Results.verdict = Results.Regressed) rows then exit 1

let table args =
  match positional args with
  | [ file ] -> print_string (Results.table (benchmark args) (List.hd (load_all [ file ])))
  | _ -> die 2 "usage: table RESULTS.json"

let () =
  (* Exit through at_exit on SIGTERM/SIGINT, so a spawned daemon is
     stopped and reaped rather than orphaned. *)
  List.iter
    (fun (signal, code) -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit code)))
    [ (Sys.sigterm, 143); (Sys.sigint, 130) ];
  match List.tl (Array.to_list Sys.argv) with
  | "measure" :: args -> measure args
  | "run" :: args -> run args
  | "golden" :: args -> golden args
  | "compare" :: args -> compare args
  | "table" :: args -> table args
  | _ -> die 2 "usage: xfd_bench measure|run|golden|compare|table ... (see xfdbench/README.md)"
