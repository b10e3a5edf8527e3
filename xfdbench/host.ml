(* How fast the core under this thread runs right now.

   The machines the benchmark runs on share cores with other tenants.  A
   core's speed drifts by up to 2.5x for seconds to minutes at a time,
   and each core drifts on its own.  So the benchmark times a fixed
   reference kernel on the same thread right after every call it
   measures, and scales the call's time by the kernel's slowdown over its
   nominal time ([scale]).

   The kernel shares no code and no heap with the program under test: it
   loops over a preallocated 16 KiB array and allocates nothing.  A change
   to the program cannot speed it up or slow it down, unless the change
   keeps a thread of its own busy on the same core. *)

let now = Unix.gettimeofday

(* The kernel's time on an undisturbed core of the machine the bench was
   built on (2.1 GHz Xeon, 2 vCPUs).  It only sets the scale: a scaled
   time reads as the wall time that machine's undisturbed core would
   take. *)
let nominal_ms = 0.6

let work = Array.make 2048 0

let kernel () =
  let acc = ref 0 in
  for i = 0 to 400_000 do
    let k = (i * 7919) land 2047 in
    work.(k) <- work.(k) + i;
    acc := !acc + work.((k * 31) land 2047)
  done;
  !acc

(* How many times slower than nominal this thread's core runs now. *)
let slowdown () =
  let t0 = now () in
  ignore (Sys.opaque_identity (kernel ()));
  1000.0 *. (now () -. t0) /. nominal_ms

(* A time measured at [slowdown], as it would read on an undisturbed
   core.  A workload's times grow as a power of the slowdown, [exponent],
   measured per workload: below 1 where the workload loses less to a busy
   neighbour than the kernel, a tight integer loop, does. *)
let scale ~exponent slowdown t = t /. (slowdown ** exponent)

(* The slowdown of a window from slowdowns sampled at even times in it.
   A core switches between a fast and a slow speed faster than the 50 ms
   between samples, so work done over the window averages the speeds
   [1/s]: the window's slowdown is the harmonic mean of the samples.  (Their
   median jumps between the two speeds as the slow share crosses one
   half.) *)
let window_slowdown = function
  | [] -> 1.0
  | samples ->
    float_of_int (List.length samples) /. List.fold_left (fun a s -> a +. (1.0 /. s)) 0.0 samples

(* ---- probing another process's core ---- *)

(* The cores this process may run on (Linux: [Cpus_allowed_list] in
   /proc/self/status, e.g. "0-3,6"). *)
let allowed_cpus () =
  let range r =
    match List.map int_of_string_opt (String.split_on_char '-' (String.trim r)) with
    | [ Some a ] -> [ a ]
    | [ Some a; Some b ] -> List.init (max 0 (b - a + 1)) (fun i -> a + i)
    | _ -> []
  in
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> []
  | status ->
    List.concat_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "Cpus_allowed_list"; v ] -> List.concat_map range (String.split_on_char ',' v)
        | _ -> [])
      (String.split_on_char '\n' status)

(* The core a spawned process is pinned to so that a probe pinned beside
   it measures its speed: the last allowed core, when there are two or
   more and taskset can pin to it.  [None]: run it unpinned and unprobed. *)
let spare_cpu =
  lazy
    (match List.rev (allowed_cpus ()) with
    | cpu :: _ :: _ when Sys.command (Printf.sprintf "taskset -c %d true >/dev/null 2>&1" cpu) = 0
      ->
      Some cpu
    | _ -> None)

(* [prog args] (with [args.(0)] the program) pinned to [cpu]. *)
let pinned cpu prog args =
  match cpu with
  | None -> (prog, args)
  | Some c -> ("taskset", Array.append [| "taskset"; "-c"; string_of_int c |] args)

(* Keep every thread of this process off [cpu], so that a load generator
   does not run on the core it measures.  Best effort: when no other core
   is allowed or taskset fails, nothing changes. *)
let avoid cpu =
  match List.filter (( <> ) cpu) (allowed_cpus ()) with
  | [] -> ()
  | others ->
    ignore
      (Sys.command
         (Printf.sprintf "taskset -a -p -c %s %d >/dev/null 2>&1"
            (String.concat "," (List.map string_of_int others))
            (Unix.getpid ())))

(* The probe the core_probe executable runs: this core's slowdown every
   50 ms, one per line, until it is killed. *)
let probe_forever () =
  while true do
    Unix.sleepf 0.05;
    Printf.printf "%.6f\n%!" (slowdown ())
  done
